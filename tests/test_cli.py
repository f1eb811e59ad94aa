import contextlib
import io
import json
import shlex
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import cli
from arithline.cli import COMMANDS, TABLE_BYTES, _load_table, main
from arithline.covers_galois import GroupTable, standard_group_tables

from oracles import (
    cyclic_table_by_hand,
    dihedral_table_by_hand,
    direct_product_table_by_hand,
    quaternion_table_by_hand,
    symmetric_table_by_hand,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_eval_base(capsys):
    code, out = run(capsys, "eval-base", "--f", "12", "--point", '{"place": 2, "exp": "1"}')
    assert code == 0 and out == {"v": 1, "exact": "1/4"}


def test_product_formula(capsys):
    code, out = run(capsys, "product-formula", "--f", "1")
    assert code == 0 and out == {"v": 1, "exact": "1"}
    code, out = run(capsys, "product-formula", "--f=-5/6")
    assert code == 0 and out["exact"] == "1"


def test_classify_and_shilov(capsys):
    code, out = run(capsys, "classify", "--point", '{"place": null, "exp": "0"}')
    assert out["category"] == "central"
    code, out = run(
        capsys, "shilov", "--V", '{"kind": "segment", "place": 3, "u": "1/2", "v": "2"}'
    )
    assert out["shilov"] == [
        {"place": 3, "exp": "1/2"},
        {"place": 3, "exp": "2"},
    ]


def test_ring_label(capsys):
    _, out = run(capsys, "ring-label", "--V", '{"kind": "star", "cuts": [{"place": 2, "v": "1/2"}]}')
    assert out["label"] == "Z_inverted" and out["inverted_primes"] == [2]


def test_base_norm_and_interval_payload(capsys):
    _, out = run(
        capsys, "base-norm", "--f", "-7",
        "--V", '{"kind": "segment", "place": "inf", "u": "1/2", "v": "1/2"}',
    )
    assert set(out) == {"v", "lo", "hi"}
    assert float(out["lo"]) <= 7 ** 0.5 <= float(out["hi"])


def printed(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.builds(F, st.integers(1, 200), st.sampled_from((1, 2, 3, 7, 64, 256, 499, 1000))),
    st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)),
    st.integers(-20, 20),
    st.sampled_from(("8", "128")),
)
@example(5, F(9, 1000), F(7, 625), 0, "128")  # CannotCertify in eval-base before
@example(3, F(97, 499), F(59049), 0, "128")  # CannotCertify in base-norm before
def test_a_point_prints_as_its_one_point_compact(p, e, f, v, bits):
    """eval-base at a_p^e, and eval-line of the constant f at a disk over it,
    print what base-norm over [e, e] prints, answer or refusal."""
    f *= F(p) ** v
    point = json.dumps({"place": p, "exp": str(e)})
    disk = json.dumps({"base": {"place": p, "exp": str(e)}, "fiber": {"kind": "um", "alpha": "1/3", "r": "5"}})
    segment = json.dumps({"kind": "segment", "place": p, "u": str(e), "v": str(e)})
    want = printed("--bits", bits, "base-norm", f"--f={f}", "--V", segment)
    assert printed("--bits", bits, "eval-base", f"--f={f}", "--point", point) == want
    assert printed("--bits", bits, "eval-line", "--F", json.dumps([str(f)]), "--point", disk) == want


def test_no_flag_is_read_by_int():
    """Every integer flag reads ``numbers.parse_int``'s digits, not int()'s
    literals ("1_0", " 3", Unicode digits)."""
    from arithline.cli import COMMANDS, build_parser

    types = {kind.options.get("type") for _, specs, _ in COMMANDS.values() for _, kind in specs}
    assert int not in types and len(types - {None}) == 1
    assert all(a.type is not int for a in build_parser()._actions)


# The values the reader must read as argparse does or leave to it: negative
# numbers and dashes, "--" (argparse drops it from a value), integers that
# parse_int refuses, spaces, JSON, and the --op choices.
ARGV_VALUES = ("12", "-5", "-1/2", "-", "", "--", "1_0", "\u0663", " 3", "x y", "-x y", "[1,2]", "add", "div")


@st.composite
def argvs(draw):
    """An argv over one COMMANDS entry: each flag dropped, given once or
    twice, in full or abbreviated, as --flag value, --flag=value or bare, the
    flags in any order; --bits or --bits= before or after the command, and
    now and then -h."""
    name = draw(st.sampled_from(list(COMMANDS)))
    value = st.sampled_from(ARGV_VALUES + ("12",) * 14)  # mostly a value every kind reads
    groups = []
    for flag, kind in COMMANDS[name][1]:
        for _ in range(draw(st.sampled_from((1,) * 16 + (0, 2)))):
            spelled = draw(st.sampled_from((flag,) * 8 + (flag[:draw(st.integers(2, len(flag)))],)))
            forms = ("bare",) * 8 if "action" in kind.options else ("separate",) * 4 + ("equals",) * 4
            form = draw(st.sampled_from(forms + ("separate", "equals", "bare")))
            if form == "separate":
                groups.append([spelled, draw(value)])
            else:
                groups.append([f"{spelled}={draw(value)}" if form == "equals" else spelled])
    argv = [name] + [token for group in draw(st.permutations(groups)) for token in group]
    bits = draw(st.sampled_from((None,) * 4 + ("16", "8", "7")) | value)
    if bits is not None:
        tokens = draw(st.sampled_from((["--bits", bits], [f"--bits={bits}"])))
        at = draw(st.sampled_from((0, 0, 1, len(argv))))
        argv[at:at] = tokens
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "-h")
    return argv


def argparse_reading(argv):
    """argparse's (command, bits, values), or "exit" for help or a usage error."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli._parsed(argv)
    except SystemExit:
        return "exit"


@settings(max_examples=2000, deadline=None)
@given(argvs())
@example(["divide", "--F", "[1]", "--G=--", "--w", "5"])
@example(["--bits=--", "product-formula", "--f", "1"])
@example(["unif-norm", "--f", "[1]", "--A", "{}", "--upper-bound"])
@example(["series-arith", "--f", "[1]", "--g", "[1]", "--op=div"])
@example(["cartan", "--a", "[]", "--place", "2", "--u", "1", "--s", "1/2", "--t", "2"])
def test_the_argv_reader_answers_as_argparse_or_defers(argv):
    """``cli._read`` gives argparse's (command, bits, values) or None, and
    None wherever argparse prints help or a usage error."""
    got = cli._read(argv)
    assert got is None or got == argparse_reading(argv)


@pytest.mark.parametrize("argv", [
    ["--bits=--", "product-formula", "--f", "1"],
    ["divide", "--F", "[0,0,0,1]", "--G=--", "--w", "5"],
])
def test_a_value_of_dashes_given_with_equals_never_reaches_the_library(capsys, argv):
    """Python 3.10 to 3.12 read ``--flag=--`` as an empty list without calling
    the flag's type.  It is refused as a usage error (3.13 refuses it as
    input), not passed on to fail as an InternalError or as a misleading
    refusal of a list."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "InternalError" not in err and "not list" not in err


def test_every_kind_uses_only_the_options_the_reader_takes():
    for _, specs, _ in COMMANDS.values():
        for _, kind in specs:
            assert set(kind.options) <= {"required", "default", "type", "choices", "action"}
            assert kind.options.get("action", "store_true") == "store_true"


def readme_examples():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("```sh\narithline eval-base", 1)[1].split("```", 1)[0]
    calls = ("arithline eval-base" + block).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in calls if line.startswith("arithline ")]


def spelled_in_full(argv):
    """Every flag of argv spelled in full, and no separate value starting with "-"."""
    head = 2 if argv[0] == "--bits" else 1 if argv[0].startswith("--bits=") else 0
    kinds = dict(COMMANDS[argv[head]][1]) if argv[head] in COMMANDS else {}
    rest = argv[head + 1:]
    separate = [b for a, b in zip(rest, rest[1:]) if a in kinds and "action" not in kinds[a].options]
    return all(t.partition("=")[0] in kinds for t in rest if t.startswith("-")) and not any(
        v.startswith("-") for v in separate)


def test_the_reader_takes_the_readme_examples_and_the_plain_golden_calls():
    """Every README example, and every exit-0 golden call spelled in full, is
    read without argparse, so the plain path is the one a call takes."""
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    calls = readme_examples()
    assert len(calls) == 5
    calls += [case["argv"] for case in golden if case["exit"] == 0 and spelled_in_full(case["argv"])]
    assert len(calls) > 90
    for argv in calls:
        assert cli._read(argv) == argparse_reading(argv), argv


def test_eval_line_and_flow(capsys):
    pt = '{"base": {"place": 2, "exp": "1"}, "fiber": {"kind": "um", "alpha": "0", "r": "1"}}'
    _, out = run(capsys, "eval-line", "--F", '["4","2","1"]', "--point", pt)
    assert out["exact"] == "1"
    _, out = run(capsys, "flow", "--point", pt, "--eps", "2")
    assert out["image"]["base"] == {"place": 2, "exp": "2"}
    assert out["image"]["fiber"]["r"] == "1"


def test_divide_cli_example(capsys):
    code, out = run(capsys, "divide", "--F", "[0,0,0,1]", "--G", '["2","2","1"]', "--w", "5")
    assert code == 0
    assert out["Q"] == ["-2", "1"] and out["R"] == ["4", "2"]
    assert out["cert"]["q_bound_ok"] and out["cert"]["r_bound_ok"]


def test_norm_annulus_cli(capsys):
    A = '{"V": {"kind": "segment", "place": 2, "u": "1", "v": "1"}, "s": "1/2", "t": "2"}'
    f = '{"coeffs": {"-1": "2", "0": "3", "2": "1"}, "mod": null}'
    _, out = run(capsys, "norm-annulus", "--f", f, "--A", A)
    assert out["exact"] == "6"
    _, out = run(capsys, "unif-norm", "--f", f, "--A", A)
    assert out["exact"] == "4"


def test_hensel_cli(capsys):
    _, out = run(capsys, "hensel", "--P", '["-2","0","1"]', "--prime", "7", "--seed", "3", "--N", "3")
    assert out["root"] == {"p": 7, "N": 3, "residue": 108}
    _, out = run(
        capsys, "hensel",
        "--P", '[{"coeffs": {"0": "-1", "1": "-1"}, "mod": null}, {"coeffs": {}, "mod": null}, {"coeffs": {"0": "1"}, "mod": null}]',
        "--f0", '{"coeffs": {"0": "1"}, "mod": null}', "--m", "4",
    )
    assert out["root"]["coeffs"]["1"] == "1/2"


def test_cousin_and_cartan_cli(capsys):
    _, out = run(capsys, "cousin-split", "--a", "5/6", "--place", "2", "--u", "1")
    assert out["a_minus"] == "1/3" and out["a_plus"] == "-1/2"
    a = json.dumps([[{"coeffs": {"0": "1", "-1": "8/3"}, "mod": None}]])
    _, out = run(
        capsys, "cartan", "--a", a, "--place", "2", "--u", "1", "--s", "1/2", "--t", "2"
    )
    assert out["sides_ok"] and out["bound_4D_ok"]
    assert out["residual"] == {"exact": "0"}


def test_cover_cli(capsys):
    code, out = run(capsys, "cover", "--n", "2", "--p", "3", "--m", "3", "--N", "6")
    assert code == 0 and out["zero_at_precision"]
    assert out["descriptor"]["zeta"]["p"] == 3


def test_group_cli(capsys):
    table = json.dumps([[1, 2], [2, 1]])
    _, out = run(capsys, "group-mu", "--table", table)
    assert out["injective"] and out["homomorphism"]
    _, out = run(capsys, "group-data", "--table", "standard", "--name", "Z4", "--i", "3")
    assert out["n_i"] == 2 and out["d_i"] == 2


def test_a_standard_table_is_built_alone(capsys, monkeypatch):
    """``--table standard`` builds the named table and no other."""
    built = []
    init = GroupTable.__init__

    def counting_init(G, table):
        built.append(len(table))
        init(G, table)

    monkeypatch.setattr(GroupTable, "__init__", counting_init)
    _, out = run(capsys, "group-data", "--table", "standard", "--name", "Z4", "--i", "3")
    assert out["n_i"] == 2 and built == [4]


def test_standard_tables_are_the_tables_built_by_name():
    Z2, Z4 = cyclic_table_by_hand(2), cyclic_table_by_hand(4)
    by_hand = {
        **{f"Z{n}": cyclic_table_by_hand(n) for n in range(1, 9)},
        "Z2xZ2": direct_product_table_by_hand(Z2, Z2),
        "Z2xZ4": direct_product_table_by_hand(Z2, Z4),
        "S3": symmetric_table_by_hand(3),
        "D4": dihedral_table_by_hand(4),
        "Q8": quaternion_table_by_hand(),
    }
    assert list(standard_group_tables()) == list(by_hand)
    assert standard_group_tables() == by_hand
    assert {name: _load_table("standard", name) for name in by_hand} == by_hand


def test_a_table_file_is_read_up_to_its_byte_bound(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("[[1]]".ljust(TABLE_BYTES))  # padded with spaces to the bound
    code, out = run(capsys, "group-mu", "--table", str(path))
    assert code == 0 and out["injective"]
    path.write_text("[[1]]".ljust(TABLE_BYTES + 1))
    assert main(["group-mu", "--table", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["detail"] == f"table file longer than {TABLE_BYTES} bytes"


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "eval-base", "--f", "1/5", "--point", '{"place": 5, "exp": "inf"}')
    assert code == 2
    assert out["error"] == "NonIntegralAtExtremePoint"


def test_malformed_input_exit_code(capsys):
    code = main(["eval-base", "--f", "12", "--point", "{bad json"])
    capsys.readouterr()
    assert code == 1
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 1


A21 = '{"V": {"kind": "segment", "place": 2, "u": "1", "v": "1"}, "s": "1/2", "t": "2"}'
SQRT_P = '[{"coeffs": {"0": "-1", "1": "-1"}, "mod": null}, {"coeffs": {}, "mod": null}, {"coeffs": {"0": "1"}, "mod": null}]'
ONE = '{"coeffs": {"0": "1"}, "mod": null}'


@pytest.mark.parametrize(
    "argv",
    [
        ["split-sides", "--f", '{"coeffs": []}'],
        ["norm-annulus", "--f", '{"coeffs": []}', "--A", A21],
        ["matrix-norm", "--a", '[[{"coeffs": []}]]', "--A", A21],
        ["eisenstein", "--P", SQRT_P, "--f0", '{"coeffs": []}', "--m", "5", "--places", '["inf"]'],
        ["lagrange-bound", "--f", '["0","1"]', "--g", '["-1","0","1"]', "--roots", "[[]]", "--r", "1", "--place", "inf"],
        ["lagrange-bound", "--f", '["0","1"]', "--g", '["-1","0","1"]', "--roots", '[["1"]]', "--r", "1", "--place", "inf"],
        ["eisenstein", "--P", SQRT_P, "--f0", ONE, "--m", "5", "--places", "[null]"],
        ["group-data", "--table", '[["1"]]', "--i", "2"],
        ["group-data", "--table", "standard", "--name", "S3", "--i", "0"],
        ["base-norm", "--f", "1", "--V", '{"kind": "star", "cuts": [{"place": null, "v": "1"}]}'],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_shape_is_bad_input(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"] == "BadInput"


@pytest.mark.parametrize(
    "g,roots",
    [('["-1","0","1"]', '["1","1"]'), ('["-1","0","1"]', '["1","2"]'), ('["1","0","1"]', '[["0","1"],["0","1"]]')],
    ids=["repeated-root", "non-root", "i-twice"],
)
def test_lagrange_roots_must_multiply_back_to_g(g, roots, capsys):
    code = main(["lagrange-bound", "--f", '["0","1"]', "--g", g, "--roots", roots, "--r", "2", "--place", "inf"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"v": 1, "error": "BadInput", "detail": "supplied roots do not multiply back to g"}


def test_bits_override(capsys, monkeypatch):
    from arithline.normvalue import set_default_bits

    V = '{"kind": "segment", "place": "inf", "u": "1/2", "v": "1/2"}'
    monkeypatch.setenv("ARITHLINE_BITS", "32")
    code, out = run(capsys, "base-norm", "--f=-7", "--V", V)
    assert code == 0
    width32 = float(out["hi"]) - float(out["lo"])
    code, out = run(capsys, "--bits", "16", "base-norm", "--f=-7", "--V", V)
    width16 = float(out["hi"]) - float(out["lo"])
    assert width32 < width16 < 1e-3
    set_default_bits(128)


def test_selftest_deterministic(capsys):
    code1, out1 = run(capsys, "selftest", "--suite", "covers", "--seed", "7")
    code2, out2 = run(capsys, "selftest", "--suite", "covers", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1["failures"] == 0


def test_selftest_unknown_suite(capsys):
    code, out = run(capsys, "selftest", "--suite", "bogus")
    assert code == 1 and out["error"] == "UnknownSuite"


def test_outputs_reparse(capsys):
    """Round-trip: emitted objects parse back through the declared schemas."""
    from arithline import jsonio as io

    A = '{"V": {"kind": "segment", "place": 2, "u": "1", "v": "1"}, "s": "1/2", "t": "2"}'
    _, out = run(capsys, "shilov-annulus", "--A", A)
    pts = [io.parse_line_point(x) for x in out["shilov"]]
    assert len(pts) == 2
    A0 = '{"V": {"kind": "segment", "place": "inf", "u": "0", "v": "0"}, "s": "0", "t": "1/2"}'
    _, out = run(capsys, "invert-unit", "--f", '{"coeffs": {"0": "1", "1": "1"}, "mod": null}',
                 "--A", A0, "--m", "4")
    g = io.parse_laurent(out["inverse"])
    assert g.coeff(3) == -1


def test_every_subcommand_reachable(capsys):
    """One invocation per subcommand: output parses and exits 0."""
    seg21 = '{"kind": "segment", "place": 2, "u": "1", "v": "1"}'
    A21 = '{"V": ' + seg21 + ', "s": "1/2", "t": "2"}'
    disk0 = '{"V": {"kind": "segment", "place": "inf", "u": "0", "v": "0"}, "s": "0", "t": "1/2"}'
    calls = [
        ("eval-base", ["--f", "12", "--point", '{"place": 2, "exp": "1"}']),
        ("product-formula", ["--f", "12"]),
        ("classify", ["--point", '{"place": 3, "exp": "2"}']),
        ("base-norm", ["--f", "6", "--V", seg21]),
        ("shilov", ["--V", seg21]),
        ("ring-label", ["--V", seg21]),
        ("eval-line", ["--F", '["4","2","1"]', "--point",
                       '{"base": {"place": 2, "exp": "1"}, "fiber": {"kind": "um", "alpha": "0", "r": "1"}}']),
        ("flow", ["--point",
                  '{"base": {"place": 2, "exp": "1"}, "fiber": {"kind": "um", "alpha": "0", "r": "1/2"}}',
                  "--eps", "2"]),
        ("series-arith", ["--f", '{"coeffs": {"0": "1", "1": "1"}, "mod": 3}',
                          "--g", '{"coeffs": {"0": "1", "1": "-1"}, "mod": 3}', "--op", "mul"]),
        ("compare-factor", ["--s", "1/2", "--t", "2", "--u", "1", "--v", "1"]),
        ("find-prime", ["--n", "3"]),
        ("norm-annulus", ["--f", '{"coeffs": {"0": "3"}, "mod": null}', "--A", A21]),
        ("unif-norm", ["--f", '{"coeffs": {"0": "3"}, "mod": null}', "--A", A21]),
        ("shilov-annulus", ["--A", A21]),
        ("invert-unit", ["--f", '{"coeffs": {"0": "1", "1": "1"}, "mod": null}', "--A", disk0, "--m", "4"]),
        ("threshold", ["--G", '["2","2","1"]']),
        ("divide", ["--F", "[0,0,0,1]", "--G", '["2","2","1"]', "--w", "5"]),
        ("divide-local", ["--F", '{"coeffs": {"2": "1"}, "mod": 5}',
                          "--G", '{"coeffs": {"2": "1", "3": "1"}, "mod": 5}',
                          "--p", "2", "--m", "5", "--A", disk0]),
        ("prepare", ["--G", '{"coeffs": {"1": "1", "2": "2"}, "mod": null}',
                     "--p", "1", "--m", "4", "--A", disk0]),
        ("hensel", ["--P", '["-2","0","1"]', "--prime", "7", "--seed", "3", "--N", "3"]),
        ("hensel-factor", ["--G", "[1,0,1]", "--factors", "[[-2,1],[2,1]]", "--prime", "5", "--N", "2"]),
        ("resultant", ["--P", '["-1","0","1"]', "--Q", '["0","2"]']),
        ("lagrange-bound", ["--f", '["0","1"]', "--g", '["-1","0","1"]',
                            "--roots", '["1", "-1"]', "--r", "1", "--place", "inf"]),
        ("residual-norm", ["--G", '["2","2","1"]', "--w", "5", "--F", '{"coeffs": {"1": "1"}, "mod": null}']),
        ("condition-rg", ["--U", seg21.replace('"v": "1"', '"v": "inf"'), "--G", '["1","0","1"]']),
        ("cousin-split", ["--a", "5/6", "--place", "2", "--u", "1"]),
        ("split-sides", ["--f", '{"coeffs": {"-1": "2", "0": "3"}, "mod": null}']),
        ("split-series", ["--f", '{"coeffs": {"1": "5/6"}, "mod": null}',
                          "--place", "2", "--u", "1", "--s", "1/2", "--t", "2"]),
        ("runge", ["--s-list", '[{"coeffs": {"1": "1/6"}, "mod": null}]',
                   "--t-list", '[{"coeffs": {"1": "1"}, "mod": null}]',
                   "--place", "2", "--u", "1", "--s", "1/2", "--t", "2", "--delta", "1/100"]),
        ("matrix-norm", ["--a", '[[{"coeffs": {"0": "1"}, "mod": null}]]', "--A", A21]),
        ("neumann", ["--a", '[[{"coeffs": {"0": "1", "1": "16"}, "mod": null}]]', "--A", A21, "--m", "4"]),
        ("cartan", ["--a", '[[{"coeffs": {"0": "1", "-1": "8/3"}, "mod": null}]]',
                    "--place", "2", "--u", "1", "--s", "1/2", "--t", "2"]),
        ("cover", ["--n", "2", "--p", "3", "--m", "3", "--N", "6"]),
        ("zeta", ["--n", "3", "--p", "7", "--N", "2"]),
        ("binomial", ["--n", "3", "--m", "4", "--p", "7"]),
        ("eisenstein", ["--P",
                        '[{"coeffs": {"0": "-1", "1": "-1"}, "mod": null}, {"coeffs": {}, "mod": null}, {"coeffs": {"0": "1"}, "mod": null}]',
                        "--f0", '{"coeffs": {"0": "1"}, "mod": null}', "--m", "5", "--places", '["inf", 3]']),
        ("group-data", ["--table", "standard", "--name", "Z4", "--i", "3"]),
        ("group-mu", ["--table", "[[1,2],[2,1]]"]),
        ("selftest", ["--suite", "covers", "--seed", "1"]),
    ]
    from arithline.cli import build_parser

    registered = set(build_parser()._subparsers._group_actions[0].choices)
    assert {name for name, _ in calls} == registered
    spec_listed = {
        "eval-base", "product-formula", "classify", "base-norm", "shilov",
        "ring-label", "eval-line", "flow", "norm-annulus", "unif-norm",
        "shilov-annulus", "invert-unit", "threshold", "divide", "divide-local",
        "prepare", "hensel", "hensel-factor", "resultant", "lagrange-bound",
        "residual-norm", "condition-rg", "cousin-split", "split-sides",
        "split-series", "runge", "matrix-norm", "neumann", "cartan", "cover",
        "zeta", "binomial", "eisenstein", "group-data", "group-mu", "selftest",
    }
    assert spec_listed <= registered
    assert registered - spec_listed == {"series-arith", "compare-factor", "find-prime"}
    for name, argv in calls:
        code, out = run(capsys, name, *argv)
        assert code == 0, (name, out)
        assert out["v"] == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_an_output_past_the_digit_limit_exits_2(capsys):
    """cousin-split at u = 20000 puts 2^20000 (6021 digits) into its
    certificate: a typed refusal with exit 2, not BadInput."""
    code, out = run(capsys, "cousin-split", "--a", "5/6", "--place", "2", "--u", "20000")
    assert code == 2
    assert out["error"] == "OutputTooLarge"
