"""The CLI as a long-lived process sees it: one shared parser, per-call
precision, and a quiet exit when the reader of stdout goes away."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import arithline
from arithline import cli
from arithline.normvalue import default_bits

SRC = str(pathlib.Path(arithline.__file__).resolve().parents[1])
SEG = '{"kind": "segment", "place": "inf", "u": "1/2", "v": "1/2"}'

MIXED = [
    ["eval-base", "--f", "12", "--point", '{"place": 2, "exp": "1"}'],
    ["no-such-command"],
    ["--help"],
    ["divide", "--F", "[0,0,0,1]", "--G", '["2","2","1"]', "--w", "5"],
    ["eval-base", "--f", "12"],
    ["series-arith", "--f", '{"coeffs": {"0": "1"}, "mod": 3}', "--g", '{"coeffs": {"0": "1"}, "mod": 3}',
     "--op", "div"],
    ["eval-base", "--f", "1/5", "--point", '{"place": 5, "exp": "inf"}'],
    ["divide", "--help"],
    ["--bits", "16", "base-norm", "--f=-7", "--V", SEG],
    ["eval-base", "--f", "12", "--point", "{bad json"],
    ["base-norm", "--f=-7", "--V", SEG],
    ["selftest", "--suite", "bogus"],
    ["hensel", "--P", '["-2","0","1"]', "--prime", "7", "--seed", "3", "--N", "3"],
    ["eval-base", "--f", "12", "--point", '{"place": 2, "exp": "1"}'],
    # left to argparse by ``_read``: an abbreviation, a repeat, a dash value, --bits after the command, "=--"
    ["eval-base", "--f", "12", "--poi", '{"place": 2, "exp": "1"}'],
    ["product-formula", "--f", "3", "--f", "12"],
    ["product-formula", "--f", "-5"],
    ["base-norm", "--f=-7", "--V", SEG, "--bits=16"],
    ["divide", "--F", "[0,0,0,1]", "--G=--", "--w", "5"],
    ["--bits=16", "base-norm", "--f=-7", "--V", SEG],
]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_answers_like_a_fresh_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ARITHLINE_BITS", raising=False)
    shared = [call(argv) for argv in MIXED]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [call(argv) for argv in MIXED]
    for argv, got, want in zip(MIXED, shared, fresh):
        assert got == want, argv
    assert [code for code, _, _ in shared] == [0, 1, 0, 0, 1, 1, 2, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0]


def test_bits_hold_for_one_call(monkeypatch):
    monkeypatch.delenv("ARITHLINE_BITS", raising=False)
    before = default_bits()
    assert call(["--bits", "16", "base-norm", "--f=-7", "--V", SEG])[0] == 0
    assert default_bits() == before
    monkeypatch.setenv("ARITHLINE_BITS", "32")
    assert call(["base-norm", "--f=-7", "--V", SEG])[0] == 0
    assert default_bits() == before


@pytest.mark.parametrize("bits", ["4", "7", "abc", "16.5", " "])
def test_bad_precision_is_refused_with_exit_1(bits, monkeypatch):
    monkeypatch.delenv("ARITHLINE_BITS", raising=False)
    before = default_bits()
    code, out, err = call(["--bits", bits, "product-formula", "--f", "1"])
    assert (code, out) == (1, "")
    assert "usage: arithline" in err and "argument --bits" in err and "Traceback" not in err
    monkeypatch.setenv("ARITHLINE_BITS", bits)
    code, out, err = call(["product-formula", "--f", "1"])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "BadInput" and payload["detail"].startswith("ARITHLINE_BITS: ")
    assert default_bits() == before


def child_env(unbuffered=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ARITHLINE_BITS", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_only_a_call_left_to_argparse_builds_the_parser():
    """Import builds no parser, and neither does a call that ``_read``
    takes; the first usage error builds the top parser and one per
    subcommand, and the next one reuses them."""
    probe = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import arithline.cli as cli\n"
        "counts = [len(built)]\n"
        "for argv in (['product-formula', '--f', '12'], ['product-formula'], ['product-formula', '--g', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        cli.main(argv)\n"
        "    counts.append(len(built))\n"
        "print(*counts)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    at_import, plain, first_error, second_error = map(int, proc.stdout.split())
    assert at_import == plain == 0
    assert first_error == second_error == 1 + len(cli.COMMANDS)  # the top parser and one per subcommand


# Buffered, the failed write comes with the flush in `main`; unbuffered, it
# comes from `print` itself.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_quietly(unbuffered):
    argv = ["-m", "arithline.cli", "eval-base", "--f", "12", "--point", '{"place": 2, "exp": "1"}']
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the child writes
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    assert stderr == ""
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "f, code, payload",
    [
        ("1/4951760154835678088235319297", 0, {"v": 1, "exact": "1"}),  # 1/((2^31 - 1)(2^61 - 1))
        (str((2 ** 61 - 1) * (2 ** 89 - 1)), 2, None),
    ],
    ids=["two-mersenne-primes", "refused"],
)
def test_product_formula_answers_or_refuses_in_bounded_time(f, code, payload):
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "product-formula", "--f", f],
        capture_output=True, text=True, env=child_env(), timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    out = json.loads(proc.stdout)
    if payload is None:
        assert out["error"] == "CannotFactor"
    else:
        assert out == payload


@pytest.mark.parametrize("eps, error", [("1/1000000000", "IrrationalRadius"), ("1000000000", "CannotCertify")])
def test_flow_refuses_a_huge_power_in_bounded_time(eps, error):
    """An exact radius (1/2) ** eps would build a 10^9-bit integer, inside
    the root for eps = 1/10^9; the first has no rational root, which the bit
    length of 1/2 shows, and the second is past the POW_BITS budget."""
    point = '{"base": {"place": 2, "exp": "1"}, "fiber": {"kind": "um", "alpha": "0", "r": "1/2"}}'
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "flow", "--point", point, "--eps", eps],
        capture_output=True, text=True, env=child_env(), timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"] == error


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


NORM_AT_3 = '{"V": {"kind": "segment", "place": 2, "u": "1", "v": "1"}, "s": "0", "t": "3"}'
DIVISOR = '["-6","0","3","1"]'


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["norm-annulus", "--f", '{"coeffs": {"100000000": "1"}, "mod": null}', "--A", NORM_AT_3],
         "x ** e exceeds the budget of 65536 bits of work"),
        (["divide", "--F", '{"coeffs": {"100000": "1"}, "mod": null}', "--G", DIVISOR, "--w", "40"],
         "DIVISION_WORK"),
        (["divide", "--F", '{"coeffs": {"1000000": "1"}, "mod": null}', "--G", DIVISOR, "--w", "40"],
         "DIVISION_WORK"),
        (["divide", "--F", '{"coeffs": {"30000": "1"}, "mod": null}', "--G", '["-3","1"]', "--w", "40"],
         "x ** e exceeds the budget of 65536 bits of work"),
    ],
    ids=["radius-power", "division-1e5", "division-1e6", "divide-radius-power"],
)
def test_budget_refusals_exit_2_under_a_memory_cap(argv, detail):
    """Each call is refused before its work starts: CannotCertify as
    versioned JSON on stdout, exit 2 and no traceback, inside a 2 GB address
    space and a 10 s wall cap (T^(10^6) / G once died with a MemoryError
    traceback under such a cap, and T^(10^8) at t = 3 ran past 20 s; T^30000
    / (T - 3) at w = 40 passes DIVISION_WORK, and its w^30000 is refused
    before a quotient of about 90 MB is built)."""
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    out = json.loads(proc.stdout)
    assert out["v"] == 1 and out["error"] == "CannotCertify" and detail in out["detail"]


def test_an_exponent_literal_is_refused_at_once_under_a_memory_cap():
    """A rational is "p" or "p/q" in ASCII digits, so 1e100000000 is refused as
    it is read, exit 1 with BadInput on stderr, inside a 2 GB address space
    and a 10 s wall cap, before any 10^100000000 is built."""
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "eval-base", "--f", "1e100000000", "--point",
         '{"place": 2, "exp": "1"}'],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {"v": 1, "error": "BadInput",
                                       "detail": "Invalid literal for Fraction: '1e100000000'"}


def test_local_division_modulo_a_huge_power_answers_at_once_under_a_memory_cap():
    """F = 1 lies below T^p, so the fixed point stops at r_0 = 0 and nothing
    is sized by the modulus 2^200: the golden bytes, exit 0 and no
    traceback, inside a 2 GB address space and a 10 s wall cap (a list of
    length m - p would fail with an OverflowError traceback)."""
    cases = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())
    (case,) = [c for c in cases if c["argv"][0] == "divide-local" and str(2 ** 200) in c["argv"]]
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", *case["argv"]],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["exit"], case["stdout"], case["stderr"])


CENTRAL_HALF = '{"V": {"kind": "segment", "place": "inf", "u": "0", "v": "0"}, "s": "0", "t": "1/2"}'


def test_local_division_to_order_2048_answers_under_a_memory_cap():
    """F = 1 + 2T + 3T^2 + 4T^3 + 5T^4 divided by G = 3T + T^2 - 2T^3 + T^5
    modulo T^2048 takes 2047 residual steps, each on one window of integer
    numerators whose denominators grow by 3 a step: exit 0 inside a 2 GB
    address space and a 10 s wall cap, and the same stdout, recorded here by
    its SHA-256, as the loop that kept each residual as a dict printed."""
    G = '{"coeffs": {"1": "3", "2": "1", "3": "-2", "5": "1"}, "mod": null}'
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "divide-local", "--F", "[1,2,3,4,5]", "--G", G, "--p", "1",
         "--m", "2048", "--A", CENTRAL_HALF],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "2904ac22653479a7476b4417850600e1f8d934c91dda342d982af6dea5b99cf5")


def test_factor_lift_of_1200_seeds_answers_under_a_memory_cap():
    """The lift is one pass over the seeds, so 1200 seeds 1 answer: exit 0
    and the 1200 lifted factors, inside a 2 GB address space and a 10 s
    wall cap (a lift that recursed once per seed exited 3 with a
    RecursionError after about 11 s)."""
    ones = json.dumps([[1]] * 1200)
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "hensel-factor", "--G", "[1]", "--factors", ones,
         "--prime", "2", "--N", "2"],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"v": 1, "factors": [[1]] * 1200}


def test_an_endless_table_file_is_refused_under_a_memory_cap():
    """``--table`` reads a file up to TABLE_BYTES and refuses a longer one, so
    /dev/zero is BadInput, exit 1, inside a 2 GB address space and a 10 s
    wall cap (read whole, it met a MemoryError, exit 3)."""
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "group-mu", "--table", "/dev/zero"],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    detail = f"table file longer than {cli.TABLE_BYTES} bytes"
    assert json.loads(proc.stderr) == {"v": 1, "error": "BadInput", "detail": detail}


def test_group_mu_of_a_cyclic_table_of_order_470_answers_under_a_memory_cap(tmp_path):
    """Light's associativity test costs O(n^2 log n) and mu reads the rows, so
    Z/470, written compactly under TABLE_BYTES, answers: exit 0 inside a 2 GB
    address space and a 10 s wall cap (over all n^3 triples, twice, it took
    about 20 s)."""
    n = 470
    path = tmp_path / "z470.json"
    path.write_text(json.dumps([[(i + j) % n + 1 for j in range(n)] for i in range(n)], separators=(",", ":")))
    assert path.stat().st_size <= cli.TABLE_BYTES
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "group-mu", "--table", str(path)],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout)
    assert out["injective"] and out["homomorphism"] and out["map"]["2"][-1] == 1


def test_a_non_associative_loop_of_order_300_is_refused_under_a_memory_cap(tmp_path):
    """Z/300 with the 2x2 subsquare on rows and columns 2 and 152 switched is
    a Latin square with an identity, so only associativity refuses it: exit 1,
    BadInput, inside a 2 GB address space and a 10 s wall cap."""
    n, a, b = 300, 1, 151
    t = [[(i + j) % n + 1 for j in range(n)] for i in range(n)]
    t[a][a], t[a][b], t[b][a], t[b][b] = t[a][b], t[a][a], t[b][b], t[b][a]
    path = tmp_path / "loop300.json"
    path.write_text(json.dumps(t, separators=(",", ":")))
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "group-mu", "--table", str(path)],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr) == {"v": 1, "error": "BadInput", "detail": "associativity fails"}


SQRT_1_PLUS_T = ['[{"coeffs": {"0": "-1", "1": "-1"}, "mod": null}, {"coeffs": {}, "mod": null}, '
                 '{"coeffs": {"0": "1"}, "mod": null}]', '{"coeffs": {"0": "1"}, "mod": null}']
NEUMANN_16T = ['[[{"coeffs": {"0": "1", "1": "16"}, "mod": null}]]',
               '{"V": {"kind": "segment", "place": 2, "u": "1", "v": "1"}, "s": "1/2", "t": "2"}']


def _series_pass(command, m):
    if command == "neumann":
        argv = ["neumann", "--a", NEUMANN_16T[0], "--A", NEUMANN_16T[1], "--m", str(m)]
    else:
        argv = ["hensel", "--P", SQRT_1_PLUS_T[0], "--f0", SQRT_1_PLUS_T[1], "--m", str(m)]
    return subprocess.run(
        [sys.executable, "-m", "arithline.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )


def test_neumann_to_order_3000_answers_under_a_memory_cap():
    """The Neumann sum of (1 + 16T)^-1 is one running integer sum per entry,
    so m = 3000 answers: exit 0 and (-16)^k at every k < m, inside a 2 GB
    address space and a 10 s wall cap (copying the sum at every term cost
    time quadratic in m)."""
    proc = _series_pass("neumann", 3000)
    assert (proc.returncode, proc.stderr) == (0, "")
    coeffs = json.loads(proc.stdout)["inverse"]["entries"][0][0]["coeffs"]
    assert len(coeffs) == 3000 and coeffs["2999"] == str((-16) ** 2999)


def test_series_hensel_to_order_256_answers_under_a_memory_cap():
    """sqrt(1 + T) to m = 256, its long products made by Kronecker
    substitution: exit 0 inside a 2 GB address space and a 10 s wall cap."""
    proc = _series_pass("hensel", 256)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout)
    assert out["gauges"][-1] == 256 and len(out["root"]["coeffs"]) == 256


def test_series_hensel_to_order_1024_answers_under_a_memory_cap():
    """sqrt(1 + T) to m = 1024 by Newton at doubling precision, the gauges
    read off the rule v' = 2 v + v(P''(r)/2): exit 0 inside a 2 GB address
    space and a 10 s wall cap (every step at full precision took about 15 s
    of CPU), the gauges 1, 2, 4, ..., 1024 and coefficient 1023 the binomial
    C(1/2, 1023)."""
    proc = _series_pass("hensel", 1024)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout)
    assert out["gauges"] == [2 ** k for k in range(11)]
    c = Fraction(1)
    for i in range(1023):
        c = c * (Fraction(1, 2) - i) / (i + 1)
    assert Fraction(out["root"]["coeffs"]["1023"]) == c


@pytest.mark.parametrize("command", ["neumann", "hensel"])
def test_a_huge_truncation_order_is_refused_at_once_under_a_memory_cap(command):
    """m above SERIES_ORDER is refused before the pass starts: CannotCertify,
    exit 2, inside a 2 GB address space and a 10 s wall cap (at
    m = 1000000007 both were still running at 10 s)."""
    proc = _series_pass(command, 1000000007)
    assert (proc.returncode, proc.stderr) == (2, "")
    out = json.loads(proc.stdout)
    assert out == {"v": 1, "error": "CannotCertify",
                   "detail": "a truncation order of 1000000007 exceeds the SERIES_ORDER budget of 4096"}


HUGE = str(2 ** 4000 + 1)  # a 4001-bit coefficient, far past float range
F18 = json.dumps([0] * 18 + [1])


@pytest.mark.parametrize(
    "G, argv, code, digest",
    [
        ([HUGE, 0, 1], ["threshold"], 2, "019f2491409aed6007e3c95be6a97aede91395e4feb86b45a2611d012b8ee5b5"),
        ([HUGE, 0, 1], ["divide", "--F", F18, "--w", str(2 ** 300)], 2,
         "019f2491409aed6007e3c95be6a97aede91395e4feb86b45a2611d012b8ee5b5"),
        ([HUGE] + [0] * 15 + [1], ["threshold"], 0, "4536780e1d99502976b27926b96ba2e885a34b0f22be787d10611963ab1fcc88"),
        ([HUGE] + [0] * 15 + [1], ["divide", "--F", "[1,2,3]", "--w", "1"], 2,
         "c1c250cd85f32709ba5fe89eea7837716d963059007c8431e37949dca2fa020d"),
        ([HUGE] + [0] * 15 + [1], ["divide", "--F", F18, "--w", str(2 ** 300)], 0,
         "9a3e34a11b29276a41f568a8456d5f259ebf82c63a830829c3a9466619c39f4e"),
        (["-" + HUGE, 3] + [0] * 14 + [1], ["divide", "--F", F18, "--w", str(2 ** 300)], 0,
         "c25986b6d1a2f757ebdc45afe02ed4020602fcb32ec543047b1d538652866d7e"),
    ],
    ids=["threshold-p2", "divide-p2", "threshold-p16", "divide-p16-below", "divide-p16", "divide-p16-neg"],
)
def test_threshold_and_divide_on_a_4000_bit_coefficient_in_bounded_time(G, argv, code, digest):
    """The threshold search starts from a float estimate of the answer, read
    from the coefficients' logarithms, so a coefficient past float range
    neither overflows nor slows it: the search cap refuses T^2 + (2^4000 + 1)
    (exit 2) and answers for T^16 + (2^4000 + 1), i* near 2^266 (exit 0).
    Each call gives the same stdout, recorded here by its SHA-256, as the
    search doubling from i = 1 gave, inside a 2 GB address space and a 10 s
    wall cap."""
    command, *rest = argv
    G = json.dumps([str(c) for c in G])
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", command, "--G", G, *rest],
        capture_output=True, text=True, env=child_env(), timeout=10, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
