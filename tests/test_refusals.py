"""One refusal rule for every input.

A call of ``arithline`` answers (exit 0), or refuses with a typed error whose
class names its exit code and stream: 1 for a usage error or BadInput (on
stderr; UnknownSuite on stdout), 2 for a domain error (on stdout).  A fault
that is not a refusal meets the one handler in ``cli.main``: exit 3 and an
InternalError line on stderr, never a traceback.

* the gate: Hypothesis drives every entry of ``cli.COMMANDS`` with valid,
  near-valid and malformed values drawn by each flag's ``Kind``, at small
  sizes only (integer flags up to 16, polynomials of degree <= 6): huge
  sizes wait for budgets on N and m;
* injected faults (ZeroDivisionError, RecursionError, MemoryError and a
  result with no JSON encoding) exit 3;
* the source: no bare ArithlineError and no ValueError is raised outside a
  named list of invariants the program keeps itself, and ``cli._run`` names
  no builtin exception type around the library call.
"""

import ast
import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arithline
from arithline import cli

SRC = pathlib.Path(arithline.__file__).resolve().parent


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def payload(text):
    """The one versioned JSON line of a refusal."""
    assert text.endswith("\n") and text.count("\n") == 1, text
    obj = json.loads(text)
    assert obj["v"] == 1 and isinstance(obj["error"], str) and isinstance(obj["detail"], str), obj
    return obj


# -- JSON values, valid and not ----------------------------------------------------

def mostly(valid, other, odds=8):
    """valid, but one time in odds + 1 other."""
    return st.sampled_from([True] * odds + [False]).flatmap(lambda ok: valid if ok else other)


JUNK = st.sampled_from([None, True, 0.5, "x", "", "1/0", "1_0", [], {}, [[]], {"kind": "ring"}, "[1]"])
rats = mostly(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 9])) | st.integers(-9, 9),
    JUNK,
)
places = mostly(st.sampled_from([2, 3, 5, 7, "inf", None]), st.sampled_from([4, 0, -2, 1, "2", 2.0, True, "x"]))
exps = mostly(st.sampled_from(["0", "1", "1/2", "1/3", "2", "inf"]), st.sampled_from([0, 1, "-1", "x", None, 1.5]))


def maybe_drop(d):
    """The dict, or now and then the dict less one key."""
    keys = sorted(d)
    return mostly(st.just(d), st.sampled_from(keys).map(lambda k: {x: v for x, v in d.items() if x != k}))


def record(**fields):
    return st.fixed_dictionaries(fields).flatmap(maybe_drop)


monic = st.lists(st.integers(-4, 4), max_size=6).map(lambda c: [*c, 1])
polys = mostly(st.lists(rats, max_size=7) | monic, JUNK | st.just("13"))
laurents = mostly(
    record(
        coeffs=mostly(st.dictionaries(st.integers(-3, 6).map(str), rats, max_size=5), JUNK),
        mod=mostly(st.none() | st.integers(-1, 16), JUNK),
    )
    | st.lists(rats, max_size=4),
    JUNK,
)
base_points = record(place=places, exp=exps)
segments = record(kind=st.just("segment"), place=places, u=exps, v=exps)
stars = record(kind=st.just("star"), cuts=mostly(st.lists(record(place=places, v=exps), max_size=3), JUNK))
compacts = mostly(segments | stars, JUNK)
annuli = record(V=compacts, s=rats, t=rats)
fibers = mostly(
    record(kind=st.just("um"), alpha=rats, r=rats)
    | record(kind=st.just("trivc"), P=polys, r=rats)
    | record(kind=st.just("trivo"), r=rats)
    | record(kind=st.just("arch"), re=rats, im=rats),
    JUNK,
)
line_points = record(base=base_points, fiber=fibers)
square = st.integers(1, 2).flatmap(lambda n: st.lists(st.lists(laurents, min_size=n, max_size=n), min_size=n, max_size=n))
matrices = mostly(square | record(entries=square), st.lists(st.lists(laurents, max_size=2), max_size=2) | JUNK)
gauss = mostly(rats | st.lists(rats, min_size=2, max_size=2), st.lists(rats, max_size=3))
tables = st.one_of(
    st.sampled_from([[[1, 2], [2, 1]], [[1]], [[1, 2], [1, 2]], ["12", "21"], {"table": "1"}, [[1, 2], 3]]),
    st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3),
    record(table=st.just([[1, 2], [2, 1]])),
)


def text(values):
    """Values as JSON text, now and then malformed."""
    return mostly(values.map(json.dumps), st.sampled_from(["", "[bad", "{", "null", "nan"]))


def lists_of(values):
    return text(mostly(st.lists(values, max_size=3), JUNK))


ints = mostly(st.integers(-1, 8) | st.just(16), st.sampled_from(["x", "1_0", "", "1.5", " 3"])).map(str)
raw_rats = mostly(rats.map(str), st.sampled_from(["1e3", "-", "inf", "1/-2"]))
raw_places = mostly(st.sampled_from(["2", "3", "5", "7", "inf"]), st.sampled_from(["4", "0", "-3", "x", "", "2.0"]))
strings = (
    text(tables)
    | text(polys)
    | lists_of(laurents)
    | st.sampled_from(["standard", "covers", "hensel", "bogus", "S3", "Z4", "Q8", "nope"])
)

CONVERTED = {
    cli.FRAC.convert: raw_rats,
    cli.PLACE.convert: raw_places,
    cli.PLACES.convert: lists_of(places),
    cli.POLY.convert: text(polys),
    cli.POLYS.convert: lists_of(polys),
    cli.GAUSSES.convert: lists_of(gauss),
    cli.LAURENT.convert: text(laurents),
    cli.LAURENTS.convert: lists_of(laurents),
    cli.MATRIX.convert: text(matrices),
    cli.BASE_POINT.convert: text(base_points),
    cli.LINE_POINT.convert: text(line_points),
    cli.COMPACT.convert: text(compacts),
    cli.OPT_COMPACT.convert: text(compacts),
    cli.ANNULUS.convert: text(annuli),
    cli.STR.convert: strings,
}


def values_of(kind):
    """The strategy of a flag's strings (None: the flag is left out), by its Kind."""
    options = kind.options
    if options.get("action") == "store_true":
        return st.sampled_from([None, True])
    if "choices" in options:
        value = st.sampled_from([*options["choices"], "div"])
    elif options.get("type") is cli._int:
        value = ints
    else:
        value = CONVERTED[kind.convert]
    return mostly(value, st.none()) if options.get("required") else st.none() | value


def argvs(name):
    specs = cli.COMMANDS[name][1]

    def build(values):
        argv = [name]
        for (flag, _), value in zip(specs, values):
            if value is not None:
                argv += [flag] if value is True else [f"{flag}={value}"]
        return argv

    return st.tuples(*(values_of(kind) for _, kind in specs)).map(build)


@pytest.fixture(scope="module")
def plain_env():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ARITHLINE_BITS", raising=False)
        mp.setenv("COLUMNS", "80")
        yield


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_answers_or_refuses(name, data, plain_env):
    argv = data.draw(argvs(name))
    code, out, err = call(argv)
    assert "Traceback" not in out + err and "InternalError" not in out + err, (argv, code, out, err)
    assert code in (0, 1, 2), (argv, code, out, err)
    if code == 2:
        assert err == ""
        payload(out)
    elif code == 1 and err.startswith("usage: "):
        assert out == "" and err.count("\n") in (2, 3, 4), err
    elif code == 1 and out:  # UnknownSuite, or a self-test that failed
        assert err == "" and json.loads(out)["v"] == 1
    elif code == 1:
        assert payload(err)["error"] == "BadInput"
    else:
        assert err == "" and json.loads(out)["v"] == 1


# -- the one handler of an internal error ----------------------------------------------


def recurse(*args):
    return recurse(*args)


def raiser(exc):
    def fn(*args):
        raise exc

    return fn


@pytest.mark.parametrize(
    "fn,detail",
    [
        (raiser(ZeroDivisionError("integer modulo by zero")), "ZeroDivisionError: integer modulo by zero"),
        (recurse, "RecursionError: maximum recursion depth exceeded"),
        (raiser(MemoryError()), "MemoryError: "),
        (raiser(KeyError("a")), "KeyError: 'a'"),
        (lambda *args: {"x": object()}, "TypeError: no JSON encoding for object"),
    ],
    ids=["zero-division", "recursion", "memory", "key", "unencodable"],
)
def test_a_fault_below_main_exits_3(fn, detail, monkeypatch):
    _, specs, key = cli.COMMANDS["product-formula"]
    monkeypatch.setitem(cli.COMMANDS, "product-formula", (fn, specs, key))
    code, out, err = call(["product-formula", "--f", "6"])
    assert (code, out) == (3, "")
    got = payload(err)
    assert got["error"] == "InternalError" and got["detail"].startswith(detail)


def test_deep_json_is_bad_input():
    """json.loads meets the recursion limit on deeply nested input: that is malformed input."""
    code, out, err = call(["resultant", "--P", "[" * 100000, "--Q", "[1]"])
    assert (code, out) == (1, "")
    assert payload(err)["error"] == "BadInput"


# -- the source ------------------------------------------------------------------------

# (module, function) -> how many ValueErrors it raises: invariants the program
# keeps itself, whose breach is a bug (exit 3), never malformed input
INVARIANTS = {
    ("numbers", "vp_int"): 1,
    ("numbers", "vp"): 1,
    ("numbers", "invmod"): 1,
    ("numbers", "iroot"): 1,
    ("polys", "p_multiplicity"): 1,
    ("polys", "rational_roots"): 1,
    ("base_space", "cut_primes"): 1,
    ("normvalue", "root_bounds"): 1,
    ("normvalue", "__init__"): 1,
    ("normvalue", "of"): 1,
    ("jsonio", "dyadic_decimal"): 1,
    ("covers_galois", "group_cover_data"): 2,  # the "# impossible" and "# pragma: no cover" raises
}


def raised_names(tree):
    """(enclosing function, name raised) for each ``raise Name(...)`` or ``raise Name``."""
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name):
                        out.append((fn.name, exc.id))
    return out


def test_no_untyped_refusal_in_the_library():
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        for fn, name in raised_names(ast.parse(path.read_text())):
            assert name != "ArithlineError", (path.stem, fn)
            if name == "ValueError":
                counts[path.stem, fn] = counts.get((path.stem, fn), 0) + 1
    assert counts == INVARIANTS


def test_run_catches_arithline_errors_alone():
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("main", "_run"):
            handlers[fn.name] = [ast.unparse(h.type) for h in ast.walk(fn) if isinstance(h, ast.ExceptHandler)]
    # SystemExit wraps parse_args and ArgumentTypeError the reading of ARITHLINE_BITS
    assert handlers["main"] == ["BrokenPipeError", "Exception"]
    assert sorted(handlers["_run"]) == ["ArithlineError", "SystemExit", "argparse.ArgumentTypeError"]
    source = (SRC / "cli.py").read_text()
    assert "UnknownSuite" not in source and source.count("return 3") == 1
