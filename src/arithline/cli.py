"""Command-line surface: every library operation behind one subcommand.

All values travel as JSON; rationals are "p/q" strings.  Exit codes: 0
success, 1 usage error or malformed input, 2 domain error, 3 internal error.
A refusal prints one {"v": 1, "error": code, "detail": ...} line, on the
stream and with the exit code its error class names (see `errors`); a usage
error is argparse's text on stderr.  `--bits`, or else the environment
variable ARITHLINE_BITS, sets the interval precision for that call only:
`main` runs the call in a copy of the current `contextvars` context.  A
precision that is not an integer of at least MIN_BITS is refused with exit
1: a usage error for `--bits`, BadInput for the variable.

COMMANDS is the one table of subcommands: name -> (callable, argument specs
(flag, Kind), key).  The callable is the library function itself, or a
`cmd_*` handler where the result is reshaped or an intermediate value is
built.  A kind holds the argparse keywords of a flag and the converter
(FRAC, POLY, LAURENT, COMPACT, ...) of the string the parse leaves; the
parse itself converts only integers (`--bits` and ARITHLINE_BITS too), all
by `numbers.parse_int`.  Each converter refuses a value it cannot read (bad
JSON, a missing key, "1/0") as BadInput in the parser's own words.  `_run`
converts the arguments in spec order, calls the callable and catches
ArithlineError alone.  The key names the payload for `jsonio.dumps`: None
takes the result as it is (a dict, or one object that encodes to a dict), a
string K gives {K: result}, and a tuple of names gives
dict(zip(key, result)) for a tuple result.

`_read` reads a plain argv straight from COMMANDS: an optional leading
`--bits`, a command spelled as in the table, then each of its flags at most
once and in full, as `--flag value` (a value not starting with "-"),
`--flag=value` or a bare store_true flag, with the types, choices, defaults
and required flags of `Kind.options` applied as argparse applies them.  It
leaves everything else to argparse (help, abbreviations, repeated flags,
values starting with "-", missing flags, failed conversions), so help and
usage errors stay argparse's own text.  `build_parser` turns COMMANDS into
a new argparse parser; `main` builds it once per process, on the first call
left to it (not at import, and never for a plain call), and reuses it.
Either way `_run` gets the same (command, bits, raw values).

When the reader of stdout goes away (`arithline ... | head`), `main` exits
1 with nothing on stderr.  Anything else raised below `main` (a library
bug, MemoryError, RecursionError, a result with no JSON encoding) meets the
one handler in `main`: exit 3, {"v": 1, "error": "InternalError", "detail":
"<type>: <message>"} on stderr, nothing on stdout, no traceback.
"""

import argparse
import contextvars
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from . import jsonio as io
from .base_space import (
    BaseCompact,
    base_norm,
    classify_base_point,
    eval_base_seminorm,
    product_formula_defect,
    ring_label,
    shilov_base,
)
from .affine_line import eval_line_seminorm, flow
from .cousin_cartan import (
    SplitSystem,
    cartan_factorize,
    matrix_norm,
    neumann_inverse,
    runge_approximate,
    split_laurent_sides,
    split_rational,
    split_series_arith,
)
from .covers_galois import (
    STANDARD_GROUPS,
    CoverDescriptor,
    binomial_root_series,
    cyclic_cover_split,
    eisenstein_witness,
    find_prime_congruent,
    group_cover_data,
    mu_homomorphism,
    primitive_root_of_unity,
)
from .errors import ArithlineError, BadInput
from .normvalue import MIN_BITS, set_default_bits
from .numbers import parse_int
from .selftest import run_suite
from .series_ring import (
    compare_annulus_factor,
    invert_unit,
    norm_annulus,
    series_arith,
    shilov_annulus,
    uniform_norm_annulus,
)
from .weierstrass import (
    QuotientRing,
    condition_RG_check,
    divide,
    divide_local_series,
    global_threshold,
    hensel_factor_lift,
    hensel_lift_root,
    lagrange_bound_report,
    prepare,
    resultant,
    residual_norm_sandwich,
)
from .padic import PadicApprox


class Kind(NamedTuple):
    """The argparse keywords of a flag and the converter of its string value."""

    options: dict
    convert: Callable = lambda text: text


def _refusing(parse):
    """parse, with a value it cannot read refused as BadInput in its own words."""
    def convert(value):
        try:
            return parse(value)
        except (KeyError, OSError, RecursionError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise BadInput(str(exc)) from None
    return convert


def _decoded(parse):
    return _refusing(lambda text: parse(json.loads(text)))


def _decoded_list(parse):
    return _decoded(lambda v: [parse(x) for x in io.parse_list(v)])


def _int(text: str) -> int:
    """An integer flag by ``numbers.parse_int``, refused in argparse's words."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


STR = Kind({"required": True})
OPT_STR = Kind({"default": None})
INT = Kind({"type": _int, "required": True})
OPT_INT = Kind({"type": _int, "default": None})
FLAG = Kind({"action": "store_true"})
FRAC = Kind({"required": True}, _refusing(io.parse_frac))
PLACE = Kind({"required": True}, _refusing(io.parse_place))
PLACES = Kind({"required": True}, _decoded(io.parse_places))
POLY = Kind({"required": True}, _decoded(io.parse_poly))
POLYS = Kind({"required": True}, _decoded_list(io.parse_poly))
GAUSSES = Kind({"required": True}, _decoded_list(io.parse_gauss))
LAURENT = Kind({"required": True}, _decoded(io.parse_laurent))
LAURENTS = Kind({"required": True}, _decoded_list(io.parse_laurent))
MATRIX = Kind({"required": True}, _decoded(io.parse_matrix))
BASE_POINT = Kind({"required": True}, _decoded(io.parse_base_point))
LINE_POINT = Kind({"required": True}, _decoded(io.parse_line_point))
COMPACT = Kind({"required": True}, _decoded(io.parse_base_compact))
OPT_COMPACT = Kind(
    {"default": None}, lambda text: BaseCompact.whole_space() if text is None else COMPACT.convert(text)
)
ANNULUS = Kind({"required": True}, _decoded(io.parse_annulus))
# the flags of a split system: place, cut u and annulus s <= |T| <= t
SPLIT = (("--place", PLACE), ("--u", FRAC), ("--s", FRAC), ("--t", FRAC))


def cmd_unif_norm(f, A, upper_bound):
    nv = uniform_norm_annulus(f, A, archimedean_upper_bound=upper_bound)
    return {**io.encode(nv), "upper_bound_only": upper_bound}


def cmd_divide(F, G, V, w):
    Q, R, cert = divide(F, G, V, w)
    return {"Q": Q.poly_coeffs(), "R": R.poly_coeffs(), "mod": Q.trunc_mod, "cert": cert}


def cmd_prepare(G, p, m, A):
    E, Omega, cert = prepare(G, p, m, A)
    return {"E": E, "Omega": Omega, "cert": {"radius": cert.radius, "epsilon": cert.epsilon}}


def cmd_hensel(P, prime, seed, N, f0, m):
    # --P and --f0 stay strings until the mode is known: "null" is malformed, not missing
    if prime is not None:
        if seed is None or N is None:
            raise BadInput("p-adic mode needs --seed and --N")
        seed = PadicApprox(prime, 1, seed)
        root, report = hensel_lift_root(POLY.convert(P), seed, N)
    elif f0 is None or m is None:
        raise BadInput("series mode needs --f0 and --m")
    else:
        root, report = hensel_lift_root(LAURENTS.convert(P), LAURENT.convert(f0), m)
    return {"root": root, "gauges": report.gauges}


def cmd_lagrange_bound(f, g, roots, r, place):
    rep = lagrange_bound_report(f, g, roots, r, place)
    return {**io.encode(rep), "holds": rep.holds}


def cmd_residual_norm(G, U, w, F):
    return residual_norm_sandwich(QuotientRing(G, U, w), F)


def cmd_cousin_split(a, place, u):
    minus, plus, cert = split_rational(a, SplitSystem(place, u))
    return {"a_minus": minus, "a_plus": plus, "cert": cert}


def cmd_split_series(f, place, u, s, t):
    minus, plus, cert = split_series_arith(f, SplitSystem(place, u, (s, t)))
    return {"f_minus": minus, "f_plus": plus, "cert": cert}


def cmd_runge(s_list, t_list, place, u, s, t, delta):
    f, s_primes, t_primes, cert = runge_approximate(s_list, t_list, SplitSystem(place, u, (s, t)), delta)
    return {"f": f, "s_primes": s_primes, "t_primes": t_primes, "cert": {**io.encode(cert), "ok": cert.ok}}


def cmd_cartan(a, place, u, s, t, max_iter, tol):
    return cartan_factorize(a, SplitSystem(place, u, (s, t)), max_iter, tol)


def cmd_cover(n, p, m, N):
    desc = CoverDescriptor.build(n, p, m, N)
    report = cyclic_cover_split(desc)
    defects = [{"S_power": k, "Z_power": j, "valuation": v} for k, j, v in report.defects]
    return {"descriptor": desc, "defects": defects, "zero_at_precision": report.zero_at_precision}


def cmd_binomial(n, m, p):
    g, report = binomial_root_series(n, m, p)
    out = {"g": g, "power_identity_ok": report.power_identity_ok}
    if p is not None:
        out.update(p=p, integral_at_p=report.integral_at_p, min_valuation=report.min_valuation)
    return out


def cmd_eisenstein(P, f0, m, places):
    w = eisenstein_witness(P, f0, m, places)
    radii = {("inf" if not pl.is_finite else str(pl.prime)): r for pl, r in w.radii.items()}
    return {"root": w.root, "N": w.N, "radii": radii}


TABLE_BYTES = 1 << 20  # longest --table file read


def _read_table(text):
    """A group table given as JSON or as the path of a JSON file of at most
    TABLE_BYTES bytes; a longer file is BadInput, read no further."""
    if os.path.exists(text):
        with open(text, "rb") as fh:
            data = fh.read(TABLE_BYTES + 1)
        if len(data) > TABLE_BYTES:
            raise BadInput(f"table file longer than {TABLE_BYTES} bytes")
        text = data.decode()
    return io.parse_group_table(json.loads(text))


def _load_table(table, name):
    if table != "standard":
        return _refusing(_read_table)(table)
    build = STANDARD_GROUPS.get(name)
    if build is None:
        raise BadInput(repr(name))
    return build()


def cmd_group_data(table, name, i):
    return group_cover_data(_load_table(table, name), i)


def cmd_group_mu(table, name):
    rep = mu_homomorphism(_load_table(table, name))
    return {"injective": rep.injective, "homomorphism": rep.homomorphism, "map": rep.perms}


# Subcommand name -> (callable, argument specs, key), in the order `--help`
# lists them.  `_run` passes the converted arguments to the callable in spec
# order and names the result by its key (see the module docstring).
COMMANDS = {
    "eval-base": (eval_base_seminorm, (("--f", FRAC), ("--point", BASE_POINT)), None),
    "product-formula": (product_formula_defect, (("--f", FRAC),), None),
    "classify": (classify_base_point, (("--point", BASE_POINT),), "category"),
    "base-norm": (base_norm, (("--f", FRAC), ("--V", COMPACT)), None),
    "shilov": (shilov_base, (("--V", COMPACT),), "shilov"),
    "ring-label": (ring_label, (("--V", COMPACT),), None),
    "eval-line": (eval_line_seminorm, (("--F", POLY), ("--point", LINE_POINT)), None),
    "flow": (flow, (("--point", LINE_POINT), ("--eps", FRAC)), "image"),
    "series-arith": (
        series_arith,
        (("--f", LAURENT), ("--g", LAURENT), ("--op", Kind({"choices": ("add", "mul"), "required": True}))),
        "result",
    ),
    "compare-factor": (
        compare_annulus_factor, (("--s", FRAC), ("--t", FRAC), ("--u", FRAC), ("--v", FRAC)), "factor"
    ),
    "find-prime": (
        find_prime_congruent, (("--n", INT), ("--bound", Kind({"type": _int, "default": 10000}))), "prime"
    ),
    "norm-annulus": (norm_annulus, (("--f", LAURENT), ("--A", ANNULUS)), None),
    "unif-norm": (cmd_unif_norm, (("--f", LAURENT), ("--A", ANNULUS), ("--upper-bound", FLAG)), None),
    "shilov-annulus": (shilov_annulus, (("--A", ANNULUS),), "shilov"),
    "invert-unit": (invert_unit, (("--f", LAURENT), ("--A", ANNULUS), ("--m", INT)), "inverse"),
    "threshold": (global_threshold, (("--G", POLY), ("--V", OPT_COMPACT)), "threshold"),
    "divide": (cmd_divide, (("--F", LAURENT), ("--G", POLY), ("--V", OPT_COMPACT), ("--w", FRAC)), None),
    "divide-local": (
        divide_local_series,
        (("--F", LAURENT), ("--G", LAURENT), ("--p", INT), ("--m", INT), ("--A", ANNULUS)),
        ("Q", "R", "cert"),
    ),
    "prepare": (cmd_prepare, (("--G", LAURENT), ("--p", INT), ("--m", INT), ("--A", ANNULUS)), None),
    "hensel": (
        cmd_hensel,
        (
            ("--P", STR),
            ("--prime", OPT_INT),
            ("--seed", OPT_INT),
            ("--N", OPT_INT),
            ("--f0", OPT_STR),
            ("--m", OPT_INT),
        ),
        None,
    ),
    "hensel-factor": (
        hensel_factor_lift,
        (("--G", POLY), ("--factors", POLYS), ("--prime", INT), ("--N", INT)),
        "factors",
    ),
    "resultant": (resultant, (("--P", POLY), ("--Q", POLY)), "resultant"),
    "lagrange-bound": (
        cmd_lagrange_bound,
        (("--f", POLY), ("--g", POLY), ("--roots", GAUSSES), ("--r", FRAC), ("--place", PLACE)),
        None,
    ),
    "residual-norm": (
        cmd_residual_norm,
        (("--G", POLY), ("--U", OPT_COMPACT), ("--w", FRAC), ("--F", LAURENT)),
        None,
    ),
    "condition-rg": (condition_RG_check, (("--U", OPT_COMPACT), ("--G", POLY)), None),
    "cousin-split": (cmd_cousin_split, (("--a", FRAC), ("--place", PLACE), ("--u", FRAC)), None),
    "split-sides": (split_laurent_sides, (("--f", LAURENT),), ("nonneg", "neg")),
    "split-series": (cmd_split_series, (("--f", LAURENT), *SPLIT), None),
    "runge": (cmd_runge, (("--s-list", LAURENTS), ("--t-list", LAURENTS), *SPLIT, ("--delta", FRAC)), None),
    "matrix-norm": (matrix_norm, (("--a", MATRIX), ("--A", ANNULUS)), None),
    "neumann": (neumann_inverse, (("--a", MATRIX), ("--A", ANNULUS), ("--m", INT)), "inverse"),
    "cartan": (
        cmd_cartan,
        (
            ("--a", MATRIX),
            *SPLIT,
            ("--max-iter", Kind({"type": _int, "default": 64})),
            ("--tol", Kind({"default": "1/1099511627776"}, FRAC.convert)),
        ),
        None,
    ),
    "cover": (cmd_cover, (("--n", INT), ("--p", INT), ("--m", INT), ("--N", INT)), None),
    "zeta": (primitive_root_of_unity, (("--n", INT), ("--p", INT), ("--N", INT)), "zeta"),
    "binomial": (cmd_binomial, (("--n", INT), ("--m", INT), ("--p", OPT_INT)), None),
    "eisenstein": (
        cmd_eisenstein,
        (("--P", LAURENTS), ("--f0", LAURENT), ("--m", INT), ("--places", PLACES)),
        None,
    ),
    "group-data": (cmd_group_data, (("--table", STR), ("--name", OPT_STR), ("--i", INT)), None),
    "group-mu": (cmd_group_mu, (("--table", STR), ("--name", OPT_STR)), None),
    "selftest": (run_suite, (("--suite", STR), ("--seed", Kind({"type": _int, "default": 0}))), None),
}


def _precision_bits(text: str) -> int:
    """An interval precision in bits: an integer of at least MIN_BITS."""
    bits = _int(text)
    if bits < MIN_BITS:
        raise argparse.ArgumentTypeError(f"precision below {MIN_BITS} bits is not supported: {bits}")
    return bits


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand in COMMANDS."""
    # The usage is spelled out in the three lines argparse 3.10-3.12 print
    # at 80 columns, which 3.13 would wrap differently.
    indent = "\n" + " " * len("usage: arithline ")
    ap = argparse.ArgumentParser(
        prog="arithline",
        usage=f"%(prog)s [-h] [--bits BITS]{indent}{{{','.join(COMMANDS)}}}{indent}...",
        description="Exact kernel for seminorms, division and splittings on the arithmetic affine line",
    )
    ap.add_argument("--bits", type=_precision_bits, default=None, help="interval precision in bits")
    sub = ap.add_subparsers(dest="command", required=True, prog="arithline")
    for name, (_, specs, _) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kind in specs:
            p.add_argument(flag, **kind.options)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first deferred call, not at import; parsing leaves it unchanged.
    return build_parser()


def _parsed(argv):
    """argparse's (command, bits, raw values in spec order); SystemExit on help
    or on a usage error, after argparse has printed its text.  Python 3.10 to
    3.12 read ``--flag=--`` as an empty list without calling its type; that
    is refused here as the usage error it is."""
    ap = _parser()
    args = ap.parse_args(argv)
    flags = ["--bits"] + [flag for flag, _ in COMMANDS[args.command][1]]
    values = [getattr(args, flag[2:].replace("-", "_")) for flag in flags]
    for flag, value in zip(flags, values):
        if isinstance(value, list):
            ap.error(f"argument {flag}: expected one argument")
    return args.command, values[0], values[1:]


def _read(argv):
    """What ``_parsed`` returns for a call in the plain grammar, read straight
    from COMMANDS, or None to leave argv to argparse.

    The grammar: at most one leading ``--bits V`` or ``--bits=V``, a command
    spelled as in COMMANDS, then for each spec flag at most once ``--flag
    value`` (the flag in full, a value not starting with "-"), ``--flag=value``
    (any value but "--", which argparse reads as no value) or, for a
    store_true kind, a bare ``--flag``.  Types, choices, required flags and
    defaults are taken from ``Kind.options`` as argparse takes them; anything
    else (help, abbreviations, repeats, failed conversions) is None.
    """
    n, i, bits = len(argv), 0, None
    try:
        head = argv[0] if n else ""
        if head == "--bits" and n > 1 and not argv[1].startswith("-"):
            bits, i = _precision_bits(argv[1]), 2
        elif head.startswith("--bits=") and head != "--bits=--":
            bits, i = _precision_bits(head[7:]), 1
        command = argv[i] if i < n else None
        if command not in COMMANDS:
            return None
        specs = COMMANDS[command][1]
        slot = {flag: j for j, (flag, _) in enumerate(specs)}
        raw = [None] * len(specs)  # a value read is a string, or True for a store_true flag
        i += 1
        while i < n:
            flag, eq, value = argv[i].partition("=")
            j = slot.get(flag)
            if j is None or raw[j] is not None:
                return None
            if "action" in specs[j][1].options:  # store_true
                if eq:
                    return None
                value = True
            elif not eq:
                i += 1
                if i == n or argv[i].startswith("-"):
                    return None
                value = argv[i]
            elif value == "--":
                return None
            raw[j] = value
            i += 1
        for j, (_, kind) in enumerate(specs):
            opts, value = kind.options, raw[j]
            if value is None:
                if opts.get("required"):
                    return None
                raw[j] = opts.get("default", False if "action" in opts else None)
                continue
            if "type" in opts:
                value = raw[j] = opts["type"](value)
            if "choices" in opts and value not in opts["choices"]:
                return None
    except (argparse.ArgumentTypeError, AttributeError, TypeError, ValueError):
        return None
    return command, bits, raw


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code = contextvars.copy_context().run(_run, argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at /dev/null so that the flush
        # at interpreter exit does not fail again, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:
        # The one handler of a fault that is not a refusal (see the module docstring).
        print(io.dumps({"error": "InternalError", "detail": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 3


def _run(argv) -> int:
    read = _read(argv)
    if read is None:
        try:
            read = _parsed(argv)
        except SystemExit as exc:
            return 1 if exc.code not in (0, None) else 0
    command, bits, raw = read
    call, specs, key = COMMANDS[command]
    selftest = command == "selftest"
    try:
        env_bits = os.environ.get("ARITHLINE_BITS")
        try:
            bits = _precision_bits(env_bits) if bits is None and env_bits else bits
        except argparse.ArgumentTypeError as exc:
            raise BadInput(f"ARITHLINE_BITS: {exc}") from None
        if bits is not None:
            set_default_bits(bits)
        result = call(*[kind.convert(value) for (_, kind), value in zip(specs, raw)])
        if isinstance(key, tuple):
            result = dict(zip(key, result))
        elif key is not None:
            result = {key: result}
        text = io.dumps(result, indent=2 if selftest else None)
    except ArithlineError as exc:
        print(io.dumps({"error": exc.code, "detail": exc.detail}), file=getattr(sys, exc.stream))
        return exc.exit_code
    print(text)
    return 1 if selftest and result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
