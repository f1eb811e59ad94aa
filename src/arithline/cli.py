"""Command-line surface: every library operation behind one subcommand.

All values travel as JSON; rationals are "p/q" strings.  Exit codes:
0 success, 1 usage or malformed input, 2 domain error (with an
{"error": code, "detail": ...} payload on stdout).  `--bits`, or else the
environment variable ARITHLINE_BITS, sets the interval precision for that
call only: `main` restores the previous precision when it returns.  A
precision that is not an integer of at least MIN_BITS is refused with exit
1: a usage error for `--bits`, a BadInput payload on stderr for the
variable.

COMMANDS is the one table of subcommands: name, handler and argument
specs.  `build_parser` turns it into a new argparse parser; `main` builds
that parser once per process, on its first call (not at import), and reuses
it.  When the reader of stdout goes away (`arithline ... | head`), `main`
exits 1 with nothing on stderr.
"""

import argparse
import functools
import json
import os
import sys

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
    CoverDescriptor,
    binomial_root_series,
    cyclic_cover_split,
    eisenstein_witness,
    find_prime_congruent,
    group_cover_data,
    mu_homomorphism,
    primitive_root_of_unity,
    standard_group_tables,
)
from .errors import ArithlineError, UnknownSuite
from .normvalue import MIN_BITS, default_bits, set_default_bits
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


def _j(value):
    return json.loads(value)


def _laurent(value):
    return io.parse_laurent(_j(value))


def _compact(value):
    if value is None:
        return BaseCompact.whole_space()
    return io.parse_base_compact(_j(value))


def _annulus(value):
    return io.parse_annulus(_j(value))


def _division_cert_json(cert):
    return {
        "v": io.frac_str(cert.v),
        "w": io.frac_str(cert.w),
        "normF": io.norm_value_json(cert.normF),
        "normQ": io.norm_value_json(cert.normQ),
        "normR": io.norm_value_json(cert.normR),
        "q_bound_ok": cert.q_bound_ok,
        "r_bound_ok": cert.r_bound_ok,
    }


def _split_cert_json(cert):
    return {
        "norm_input": io.norm_value_json(cert.norm_input),
        "norm_minus": io.norm_value_json(cert.norm_minus),
        "norm_plus": io.norm_value_json(cert.norm_plus),
        "D": io.frac_str(cert.D),
        "minus_bound_ok": cert.minus_bound_ok,
        "plus_bound_ok": cert.plus_bound_ok,
    }


def _split_system(args, need_annulus=False):
    place = io.parse_place(args.place)
    annulus = None
    if getattr(args, "s", None) is not None and getattr(args, "t", None) is not None:
        annulus = (io.parse_frac(args.s), io.parse_frac(args.t))
    if need_annulus and annulus is None:
        raise ArithlineError("this operation needs --s and --t")
    return SplitSystem(place, io.parse_frac(args.u), annulus)


def cmd_eval_base(args):
    x = io.parse_base_point(_j(args.point))
    return io.norm_value_json(eval_base_seminorm(io.parse_frac(args.f), x))


def cmd_product_formula(args):
    return io.norm_value_json(product_formula_defect(io.parse_frac(args.f)))


def cmd_classify(args):
    return {"category": classify_base_point(io.parse_base_point(_j(args.point)))}


def cmd_base_norm(args):
    V = _compact(args.V)
    return io.norm_value_json(base_norm(io.parse_frac(args.f), V))


def cmd_shilov(args):
    points = shilov_base(_compact(args.V))
    return {"shilov": [io.base_point_json(x) for x in points]}


def cmd_ring_label(args):
    return io.ring_label_json(ring_label(_compact(args.V)))


def cmd_eval_line(args):
    x = io.parse_line_point(_j(args.point))
    F = io.parse_poly(_j(args.F))
    return io.norm_value_json(eval_line_seminorm(F, x))


def cmd_flow(args):
    x = io.parse_line_point(_j(args.point))
    return {"image": io.line_point_json(flow(x, io.parse_frac(args.eps)))}


def cmd_series_arith(args):
    out = series_arith(_laurent(args.f), _laurent(args.g), args.op)
    return {"result": io.laurent_json(out)}


def cmd_compare_factor(args):
    factor = compare_annulus_factor(
        io.parse_frac(args.s), io.parse_frac(args.t), io.parse_frac(args.u), io.parse_frac(args.v)
    )
    return {"factor": io.frac_str(factor)}


def cmd_find_prime(args):
    return {"prime": find_prime_congruent(args.n, args.bound)}


def cmd_norm_annulus(args):
    return io.norm_value_json(norm_annulus(_laurent(args.f), _annulus(args.A)))


def cmd_unif_norm(args):
    nv = uniform_norm_annulus(
        _laurent(args.f), _annulus(args.A), archimedean_upper_bound=args.upper_bound
    )
    out = io.norm_value_json(nv)
    out["upper_bound_only"] = args.upper_bound
    return out


def cmd_shilov_annulus(args):
    pts = shilov_annulus(_annulus(args.A))
    return {"shilov": [io.line_point_json(x) for x in pts]}


def cmd_invert_unit(args):
    g = invert_unit(_laurent(args.f), _annulus(args.A), args.m)
    return {"inverse": io.laurent_json(g)}


def cmd_threshold(args):
    v = global_threshold(io.parse_poly(_j(args.G)), _compact(args.V))
    return {"threshold": io.frac_str(v)}


def cmd_divide(args):
    Q, R, cert = divide(
        _laurent(args.F), io.parse_poly(_j(args.G)), _compact(args.V), io.parse_frac(args.w)
    )
    return {
        "Q": io.poly_json(Q.poly_coeffs()),
        "R": io.poly_json(R.poly_coeffs()),
        "mod": Q.trunc_mod,
        "cert": _division_cert_json(cert),
    }


def cmd_divide_local(args):
    Q, R, cert = divide_local_series(
        _laurent(args.F), _laurent(args.G), args.p, args.m, _annulus(args.A)
    )
    return {
        "Q": io.laurent_json(Q),
        "R": io.laurent_json(R),
        "cert": {
            "radius": io.frac_str(cert.radius),
            "epsilon": io.norm_value_json(cert.epsilon),
            "residuals": [io.norm_value_json(r) for r in cert.residuals],
        },
    }


def cmd_prepare(args):
    E, Omega, cert = prepare(_laurent(args.G), args.p, args.m, _annulus(args.A))
    return {
        "E": io.laurent_json(E),
        "Omega": io.laurent_json(Omega),
        "cert": {
            "radius": io.frac_str(cert.radius),
            "epsilon": io.norm_value_json(cert.epsilon),
        },
    }


def cmd_hensel(args):
    if args.prime is not None and (args.seed is None or args.N is None):
        raise ArithlineError("p-adic mode needs --seed and --N")
    if args.prime is None and (args.f0 is None or args.m is None):
        raise ArithlineError("series mode needs --f0 and --m")
    if args.prime is not None:
        seed = PadicApprox(args.prime, 1, args.seed)
        P = io.parse_poly(_j(args.P))
        root, report = hensel_lift_root(P, seed, args.N)
        return {
            "root": io.padic_json(root),
            "gauges": list(report.gauges),
        }
    P = [io.parse_laurent(c) for c in _j(args.P)]
    f0 = _laurent(args.f0)
    root, report = hensel_lift_root(P, f0, args.m)
    return {"root": io.laurent_json(root), "gauges": list(report.gauges)}


def cmd_hensel_factor(args):
    factors = [io.parse_poly(f) for f in _j(args.factors)]
    lifted = hensel_factor_lift(io.parse_poly(_j(args.G)), factors, args.prime, args.N)
    return {"factors": [[int(c) for c in f] for f in lifted]}


def cmd_resultant(args):
    r = resultant(io.parse_poly(_j(args.P)), io.parse_poly(_j(args.Q)))
    return {"resultant": io.frac_str(r)}


def cmd_lagrange_bound(args):
    roots = [io.parse_gauss(z) for z in _j(args.roots)]
    rep = lagrange_bound_report(
        io.parse_poly(_j(args.f)),
        io.parse_poly(_j(args.g)),
        roots,
        io.parse_frac(args.r),
        io.parse_place(args.place),
    )
    return {
        "lhs": io.norm_value_json(rep.lhs),
        "D": io.norm_value_json(rep.D),
        "rhs": io.norm_value_json(rep.rhs),
        "holds": rep.holds,
    }


def cmd_residual_norm(args):
    qr = QuotientRing(io.parse_poly(_j(args.G)), _compact(args.U), io.parse_frac(args.w))
    rs = residual_norm_sandwich(qr, _laurent(args.F))
    return {
        "div_norm": io.norm_value_json(rs.div_norm),
        "upper": io.norm_value_json(rs.upper),
        "C0": io.frac_str(rs.C0),
    }


def cmd_condition_rg(args):
    rep = condition_RG_check(_compact(args.U), io.parse_poly(_j(args.G)))
    return {
        "holds": rep.holds,
        "gamma": [io.base_point_json(x) for x in rep.gamma],
        "m_U": io.norm_value_json(rep.m_U),
    }


def cmd_cousin_split(args):
    sys_ = _split_system(args)
    minus, plus, cert = split_rational(io.parse_frac(args.a), sys_)
    return {
        "a_minus": io.frac_str(minus),
        "a_plus": io.frac_str(plus),
        "cert": _split_cert_json(cert),
    }


def cmd_split_sides(args):
    nonneg, neg = split_laurent_sides(_laurent(args.f))
    return {"nonneg": io.laurent_json(nonneg), "neg": io.laurent_json(neg)}


def cmd_split_series(args):
    sys_ = _split_system(args, need_annulus=True)
    minus, plus, cert = split_series_arith(_laurent(args.f), sys_)
    return {
        "f_minus": io.laurent_json(minus),
        "f_plus": io.laurent_json(plus),
        "cert": _split_cert_json(cert),
    }


def cmd_runge(args):
    sys_ = _split_system(args, need_annulus=True)
    s_list = [io.parse_laurent(x) for x in _j(args.s_list)]
    t_list = [io.parse_laurent(x) for x in _j(args.t_list)]
    f, s_primes, t_primes, cert = runge_approximate(
        s_list, t_list, sys_, io.parse_frac(args.delta)
    )
    return {
        "f": io.frac_str(f),
        "s_primes": [io.laurent_json(x) for x in s_primes],
        "t_primes": [io.laurent_json(x) for x in t_primes],
        "cert": {
            "s_defects": [io.frac_str(d) for d in cert.s_defects],
            "t_defects": [io.frac_str(d) for d in cert.t_defects],
            "delta": io.frac_str(cert.delta),
            "ok": cert.ok,
        },
    }


def cmd_matrix_norm(args):
    nv = matrix_norm(io.parse_matrix(_j(args.a)), _annulus(args.A))
    return io.norm_value_json(nv)


def cmd_neumann(args):
    b = neumann_inverse(io.parse_matrix(_j(args.a)), _annulus(args.A), args.m)
    return {"inverse": io.matrix_json(b)}


def cmd_cartan(args):
    sys_ = _split_system(args, need_annulus=True)
    res = cartan_factorize(
        io.parse_matrix(_j(args.a)), sys_, args.max_iter, io.parse_frac(args.tol)
    )
    return {
        "c_minus": io.matrix_json(res.c_minus),
        "c_plus": io.matrix_json(res.c_plus),
        "residual": io.norm_value_json(res.residual),
        "iterations": res.iterations,
        "bound_4D_ok": res.bound_4D_ok,
        "sides_ok": res.sides_ok,
        "decay_ok": res.decay_ok,
        "btilde_norms": [io.frac_str(x) for x in res.btilde_norms],
    }


def cmd_cover(args):
    desc = CoverDescriptor.build(args.n, args.p, args.m, args.N)
    report = cyclic_cover_split(desc)
    return {
        "descriptor": {
            "n": desc.n,
            "p": desc.p,
            "zeta": io.padic_json(desc.zeta),
            "m": desc.m,
            "g": io.laurent_json(desc.g),
        },
        "defects": [
            {"S_power": k, "Z_power": j, "valuation": v} for k, j, v in report.defects
        ],
        "zero_at_precision": report.zero_at_precision,
    }


def cmd_zeta(args):
    z = primitive_root_of_unity(args.n, args.p, args.N)
    return {"zeta": io.padic_json(z)}


def cmd_binomial(args):
    g, report = binomial_root_series(args.n, args.m, args.p)
    out = {
        "g": io.laurent_json(g),
        "power_identity_ok": report.power_identity_ok,
    }
    if args.p is not None:
        out["p"] = args.p
        out["integral_at_p"] = report.integral_at_p
        out["min_valuation"] = report.min_valuation
    return out


def cmd_eisenstein(args):
    P = [io.parse_laurent(c) for c in _j(args.P)]
    places = [io.parse_place(v) for v in _j(args.places)]
    w = eisenstein_witness(P, _laurent(args.f0), args.m, places)
    return {
        "root": io.laurent_json(w.root),
        "N": w.N,
        "radii": {
            ("inf" if not pl.is_finite else str(pl.prime)): io.frac_str(r)
            for pl, r in w.radii.items()
        },
    }


def _load_table(args):
    if args.table == "standard":
        return standard_group_tables()[args.name]
    if os.path.exists(args.table):
        with open(args.table) as fh:
            return io.parse_group_table(json.load(fh))
    return io.parse_group_table(_j(args.table))


def cmd_group_data(args):
    G = _load_table(args)
    data = group_cover_data(G, args.i)
    return {
        "n_i": data.n_i,
        "d_i": data.d_i,
        "reps": list(data.reps),
        "sigma": list(data.sigma),
    }


def cmd_group_mu(args):
    G = _load_table(args)
    rep = mu_homomorphism(G)
    return {
        "injective": rep.injective,
        "homomorphism": rep.homomorphism,
        "map": {str(h): list(p) for h, p in rep.perms.items()},
    }


def cmd_selftest(args):
    report = run_suite(args.suite, args.seed)
    return report


# Argument specs shared by many subcommands (argparse copies the keywords).
REQ = {"required": True}
REQ_INT = {"type": int, "required": True}
OPT = {"default": None}
OPT_INT = {"type": int, "default": None}

# Subcommand name -> (handler, argument specs), in the order `--help` lists them.
COMMANDS = {
    "eval-base": (cmd_eval_base, (("--f", REQ), ("--point", REQ))),
    "product-formula": (cmd_product_formula, (("--f", REQ),)),
    "classify": (cmd_classify, (("--point", REQ),)),
    "base-norm": (cmd_base_norm, (("--f", REQ), ("--V", REQ))),
    "shilov": (cmd_shilov, (("--V", REQ),)),
    "ring-label": (cmd_ring_label, (("--V", REQ),)),
    "eval-line": (cmd_eval_line, (("--F", REQ), ("--point", REQ))),
    "flow": (cmd_flow, (("--point", REQ), ("--eps", REQ))),
    "series-arith": (
        cmd_series_arith,
        (("--f", REQ), ("--g", REQ), ("--op", {"choices": ("add", "mul"), "required": True})),
    ),
    "compare-factor": (cmd_compare_factor, (("--s", REQ), ("--t", REQ), ("--u", REQ), ("--v", REQ))),
    "find-prime": (cmd_find_prime, (("--n", REQ_INT), ("--bound", {"type": int, "default": 10000}))),
    "norm-annulus": (cmd_norm_annulus, (("--f", REQ), ("--A", REQ))),
    "unif-norm": (cmd_unif_norm, (("--f", REQ), ("--A", REQ), ("--upper-bound", {"action": "store_true"}))),
    "shilov-annulus": (cmd_shilov_annulus, (("--A", REQ),)),
    "invert-unit": (cmd_invert_unit, (("--f", REQ), ("--A", REQ), ("--m", REQ_INT))),
    "threshold": (cmd_threshold, (("--G", REQ), ("--V", OPT))),
    "divide": (cmd_divide, (("--F", REQ), ("--G", REQ), ("--V", OPT), ("--w", REQ))),
    "divide-local": (
        cmd_divide_local,
        (("--F", REQ), ("--G", REQ), ("--p", REQ_INT), ("--m", REQ_INT), ("--A", REQ)),
    ),
    "prepare": (cmd_prepare, (("--G", REQ), ("--p", REQ_INT), ("--m", REQ_INT), ("--A", REQ))),
    "hensel": (
        cmd_hensel,
        (
            ("--P", REQ),
            ("--prime", OPT_INT),
            ("--seed", OPT_INT),
            ("--N", OPT_INT),
            ("--f0", OPT),
            ("--m", OPT_INT),
        ),
    ),
    "hensel-factor": (
        cmd_hensel_factor,
        (("--G", REQ), ("--factors", REQ), ("--prime", REQ_INT), ("--N", REQ_INT)),
    ),
    "resultant": (cmd_resultant, (("--P", REQ), ("--Q", REQ))),
    "lagrange-bound": (
        cmd_lagrange_bound,
        (("--f", REQ), ("--g", REQ), ("--roots", REQ), ("--r", REQ), ("--place", REQ)),
    ),
    "residual-norm": (cmd_residual_norm, (("--G", REQ), ("--U", OPT), ("--w", REQ), ("--F", REQ))),
    "condition-rg": (cmd_condition_rg, (("--U", OPT), ("--G", REQ))),
    "cousin-split": (
        cmd_cousin_split,
        (("--a", REQ), ("--place", REQ), ("--u", REQ), ("--s", OPT), ("--t", OPT)),
    ),
    "split-sides": (cmd_split_sides, (("--f", REQ),)),
    "split-series": (
        cmd_split_series,
        (("--f", REQ), ("--place", REQ), ("--u", REQ), ("--s", REQ), ("--t", REQ)),
    ),
    "runge": (
        cmd_runge,
        (
            ("--s-list", REQ),
            ("--t-list", REQ),
            ("--place", REQ),
            ("--u", REQ),
            ("--s", REQ),
            ("--t", REQ),
            ("--delta", REQ),
        ),
    ),
    "matrix-norm": (cmd_matrix_norm, (("--a", REQ), ("--A", REQ))),
    "neumann": (cmd_neumann, (("--a", REQ), ("--A", REQ), ("--m", REQ_INT))),
    "cartan": (
        cmd_cartan,
        (
            ("--a", REQ),
            ("--place", REQ),
            ("--u", REQ),
            ("--s", REQ),
            ("--t", REQ),
            ("--max-iter", {"type": int, "default": 64}),
            ("--tol", {"default": "1/1099511627776"}),
        ),
    ),
    "cover": (cmd_cover, (("--n", REQ_INT), ("--p", REQ_INT), ("--m", REQ_INT), ("--N", REQ_INT))),
    "zeta": (cmd_zeta, (("--n", REQ_INT), ("--p", REQ_INT), ("--N", REQ_INT))),
    "binomial": (cmd_binomial, (("--n", REQ_INT), ("--m", REQ_INT), ("--p", OPT_INT))),
    "eisenstein": (
        cmd_eisenstein,
        (("--P", REQ), ("--f0", REQ), ("--m", REQ_INT), ("--places", REQ)),
    ),
    "group-data": (cmd_group_data, (("--table", REQ), ("--name", OPT), ("--i", REQ_INT))),
    "group-mu": (cmd_group_mu, (("--table", REQ), ("--name", OPT))),
    "selftest": (cmd_selftest, (("--suite", REQ), ("--seed", {"type": int, "default": 0}))),
}


def _precision_bits(text: str) -> int:
    """An interval precision in bits: an integer of at least MIN_BITS."""
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if bits < MIN_BITS:
        raise argparse.ArgumentTypeError(f"precision below {MIN_BITS} bits is not supported: {bits}")
    return bits


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand in COMMANDS."""
    ap = argparse.ArgumentParser(
        prog="arithline",
        description="Exact kernel for seminorms, division and splittings on the arithmetic affine line",
    )
    ap.add_argument("--bits", type=_precision_bits, default=None, help="interval precision in bits")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, specs) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parsing leaves it unchanged.
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    previous_bits = default_bits()
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at /dev/null so that the flush
        # at interpreter exit does not fail again, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        set_default_bits(previous_bits)


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    bits = args.bits
    env_bits = os.environ.get("ARITHLINE_BITS")
    if bits is None and env_bits:
        try:
            bits = _precision_bits(env_bits)
        except argparse.ArgumentTypeError as exc:
            return _bad_input(f"ARITHLINE_BITS: {exc}")
    if bits is not None:
        set_default_bits(bits)
    handler, _ = COMMANDS[args.command]
    try:
        result = handler(args)
    except ArithlineError as exc:
        print(json.dumps({"v": io.SCHEMA_VERSION, "error": exc.code, "detail": exc.detail}))
        return 1 if isinstance(exc, UnknownSuite) else 2
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return _bad_input(str(exc))
    payload = io.versioned(result)
    if args.command == "selftest":
        print(json.dumps(payload, indent=2, default=str))
        return 0 if result.get("failures", 1) == 0 else 1
    print(json.dumps(payload, default=str))
    return 0


def _bad_input(detail: str) -> int:
    print(json.dumps({"v": io.SCHEMA_VERSION, "error": "BadInput", "detail": detail}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
