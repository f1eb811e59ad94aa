"""The benchmark's four workloads: seeded inputs, the timed call, the check.

Each workload yields *rounds* of inputs from one seeded generator, so the
same seed gives the same inputs in the same order.  ``op`` is the only code
that runs inside the timed region: it calls the library's public functions
through their module attributes (so the tracer can interpose on them).
``check`` verifies one output against the oracles in ``oracles.py`` and
returns the output's canonical text, which feeds the run digest.  A check
raises ``CheckFailed`` on a wrong answer or a false certificate.

Why these four (see README.md for the layer map):

* local_division  - the acceptance-05 shape; series_ring construction,
  series_mul/with_mod and the fixed-point loop in weierstrass do the work.
* global_division - the acceptance-04 shape; threshold search, base_space
  norms and dense division, and no series_mul at all.
* certify_mix     - the certificate checks of acceptance 01-03 and 06-11
  in fixed proportions; interval NormValues, Cartan, tall binomial series.
* cli_requests    - in-process ``cli.main`` calls; jsonio and the parser.
"""

import dataclasses
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import Callable, NamedTuple

from arithline import affine_line as AL
from arithline import base_space as B
from arithline import cli as CLI
from arithline import cousin_cartan as CC
from arithline import covers_galois as CG
from arithline import normvalue as NV
from arithline import series_ring as S
from arithline import weierstrass as W
from arithline.padic import PadicApprox
from arithline.polys import Gauss

import oracles as O

F = Fraction
INF = float("inf")
MZ = B.BaseCompact.whole_space()
CENTER = S.AnnulusSpec(B.BaseCompact.central_point(), 0, F(1, 2))
GRID = F(1, 1 << 16)
LOCAL_M = 64
PREPARE_M = 16
CARTAN_TOL = F(1, 2 ** 40)


class CheckFailed(Exception):
    """An output disagreed with its oracle or carried a false certificate."""


def need(cond, what):
    if not cond:
        raise CheckFailed(what)


class Stats:
    """Counts taken from checked outputs (not from timing), by metric name."""

    def __init__(self):
        self.nv_checked = 0
        self.nv_interval = 0
        self.min_bits = None
        self.counts = {
            "weierstrass.local_iterations": 0,
            "weierstrass.radius_scan_steps": 0,
            "weierstrass.hensel_steps": 0,
            "cousin_cartan.cartan_iterations": 0,
            "cousin_cartan.cartan_attempted": 0,
            "cousin_cartan.cartan_accepted": 0,
            "cli.stdout_bytes": 0,
            "cli.nonzero_exits": 0,
        }

    def add(self, key, n=1):
        self.counts[key] += n

    def norm(self, nv):
        """Record one checked NormValue and verify it is a valid enclosure."""
        need(0 <= nv.lo <= nv.hi, f"bad enclosure {nv!r}")
        if nv.is_exact:
            need(nv.lo == nv.exact == nv.hi, f"exact value off its endpoints {nv!r}")
        self._count(nv.lo, nv.hi, nv.is_exact)

    def norm_json(self, d):
        if "exact" in d:
            self._count(F(d["exact"]), F(d["exact"]), True)
        else:
            lo, hi = F(d["lo"]), F(d["hi"])
            need(0 <= lo <= hi, f"bad enclosure {d}")
            self._count(lo, hi, False)

    def _count(self, lo, hi, exact):
        self.nv_checked += 1
        if exact:
            return
        self.nv_interval += 1
        bits = O.enclosure_bits(lo, hi)
        if bits is not None and (self.min_bits is None or bits < self.min_bits):
            self.min_bits = bits

    def walk_json(self, obj):
        """Record every NormValue payload inside a CLI JSON document."""
        if isinstance(obj, dict):
            if "exact" in obj or ("lo" in obj and "hi" in obj):
                self.norm_json(obj)
                return
            for v in obj.values():
                self.walk_json(v)
        elif isinstance(obj, list):
            for v in obj:
                self.walk_json(v)


def canon(x):
    """A JSON-ready, order-stable rendering of any library output."""
    if isinstance(x, F):
        return str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, S.LaurentPoly):
        return {"c": [[k, str(c)] for k, c in sorted(x.coeffs.items())], "mod": x.trunc_mod}
    if isinstance(x, NV.NormValue):
        return [str(x.exact)] if x.is_exact else [str(x.lo), str(x.hi)]
    if isinstance(x, Gauss):
        return [str(x.re), str(x.im)]
    if isinstance(x, CC.SeriesMatrix):
        return [[canon(e) for e in row] for row in x.entries]
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return sorted([repr(k), canon(v)] for k, v in x.items())
    raise TypeError(f"no canonical form for {type(x).__name__}")


def canon_text(x) -> str:
    return json.dumps(canon(x), sort_keys=True, separators=(",", ":"))


def coeff_map(f):
    return dict(f.coeffs)


class Workload(NamedTuple):
    """A timed run repeats a pool of ``pool_rounds`` rounds; the outputs of
    its first ``digest_rounds`` rounds are hashed."""

    name: str
    make_round: Callable
    op: Callable
    check: Callable
    digest_rounds: int
    pool_rounds: int

    def rounds(self, seed):
        """Endless stream of input rounds, fixed by (workload, seed)."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.make_round(rng)


# -- local_division -----------------------------------------------------------


def ld_round(rng):
    """One input for each p in 1..3, exactly one of them with no T^(p+1)
    term in G.  Without that term the fixed point needs far fewer steps and
    the op costs a fraction of the others, so its share is fixed per round
    rather than left to the seed, which would otherwise decide on which
    side of that gap the median falls."""
    out = []
    short = rng.randrange(3)
    for i, p in enumerate((1, 2, 3)):
        unit = {0: F(rng.choice((1, -1, 2, 3)))}
        if i != short:
            unit[1] = F(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
        for j in range(2, 6):
            if rng.random() < 0.7:
                unit[j] = F(rng.randint(-5, 5))
        G = S.LaurentPoly({p + k: c for k, c in unit.items()}, LOCAL_M)
        Fs = S.LaurentPoly({k: F(rng.randint(-9, 9)) for k in range(8)}, LOCAL_M)
        out.append((p, unit, Fs, G))
    return out


def ld_op(inp):
    p, _, Fs, G = inp
    Q, R, cert = W.divide_local_series(Fs, G, p, LOCAL_M, CENTER)
    E, Om, pcert = W.prepare(G, p, PREPARE_M, CENTER)
    return Q, R, cert, E, Om, pcert


def scan_steps(radius):
    """Dyadic radii tried by the contraction scan up to the accepted one.

    Computed from cert.radius = 2^(+-j): the scan visits 1, then both 2^j
    and 2^-j for j = 1, 2, ...; counting both radii of the last ring gives
    2j + 1 (an upper bound by at most one, since set order is unspecified).
    """
    j = max(radius.numerator, radius.denominator).bit_length() - 1
    return 2 * j + 1


def check_local_cert(cert, stats):
    stats.norm(cert.epsilon)
    need(cert.epsilon.hi < 1, "contraction epsilon not certified < 1")
    need(cert.radius > 0, "radius must be positive")
    for r in cert.residuals:
        stats.norm(r)
    stats.add("weierstrass.local_iterations", len(cert.residuals))
    stats.add("weierstrass.radius_scan_steps", scan_steps(cert.radius))


def ld_check(inp, out, stats):
    p, unit, Fs, G = inp
    Q, R, cert, E, Om, pcert = out
    m = LOCAL_M
    fc = coeff_map(Fs)
    need(coeff_map(R) == {k: c for k, c in fc.items() if k < p}, "R is not the low part of F")
    u = [unit.get(k, O.ZERO) for k in range(m - p)]
    want = O.series_quotient([Fs.coeff(k + p) for k in range(m - p)], u, m - p)
    need([Q.coeff(k) for k in range(m - p)] == want, "Q differs from the series quotient")
    need(all(0 <= k < m - p for k in Q.coeffs), "Q has support outside [0, m - p)")
    # the exact identity F = Q G + R mod T^m
    lhs = O.convolve(coeff_map(Q), coeff_map(G), below=m)
    for k, c in R.coeffs.items():
        lhs[k] = lhs.get(k, O.ZERO) + c
    need({k: c for k, c in lhs.items() if c} == fc, "F != Q G + R mod T^m")
    check_local_cert(cert, stats)
    need(len(cert.residuals) >= 1 and cert.residuals[-1] == NV.NormValue.of(0),
         "fixed-point trajectory does not end at residual 0")
    # preparation: Omega = T^p here, and E * Omega = G mod T^16
    need(coeff_map(Om) == {p: 1}, "Omega is not T^p")
    got = O.convolve(coeff_map(E), coeff_map(Om), below=PREPARE_M)
    need(got == {k: c for k, c in G.coeffs.items() if k < PREPARE_M}, "E * Omega != G mod T^16")
    check_local_cert(pcert, stats)
    return canon_text(out)


# -- global_division ----------------------------------------------------------


def gd_round(rng):
    p = rng.randint(1, 6)
    G = [F(rng.randint(-100, 100)) for _ in range(p)] + [F(1)]
    Fc = [F(rng.randint(-100, 100)) for _ in range(rng.randint(1, 12))]
    return [(tuple(G), Fc, S.LaurentPoly.from_poly(Fc), rng.randint(0, 3))]


def gd_op(inp):
    G, _, Fl, delta = inp
    v = W.global_threshold(G, MZ)
    return v, [W.divide(Fl, G, MZ, w) for w in (v, v + 1, 2 * v + delta)]


def threshold_certified(b, v):
    p = len(b)
    return sum(bk * v ** (k - p) for k, bk in enumerate(b)) <= F(1, 2)


def weighted_norm(coeffs, w):
    return sum((O.whole_space_norm(c) * w ** k for k, c in enumerate(coeffs)), O.ZERO)


def gd_check(inp, out, stats):
    G, Fc, _, delta = inp
    v, divisions = out
    p = len(G) - 1
    b = [O.whole_space_norm(c) for c in G[:-1]]
    if all(x == 0 for x in b):
        need(v == GRID, "threshold of T^p must be the grid step")
    else:
        need(v >= GRID and (v / GRID).denominator == 1, "threshold off the dyadic grid")
        need(threshold_certified(b, v), "threshold does not satisfy the contraction bound")
        need(v == GRID or not threshold_certified(b, v - GRID), "threshold is not minimal")
    q0, r0 = O.schoolbook_divmod(Fc, G)
    for (Q, R, cert), w in zip(divisions, (v, v + 1, 2 * v + delta)):
        need(list(Q.poly_coeffs()) == q0 and list(R.poly_coeffs()) == r0,
             "division disagrees with schoolbook division")
        need(cert.v == v and cert.w == w, "certificate carries the wrong radii")
        nf, nq, nr = (weighted_norm(c, w) for c in (Fc, q0, r0))
        for nv, want in ((cert.normF, nf), (cert.normQ, nq), (cert.normR, nr)):
            stats.norm(nv)
            need(nv.is_exact and nv.exact == want, "annulus norm is wrong")
        need(cert.q_bound_ok == (nq <= 2 * v ** (-p) * nf) and cert.q_bound_ok,
             "||Q|| bound flag is false or wrong")
        need(cert.r_bound_ok == (nr <= 2 * nf) and cert.r_bound_ok,
             "||R|| bound flag is false or wrong")
    return canon_text(out)


# -- certify_mix --------------------------------------------------------------
#
# One round holds every kind in fixed numbers (MIX), shuffled: the mix is
# exact per round, so the proportions, and hence the medians, do not drift
# with the seed.  Generators take the op's index j within its kind and
# round, and cycle through the kind's discrete cases (points, compacts,
# places, styles) with it, so that every round covers them in equal
# numbers; only the numbers in the inputs are random.

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
BASE_POOL = (
    B.BasePoint.central(),
    B.BasePoint.finite(2, 1),
    B.BasePoint.finite(3, F(5, 2)),
    B.BasePoint.finite(5, F(1, 2)),
    B.BasePoint.extreme(7),
    B.BasePoint.extreme(2),
    B.BasePoint.arch(1),
    B.BasePoint.arch(F(1, 3)),
    B.BasePoint.arch(F(3, 4)),
)
LINE_POOL = (
    AL.LinePoint.disk(B.BasePoint.finite(2, 1), 0, 1),
    AL.LinePoint.disk(B.BasePoint.finite(3, 2), 2, F(1, 3)),
    AL.LinePoint.rational(B.BasePoint.finite(5, 1), F(3, 2)),
    AL.LinePoint.triv_closed(B.BasePoint.central(), (0, 1), F(1, 2)),
    AL.LinePoint.triv_closed(B.BasePoint.extreme(3), (1, 0, 1), F(2, 3)),
    AL.LinePoint.triv_outer(B.BasePoint.central(), 2),
    AL.LinePoint.arch(B.BasePoint.arch(1), 1, 1),
    AL.LinePoint.arch(B.BasePoint.arch(F(1, 2)), F(3), F(4)),
)
SEGMENTS = (
    B.BaseCompact.segment(B.Place.finite(2), 1, 3),
    B.BaseCompact.segment(B.Place.finite(3), F(1, 2), 2),
    B.BaseCompact.segment(B.Place.finite(5), 1, INF),
    B.BaseCompact.segment(B.Place.infinite(), F(1, 4), 1),
    B.BaseCompact.segment(B.Place.infinite(), 0, F(1, 2)),
)
STARS = (
    MZ,
    B.BaseCompact.star({B.Place.finite(2): 1}),
    B.BaseCompact.star({B.Place.finite(2): 2, B.Place.finite(3): 1, B.Place.infinite(): F(1, 2)}),
)
UM_COMPACTS = (
    B.BaseCompact.segment(B.Place.finite(2), 1, 1),
    B.BaseCompact.segment(B.Place.finite(3), 1, 2),
    B.BaseCompact.segment(B.Place.finite(5), 1, INF),
    B.BaseCompact.central_point(),
)
CARTAN_NARROW = CC.SplitSystem(B.Place.finite(2), 1, (F(1, 32), F(1, 16)))
CARTAN_WIDE = CC.SplitSystem(B.Place.finite(2), 1, (F(1, 2), 2))
COVERS = ((2, 3), (3, 7), (4, 5))
GROUPS = CG.standard_group_tables()


def rand_rational(rng, bound=10 ** 6):
    return F(rng.randint(1, bound) * rng.choice((1, -1)), rng.randint(1, bound))


def clear_poles(f, x):
    if x.place is not None and x.place.is_finite and x.exponent == INF:
        v = O.vp(f, x.place.prime)
        if v < 0:
            f *= F(x.place.prime) ** (-v)
    return f


def base_value_ok(nv, f, x):
    """Independent oracle for |f(x)| at a base point."""
    f = F(f)
    if f == 0:
        return nv.hi == 0
    if x.place is None:
        return nv.lo == nv.hi == 1
    if x.exponent == INF:
        want = 0 if O.vp(f, x.place.prime) > 0 else 1
        return nv.lo == nv.hi == want
    base = O.p_abs(f, x.place.prime) if x.place.is_finite else abs(f)
    return O.encloses_power(nv.lo, nv.hi, base, x.exponent)


def agree(a, b):
    if a.is_exact and b.is_exact:
        return a.exact == b.exact
    return a.overlaps(b)


def gen_product(rng, j):
    return [rand_rational(rng) for _ in range(8)]


def op_product(fs):
    return [B.product_formula_defect(f) for f in fs]


def check_product(fs, out, stats):
    for nv in out:
        stats.norm(nv)
        need(nv.is_exact and nv.exact == 1, "product formula defect is not 1")


def gen_seminorm_base(rng, j):
    x = BASE_POOL[j % len(BASE_POOL)]
    return x, clear_poles(rand_rational(rng, 10 ** 4), x), clear_poles(rand_rational(rng, 10 ** 4), x)


def op_seminorm_base(inp):
    x, f, g = inp
    return [B.eval_base_seminorm(v, x) for v in (f * g, f, g, f + g)]


def check_seminorm_base(inp, out, stats):
    x, f, g = inp
    for nv, val in zip(out, (f * g, f, g, f + g)):
        stats.norm(nv)
        need(base_value_ok(nv, val, x), f"|{val}| at {x} is not enclosed")
    need(agree(out[0], out[1] * out[2]), "multiplicativity fails")
    if x.place is None or x.place.is_finite:
        need(out[3].lo <= out[1].max_with(out[2]).hi, "ultrametric inequality fails")


def gen_precision_probe(rng, j):
    # the smallest values gen_seminorm_base can produce at the largest
    # fractional exponent: the tightest relative enclosure of the domain
    return B.BasePoint.arch(F(3, 4)), F(1, 10 ** 4), F(1, 10 ** 4 - 1)


def gen_seminorm_line(rng, j):
    x = LINE_POOL[j % len(LINE_POOL)]
    extreme = B.classify_base_point(x.base) == "extreme"

    def coeff():
        return F(rng.randint(-30, 30)) if extreme else F(rng.randint(-30, 30), rng.randint(1, 10))

    Fp = [coeff() for _ in range(rng.randint(1, 4))]
    Gp = [coeff() for _ in range(rng.randint(1, 4))]
    FG = [0] * (len(Fp) + len(Gp) - 1)
    for i, a in enumerate(Fp):
        for j, b in enumerate(Gp):
            FG[i + j] += a * b
    return x, Fp, Gp, FG


def op_seminorm_line(inp):
    x, Fp, Gp, FG = inp
    return [AL.eval_line_seminorm(P, x) for P in (FG, Fp, Gp)]


def check_seminorm_line(inp, out, stats):
    for nv in out:
        stats.norm(nv)
    need(agree(out[0], out[1] * out[2]), "line multiplicativity fails")


def gen_flow(rng, j):
    kind = j % 4
    while True:
        p = rng.choice((2, 3, 5))
        eps = F(rng.choice((1, 2, 3, 4)), rng.choice((1, 2)))
        if kind == 0:
            k = rng.randint(-2, 2)
            if eps.denominator == 2 and k % 2:
                k -= 1  # keep r**eps rational
            x = AL.LinePoint.disk(B.BasePoint.finite(p, F(rng.randint(1, 4), 2)), rng.randint(-5, 5), F(p) ** k)
        elif kind == 1:
            x = AL.LinePoint.triv_closed(B.BasePoint.central(), (0, 1), F(1, 4 ** rng.randint(0, 2)))
        elif kind == 2:
            x = AL.LinePoint.triv_outer(B.BasePoint.extreme(p), F(4) ** rng.randint(1, 2))
        else:
            e = F(rng.randint(1, 4), 8)
            if e * eps > 1:
                continue
            x = AL.LinePoint.arch(B.BasePoint.arch(e), rng.randint(-3, 3), rng.randint(-3, 3))
        return x, eps, [F(rng.randint(-20, 20)) for _ in range(rng.randint(1, 5))]


def op_flow(inp):
    x, eps, P = inp
    y = AL.flow(x, eps)
    return y, AL.eval_line_seminorm(P, y), AL.eval_line_seminorm(P, x).pow_rational(eps)


def check_flow(inp, out, stats):
    x, eps, _ = inp
    y, lhs, rhs = out
    stats.norm(lhs)
    stats.norm(rhs)
    need(agree(lhs, rhs), "flow law |P(x^eps)| = |P(x)|^eps fails")
    if x.base.place is not None and x.base.exponent != INF:
        need(y.base.exponent == x.base.exponent * eps, "flow moved the base exponent wrongly")


def gen_hensel_padic(rng, j):
    p = rng.choice((7, 11, 13, 17, 19, 23))
    a = rng.randint(1, p - 1)
    return p, (a * a) % p, a, 4 + 8 * (j % 3)


def op_hensel_padic(inp):
    p, t, a, N = inp
    return W.hensel_lift_root([-t, 0, 1], PadicApprox(p, 1, a), N)


def check_gauges(gauges, target, stats):
    stats.add("weierstrass.hensel_steps", len(gauges) - 1)
    need(gauges[-1] >= target, "residual gauge below the target")
    need(all(b >= min(2 * a, target) for a, b in zip(gauges, gauges[1:])),
         "residual decay is not quadratic")


def check_hensel_padic(inp, out, stats):
    p, t, a, N = inp
    root, rep = out
    need(root.p == p and root.N == N, "root carries the wrong ring")
    need((root.residue ** 2 - t) % p ** N == 0, "root does not square to t mod p^N")
    need((root.residue - a) % p == 0, "root left its seed class mod p")
    check_gauges(rep.gauges, N, stats)


def gen_hensel_series(rng, j):
    return 64  # the acceptance-06 order


def op_hensel_series(m):
    P = [S.LaurentPoly({0: -1, 1: -1}), S.LaurentPoly.zero(), S.LaurentPoly.one()]
    return W.hensel_lift_root(P, S.LaurentPoly({0: 1}), m)


def check_hensel_series(m, out, stats):
    root, rep = out
    want = {k: O.binomial_coefficient(2, k) for k in range(m)}
    need(coeff_map(root) == {k: c for k, c in want.items() if c}, "sqrt(1 + T) coefficients are wrong")
    check_gauges(rep.gauges, m, stats)


def gen_cousin_rational(rng, j):
    if j % 4 < 3:
        sys_ = CC.SplitSystem(B.Place.finite((2, 3, 5)[j % 4]), rng.randint(1, 3))
    else:
        sys_ = CC.SplitSystem(B.Place.infinite(), F(1, 2))
    return sys_, [rand_rational(rng, 10 ** 5) for _ in range(2)]


def op_cousin_rational(inp):
    sys_, values = inp
    return [CC.split_rational(a, sys_) for a in values]


def split_ok(a, minus, plus, place):
    if minus - plus != a:
        return False
    if not place.is_finite:
        if abs(a) <= 1:
            return minus == a and plus == 0
        return plus == -O.nearest_int(a) and minus == a + plus
    p = place.prime
    if O.p_integral(a, p):
        return minus == a and plus == 0
    return (O.p_integral(minus, p) and O.only_p_in_denominator(plus, p)
            and F(-1, 2) <= plus < F(1, 2))


def check_split_cert(cert, D, stats):
    for nv in (cert.norm_input, cert.norm_minus, cert.norm_plus):
        stats.norm(nv)
    need(cert.D == D and cert.bounds_ok, "split certificate fails")


def check_cousin_rational(inp, out, stats):
    sys_, values = inp
    D = F(3, 2) if sys_.place.is_finite else F(5, 2)
    for a, (minus, plus, cert) in zip(values, out):
        need(split_ok(a, minus, plus, sys_.place), f"split of {a} is wrong")
        check_split_cert(cert, D, stats)


def gen_cousin_series(rng, j):
    sys_ = CC.SplitSystem(B.Place.finite((2, 3, 5)[j % 3]), 1, (F(1, 2), 2))
    f = S.LaurentPoly({k: F(rng.randint(-999, 999), rng.randint(1, 999))
                       for k in range(-3, 4) if rng.random() < 0.6})
    return sys_, f


def op_cousin_series(inp):
    sys_, f = inp
    return CC.split_series_arith(f, sys_)


def check_cousin_series(inp, out, stats):
    sys_, f = inp
    fm, fp, cert = out
    for k in set(f.coeffs) | set(fm.coeffs) | set(fp.coeffs):
        need(split_ok(f.coeff(k), fm.coeff(k), fp.coeff(k), sys_.place), f"coefficient {k} split is wrong")
    check_split_cert(cert, F(3, 2), stats)


def gen_cartan(rng, j):
    style = j % 3
    if style == 0:
        sys_, n = CARTAN_NARROW, 1
        entries = [[S.LaurentPoly({k: F(rng.randint(-60, 60), rng.choice((1, 2, 3, 6, 10)))
                                   for k in (2, 3) if rng.random() < 0.8})]]
    elif style == 1:
        sys_, n = CARTAN_NARROW, 2
        entries = [[S.LaurentPoly({k: F(rng.randint(-40, 40), rng.choice((1, 2, 3, 6, 10)))
                                   for k in (2, 3) if rng.random() < 0.6}) for _ in range(2)]
                   for _ in range(2)]
    else:
        sys_, n = CARTAN_WIDE, 1
        entries = [[S.LaurentPoly({-1: F(64 * rng.randint(1, 4), rng.choice((1, 3, 5))),
                                   1: F(256 * rng.randint(1, 4))})]]
    ident = CC.SeriesMatrix.identity(n)
    b = CC.SeriesMatrix(entries)
    return sys_, ident.add(b), b, sys_.annulus_on(sys_.overlap_compact())


def op_cartan(inp):
    sys_, a, b, ctx = inp
    gap = CC.matrix_norm(b, ctx)
    if gap.hi > F(1, 18) or gap.hi == 0:
        return gap, None
    return gap, CC.cartan_factorize(a, sys_, 64, CARTAN_TOL)


def overlap_norm(entry, s, t):
    """Annulus norm over the overlap point a_2^1: sum |c|_2 max(s^k, t^k)."""
    return sum((O.p_abs(c, 2) * max(s ** k, t ** k) for k, c in entry.items()), O.ZERO)


def matrix_gap(rows, s, t):
    return max(sum((overlap_norm(e, s, t) for e in row), O.ZERO) for row in rows)


def check_cartan(inp, out, stats):
    sys_, a, b, _ = inp
    gap, res = out
    s, t = sys_.annulus
    want = matrix_gap([[coeff_map(e) for e in row] for row in b.entries], s, t)
    stats.norm(gap)
    need(gap.is_exact and gap.exact == want, "||a - I|| is wrong")
    stats.add("cousin_cartan.cartan_attempted")
    need((res is None) == (want > F(1, 18) or want == 0), "admissibility routing is wrong")
    if res is None:
        return
    stats.add("cousin_cartan.cartan_accepted")
    stats.add("cousin_cartan.cartan_iterations", res.iterations)
    stats.norm(res.residual)
    need(res.residual.hi <= CARTAN_TOL and res.sides_ok and res.bound_4D_ok and res.decay_ok,
         "Cartan certificate fails")
    n = a.rows
    prod = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                term = O.convolve(coeff_map(res.c_minus.entries[i][k]), coeff_map(res.c_plus.entries[k][j]))
                for idx, c in term.items():
                    acc[idx] = acc.get(idx, O.ZERO) + c
            for idx, c in a.entries[i][j].coeffs.items():
                acc[idx] = acc.get(idx, O.ZERO) - c
            prod[i][j] = {k: c for k, c in acc.items() if c}
    need(matrix_gap(prod, s, t) == res.residual.hi, "residual ||c- c+ - a|| is wrong")
    need(all(O.p_integral(c, 2) for row in res.c_minus.entries for e in row for c in e.coeffs.values()),
         "c- is not on the minus side")
    need(all(O.only_p_in_denominator(c, 2) for row in res.c_plus.entries for e in row for c in e.coeffs.values()),
         "c+ is not on the plus side")


def gen_binomial(rng, j):
    return rng.randint(1, 8), 64


def gen_binomial_tall(rng, j):
    return 4, 178  # costs about as much as the series Hensel lift


def op_binomial(inp):
    n, m = inp
    return CG.binomial_root_series(n, m)


def check_binomial(inp, out, stats):
    n, m = inp
    g, rep = out
    need(rep.power_identity_ok and rep.order == m, "g^n = 1 + Z certificate fails")
    want = {i: O.binomial_coefficient(n, i) for i in range(m)}
    need(coeff_map(g) == {i: c for i, c in want.items() if c}, "binomial coefficients are wrong")
    for p in (q for q in range(2, 100) if all(q % d for d in range(2, q)) and q % n == 1):
        need(all(O.p_integral(c, p) for c in g.coeffs.values()), f"g is not {p}-integral")


def gen_cover(rng, j):
    return rng.choice(COVERS) + (rng.choice(tuple(GROUPS)),)


def op_cover(inp):
    n, p, name = inp
    desc = CG.CoverDescriptor.build(n, p, 3, max(6, 2 * n))
    return desc, CG.cyclic_cover_split(desc), CG.mu_homomorphism(GROUPS[name])


def check_cover(inp, out, stats):
    n, p, _ = inp
    desc, rep, mu = out
    z, mod = desc.zeta.residue, p ** desc.zeta.N
    need(pow(z, n, mod) == 1, "zeta^n != 1")
    need(all(pow(z, k, p) != 1 for k in range(1, n)), "zeta is not primitive mod p")
    need(rep.zero_at_precision and all(v >= rep.N for _, _, v in rep.defects), "cover defects too large")
    need(mu.homomorphism and mu.injective, "mu is not an injective homomorphism")


def gen_shilov_base(rng, j):
    V = (SEGMENTS + STARS)[j % (len(SEGMENTS) + len(STARS))]
    while True:
        f = rand_rational(rng, 10 ** 4)
        if B.member_of_kv(f, V):
            return V, f


def op_shilov_base(inp):
    V, f = inp
    return B.base_norm(f, V), [(g, B.eval_base_seminorm(f, g)) for g in B.shilov_base(V)]


def check_shilov_base(inp, out, stats):
    V, f = inp
    nrm, values = out
    stats.norm(nrm)
    best = None
    for gamma, val in values:
        stats.norm(val)
        need(base_value_ok(val, f, gamma), f"|f| at {gamma} is not enclosed")
        best = val if best is None else best.max_with(val)
    need(agree(nrm, best), "norm differs from the max over the Shilov boundary")


def gen_shilov_annulus(rng, j):
    V = UM_COMPACTS[j % len(UM_COMPACTS)]
    while True:
        s = rng.choice((F(0), F(1, 2)))
        t = rng.choice((F(1, 2), F(1), F(2)))
        if t < s:
            s, t = t, s
        lo_k = 0 if s == 0 else -3
        f = S.LaurentPoly({k: F(rng.randint(-50, 50)) for k in range(lo_k, 4) if rng.random() < 0.7})
        if f:
            # f T^shift as a polynomial, for evaluation at line points
            shift = max(0, -f.min_index())
            coeffs = [f.coeff(k - shift) for k in range(shift + f.max_index() + 1)]
            return S.AnnulusSpec(V, s, t), f, coeffs, shift


def op_shilov_annulus(inp):
    A, f, coeffs, _ = inp
    pts = S.shilov_annulus(A)
    return S.uniform_norm_annulus(f, A), [(x, AL.eval_line_seminorm(coeffs, x)) for x in pts]


def check_shilov_annulus(inp, out, stats):
    shift = inp[3]
    unif, values = out
    stats.norm(unif)
    best = None
    for x, val in values:
        if shift and x.fiber.r:
            val = val * NV.NormValue.of(x.fiber.r).pow_rational(-shift)
        stats.norm(val)
        best = val if best is None else best.max_with(val)
    need(agree(unif, best), "uniform norm differs from the Shilov max")


def gen_lagrange(rng, j):
    d = rng.randint(2, 5)
    roots = rng.sample(range(-10, 11), d)
    g = [F(1)]
    for r in roots:
        g = [c1 - r * c0 for c0, c1 in zip(g + [F(0)], [F(0)] + g)]
    f = [F(rng.randint(-20, 20)) for _ in range(rng.randint(1, d))]
    r_big = max(1, max(abs(r) for r in roots)) + rng.randint(0, 4)
    place = B.Place.infinite() if j % 3 < 2 else B.Place.finite(rng.choice((2, 3, 5)))
    return f, g, [F(r) for r in roots], r_big, place


def op_lagrange(inp):
    return W.lagrange_bound_report(*inp)


def check_lagrange(inp, out, stats):
    f, _, _, r, place = inp
    for nv in (out.lhs, out.D, out.rhs):
        stats.norm(nv)
    absv = abs if not place.is_finite else (lambda c: O.p_abs(c, place.prime))
    want = sum((absv(c) * F(r) ** i for i, c in enumerate(f) if c), O.ZERO)
    need(out.lhs.is_exact and out.lhs.exact == want, "interpolation lhs is wrong")
    need(out.holds and out.lhs.hi <= out.rhs.lo, "interpolation bound does not hold")


def every_case(gen, op, check, cases):
    """A kind whose op checks one input of each of its ``cases`` cases, so
    that every op of the kind costs about the same."""

    def check_all(inps, outs, stats):
        for inp, out in zip(inps, outs):
            check(inp, out, stats)

    return (
        lambda rng, _: [gen(rng, c) for c in range(cases)],
        lambda inps: [op(inp) for inp in inps],
        check_all,
    )


KINDS = {
    "product": (gen_product, op_product, check_product),
    "seminorm_base": every_case(gen_seminorm_base, op_seminorm_base, check_seminorm_base, len(BASE_POOL)),
    "precision_probe": (gen_precision_probe, op_seminorm_base, check_seminorm_base),
    "seminorm_line": every_case(gen_seminorm_line, op_seminorm_line, check_seminorm_line, len(LINE_POOL)),
    "flow": every_case(gen_flow, op_flow, check_flow, 4),
    "hensel_padic": every_case(gen_hensel_padic, op_hensel_padic, check_hensel_padic, 3),
    "hensel_series": (gen_hensel_series, op_hensel_series, check_hensel_series),
    "cousin_rational": every_case(gen_cousin_rational, op_cousin_rational, check_cousin_rational, 4),
    "cousin_series": every_case(gen_cousin_series, op_cousin_series, check_cousin_series, 3),
    "cartan": (gen_cartan, op_cartan, check_cartan),
    "binomial": (gen_binomial, op_binomial, check_binomial),
    "binomial_tall": (gen_binomial_tall, op_binomial, check_binomial),
    "cover": (gen_cover, op_cover, check_cover),
    "shilov_base": every_case(gen_shilov_base, op_shilov_base, check_shilov_base, len(SEGMENTS) + len(STARS)),
    "shilov_annulus": every_case(gen_shilov_annulus, op_shilov_annulus, check_shilov_annulus, len(UM_COMPACTS)),
    "lagrange": every_case(gen_lagrange, op_lagrange, check_lagrange, 3),
}

# ops of each kind per round.  Ops that check every case of a kind cost
# about the same each, so the kinds form tight clusters of op times; the
# counts put the median op among the line-seminorm checks (affine_line and
# normvalue work), with about as many cheaper ops as dearer ones.  The
# dearest ops are the series Hensel lift and the tall binomial series, of
# equal fixed cost, and the upper quarter of the 2x2 Cartan attempts, whose
# cost varies with the input: over a pool of 12 rounds the tail (the
# 11th-largest time) lies among them, and a slower Hensel lift, binomial
# series or Cartan iteration each pushes it up.
MIX = {
    "precision_probe": 1,
    "product": 2,
    "hensel_padic": 2,
    "cover": 1,
    "seminorm_base": 2,
    "shilov_base": 2,
    "flow": 3,
    "cousin_rational": 2,
    "shilov_annulus": 2,
    "seminorm_line": 8,
    "lagrange": 4,
    "cousin_series": 4,
    "cartan": 6,
    "binomial": 2,
    "hensel_series": 1,
    "binomial_tall": 1,
}


def cm_round(rng):
    ops = [(k, KINDS[k][0](rng, j)) for k, n in MIX.items() for j in range(n)]
    rng.shuffle(ops)
    return ops


def cm_op(inp):
    kind, data = inp
    return KINDS[kind][1](data)


def cm_check(inp, out, stats):
    kind, data = inp
    KINDS[kind][2](data, out, stats)
    return kind + ":" + canon_text(out)


# -- cli_requests -------------------------------------------------------------

SEG21 = '{"kind": "segment", "place": 2, "u": "1", "v": "1"}'
A21 = '{"V": ' + SEG21 + ', "s": "1/2", "t": "2"}'
DISK0 = '{"V": {"kind": "segment", "place": "inf", "u": "0", "v": "0"}, "s": "0", "t": "1/2"}'
PT21 = '{"base": {"place": 2, "exp": "1"}, "fiber": {"kind": "um", "alpha": "0", "r": "1"}}'
SQRT_P = ('[{"coeffs": {"0": "-1", "1": "-1"}, "mod": null}, {"coeffs": {}, "mod": null}, '
          '{"coeffs": {"0": "1"}, "mod": null}]')

# (argv, check of the parsed stdout); every one must exit 0.  The README
# examples come first, then one small call per subcommand.
CATALOG = (
    (["eval-base", "--f", "12", "--point", '{"place": 2, "exp": "1"}'], lambda o: o["exact"] == "1/4"),
    (["divide", "--F", "[0,0,0,1]", "--G", "[2,2,1]", "--w", "5"],
     lambda o: o["Q"] == ["-2", "1"] and o["R"] == ["4", "2"] and o["cert"]["q_bound_ok"]),
    (["cartan", "--a", '[[{"coeffs": {"0": "1", "-1": "8/3"}, "mod": null}]]',
      "--place", "2", "--u", "1", "--s", "1/2", "--t", "2"],
     lambda o: o["sides_ok"] and o["bound_4D_ok"] and o["residual"] == {"exact": "0"}),
    (["cover", "--n", "3", "--p", "7", "--m", "3", "--N", "4"], lambda o: o["zero_at_precision"]),
    (["product-formula", "--f", "12"], lambda o: o["exact"] == "1"),
    # the smallest |f|^e that gen_base_norm_arch can request
    (["base-norm", "--f", "1/10000", "--V", '{"kind": "segment", "place": "inf", "u": "3/4", "v": "3/4"}'],
     lambda o: O.encloses_power(F(o["lo"]), F(o["hi"]), F(1, 10000), F(3, 4))),
    (["classify", "--point", '{"place": 3, "exp": "2"}'], lambda o: o["category"] == "internal"),
    (["base-norm", "--f", "6", "--V", SEG21], lambda o: o["exact"] == "1/2"),
    (["shilov", "--V", SEG21], lambda o: o["shilov"] == [{"place": 2, "exp": "1"}]),
    (["ring-label", "--V", SEG21], lambda o: o["label"] == "Qp_hat"),
    (["eval-line", "--F", '["4","2","1"]', "--point", PT21], lambda o: o["exact"] == "1"),
    (["flow", "--point", PT21, "--eps", "2"], lambda o: o["image"]["base"] == {"place": 2, "exp": "2"}),
    (["series-arith", "--f", '{"coeffs": {"0": "1", "1": "1"}, "mod": 3}',
      "--g", '{"coeffs": {"0": "1", "1": "-1"}, "mod": 3}', "--op", "mul"],
     lambda o: o["result"]["coeffs"] == {"0": "1", "2": "-1"}),
    (["compare-factor", "--s", "1/2", "--t", "2", "--u", "1", "--v", "1"], lambda o: o["factor"] == "3"),
    (["find-prime", "--n", "3"], lambda o: o["prime"] == 7),
    (["norm-annulus", "--f", '{"coeffs": {"-1": "2", "0": "3", "2": "1"}, "mod": null}', "--A", A21],
     lambda o: o["exact"] == "6"),
    (["unif-norm", "--f", '{"coeffs": {"-1": "2", "0": "3", "2": "1"}, "mod": null}', "--A", A21],
     lambda o: o["exact"] == "4"),
    (["shilov-annulus", "--A", A21], lambda o: len(o["shilov"]) == 2),
    (["invert-unit", "--f", '{"coeffs": {"0": "1", "1": "1"}, "mod": null}', "--A", DISK0, "--m", "4"],
     lambda o: o["inverse"]["coeffs"] == {"0": "1", "1": "-1", "2": "1", "3": "-1"}),
    (["threshold", "--G", '["2","2","1"]'], lambda o: O.ZERO < F(o["threshold"]) <= 5),
    (["divide-local", "--F", '{"coeffs": {"2": "1"}, "mod": 5}',
      "--G", '{"coeffs": {"2": "1", "3": "1"}, "mod": 5}', "--p", "2", "--m", "5", "--A", DISK0],
     lambda o: o["Q"]["coeffs"] == {"0": "1", "1": "-1", "2": "1"} and o["R"]["coeffs"] == {}),
    (["prepare", "--G", '{"coeffs": {"1": "1", "2": "2"}, "mod": null}', "--p", "1", "--m", "4", "--A", DISK0],
     lambda o: o["Omega"]["coeffs"] == {"1": "1"}),
    (["hensel", "--P", '["-2","0","1"]', "--prime", "7", "--seed", "3", "--N", "3"],
     lambda o: o["root"] == {"p": 7, "N": 3, "residue": 108}),
    (["hensel", "--P", SQRT_P, "--f0", '{"coeffs": {"0": "1"}, "mod": null}', "--m", "4"],
     lambda o: o["root"]["coeffs"] == {"0": "1", "1": "1/2", "2": "-1/8", "3": "1/16"}),
    (["hensel-factor", "--G", "[1,0,1]", "--factors", "[[-2,1],[2,1]]", "--prime", "5", "--N", "2"],
     lambda o: len(o["factors"]) == 2),
    (["resultant", "--P", '["-1","0","1"]', "--Q", '["0","2"]'], lambda o: o["resultant"] == "-4"),
    (["lagrange-bound", "--f", '["0","1"]', "--g", '["-1","0","1"]', "--roots", '["1", "-1"]',
      "--r", "1", "--place", "inf"], lambda o: o["holds"]),
    (["residual-norm", "--G", '["2","2","1"]', "--w", "5", "--F", '{"coeffs": {"1": "1"}, "mod": null}'],
     lambda o: o["C0"] == "2"),
    (["condition-rg", "--U", SEG21.replace('"v": "1"', '"v": "inf"'), "--G", '["1","0","1"]'],
     lambda o: o["holds"] in (True, False)),
    (["cousin-split", "--a", "5/6", "--place", "2", "--u", "1"],
     lambda o: o["a_minus"] == "1/3" and o["a_plus"] == "-1/2"),
    (["split-sides", "--f", '{"coeffs": {"-1": "2", "0": "3"}, "mod": null}'],
     lambda o: o["nonneg"]["coeffs"] == {"0": "3"} and o["neg"]["coeffs"] == {"-1": "2"}),
    (["split-series", "--f", '{"coeffs": {"1": "5/6"}, "mod": null}', "--place", "2", "--u", "1",
      "--s", "1/2", "--t", "2"], lambda o: o["f_minus"]["coeffs"] == {"1": "1/3"}),
    (["runge", "--s-list", '[{"coeffs": {"1": "1/6"}, "mod": null}]',
      "--t-list", '[{"coeffs": {"1": "1"}, "mod": null}]', "--place", "2", "--u", "1",
      "--s", "1/2", "--t", "2", "--delta", "1/100"], lambda o: o["cert"]["ok"]),
    (["matrix-norm", "--a", '[[{"coeffs": {"0": "1"}, "mod": null}]]', "--A", A21], lambda o: o["exact"] == "1"),
    (["neumann", "--a", '[[{"coeffs": {"0": "1", "1": "16"}, "mod": null}]]', "--A", A21, "--m", "4"],
     lambda o: [[e["coeffs"] for e in row] for row in o["inverse"]["entries"]]
     == [[{"0": "1", "1": "-16", "2": "256", "3": "-4096"}]]),
    (["zeta", "--n", "3", "--p", "7", "--N", "2"], lambda o: pow(o["zeta"]["residue"], 3, 49) == 1),
    (["binomial", "--n", "3", "--m", "4", "--p", "7"], lambda o: o["power_identity_ok"] and o["integral_at_p"]),
    (["eisenstein", "--P", SQRT_P, "--f0", '{"coeffs": {"0": "1"}, "mod": null}', "--m", "5",
      "--places", '["inf", 3]'], lambda o: o["N"] == 128),
    (["group-data", "--table", "standard", "--name", "Z4", "--i", "3"], lambda o: o["n_i"] == 2 and o["d_i"] == 2),
    (["group-mu", "--table", "[[1,2],[2,1]]"], lambda o: o["injective"] and o["homomorphism"]),
    (["selftest", "--suite", "covers", "--seed", "1"], lambda o: o["failures"] == 0 and o["checks"] > 0),
)

# requests the CLI must refuse: (argv, exit code, error name on stdout)
REJECTS = (
    (["eval-base", "--f", "12", "--point", "{bad json"], 1, None),
    (["no-such-command"], 1, None),
    (["divide", "--F", "[1,2]"], 1, None),
    (["invert-unit", "--f", '{"coeffs": {"0": "1"}, "mod": null}', "--A", DISK0, "--m", "four"], 1, None),
    (["selftest", "--suite", "bogus"], 1, "UnknownSuite"),
    (["eval-base", "--f", "1/5", "--point", '{"place": 5, "exp": "inf"}'], 2, "NonIntegralAtExtremePoint"),
    (["product-formula", "--f", "0"], 2, "ZeroInput"),
    (["divide", "--F", "[0,0,0,1]", "--G", "[2,2,1]", "--w", "1/4"], 2, "RadiusBelowThreshold"),
    (["threshold", "--G", "[1,2]", "--V", SEG21], 2, "NotMonic"),
    (["compare-factor", "--s", "2", "--t", "1", "--u", "1", "--v", "1"], 2, "OrderingViolated"),
)


def gen_eval_base(rng):
    p = rng.choice(SMALL_PRIMES)
    e = rng.randint(1, 3)
    f = rand_rational(rng, 10 ** 4)
    argv = ["eval-base", "--f=" + str(f), "--point", json.dumps({"place": p, "exp": str(e)})]
    return argv, lambda o: F(o["exact"]) == O.p_abs(f, p) ** e


def gen_base_norm_arch(rng):
    f = rand_rational(rng, 10 ** 4)
    e = F(rng.randint(1, 3), 4)
    V = {"kind": "segment", "place": "inf", "u": str(e), "v": str(e)}
    argv = ["base-norm", "--f=" + str(f), "--V", json.dumps(V)]

    def ok(o):
        if "exact" in o:
            x = F(o["exact"])
            return O.encloses_power(x, x, abs(f), e)
        return O.encloses_power(F(o["lo"]), F(o["hi"]), abs(f), e)

    return argv, ok


def gen_divide(rng):
    p = rng.randint(1, 4)
    G = [rng.randint(-20, 20) for _ in range(p)] + [1]
    Fc = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
    w = 2 * sum(max(1, abs(c)) for c in G[:-1]) + 1  # above the threshold
    q0, r0 = O.schoolbook_divmod(Fc, G)
    argv = ["divide", "--F", json.dumps(Fc), "--G", json.dumps(G), "--w", str(w)]
    return argv, lambda o: (o["Q"] == [str(c) for c in q0] and o["R"] == [str(c) for c in r0]
                            and o["cert"]["q_bound_ok"] and o["cert"]["r_bound_ok"])


def gen_series_mul(rng):
    m = rng.randint(3, 8)
    f = {k: F(rng.randint(-9, 9), rng.randint(1, 4)) for k in range(m) if rng.random() < 0.7}
    g = {k: F(rng.randint(-9, 9), rng.randint(1, 4)) for k in range(m) if rng.random() < 0.7}
    enc = lambda d: json.dumps({"coeffs": {str(k): str(c) for k, c in d.items()}, "mod": m})
    want = {str(k): str(c) for k, c in sorted(O.convolve(f, g, below=m).items())}
    argv = ["series-arith", "--f", enc(f), "--g", enc(g), "--op", "mul"]
    return argv, lambda o: o["result"]["coeffs"] == want and o["result"]["mod"] == m


def gen_cousin_split(rng):
    p = rng.choice((2, 3, 5))
    a = rand_rational(rng, 10 ** 4)
    argv = ["cousin-split", "--a=" + str(a), "--place", str(p), "--u", "1"]
    return argv, lambda o: split_ok(a, F(o["a_minus"]), F(o["a_plus"]), B.Place.finite(p))


def gen_resultant(rng):
    roots = rng.sample(range(-6, 7), rng.randint(1, 3))
    P = [F(1)]
    for r in roots:
        P = [c1 - r * c0 for c0, c1 in zip(P + [F(0)], [F(0)] + P)]
    Q = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]
    want = F(1)
    for r in roots:
        want *= sum(F(c) * r ** i for i, c in enumerate(Q))
    argv = ["resultant", "--P", json.dumps([str(c) for c in P]), "--Q", json.dumps([str(c) for c in Q])]
    return argv, lambda o: F(o["resultant"]) == want


def gen_hensel_cli(rng):
    p = rng.choice((7, 11, 13))
    a = rng.randint(1, p - 1)
    t, N = (a * a) % p, rng.randint(2, 8)
    argv = ["hensel", "--P", json.dumps([str(-t), "0", "1"]), "--prime", str(p), "--seed", str(a), "--N", str(N)]
    return argv, lambda o: (o["root"]["residue"] ** 2 - t) % p ** N == 0 and (o["root"]["residue"] - a) % p == 0


FAMILIES = (gen_eval_base, gen_base_norm_arch, gen_divide, gen_series_mul, gen_cousin_split,
            gen_resultant, gen_hensel_cli)
GENERATED_PER_ROUND = 7  # of each family: about 10% of a round is rejected


def cli_round(rng):
    reqs = [(argv, 0, None, ok) for argv, ok in CATALOG]
    for fam in FAMILIES:
        for _ in range(GENERATED_PER_ROUND):
            argv, ok = fam(rng)
            reqs.append((argv, 0, None, ok))
    reqs += [(argv, code, err, None) for argv, code, err in REJECTS]
    rng.shuffle(reqs)
    return reqs


def cli_op(inp):
    argv = inp[0]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = CLI.main(list(argv))
    return code, out.getvalue()


def cli_check(inp, out, stats):
    argv, want_code, want_err, ok = inp
    code, text = out
    stats.add("cli.stdout_bytes", len(text.encode()))
    if code:
        stats.add("cli.nonzero_exits")
    need(code == want_code, f"{argv[0]} exited {code}, expected {want_code}")
    payload = json.loads(text) if text.strip() else None
    if want_code == 0:
        need(payload is not None and payload.get("v") == 1, f"{argv[0]} printed no versioned JSON")
        stats.walk_json(payload)
        need(ok(payload), f"{argv[0]} output disagrees with its oracle")
    elif want_err is not None:
        need(payload is not None and payload.get("error") == want_err, f"{argv[0]} error is not {want_err}")
    return f"{code}\n{text}"


WORKLOADS = {
    # pools take about 4-5 s per pass on a 2-core Xeon, so a 25 s run makes
    # five or six passes; certify_mix needs 12 rounds so that its tail (the
    # 11th-largest time) lies among its dearest kinds (see MIX)
    "local_division": Workload("local_division", ld_round, ld_op, ld_check, 4, 14),
    "global_division": Workload("global_division", gd_round, gd_op, gd_check, 100, 450),
    "certify_mix": Workload("certify_mix", cm_round, cm_op, cm_check, 1, 12),
    "cli_requests": Workload("cli_requests", cli_round, cli_op, cli_check, 1, 5),
}
