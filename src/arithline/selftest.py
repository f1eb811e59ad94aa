"""Seeded randomized invariant suites, shared by the CLI selftest command.

Each suite returns (checks, failures, first_counterexample); a fixed seed
makes every run reproducible.
"""

import random
from fractions import Fraction

from .base_space import (
    BaseCompact,
    BasePoint,
    Place,
    base_norm,
    eval_base_seminorm,
    product_formula_defect,
    shilov_base,
)
from .cousin_cartan import (
    SeriesMatrix,
    SplitSystem,
    cartan_factorize,
    matrix_norm,
    split_rational,
    split_series_arith,
)
from .covers_galois import (
    binomial_root_series,
    mu_homomorphism,
    standard_group_tables,
)
from .errors import UnknownSuite
from .normvalue import NormValue, nv_max
from .numbers import vp
from .padic import PadicApprox
from .polys import poly
from .series_ring import LaurentPoly, series_add, series_mul, series_sub
from .weierstrass import divide, global_threshold, hensel_lift_root

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


class _Tally:
    """The checks, failures and first counterexample of one suite."""

    def __init__(self):
        self.checks = self.failures = 0
        self.first = None

    def count(self, failed: bool, why) -> None:
        """Count one check; the first failure keeps the message why()."""
        self.checks += 1
        if failed:
            self.failures += 1
            if self.first is None:
                self.first = why()


def _rand_rational(rng, bound=10 ** 6):
    num = rng.randint(1, bound) * rng.choice((1, -1))
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _rand_point(rng) -> BasePoint:
    kind = rng.randrange(4)
    if kind == 0:
        return BasePoint.central()
    if kind == 1:
        return BasePoint.extreme(rng.choice(SMALL_PRIMES))
    if kind == 2:
        return BasePoint.arch(Fraction(rng.randint(1, 8), 8))
    return BasePoint.finite(rng.choice(SMALL_PRIMES), Fraction(rng.randint(1, 12), 4))


def _integralize(f: Fraction, x: BasePoint) -> Fraction:
    if x.place is not None and x.place.is_finite and x.exponent == float("inf"):
        p = x.place.prime
        v = vp(f, p) if f else 0
        if v < 0:
            f *= Fraction(p) ** (-v)
    return f


def suite_norms(seed: int):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(300):
        f = _rand_rational(rng)
        tally.count(product_formula_defect(f) != NormValue.of(1), lambda: f"product formula fails for {f}")
    for _ in range(300):
        x = _rand_point(rng)
        f = _integralize(_rand_rational(rng, 10 ** 3), x)
        g = _integralize(_rand_rational(rng, 10 ** 3), x)
        lhs = eval_base_seminorm(f * g, x)
        rhs = eval_base_seminorm(f, x) * eval_base_seminorm(g, x)
        if lhs.is_exact and rhs.is_exact:
            tally.count(lhs.exact != rhs.exact, lambda: f"multiplicativity fails at {x} for {f}, {g}")
        else:
            tally.count(not lhs.overlaps(rhs), lambda: f"multiplicativity enclosure empty at {x}")
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        V = BaseCompact.segment(Place.finite(p), Fraction(rng.randint(1, 4)), Fraction(rng.randint(4, 8)))
        f = _rand_rational(rng, 10 ** 3)
        nrm = base_norm(f, V)
        best = nv_max(eval_base_seminorm(f, gamma) for gamma in shilov_base(V))
        if nrm.is_exact and best.is_exact:
            tally.count(nrm.exact != best.exact, lambda: f"Shilov max mismatch on {V} for {f}")
        else:
            tally.count(not nrm.overlaps(best), lambda: f"Shilov enclosure mismatch on {V}")
    return tally.checks, tally.failures, tally.first


def suite_division(seed: int):
    rng = random.Random(seed)
    tally = _Tally()
    V = BaseCompact.whole_space()
    for _ in range(60):
        p = rng.randint(1, 4)
        G = poly([Fraction(rng.randint(-20, 20)) for _ in range(p)] + [1])
        F = LaurentPoly.from_poly(
            poly([Fraction(rng.randint(-50, 50)) for _ in range(rng.randint(1, 8))])
        )
        v = global_threshold(G, V)
        w = v + rng.randint(0, 3)
        Q, R, cert = divide(F, G, V, w)
        tally.count(
            series_add(series_mul(Q, LaurentPoly.from_poly(G)), R) != F or len(R.poly_coeffs()) >= len(G),
            lambda: f"F = Q G + R with deg R < deg G fails for {G}",
        )
        tally.count(
            not (cert.q_bound_ok and cert.r_bound_ok),
            lambda: f"division certificate fails for {G} at w={w}",
        )
    return tally.checks, tally.failures, tally.first


def suite_hensel(seed: int):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13))
        a = rng.randint(2, p - 1)
        target = (a * a) % p
        N = rng.randint(2, 8)
        root, report = hensel_lift_root(poly([-target, 0, 1]), PadicApprox(p, 1, a), N)
        tally.count(
            (root.residue ** 2 - target) % p ** N != 0,
            lambda: f"p-adic root fails for sqrt({target}) mod {p}^{N}",
        )
        gauges = report.gauges
        tally.count(
            any(gauges[i + 1] < min(2 * gauges[i], N) for i in range(len(gauges) - 1)),
            lambda: f"gauge decay below quadratic for p={p}",
        )
    return tally.checks, tally.failures, tally.first


def suite_cousin(seed: int):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        sys = SplitSystem(Place.finite(p), Fraction(rng.randint(1, 3)))
        a = _rand_rational(rng, 10 ** 4)
        minus, plus, cert = split_rational(a, sys)
        tally.count(
            minus - plus != a or not cert.bounds_ok, lambda: f"finite split fails for {a} at p={p}"
        )
    for _ in range(100):
        sys = SplitSystem(Place.infinite(), Fraction(rng.randint(1, 3), 4))
        a = _rand_rational(rng, 10 ** 4)
        minus, plus, cert = split_rational(a, sys)
        tally.count(minus - plus != a or not cert.bounds_ok, lambda: f"archimedean split fails for {a}")
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        sys = SplitSystem(Place.finite(p), 1, (Fraction(1, 2), 2))
        f = LaurentPoly(
            {k: _rand_rational(rng, 100) for k in range(-3, 4) if rng.random() < 0.6}
        )
        fm, fp, cert = split_series_arith(f, sys)
        tally.count(series_sub(fm, fp) != f or not cert.bounds_ok, lambda: f"series split fails at p={p}")
    return tally.checks, tally.failures, tally.first


def suite_cartan(seed: int):
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(6):
        sys2 = SplitSystem(Place.finite(2), 1, (Fraction(1, 32), Fraction(1, 16)))
        n = rng.choice((1, 2))
        ident = SeriesMatrix.identity(n)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                coeffs = {}
                for k in (2, 3):
                    if rng.random() < 0.7:
                        coeffs[k] = Fraction(
                            rng.randint(1, 40) * rng.choice((1, -1)), rng.choice((6, 10, 3, 2))
                        )
                row.append(LaurentPoly(coeffs))
            rows.append(row)
        a = ident.add(SeriesMatrix(rows))
        gap = matrix_norm(a.sub(ident), sys2.annulus_on(sys2.overlap_compact()))
        if not gap.hi <= Fraction(1, 18):
            continue
        res = cartan_factorize(a, sys2, 60, Fraction(1, 2 ** 40))
        ok = res.residual.hi <= Fraction(1, 2 ** 40) and res.sides_ok and res.bound_4D_ok and res.decay_ok
        tally.count(not ok, lambda: "cartan certificates fail")
    return tally.checks, tally.failures, tally.first


def suite_covers(seed: int):
    tally = _Tally()
    for n in range(1, 9):
        g, report = binomial_root_series(n, 32)
        tally.count(not report.power_identity_ok, lambda: f"binomial identity fails for n={n}")
    for name, G in standard_group_tables().items():
        rep = mu_homomorphism(G)
        tally.count(not (rep.homomorphism and rep.injective), lambda: f"mu fails for {name}")
    return tally.checks, tally.failures, tally.first


SUITES = {
    "norms": suite_norms,
    "division": suite_division,
    "hensel": suite_hensel,
    "cousin": suite_cousin,
    "cartan": suite_cartan,
    "covers": suite_covers,
}


def run_suite(name: str, seed: int = 0):
    """Run one suite (or 'all'); returns a report dict."""
    if name != "all" and name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}")
    by_suite = {}
    checks = failures = 0
    first = None
    for key in SUITES if name == "all" else (name,):
        n_checks, n_failures, counterexample = SUITES[key](seed)
        by_suite[key] = {"checks": n_checks, "failures": n_failures}
        checks += n_checks
        failures += n_failures
        if n_failures and first is None:
            first = counterexample
    report = {
        "suite": name,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "first_counterexample": first,
    }
    if name == "all":
        report["by_suite"] = by_suite
    return report
