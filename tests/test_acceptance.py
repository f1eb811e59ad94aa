"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS or FAIL line (visible with pytest -s) including
its measured runtime against the stated budget.
"""

import math
import random
import time
from fractions import Fraction

from arithline import (
    AnnulusSpec,
    BaseCompact,
    BasePoint,
    CoverDescriptor,
    LaurentPoly,
    NormValue,
    PadicApprox,
    Place,
    SeriesMatrix,
    SplitSystem,
    base_norm,
    binomial_root_series,
    cartan_factorize,
    classify_base_point,
    cyclic_cover_split,
    divide,
    divide_local_series,
    eval_base_seminorm,
    eval_line_seminorm,
    flow,
    global_threshold,
    hensel_lift_root,
    lagrange_bound_report,
    matrix_norm,
    mu_homomorphism,
    prepare,
    product_formula_defect,
    shilov_annulus,
    shilov_base,
    split_rational,
    split_series_arith,
    standard_group_tables,
    uniform_norm_annulus,
)
from arithline.affine_line import LinePoint
from arithline.base_space import member_of_kv
from arithline.numbers import is_prime, vp
from arithline.series_ring import series_mul, series_sub

from oracles import mu_flags_pointwise, newton_sqrt_mod, schoolbook_divmod, series_quotient

INF = math.inf
MZ = BaseCompact.whole_space()
CENTER = AnnulusSpec(BaseCompact.central_point(), 0, Fraction(1, 2))


def report(idx, name, t0, budget):
    dt = time.time() - t0
    verdict = f"PASS ({dt:.2f}s < {budget}s)" if dt < budget else f"FAIL ({dt:.2f}s >= {budget}s)"
    print(f"ACCEPTANCE {idx:02d} {name}: {verdict}")
    assert dt < budget, f"runtime {dt:.2f}s exceeds the {budget}s budget"


def rand_rational(rng, bound=10 ** 6):
    return Fraction(rng.randint(1, bound) * rng.choice((1, -1)), rng.randint(1, bound))


def test_01_product_formula():
    t0 = time.time()
    rng = random.Random(101)
    for _ in range(1000):
        f = rand_rational(rng)
        assert product_formula_defect(f) == NormValue.of(1)
    report(1, "product-formula", t0, 1)


def _point_pool():
    pool = [
        BasePoint.central(),
        BasePoint.finite(2, 1),
        BasePoint.finite(3, Fraction(5, 2)),
        BasePoint.finite(5, Fraction(1, 2)),
        BasePoint.extreme(7),
        BasePoint.extreme(2),
        BasePoint.arch(1),
        BasePoint.arch(Fraction(1, 3)),
    ]
    line = [
        LinePoint.disk(BasePoint.finite(2, 1), 0, 1),
        LinePoint.disk(BasePoint.finite(3, 2), 2, Fraction(1, 3)),
        LinePoint.rational(BasePoint.finite(5, 1), Fraction(3, 2)),
        LinePoint.triv_closed(BasePoint.central(), (0, 1), Fraction(1, 2)),
        LinePoint.triv_closed(BasePoint.extreme(3), (1, 0, 1), Fraction(2, 3)),
        LinePoint.triv_outer(BasePoint.central(), 2),
        LinePoint.arch(BasePoint.arch(1), 1, 1),
        LinePoint.arch(BasePoint.arch(Fraction(1, 2)), Fraction(3), Fraction(4)),
    ]
    return pool, line


def _clear_poles(f, x):
    if x.place is not None and x.place.is_finite and x.exponent == INF:
        p = x.place.prime
        return f * Fraction(p) ** max(0, -vp(f, p))
    return f


def test_02_seminorm_axioms():
    t0 = time.time()
    rng = random.Random(202)
    base_pool, line_pool = _point_pool()
    for _ in range(500):
        x = rng.choice(base_pool)
        f = _clear_poles(rand_rational(rng, 10 ** 4), x)
        g = _clear_poles(rand_rational(rng, 10 ** 4), x)
        lhs = eval_base_seminorm(f * g, x)
        rhs = eval_base_seminorm(f, x) * eval_base_seminorm(g, x)
        if lhs.is_exact and rhs.is_exact:
            assert lhs.exact == rhs.exact
        else:
            assert lhs.overlaps(rhs)
        if x.place is None or x.place.is_finite:
            s = eval_base_seminorm(f + g, x)
            cap = eval_base_seminorm(f, x).max_with(eval_base_seminorm(g, x))
            assert s.lo <= cap.hi
    for _ in range(500):
        x = rng.choice(line_pool)
        extreme = classify_base_point(x.base) == "extreme"
        coeff = lambda: Fraction(rng.randint(-30, 30)) if extreme else Fraction(
            rng.randint(-30, 30), rng.randint(1, 10)
        )
        F = [coeff() for _ in range(rng.randint(1, 4))]
        G = [coeff() for _ in range(rng.randint(1, 4))]
        FG = [
            sum(F[i] * G[k - i] for i in range(max(0, k - len(G) + 1), min(k + 1, len(F))))
            for k in range(len(F) + len(G) - 1)
        ]
        lhs = eval_line_seminorm(FG, x)
        rhs = eval_line_seminorm(F, x) * eval_line_seminorm(G, x)
        if lhs.is_exact and rhs.is_exact:
            assert lhs.exact == rhs.exact
        else:
            assert lhs.overlaps(rhs)
        if x.base.place is None or x.base.place.is_finite:
            H = [a + b for a, b in zip(F + [Fraction(0)] * len(G), G + [Fraction(0)] * len(F))]
            s = eval_line_seminorm(H, x)
            cap = eval_line_seminorm(F, x).max_with(eval_line_seminorm(G, x))
            assert s.lo <= cap.hi
    report(2, "seminorm-axioms", t0, 5)


def test_03_flow_law():
    t0 = time.time()
    rng = random.Random(303)
    checked = 0
    while checked < 500:
        p = rng.choice((2, 3, 5))
        eps = Fraction(rng.choice((1, 2, 3, 4)), rng.choice((1, 2)))
        kind = rng.randrange(4)
        if kind == 0:
            r = Fraction(p) ** rng.randint(-2, 2)
            x = LinePoint.disk(BasePoint.finite(p, Fraction(rng.randint(1, 4), 2)), rng.randint(-5, 5), r)
        elif kind == 1:
            x = LinePoint.triv_closed(BasePoint.central(), (0, 1), Fraction(1, 4 ** rng.randint(0, 2)))
        elif kind == 2:
            x = LinePoint.triv_outer(BasePoint.extreme(p), Fraction(4) ** rng.randint(1, 2))
        else:
            e = Fraction(rng.randint(1, 4), 8)
            if e * eps > 1:
                continue
            x = LinePoint.arch(BasePoint.arch(e), rng.randint(-3, 3), rng.randint(-3, 3))
        if x.base.place is not None and x.base.place.is_finite and classify_base_point(x.base) == "internal":
            pass
        F = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 5))]
        from arithline.errors import IrrationalRadius

        try:
            y = flow(x, eps)
        except IrrationalRadius:
            continue
        lhs = eval_line_seminorm(F, y)
        rhs = eval_line_seminorm(F, x).pow_rational(eps)
        if lhs.is_exact and rhs.is_exact:
            assert lhs.exact == rhs.exact
        else:
            assert lhs.overlaps(rhs)
        checked += 1
    report(3, "flow-law", t0, 2)


def test_04_global_division():
    t0 = time.time()
    rng = random.Random(404)
    for _ in range(500):
        p = rng.randint(1, 6)
        G = [Fraction(rng.randint(-100, 100)) for _ in range(p)] + [Fraction(1)]
        F = [Fraction(rng.randint(-100, 100)) for _ in range(rng.randint(1, 12))]
        v = global_threshold(G, MZ)
        for w in (v, v + 1, 2 * v + rng.randint(0, 3)):
            Q, R, cert = divide(LaurentPoly.from_poly(F), G, MZ, w)
            assert cert.q_bound_ok and cert.r_bound_ok, (G, F, w)
        q0, r0 = schoolbook_divmod(F, G)
        assert list(Q.poly_coeffs()) == q0 and list(R.poly_coeffs()) == r0
        assert (R.degree() if R else -1) < p
    report(4, "global-division", t0, 10)


def test_05_local_division_preparation():
    t0 = time.time()
    rng = random.Random(505)
    m = 64
    for _ in range(100):
        p = rng.randint(1, 3)
        unit_coeffs = {0: rng.choice((1, -1, 2, 3))}
        for j in range(1, 6):
            if rng.random() < 0.7:
                unit_coeffs[j] = Fraction(rng.randint(-5, 5))
        G = LaurentPoly({p + k: c for k, c in unit_coeffs.items()}, m)
        F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(0, 8)}, m)
        Q, R, cert = divide_local_series(F, G, p, m, CENTER)
        assert len(cert.residuals) >= 1  # contraction record per iteration
        assert cert.epsilon.lt(1)
        # independent oracle: R = low part of F, Q = (F_high / unit) via
        # triangular series division
        f_low = [F.coeff(k) for k in range(p)]
        assert [R.coeff(k) for k in range(p)] == f_low
        f_high = [F.coeff(k + p) for k in range(m - p)]
        u = [unit_coeffs.get(k, Fraction(0)) for k in range(m - p)]
        want = series_quotient(f_high, u, m - p)
        got = [Q.coeff(k) for k in range(m - p)]
        assert got[: len(want)] == want
        # preparation agrees: G = E * Omega with Omega = T^p here
        E, Om, _ = prepare(G, p, 16, CENTER)
        assert Om == LaurentPoly({p: 1})
        recon = series_mul(E, Om).with_mod(16)
        assert recon == G.with_mod(16)
    report(5, "local-division-preparation", t0, 10)


def test_06_hensel():
    t0 = time.time()
    for k in range(1, 11):
        root, report_ = hensel_lift_root([-2, 0, 1], PadicApprox(7, 1, 3), k)
        oracle = newton_sqrt_mod(2, 7, k, 3)
        assert root.residue == oracle % 7 ** k
        assert (root.residue ** 2 - 2) % 7 ** k == 0
        for a, b in zip(report_.gauges, report_.gauges[1:]):
            assert b >= min(2 * a, k)  # at least quadratic residual decay
    P = [LaurentPoly({0: -1, 1: -1}), LaurentPoly.zero(), LaurentPoly.one()]
    root, rep = hensel_lift_root(P, LaurentPoly({0: 1}), 64)
    sq = series_mul(root, root)
    assert sq == LaurentPoly({0: 1, 1: 1}, 64)  # P(root) = 0 mod T^64
    for a, b in zip(rep.gauges, rep.gauges[1:]):
        assert b >= min(2 * a, 64)
    report(6, "hensel", t0, 2)


def test_07_lagrange_bound():
    t0 = time.time()
    rng = random.Random(707)
    for _ in range(300):
        d = rng.randint(2, 5)
        roots = rng.sample(range(-10, 11), d)
        g = [Fraction(1)]
        for r in roots:
            g = [c1 - r * c0 for c0, c1 in zip(g + [Fraction(0)], [Fraction(0)] + g)]
        f = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, d))]
        r_big = max(1, max(abs(r) for r in roots)) + rng.randint(0, 4)
        place = Place.infinite() if rng.random() < 0.6 else Place.finite(rng.choice((2, 3, 5)))
        rep = lagrange_bound_report(f, g, [Fraction(r) for r in roots], r_big, place)
        assert rep.holds
    report(7, "lagrange-bound", t0, 3)


def test_08_cousin_splits():
    t0 = time.time()
    rng = random.Random(808)
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        sys = SplitSystem(Place.finite(p), rng.randint(1, 3))
        a = rand_rational(rng, 10 ** 5)
        minus, plus, cert = split_rational(a, sys)
        assert minus - plus == a
        assert not minus or vp(minus, p) >= 0
        d = plus.denominator
        while d % p == 0:
            d //= p
        assert d == 1
        assert cert.D == Fraction(3, 2) and cert.bounds_ok
    arch = SplitSystem(Place.infinite(), Fraction(1, 2))
    for _ in range(200):
        a = rand_rational(rng, 10 ** 5)
        minus, plus, cert = split_rational(a, arch)
        assert minus - plus == a and plus.denominator == 1
        assert cert.D == Fraction(5, 2) and cert.bounds_ok
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        sys = SplitSystem(Place.finite(p), 1, (Fraction(1, 2), 2))
        f = LaurentPoly(
            {k: Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for k in range(-3, 4) if rng.random() < 0.6}
        )
        fm, fp, cert = split_series_arith(f, sys)
        assert series_sub(fm, fp) == f
        assert all(vp(c, p) >= 0 for c in fm.coeffs.values())
        for c in fp.coeffs.values():
            d = c.denominator
            while d % p == 0:
                d //= p
            assert d == 1
        assert cert.bounds_ok
    report(8, "cousin-splits", t0, 5)


def test_09_cartan():
    t0 = time.time()
    rng = random.Random(909)
    tol = Fraction(1, 2 ** 40)
    done = 0
    attempts = 0
    while done < 50 and attempts < 400:
        attempts += 1
        narrow = SplitSystem(Place.finite(2), 1, (Fraction(1, 32), Fraction(1, 16)))
        wide = SplitSystem(Place.finite(2), 1, (Fraction(1, 2), 2))
        style = rng.randrange(3)
        if style == 0:  # one- or two-sided small support at a narrow annulus
            sys = narrow
            n = 1
            entries = [[LaurentPoly({k: Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 6, 10)))
                                     for k in (2, 3) if rng.random() < 0.8})]]
        elif style == 1:  # 2x2 at the narrow annulus
            sys = narrow
            n = 2
            entries = [
                [
                    LaurentPoly({k: Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 6, 10)))
                                 for k in (2, 3) if rng.random() < 0.6})
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
        else:  # minus-heavy Laurent input at the standard annulus
            sys = wide
            n = 1
            entries = [[LaurentPoly({-1: Fraction(64 * rng.randint(1, 4), rng.choice((1, 3, 5))),
                                     1: Fraction(256 * rng.randint(1, 4))})]]
        ident = SeriesMatrix.identity(n)
        a = ident.add(SeriesMatrix(entries))
        ctx = sys.annulus_on(sys.overlap_compact())
        gap = matrix_norm(a.sub(ident), ctx)
        if gap.hi > Fraction(1, 18) or gap.hi == 0:
            continue
        res = cartan_factorize(a, sys, 64, tol)
        assert res.residual.hi <= tol
        assert res.sides_ok
        assert res.bound_4D_ok
        assert res.decay_ok  # ||btilde_k|| <= M beta^k termwise
        done += 1
    assert done == 50
    report(9, "cartan", t0, 30)


def test_10_covers():
    t0 = time.time()
    for n in range(1, 9):
        g, rep = binomial_root_series(n, 64)
        assert rep.power_identity_ok
        g200, _ = binomial_root_series(n, 201)
        for p in range(2, 100):
            if not is_prime(p) or p % n != 1:
                continue
            assert all(vp(c, p) >= 0 for c in g200.coeffs.values() if c)
    for n, p in ((2, 3), (3, 7), (4, 5)):
        desc = CoverDescriptor.build(n, p, 3, max(6, 2 * n))
        assert cyclic_cover_split(desc).zero_at_precision
    for name, G in standard_group_tables().items():
        assert G.n <= 8
        rep = mu_homomorphism(G)
        assert rep.homomorphism and rep.injective, name
        assert mu_flags_pointwise(G) == (True, True), name
    report(10, "covers", t0, 10)


def test_11_shilov_consistency():
    t0 = time.time()
    rng = random.Random(111)
    segments = [
        BaseCompact.segment(Place.finite(2), 1, 3),
        BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2),
        BaseCompact.segment(Place.finite(5), 1, INF),
        BaseCompact.segment(Place.infinite(), Fraction(1, 4), 1),
        BaseCompact.segment(Place.infinite(), 0, Fraction(1, 2)),
    ]
    stars = [
        MZ,
        BaseCompact.star({Place.finite(2): 1}),
        BaseCompact.star({Place.finite(2): 2, Place.finite(3): 1, Place.infinite(): Fraction(1, 2)}),
    ]
    for _ in range(300):
        V = rng.choice(segments + stars)
        f = rand_rational(rng, 10 ** 4)
        while not member_of_kv(f, V):
            f = rand_rational(rng, 10 ** 4)
        nrm = base_norm(f, V)
        best = None
        for gamma in shilov_base(V):
            val = eval_base_seminorm(f, gamma)
            best = val if best is None else best.max_with(val)
        if nrm.is_exact and best.is_exact:
            assert nrm.exact == best.exact
        else:
            assert nrm.overlaps(best)
    um = [
        BaseCompact.segment(Place.finite(2), 1, 1),
        BaseCompact.segment(Place.finite(3), 1, 2),
        BaseCompact.segment(Place.finite(5), 1, INF),
        BaseCompact.central_point(),
    ]
    for _ in range(300):
        V = rng.choice(um)
        s = rng.choice((Fraction(0), Fraction(1, 2)))
        t = rng.choice((Fraction(1, 2), 1, 2))
        if t < s:
            s, t = t, s
        A = AnnulusSpec(V, s, t)
        lo_k = 0 if s == 0 else -3
        f = LaurentPoly({k: Fraction(rng.randint(-50, 50)) for k in range(lo_k, 4) if rng.random() < 0.7})
        if not f:
            continue
        unif = uniform_norm_annulus(f, A)
        best = None
        for x in shilov_annulus(A):
            shift = -(f.min_index() or 0) if (f.min_index() or 0) < 0 else 0
            coeffs = [f.coeff(k - shift) for k in range(shift + (f.max_index() or 0) + 1)]
            val = eval_line_seminorm(coeffs, x)
            if shift:
                val = val * NormValue.of(x.fiber.r) .pow_rational(-shift) if x.fiber.r else val
            best = val if best is None else best.max_with(val)
        if unif.is_exact and best.is_exact:
            assert unif.exact == best.exact, (f, A)
        else:
            assert unif.overlaps(best)
    # minimality witnesses over the segment family: f attains the norm at
    # the target Shilov point and is certifiedly smaller at every other one
    candidates = [Fraction(a, b) for a in range(-12, 13) if a for b in range(1, 13)]
    for V in segments:
        gamma = shilov_base(V)
        for target in gamma:
            found = False
            for f in candidates:
                if not member_of_kv(f, V):
                    continue
                at_t = eval_base_seminorm(f, target)
                if all(
                    eval_base_seminorm(f, other).hi < at_t.lo
                    for other in gamma
                    if other != target
                ):
                    found = True
                    break
            assert found, f"no minimality witness for {target} in {V}"
    report(11, "shilov-consistency", t0, 5)
