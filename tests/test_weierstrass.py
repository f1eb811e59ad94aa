import math
import random
from fractions import Fraction

import pytest

from arithline import (
    AnnulusSpec,
    BaseCompact,
    LaurentPoly,
    NormValue,
    PadicApprox,
    Place,
    QuotientRing,
    condition_RG_check,
    divide,
    divide_local_series,
    global_threshold,
    hensel_factor_lift,
    hensel_lift_root,
    lagrange_bound_report,
    prepare,
    residual_norm_sandwich,
    resultant,
)
from arithline.polys import Gauss
from arithline.series_ring import series_add, series_mul, series_sub
from arithline.errors import (
    NotCoprime,
    NotMonic,
    NotSeparable,
    NotSimpleRoot,
    ProductMismatch,
    RadiusBelowThreshold,
    RadiusTooSmall,
    ValuationUndefined,
)

from oracles import newton_sqrt_mod, resultant_from_roots, schoolbook_divmod, series_quotient

INF = math.inf
MZ = BaseCompact.whole_space()
CENTER = AnnulusSpec(BaseCompact.central_point(), 0, Fraction(1, 2))


def test_global_threshold_examples():
    assert global_threshold([0, 0, 0, 1], MZ) == Fraction(1, 2 ** 16)
    v = global_threshold([2, 2, 1], MZ)
    # the sum 2/v^2 + 2/v crosses 1/2 at 2 + 2 sqrt 2
    assert Fraction(2) / v ** 2 + Fraction(2) / v <= Fraction(1, 2)
    prev = v - Fraction(1, 2 ** 16)
    assert Fraction(2) / prev ** 2 + Fraction(2) / prev > Fraction(1, 2)
    assert 4 < v < 5
    assert global_threshold([-10, 1], MZ) == 20
    with pytest.raises(NotMonic):
        global_threshold([1, 2], MZ)


def test_divide_example():
    F = LaurentPoly.from_poly([0, 0, 0, 1])
    Q, R, cert = divide(F, [2, 2, 1], MZ, 5)
    assert Q == LaurentPoly({0: -2, 1: 1})
    assert R == LaurentPoly({0: 4, 1: 2})
    assert cert.normQ == NormValue.of(7)
    assert cert.normR == NormValue.of(14)
    assert cert.q_bound_ok and cert.r_bound_ok
    # monomial divisor: high/low split
    Q2, R2, _ = divide(LaurentPoly.from_poly([1, 2, 3, 4]), [0, 0, 1], MZ, 5)
    assert Q2 == LaurentPoly({0: 3, 1: 4}) and R2 == LaurentPoly({0: 1, 1: 2})
    # F = G
    Q3, R3, _ = divide(LaurentPoly.from_poly([2, 2, 1]), [2, 2, 1], MZ, 5)
    assert Q3 == LaurentPoly.one() and not R3


def test_divide_threshold_guard():
    with pytest.raises(RadiusBelowThreshold):
        divide(LaurentPoly.from_poly([1]), [2, 2, 1], MZ, 1)


def test_divide_against_long_division_oracle():
    rng = random.Random(61)
    for _ in range(200):
        p = rng.randint(1, 6)
        G = [Fraction(rng.randint(-100, 100)) for _ in range(p)] + [Fraction(1)]
        F = [Fraction(rng.randint(-100, 100)) for _ in range(rng.randint(1, 12))]
        v = global_threshold(G, MZ)
        w = v + rng.randint(0, 2)
        Q, R, cert = divide(LaurentPoly.from_poly(F), G, MZ, w)
        q0, r0 = schoolbook_divmod(F, G)
        assert list(Q.poly_coeffs()) == q0
        assert list(R.poly_coeffs()) == r0
        assert (R.degree() or -1) < p
        assert cert.q_bound_ok and cert.r_bound_ok


def test_divide_local_series_examples():
    F = LaurentPoly({2: 1}, 5)
    G = LaurentPoly({2: 1, 3: 1}, 5)
    Q, R, cert = divide_local_series(F, G, 2, 5, CENTER)
    # oracle: exact series division, T^2/(T^2 + T^3) = 1/(1 + T)
    want = series_quotient([1], [1, 1], 3)
    assert [Q.coeff(k) for k in range(3)] == want
    assert not R
    assert cert.epsilon.lt(1)
    assert len(cert.residuals) >= 2
    # F = 1, G = T + T^2: R = 1, Q = 0
    Q2, R2, _ = divide_local_series(LaurentPoly({0: 1}, 5), LaurentPoly({1: 1, 2: 1}, 5), 1, 5, CENTER)
    assert not Q2 and R2 == LaurentPoly({0: 1})
    # classical split for G = T^p
    Q3, R3, _ = divide_local_series(
        LaurentPoly({0: 1, 1: 2, 2: 3, 3: 4}, 6), LaurentPoly({2: 1}, 6), 2, 6, CENTER
    )
    assert R3 == LaurentPoly({0: 1, 1: 2})
    assert Q3.coeff(0) == 3 and Q3.coeff(1) == 4


def test_divide_local_identity_random():
    rng = random.Random(67)
    for _ in range(100):
        p = rng.randint(1, 3)
        m = 16
        G = LaurentPoly(
            {p: rng.choice((1, 2, -1))} | {p + j: Fraction(rng.randint(-5, 5)) for j in range(1, 4)},
            m,
        )
        F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(0, 6)}, m)
        Q, R, _ = divide_local_series(F, G, p, m, CENTER)
        recon = series_add(series_mul(Q, G), R)
        assert series_sub(recon, F).with_mod(m) == LaurentPoly.zero(m) or not series_sub(recon, F).with_mod(m)
        assert (R.degree() or -1) < p


def test_divide_local_valuation_errors():
    with pytest.raises(ValuationUndefined):
        divide_local_series(LaurentPoly({0: 1}, 4), LaurentPoly({1: 1}, 4), 2, 4, CENTER)
    with pytest.raises(ValuationUndefined):
        # nonvanishing low part of a genuine series cannot be divided exactly
        ctx = AnnulusSpec(BaseCompact.segment(Place.finite(3), 1, INF), 0, Fraction(1, 2))
        divide_local_series(
            LaurentPoly({0: 1}, 4), LaurentPoly({0: 3, 1: 1, 3: 1}, 4), 1, 4, ctx
        )


def test_prepare_examples():
    E, Om, _ = prepare(LaurentPoly({2: 1, 3: 1}), 2, 4, CENTER)
    assert Om == LaurentPoly({2: 1})
    assert E == LaurentPoly({0: 1, 1: 1}, 4)
    G = LaurentPoly({1: 1, 2: 2})
    E2, Om2, _ = prepare(G, 1, 4, CENTER)
    assert Om2 == LaurentPoly({1: 1}) and E2 == LaurentPoly({0: 1, 1: 2}, 4)
    # already distinguished: E = 1, Omega = G (extreme anchor)
    ctx = AnnulusSpec(BaseCompact.segment(Place.finite(2), 1, INF), 0, Fraction(1, 2))
    E3, Om3, _ = prepare(LaurentPoly({0: 2, 1: 2, 2: 1}), 2, 5, ctx)
    assert E3 == LaurentPoly.one(5)
    assert [Om3.coeff(k) for k in range(3)] == [2, 2, 1]


def test_prepare_agrees_with_divide_for_distinguished_polys():
    rng = random.Random(71)
    ctx = AnnulusSpec(BaseCompact.segment(Place.finite(3), 1, INF), 0, Fraction(1, 2))
    for _ in range(50):
        p = rng.randint(1, 3)
        G = LaurentPoly({p: 1} | {j: Fraction(3 * rng.randint(-5, 5)) for j in range(p)})
        F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(0, 5)}, 12)
        try:
            Q, R, _ = divide_local_series(F, G, p, 12, ctx)
        except ValuationUndefined:
            continue
        q0, r0 = schoolbook_divmod(list(F.poly_coeffs()), list(G.poly_coeffs()))
        assert list(R.poly_coeffs()) == r0
        assert [Q.coeff(k) for k in range(len(q0))] == q0


def test_prepare_uniqueness_under_reruns():
    # re-running from scratch (perturbed working precision) gives identical output
    E1, Om1, _ = prepare(LaurentPoly({2: 1, 3: 1, 4: -2}), 2, 6, CENTER)
    E2, Om2, _ = prepare(LaurentPoly({2: 1, 3: 1, 4: -2}), 2, 8, CENTER)
    assert Om1 == Om2
    assert all(E1.coeff(k) == E2.coeff(k) for k in range(6))


# -- Hensel ---------------------------------------------------------------------


def test_hensel_padic_examples():
    root, report = hensel_lift_root([-2, 0, 1], PadicApprox(7, 1, 3), 3)
    assert root.residue == 108 and (108 ** 2 - 2) % 343 == 0
    # independent Newton oracle
    assert newton_sqrt_mod(2, 7, 3, 3) == 108
    assert report.gauges[0] == 1
    # quadratic residual decay
    for a, b in zip(report.gauges, report.gauges[1:]):
        assert b >= min(2 * a, 3)
    lin, _ = hensel_lift_root([-5, 1], PadicApprox(7, 1, 5), 4)
    assert lin.residue == 5 % 7 ** 4


def test_hensel_padic_not_simple():
    with pytest.raises(NotSimpleRoot):
        hensel_lift_root([0, 0, 1], PadicApprox(5, 1, 0), 3)  # double root of S^2


def test_hensel_series_example():
    P = [LaurentPoly({0: -1, 1: -1}), LaurentPoly.zero(), LaurentPoly.one()]
    root, report = hensel_lift_root(P, LaurentPoly({0: 1}), 4)
    assert root == LaurentPoly({0: 1, 1: Fraction(1, 2), 2: Fraction(-1, 8), 3: Fraction(1, 16)}, 4)
    square = series_mul(root, root)
    assert square == LaurentPoly({0: 1, 1: 1}, 4)
    # trivial: P = S - a
    r2, _ = hensel_lift_root([LaurentPoly({0: -3, 2: 1}), LaurentPoly.one()], LaurentPoly({0: 3}), 5)
    assert r2 == LaurentPoly({0: 3, 2: -1}, 5)


def test_hensel_factor_lift_examples():
    assert hensel_factor_lift([-1, 0, 1], [[-1, 1], [1, 1]], 5, 3) == [(124, 1), (1, 1)]
    lifted = hensel_factor_lift([1, 0, 1], [[-2, 1], [2, 1]], 5, 2)
    assert lifted == [(18, 1), (7, 1)]  # (T - 7)(T + 7) mod 25
    assert (7 ** 2 + 1) % 25 == 0
    lifted3 = hensel_factor_lift([-2, 0, 1], [[-3, 1], [3, 1]], 7, 3)
    assert lifted3 == [(235, 1), (108, 1)]  # T -/+ 108, matching the root lift
    with pytest.raises(NotCoprime):
        hensel_factor_lift([1, 2, 1], [[1, 1], [1, 1]], 5, 2)


def test_hensel_factor_lift_reduces_fractional_seeds_exactly():
    """A seed coefficient a/b is read as a b^-1 mod p, never truncated to an int."""
    half = Fraction(1, 2)
    assert hensel_factor_lift([6, 5, 1], [[-half, 1], [3, 1]], 5, 3) == [(2, 1), (3, 1)]  # -1/2 = 2
    assert hensel_factor_lift([6, 5, 1], [["-1/2", 1], [3, 1]], 5, 3) == [(2, 1), (3, 1)]
    with pytest.raises(ProductMismatch):  # 1/2 = 3 mod 5, and (T + 3)(T + 1) is not T^2 + T
        hensel_factor_lift([0, 1, 1], [[half, 1], [1, 1]], 5, 3)
    with pytest.raises(ValueError, match="not p-integral"):
        hensel_factor_lift([1, 2, 1], [[Fraction(7, 5), 1], [1, 1]], 5, 2)


def test_hensel_factor_lift_random():
    rng = random.Random(73)
    from arithline.polys import fp_poly, fp_mul

    for _ in range(50):
        p = rng.choice((3, 5, 7))
        # build G from random monic coprime seeds and a random lift
        a = rng.randint(1, p - 1)
        b = rng.randint(0, p - 1)
        while (a + b) % p == a % p or b == a:
            b = (b + 1) % p
        f1 = [(-a) % p, 1]
        f2 = [(-b) % p, 1]
        if f1 == f2:
            continue
        N = rng.randint(2, 5)
        G = [a * b, -(a + b), 1]
        got = hensel_factor_lift(G, [f1, f2], p, N)
        prod = fp_mul(fp_poly(got[0], p ** N), fp_poly(got[1], p ** N), p ** N)
        assert list(prod) == [c % p ** N for c in G]


# -- resultant, Lagrange bound, residual norms -----------------------------------


def test_resultant_examples():
    assert resultant([-1, 0, 1], [0, 2]) == -4
    assert resultant([0, 1], [0, 1]) == 0
    a, b = Fraction(3), Fraction(5)
    # fixed convention: Res(f, g) = lc(f)^deg g * prod g(roots f)
    assert resultant([-a, 1], [-b, 1]) == a - b
    assert resultant([-a, 1], [-b, 1]) == resultant_from_roots(1, [a], [-b, 1])


def test_resultant_random_against_root_oracle():
    rng = random.Random(79)
    for _ in range(100):
        roots = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
        f = [Fraction(1)]
        for r in roots:
            f = [c1 - r * c0 for c0, c1 in zip(f + [Fraction(0)], [Fraction(0)] + f)]
        g = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        assert resultant(f, g) == resultant_from_roots(1, roots, g)


def test_lagrange_examples():
    rep = lagrange_bound_report([0, 1], [-1, 0, 1], [1, -1], 1, Place.infinite())
    assert rep.lhs == NormValue.of(1)
    assert rep.D == NormValue.of(2)
    assert rep.rhs == NormValue.of(2)
    assert rep.holds
    rep2 = lagrange_bound_report([1, 1], [-1, 0, 1], [1, -1], 1, Place.infinite())
    assert rep2.lhs == NormValue.of(2) and rep2.rhs == NormValue.of(4)
    rep3 = lagrange_bound_report([], [-1, 0, 1], [1, -1], 1, Place.infinite())
    assert rep3.lhs == NormValue.of(0) and rep3.holds


def test_lagrange_errors():
    with pytest.raises(NotSeparable):
        lagrange_bound_report([0, 1], [0, 0, 1], [0, 0], 1, Place.infinite())
    with pytest.raises(RadiusTooSmall):
        lagrange_bound_report([0, 1], [-4, 0, 1], [2, -2], 1, Place.infinite())


def test_lagrange_gaussian_roots():
    rep = lagrange_bound_report([1, 1], [1, 0, 1], [Gauss(0, 1), Gauss(0, -1)], 2, Place.infinite())
    assert rep.holds


def test_lagrange_random():
    rng = random.Random(83)
    for _ in range(300):
        d = rng.randint(2, 5)
        roots = rng.sample(range(-8, 9), d)
        g = [Fraction(1)]
        for r in roots:
            g = [c1 - r * c0 for c0, c1 in zip(g + [Fraction(0)], [Fraction(0)] + g)]
        f = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, d))]
        r_big = max(abs(r) for r in roots) + rng.randint(0, 3)
        if r_big == 0:
            r_big = 1
        place = Place.infinite() if rng.random() < 0.7 else Place.finite(rng.choice((2, 3, 5)))
        rep = lagrange_bound_report(f, g, [Fraction(r) for r in roots], r_big, place)
        assert rep.holds


def test_residual_sandwich_examples():
    qr = QuotientRing((2, 2, 1), MZ, 5)
    rs = residual_norm_sandwich(qr, [0, 1])
    assert rs.div_norm == NormValue.of(1) and rs.upper == NormValue.of(5)
    rs2 = residual_norm_sandwich(qr, [0, 0, 1])  # T^2 reduces to -2T - 2
    assert rs2.div_norm == NormValue.of(2) and rs2.upper == NormValue.of(12)
    rs3 = residual_norm_sandwich(qr, [1])
    assert rs3.div_norm == NormValue.of(1) and rs3.upper == NormValue.of(1)
    # sandwich consistency: upper / C0 <= (sum w^i) * div_norm
    for rep in (rs, rs2, rs3):
        cap = sum(Fraction(5) ** i for i in range(2))
        assert rep.upper.lo / rep.C0 <= cap * rep.div_norm.hi


def test_quotient_ring_guard():
    with pytest.raises(RadiusBelowThreshold):
        QuotientRing((2, 2, 1), MZ, 1)


def test_condition_rg():
    seg = BaseCompact.segment(Place.finite(2), 1, INF)
    rep = condition_RG_check(seg, [1, 0, 1])
    assert rep.holds and rep.m_U == NormValue.of(Fraction(1, 4))
    rep2 = condition_RG_check(MZ, [0, 0, 1])
    assert not rep2.holds
    rep3 = condition_RG_check(BaseCompact.star({Place.infinite(): 1}), [-2, 0, 1])
    assert rep3.holds
    assert rep3.m_U.lo > 0


def test_hensel_factor_lift_three_factors():
    # G = (T-1)(T-2)(T-3) = T^3 - 6T^2 + 11T - 6, exact over Z
    G = [-6, 11, -6, 1]
    lifted = hensel_factor_lift(G, [[-1, 1], [-2, 1], [-3, 1]], 7, 4)
    assert len(lifted) == 3
    mod = 7 ** 4
    from arithline.polys import fp_mul

    prod = (1,)
    for f in lifted:
        prod = fp_mul(prod, f, mod)
    assert list(prod) == [c % mod for c in G]
    # each factor stays congruent to its seed mod 7
    for f, seed in zip(lifted, ([-1, 1], [-2, 1], [-3, 1])):
        assert [c % 7 for c in f] == [c % 7 for c in seed]
    # a genuinely inexact 3-way split: T^3 - 2 factors mod 5 as (T-3)(T^2+3T+4)
    G2 = [-2, 0, 0, 1]
    lifted2 = hensel_factor_lift(G2, [[2, 1], [4, 3, 1]], 5, 5)
    prod2 = (1,)
    for f in lifted2:
        prod2 = fp_mul(prod2, f, 5 ** 5)
    assert list(prod2) == [c % 5 ** 5 for c in G2]


def test_divide_local_internal_anchor():
    # a proper internal segment anchors at its left endpoint; reduction there
    # is faithful, so low coefficients must vanish identically
    ctx = AnnulusSpec(BaseCompact.segment(Place.finite(5), 1, 2), 0, Fraction(1, 2))
    F = LaurentPoly({0: 1, 3: 2}, 10)
    G = LaurentPoly({1: 2, 2: 1, 4: -3}, 10)
    Q, R, cert = divide_local_series(F, G, 1, 10, ctx)
    recon = series_add(series_mul(Q, G), R)
    assert not series_sub(recon, F).with_mod(10)
    assert (R.degree() or -1) < 1
    assert cert.epsilon.lt(1)


def test_local_division_residuals_contract_at_cert_rate():
    rng = random.Random(131)
    for _ in range(50):
        p = rng.randint(1, 3)
        G = LaurentPoly({p: 1} | {p + j: Fraction(rng.randint(-4, 4)) for j in range(1, 4)}, 20)
        F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(6)}, 20)
        _, _, cert = divide_local_series(F, G, p, 20, CENTER)
        eps_hi = cert.epsilon.hi
        for a, b in zip(cert.residuals, cert.residuals[1:]):
            assert b.hi <= eps_hi * a.hi + Fraction(1, 2 ** 80)


def test_local_agrees_with_global_for_distinguished_polys():
    rng = random.Random(137)
    ctx = AnnulusSpec(BaseCompact.segment(Place.finite(2), 1, INF), 0, Fraction(1, 2))
    V = BaseCompact.segment(Place.finite(2), 1, INF)
    for _ in range(40):
        p = rng.randint(1, 3)
        # distinguished: monic degree p, low coefficients divisible by 2
        G = LaurentPoly({p: 1} | {j: Fraction(2 * rng.randint(-9, 9)) for j in range(p)})
        F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(6)}, 24)
        try:
            Ql, Rl, _ = divide_local_series(F, G, p, 24, ctx)
        except ValuationUndefined:
            continue
        w = global_threshold(G.poly_coeffs(), V)
        Qg, Rg, cert = divide(F, G.poly_coeffs(), V, w)
        assert Ql.coeffs == Qg.coeffs and Rl.coeffs == Rg.coeffs
        assert cert.bounds_ok
