import math
import random
from fractions import Fraction

import pytest

from arithline import (
    AnnulusSpec,
    BaseCompact,
    BasePoint,
    LaurentPoly,
    NormValue,
    Place,
    compare_annulus_factor,
    eval_line_seminorm,
    invert_unit,
    norm_annulus,
    series_arith,
    shilov_annulus,
    uniform_norm_annulus,
)
from arithline.series_ring import series_mul, series_sub
from arithline.errors import (
    ArchimedeanBase,
    NegativePowersOnDisk,
    NotAUnit,
    OrderingViolated,
)

from oracles import convolve, radius_weight

INF = math.inf


def pt(p, e=1):
    return BaseCompact.segment(Place.finite(p), e, e)


def test_series_arith_examples():
    T = LaurentPoly.monomial(1)
    assert series_arith(T, T, "mul") == LaurentPoly.monomial(2)
    f = LaurentPoly({0: 1, 1: 1}, 3)
    g = LaurentPoly({0: 1, 1: -1}, 3)
    assert series_arith(f, g, "mul") == LaurentPoly({0: 1, 2: -1}, 3)
    h = series_arith(LaurentPoly({-1: 2, 0: 3}), T, "mul")
    assert h == LaurentPoly({0: 2, 1: 3})


def test_series_mul_against_convolution_oracle():
    rng = random.Random(31)
    for _ in range(200):
        a = {rng.randint(-4, 5): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)}
        b = {rng.randint(-4, 5): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)}
        fa, fb = LaurentPoly(a), LaurentPoly(b)
        got = series_mul(fa, fb)
        want = convolve(fa.coeffs, fb.coeffs)
        assert got.coeffs == want


def test_norm_annulus_examples():
    A = AnnulusSpec(pt(2), Fraction(1, 2), 2)
    assert norm_annulus(LaurentPoly.zero(), A) == NormValue.of(0)
    f = LaurentPoly({-1: 2, 0: 3, 2: 1})
    # oracle: |2|_2 * 2 + |3|_2 * 1 + |1|_2 * 4 = 1 + 1 + 4
    assert norm_annulus(f, A) == NormValue.of(6)
    A0 = AnnulusSpec(BaseCompact.central_point(), Fraction(1, 3), Fraction(5, 2))
    k = 3
    assert norm_annulus(LaurentPoly.monomial(k), A0) == NormValue.of(max(Fraction(1, 3) ** k, Fraction(5, 2) ** k))


def test_norm_annulus_rejects_negative_on_disk():
    A = AnnulusSpec(pt(2), 0, 1)
    with pytest.raises(NegativePowersOnDisk):
        norm_annulus(LaurentPoly({-1: 1}), A)


def test_uniform_norm_examples():
    A = AnnulusSpec(pt(2), Fraction(1, 2), 2)
    f = LaurentPoly({-1: 2, 0: 3, 2: 1})
    assert uniform_norm_annulus(f, A) == NormValue.of(4)
    assert uniform_norm_annulus(LaurentPoly({0: 7}), A) == NormValue.of(1)
    assert uniform_norm_annulus(LaurentPoly({0: 7}), AnnulusSpec(pt(7), Fraction(1, 2), 2)) == NormValue.of(Fraction(1, 7))
    assert uniform_norm_annulus(LaurentPoly({-1: 1}), AnnulusSpec(pt(3), Fraction(1, 2), 2)) == NormValue.of(2)
    arch = AnnulusSpec(BaseCompact.segment(Place.infinite(), 1, 1), Fraction(1, 2), 2)
    with pytest.raises(ArchimedeanBase):
        uniform_norm_annulus(LaurentPoly.one(), arch)
    bound = uniform_norm_annulus(f, arch, archimedean_upper_bound=True)
    assert bound == norm_annulus(f, arch)


def test_compare_factor():
    assert compare_annulus_factor(Fraction(1, 2), 2, 1, 1) == 3
    assert compare_annulus_factor(0, 2, 1, 1) == 2
    assert compare_annulus_factor(Fraction(1, 4), 4, Fraction(1, 2), 2) == 3
    with pytest.raises(OrderingViolated):
        compare_annulus_factor(1, 2, 1, 1)


def test_norm_comparison_inequality():
    rng = random.Random(37)
    for _ in range(200):
        p = rng.choice((2, 3))
        V = pt(p)
        s, u, v, t = Fraction(1, 4), Fraction(1, 2), 1, 2
        f = LaurentPoly(
            {k: Fraction(rng.randint(-20, 20)) for k in range(-3, 4) if rng.random() < 0.7}
        )
        inner = norm_annulus(f, AnnulusSpec(V, u, v))
        outer = uniform_norm_annulus(f, AnnulusSpec(V, s, t))
        factor = compare_annulus_factor(s, t, u, v)
        assert inner.lo <= factor * outer.hi


def test_coefficient_bound():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        A = AnnulusSpec(pt(p), Fraction(1, 2), 2)
        f = LaurentPoly(
            {k: Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for k in range(-3, 4) if rng.random() < 0.7}
        )
        unif = uniform_norm_annulus(f, A)
        for k, c in f.coeffs.items():
            from arithline.base_space import base_norm

            term = base_norm(c, A.V) * NormValue.of(radius_weight(A, k))
            assert term.lo <= unif.hi  # C_+ = 1


def test_submult_and_power_mult():
    rng = random.Random(43)
    for _ in range(500):
        p = rng.choice((2, 3))
        A = AnnulusSpec(pt(p), Fraction(1, 2), 2)
        f = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(-2, 3) if rng.random() < 0.7})
        g = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(-2, 3) if rng.random() < 0.7})
        lhs = norm_annulus(series_mul(f, g), A)
        rhs = norm_annulus(f, A) * norm_annulus(g, A)
        assert lhs.lo <= rhs.hi
        if f:
            u1 = uniform_norm_annulus(f, A)
            sq = uniform_norm_annulus(series_mul(f, f), A)
            assert sq == u1 * u1  # Gauss norm is power-multiplicative


def test_invert_unit_examples():
    disk = AnnulusSpec(BaseCompact.central_point(), 0, Fraction(1, 2))
    assert invert_unit(LaurentPoly.one(), disk, 5) == LaurentPoly.one(5)
    g = invert_unit(LaurentPoly({0: 1, 1: 1}), disk, 4)
    assert g == LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1}, 4)
    g2 = invert_unit(LaurentPoly({0: 2, 1: 1}), disk, 3)
    assert g2 == LaurentPoly({0: Fraction(1, 2), 1: Fraction(-1, 4), 2: Fraction(1, 8)}, 3)
    wide = AnnulusSpec(BaseCompact.central_point(), 0, 2)
    with pytest.raises(NotAUnit):
        invert_unit(LaurentPoly({0: 1, 1: 4}), wide, 4)  # ||4T|| = 2 at t = 2


def test_invert_unit_identity_random():
    rng = random.Random(47)
    disk = AnnulusSpec(BaseCompact.central_point(), 0, Fraction(1, 2))
    for _ in range(100):
        m = rng.randint(2, 8)
        f = LaurentPoly({0: rng.choice((1, 2, 3, -1))} | ({1: Fraction(rng.randint(-1, 1))} if rng.random() < 0.8 else {}))
        if not f.coeff(0):
            continue
        try:
            g = invert_unit(f, disk, m)
        except NotAUnit:
            continue
        prod = series_mul(f, g)
        assert prod.coeff(0) == 1
        assert all(c == 0 for k, c in prod.coeffs.items() if 0 < k < m)


def test_invert_unit_minus_side():
    Km = BaseCompact.segment(Place.finite(2), 1, INF)
    A = AnnulusSpec(Km, Fraction(1, 2), 2)
    f = LaurentPoly({0: 1, -1: Fraction(8, 3)})
    g = invert_unit(f, A, 4)
    prod = series_mul(f, g)
    assert prod.coeff(0) == 1
    assert all(k <= -4 for k in prod.coeffs if k != 0)


def test_shilov_annulus_cases():
    A = AnnulusSpec(pt(2), Fraction(1, 2), 2)
    pts = shilov_annulus(A)
    assert len(pts) == 2
    radii = {x.fiber.r for x in pts}
    assert radii == {Fraction(1, 2), Fraction(2)}
    disk = AnnulusSpec(pt(2), 0, 1)
    assert len(shilov_annulus(disk)) == 1
    V = BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2)
    both = shilov_annulus(AnnulusSpec(V, 1, 1))
    assert len(both) == 2
    assert {x.base for x in both} == {BasePoint.finite(3, Fraction(1, 2)), BasePoint.finite(3, 2)}
    with pytest.raises(ArchimedeanBase):
        shilov_annulus(AnnulusSpec(BaseCompact.whole_space(), 1, 1))


def test_uniform_norm_is_shilov_max():
    rng = random.Random(53)
    compacts = [
        pt(2),
        pt(3, Fraction(1, 2)),
        BaseCompact.segment(Place.finite(2), 1, 2),
        BaseCompact.segment(Place.finite(5), 1, INF),
        BaseCompact.central_point(),
        BaseCompact.segment(Place.finite(7), INF, INF),
    ]
    for _ in range(300):
        V = rng.choice(compacts)
        s = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1, 4)))
        t = rng.choice((Fraction(1, 2), 1, 2))
        if s > t:
            s, t = t, s
        if t == 0:
            continue
        A = AnnulusSpec(V, s, t)
        f = LaurentPoly(
            {
                k: Fraction(rng.randint(-30, 30))
                for k in range(0 if s == 0 else -3, 4)
                if rng.random() < 0.7
            }
        )
        unif = uniform_norm_annulus(f, A)
        best = NormValue.of(0)
        for x in shilov_annulus(A):
            # polynomial evaluation needs nonnegative support: shift by T^j
            shift = -min(f.coeffs) if f.coeffs and min(f.coeffs) < 0 else 0
            poly = [f.coeff(k - shift) for k in range(shift + (max(f.coeffs) if f.coeffs else 0) + 1)]
            val = eval_line_seminorm(poly, x)
            if shift:
                r = x.fiber.r
                val = val * NormValue.of(r ** -shift) if r else val
            best = best.max_with(val)
        if not f:
            continue
        if unif.is_exact and best.is_exact:
            assert unif.exact == best.exact, (f, A)
        else:
            assert unif.overlaps(best)


def test_invert_unit_rejects_negative_support_on_disk():
    disk = AnnulusSpec(BaseCompact.central_point(), 0, Fraction(1, 2))
    with pytest.raises(NegativePowersOnDisk):
        invert_unit(LaurentPoly({-1: 2, 0: 3}), disk, 4)


def test_with_mod_and_shift_match_the_validating_constructor():
    rng = random.Random(47)
    for _ in range(200):
        coeffs = {
            rng.randint(-5, 9): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, 7))
        }
        f = LaurentPoly(coeffs, rng.choice((None, rng.randint(-2, 10))))
        m = rng.choice((None, rng.randint(-3, 12)))
        g = f.with_mod(m)
        want = LaurentPoly(f.coeffs, m)
        assert g == want and hash(g) == hash(want)
        assert g.trunc_mod == m
        assert m is None or all(k < m for k in g.coeffs)
        j = rng.randint(-4, 4)
        h = f.shift(j)
        mod = None if f.trunc_mod is None else f.trunc_mod + j
        want = LaurentPoly({k + j: c for k, c in f.coeffs.items()}, mod)
        assert h == want and hash(h) == hash(want)
        # the results never share their numerators with the source
        for out in (g, h):
            assert out.num is not f.num


def test_with_mod_examples():
    f = LaurentPoly({-2: 1, 0: 3, 4: Fraction(1, 2), 7: 5})
    assert f.with_mod(5) == LaurentPoly({-2: 1, 0: 3, 4: Fraction(1, 2)}, 5)
    assert f.with_mod(4).coeffs == {-2: 1, 0: 3}
    assert f.with_mod(None) == f and f.with_mod(None).trunc_mod is None
    # the modulus is set as given, also above the source's own modulus
    assert LaurentPoly({0: 1, 2: 3}, 3).with_mod(5) == LaurentPoly({0: 1, 2: 3}, 5)
    assert LaurentPoly({0: 1, 2: 3}, 4).shift(-1) == LaurentPoly({-1: 1, 1: 3}, 3)


def test_constructor_takes_ints_and_fractions_as_they_are():
    """int and Fraction coefficients go in unwrapped; strings, floats and
    other Rationals are read by ``Fraction`` as before, and bad values keep
    its errors."""
    f = LaurentPoly({0: 3, 1: Fraction(-2, 6), 2: "5/4", 3: 0.5, 4: True, 5: 0, 6: Fraction(0)})
    assert (f.num, f.den) == ({0: 36, 1: -4, 2: 15, 3: 6, 4: 12}, 12)
    assert LaurentPoly([(1, 2), (1, Fraction(1, 2)), (0, -4)]) == LaurentPoly({0: -4, 1: Fraction(5, 2)})
    assert LaurentPoly.from_poly([1, 0, Fraction(-1, 3)], 2) == LaurentPoly({0: 1}, 2)
    assert all(type(c) is Fraction for c in f.coeffs.values())
    for bad, error in ((None, TypeError), ("x", ValueError), ([1], TypeError), (float("nan"), ValueError)):
        with pytest.raises(error) as got:
            LaurentPoly({0: bad})
        with pytest.raises(error) as want:
            Fraction(bad)
        assert str(got.value) == str(want.value)
