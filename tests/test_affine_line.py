import random
from fractions import Fraction

import pytest

from arithline import (
    BasePoint,
    LinePoint,
    NormValue,
    Place,
    eval_line_seminorm,
    flow,
)
from arithline.affine_line import Arch, TrivClosed, UmDisk
from arithline.errors import (
    FlowOutOfDomain,
    IncompatiblePoint,
    IrrationalRadius,
    NonIntegralCoefficients,
)

from oracles import padic_abs


def gauss_norm_oracle(coeffs, alpha, r, p_abs):
    """max_k |c_k| r^k computed from the binomial re-expansion by hand."""
    from math import comb

    coeffs = [Fraction(c) for c in coeffs]
    n = len(coeffs)
    shifted = [
        sum(coeffs[j] * comb(j, k) * Fraction(alpha) ** (j - k) for j in range(k, n))
        for k in range(n)
    ]
    best = Fraction(0)
    for k, c in enumerate(shifted):
        if c:
            best = max(best, p_abs(c) * Fraction(r) ** k)
    return best


def test_fiber_compatibility():
    with pytest.raises(IncompatiblePoint):
        LinePoint(BasePoint.central(), UmDisk(Fraction(0), Fraction(1)))
    with pytest.raises(IncompatiblePoint):
        LinePoint(BasePoint.finite(2, 1), TrivClosed((0, 1), Fraction(1, 2)))
    with pytest.raises(IncompatiblePoint):
        LinePoint.arch(BasePoint.finite(2, 1), 1, 1)
    # reducible P rejected over Q and over F_p
    with pytest.raises(IncompatiblePoint):
        LinePoint.triv_closed(BasePoint.central(), (-1, 0, 1), Fraction(1, 2))
    with pytest.raises(IncompatiblePoint):
        LinePoint.triv_closed(BasePoint.extreme(5), (1, 0, 1), Fraction(1, 2))  # T^2+1 = (T+2)(T+3) mod 5
    # T^2+1 is irreducible over Q and over F_3
    LinePoint.triv_closed(BasePoint.central(), (1, 0, 1), Fraction(1, 2))
    LinePoint.triv_closed(BasePoint.extreme(3), (1, 0, 1), Fraction(1, 2))


def test_eval_disk_examples():
    x = LinePoint.disk(BasePoint.finite(2, 1), 0, 1)
    # oracle: max(|4|_2, |2|_2, |1|_2) = max(1/4, 1/2, 1) = 1
    expected = gauss_norm_oracle([4, 2, 1], 0, 1, lambda c: padic_abs(c, 2))
    assert expected == 1
    assert eval_line_seminorm([4, 2, 1], x) == NormValue.of(1)


def test_eval_disk_recentring_oracle():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        base = BasePoint.finite(p, 1)
        alpha = Fraction(rng.randint(-9, 9))
        r = Fraction(p) ** rng.randint(-2, 1)
        x = LinePoint.disk(base, alpha, r)
        F = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 6))]
        got = eval_line_seminorm(F, x)
        want = gauss_norm_oracle(F, alpha, r, lambda c: padic_abs(c, p))
        assert got == NormValue.of(want)


def test_only_archimedean_points_take_a_fraction_power(monkeypatch):
    """A disk seminorm and ``eval_base_seminorm`` off the archimedean branch
    read ``norm_bounds_each`` over the one-point compact: they never call
    ``abs_at_place`` or ``NormValue.pow_rational``, which an archimedean
    point still reaches for its exact rational roots."""
    from arithline import base_space, eval_base_seminorm

    powers = []
    pow_rational = NormValue.pow_rational
    monkeypatch.setattr(NormValue, "pow_rational", lambda self, e: powers.append(e) or pow_rational(self, e))
    monkeypatch.setattr(base_space, "abs_at_place", None)
    base = BasePoint.finite(3, Fraction(2, 7))
    for r in (0, Fraction(1, 3), 1, 9):
        eval_line_seminorm([Fraction(2, 3), 6, Fraction(1, 9)], LinePoint.disk(base, 1, r))
    for x in (BasePoint.central(), base, BasePoint.finite(3, 2), BasePoint.extreme(3)):
        eval_base_seminorm(Fraction(18, 5), x)
    assert powers == []
    assert eval_base_seminorm(Fraction(1, 9), BasePoint.arch(Fraction(1, 2))) == NormValue.of(Fraction(1, 3))
    assert powers == [Fraction(1, 2)]


def test_eval_trivial_fibers():
    # v_T(T^3 (T+1)) = 3
    x = LinePoint.triv_closed(BasePoint.central(), (0, 1), Fraction(1, 2))
    assert eval_line_seminorm([0, 0, 0, 1, 1], x) == NormValue.of(Fraction(1, 8))
    # reduction of 2T + T^2 mod 2 is T^2
    y = LinePoint.triv_closed(BasePoint.extreme(2), (0, 1), Fraction(1, 2))
    assert eval_line_seminorm([0, 2, 1], y) == NormValue.of(Fraction(1, 4))
    with pytest.raises(NonIntegralCoefficients):
        eval_line_seminorm([Fraction(1, 2)], y)
    # outer region: r^deg
    z = LinePoint.triv_outer(BasePoint.central(), 2)
    assert eval_line_seminorm([5, 0, 1], z) == NormValue.of(4)
    # rational point = evaluation seminorm
    w = LinePoint.rational(BasePoint.finite(3, 1), Fraction(2))
    assert eval_line_seminorm([1, 1], w) == NormValue.of(padic_abs(Fraction(3), 3))


def test_eval_arch_fiber():
    x = LinePoint.arch(BasePoint.arch(1), 1, 1)  # z = 1 + i
    nv = eval_line_seminorm([0, 1], x)  # |z| = sqrt 2
    assert nv.lo ** 2 <= 2 <= nv.hi ** 2
    half = LinePoint.arch(BasePoint.arch(Fraction(1, 2)), 3, 4)  # |z| = 5
    assert eval_line_seminorm([0, 1], half).lo ** 2 <= 5
    got = eval_line_seminorm([0, 1], half)
    # |z|^(1/2) = sqrt 5
    assert got.lo ** 2 <= 5 <= got.hi ** 2


def test_flow_examples():
    x = LinePoint.disk(BasePoint.finite(2, 1), 0, Fraction(1, 2))
    y = flow(x, 2)
    assert y.base == BasePoint.finite(2, 2)
    assert y.fiber == UmDisk(Fraction(0), Fraction(1, 4))
    # |T - 2| moves from 1/2 to 1/4 = (1/2)^2
    assert eval_line_seminorm([-2, 1], x) == NormValue.of(Fraction(1, 2))
    assert eval_line_seminorm([-2, 1], y) == NormValue.of(Fraction(1, 4))
    assert flow(x, 1) == x
    z = LinePoint.triv_closed(BasePoint.central(), (0, 1), Fraction(1, 2))
    assert flow(z, 3).fiber == TrivClosed((0, 1), Fraction(1, 8))


def test_flow_domain_errors():
    x = LinePoint.arch(BasePoint.arch(Fraction(1, 2)), 1)
    with pytest.raises(FlowOutOfDomain):
        flow(x, 3)  # exponent would become 3/2 > 1
    y = LinePoint.disk(BasePoint.finite(2, 1), 0, Fraction(1, 2))
    with pytest.raises(IrrationalRadius):
        flow(y, Fraction(1, 2))  # sqrt(1/2) irrational
    with pytest.raises(FlowOutOfDomain):
        flow(y, Fraction(-1))


def test_flow_radii_cost_their_size_not_the_precision():
    """An exact radius r ** (a/k) costs about |a| h bits, h the bit length of
    r: a rational root is taken past any k times the interval precision, and
    for k >= h (no rational root of r != 1) none is tried."""
    from arithline.errors import CannotCertify
    from arithline.normvalue import POW_BITS, default_bits, set_default_bits

    def radius(r, eps):
        return flow(LinePoint.disk(BasePoint.finite(2, 1), 0, r), eps).fiber.r

    before = default_bits()
    set_default_bits(8 * POW_BITS)  # results do not depend on the precision
    try:
        assert radius(Fraction(1, 2 ** 600), Fraction(1, 600)) == Fraction(1, 2)
        assert radius(Fraction(3 ** 40, 2 ** 80), Fraction(3, 40)) == Fraction(27, 64)
        for r, eps in ((Fraction(1, 2), Fraction(1, 513)), (Fraction(1, 2 ** 600), Fraction(1, 601))):
            with pytest.raises(IrrationalRadius):
                radius(r, eps)
    finally:
        set_default_bits(before)
    # (1/2) ** a costs 2 |a| bits: 2^15 fits exactly, one more does not
    assert radius(Fraction(1, 2), POW_BITS // 2) == Fraction(1, 2 ** (POW_BITS // 2))
    with pytest.raises(CannotCertify):
        radius(Fraction(1, 2), POW_BITS // 2 + 1)


def test_flow_law_random():
    rng = random.Random(17)
    checked = 0
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        kind = rng.randrange(3)
        eps = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        base_exp = Fraction(rng.randint(1, 4), 2)
        r_exp = rng.randint(-3, 3)
        if kind == 0:
            x = LinePoint.disk(BasePoint.finite(p, base_exp), rng.randint(-4, 4), Fraction(p) ** r_exp)
            if not x.base.place.is_finite and base_exp * eps > 1:
                continue
        elif kind == 1:
            x = LinePoint.triv_closed(BasePoint.central(), (0, 1), Fraction(1, 2 ** rng.randint(0, 3)))
        else:
            x = LinePoint.triv_outer(BasePoint.extreme(p), Fraction(2) ** rng.randint(1, 3))
        F = [Fraction(rng.randint(-15, 15)) for _ in range(rng.randint(1, 5))]
        try:
            y = flow(x, eps)
        except IrrationalRadius:
            continue
        lhs = eval_line_seminorm(F, y)
        rhs = eval_line_seminorm(F, x).pow_rational(eps)
        checked += 1
        if lhs.is_exact and rhs.is_exact:
            assert lhs.exact == rhs.exact
        else:
            assert lhs.overlaps(rhs)
    assert checked > 300


def test_disk_monotonicity():
    rng = random.Random(23)
    for _ in range(100):
        p = rng.choice((2, 3))
        base = BasePoint.finite(p, 1)
        r1 = Fraction(p) ** rng.randint(-3, 0)
        r2 = r1 * p ** rng.randint(0, 2)
        F = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        small = eval_line_seminorm(F, LinePoint.disk(base, 0, r1))
        big = eval_line_seminorm(F, LinePoint.disk(base, 0, r2))
        assert small.lo <= big.hi and small.exact <= big.exact


def test_center_invariance():
    rng = random.Random(29)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        base = BasePoint.finite(p, 1)
        r = Fraction(p) ** rng.randint(-2, 1)
        alpha = Fraction(rng.randint(-9, 9))
        # pick beta with |alpha - beta|_p <= r
        k = 0
        while padic_abs(Fraction(p) ** k, p) > r:
            k += 1
        beta = alpha + p ** k * rng.randint(-3, 3)
        assert padic_abs(alpha - beta, p) <= r or alpha == beta
        F = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
        a = eval_line_seminorm(F, LinePoint.disk(base, alpha, r))
        b = eval_line_seminorm(F, LinePoint.disk(base, beta, r))
        assert a == b


def test_trivial_closed_higher_degree():
    # P = T^2 + 1 over the extreme fiber at 3; v_P of (T^2+1)^2 (T+1) is 2
    x = LinePoint.triv_closed(BasePoint.extreme(3), (1, 0, 1), Fraction(1, 3))
    F = [1, 1]  # T + 1: coprime to P
    assert eval_line_seminorm(F, x) == NormValue.of(1)
    # (T^2+1)^2 (T+1) expanded
    sq = [1, 0, 2, 0, 1]
    prod = [0] * (len(sq) + 1)
    for i, c in enumerate(sq):
        prod[i] += c
        prod[i + 1] += c
    assert eval_line_seminorm(prod, x) == NormValue.of(Fraction(1, 9))
    # central fiber: P = T^2 - 2 irreducible over Q
    y = LinePoint.triv_closed(BasePoint.central(), (-2, 0, 1), Fraction(1, 2))
    assert eval_line_seminorm([-2, 0, 1], y) == NormValue.of(Fraction(1, 2))
    assert eval_line_seminorm([4, 0, -4, 0, 1], y) == NormValue.of(Fraction(1, 4))
