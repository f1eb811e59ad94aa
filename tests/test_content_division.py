"""Global and local division on integer content against the Fraction model.

``weierstrass._euclid`` divides the numerators of F by G on the integers:
plain synthetic division for an integer monic G, pseudo-division by the
lead of G's numerators otherwise.  It must give the quotient and remainder
of ``oracles.schoolbook_divmod``, a Fraction long division, in
canonical form with ascending indices and F's modulus, for a rational
monic G, a G whose leading coefficient is a unit, a truncated F, the zero
F and deg F < deg G; and so must ``divide`` and the polynomial branch of
``divide_local_series``, which call it.  Work above ``DIVISION_WORK`` is
refused before it starts, and so is a radius power w^(deg F) of ``divide``
above ``POW_BITS``, after a pole of F on V, as ``norm_annulus(F)`` orders
them.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, Place
from arithline.errors import CannotCertify, NotInRingOfV
from arithline.normvalue import DIVISION_WORK
from arithline.polys import pdivide
from arithline.weierstrass import _euclid, divide, divide_local_series, global_threshold

from oracles import schoolbook_divmod

INF = float("inf")
fracs = st.builds(F, st.integers(-40, 40), st.sampled_from((1, 1, 2, 3, 4, 6, 9, 10)))
nonzero_fracs = fracs.filter(bool)


def dense(f):
    return [f.coeff(k) for k in range((f.degree() if f else -1) + 1)]


@st.composite
def dividends(draw, max_degree=10):
    """F with nonnegative support, maybe zero, maybe known mod T^m."""
    mod = draw(st.none() | st.integers(0, max_degree + 2))
    top = max_degree if mod is None else min(max_degree, mod - 1)
    if top < 0:
        return LaurentPoly.zero(mod)
    ks = draw(st.lists(st.integers(0, top), unique=True, max_size=top + 1))
    return LaurentPoly({k: draw(nonzero_fracs) for k in ks}, mod)


@st.composite
def divisors(draw):
    """G of degree 1..4 with a rational lead: 1 (monic) or any nonzero
    rational (a unit of Q), maybe with integer coefficients only."""
    p = draw(st.integers(1, 4))
    lead = draw(st.just(F(1)) | nonzero_fracs)
    low = st.integers(-30, 30).map(F) if draw(st.booleans()) else fracs
    return LaurentPoly({k: draw(low) for k in range(p)} | {p: lead})


def assert_division(Q, R, F_, G):
    want_q, want_r = schoolbook_divmod(dense(F_), dense(G))
    for got, want in ((Q, want_q), (R, want_r)):
        assert got.den > 0 and gcd(got.den, *got.num.values()) == 1
        assert all(type(c) is int and c for c in got.num.values())
        assert list(got.num) == sorted(got.num)
        assert got.trunc_mod == F_.trunc_mod
        assert dense(got) == want


@settings(max_examples=400, deadline=None)
@given(dividends(), divisors())
@example(LaurentPoly({0: 1, 3: 1}), LaurentPoly({0: F(1, 2), 1: F(-1, 3), 2: 1}))  # rational monic
@example(LaurentPoly({0: 5, 2: F(1, 7)}, 4), LaurentPoly({0: 3, 1: -6, 2: -2}))  # lead -2, F mod T^4
@example(LaurentPoly.zero(3), LaurentPoly({0: 1, 1: 1}))  # zero F known mod T^3
@example(LaurentPoly.zero(), LaurentPoly({0: 2, 2: F(3, 5)}))  # the exact zero
@example(LaurentPoly({0: F(1, 3), 1: 2}, 2), LaurentPoly({0: 1, 3: 1}))  # deg F < deg G
def test_euclid_matches_fraction_long_division(F_, G):
    Q, R = _euclid(F_, G)
    assert_division(Q, R, F_, G)


ARCH = BaseCompact.segment(Place.infinite(), 0, 1)  # no extreme point: any rational G


@settings(max_examples=150, deadline=None)
@given(dividends(), divisors().filter(lambda G: G.coeff(G.degree()) == 1), st.integers(0, 3))
@example(LaurentPoly({0: 1, 4: F(1, 2)}, 6), LaurentPoly({0: F(1, 2), 2: 1}), 1)
def test_divide_matches_fraction_long_division(F_, G, extra):
    w = global_threshold(G, ARCH) + extra
    Q, R, cert = divide(F_, G, ARCH, w)
    assert_division(Q, R, F_, G)
    assert cert.bounds_ok


# the extreme point of 3: low coefficients divisible by 3, a 3-adic unit lead
AT_3 = AnnulusSpec(BaseCompact.segment(Place.finite(3), 1, INF), 0, 1)
three_integral = st.builds(F, st.integers(-20, 20), st.sampled_from((1, 2, 4, 5)))
three_units = st.builds(F, st.integers(1, 20).filter(lambda n: n % 3), st.sampled_from((1, -1, 2, -5)))


@settings(max_examples=150, deadline=None)
@given(dividends(max_degree=8), st.integers(1, 3), st.data())
@example(LaurentPoly({0: 1, 5: 2}, 7), 2, None)
def test_local_polynomial_branch_matches_fraction_long_division(F_, p, data):
    if data is None:  # the example: G = 3 + 6T - 2T^2
        G = LaurentPoly({0: 3, 1: 6, 2: -2})
    else:
        low = {k: 3 * data.draw(three_integral) for k in range(p)}
        low[0] = low[0] or F(3)  # not all low coefficients zero: the polynomial branch
        G = LaurentPoly(low | {p: data.draw(three_units)})
    m = F_.trunc_mod if F_.trunc_mod is not None else 12
    Q, R, cert = divide_local_series(F_, G, p, max(m, 1), AT_3)
    assert_division(Q, R, F_.with_mod(max(m, 1)), G)
    assert cert.epsilon.lt(1) and cert.residuals == ()


def test_dense_division_is_refused_above_its_budget():
    """``polys.pdivide`` charges j (p + 1) ceil((h_f + j h_g) / 64) words to
    DIVISION_WORK before its first step, and ``_euclid`` checks the same on
    the sparse content before it builds the dense lists, so T^(10^9) is
    refused at once.  Under the budget, the division runs as before."""
    G = LaurentPoly.from_poly([-3, 1])  # p = 1, 2-bit entries

    def work(n):  # T^n / G: j = n steps on entries of up to 1 + 2 j bits
        return n * 2 * ((1 + 2 * n + 63) // 64)

    n = 1
    while work(n + 1) <= DIVISION_WORK:
        n += 1
    pdivide([0] * n + [1], [-3, 1])  # the largest allowed
    with pytest.raises(CannotCertify, match="DIVISION_WORK"):
        pdivide([0] * (n + 1) + [1], [-3, 1])
    Q, R = _euclid(LaurentPoly.monomial(2000), G)
    assert R == LaurentPoly({0: F(3) ** 2000})
    for k in (n + 1, 10 ** 9):
        with pytest.raises(CannotCertify) as exc:
            _euclid(LaurentPoly.monomial(k), G)
        assert str(exc.value) == (f"a pseudo-division of degree {k} by degree 1 with 1- and 2-bit "
                                  f"coefficients exceeds the DIVISION_WORK budget of {DIVISION_WORK}")


def test_divide_charges_its_radius_power_before_the_division(monkeypatch):
    """``divide`` charges w^(deg F) to ``POW_BITS`` after the DIVISION_WORK
    check and before ``pdivide``: T^30000 / (T - 3) at w = 40 is within
    DIVISION_WORK, and its 30000 * 6 bits of radius power are refused with
    no division taken; past both budgets, DIVISION_WORK is named, and a
    pole of F on V is named before the radius power, as ``norm_annulus(F)``
    names it."""
    from arithline import weierstrass

    def no_division(f, g):
        raise AssertionError("pdivide called")

    monkeypatch.setattr(weierstrass, "pdivide", no_division)
    G = LaurentPoly.from_poly([-3, 1])
    V = BaseCompact.whole_space()
    with pytest.raises(CannotCertify) as exc:
        divide(LaurentPoly.monomial(30000), G, V, 40)
    assert str(exc.value) == "x ** e exceeds the budget of 65536 bits of work"
    with pytest.raises(CannotCertify, match="DIVISION_WORK"):
        divide(LaurentPoly.monomial(10 ** 5), G, V, 40)
    third = LaurentPoly({30000: F(1, 3)})
    with pytest.raises(NotInRingOfV) as exc:
        divide(third, G, BaseCompact.segment(Place.finite(3), 1, INF), 40)
    assert str(exc.value) == "1/3 has a pole at the extreme point of 3"
    with pytest.raises(CannotCertify, match="x \\*\\* e exceeds"):  # no extreme point of 3: no pole
        divide(third, G, BaseCompact.segment(Place.finite(3), 1, 2), 40)
    monkeypatch.undo()
    Q, R, cert = divide(LaurentPoly.monomial(2000), G, V, 40)  # 2000 * 6 bits: within POW_BITS
    assert R == LaurentPoly({0: F(3) ** 2000}) and cert.bounds_ok
