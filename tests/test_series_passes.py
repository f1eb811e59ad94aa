"""Per-coefficient series passes on integer content against their Fraction forms.

The Cousin split (``_split_series``), the Runge approximation and its depth,
the cover defects, the radius witness and the reduction valuation read a
series as its content n_k / D and take v_p(D) once per series.  The forms
that read one Fraction and one valuation per coefficient are kept in
``tests/oracles.py``.  Both must agree exactly: coefficients in stored order,
moduli, defects in stored order, radii, refusal types and texts.

The inputs mix p-parts and prime-to-p parts in the denominators, hold
coefficients whose reduced denominator is a power of p, and include zero and
truncated series, both kinds of place and the ties of the split rule
(t_k = q/2 at p = 2, a_k = j + 1/2 at the archimedean place).
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import BasePoint, CoverDescriptor, LaurentPoly, Place, SplitSystem
from arithline.cousin_cartan import _approx_in_z_inv_p, _split_series, runge_approximate
from arithline.covers_galois import _radius_witness, cyclic_cover_split
from arithline.errors import ArithlineError
from arithline.numbers import vp
from arithline.padic import PadicApprox
from arithline.weierstrass import _reduction_valuation

from oracles import (
    approx_in_z_inv_p_direct,
    cyclic_cover_split_direct,
    radius_witness_direct,
    reduction_valuation_direct,
    runge_depth_direct,
    split_series_direct,
)

PRIMES = (2, 3, 5)
PRIME_TO_P = (1, 1, 1, 3, 5, 7, 9, 11, 2, 4)  # 1 often: a power of p as denominator
SYSTEMS = tuple(SplitSystem(Place.finite(p), 1) for p in PRIMES) + (
    SplitSystem(Place.infinite(), F(1, 2)),
)


def layout(f):
    """Coefficients in stored order, and the modulus."""
    return list(f.coeffs.items()), f.trunc_mod


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ArithlineError as exc:
        return "raise", (type(exc), str(exc))


@st.composite
def content_series(draw, p, keys=st.integers(-4, 10)):
    """Coefficients n / (p^a d), a <= 4 and d from ``PRIME_TO_P``, under a
    modulus or none; the empty series too."""
    coeffs = {
        k: F(draw(st.integers(-300, 300)), p ** draw(st.integers(0, 4)) * draw(st.sampled_from(PRIME_TO_P)))
        for k in draw(st.lists(keys, max_size=6, unique=True))
    }
    return LaurentPoly(coeffs, draw(st.none() | st.integers(-2, 12)))


def _with_series(items, prime, **kw):
    """(item, series) pairs, the series drawn for the item's prime."""
    return st.sampled_from(items).flatmap(lambda x: st.tuples(st.just(x), content_series(prime(x), **kw)))


primes_and_series = _with_series(PRIMES, lambda p: p)


def _prime_of(place):
    return place.prime if place.is_finite else 2


@settings(max_examples=300, deadline=None)
@given(_with_series(SYSTEMS, lambda sys_: _prime_of(sys_.place)))
@example((SYSTEMS[0], LaurentPoly({0: F(1, 2), 3: F(1, 8)})))  # t_k = q/2 for the 1/2
@example((SYSTEMS[0], LaurentPoly({1: F(3, 2), 2: F(5, 24)}, 4)))
@example((SYSTEMS[-1], LaurentPoly({0: F(3, 2), 1: F(-5, 2), 2: F(1), 3: F(-1), 4: F(7, 6)})))
@example((SYSTEMS[-1], LaurentPoly.zero(3)))
def test_split_series_is_the_rule_per_coefficient(sys_f):
    sys_, f = sys_f
    got = _split_series(f, sys_)
    want = split_series_direct(f, sys_)
    assert [layout(s) for s in got] == [layout(s) for s in want]
    minus, plus = got
    for k, c in f.coeffs.items():
        assert minus.coeff(k) - plus.coeff(k) == c
        assert -F(1, 2) <= plus.coeff(k) < F(1, 2) or not sys_.place.is_finite


@settings(max_examples=300, deadline=None)
@given(primes_and_series, st.integers(1, 4))
@example((3, LaurentPoly({0: F(-1, 3), 1: F(40, 9), 2: F(1, 6)})), 1)  # d | n_k, kept as is
@example((2, LaurentPoly({0: F(-7, 4), 2: F(1, 12), 5: F(3)}, 6)), 2)
@example((5, LaurentPoly.zero(2)), 3)
def test_runge_approximation_matches_the_fraction_form(ps, M):
    p, f = ps
    assert layout(_approx_in_z_inv_p(f, p, M)) == layout(approx_in_z_inv_p_direct(f, p, M))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), st.lists(content_series(p), max_size=3))))
@example((3, [LaurentPoly({0: F(1, 18)}), LaurentPoly({1: F(9, 2)})]))
@example((2, [LaurentPoly.zero(4)]))
def test_runge_depth_matches_the_fraction_form(ps):
    p, s_list = ps
    sys_ = SplitSystem(Place.finite(p), 1, (F(1, 2), 2))
    f, s_primes, t_primes, cert = runge_approximate(s_list, [], sys_, 1)
    N = runge_depth_direct(s_list, p)
    assert f == F(1, p ** N)
    assert all(v >= 0 for s in s_primes for v in s.valuations(p).values())


@settings(max_examples=300, deadline=None)
@given(primes_and_series)
@example((2, LaurentPoly({0: F(4, 3), 1: F(1, 24), 2: F(5, 2)}, 3)))
def test_valuations_are_the_fraction_valuations(ps):
    p, f = ps
    assert list(f.valuations(p).items()) == [(k, vp(c, p)) for k, c in f.coeffs.items()]


COVERS = ((1, 3), (2, 3), (2, 5), (3, 7), (4, 5), (3, 13), (5, 11), (6, 7))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COVERS), st.integers(1, 5), st.integers(1, 6))
def test_cover_defects_match_the_fraction_form(np_, m, N):
    n, p = np_
    desc = CoverDescriptor.build(n, p, m, N)
    assert outcome(cyclic_cover_split, desc) == outcome(cyclic_cover_split_direct, desc)


def test_cover_defects_below_the_claimed_precision_refuse_alike():
    """A descriptor whose zeta claims more precision than it has (built past
    the constructor's checks) is refused with the same defect list."""
    for n, p, N in ((3, 7, 2), (2, 5, 3), (4, 5, 2)):
        good = CoverDescriptor.build(n, p, 4, N)
        desc = object.__new__(CoverDescriptor)
        for name, value in vars(good).items():
            object.__setattr__(desc, name, value)
        object.__setattr__(desc, "zeta", PadicApprox(p, N + 3, good.zeta.residue))
        got = outcome(cyclic_cover_split, desc)
        assert got[0] == "raise" and got == outcome(cyclic_cover_split_direct, desc)


PLACES = tuple(Place.finite(p) for p in PRIMES) + (Place.infinite(),)


@settings(max_examples=300, deadline=None)
@given(_with_series(PLACES, _prime_of, keys=st.integers(-2, 12)))
@example((PLACES[-1], LaurentPoly({0: F(5), 1: F(1, 3), 2: F(-9, 4)}, 3)))
@example((PLACES[0], LaurentPoly({0: F(1, 2)})))  # a constant: every radius
def test_radius_witness_matches_the_fraction_form(place_f):
    place, f = place_f
    assert _radius_witness(f, place) == radius_witness_direct(f, place)


@settings(max_examples=300, deadline=None)
@given(primes_and_series, st.booleans())
@example((3, LaurentPoly({0: F(9, 2), 1: F(2, 3), 2: F(1)})), True)  # refused at T^1
@example((2, LaurentPoly({0: F(4, 3), 1: F(3, 8), 4: F(5, 6)})), True)
@example((5, LaurentPoly.zero()), True)
def test_reduction_valuation_matches_the_fraction_form(ps, extreme):
    p, G = ps
    b = BasePoint.extreme(p) if extreme else BasePoint.branch(Place.finite(p), 1)
    assert outcome(_reduction_valuation, G, b) == outcome(reduction_valuation_direct, G, b)
