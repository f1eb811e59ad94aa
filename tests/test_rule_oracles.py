"""Rules written once in the library, against the second copies they replaced.

``AnnulusSpec.weights`` replaced the cached Fraction weight max(s^k, t^k),
``cousin_cartan._on_side`` the two hand-written side checks,
``normvalue.pow_bounds`` the lower/upper rational-power helpers and
``numbers.invmod`` the extended-Euclid inverse.  The old forms live in
tests/oracles.py; results and refusals must agree exactly.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, Place, SeriesMatrix, SplitSystem
from arithline.cousin_cartan import _on_side
from arithline.errors import NegativePowersOnDisk
from arithline.normvalue import default_bits, pow_bounds
from arithline.numbers import invmod

from oracles import invmod_egcd, minus_side_ok, plus_side_ok, pow_hi, pow_lo, radius_weight

rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 40))
nonneg = st.builds(F, st.integers(0, 40), st.integers(1, 40))
V = BaseCompact.segment(Place.finite(3), 1, 1)


@st.composite
def annuli(draw):
    s, t = sorted((draw(nonneg), draw(nonneg)))
    if draw(st.booleans()):
        s = F(0)  # a disk
    return AnnulusSpec(V, s, t)


@settings(max_examples=300, deadline=None)
@given(annuli(), st.lists(st.integers(-6, 6), max_size=8))
@example(AnnulusSpec(V, 0, 0), [0, 1, 2])
@example(AnnulusSpec(V, 0, 2), [3, -1])
def test_weights_match_max_of_powers(A, ks):
    try:
        want = [radius_weight(A, k) for k in ks]
    except NegativePowersOnDisk as exc:
        with pytest.raises(NegativePowersOnDisk) as got:
            A.weights(ks)
        assert str(got.value) == str(exc)
        return
    pairs = A.weights(ks)
    assert [F(n, d) for n, d in pairs] == want
    assert all(d > 0 and F(n, d).numerator == n for n, d in pairs)  # lowest terms


SYSTEMS = [
    SplitSystem(Place.finite(2), 1, (F(1, 2), 2)),
    SplitSystem(Place.finite(3), F(1, 2), (F(1, 3), 3)),
    SplitSystem(Place.infinite(), F(1, 2), (F(1, 2), 2)),
]
dens = st.sampled_from((1, 2, 3, 4, 6, 9, 5, 10, 12, 27))


@st.composite
def matrices(draw):
    size = draw(st.sampled_from((1, 2)))
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            ks = draw(st.lists(st.integers(-3, 3), max_size=3, unique=True))
            row.append(LaurentPoly({k: F(draw(st.integers(-30, 30)), draw(dens)) for k in ks}))
        rows.append(row)
    return SeriesMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(SYSTEMS))
def test_on_side_matches_the_side_checks(mat, sys):
    assert _on_side(mat, sys.minus_compact()) == minus_side_ok(mat, sys)
    assert _on_side(mat, sys.plus_compact()) == plus_side_ok(mat, sys)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(F(0)), nonneg),
    st.one_of(st.integers(-5, 5).map(F), st.builds(F, st.integers(-7, 7), st.integers(2, 5))),
)
@example(F(0), F(-2))
@example(F(0), F(-1, 3))
def test_pow_bounds_match_lo_and_hi(x, e):
    bits = default_bits()
    assert pow_bounds(x, e) == (pow_lo(x, e, bits), pow_hi(x, e, bits))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
@example(0, 1)
@example(6, 9)
@example(-4, 6)
def test_invmod_matches_extended_euclid(a, m):
    try:
        want = invmod_egcd(a, m)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            invmod(a, m)
        assert str(got.value) == str(exc)
        return
    assert invmod(a, m) == want
