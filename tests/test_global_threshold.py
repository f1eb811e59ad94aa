"""The integer-grid threshold search against the Fraction-power search.

``global_threshold`` clears the condition sum_k ||g_k||_V v^(k-p) <= 1/2 of
denominators and searches on the grid index i (v = i 2^-16) with integer
comparisons.  The oracle below is the direct form: the same doubling and
bisection on v, evaluating the condition with Fraction powers of v and one
``base_norm`` per coefficient.  Both must return the same v or raise the
same exception.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import BaseCompact, Place, base_norm, global_threshold
from arithline.errors import ArithlineError, NoContractionRadiusFound, NotMonic
from arithline.polys import deg, is_monic, poly

GRID = Fraction(1, 1 << 16)
HALF = Fraction(1, 2)

WHOLE = BaseCompact.whole_space()
STAR2 = BaseCompact.star({Place.finite(2): 1})
SEG5 = BaseCompact.segment(Place.finite(5), 1, math.inf)  # reaches the 5-adic extreme point
ARCH = BaseCompact.segment(Place.infinite(), Fraction(1, 3), Fraction(1, 2))  # interval hi
COMPACTS = {"whole": WHOLE, "star2": STAR2, "seg5": SEG5, "arch": ARCH}
# denominators each compact allows, plus one it refuses (None: refuses none)
ALLOWED = {"whole": [1], "star2": [1, 2, 8], "seg5": [1, 2, 3, 7], "arch": [1, 3, 10]}
REFUSED = {"whole": 3, "star2": 3, "seg5": 5, "arch": None}


def lower_norms(G, V):
    return [base_norm(c, V).hi for c in G[:-1]]


def certifies(lower, v) -> bool:
    p = len(lower)
    return sum(b * v ** (k - p) for k, b in enumerate(lower)) <= HALF


def fraction_threshold(G, V) -> Fraction:
    """Reference: the same search on v, with Fraction powers of v."""
    G = poly(G)
    if not is_monic(G):
        raise NotMonic("threshold needs a monic divisor")
    if deg(G) < 1:
        raise NotMonic("divisor must have positive degree")
    lower = lower_norms(G, V)
    if all(b == 0 for b in lower):
        return GRID
    hi = GRID
    for _ in range(300):
        if certifies(lower, hi):
            break
        hi *= 2
    else:
        raise NoContractionRadiusFound("threshold search exhausted")
    lo_idx = max(1, int(hi / 2 / GRID))
    hi_idx = int(hi / GRID)
    while lo_idx + 1 < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        if certifies(lower, mid * GRID):
            hi_idx = mid
        else:
            lo_idx = mid
    if certifies(lower, lo_idx * GRID):
        return lo_idx * GRID
    return hi_idx * GRID


def outcome(fn, G, V):
    try:
        return fn(G, V)
    except ArithlineError as exc:
        return (type(exc), str(exc))


_small = st.integers(-100, 100)
_huge = st.builds(
    lambda e, r, s: s * ((1 << e) + r),
    st.integers(200, 320),
    st.integers(0, 1 << 64),
    st.sampled_from([1, -1]),
)


@st.composite
def threshold_inputs(draw):
    name = draw(st.sampled_from(sorted(COMPACTS)))
    dens = ALLOWED[name] * 3 + ([REFUSED[name]] if REFUSED[name] else [])
    p = draw(st.integers(1, 6))
    coeff = st.one_of(
        st.just(0),
        _small,
        st.builds(Fraction, _small, st.sampled_from(dens)),
        _huge,
    )
    lower = draw(st.lists(coeff, min_size=p, max_size=p))
    return lower + [1], name


@settings(max_examples=300, deadline=None)
@given(threshold_inputs())
@example(([-10, 1], "whole"))
@example(([2, 2, 1], "whole"))
@example(([Fraction(3, 2), -7, Fraction(1, 4), 1], "star2"))
@example(([10, Fraction(-3, 2), 0, 1], "seg5"))
@example(([-7, 2, 1], "arch"))
@example(([1 << 300, 1], "arch"))
def test_grid_search_matches_fraction_search(case):
    G, name = case
    V = COMPACTS[name]
    got = outcome(global_threshold, G, V)
    assert got == outcome(fraction_threshold, G, V)
    if isinstance(got, Fraction):
        lower = lower_norms(poly(G), V)
        assert (got / GRID).denominator == 1
        assert certifies(lower, got)
        assert got == GRID or not certifies(lower, got - GRID)


@pytest.mark.parametrize("name", sorted(COMPACTS))
@pytest.mark.parametrize("p", range(1, 7))
def test_all_zero_lower_coefficients_give_grid(name, p):
    assert global_threshold([0] * p + [1], COMPACTS[name]) == GRID


def test_exhausted_search_raises():
    with pytest.raises(NoContractionRadiusFound):
        global_threshold([-(1 << 400), 1], WHOLE)


@pytest.mark.parametrize("G", [[1, 2], [0, 0, 3], [1], [5], []])
def test_non_monic_or_constant_divisor_raises(G):
    with pytest.raises(NotMonic):
        global_threshold(G, WHOLE)
