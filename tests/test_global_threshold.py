"""The integer-grid threshold search against the Fraction-power search.

``global_threshold`` clears the condition sum_k ||g_k||_V v^(k-p) <= 1/2 of
denominators and searches on the grid index i (v = i 2^-16) with integer
comparisons.  The oracle below is the direct form: doubling v from 2^-16
300 times, then bisecting, with the condition evaluated in Fraction powers
of v and one ``base_norm`` per coefficient.  Both must return the same v or
raise the same exception.  The search under test starts at a float
estimate of the threshold index instead; below, arbitrary start indices
replace it, inputs sit on both sides of the 2^299 cap and past float range,
and the predicate passes of a search are counted.
``LaurentPoly.from_poly``, which reads G, is compared with the constructor
it stands for.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import BaseCompact, LaurentPoly, Place, base_norm, global_threshold
from arithline import weierstrass as W
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
    assert_matches_fraction_search(*case)


def assert_matches_fraction_search(G, name):
    V = COMPACTS[name]
    got = outcome(global_threshold, G, V)
    assert got == outcome(fraction_threshold, G, V)
    if isinstance(got, Fraction):
        lower = lower_norms(poly(G), V)
        assert (got / GRID).denominator == 1
        assert certifies(lower, got)
        assert got == GRID or not certifies(lower, got - GRID)
    return got


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


# -- the search's start and its cap ---------------------------------------------------

CAP = 1 << 299  # the largest grid index the search answers with


# (G, compact) whose least certified index is 2^299 or just past it (None).
# p = 1, G = T + g_0 on the whole space: i* = ceil(|g_0| 2^17).
# p = 2, G = T^2 + g_0: i* = ceil(sqrt(|g_0| 2^33)), and g_0 = 2^565 + 1
# gives 2^598 < |g_0| 2^33 <= (2^299 + 1)^2.
CAP_EDGES = [
    (([1 << 282, 1], "whole"), CAP),
    (([-(1 << 282), 1], "whole"), CAP),
    (([1 << 565, 0, 1], "whole"), CAP),
    (([(1 << 282) + 1, 1], "whole"), None),
    (([(1 << 565) + 1, 0, 1], "whole"), None),
    (([-(1 << 565) - 1, 0, 1], "whole"), None),
]


@pytest.mark.parametrize("case, index", CAP_EDGES)
def test_the_cap_answers_at_2_299_and_refuses_past_it(case, index):
    got = assert_matches_fraction_search(*case)
    assert got == (index * GRID if index else (NoContractionRadiusFound, "threshold search exhausted"))


# coefficients past float range, in numerators and in denominators, and p = 1
BEYOND_FLOATS = [
    ([1 << 1100, 1], "whole"),
    ([1 << 1100] + [0] * 5 + [1], "whole"),
    ([-(1 << 5000), 1], "whole"),
    ([1 << 5000] + [0] * 19 + [1], "whole"),
    ([3, (1 << 5000) + 7] + [0] * 18 + [1], "whole"),
    ([Fraction(1, 1 << 1100)] + [0] * 5 + [1], "star2"),
    ([Fraction(5, 1 << 5000), 1], "star2"),
    ([Fraction(1, 3 ** 700), 2, 1], "arch"),
    ([Fraction(1 << 5000, 3 ** 3000), 0, 0, 0, 1], "arch"),
    ([1 << 1100, Fraction(1, 7 ** 900), 1], "seg5"),
]
DEGREE_ONE = [([g0, 1], name) for g0 in (0, 1, -1, 7, Fraction(1, 2), 1 << 200) for name in sorted(COMPACTS)]


@pytest.mark.parametrize("case", BEYOND_FLOATS + DEGREE_ONE)
def test_large_and_degree_one_divisors_match_the_fraction_search(case):
    assert_matches_fraction_search(*case)


_starts = st.one_of(
    st.sampled_from([1, 2, CAP - 1, CAP, CAP + 1, 1 << 400, 0, -5]).map(lambda i: ("at", i)),
    st.integers(1, 1 << 300).map(lambda i: ("at", i)),
    st.integers(1, 1 << 40).map(lambda i: ("at", i)),
    st.integers(-8, 8).map(lambda k: ("estimate+", k)),
)
_edge_inputs = st.sampled_from([case for case, _ in CAP_EDGES] + BEYOND_FLOATS)


@settings(max_examples=300, deadline=None)
@given(st.one_of(threshold_inputs(), _edge_inputs), _starts)
@example(([-10, 1], "whole"), ("at", 1 << 400))
@example(([1 << 565, 0, 1], "whole"), ("at", 1))
@example(([(1 << 565) + 1, 0, 1], "whole"), ("at", 1 << 400))
@example(([2, 2, 1], "whole"), ("estimate+", -8))
def test_any_start_index_gives_the_same_outcome(case, start):
    """The certified indices form a ray and the exact predicate decides every
    step, so the estimate only moves where the search starts: any start, in
    range or not, gives the Fraction search's v or its exception."""
    G, name = case
    V = COMPACTS[name]
    how, k = start
    estimate = W._threshold_start
    if how == "at":
        replaced = lambda D, terms: k  # noqa: E731
    else:
        replaced = lambda D, terms: estimate(D, terms) + k  # noqa: E731
    with mock.patch.object(W, "_threshold_start", replaced):
        got = outcome(global_threshold, G, V)
    assert got == outcome(fraction_threshold, G, V)


def test_acceptance_04_searches_take_few_predicate_passes():
    """On the acceptance-04 shape (deg G <= 6, |coeffs| <= 100, the whole
    space) the estimate lands on the threshold or next to it: 2.1 passes a
    search on these divisors, where doubling i from 1 and bisecting took
    45.6."""
    rng = random.Random(4)
    divisors = [[rng.randint(-100, 100) for _ in range(rng.randint(1, 6))] + [1] for _ in range(300)]
    with mock.patch.object(W, "_certified", wraps=W._certified) as passes:
        for G in divisors:
            global_threshold(G, WHOLE)
    assert passes.call_count / len(divisors) <= 4


# thresholds far past 2^50, where a float's error spans many grid indices:
# i* near 2^266, 2^200 and 2^117, and the first again with a T term
FAR_THRESHOLDS = [
    [(1 << 4000) + 1] + [0] * 15 + [1],
    [1 << 1100] + [0] * 5 + [1],
    [10 ** 30, 1],
    [-(1 << 4000) - 1, 3] + [0] * 14 + [1],
]


@pytest.mark.parametrize("G", FAR_THRESHOLDS)
def test_far_thresholds_take_a_dozen_passes_with_newton_steps(G):
    """Past 2^50 the float estimate is refined by integer Newton steps, one
    Horner pass each for P and P', before the exact search: at most a dozen
    passes in all, where stepping and bisecting across the float's error
    took 426, 292 and 138 predicate passes on the first three.  The answer
    is the Fraction search's."""
    with mock.patch.object(W, "_certified", wraps=W._certified) as passes, \
            mock.patch.object(W, "_value_and_slope", wraps=W._value_and_slope) as newton:
        assert_matches_fraction_search(G, "whole")
    assert newton.call_count >= 1 and passes.call_count + newton.call_count <= 12


def test_newton_steps_stop_at_a_zero_step_or_a_slope_at_most_zero():
    """From above the root a step falls and stays at or above i*, from below
    it rises; a step under 1 stops at i* or the index past it, and far
    below the root, where P' <= 0, the steps stop.  The search then checks
    every index it visits, so these only move where it starts."""
    # P(i) = i - 5 from 2^60 steps straight to 5; P(i) = 7 i - 1 to 1
    assert W._newton(1, [(1, 5)], 1 << 60) == 5
    assert W._newton(7, [(1, 1)], 1 << 60) == 1
    # P(i) = i^2 - 4, i* = 2: from 10 by 6, 4 and 3, where the step is 5 // 6 = 0;
    # from 1 below it, up to 3
    assert W._newton(1, [(2, 4)], 10) == 3
    assert W._newton(1, [(2, 4)], 1) == 3
    # P(i) = i^3 - 2^200 i^2 - 2^200: P'(2^60) < 0
    assert W._newton(1, [(1, 1 << 200), (3, 1 << 200)], 1 << 60) == 1 << 60


_values = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.just("0"),
    st.integers(-(1 << 70), 1 << 70),
    st.builds(Fraction, st.integers(-100, 100), st.integers(1, 12)),
    st.sampled_from(["3/4", "-2", "7", "0/5", "1/0", "x", "+5", " 3"]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, max_size=10), st.one_of(st.none(), st.integers(-2, 12), st.sampled_from(["3", "x"])))
@example([1, 2, 3], -1)
@example([1, "x", 0], 1)
@example([Fraction(1, 3), 0, (1 << 80) + 1, Fraction(5, 6)], 3)
def test_from_poly_is_the_constructor_on_enumerated_values(coeffs, mod):
    def build(make):
        try:
            f = make()
        except (ArithlineError, ValueError, ZeroDivisionError) as exc:
            return (type(exc), str(exc))
        return (f, list(f.num.items()))

    want = build(lambda: LaurentPoly(dict(enumerate(coeffs)), mod))
    assert build(lambda: LaurentPoly.from_poly(coeffs, mod)) == want
