"""The integer-grid threshold search against the Fraction-power search.

``global_threshold`` clears the condition sum_k ||g_k||_V v^(k-p) <= 1/2 of
denominators and searches on the grid index i (v = i 2^-16) with integer
comparisons.  The oracle below is the direct form: doubling v from 2^-16
300 times, then bisecting, with the condition evaluated in Fraction powers
of v and one ``base_norm`` per coefficient.  Both must return the same v or
raise the same exception.  The search under test walks up to the threshold
index by integer Newton steps from a lower bound instead; below, arbitrary
start indices and wrong slopes replace the walk's, inputs sit on both sides
of the 2^299 cap and past float range, and the Horner passes of a search
are counted.
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
from arithline.numbers import iroot
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
    st.integers(-8, 8).map(lambda k: ("root+", k)),
)
_edge_inputs = st.sampled_from([case for case, _ in CAP_EDGES] + BEYOND_FLOATS)


@settings(max_examples=300, deadline=None)
@given(st.one_of(threshold_inputs(), _edge_inputs), _starts)
@example(([-10, 1], "whole"), ("at", 1 << 400))
@example(([1 << 565, 0, 1], "whole"), ("at", 1))
@example(([(1 << 565) + 1, 0, 1], "whole"), ("at", 1 << 400))
@example(([2, 2, 1], "whole"), ("root+", -8))
@example(([2, 2, 1], "whole"), ("root+", 8))
def test_any_start_index_gives_the_same_outcome(case, start):
    """The certified indices form a ray and the exact value decides every
    index the answer depends on, so the start only moves where the walk
    begins: any start, in range or not, below the root or above it (then
    found by bisection), gives the Fraction search's v or its exception.
    The walk starts one below ``iroot``'s value, which is replaced here."""
    G, name = case
    V = COMPACTS[name]
    how, k = start
    if how == "at":
        replaced = lambda n, m: k  # noqa: E731
    else:
        replaced = lambda n, m: iroot(n, m) + k  # noqa: E731
    with mock.patch.object(W, "iroot", replaced):
        got = outcome(global_threshold, G, V)
    assert got == outcome(fraction_threshold, G, V)


@st.composite
def small_threshold_inputs(draw):
    """Divisors on the 5-adic segment whose threshold index is at most a few
    thousand: g_k divisible by 5^(j (p-k)), j >= 4, so ||g_k|| <= 5^(-j (p-k))."""
    coeff = st.builds(Fraction, st.integers(-100, 100), st.sampled_from(ALLOWED["seg5"]))
    p = draw(st.integers(1, 6))
    j = draw(st.integers(4, 8))
    return [draw(coeff) * 5 ** (j * (p - k)) for k in range(p)] + [1], "seg5"


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.one_of(threshold_inputs(), _edge_inputs), st.just(1)),
    st.tuples(small_threshold_inputs(), st.just(1 << 4000)),
))
@example((([1 << 565, 0, 1], "whole"), 1))
@example((([-7, 2, 1], "arch"), 1))
@example((([Fraction(3, 2) * 5 ** 8, 1], "seg5"), 1 << 4000))
def test_a_wrong_slope_gives_the_same_outcome(case_and_slope):
    """The slope only chooses the index tried next.  A slope of 1 makes the
    steps too long, so the walk overshoots the root and the bisection finds
    i*; a huge slope makes every step 1, so on small thresholds the walk
    climbs index by index.  Either way the outcome is the Fraction search's."""
    (G, name), wrong = case_and_slope
    V = COMPACTS[name]
    true = W._value_and_slope
    with mock.patch.object(W, "_value_and_slope", lambda coeffs, i: (true(coeffs, i)[0], wrong)):
        got = outcome(global_threshold, G, V)
    assert got == outcome(fraction_threshold, G, V)


def test_acceptance_04_searches_take_few_predicate_passes():
    """On the acceptance-04 shape (deg G <= 6, |coeffs| <= 100, the whole
    space) the walk takes 4.03 exact Horner passes a search on these
    divisors and no bisection, where the float estimate it replaced took a
    float Newton loop and then 2.11 predicate passes, and doubling i from 1
    and bisecting took 45.6."""
    rng = random.Random(4)
    divisors = [[rng.randint(-100, 100) for _ in range(rng.randint(1, 6))] + [1] for _ in range(300)]
    with mock.patch.object(W, "_value_and_slope", wraps=W._value_and_slope) as passes:
        for G in divisors:
            global_threshold(G, WHOLE)
    assert passes.call_count / len(divisors) <= 5


# thresholds far past 2^50, where a float's error would span many grid
# indices: i* near 2^266, 2^200 and 2^117, and the first again with a T term
FAR_THRESHOLDS = [
    [(1 << 4000) + 1] + [0] * 15 + [1],
    [1 << 1100] + [0] * 5 + [1],
    [10 ** 30, 1],
    [-(1 << 4000) - 1, 3] + [0] * 14 + [1],
]


@pytest.mark.parametrize("G", FAR_THRESHOLDS)
def test_far_thresholds_take_a_dozen_passes_with_newton_steps(G):
    """Far from 1 the walk still takes few Horner passes, one for P and P'
    at each index it visits: at most a dozen (2 or 3 on these), where a
    float estimate refined by stepping and bisecting across its error took
    426, 292 and 138 predicate passes on the first three.  The answer is
    the Fraction search's."""
    with mock.patch.object(W, "_value_and_slope", wraps=W._value_and_slope) as passes:
        assert_matches_fraction_search(G, "whole")
    assert passes.call_count <= 12


def test_a_degree_64_threshold_with_every_term_alike_takes_at_most_20_passes():
    """G = T^64 + sum_k 2^(183 (64-k)) T^k: at i* near 2^200 all 64 terms of
    the condition are of one size, so the lower bound the walk starts from
    is furthest below i*; the walk still takes at most 20 passes (10 here).
    The answer is the Fraction search's."""
    G = [1 << (183 * (64 - k)) for k in range(64)] + [1]
    with mock.patch.object(W, "_value_and_slope", wraps=W._value_and_slope) as passes:
        got = assert_matches_fraction_search(G, "whole")
    assert passes.call_count <= 20
    assert (got / GRID).numerator.bit_length() == 201


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
