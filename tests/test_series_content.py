"""Series on integer content against the Fraction model.

``LaurentPoly`` holds sum_k (num[k] / den) T^k in canonical form; the model
``oracles.FracLaurent`` holds one Fraction per index, as the series did
before.  The series ops, ``_invert_series``, the endpoint pairs of
``norm_bounds_each``, both annulus norms and ``SeriesMatrix.prune`` must
agree with the model exactly (coefficients in stored order, moduli,
NormValues, refusal types and texts) on the whole space, the central point,
finite and archimedean segments and stars.  The
ring axioms hold on the stored form; where products of truncated series
meet, they hold modulo the smaller of the two moduli.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, Place, SeriesMatrix
from arithline.base_space import norm_bounds, norm_bounds_each
from arithline.errors import ArithlineError
from arithline.series_ring import (
    _invert_series,
    norm_annulus,
    series_add,
    series_arith,
    series_mul,
    series_neg,
    series_scale,
    series_sub,
    uniform_norm_annulus,
)

from oracles import (
    FracLaurent,
    frac_add,
    frac_mul,
    frac_neg,
    frac_norm_annulus,
    frac_norm_bounds,
    frac_prune,
    frac_scale,
    frac_shift,
    frac_uniform_norm_annulus,
    frac_val,
    frac_with_mod,
    invert_series_recurrence,
)

INF = float("inf")
DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 9, 12, 25, 35)
fracs = st.builds(F, st.integers(-60, 60), st.sampled_from(DENOMINATORS))
nonzero_fracs = fracs.filter(bool)
mods = st.none() | st.integers(-8, 12)


@st.composite
def series(draw, keys=st.integers(-6, 14)):
    """A series from the validating constructor, or from ``_raw`` with the
    keys in drawn order."""
    mod = draw(mods)
    ks = [k for k in draw(st.lists(keys, unique=True, max_size=8)) if mod is None or k < mod]
    data = {k: draw(nonzero_fracs) for k in ks}
    if draw(st.booleans()):
        return LaurentPoly._raw(data, mod)
    return LaurentPoly(data, mod)


def assert_canonical(f):
    assert f.den > 0 and gcd(f.den, *f.num.values()) == 1
    assert all(type(c) is int and c for c in f.num.values())


def assert_matches(got, want):
    assert_canonical(got)
    assert (list(got.coeffs.items()), got.trunc_mod) == want.layout()


def classes_agree(x, y):
    """x and y agree modulo the smaller of their moduli."""
    m = min((m for m in (x.trunc_mod, y.trunc_mod) if m is not None), default=None)
    return x.with_mod(m) == y.with_mod(m)


# -- the stored form ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(series(), st.randoms(use_true_random=False))
def test_every_route_gives_the_canonical_form(f, rnd):
    assert_canonical(f)
    items = list(f.coeffs.items())
    rnd.shuffle(items)
    g = LaurentPoly._raw(dict(items), f.trunc_mod)
    h = LaurentPoly(dict(items), f.trunc_mod)
    assert f == g == h and hash(f) == hash(g) == hash(h)
    assert g.num is not f.num
    assert all(f.coeff(k) == c for k, c in items) and f.coeff(99) == 0
    # the validating constructor adds up repeated indices, given as ints or strings
    halves = [(k, c / 2) for k, c in items] + [(str(k), c / 2) for k, c in items]
    assert LaurentPoly(halves, f.trunc_mod) == f


def test_canonical_examples():
    f = LaurentPoly({0: F(1, 6), 2: F(-3, 4)})
    assert (f.num, f.den) == ({0: 2, 2: -9}, 12)
    assert (LaurentPoly.zero().num, LaurentPoly.zero().den) == ({}, 1)
    # dropping T^2 leaves 2/12 alone: the gcd 2 is divided out
    assert (f.with_mod(1).num, f.with_mod(1).den) == ({0: 1}, 6)
    g = f.with_mod(2).shift(2)
    assert (g.num, g.den, g.trunc_mod) == ({2: 1}, 6, 4)
    s = series_add(f, LaurentPoly({0: F(-1, 6)}))
    assert (s.num, s.den) == ({2: -3}, 4)


# -- the ring axioms --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(series(), series(), series())
def test_ring_axioms(f, g, h):
    assert series_add(f, g) == series_add(g, f)
    assert series_mul(f, g) == series_mul(g, f)
    assert series_add(series_add(f, g), h) == series_add(f, series_add(g, h))
    assert classes_agree(series_mul(series_mul(f, g), h), series_mul(f, series_mul(g, h)))
    assert classes_agree(series_mul(f, series_add(g, h)),
                         series_add(series_mul(f, g), series_mul(f, h)))
    assert series_add(f, LaurentPoly.zero()) == f
    assert series_mul(f, LaurentPoly.one()) == f
    assert series_add(f, series_neg(f)) == LaurentPoly.zero(f.trunc_mod)
    assert series_sub(f, g) == series_neg(series_sub(g, f))


@settings(max_examples=200, deadline=None)
@given(series(), series())
@example(LaurentPoly({-3: 1}, 0), LaurentPoly({-3: 1}, 0))  # (T^-3 + O(1))^2 = T^-6 + O(T^-3)
@example(LaurentPoly.zero(-1), LaurentPoly.zero(-1))  # O(T^-1)^2 = O(T^-2)
@example(LaurentPoly.zero(5), LaurentPoly({0: 1}, 3))  # O(T^5) (1 + O(T^3)) = O(T^5)
@example(LaurentPoly({10: 1}), LaurentPoly({0: 1}, 5))  # T^10 + (1 + O(T^5)) = 1 + O(T^5)
def test_modulus_rule(f, g):
    """A sum is known mod the smaller modulus and keeps only the indices
    below it.  A product is known mod min(mod_f + val g, mod_g + val f), the
    val of a zero known mod T^m read as m and of the exact zero as 0, and
    keeps only the indices below it.  ``series_arith`` never reports a
    product modulus above that one."""
    s = series_add(f, g)
    ms = [m for m in (f.trunc_mod, g.trunc_mod) if m is not None]
    assert s.trunc_mod == min(ms, default=None)
    assert set(s.num) <= set(f.num) | set(g.num)
    assert s.trunc_mod is None or all(k < s.trunc_mod for k in s.num)
    p = series_mul(f, g)
    bounds = []
    if f.trunc_mod is not None:
        bounds.append(f.trunc_mod + frac_val(FracLaurent.of(g)))
    if g.trunc_mod is not None:
        bounds.append(g.trunc_mod + frac_val(FracLaurent.of(f)))
    assert p.trunc_mod == min(bounds, default=None)
    assert p.trunc_mod is None or all(k < p.trunc_mod for k in p.num)
    reported = series_arith(f, g, "mul")
    assert reported.trunc_mod == min(bounds + ms, default=None)
    assert reported == p.with_mod(reported.trunc_mod)


# -- every op against the Fraction model ---------------------------------------------


@settings(max_examples=300, deadline=None)
@given(series(), series(), fracs, mods, st.integers(-5, 5))
@example(LaurentPoly({0: F(1, 6), 1: F(1, 3)}, 4), LaurentPoly({0: F(-1, 6), 1: F(2, 3)}), F(3), 1, 2)
@example(LaurentPoly._raw({3: F(1), 0: F(2)}), LaurentPoly._raw({2: F(-1), -1: F(1, 3)}, 4), F(0), None, -3)
def test_series_ops_match_the_model(f, g, a, m, j):
    mf, mg = FracLaurent.of(f), FracLaurent.of(g)
    assert_matches(series_add(f, g), frac_add(mf, mg))
    assert_matches(series_neg(f), frac_neg(mf))
    assert_matches(series_sub(f, g), frac_add(mf, frac_neg(mg)))
    assert_matches(series_scale(a, f), frac_scale(a, mf))
    assert_matches(series_mul(f, g), frac_mul(mf, mg))
    assert_matches(f.with_mod(m), frac_with_mod(mf, m))
    assert_matches(f.shift(j), frac_shift(mf, j))


@settings(max_examples=150, deadline=None)
@given(series(keys=st.integers(-3, 30)), nonzero_fracs, st.integers(-2, 40))
@example(LaurentPoly({0: F(2, 3), 1: 1}), F(1), 0)
def test_invert_series_matches_the_recurrence(f, c0, m):
    f = series_add(f.with_mod(None), LaurentPoly({0: c0 - f.coeff(0)}))
    got = _invert_series(f, m)
    assert_canonical(got)
    want = invert_series_recurrence(f, m)
    assert (list(got.coeffs.items()), got.trunc_mod) == (list(want.coeffs.items()), want.trunc_mod)


# -- norms and prune against the Fraction model ------------------------------------------

COMPACTS = (
    BaseCompact.whole_space(),
    BaseCompact.central_point(),
    BaseCompact.segment(Place.finite(2), F(1, 2), 2),
    BaseCompact.segment(Place.finite(3), 1, INF),
    BaseCompact.segment(Place.finite(5), 0, INF),
    BaseCompact.segment(Place.infinite(), F(1, 3), F(1, 2)),
    BaseCompact.segment(Place.infinite(), 0, 1),
    BaseCompact.star({Place.finite(2): 1}),
    BaseCompact.star({Place.finite(3): 2, Place.infinite(): F(1, 2)}),
    BaseCompact.star({Place.finite(5): 0, Place.finite(7): 1, Place.infinite(): 0}),
)


# every compact shape, the extreme point alone and roots at both kinds of place
PAIR_COMPACTS = COMPACTS + (
    BaseCompact.segment(Place.finite(3), INF, INF),
    BaseCompact.segment(Place.finite(2), F(1, 3), F(1, 3)),
    BaseCompact.segment(Place.infinite(), F(2, 3), 1),
    BaseCompact.star({Place.finite(2): F(3, 2), Place.infinite(): F(1, 5)}),
)


def bounds_outcome(fn):
    try:
        return "ok", fn()
    except ArithlineError as exc:
        return "raise", type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=5),
       st.sampled_from(DENOMINATORS + (8, 27, 10 ** 6, 3 ** 13)), st.sampled_from(PAIR_COMPACTS))
@example([5, 3, 0], 9, PAIR_COMPACTS[3])  # 3/9 has a pole at the extreme point of 3
@example([1, 2], 35, PAIR_COMPACTS[7])  # uncut 5 and 7 on the star {2: 1}
@example([-12, 7], 1, PAIR_COMPACTS[10])
# the POW_BITS boundary of a_2^1: 2^(-32768) and 2^32768 are charged exactly 65536 bits,
# 2^(-32769) is refused
@example([2 ** 32768, 3], 1, BaseCompact.segment(Place.finite(2), 1, 1))
@example([1, 3], 2 ** 32768, BaseCompact.segment(Place.finite(2), 1, 1))
@example([2 ** 32769], 1, BaseCompact.segment(Place.finite(2), 1, 1))
# integer exponents e = 2 and e = 3 at p = 3 and p = 5
@example([9, -54, 7, 0], 25, BaseCompact.segment(Place.finite(3), 2, 3))
@example([125, -10, 3, 1], 45, BaseCompact.star({Place.finite(5): 2, Place.finite(3): 3}))
@example([-250, 6], 1, BaseCompact.segment(Place.finite(5), 3, INF))
# roots taken exactly: 1 and 4 to the power 1/2 are one object, as the model's bounds are equal
@example([1, -1, 4, 2], 1, BaseCompact.star({Place.infinite(): F(1, 2)}))
# the central point: negative numerators over a large den
@example([-7, 0, -10 ** 30, 3 ** 40], 3 ** 40 * 10 ** 6, BaseCompact.central_point())
def test_endpoint_pairs_match_the_model(nums, den, V):
    """``norm_bounds_each`` gives integer pairs with positive denominators
    whose values are the Fraction model's bounds, or the model's refusal with
    its type and text; ``norm_bounds`` reads the same pairs as Fractions.
    A pair is one object (hi is lo) exactly when the model's bounds are
    equal: ``norm_annulus`` reads that identity to skip its hi sum."""
    def pairs():
        out = []
        for lo, hi in norm_bounds_each(nums, den, V):
            assert lo[1] > 0 and hi[1] > 0
            out.append((F(*lo), F(*hi), hi is lo))
        return out

    want = bounds_outcome(lambda: [frac_norm_bounds(F(n, den), V) for n in nums])
    exact = want if want[0] == "raise" else ("ok", [(lo, hi, lo == hi) for lo, hi in want[1]])
    assert bounds_outcome(pairs) == exact
    assert bounds_outcome(lambda: [norm_bounds(F(n, den), V) for n in nums]) == want


@st.composite
def annuli(draw):
    s = draw(st.sampled_from((F(0), F(0), F(1, 3), F(1))))
    t = s + draw(st.sampled_from((F(0), F(1, 2), F(1), F(3, 2))))
    return AnnulusSpec(draw(st.sampled_from(COMPACTS)), s, t)


def outcome(fn, *args):
    try:
        out = fn(*args)
    except ArithlineError as exc:
        return "raise", type(exc), str(exc)
    if isinstance(out, LaurentPoly):
        assert_canonical(out)
    if isinstance(out, (LaurentPoly, FracLaurent)):
        return "ok", list(out.coeffs.items()), out.trunc_mod
    return "ok", out.lo, out.hi, out.exact


@settings(max_examples=400, deadline=None)
@given(series(), annuli(), st.booleans())
@example(LaurentPoly({-1: 2, 0: 3}), AnnulusSpec(COMPACTS[1], 0, 2), False)
@example(LaurentPoly({0: F(1, 3), 1: F(1, 2)}), AnnulusSpec(COMPACTS[0], 0, 1), False)
@example(LaurentPoly({0: F(1, 35), 2: F(1, 7)}), AnnulusSpec(COMPACTS[9], 0, 2), True)
@example(LaurentPoly({0: F(5, 6), 1: 7}), AnnulusSpec(COMPACTS[5], 0, F(3, 2)), True)
def test_annulus_norms_match_the_model(f, A, upper):
    mf = FracLaurent.of(f)
    assert outcome(norm_annulus, f, A) == outcome(frac_norm_annulus, mf, A)
    assert (outcome(uniform_norm_annulus, f, A, upper)
            == outcome(frac_uniform_norm_annulus, mf, A, upper))


@settings(max_examples=300, deadline=None)
@given(series(), annuli(), st.builds(F, st.integers(0, 20), st.integers(1, 12)))
@example(LaurentPoly({-1: 2, 0: F(1, 3)}), AnnulusSpec(COMPACTS[0], 0, 2), F(1, 2))
@example(LaurentPoly({-1: 2, 0: F(1, 3)}), AnnulusSpec(COMPACTS[1], 0, 2), F(1, 2))
@example(LaurentPoly({0: F(1, 2), 1: 3}), AnnulusSpec(COMPACTS[3], F(1, 3), 1), F(1))
def test_prune_matches_the_model(f, ctx, tol):
    got = outcome(lambda: SeriesMatrix(((f,),)).prune(ctx, tol).entries[0][0])
    assert got == outcome(frac_prune, FracLaurent.of(f), ctx, tol)
