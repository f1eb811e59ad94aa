"""The local-division fast path against the original rebuild-A(phi) loop.

``_divide_by_iteration`` updates the residual by the linear recurrence
r <- -(alpha(r) B) mod T^m on integer numerators over one denominator and
never forms phi: R is F mod T^p, and alpha(phi) of Q = alpha(phi) / u is one
running integer sum of alpha(F) and the alpha(r) of each step, keyed by the
indices reached (so a modulus of 2^200 costs nothing when F lies below T^p).
``norm_annulus`` sums the coefficient bounds against the radius powers by one
integer Horner pass.  The oracles are the direct forms: the fixed point that
rebuilds A(phi) = phi + alpha(phi) B and F - A(phi) every step in Fractions
through the validating ``LaurentPoly`` constructor, the norm summed as one
Fraction product per coefficient (``oracles.naive_norm_annulus``), and the
product of series formed in full before its truncation.  Both sides must
agree exactly: the same Q, R, radius, epsilon and residual trajectory, the
same NormValues or refusal texts, and the same products.  The radius powers
are charged to ``POW_BITS`` before they are taken.
"""

import contextvars
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import (
    AnnulusSpec,
    BaseCompact,
    LaurentPoly,
    NormValue,
    Place,
    divide_local_series,
    norm_annulus,
    uniform_norm_annulus,
)
from arithline.errors import ArithlineError, CannotCertify, NegativePowersOnDisk, NoConvergence
from arithline.normvalue import POW_BITS, set_default_bits
from arithline.series_ring import series_add, series_mul, series_scale, series_sub

from oracles import convolve, naive_norm_annulus

CENTRAL = BaseCompact.central_point()
CENTER = AnnulusSpec(CENTRAL, 0, Fraction(1, 2))


def nv_key(nv):
    return (nv.lo, nv.hi, nv.exact)


def _mod(f, m):
    return LaurentPoly(f.coeffs, m)


def _split(phi, p):
    mod = None if phi.trunc_mod is None else phi.trunc_mod - p
    alpha = LaurentPoly({k - p: c for k, c in phi.coeffs.items() if k >= p}, mod)
    beta = LaurentPoly({k: c for k, c in phi.coeffs.items() if k < p})
    return alpha, beta


def oracle_contraction(G, p, ctx):
    u = G.coeff(p)
    B = series_sub(series_scale(1 / u, G), LaurentPoly.monomial(p))
    if not B:
        return Fraction(1), NormValue.of(0)
    for j in range(600):
        for w in {Fraction(2) ** j, Fraction(2) ** -j}:
            try:
                eps = naive_norm_annulus(B, AnnulusSpec(ctx.V, 0, w)) * NormValue.of(w ** (-p))
            except ArithlineError:
                continue
            if eps.lt(1):
                return w, eps
    raise AssertionError("oracle found no contraction radius")


def oracle_divide(F, G, p, m, ctx):
    """F = Q G + R mod T^m by rebuilding A(phi) and F - A(phi) each step."""
    F = _mod(F, m)
    u = G.coeff(p)
    B = _mod(series_sub(_mod(series_scale(1 / u, G), m), LaurentPoly.monomial(p, trunc_mod=m)), m)
    radius, eps = oracle_contraction(G, p, ctx)

    def A_of(f):
        return series_add(f, _mod(series_mul(_split(f, p)[0], B), m))

    phi, residuals = F, []
    for _ in range(m + 2):
        res = _mod(series_sub(F, A_of(phi)), m)
        residuals.append(naive_norm_annulus(res, AnnulusSpec(ctx.V, 0, radius)))
        if not res:
            break
        phi = series_add(phi, res)
    else:
        raise NoConvergence("oracle fixed point not reached")
    alpha, beta = _split(phi, p)
    return series_scale(1 / u, alpha), beta, radius, eps, residuals


def acceptance_05_inputs(seed, count, m=64):
    """Inputs shaped as in acceptance 05: G = T^p * unit of degree <= 5."""
    rng = random.Random(seed)
    for i in range(count):
        p = 1 + i % 3
        unit = {0: Fraction(rng.choice((1, -1, 2, 3)))}
        for j in range(1, 6):
            if rng.random() < 0.7:
                unit[j] = Fraction(rng.randint(-5, 5))
        G = LaurentPoly({p + k: c for k, c in unit.items()}, m)
        F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(8)}, m)
        yield F, G, p


def assert_same_division(F, G, p, m, ctx):
    Q, R, cert = divide_local_series(F, G, p, m, ctx)
    Qo, Ro, radius, eps, residuals = oracle_divide(F, G, p, m, ctx)
    assert Q == Qo and R == Ro
    assert cert.radius == radius
    assert nv_key(cert.epsilon) == nv_key(eps)
    assert [nv_key(r) for r in cert.residuals] == [nv_key(r) for r in residuals]


def test_local_division_matches_rebuild_oracle():
    m = 64
    cases = list(acceptance_05_inputs(2024, 30, m))
    assert {p for _, _, p in cases} == {1, 2, 3}
    for F, G, p in cases:
        assert_same_division(F, G, p, m, CENTER)


def test_preparation_shaped_division_matches_rebuild_oracle():
    # prepare(G, p, 16) divides T^p by G modulo T^(16 + p)
    for _, G, p in acceptance_05_inputs(77, 9):
        m = 16 + p
        assert_same_division(LaurentPoly.monomial(p, trunc_mod=m), G.with_mod(m), p, m, CENTER)


@pytest.mark.parametrize(
    "V",
    [BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2), BaseCompact.segment(Place.infinite(), 0, 1)],
)
def test_local_division_matches_oracle_off_the_central_point(V):
    ctx = AnnulusSpec(V, 0, Fraction(1, 2))
    for F, G, p in acceptance_05_inputs(5, 6, m=24):
        assert_same_division(F, G, p, 24, ctx)


# Off the central point the coefficient norms are powers with fractional
# exponents (|c|^(1/3) on the archimedean segment, 3^(-e v_3(c)) on the 3-adic
# one), so most residual norms are intervals.  The segment reaching the
# extreme point of 5 anchors there and needs 5-integral inputs, so only an
# example uses it.
DIVISION_COMPACTS = {
    "central": CENTRAL,
    "3-adic": BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2),
    "arch-frac": BaseCompact.segment(Place.infinite(), Fraction(1, 3), Fraction(1, 2)),
    "5-extreme": BaseCompact.segment(Place.finite(5), 1, float("inf")),
}


@st.composite
def fractional_division_inputs(draw):
    """G = T^p (u + ...) and F with fractional coefficients, m <= 64."""
    p = draw(st.integers(1, 3))
    m = draw(st.integers(p + 1, 64))
    coeff = st.fractions(-9, 9, max_denominator=9)
    unit = {0: draw(coeff.filter(bool))}
    for j in range(1, 6):
        unit[j] = draw(coeff)
    G = LaurentPoly({p + k: c for k, c in unit.items()}, m)
    F = LaurentPoly({k: draw(coeff) for k in range(8)}, m)
    name = draw(st.sampled_from(["3-adic", "arch-frac", "central"]))
    return F, G, p, m, name


@settings(max_examples=30, deadline=None)
@given(fractional_division_inputs())
@example((LaurentPoly({0: Fraction(1, 2), 3: Fraction(-4, 9)}, 64),
          LaurentPoly({1: Fraction(2, 3), 2: Fraction(5, 6), 4: 1}, 64), 1, 64, "arch-frac"))
@example((LaurentPoly({0: 7, 1: Fraction(1, 3)}, 40),
          LaurentPoly({3: Fraction(-5, 7), 4: Fraction(3, 2), 5: Fraction(-1, 4)}, 40), 3, 40, "3-adic"))
@example((LaurentPoly({1: Fraction(8, 9)}, 64),
          LaurentPoly({2: Fraction(-5, 7), 3: Fraction(2, 5)}, 64), 2, 64, "central"))
# F has no index >= p, so r_0 = 0 and Q = 0
@example((LaurentPoly({0: Fraction(1, 2), 1: 3}, 40),
          LaurentPoly({2: Fraction(2, 3), 3: Fraction(1, 5)}, 40), 2, 40, "central"))
# m = p + 1: B vanishes mod T^m and Q is alpha(F) / u
@example((LaurentPoly({0: 1, 3: Fraction(5, 7)}, 4),
          LaurentPoly({3: 2, 4: 1, 5: Fraction(-1, 2)}, 4), 3, 4, "arch-frac"))
# u = 3/7: r.den runs 21, 63, 189, 567, 1701, 567, 1701, 5103, growing and
# shrinking after a gcd, so the running sum is rescaled more than once
@example((LaurentPoly({1: Fraction(9, 7), 4: 7}, 10),
          LaurentPoly({1: Fraction(3, 7), 2: Fraction(1, 7)}, 10), 1, 10, "3-adic"))
# the anchor is the extreme point of 5
@example((LaurentPoly({0: 1, 2: Fraction(3, 2), 5: -4}, 24),
          LaurentPoly({1: 2, 2: 5, 3: Fraction(1, 3)}, 24), 1, 24, "5-extreme"))
def test_fractional_division_matches_rebuild_oracle(case):
    F, G, p, m, name = case
    assert_same_division(F, G, p, m, AnnulusSpec(DIVISION_COMPACTS[name], 0, Fraction(1, 2)))


def test_a_huge_modulus_costs_nothing_when_F_lies_below_T_p():
    """With F = 1 below T^p the first residual is 0; nothing is sized by
    m = 2^200, so the division returns at once."""
    m = 2 ** 200
    start = time.perf_counter()
    Q, R, cert = divide_local_series(LaurentPoly({0: 1}), LaurentPoly({1: 1, 2: Fraction(1, 3)}), 1, m, CENTER)
    assert time.perf_counter() - start < 1
    assert (Q, R) == (LaurentPoly.zero(m - 1), LaurentPoly.one())
    assert (cert.radius, cert.residuals) == (Fraction(1, 2), (NormValue.of(0),))


# -- series_mul against the full product, truncated afterwards ------------------


@st.composite
def raw_series(draw):
    """A series built through the trusted constructor, keys in drawn order."""
    mod = draw(st.none() | st.integers(-8, 12))
    keys = draw(st.lists(st.integers(-6, 14), unique=True, max_size=8))
    coeff = st.fractions(-50, 50, max_denominator=12).filter(bool)
    return LaurentPoly._raw({k: draw(coeff) for k in keys if mod is None or k < mod}, mod)


def full_then_truncate(f, g):
    """The whole convolution, then the indices >= the product's modulus dropped;
    a zero known mod T^m has valuation m there, the exact zero 0."""
    mods = []
    if f.trunc_mod is not None:
        mods.append(f.trunc_mod + min(g.coeffs, default=g.trunc_mod or 0))
    if g.trunc_mod is not None:
        mods.append(g.trunc_mod + min(f.coeffs, default=f.trunc_mod or 0))
    mod = min(mods, default=None)
    full = convolve(f.coeffs, g.coeffs)
    return {k: c for k, c in full.items() if mod is None or k < mod}, mod


@settings(max_examples=200, deadline=None)
@given(raw_series(), raw_series())
@example(LaurentPoly._raw({3: Fraction(1), 0: Fraction(2)}, None), LaurentPoly._raw({2: Fraction(-1), -1: Fraction(1, 3)}, 4))
@example(LaurentPoly._raw({}, -3), LaurentPoly._raw({0: Fraction(5)}, None))
@example(LaurentPoly._raw({-2: Fraction(1, 2)}, -1), LaurentPoly._raw({-5: Fraction(3), 1: Fraction(-2, 7)}, 2))
def test_series_mul_is_the_truncated_full_product(f, g):
    got = series_mul(f, g)
    coeffs, mod = full_then_truncate(f, g)
    assert (got.coeffs, got.trunc_mod) == (coeffs, mod)
    assert all(type(c) is Fraction and c for c in got.coeffs.values())


# -- norm_annulus against the per-coefficient Fraction sum ---------------------

WHOLE = BaseCompact.whole_space()
ARCH_THIRD = BaseCompact.segment(Place.infinite(), Fraction(1, 3), Fraction(1, 3))
SPECS = {
    "central": AnnulusSpec(CENTRAL, 0, Fraction(1, 2)),
    "whole": AnnulusSpec(WHOLE, 0, Fraction(3, 2)),
    "arch-third": AnnulusSpec(ARCH_THIRD, 0, 2),
    "3-adic-half": AnnulusSpec(BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2), 0, Fraction(2, 3)),
    "central-ring": AnnulusSpec(CENTRAL, Fraction(2, 3), Fraction(5, 4)),
    "arch-ring": AnnulusSpec(ARCH_THIRD, Fraction(1, 3), 3),
}


@st.composite
def series_on_spec(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    A = SPECS[name]
    lowest = -6 if A.s > 0 else 0
    # the whole space admits only integers (no poles at the extreme points)
    if A.V == WHOLE:
        coeff = st.integers(-10 ** 6, 10 ** 6)
    else:
        coeff = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)
    coeffs = draw(st.dictionaries(st.integers(lowest, 12), coeff.filter(bool), max_size=8))
    return name, LaurentPoly(coeffs)


@settings(max_examples=150, deadline=None)
@given(series_on_spec())
@example(("central", LaurentPoly({0: 3, 2: Fraction(-1, 7)})))
@example(("whole", LaurentPoly({0: 12, 1: -5, 3: 100})))
@example(("arch-third", LaurentPoly({0: 2, 1: Fraction(5, 3)})))
@example(("central-ring", LaurentPoly({-3: Fraction(1, 2), 0: 1, 4: 9})))
@example(("arch-ring", LaurentPoly({-2: 7, 5: Fraction(-2, 9)})))
@example(("central", LaurentPoly()))
def test_norm_annulus_equals_naive_sum(case):
    name, f = case
    A = SPECS[name]
    assert nv_key(norm_annulus(f, A)) == nv_key(naive_norm_annulus(f, A))


def test_norm_annulus_examples_cover_intervals_and_negative_indices():
    assert not norm_annulus(LaurentPoly({0: 2, 1: Fraction(5, 3)}), SPECS["arch-third"]).is_exact
    ring = norm_annulus(LaurentPoly({-3: Fraction(1, 2), 0: 1}), SPECS["central-ring"])
    # the trivial absolute value at the central point: ||1/2|| = 1, s^-3 = 27/8
    assert ring == NormValue.of(Fraction(35, 8))
    with pytest.raises(NegativePowersOnDisk):
        norm_annulus(LaurentPoly({-1: 1}), SPECS["central"])


# -- norm_annulus against the naive sum on every shape --------------------------

# The central point, segments (one reaching the extreme point of 5), stars,
# and archimedean cuts with non-integer exponents, where bounds are intervals
# (hi is not lo).  The whole space admits only integers: fractional
# coefficients there are refused with the pole's text.
NAIVE_COMPACTS = (
    CENTRAL,
    WHOLE,
    BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2),
    BaseCompact.segment(Place.finite(5), 1, float("inf")),
    BaseCompact.segment(Place.infinite(), Fraction(1, 3), Fraction(1, 2)),
    BaseCompact.segment(Place.infinite(), Fraction(2, 3), 1),
    BaseCompact.star({Place.finite(2): 1}),
    BaseCompact.star({Place.finite(3): 2, Place.infinite(): Fraction(1, 2)}),
    BaseCompact.star({Place.finite(2): Fraction(3, 2), Place.infinite(): Fraction(1, 5)}),
)
# (s, t) with s = 0, 0 < s < t and s = t; t = 0, 1, dyadic and not
DENSE_RADII = [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(2, 3)),
               (Fraction(0), Fraction(3)), (Fraction(1, 3), Fraction(5, 4)), (Fraction(2, 3), Fraction(3)),
               (Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(3, 2))]
# gaps up to 10^4 stay inside POW_BITS at radii of at most 2 bits
SPARSE_RADII = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1, 2)),
                (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(2)),
                (Fraction(1), Fraction(3, 2))]


@st.composite
def naive_norm_cases(draw):
    """(f, A, bits): dense support in [-6, 12], or up to four indices with
    gaps up to 10^4 on either side of 0; negative indices on a disk now and
    then, for the refusal."""
    V = draw(st.sampled_from(NAIVE_COMPACTS))
    sparse = draw(st.booleans())
    s, t = draw(st.sampled_from(SPARSE_RADII if sparse else DENSE_RADII))
    negative = s > 0 or draw(st.integers(0, 9)) == 0
    if sparse:
        keys = [draw(st.integers(-12 if negative else 0, 12))]
        for _ in range(draw(st.integers(0, 3))):
            step = draw(st.integers(1, 10 ** 4))
            keys.append(keys[-1] - step if negative and draw(st.booleans()) else keys[-1] + step)
        keys = set(keys)
    else:
        keys = draw(st.sets(st.integers(-6 if negative else 0, 12), max_size=10))
    coeff = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.sampled_from((1, 1, 1, 2, 3, 9, 2 ** 10)))
    f = LaurentPoly({k: draw(coeff) for k in keys})
    return f, AnnulusSpec(V, s, t), draw(st.sampled_from((128, 8)))


def norm_outcome(fn, f, A):
    try:
        nv = fn(f, A)
    except ArithlineError as exc:
        return "raise", type(exc), str(exc)
    return "ok", nv.lo, nv.hi, nv.exact


@settings(max_examples=300, deadline=None)
@given(naive_norm_cases())
@example((LaurentPoly(), AnnulusSpec(CENTRAL, 0, Fraction(1, 2)), 128))
@example((LaurentPoly({0: 2, 10 ** 4: 1, 2 * 10 ** 4: Fraction(-3, 2), 3 * 10 ** 4: 5}),
          AnnulusSpec(NAIVE_COMPACTS[4], 0, 1), 8))
@example((LaurentPoly({-3 * 10 ** 4: 7, -2: Fraction(1, 3), 10 ** 4: 1}),
          AnnulusSpec(NAIVE_COMPACTS[7], Fraction(1, 2), 2), 128))
@example((LaurentPoly({0: 2, 1: Fraction(5, 3), 7: -4}), AnnulusSpec(NAIVE_COMPACTS[8], Fraction(3, 2), Fraction(3, 2)), 8))
@example((LaurentPoly({-1: 1, 0: Fraction(1, 2)}), AnnulusSpec(WHOLE, 0, 3), 128))
@example((LaurentPoly({0: 1, 2: Fraction(1, 2)}), AnnulusSpec(WHOLE, 0, 3), 128))
@example((LaurentPoly({5: 3, 0: 1, -4: Fraction(5, 9)}), AnnulusSpec(NAIVE_COMPACTS[2], Fraction(1, 3), Fraction(5, 4)), 128))
def test_norm_annulus_matches_the_naive_sum_on_every_shape(case):
    """The Horner pass gives the naive sum's NormValue (lo, hi and exactness)
    or its refusal, with the same type and text, at 128 and at 8 bits."""
    f, A, bits = case

    def both():
        set_default_bits(bits)
        return norm_outcome(norm_annulus, f, A), norm_outcome(naive_norm_annulus, f, A)

    got, want = contextvars.copy_context().run(both)
    assert got == want


POW_REFUSAL = f"x ** e exceeds the budget of {POW_BITS} bits of work"


def test_radius_powers_are_charged_before_they_are_taken():
    V = BaseCompact.segment(Place.finite(2), 1, 1)
    far = LaurentPoly({10 ** 8: 1})
    A = AnnulusSpec(V, 0, 3)
    for call in (lambda: norm_annulus(far, A), lambda: uniform_norm_annulus(far, A),
                 lambda: A.weights([0, 10 ** 8])):
        with pytest.raises(CannotCertify) as exc:
            call()
        assert str(exc.value) == POW_REFUSAL
    # s^k for k < 0 is charged as (1/s)^-k
    with pytest.raises(CannotCertify):
        norm_annulus(LaurentPoly({-10 ** 8: 1}), AnnulusSpec(V, Fraction(1, 3), 1))
    # the charge is -k or k times the height of the radius: 2 bits for t = 2
    edge = POW_BITS // 2
    assert norm_annulus(LaurentPoly({edge: 1}), AnnulusSpec(V, 0, 2)) == NormValue.of(2 ** edge)
    with pytest.raises(CannotCertify):
        norm_annulus(LaurentPoly({edge + 1: 1}), AnnulusSpec(V, 0, 2))
    with pytest.raises(CannotCertify):
        AnnulusSpec(V, Fraction(1, 2), 2).weights([-edge - 1])
    # the radii 1 and 0 take no power: T^(10^9) stays cheap
    huge = LaurentPoly({0: 1, 10 ** 9: Fraction(1, 2)})
    assert norm_annulus(huge, AnnulusSpec(V, 1, 1)) == NormValue.of(3)  # |1/2|_2 = 2
    assert norm_annulus(huge, AnnulusSpec(V, 0, 0)) == NormValue.of(1)
    assert AnnulusSpec(V, 1, 1).weights([10 ** 9, -10 ** 9]) == [(1, 1), (1, 1)]
    # a disk's refusal of negative powers comes before the budget
    with pytest.raises(NegativePowersOnDisk):
        AnnulusSpec(V, 0, 3).weights([-1, 10 ** 8])


def ld_round_inputs(seed, rounds, m=64):
    """Inputs of the local_division benchmark's shape: per round one G for
    each p in 1..3, exactly one of them with no T^(p+1) term, and F of
    degree < 8, all known mod T^m."""
    rng = random.Random(seed)
    for _ in range(rounds):
        short = rng.randrange(3)
        for i, p in enumerate((1, 2, 3)):
            unit = {0: Fraction(rng.choice((1, -1, 2, 3)))}
            if i != short:
                unit[1] = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)))
            for j in range(2, 6):
                if rng.random() < 0.7:
                    unit[j] = Fraction(rng.randint(-5, 5))
            G = LaurentPoly({p + k: c for k, c in unit.items()}, m)
            F = LaurentPoly({k: Fraction(rng.randint(-9, 9)) for k in range(8)}, m)
            yield F, G, p


def test_benchmark_shaped_residual_trajectories_match_the_oracle():
    """The residual norms r_0, r_1, ... of the benchmark's divisions, each
    summed by the Horner pass, equal the naive sums of the rebuild oracle."""
    cases = list(ld_round_inputs(31, 4))
    assert {p for _, _, p in cases} == {1, 2, 3}
    for F, G, p in cases:
        assert_same_division(F, G, p, 64, CENTER)
