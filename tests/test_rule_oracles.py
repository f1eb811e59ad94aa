"""Rules written once in the library, against the second copies they replaced.

``AnnulusSpec.weights`` replaced the cached Fraction weight max(s^k, t^k),
``cousin_cartan._on_side`` the two hand-written side checks,
``normvalue.pow_bounds`` the lower/upper rational-power helpers,
``numbers.invmod`` the extended-Euclid inverse, and ``norm_bounds_each`` over
the one-point compact the Fraction seminorm of ``eval_base_seminorm`` and of
the disk case of ``eval_line_seminorm``, which at radius 0 reads F(alpha) by
one Horner pass instead of the Taylor shift.  The old forms live in
tests/oracles.py; results and refusals must agree exactly, except that a
seminorm may answer where the old form exceeded ``POW_BITS`` or the reverse.
"""

import contextvars
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import (
    AnnulusSpec,
    BaseCompact,
    BasePoint,
    LaurentPoly,
    LinePoint,
    Place,
    SeriesMatrix,
    SplitSystem,
    eval_base_seminorm,
    eval_line_seminorm,
)
from arithline import affine_line
from arithline.cousin_cartan import _on_side
from arithline.errors import ArithlineError, CannotCertify, NegativePowersOnDisk
from arithline.jsonio import dumps
from arithline.normvalue import default_bits, pow_bounds, set_default_bits
from arithline.numbers import invmod

from oracles import (
    eval_base_by_pow_rational,
    eval_disk_by_terms,
    invmod_egcd,
    minus_side_ok,
    plus_side_ok,
    pow_hi,
    pow_lo,
    radius_weight,
)

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


def _printed(fn, *args):
    """What the CLI prints for fn(*args) at 8 and at 128 bits: the payload, or
    the refusal's type and text; None once either precision meets the
    ``POW_BITS`` budget, where the old and the new rule may differ."""
    out = []
    for bits in (8, 128):
        def run():
            set_default_bits(bits)
            try:
                return dumps(fn(*args))
            except CannotCertify:
                return None
            except ArithlineError as exc:
                return type(exc).__name__, str(exc)

        out.append(contextvars.copy_context().run(run))
    return None if None in out else out


primes = st.sampled_from((2, 3, 5, 7))
exponents = st.builds(F, st.integers(1, 60), st.sampled_from((1, 2, 3, 7, 64, 256)))


@st.composite
def valued_rationals(draw, p):
    """A rational p^v u / w with u and w drawn at random (often prime to p)."""
    v = draw(st.integers(-30, 30))
    u = draw(st.integers(-10 ** 6, 10 ** 6))
    w = draw(st.integers(1, 10 ** 6))
    return F(u, w) * F(p) ** v


@st.composite
def base_points_and_values(draw):
    p = draw(primes)
    kind = draw(st.sampled_from(("central", "finite", "extreme", "arch")))
    if kind == "central":
        x = BasePoint.central()
    elif kind == "finite":
        x = BasePoint.finite(p, draw(exponents))
    elif kind == "extreme":
        x = BasePoint.extreme(p)
    else:
        x = BasePoint.arch(draw(st.builds(F, st.integers(1, 8), st.integers(8, 16))))
    return x, draw(valued_rationals(p))


@settings(max_examples=400, deadline=None)
@given(base_points_and_values())
@example((BasePoint.finite(5, F(9, 1000)), F(7, 625)))
@example((BasePoint.finite(3, F(97, 499)), F(59049)))
@example((BasePoint.extreme(5), F(1, 5)))
@example((BasePoint.extreme(5), F(10)))
@example((BasePoint.central(), F(0)))
@example((BasePoint.arch(F(1, 2)), F(1, 9)))
def test_eval_base_matches_the_fraction_seminorm(case):
    x, f = case
    want = _printed(eval_base_by_pow_rational, f, x)
    got = _printed(eval_base_seminorm, f, x)
    if want is not None and got is not None:
        assert got == want


@st.composite
def disk_points_and_polys(draw):
    p = draw(primes)
    x = BasePoint.finite(p, draw(exponents))
    r = draw(st.one_of(st.just(F(0)), st.just(F(1)), st.builds(lambda k: F(p) ** k, st.integers(-4, 4)),
                       st.builds(F, st.integers(1, 30), st.integers(1, 30))))
    alpha = draw(st.one_of(st.just(F(0)), valued_rationals(p)))
    coeffs = draw(st.lists(valued_rationals(p), max_size=5))
    return LinePoint.disk(x, alpha, r), coeffs


@settings(max_examples=300, deadline=None)
@given(disk_points_and_polys())
@example((LinePoint.disk(BasePoint.finite(2, F(1, 2)), 0, 1), [F(1), F(2)]))  # exact 1 over [2^-1/2]
@example((LinePoint.disk(BasePoint.finite(3, F(1, 2)), 0, 0), [F(3), F(1), F(1, 9)]))  # r = 0: c_0 alone
@example((LinePoint.disk(BasePoint.finite(3, F(1, 2)), 1, 0), [F(-1), F(1)]))  # r = 0, F(alpha) = 0
@example((LinePoint.disk(BasePoint.finite(5, F(9, 1000)), 0, 1), [F(7, 625)]))
@example((LinePoint.disk(BasePoint.finite(2, 1), 0, 1), []))
def test_eval_disk_matches_the_per_coefficient_loop(case):
    x, coeffs = case
    want = _printed(eval_disk_by_terms, coeffs, x)
    got = _printed(eval_line_seminorm, coeffs, x)
    if want is not None and got is not None:
        assert got == want


@st.composite
def centers_and_polys(draw):
    p = draw(primes)
    x = BasePoint.finite(p, draw(exponents))
    alpha = draw(st.one_of(st.just(F(0)), valued_rationals(p)))
    return LinePoint.disk(x, alpha, 0), draw(st.lists(valued_rationals(p), max_size=12))


@settings(max_examples=200, deadline=None)
@given(centers_and_polys())
@example((LinePoint.disk(BasePoint.finite(3, F(1, 2)), 1, 0), [F(-1), F(1)]))  # F(alpha) = 0
@example((LinePoint.disk(BasePoint.finite(2, 1), F(1, 2), 0), []))
def test_eval_at_a_point_disk_reads_f_alpha_without_the_shift(case):
    """At r = 0 only c_0 = F(alpha) counts: one Horner pass gives the bytes
    of the Taylor-shift path, and ``pshift`` is not called."""
    x, coeffs = case
    want = _printed(eval_disk_by_terms, coeffs, x)
    with mock.patch.object(affine_line, "pshift", side_effect=AssertionError("pshift at r = 0")):
        got = _printed(eval_line_seminorm, coeffs, x)
    if want is not None and got is not None:
        assert got == want
