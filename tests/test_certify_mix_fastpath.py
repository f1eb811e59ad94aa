"""Series inverse, Hensel, Cartan prune/split and membership against references.

``series_ring._invert_series`` is Newton iteration on integer content; the
reference is the triangular Fraction recurrence.  ``_hensel_series`` predicts
the gauges by the rule v' = 2 v + v(P''(r)/2) and finds the root by Newton at
doubling precision; the reference takes every step, evaluation and inverse
mod T^m, and stores its root in the order its steps reached each index, where
the lift stores it ascending.  ``SeriesMatrix.prune`` weighs each entry with
integer pairs; the reference multiplies one norm by one Fraction weight per
coefficient.  ``_split_matrix`` splits through ``_split_series``, the split
rule on integer content; the reference is the rule written out per Fraction.
Outputs must agree exactly: coefficients (in stored order for series
results), moduli, gauges and exceptions.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, Place, SeriesMatrix, SplitSystem, cli, jsonio, weierstrass
from arithline.base_space import member_of_kv, norm_bounds
from arithline.cousin_cartan import _split_matrix, _split_series, split_rational
from arithline.covers_galois import _radius_witness, binomial_coefficient_series
from arithline.errors import ArithlineError, NotInRingOfV
from arithline.numbers import small_prime_factor, strip_primes
from arithline.series_ring import _invert_series, invert_unit, series_add, series_mul
from arithline.weierstrass import _hensel_series, _series_poly, _series_poly_eval

from oracles import (
    hensel_series_full_precision,
    invert_series_recurrence,
    invert_unit_triangular,
    naive_factor,
    prune_per_coefficient,
    radius_weight,
    series_pow_by_squaring,
    split_matrix_direct,
    split_rational_direct,
)

F = Fraction


def layout(f):
    """Coefficients in stored order, and the modulus."""
    return list(f.coeffs.items()), f.trunc_mod


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ArithlineError, ValueError, ZeroDivisionError) as exc:
        return "raise", (type(exc), str(exc))


fracs = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
small_fracs = st.builds(F, st.integers(-999, 999), st.integers(1, 60))
tiny_fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
nonzero_fracs = fracs.filter(bool)


# -- the series inverse -------------------------------------------------------


@st.composite
def inverse_inputs(draw):
    m = draw(st.integers(1, 100))
    coeffs = {0: draw(nonzero_fracs)}
    if draw(st.booleans()):  # dense, small heights
        for k in range(1, draw(st.integers(1, 130))):
            coeffs[k] = draw(small_fracs)
    else:
        for k in draw(st.lists(st.integers(1, 130), max_size=6, unique=True)):
            coeffs[k] = draw(fracs)
    for k in draw(st.lists(st.integers(-6, -1), max_size=3, unique=True)):
        coeffs[k] = draw(nonzero_fracs)
    mod = draw(st.sampled_from(("none", "below", "above")))
    if mod == "below" and m > 1:
        trunc_mod = draw(st.integers(1, m - 1))
    elif mod == "above":
        trunc_mod = m + draw(st.integers(1, 40))
    else:
        trunc_mod = None
    return LaurentPoly(coeffs, trunc_mod), m


@settings(max_examples=150, deadline=None)
@given(inverse_inputs())
@example((LaurentPoly({-2: 5, 0: F(-3, 7), 1: 1, 3: F(2, 9)}), 9))
@example((LaurentPoly({0: -1, 1: 1}), 64))
@example((LaurentPoly({0: F(2, 3)}, 1), 1))
def test_newton_inverse_matches_recurrence(inp):
    f, m = inp
    got = _invert_series(f, m)
    assert layout(got) == layout(invert_series_recurrence(f, m))
    assert got.trunc_mod == m


@pytest.mark.parametrize("m", [0, -3])
def test_inverse_to_a_nonpositive_order_is_empty(m):
    f = LaurentPoly({0: F(2, 3), 1: 1})
    assert layout(_invert_series(f, m)) == layout(invert_series_recurrence(f, m)) == ([], m)


def test_inverse_ignores_negative_indices_and_needs_a_constant_term():
    f = LaurentPoly({-3: 7, -1: F(1, 2), 0: 2, 2: F(-1, 5)})
    assert _invert_series(f, 12) == _invert_series(LaurentPoly({0: 2, 2: F(-1, 5)}), 12)
    prod = series_mul(_invert_series(f, 12), LaurentPoly({0: 2, 2: F(-1, 5)}, 12))
    assert prod == LaurentPoly.one(12)
    with pytest.raises(ZeroDivisionError):
        _invert_series(LaurentPoly({-1: 1, 1: 1}), 5)


UNIT_SPECS = (
    AnnulusSpec(BaseCompact.central_point(), F(1, 4), F(1, 2)),
    AnnulusSpec(BaseCompact.central_point(), 0, F(1, 8)),
    AnnulusSpec(BaseCompact.whole_space(), F(1, 16), F(1, 16)),
    AnnulusSpec(BaseCompact.segment(Place.finite(2), 1, float("inf")), F(1, 2), 2),
    AnnulusSpec(BaseCompact.star({Place.finite(3): 1}), 4, 8),
)


@st.composite
def unit_inputs(draw):
    k0 = draw(st.integers(-4, 4))
    width = draw(st.integers(1, 6))
    coeffs = {k: draw(small_fracs) for k in range(k0, k0 + width)}
    pivot = draw(st.sampled_from((k0, k0 + width - 1)))
    coeffs[pivot] = draw(st.builds(F, st.integers(1, 40), st.integers(1, 40)))
    return LaurentPoly(coeffs), draw(st.sampled_from(UNIT_SPECS)), draw(st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(unit_inputs())
@example((LaurentPoly({0: 1, 1: F(1, 3)}), UNIT_SPECS[0], 10))
@example((LaurentPoly({2: 1, 3: F(1, 3)}), UNIT_SPECS[0], 10))
@example((LaurentPoly({-2: F(1, 9), 0: 1}), UNIT_SPECS[4], 10))
def test_invert_unit_matches_triangular_recursion(inp):
    f, A, m = inp
    got, want = outcome(invert_unit, f, A, m), outcome(invert_unit_triangular, f, A, m)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert layout(got[1]) == layout(want[1])
    else:
        assert got[1] == want[1]


# -- Hensel lifting -----------------------------------------------------------

SQRT_P = [LaurentPoly({0: -1, 1: -1}), LaurentPoly.zero(), LaurentPoly.one()]


def root_layout(f):
    """The root's coefficients in ascending order, and the modulus: the lift
    stores its root so, and the full-precision loop stores its iterate in the
    order its steps first reached each index."""
    return sorted(f.coeffs.items()), f.trunc_mod


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 17, 33, 63, 64, 65])
def test_hensel_acceptance_06_matches_full_precision_loop(m):
    root, rep = _hensel_series(SQRT_P, LaurentPoly({0: 1}), m)
    want_root, want_rep = hensel_series_full_precision(SQRT_P, LaurentPoly({0: 1}), m)
    assert layout(root) == layout(want_root) == root_layout(want_root)
    assert rep.gauges == want_rep.gauges


def test_hensel_acceptance_06_takes_no_full_precision_step(monkeypatch):
    """P''/2 = 1 for P = S^2 - 1 - T decides the gauge rule at the first gauge,
    so the root comes from the doubling Newton alone: P'(x) is inverted once,
    mod T^1, and never mod T^(m - v) as an exact step inverts it."""
    precisions = []

    def spy(f, prec):
        precisions.append(prec)
        return invert(f, prec)

    invert = weierstrass._invert_series
    monkeypatch.setattr(weierstrass, "_invert_series", spy)
    root, rep = _hensel_series(SQRT_P, LaurentPoly({0: 1}), 64)
    assert precisions == [1]
    assert rep.gauges == (1, 2, 4, 8, 16, 32, 64)


@st.composite
def hensel_inputs(draw):
    """P = sum c_i S^i with P(a) = 0 mod T; simple when P'(a) is a unit at 0.
    Coefficients and seeds come from ``tiny_fracs`` at degree 1 to 4 and m up
    to 64, or from ``small_fracs`` (tall numerators, denominators up to 60)
    at degree 1 to 3 and m up to 40.  With ``lift`` set, the c_i of degree
    i >= 2 are multiplied by T^lift, so P''(f0)/2 has valuation at least lift
    and exact steps run until the gauge passes it; c_1(0) is then drawn
    nonzero, as P'(f0) = c_1(0) mod T.  Without it c_1 may be empty or zero,
    so P'(f0) is a unit only through the higher terms, or not at all.
    Sparse c_i and seeds with high terms make gauges jump past doubling."""
    coeffs = draw(st.sampled_from((tiny_fracs, small_fracs)))
    tall = coeffs is small_fracs
    a = draw(coeffs)
    deg = draw(st.integers(1, 3 if tall else 4))
    lift = draw(st.sampled_from((0, 0, 1, 2, 5)))
    width = draw(st.sampled_from((3, 8)))

    def series():
        ks = draw(st.lists(st.integers(0, width), max_size=4, unique=True))
        return {k: draw(coeffs) for k in ks}

    P = [series() for _ in range(deg + 1)]
    if lift:
        P[1][0] = draw(coeffs.filter(bool))
    P[2:] = [{k + lift: c for k, c in c_i.items()} for c_i in P[2:]]
    P = [LaurentPoly(c_i) for c_i in P]
    low = -sum((P[i].coeff(0) * a ** i for i in range(1, deg + 1)), F(0))
    P[0] = LaurentPoly({**P[0].coeffs, 0: low})
    f0 = LaurentPoly({0: a, **{k: draw(coeffs) for k in draw(st.lists(st.integers(1, 9), max_size=3))}})
    return P, f0, draw(st.integers(1, 40 if tall else 64))


@settings(max_examples=250, deadline=None)
@given(hensel_inputs())
@example(([LaurentPoly({1: -1}), LaurentPoly.one(), LaurentPoly({3: 1})], LaurentPoly.zero(), 64))  # w = 3
@example(([LaurentPoly({1: -1}), LaurentPoly.one(), LaurentPoly({9: 1})], LaurentPoly.zero(), 40))  # w = 9
@example(([LaurentPoly({0: -1, 1: -1}), LaurentPoly({0: 2})], LaurentPoly({0: F(1, 2)}), 64))  # linear
@example(([LaurentPoly({1: 1}), LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly({0: 1})],
          LaurentPoly.zero(), 64))  # P''(0)/2 = 0 but P''(r)/2 = 3 r has w = 1
@example(([LaurentPoly({0: -1, 1: -1}), LaurentPoly.zero(), LaurentPoly.one()], LaurentPoly({0: 1}), 0))  # m = 0
@example(([LaurentPoly({0: -1, 1: -1}), LaurentPoly.zero(), LaurentPoly.one()], LaurentPoly({0: 2}), 8))  # P(f0) = 3 at 0
@example(([LaurentPoly({1: -1}), LaurentPoly.zero(), LaurentPoly.one()], LaurentPoly.zero(), 8))  # P'(0) = 0
def test_hensel_matches_full_precision_loop(inp):
    P, f0, m = inp
    got = outcome(_hensel_series, P, f0, m)
    want = outcome(hensel_series_full_precision, P, f0, m)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert layout(got[1][0]) == root_layout(want[1][0])
        assert got[1][1].gauges == want[1][1].gauges
    else:
        assert got[1] == want[1]



@pytest.mark.parametrize("m", [8, 33])
def test_hensel_root_key_order_reaches_no_output(m):
    """The lift stores its root ascending; the full-precision loop stores it in
    the order its steps first reached each index, here 0, 3, 1, 2, ... from a
    seed with a T^3 term.  The ``hensel`` and ``eisenstein`` answers read no
    key order: their JSON and the eisenstein radii come out the same from
    either root."""
    P, f0 = SQRT_P, LaurentPoly({0: 1, 3: 5})
    places = [Place.infinite(), Place.finite(2), Place.finite(3)]
    root, rep = _hensel_series(P, f0, m)
    want_root, want_rep = hensel_series_full_precision(P, f0, m)
    assert root == want_root and list(root.coeffs) != list(want_root.coeffs)
    got = cli.cmd_hensel(json.dumps(P, default=jsonio.encode), None, None, None, json.dumps(jsonio.encode(f0)), m)
    assert jsonio.dumps(got) == jsonio.dumps({"root": want_root, "gauges": want_rep.gauges})
    got = cli.cmd_eisenstein(P, f0, m, places)
    radii = {"inf" if not pl.is_finite else str(pl.prime): _radius_witness(want_root, pl) for pl in places}
    assert jsonio.dumps(got) == jsonio.dumps({"root": want_root, "N": want_root.den, "radii": radii})

@settings(max_examples=100, deadline=None)
@given(hensel_inputs())
def test_series_poly_eval_is_known_mod_m_without_restating_it(inp):
    """With P and x of nonnegative support, the Horner sum of P(x) is known
    mod T^m as it stands: a closing ``with_mod(m)`` at each step changes
    nothing."""
    P, f0, m = inp
    P, x = _series_poly(P), f0.with_mod(m)
    want = LaurentPoly.zero(m)
    for c in reversed(P):
        want = series_add(series_mul(want, x), c.with_mod(m)).with_mod(m)
    got = _series_poly_eval(P, x, m)
    assert got.trunc_mod == m and layout(got) == layout(want)


def test_series_hensel_refuses_a_negative_index_in_P():
    """P(x) mod T^m is known only mod T^(m - j) when a coefficient of P has
    the index -j, so such a P is refused as a seed with one is."""
    for P in (
        [LaurentPoly({-1: -1, 0: -1}), LaurentPoly.zero(), LaurentPoly({-1: 1, 0: 1})],  # answered before
        [LaurentPoly({-1: 9, 0: -3, 1: -1}), LaurentPoly({-1: -6, 0: 1}), LaurentPoly({-1: 1})],
    ):
        with pytest.raises(ValueError, match="^series coefficients of P must have nonnegative support$"):
            _hensel_series(P, LaurentPoly({0: 1}), 4)


# -- Cartan prune and split -----------------------------------------------------

SYSTEMS = (
    SplitSystem(Place.finite(2), 1, (F(1, 32), F(1, 16))),  # perfbench narrow
    SplitSystem(Place.finite(2), 1, (F(1, 2), 2)),  # perfbench wide
    SplitSystem(Place.infinite(), F(1, 2), (F(1, 2), 2)),  # archimedean
)
CONTEXTS = tuple(
    sys_.annulus_on(V)
    for sys_ in SYSTEMS
    for V in (sys_.overlap_compact(), sys_.minus_compact(), sys_.plus_compact())
)


@st.composite
def matrices(draw, dens=(1, 2, 3, 4, 6, 8, 16, 32, 5, 10)):
    n = draw(st.sampled_from((1, 2)))
    mod = draw(st.sampled_from((None, 3, 5)))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            keys = draw(st.lists(st.integers(-3, 4), max_size=5, unique=True))
            row.append(LaurentPoly._raw(
                {k: F(draw(st.integers(-300, 300).filter(bool)), draw(st.sampled_from(dens)))
                 for k in keys if mod is None or k < mod},
                mod,
            ))
        rows.append(tuple(row))
    return SeriesMatrix(tuple(rows))


@st.composite
def prune_inputs(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    mat = draw(matrices(dens=draw(st.sampled_from(((1, 2, 4, 8, 32), (1, 2, 3, 5, 6, 10))))))
    coeffs = [(k, c) for row in mat.entries for e in row for k, c in e.coeffs.items()]
    if coeffs and draw(st.booleans()):  # tol at a coefficient's exact contribution
        k, c = draw(st.sampled_from(coeffs))
        try:
            tol = norm_bounds(c, ctx.V)[1] * radius_weight(ctx, k)
        except ArithlineError:
            tol = F(1)
    else:
        tol = F(1, 2 ** draw(st.integers(0, 40))) * draw(st.sampled_from((1, 3, F(5, 7))))
    return mat, ctx, tol


@settings(max_examples=200, deadline=None)
@given(prune_inputs())
def test_prune_matches_per_coefficient_prune(inp):
    mat, ctx, tol = inp
    assert outcome(mat.prune, ctx, tol) == outcome(prune_per_coefficient, mat, ctx, tol)


def test_prune_drops_a_term_exactly_at_tol():
    ctx = SYSTEMS[0].annulus_on(SYSTEMS[0].overlap_compact())  # |3|_2 = 1, t = 1/16
    e = LaurentPoly({1: F(1), 2: F(3)})
    pruned = SeriesMatrix(((e,),)).prune(ctx, F(1, 256))
    assert pruned.entries[0][0].coeffs == {1: F(1)}


@settings(max_examples=200, deadline=None)
@given(matrices(), st.sampled_from(SYSTEMS))
def test_split_matrix_matches_direct_split(mat, sys_):
    got_m, got_p = _split_matrix(mat, sys_)
    want_m, want_p = split_matrix_direct(mat, sys_)
    assert got_m == want_m and got_p == want_p
    for row_b, row_m, row_p in zip(mat.entries, got_m.entries, got_p.entries):
        for b, em, ep in zip(row_b, row_m, row_p):
            for k, c in b.coeffs.items():
                assert em.coeff(k) + ep.coeff(k) == c


SPLIT_SYSTEMS = SYSTEMS + (
    SplitSystem(Place.finite(3), 2),
    SplitSystem(Place.finite(5), F(1, 3)),
    SplitSystem(Place.infinite(), F(3, 4)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(fracs, st.just(F(0))), st.sampled_from(SPLIT_SYSTEMS))
def test_one_term_split_series_is_split_rational_without_certificate(a, sys_):
    minus, plus = _split_series(LaurentPoly({0: a}), sys_)
    assert (minus.coeff(0), plus.coeff(0)) == split_rational(a, sys_)[:2] == split_rational_direct(a, sys_)


# -- powers by squaring ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_series_pow_matches_successive_products(n, m):
    g = binomial_coefficient_series(n, m)
    want = LaurentPoly.one(m)
    for _ in range(n):
        want = series_mul(want, g)
    got = series_pow_by_squaring(g, n)
    assert got == want and got.trunc_mod == want.trunc_mod == m


# -- membership in bounded time ---------------------------------------------------

BIG = (2 ** 31 - 1) * (2 ** 61 - 1)  # two primes above 2^20
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _old_refusal(f, cuts):
    """The refusal the trial-division membership test gave, or None."""
    for q in sorted(naive_factor(f.denominator)):
        if q not in cuts:
            return f"{f} has a pole at the extreme point of {q}"
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-50, 50).filter(bool),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 997)), max_size=5),
    st.sets(st.sampled_from((2, 3, 5, 7, 13))),
)
def test_star_refusals_keep_their_message(num, den_primes, cuts):
    den = 1
    for q in den_primes:
        den *= q
    f = F(num, den)
    V = BaseCompact.star({Place.finite(p): 1 for p in cuts})
    want = _old_refusal(f, cuts)
    assert member_of_kv(f, V) == (want is None)
    if want is None:
        norm_bounds(f, V)
    else:
        with pytest.raises(NotInRingOfV) as exc:
            norm_bounds(f, V)
        assert str(exc.value) == want


@pytest.mark.parametrize("den, named", [
    (3 * (2 ** 31 - 1), "3"),
    (2 ** 31 - 1, "2147483647"),  # prime cofactor: named itself
    (1000003 * (2 ** 61 - 1), "1000003"),  # least factor below 2^20
    (BIG, f"a prime factor of {BIG}"),  # no factor below 2^20: the cofactor
])
def test_refusal_names_a_prime_without_factoring(den, named):
    f = F(1, den)
    with pytest.raises(NotInRingOfV) as exc:
        norm_bounds(f, BaseCompact.whole_space())
    assert str(exc.value) == f"{f} has a pole at the extreme point of {named}"
    assert not member_of_kv(f, BaseCompact.whole_space())


def test_strip_primes_and_small_prime_factor():
    assert strip_primes(2 ** 5 * 3 * 7, (2, 7)) == 3
    assert strip_primes(-12, ()) == 12
    assert small_prime_factor(35, 1 << 20) == 5
    assert small_prime_factor(97, 1 << 20) == 97
    assert small_prime_factor(BIG, 1 << 20) is None
    assert all(small_prime_factor(n, 1 << 20) == min(naive_factor(n)) for n in range(2, 2000))


def test_huge_denominator_is_refused_in_bounded_time():
    code = (
        "from fractions import Fraction\n"
        "from arithline.base_space import BaseCompact, norm_bounds\n"
        "from arithline.errors import NotInRingOfV\n"
        f"f = Fraction(1, {BIG})\n"
        "try:\n"
        "    norm_bounds(f, BaseCompact.whole_space())\n"
        "except NotInRingOfV:\n"
        "    print('refused')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=5)
    assert run.stdout == "refused\n"
    cli = subprocess.run(
        [sys.executable, "-m", "arithline.cli", "base-norm", "--f", f"1/{BIG}",
         "--V", '{"kind": "star", "cuts": []}'],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert cli.returncode == 2
    assert '"error": "NotInRingOfV"' in cli.stdout
