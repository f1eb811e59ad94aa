"""One implementation per job, against the second copies it replaced.

``weierstrass.hensel_lift_root`` is the one p-adic Newton lift: the covers
lift their root of unity with it on the sparse X^n - 1, and it reduces P and
P' to integers once per modulus.  The seed of the root of unity is the least
one, found by an upward scan and the powers of z0 run in step.
``base_space.shilov_base`` is the one case analysis of which points realize
||.||_V: ``base_space._norm_endpoints`` compiles the norm terms from it, with
the ``pole`` that is the one pole test of K(V), and
``base_space.is_archimedean_compact`` reads the compiled archimedean terms;
``norm_bounds`` must match the terms compiled case by case on the shape of V
(value and refusal, at two precisions) and the max over ``shilov_base``;
every compact compiles to at least one term.
``polys.rational_roots`` lists divisors from ``numbers.factor``, and
``find_prime_congruent`` walks the progression 1 mod n.  Q[T] runs on integer
numerators over one denominator: ``polys.pdivide`` is the one pseudo-division,
for ``weierstrass._euclid`` and ``polys.p_multiplicity``, and ``Gauss`` is a
value without arithmetic; shift, evaluation, division, multiplicity and the
resultant must match the Fraction routines.  The replaced forms live in
tests/oracles.py; results and refusals must agree exactly.
"""

import ast
import contextvars
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arithline
from arithline import BaseCompact, BasePoint, PadicApprox, Place, errors, hensel_lift_root
from arithline.base_space import (
    _norm_endpoints,
    base_norm,
    eval_base_seminorm,
    is_archimedean_compact,
    member_of_kv,
    norm_bounds,
    shilov_base,
)
from arithline import covers_galois
from arithline.covers_galois import find_prime_congruent, primitive_root_of_unity
from arithline.errors import CannotCertify, CannotFactor, CongruenceFails, NotInRingOfV
from arithline.normvalue import RESULTANT_WORK, default_bits, nv_max, set_default_bits
from arithline.numbers import is_prime
from arithline import polys
from arithline.cli import main
from arithline.polys import (
    ROOT_CANDIDATES,
    Gauss,
    _quartic_splits,
    gauss_value,
    is_irreducible_q,
    numerators,
    p_multiplicity,
    pdivide,
    poly,
    pshift,
    rational_roots,
    sylvester_resultant,
)

from oracles import (
    find_prime_congruent_unit_step,
    frac_horner,
    frac_horner_gauss,
    frac_multiplicity,
    frac_norm_bounds,
    frac_sylvester_det,
    frac_taylor_shift,
    hensel_padic_fraction_eval,
    is_archimedean_by_shape,
    kv_pole_refusal,
    member_of_kv_by_case,
    norm_endpoints_by_case,
    primitive_root_by_search,
    quartic_splits_trial,
    rational_roots_trial,
    schoolbook_divmod,
    trial_divisors,
)

SRC = str(pathlib.Path(arithline.__file__).resolve().parents[1])
PRIMES = [q for q in range(2, 400) if is_prime(q)]


def outcome(fn, *args):
    """The result of fn(*args), or the type and text of what it raised.  The
    Fraction oracles refuse input with a plain ValueError, which stands for
    exactly the library's BadInput."""
    try:
        return fn(*args)
    except (errors.ArithlineError, ValueError) as exc:
        return errors.BadInput if type(exc) is ValueError else type(exc), str(exc)


# -- the p-adic lift -------------------------------------------------------------

coeffs = st.builds(F, st.integers(-60, 60), st.sampled_from((1, 1, 2, 3, 5, 7, 9, 25)))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(coeffs, min_size=0, max_size=6),
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
    st.integers(1, 40),
)
@example([-2, 0, 1], 7, 1, 3, 30)
@example([0, 0, 1], 5, 1, 0, 3)
@example([-1, 0, 0, 0, 1], 13, 1, 5, 17)
@example([F(1, 3), 1], 3, 1, 0, 4)
def test_hensel_padic_matches_fraction_evaluation(P, p, n0, seed, N):
    f0 = PadicApprox(p, n0, seed)
    want = outcome(hensel_padic_fraction_eval, P, f0, N)
    got = outcome(hensel_lift_root, P, f0, N)
    if isinstance(want, tuple) and isinstance(want[0], PadicApprox):
        root, report = got
        assert (root, report.gauges) == want
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 60), coeffs, max_size=4),
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.integers(1, 3),
    st.integers(0, 10 ** 6),
    st.integers(1, 40),
)
@example({0: -1, 12: 1}, 13, 1, 2, 9)
@example({0: -2, 2: 1, 40: 0}, 7, 1, 3, 5)
def test_hensel_padic_sparse_matches_dense(P, p, n0, seed, N):
    f0 = PadicApprox(p, n0, seed)
    dense = [P.get(i, 0) for i in range(max(P, default=-1) + 1)]
    assert outcome(hensel_lift_root, P, f0, N) == outcome(hensel_lift_root, dense, f0, N)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 40), st.integers(1, 12))
@example(7, 3, 2)
@example(13, 12, 5)
@example(2, 1, 4)
@example(3, 2, 1)
def test_primitive_root_matches_search_and_newton(p, n, N):
    assert outcome(primitive_root_of_unity, n, p, N) == outcome(primitive_root_by_search, n, p, N)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([q for q in PRIMES if q > 2]), st.integers(1, 12))
def test_primitive_root_for_every_divisor_of_p_minus_1(p, N):
    for n in range(1, p):
        if (p - 1) % n == 0:
            assert primitive_root_of_unity(n, p, N) == primitive_root_by_search(n, p, N)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([q for q in PRIMES if q > 2]), st.integers(3, 40), st.data())
@example(191, 19, None)  # 19 is the least primitive root mod 191: refused
@example(191, 20, None)
def test_root_search_refuses_past_its_steps(p, steps, data):
    n = p - 1 if data is None else data.draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
    least = primitive_root_by_search(n, p, 1).residue
    saved = covers_galois.ROOT_SEARCH_STEPS
    covers_galois.ROOT_SEARCH_STEPS = steps
    try:
        got = outcome(primitive_root_of_unity, n, p, 2)
    finally:
        covers_galois.ROOT_SEARCH_STEPS = saved
    if min(least, n) < steps:  # the scan reaches `least` or the powers reach z0^(n-1)
        assert got == primitive_root_by_search(n, p, 2)
    else:
        assert got == (CannotCertify, f"no primitive {n}-th root of unity mod {p} within {steps} steps")


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 400).filter(lambda q: not is_prime(q)), st.integers(1, 12), st.integers(1, 4))
@example(9, 2, 2)
@example(1, 2, 1)
@example(15, 2, 1)
def test_composite_p_is_refused_first(p, n, N):
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        primitive_root_of_unity(n, p, N)
    kind, _ = outcome(primitive_root_by_search, n, p, N)
    assert kind in (errors.BadInput, CongruenceFails)  # the order the search refused in


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.sampled_from((0, 1, 2, 10, 100, 1000, 10000)) | st.integers(0, 5000))
def test_find_prime_walks_the_progression(n, bound):
    assert outcome(find_prime_congruent, n, bound) == outcome(find_prime_congruent_unit_step, n, bound)


# -- K(V): the pole test and the archimedean test --------------------------------

places = st.sampled_from((2, 3, 5, 7)).map(Place.finite) | st.just(Place.infinite())
exps = st.builds(F, st.integers(0, 6), st.integers(1, 3))


@st.composite
def compacts(draw):
    place = draw(places)
    if draw(st.booleans()):
        length = 1 if not place.is_finite else None
        u = draw(exps)
        v = draw(exps)
        u, v = sorted((u, v))
        if length is not None:
            u, v = min(u, 1), min(v, 1)
        elif draw(st.booleans()):
            v = float("inf")
            if draw(st.booleans()):
                u = float("inf")
        return BaseCompact.segment(place, u, v)
    cuts = {}
    for pl in draw(st.lists(places, unique=True, max_size=4)):
        c = draw(exps)
        cuts[pl] = min(c, 1) if not pl.is_finite else c
    return BaseCompact.star(cuts)


rationals = st.builds(
    F,
    st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from((1, 2, 3, 4, 6, 10, 35, 49, 11 * 13, 2 ** 31 - 1, (2 ** 31 - 1) * (2 ** 61 - 1))),
)


@settings(max_examples=500, deadline=None)
@given(rationals, compacts())
@example(F(1, 5), BaseCompact.segment(Place.finite(5), 1, float("inf")))
@example(F(1, 10), BaseCompact.star({Place.finite(2): 1}))
@example(F(1, (2 ** 31 - 1) * (2 ** 61 - 1)), BaseCompact.whole_space())
def test_pole_test_matches_the_case_checks(f, V):
    assert member_of_kv(f, V) == member_of_kv_by_case(f, V)
    text = kv_pole_refusal(f, V)
    if text is None:
        norm_bounds(f, V)
    else:
        with pytest.raises(NotInRingOfV) as got:
            norm_bounds(f, V)
        assert str(got.value) == text
    assert member_of_kv(f, V) == (text is None)


@settings(max_examples=300, deadline=None)
@given(compacts())
@example(BaseCompact.central_point())
@example(BaseCompact.whole_space())
@example(BaseCompact.star({Place.infinite(): 0}))
@example(BaseCompact.segment(Place.infinite(), F(1, 2), F(1, 2)))
@example(BaseCompact.segment(Place.finite(3), float("inf"), float("inf")))
def test_archimedean_test_reads_the_compiled_terms(V):
    assert is_archimedean_compact(V) == is_archimedean_by_shape(V)


# -- the norms: the Shilov boundary, compiled ------------------------------------

INF = float("inf")
finite_ends = st.sampled_from((F(0), F(1), INF)) | st.builds(F, st.integers(1, 12), st.integers(2, 4))
arch_ends = st.sampled_from((F(0), F(1))) | st.builds(lambda a, b: F(a, a + b), st.integers(1, 3), st.integers(1, 3))


@st.composite
def shilov_compacts(draw):
    """Segments with ends 0, fractional and inf (at most 1 on the archimedean
    branch); stars with finite cuts 0, fractional, 1 and inf, with or
    without an archimedean cut."""
    if draw(st.booleans()):
        place = draw(places)
        u, v = sorted(draw(st.lists(finite_ends if place.is_finite else arch_ends, min_size=2, max_size=2)))
        return BaseCompact.segment(place, u, v)
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), unique=True, max_size=3))
    cuts = {Place.finite(q): draw(finite_ends) for q in primes}
    if draw(st.booleans()):
        cuts[Place.infinite()] = draw(arch_ends)
    return BaseCompact.star(cuts)


@settings(max_examples=300, deadline=None)
@given(shilov_compacts())
@example(BaseCompact.central_point())
@example(BaseCompact.star({Place.infinite(): 0}))
@example(BaseCompact.star({Place.finite(2): 0, Place.infinite(): 0}))
@example(BaseCompact.segment(Place.finite(3), INF, INF))
@example(BaseCompact.segment(Place.finite(5), F(3, 2), INF))
def test_every_compact_compiles_to_a_term(V):
    """``shilov_base`` lists at least one point of every compact, so
    ``_norm_endpoints`` compiles at least one term and ``norm_bounds_each``
    has no empty case.  A finite term (p, a, k) is a point a_p^(a/k) of the
    boundary, a/k in lowest terms."""
    points = shilov_base(V)
    assert points
    has_trivial, finite_terms, arch_terms, extreme, *_ = _norm_endpoints(V)
    assert has_trivial or finite_terms or arch_terms or extreme
    for p, a, k in finite_terms:
        assert k >= 1 and gcd(a, k) == 1
        assert BasePoint.finite(p, F(a, k)) in points


def _norms_at(bits, f, V):
    set_default_bits(bits)
    want = outcome(frac_norm_bounds, f, V)
    assert outcome(norm_bounds, f, V) == want
    assert is_archimedean_compact(V) == bool(norm_endpoints_by_case(V)[2])
    if isinstance(want[0], type):
        return  # refused alike
    nrm = base_norm(f, V)
    best = nv_max(eval_base_seminorm(f, x) for x in shilov_base(V))
    if nrm.is_exact and best.is_exact:
        assert nrm.exact == best.exact
    else:
        assert nrm.overlaps(best)


@settings(max_examples=600, deadline=None)
@given(rationals, shilov_compacts())
@example(F(1, 2), BaseCompact.star({Place.finite(2): 0}))
@example(F(3), BaseCompact.star({Place.finite(2): 0}))
@example(F(1, 5), BaseCompact.star({Place.finite(5): 0, Place.infinite(): F(1, 2)}))
@example(F(2, 3), BaseCompact.star({Place.finite(3): F(1, 2), Place.infinite(): F(1, 3)}))
@example(F(6, 35), BaseCompact.segment(Place.finite(5), F(1, 2), INF))
@example(F(10), BaseCompact.segment(Place.finite(5), INF, INF))
def test_norms_read_the_shilov_boundary(f, V):
    """norm_bounds and is_archimedean_compact against the case-by-case terms,
    and ||f||_V against the max of |f| over shilov_base(V), at the default
    precision and at 8 bits."""
    for bits in (default_bits(), 8):
        contextvars.copy_context().run(_norms_at, bits, f, V)


# -- rational roots --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(-200, 200), st.sampled_from((1, 2, 3, 4, 6))), min_size=1, max_size=5)
    .filter(lambda c: any(c)),
    st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 4)), max_size=2),
)
@example([F(-1), F(0), F(1)], [])
@example([F(0), F(0), F(6), F(-5), F(1)], [])
@example([F(720720)], [F(-9, 4), F(-4)])
def test_rational_roots_match_trial_division(base, roots):
    f = poly(base)
    for r in roots:  # multiply in known roots so there is something to find
        f = poly([(f[i - 1] if i else 0) - r * (f[i] if i < len(f) else 0) for i in range(len(f) + 1)])
    try:
        got = rational_roots(f)
    except CannotCertify:
        a0, an = integer_ends(f)
        assert len(trial_divisors(a0)) * len(trial_divisors(an)) > ROOT_CANDIDATES
        return
    assert got == rational_roots_trial(f)


small = st.builds(F, st.integers(-30, 30), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(small, small, small, small, st.lists(small, min_size=4, max_size=4) | st.just([F(0)] * 4))
@example(F(1), F(0), F(1), F(0), [F(0)] * 4)
@example(F(2), F(0), F(-3), F(1), [F(0)] * 4)
def test_quartic_split_search_matches_trial_division(b1, a1, b2, a2, noise):
    """(U^2 + a1 U + b1)(U^2 + a2 U + b2), or that product moved off a split."""
    f = [b1 * b2, a1 * b2 + a2 * b1, b1 + b2 + a1 * a2, a1 + a2]
    f = poly([c + d for c, d in zip(f, noise)] + [1])
    if f[0] == 0 or rational_roots(f):
        return
    assert _quartic_splits(f) == quartic_splits_trial(f)


def integer_ends(f):
    """|a_0| and |a_n| of f without its zero roots, cleared of denominators and content."""
    f = f[next(k for k, c in enumerate(f) if c):]
    den = 1
    for c in f:
        den *= c.denominator
    g = [int(c * den) for c in f]
    content = gcd(*g)
    return abs(g[0]) // content, abs(g[-1]) // content


def test_too_many_candidates_are_refused():
    a0 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47  # 2^15 divisors
    assert 2 ** 15 > ROOT_CANDIDATES
    with pytest.raises(CannotCertify):
        rational_roots(poly([a0, 0, 1]))
    with pytest.raises(CannotCertify):
        is_irreducible_q(poly([a0, 0, 0, 0, 1]))
    assert rational_roots(poly([-a0 // 47, 0, 0, 1])) == []  # 2^14 candidates: searched


def test_unfactorable_constant_is_refused():
    with pytest.raises(CannotFactor):
        rational_roots(poly([(2 ** 61 - 1) * (2 ** 89 - 1), 0, 1]))


# -- dense Q[T] on integer numerators ---------------------------------------------

# zero half the time, else up to 20 bits over denominators from 1 to 2^30
qcoeffs = st.just(F(0)) | st.builds(
    F, st.integers(-10 ** 6, 10 ** 6), st.sampled_from((1, 1, 2, 3, 12, 1024, 3 ** 9, 10 ** 9 + 7))
)
qpolys = st.lists(qcoeffs, max_size=7).map(poly)


def conv(a, b):
    """The product of two ascending coefficient lists."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=400, deadline=None)
@given(qpolys, qcoeffs, qcoeffs)
@example((), F(1, 2), F(3))
@example((F(5, 3),), F(0), F(0))
@example(poly([1, 0, 1]), F(0), F(1))
@example(poly([F(1, 3), F(-2, 7), F(5, 1024)]), F(-7, 12), F(0))
def test_shift_and_evaluation_match_fractions(f, a, b):
    n, D = numerators(f)
    assert tuple(F(c, D) for c in n) == f
    assert pshift(f, a) == frac_taylor_shift(f, a)
    for z in (Gauss(a, b), Gauss(a)):
        X, Y, S = gauss_value(n, D, z)
        assert (F(X, S), F(Y, S)) == frac_horner_gauss(f, z.re, z.im)
        if z.im == 0:
            assert Y == 0 and F(X, S) == frac_horner(f, z.re)


ints = st.lists(st.integers(-10 ** 4, 10 ** 4) | st.just(0), max_size=8)


@settings(max_examples=400, deadline=None)
@given(ints, ints.filter(lambda g: g and g[-1]))
@example([], [3])
@example([5], [0, 2])
@example([1, 2, 3, 4], [-7])
@example([0, 0, 0, 6], [1, 0, 4])
def test_pseudo_division_matches_long_division(f, g):
    """s f = q g + r with s > 0 and deg r < deg g, and q / s, r / s are the
    Fraction long division."""
    s, q, r = pdivide(f, g)
    assert s > 0 and len(r) < len(g)
    lhs = [s * c for c in f]
    rhs = conv(q, g)
    size = max(len(lhs), len(rhs), len(r))
    pad = lambda v: v + [0] * (size - len(v))  # noqa: E731
    assert pad(lhs) == [a + b for a, b in zip(pad(rhs), pad(r))]
    want_q, want_r = schoolbook_divmod(f, g)
    assert poly(F(c, s) for c in q) == tuple(want_q)
    assert poly(F(c, s) for c in r) == tuple(want_r)


@settings(max_examples=300, deadline=None)
@given(qpolys.filter(lambda P: len(P) >= 2), st.integers(0, 3), qpolys.filter(bool))
@example(poly([-1, 1]), 2, poly([1, 1]))
@example(poly([F(1, 2), 0, F(3, 7)]), 3, poly([F(5, 9)]))
@example(poly([0, 1]), 1, poly([0, 0, 2]))
def test_multiplicity_matches_long_division(P, k, h):
    f = h
    for _ in range(k):
        f = poly(conv(f, P))
    assert p_multiplicity(f, P) == frac_multiplicity(f, P)


@settings(max_examples=300, deadline=None)
@given(qpolys, qpolys)
@example((), ())
@example((), (F(2),))
@example((F(3, 2),), poly([1, 2, 3]))
@example(poly([0, 0, 0, 1]), poly([1, 0, 1]))
@example(poly([-2, 1, 1]), poly([0, -1, 1]))  # the common root 1
@example(poly([F(1, 3), F(2, 5)]), poly([F(7, 2), 0, F(-1, 9)]))
def test_resultant_matches_fraction_elimination(f, g):
    assert outcome(sylvester_resultant, f, g) == outcome(frac_sylvester_det, f, g)


def test_one_pseudo_division():
    """pdivide is called by _euclid and p_multiplicity and by nothing else, and
    the Fraction kernels it replaced are gone."""
    callers = set()
    for path in pathlib.Path(SRC, "arithline").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Name) and node.id == "pdivide" for node in ast.walk(fn)
            ):
                callers.add(fn.name)
    assert callers == {"_euclid", "p_multiplicity"}
    for name in ("pdivmod", "pscale", "peval", "peval_gauss"):
        assert not hasattr(polys, name)


def test_gauss_is_a_value():
    arith = {f"__{pre}{op}__" for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow")
             for pre in ("", "r", "i")} | {"__neg__", "__pos__", "__abs__"}
    assert not arith & set(vars(Gauss))
    assert not hasattr(Gauss, "norm2") and not hasattr(Gauss, "_coerce")
    z = Gauss(F(1, 2), -3)
    assert (z.re, z.im, repr(z)) == (F(1, 2), F(-3), "Gauss(1/2, -3)")
    assert z == Gauss(F(2, 4), F(-3)) and hash(z) == hash(Gauss(F(1, 2), -3)) and z != Gauss(F(1, 2))


def test_resultant_budget_refuses_a_large_condition_rg(capsys):
    """A degree-399 G: its 797x797 Sylvester matrix is refused before elimination."""
    G = json.dumps([str(k % 7 - 3) for k in range(399)] + ["1"])
    U = '{"kind": "segment", "place": 2, "u": "1", "v": "inf"}'
    start = time.perf_counter()
    code = main(["condition-rg", "--U", U, "--G", G])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert 797 ** 3 * ((797 * 11 + 63) // 64) ** 2 > RESULTANT_WORK
    assert json.loads(captured.out) == {
        "v": 1, "error": "CannotCertify",
        "detail": f"a 797x797 Sylvester determinant of 11-bit entries exceeds {RESULTANT_WORK}",
    }
    assert elapsed < 1


# -- error codes -----------------------------------------------------------------

PARENT_CODES = {
    "ArithlineError": "DomainError",
    "ZeroInput": "ZeroInput",
    "NonIntegralAtExtremePoint": "NonIntegralAtExtremePoint",
    "NotInRingOfV": "NotInRingOfV",
    "IncompatiblePoint": "IncompatiblePoint",
    "NonIntegralCoefficients": "NonIntegralCoefficients",
    "FlowOutOfDomain": "FlowOutOfDomain",
    "IrrationalRadius": "IrrationalRadius",
    "NegativePowersOnDisk": "NegativePowersOnDisk",
    "ArchimedeanBase": "ArchimedeanBase",
    "NotAUnit": "NotAUnit",
    "OrderingViolated": "OrderingViolated",
    "NotMonic": "NotMonic",
    "RadiusBelowThreshold": "RadiusBelowThreshold",
    "NoContractionRadiusFound": "NoContractionRadiusFound",
    "ValuationUndefined": "ValuationUndefined",
    "NotSimpleRoot": "NotSimpleRoot",
    "NoConvergence": "NoConvergence",
    "NotCoprime": "NotCoprime",
    "ProductMismatch": "ProductMismatch",
    "NotSeparable": "NotSeparable",
    "RadiusTooSmall": "RadiusTooSmall",
    "DeltaNotAchievable": "DeltaNotAchievable",
    "NormTooLarge": "NormTooLarge",
    "EpsilonTooLarge": "EpsilonTooLarge",
    "ToleranceNotReached": "ToleranceNotReached",
    "NoneFound": "NoneFound",
    "CongruenceFails": "CongruenceFails",
    "PDividesN": "PDividesN",
    "PrecisionInsufficient": "PrecisionInsufficient",
    "NotLiftable": "NotLiftable",
    "UnknownSuite": "UnknownSuite",
    "BadDescriptor": "BadDescriptor",
    "CannotCertify": "CannotCertify",
    "CannotFactor": "CannotFactor",
}


# codes of the classes added since, each its class name as well
LATER_CODES = {"OutputTooLarge": "OutputTooLarge", "BadInput": "BadInput"}


def test_error_codes_are_the_parent_literals():
    classes = {
        name: obj
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ArithlineError)
    }
    assert len(classes) == 37
    assert {name: cls.code for name, cls in classes.items()} == {**PARENT_CODES, **LATER_CODES}
    assert {name: cls().detail for name, cls in classes.items()} == {**PARENT_CODES, **LATER_CODES}


# -- calls that hung or ran out of memory, or would without a bounded seed search, a sparse
# lift, COVER_TERMS, BINOMIAL_BITS and POW_BITS --

POW_REFUSAL = {"v": 1, "error": "CannotCertify", "detail": "x ** e exceeds the budget of 65536 bits of work"}

HANGS = [
    (["find-prime", "--n", "100000000000", "--bound", "1000000000000"], 2,
     {"v": 1, "error": "NoneFound", "detail": "no prime = 1 mod 100000000000 up to 1000000000000"}),
    (["zeta", "--n", "2", "--p", "1000000000039", "--N", "2"], 0,
     {"v": 1, "zeta": {"p": 1000000000039, "N": 2, "residue": 1000000000078000000001520}}),
    (["zeta", "--n", "1000000006", "--p", "1000000007", "--N", "1"], 0,
     {"v": 1, "zeta": {"p": 1000000007, "N": 1, "residue": 5}}),
    (["zeta", "--n", "1048583", "--p", "10485834194333", "--N", "2"], 2,
     {"v": 1, "error": "CannotCertify",
      "detail": "no primitive 1048583-th root of unity mod 10485834194333 within 262144 steps"}),
    (["eval-line", "--F", "[1,1]", "--point",
      '{"base":{"place":null,"exp":"0"},"fiber":{"kind":"trivc",'
      '"P":["1000000000000000000000000000057","0","1"],"r":"1/2"}}'], None, None),
    (["cover", "--n", "1000000006", "--p", "1000000007", "--m", "2", "--N", "1"], 2,
     {"v": 1, "error": "CannotCertify", "detail": "a cover with n*m = 2000000012 terms exceeds 1024"}),
    (["cover", "--n", "3", "--p", "7", "--m", "100000", "--N", "4"], 2,
     {"v": 1, "error": "CannotCertify", "detail": "a cover with n*m = 300000 terms exceeds 1024"}),
    (["binomial", "--n", "1000000", "--m", "178"], 2,
     {"v": 1, "error": "CannotCertify", "detail": "a binomial series with m*bits(n) = 3560 exceeds 1024"}),
    (["binomial", "--n", str(2 ** 60), "--m", "300"], 2,
     {"v": 1, "error": "CannotCertify", "detail": "a binomial series with m*bits(n) = 18300 exceeds 1024"}),
    (["cousin-split", "--a", "5/6", "--place", "2", "--u", "1099511627776"], 2, POW_REFUSAL),
    (["base-norm", "--f", "2", "--V",
      '{"kind":"segment","place":"inf","u":"1/100000000","v":"1/100000000"}'], 2, POW_REFUSAL),
    (["eval-base", "--f", "2", "--point", '{"place":"inf","exp":"1/1000000000"}'], 2, POW_REFUSAL),
]


@pytest.mark.parametrize(
    "argv,code,want",
    HANGS,
    ids=["find-prime", "zeta", "zeta-large-n", "zeta-refused", "eval-line", "cover-large-n", "cover-large-m",
         "binomial-large-n", "binomial-n-2^60", "cousin-split-huge-u", "base-norm-tiny-root", "eval-base-tiny-root"],
)
def test_former_hangs_answer_within_five_seconds(argv, code, want):
    proc = subprocess.run(
        [sys.executable, "-m", "arithline.cli", *argv],
        capture_output=True, text=True, timeout=5, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode in (0, 2), proc.stderr
    out = json.loads(proc.stdout)
    assert out["v"] == 1
    if code is not None:
        assert (proc.returncode, out) == (code, want)
