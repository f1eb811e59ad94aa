"""Jobs written once, against the forms they replaced.

``covers_galois._table`` is the one Cayley-table builder: each library table
is an element list and a product, Q_8 the Hamilton product on the unit
quaternions.  ``polys.fp_gcd`` is the monic gcd read from the one Euclid over
F_p, ``_fp_bezout``, and ``hensel_multi_lift`` lifts each seed against the
product of the seeds after it with one ``_fp_bezout`` per seed, in a loop
where a recursion and a pairwise gcd check were; ``_pair_lift`` takes the
cofactor's correction as (e - dg h) / g, where e s mod h was.  ``SeriesMatrix.mul`` sums
each row-by-column product list from its first term, and the Cartan loop
inverts I + b^- and I + b^+ from the split perturbations themselves.  ``cousin_cartan._neumann`` is the
one Neumann loop behind ``neumann_inverse`` and ``_approx_inverse``, and the
Cartan admissibility is the one test 4 D^2 eps <= 1/2.  The replaced forms
live in tests/oracles.py; tables, gcds, lifted factors and matrix entries
(with their moduli) must agree exactly, and so must refusals.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, NormValue, Place, SeriesMatrix, SplitSystem
from arithline import polys
from arithline.cousin_cartan import (
    CartanResult,
    _approx_inverse,
    _split_matrix,
    cartan_factorize,
    neumann_inverse,
)
from arithline.covers_galois import (
    cyclic_table,
    dihedral_table,
    direct_product_table,
    quaternion_table,
    symmetric_table,
)
from arithline.errors import ArithlineError, ToleranceNotReached
from arithline.polys import _fp_bezout, fp_gcd, fp_mul, fp_poly, fp_sub
from arithline.weierstrass import hensel_factor_lift

from oracles import (
    approx_inverse_by_loop,
    cyclic_table_by_hand,
    dihedral_table_by_hand,
    direct_product_table_by_hand,
    fp_gcd_direct,
    hensel_factor_lift_recursive,
    matrix_mul_zero_start,
    neumann_inverse_by_sum,
    pair_lift_by_bezout,
    quaternion_table_by_hand,
    symmetric_table_by_hand,
)

# -- the Cayley tables ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_tables_match_the_hand_tables(n):
    assert cyclic_table(n).table == cyclic_table_by_hand(n).table


@pytest.mark.parametrize("n", range(1, 7))
def test_dihedral_tables_match_the_hand_tables(n):
    assert dihedral_table(n).table == dihedral_table_by_hand(n).table


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetric_tables_match_the_hand_tables(n):
    assert symmetric_table(n).table == symmetric_table_by_hand(n).table


def test_quaternion_and_product_tables_match_the_hand_tables():
    assert quaternion_table().table == quaternion_table_by_hand().table
    for A, B in ((cyclic_table(3), dihedral_table(3)), (cyclic_table(2), cyclic_table(4))):
        assert direct_product_table(A, B).table == direct_product_table_by_hand(A, B).table


# -- the Euclid over F_p ------------------------------------------------------------


@st.composite
def fp_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    polys = st.lists(st.integers(0, p - 1), max_size=7).map(lambda c: fp_poly(c, p))
    return draw(polys), draw(polys), p


@settings(max_examples=500, deadline=None)
@given(fp_pairs())
@example(((), (), 5))
@example(((), (3, 2), 5))  # one zero, a non-monic other
@example(((4, 0, 2), (), 7))
@example(((1, 1), (1, 0, 1), 2))  # x^2 + 1 = (x + 1)^2 mod 2
@example(((2, 4, 2), (3, 3), 5))  # 2 (x + 1)^2 and 3 (x + 1)
def test_fp_gcd_matches_the_direct_loop(pair):
    f, g, p = pair
    assert fp_gcd(f, g, p) == fp_gcd_direct(f, g, p)


def test_fp_bezout_returns_the_monic_gcd_with_its_cofactors():
    f, g, p = (2, 4, 2), (3, 3), 5  # 2 (x + 1)^2 and 3 (x + 1)
    d, s, t = _fp_bezout(f, g, p)
    assert d == (1, 1)
    assert fp_sub(fp_mul(s, f, p), fp_sub(d, fp_mul(t, g, p), p), p) == ()  # s f + t g = d
    assert _fp_bezout((), (), p) == ((), (1,), ())


# -- the one-pass factor lift ----------------------------------------------------------


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def factor_lifts(draw):
    """G, seeds, p, N: 0-5 monic seeds of degree 0-3 and G their product over
    Z, at times with a seed sharing a root with an earlier one, a seed or a G
    that is not monic, or a G that does not match."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    coeff = st.integers(-2 * p, 2 * p)
    seeds = []
    for _ in range(draw(st.integers(0, 5))):
        if seeds and draw(st.integers(0, 5)) == 0:  # a root shared with an earlier seed
            seeds.append(_mul(draw(st.sampled_from(seeds)), draw(st.lists(coeff, max_size=1)) + [1]))
        else:
            seeds.append(draw(st.lists(coeff, max_size=3)) + [1])
    G = [1]
    for f in seeds:
        G = _mul(G, f)
    flaw = draw(st.integers(0, 9))
    if flaw == 0 and seeds:  # a seed that is not monic mod p
        seeds[draw(st.integers(0, len(seeds) - 1))][-1] = draw(st.sampled_from((0, 2, p, p + 1)))
    elif flaw == 1:  # G not monic
        G[-1] = draw(st.sampled_from((0, 2, p + 1)))
    elif flaw in (2, 3):  # G does not match the seeds
        G[draw(st.integers(0, len(G) - 1))] += draw(st.integers(1, 3))
    return G, seeds, p, draw(st.integers(1, 5))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithlineError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(factor_lifts())
@example(([-1, 0, 1], [[-1, 1], [1, 1]], 5, 3))
@example(([1, 0, 1], [[-2, 1], [2, 1]], 5, 2))
@example(([1], [], 2, 3))
@example(([1], [[1], [1], [1]], 2, 2))  # degree-0 seeds
@example(([-6, 11, -6, 1], [[-1, 1], [-2, 1], [-3, 1]], 7, 4))
@example(([2, 3, 1], [[1, 1], [2, 1], [3, 1]], 2, 2))  # T + 1 and T + 3 mod 2: factors 0 and 2
@example(([1, 2, 1], [[1], [1, 1], [1, 1]], 5, 2))  # factors 1 and 2 share a root
@example(([1, 2, 1], [[1, 1], [1, 1]], 5, 2))
@example(([1, 0, 1], [[-2, 1], [2, 2]], 5, 2))  # a non-monic seed
@example(([2, 0, 1], [[-2, 1], [2, 1]], 5, 2))  # G does not match
def test_factor_lift_matches_the_recursive_lift(case):
    G, seeds, p, N = case
    assert _outcome(hensel_factor_lift, G, seeds, p, N) == _outcome(hensel_factor_lift_recursive, G, seeds, p, N)


@st.composite
def pair_lifts(draw):
    """f, g, h, p, N: coprime monic g and h mod p of degree 0-4 and a monic f
    in Z[T] with f = g h mod p, its higher p-adic digits drawn."""
    p = draw(st.sampled_from((2, 3, 5, 7, 10007)))
    digit = st.integers(0, p - 1)
    g = fp_poly(draw(st.lists(digit, max_size=4)) + [1], p)
    h = fp_poly(draw(st.lists(digit, max_size=4)) + [1], p)
    gh = _mul(g, h)
    higher = draw(st.lists(st.integers(-p ** 4, p ** 4), min_size=len(gh) - 1, max_size=len(gh) - 1))
    f = tuple(c + p * d for c, d in zip(gh, higher + [0]))
    return f, g, h, p, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(pair_lifts())
@example(((-6, 11, -6, 1), (6, 1), (6, 2, 1), 7, 4))
@example(((1, 0, 1), (3, 1), (2, 1), 5, 8))
@example(((5, 1), (1,), (0, 1), 5, 3))  # a degree-0 g
def test_pair_lift_matches_the_bezout_step(case):
    f, g, h, p, N = case
    one, s, t = _fp_bezout(g, h, p)
    if one != (1,):
        return
    assert polys._pair_lift(f, g, h, t, p, N) == pair_lift_by_bezout(f, g, h, s, t, p, N)


def test_factor_lift_takes_one_bezout_per_seed_and_no_recursion(monkeypatch):
    calls = []

    def counting(f, g, p):
        calls.append((f, g))
        return bezout(f, g, p)

    bezout = polys._fp_bezout
    monkeypatch.setattr(polys, "_fp_bezout", counting)
    G = [-6, 11, -6, 1]
    assert hensel_factor_lift(G, [[-1, 1], [-2, 1], [-3, 1]], 7, 4) == [(2400, 1), (2399, 1), (2398, 1)]
    assert calls == [((6, 1), (6, 2, 1)), ((5, 1), (4, 1)), ((4, 1), (1,))]  # each seed against its suffix
    calls.clear()
    assert hensel_factor_lift([1], [[1]] * 1200, 2, 2) == [(1,)] * 1200  # past the recursion limit
    assert len(calls) == 1200


# -- the matrix product and the Cartan perturbations --------------------------------


@st.composite
def series_matrices(draw, rows, cols):
    mod = draw(st.sampled_from((None, 1, 3, 6)))
    entry = st.dictionaries(
        st.integers(-3, 5), st.builds(F, st.integers(-40, 40), st.integers(1, 12)), max_size=4
    ).map(lambda c: LaurentPoly(c, mod))
    return SeriesMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


@st.composite
def matrix_pairs(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))
    return draw(series_matrices(n, k)), draw(series_matrices(k, m))


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_matrix_product_matches_the_zero_start_sum(pair):
    a, b = pair
    got, want = a.mul(b), matrix_mul_zero_start(a, b)
    assert got == want
    assert [[e.trunc_mod for e in row] for row in got.entries] == [
        [e.trunc_mod for e in row] for row in want.entries
    ]


SYSTEMS = (SplitSystem(Place.finite(2), 1), SplitSystem(Place.finite(3), F(1, 2)),
           SplitSystem(Place.infinite(), F(1, 2)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: series_matrices(n, n)), st.sampled_from(SYSTEMS))
def test_the_split_perturbations_are_what_the_loop_rebuilt(b, sys_):
    """(I + b^±) - I, which the inverse once rebuilt, is b^± itself."""
    ident = SeriesMatrix.identity(b.rows)
    for side in _split_matrix(b, sys_):
        assert ident.add(side).sub(ident) == side


# -- the Neumann loop and the Cartan admissibility --------------------------------

CONTEXTS = (
    AnnulusSpec(BaseCompact.segment(Place.finite(2), 1, 1), F(1, 4), F(1, 4)),
    AnnulusSpec(BaseCompact.segment(Place.finite(3), F(1, 2), 2), F(1, 3), 1),
)
INDICES = {"positive": st.integers(1, 4), "negative": st.integers(-3, -1), "mixed": st.integers(-2, 2)}


@st.composite
def perturbations(draw):
    """n with 1 or 2 rows, its indices all positive, all negative or mixed,
    coefficients +-2^e 3^f a / b, and an optional common modulus."""
    rows = draw(st.integers(1, 2))
    index = INDICES[draw(st.sampled_from(sorted(INDICES)))]
    mod = draw(st.sampled_from((None, 2, 4, 7)))
    coeff = st.builds(
        lambda sign, e, f, a, b: sign * F(2) ** e * 3**f * F(a, b),
        st.sampled_from((1, -1)), st.integers(-1, 12), st.integers(0, 8),
        st.sampled_from((1, 5, 7)), st.sampled_from((1, 5, 7)),
    )
    entry = st.dictionaries(index, coeff, max_size=2).map(lambda c: LaurentPoly(c, mod))
    return SeriesMatrix([[draw(entry) for _ in range(rows)] for _ in range(rows)])


def outcome(fn, *args):
    """fn's answer with the moduli of its entries, or its refusal."""
    try:
        out = fn(*args)
    except Exception as e:  # any refusal must be the same, type and text
        return type(e).__name__, str(e)
    return out, [[e.trunc_mod for e in row] for row in out.entries]


@settings(max_examples=300, deadline=None)
@given(perturbations(), st.sampled_from(CONTEXTS), st.integers(1, 6))
@example(SeriesMatrix([[LaurentPoly({}, 4)]]), CONTEXTS[0], 3)  # a = I
@example(SeriesMatrix([[LaurentPoly({0: 4})]]), CONTEXTS[0], 3)  # the zero term never comes
@example(SeriesMatrix([[LaurentPoly({-1: 8})]]), CONTEXTS[0], 5)
@example(SeriesMatrix([[LaurentPoly({}), LaurentPoly({-1: 32, 0: F(1, 8), 1: 1})],
                       [LaurentPoly({}), LaurentPoly({})]]), CONTEXTS[0], 4)  # nilpotent, mixed
def test_neumann_inverse_matches_the_old_sum(n, ctx, m):
    a = SeriesMatrix.identity(n.rows).add(n)
    assert outcome(neumann_inverse, a, ctx, m) == outcome(neumann_inverse_by_sum, a, ctx, m)


@settings(max_examples=300, deadline=None)
@given(
    perturbations(),
    st.sampled_from(CONTEXTS),
    st.sampled_from((F(1, 2**8), F(1, 2**20), F(1, 2**40))),
    st.sampled_from((F(0), F(1, 2**30), F(1, 2**12))),
)
@example(SeriesMatrix([[LaurentPoly({})]]), CONTEXTS[0], F(1, 2**40), F(0))
@example(SeriesMatrix([[LaurentPoly({0: 4})]]), CONTEXTS[0], F(0), F(0))  # all 500 terms
def test_approx_inverse_matches_the_old_loop(n, ctx, target, prune_tol):
    assert outcome(_approx_inverse, n, ctx, target, prune_tol) == outcome(
        approx_inverse_by_loop, n, ctx, target, prune_tol
    )


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(SYSTEMS), st.fractions(min_value=0, max_value=1))
@example(SYSTEMS[0], F(0))
@example(SYSTEMS[0], F(2, 9))  # 1/(8D) at D = 3/2, refused
@example(SYSTEMS[0], F(1, 18))  # 1/(8 D^2), the edge
@example(SYSTEMS[2], F(1, 50))  # 1/(8 D^2) at D = 5/2
@example(SYSTEMS[2], F(1, 5))  # 1/(2D)
def test_the_admissibility_test_is_the_three_bounds(sys_, eps):
    D = sys_.D
    assert D in (F(3, 2), F(5, 2))
    three = eps < 1 / (2 * D) and 4 * D * D * eps <= F(1, 2) and eps <= 1 / (8 * D)
    assert (4 * D * D * eps <= F(1, 2)) == three


@pytest.mark.parametrize("mod", (None, 5))
@pytest.mark.parametrize("rows", (1, 2))
@pytest.mark.parametrize("sys_", SYSTEMS)
def test_the_identity_factors_on_the_main_path(sys_, rows, mod):
    """a = I passes the admissibility test and, for tol >= 0, stops at
    iteration 0 with the result the removed zero-perturbation branch returned;
    a negative tol is not reached, as for any other admissible a."""
    a = SeriesMatrix([[LaurentPoly({0: 1} if i == j else {}, mod) for j in range(rows)] for i in range(rows)])
    ident = SeriesMatrix.identity(rows)
    old = CartanResult(ident, ident, NormValue.of(0), 0, True, True, True, (F(0),))
    split = SplitSystem(sys_.place, sys_.u, (F(1, 2), 2))
    assert cartan_factorize(a, split, 64, F(1, 2**40)) == old
    assert cartan_factorize(a, split, 64, 0) == old
    with pytest.raises(ToleranceNotReached):  # as for every admissible a, residual 0 > tol
        cartan_factorize(a, split, 4, -1)
