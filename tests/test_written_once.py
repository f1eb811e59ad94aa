"""Jobs written once, against the forms they replaced.

``covers_galois._table`` is the one Cayley-table builder: each library table
is an element list and a product, Q_8 the Hamilton product on the unit
quaternions.  ``polys.fp_gcd`` is the monic gcd read from the one Euclid over
F_p, ``_fp_bezout``.  ``SeriesMatrix.mul`` sums each row-by-column product
list from its first term, and the Cartan loop inverts I + b^- and I + b^+
from the split perturbations themselves.  The replaced forms live in
tests/oracles.py; tables, gcds and matrix entries (with their moduli) must
agree exactly.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import LaurentPoly, Place, SeriesMatrix, SplitSystem
from arithline.cousin_cartan import _split_matrix
from arithline.covers_galois import (
    cyclic_table,
    dihedral_table,
    direct_product_table,
    quaternion_table,
    symmetric_table,
)
from arithline.polys import fp_gcd, fp_poly

from oracles import (
    cyclic_table_by_hand,
    dihedral_table_by_hand,
    direct_product_table_by_hand,
    fp_gcd_direct,
    matrix_mul_zero_start,
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
