from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithline import (
    CoverDescriptor,
    GroupTable,
    LaurentPoly,
    PadicApprox,
    Place,
    binomial_root_series,
    cyclic_cover_split,
    eisenstein_witness,
    find_prime_congruent,
    group_cover_data,
    mu_homomorphism,
    primitive_root_of_unity,
    standard_group_tables,
)
from arithline.covers_galois import (
    GROUP_ORDER,
    STANDARD_GROUPS,
    _is_root_of_one_plus_z,
    binomial_coefficient_series,
    cyclic_table,
    direct_product_table,
    dihedral_table,
    quaternion_table,
    symmetric_table,
)
from arithline.series_ring import series_add, series_mul
from arithline.errors import BadDescriptor, BadInput, CannotCertify, CongruenceFails, NoneFound, NotLiftable, PDividesN
from arithline.numbers import vp

from oracles import (
    binomial_series_fraction,
    cover_power_by_loop,
    group_table_by_triples,
    mu_flags_pointwise,
    series_pow_by_squaring,
)


def test_find_prime_examples():
    assert find_prime_congruent(3) == 7
    assert find_prime_congruent(2) == 3
    assert find_prime_congruent(1) == 2
    assert find_prime_congruent(8) == 17
    with pytest.raises(NoneFound):
        find_prime_congruent(100, bound=100)


def test_primitive_root_examples():
    # exhaustive oracle mod 7: order-3 elements are 2 and 4; least is 2
    orders = {z: min(k for k in range(1, 7) if pow(z, k, 7) == 1) for z in range(1, 7)}
    assert [z for z, o in orders.items() if o == 3] == [2, 4]
    assert primitive_root_of_unity(3, 7, 1).residue == 2
    z2 = primitive_root_of_unity(3, 7, 2)
    assert z2.residue == 30 and pow(30, 3, 49) == 1
    assert primitive_root_of_unity(1, 5, 3).residue == 1
    with pytest.raises(CongruenceFails):
        primitive_root_of_unity(3, 5, 1)


def test_lifting_consistency():
    for N in range(2, 6):
        big = primitive_root_of_unity(3, 7, N)
        small = primitive_root_of_unity(3, 7, N - 1)
        assert big.residue % 7 ** (N - 1) == small.residue


def test_binomial_examples():
    g, report = binomial_root_series(2, 3)
    assert g == LaurentPoly({0: 1, 1: Fraction(1, 2), 2: Fraction(-1, 8)}, 3)
    assert report.power_identity_ok
    # oracle: expand (1 + Z/2 - Z^2/8)^2 by hand mod Z^3
    sq = series_mul(g, g)
    assert sq == LaurentPoly({0: 1, 1: 1}, 3)
    g1, rep1 = binomial_root_series(1, 6)
    assert g1 == LaurentPoly({0: 1, 1: 1}, 6) and rep1.power_identity_ok
    g3, rep3 = binomial_root_series(3, 3, p=7)
    assert g3.coeff(2) == Fraction(-1, 9)
    assert vp(Fraction(-1, 9), 7) == 0 and rep3.integral_at_p
    with pytest.raises(PDividesN):
        binomial_root_series(4, 5, p=2)
    for p in (4, 0, 1, -7):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            binomial_root_series(3, 5, p=p)


def test_binomial_budget():
    from arithline.covers_galois import BINOMIAL_BITS

    assert BINOMIAL_BITS == 1024
    binomial_root_series(8, 201)  # the tallest series the checks build: 201 * 4 bits
    binomial_root_series(1, 1024)
    with pytest.raises(CannotCertify, match="m\\*bits\\(n\\) = 1025 exceeds 1024"):
        binomial_root_series(1, 1025)
    with pytest.raises(CannotCertify):
        binomial_root_series(2 ** 60, 300)


def test_binomial_identity_and_integrality_sweep():
    for n in range(1, 9):
        g, report = binomial_root_series(n, 64)
        assert report.power_identity_ok, n
        # p-integrality for p = 1 mod n, p < 100, over the first 200 coefficients
        g200, _ = binomial_root_series(n, 201)
        for p in range(2, 100):
            from arithline.numbers import is_prime

            if not is_prime(p) or p % n != 1:
                continue
            assert all(vp(c, p) >= 0 for c in g200.coeffs.values() if c), (n, p)


def test_cover_descriptor_and_split():
    d2 = CoverDescriptor.build(2, 3, 3, 6)
    r2 = cyclic_cover_split(d2)
    assert r2.zero_at_precision
    d3 = CoverDescriptor.build(3, 7, 3, 4)
    r3 = cyclic_cover_split(d3)
    assert r3.zero_at_precision
    d4 = CoverDescriptor.build(4, 5, 3, 6)
    r4 = cyclic_cover_split(d4)
    assert r4.zero_at_precision
    d1 = CoverDescriptor.build(1, 3, 4, 4)
    assert cyclic_cover_split(d1).zero_at_precision


def test_cover_split_more_precision_never_hurts():
    base = cyclic_cover_split(CoverDescriptor.build(3, 7, 3, 4))
    more = cyclic_cover_split(CoverDescriptor.build(3, 7, 3, 8))
    assert base.zero_at_precision and more.zero_at_precision
    assert min((v for *_, v in more.defects), default=8) >= 8


def test_bad_descriptor_rejected():
    with pytest.raises(BadDescriptor):
        CoverDescriptor(n=3, p=5, zeta=PadicApprox(5, 2, 1), m=3, g=LaurentPoly.one(3))
    with pytest.raises(BadDescriptor):
        CoverDescriptor(n=2, p=3, zeta=PadicApprox(3, 2, 1), m=3, g=LaurentPoly.one(3))
    zeta = primitive_root_of_unity(2, 3, 2)
    for m in (0, -1):  # refused before the power check, whatever g is
        with pytest.raises(BadDescriptor, match="m must be >= 1"):
            CoverDescriptor(n=2, p=3, zeta=zeta, m=m, g=LaurentPoly.one())


def test_eisenstein_witness_examples():
    P = [LaurentPoly({0: -1, 1: -1}), LaurentPoly.zero(), LaurentPoly.one()]
    w = eisenstein_witness(P, LaurentPoly({0: 1}), 6, [Place.infinite(), Place.finite(3)])
    assert w.N == 256  # powers of two only
    assert w.N & (w.N - 1) == 0
    inf_radius = w.radii[Place.infinite()]
    assert inf_radius > 0
    assert w.radii[Place.finite(3)] >= 1  # odd-place coefficients are integral
    # trivial case: P = S - T
    w2 = eisenstein_witness([LaurentPoly({1: -1}), LaurentPoly.one()], LaurentPoly.zero(), 6, [Place.infinite()])
    assert w2.N == 1 and w2.radii[Place.infinite()] == 1
    # 2-adically integral variant: S^2 - (1 + 4T)
    P3 = [LaurentPoly({0: -1, 1: -4}), LaurentPoly.zero(), LaurentPoly.one()]
    w3 = eisenstein_witness(P3, LaurentPoly({0: 1}), 6, [Place.finite(2)])
    assert all(vp(c, 2) >= 0 for c in w3.root.coeffs.values())
    assert w3.radii[Place.finite(2)] >= 1
    with pytest.raises(NotLiftable):
        eisenstein_witness([LaurentPoly({1: -1}), LaurentPoly.zero(), LaurentPoly.one()], LaurentPoly.zero(), 4, [])


def test_group_table_validation():
    with pytest.raises(ValueError):
        GroupTable([[1, 2], [1, 2]])  # no inverse row for 2 / not a group
    Z3 = cyclic_table(3)
    assert Z3.identity == 1 and Z3.order_of(2) == 3


def test_group_order_budget_is_checked_before_any_entry():
    with pytest.raises(CannotCertify, match=f"order {GROUP_ORDER + 1} exceeds the GROUP_ORDER budget"):
        GroupTable([["x"]] * (GROUP_ORDER + 1))
    with pytest.raises(BadInput, match="invalid literal"):
        GroupTable([["x"]] * GROUP_ORDER)


def _relabel(table, perm):
    """The table of the same product on the labels perm[x - 1]."""
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            out[perm[x] - 1][perm[y] - 1] = perm[z - 1]
    return out


def _intercalate_loop(n):
    """Z/n (n even, n >= 6) with one 2x2 subsquare off the identity switched:
    a Latin square with an identity that is not associative."""
    t = [list(row) for row in cyclic_table(n).table]
    a, b = 1, 1 + n // 2
    t[a][a], t[a][b] = t[a][b], t[a][a]
    t[b][a], t[b][b] = t[b][b], t[b][a]
    return t


@st.composite
def group_tables(draw):
    """A standard table or a product of two, relabelled at random."""
    names = sorted(STANDARD_GROUPS)
    A = STANDARD_GROUPS[draw(st.sampled_from(names))]()
    if draw(st.booleans()):
        B = STANDARD_GROUPS[draw(st.sampled_from([k for k in names if STANDARD_GROUPS[k]().n <= 4]))]()
        A = direct_product_table(A, B)
    perm = draw(st.permutations(range(1, A.n + 1)))
    return _relabel(A.table, perm)


@st.composite
def latin_loops(draw):
    """A random Latin square of order <= 6, filled cell by cell with backtracking,
    made a loop by its principal isotope x o y = L[R^-1 x][C^-1 y] through the
    cell (a, b), then relabelled at random."""
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    L = [[0] * n for _ in range(n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        used = {L[i][k] for k in range(j)} | {L[k][j] for k in range(i)}
        for z in rng.sample(range(n), n):
            if z not in used:
                L[i][j] = z
                if fill(cell + 1):
                    return True
        return False

    assert fill(0)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    row_of = {L[i][b]: i for i in range(n)}
    col_of = {L[a][j]: j for j in range(n)}
    loop = [[L[row_of[x]][col_of[y]] + 1 for y in range(n)] for x in range(n)]
    return _relabel(loop, draw(st.permutations(range(1, n + 1))))


@st.composite
def group_times_loop(draw):
    """A standard group A times a random loop L, numbered with the elements
    (a, e) of A first or relabelled at random.  The elements (a, e) pass
    Light's test, so a generating set that stopped early could miss the
    failures of L."""
    A = STANDARD_GROUPS[draw(st.sampled_from(sorted(STANDARD_GROUPS)))]()
    L = draw(latin_loops())
    m = len(L)
    e = L.index(list(range(1, m + 1)))  # the identity's row
    swap = list(range(1, m + 1))
    swap[0], swap[e] = e + 1, 1
    L = _relabel(L, swap)  # the identity is now 1
    t = [[(L[k][l] - 1) * A.n + A.mul(a, b) for l in range(m) for b in range(1, A.n + 1)]
         for k in range(m) for a in range(1, A.n + 1)]
    if draw(st.booleans()):
        t = _relabel(t, draw(st.permutations(range(1, A.n * m + 1))))
    return t


@st.composite
def perturbed_groups(draw):
    """A relabelled group table with one entry set to a value in [0, n + 1]."""
    t = draw(group_tables())
    n = len(t)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    t[i][j] = draw(st.integers(0, n + 1))
    return t


def _validated(table):
    G = GroupTable(table)
    return G.table, G.identity


def _outcome(validate, table):
    try:
        return "accepted", validate(table)
    except Exception as exc:  # the outcome compared is the class and the text
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(group_tables(), latin_loops(), group_times_loop(), perturbed_groups(),
                 st.sampled_from([6, 8, 10]).map(_intercalate_loop)))
def test_light_test_decides_as_the_triple_loop(table):
    """Accept or refuse, the error class and its text are the triple loop's."""
    got = _outcome(_validated, table)
    assert got == _outcome(group_table_by_triples, table)
    if got[0] == "accepted":
        G = GroupTable(table)
        rep = mu_homomorphism(G)
        assert mu_flags_pointwise(G) == (rep.homomorphism, rep.injective) == (True, True)


@pytest.mark.parametrize("n", [6, 8, 300])
def test_an_intercalate_switch_of_a_cyclic_table_is_not_associative(n):
    with pytest.raises(BadInput, match="^associativity fails$"):
        GroupTable(_intercalate_loop(n))


def test_group_cover_data_examples():
    Z4 = cyclic_table(4)
    # element at index 3 is g^2, the order-2 element
    data = group_cover_data(Z4, 3)
    assert data.n_i == 2 and data.d_i == 2
    assert data.reps == (1, 2)
    assert sorted(data.sigma) == [1, 2, 3, 4]
    ident = group_cover_data(Z4, 1)
    assert ident.n_i == 1 and ident.reps == (1, 2, 3, 4)
    S3 = symmetric_table(3)
    three_cycle = next(i for i in range(1, 7) if S3.order_of(i) == 3)
    d = group_cover_data(S3, three_cycle)
    assert d.n_i == 3 and d.d_i == 2


def test_sigma_tiles_group():
    for name, G in standard_group_tables().items():
        for i in range(1, G.n + 1):
            data = group_cover_data(G, i)
            assert sorted(data.sigma) == list(range(1, G.n + 1)), (name, i)


def test_mu_homomorphism():
    triv = cyclic_table(1)
    rep = mu_homomorphism(triv)
    assert rep.homomorphism and rep.injective
    Z3 = cyclic_table(3)
    rep3 = mu_homomorphism(Z3)
    assert rep3.homomorphism and rep3.injective
    assert rep3.perms[2] == (2, 3, 1)  # the regular representation
    for name, G in standard_group_tables().items():  # the tables of ``selftest --suite covers``
        r = mu_homomorphism(G)
        assert r.homomorphism and r.injective, name
        assert mu_flags_pointwise(G) == (True, True), name
        assert r.perms == {h: tuple(G.mul(h, j) for j in range(1, G.n + 1)) for h in range(1, G.n + 1)}, name


def test_quaternion_and_dihedral_shapes():
    Q8 = quaternion_table()
    assert Q8.n == 8
    orders = sorted(Q8.order_of(i) for i in range(1, 9))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    D4 = dihedral_table(4)
    assert D4.n == 8
    assert sorted(D4.order_of(i) for i in range(1, 9)).count(2) == 5


# -- the descriptor's power check ---------------------------------------------

P13 = 13  # 1 mod each n below


@st.composite
def descriptor_inputs(draw):
    """(n, m, g): g the binomial root series or a random one, with modulus
    None, below m or above m, and sometimes negative indices; m <= 0 too."""
    n = draw(st.sampled_from((1, 2, 3, 4, 6)))
    m = draw(st.integers(-2, 12))
    if draw(st.booleans()):
        g = binomial_coefficient_series(n, draw(st.integers(1, 16)))
        coeffs = dict(g.coeffs)
    else:
        coeffs = {k: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
                  for k in draw(st.lists(st.integers(0, 12), max_size=6, unique=True))}
    for k in draw(st.lists(st.integers(-3, -1), max_size=2, unique=True)):
        coeffs[k] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5)))
    mod = draw(st.sampled_from(("none", "below", "above")))
    trunc_mod = {"none": None, "below": draw(st.integers(-2, m)), "above": m + draw(st.integers(1, 8))}[mod]
    return n, m, LaurentPoly(coeffs, trunc_mod)


@settings(max_examples=300, deadline=None)
@given(descriptor_inputs())
def test_descriptor_accepts_what_the_product_loop_accepted(inputs):
    n, m, g = inputs
    target = LaurentPoly({0: 1, 1: 1} if m > 1 else {0: 1}, m)
    zeta = primitive_root_of_unity(n, P13, 3)
    try:
        CoverDescriptor(n=n, p=P13, zeta=zeta, m=m, g=g)
        accepted = True
    except BadDescriptor as exc:
        accepted = False
        refusal = str(exc)
    if m < 1:  # refused before the power check
        assert not accepted and refusal == "m must be >= 1"
        return
    old = cover_power_by_loop(g, n, m)
    assert accepted == (old == target)
    # the same power by squaring, modulus included
    assert series_mul(LaurentPoly.one(m), series_pow_by_squaring(g, n)) == old


@pytest.mark.parametrize("n, p, m, N", [(4, 5, 178, 8), (2, 3, 10, 4), (3, 7, 20, 6), (1, 2, 5, 3)])
def test_build_certifies_g_power_once(n, p, m, N, monkeypatch):
    import arithline.covers_galois as cg
    from arithline import jsonio

    from oracles import cover_build_certified_twice

    calls = []

    def counting(g, k, order):
        calls.append((k, order))
        return _is_root_of_one_plus_z(g, k, order)

    monkeypatch.setattr(cg, "_is_root_of_one_plus_z", counting)
    desc = CoverDescriptor.build(n, p, m, N)
    assert calls == [(n, m)]
    monkeypatch.undo()
    assert jsonio.dumps(desc) == jsonio.dumps(cover_build_certified_twice(n, p, m, N))


# -- the power check read from the differential equation of (1 + Z)^(1/n) -----


@st.composite
def root_check_inputs(draw):
    """(g, n, m) with n in 1..8 and m in 1..40: +-the binomial series known
    mod Z^M with M below, at or above m, or exactly; then perhaps one
    coefficient moved at an index < m (m - 1 included), junk at indices >= m,
    negative indices, or g = 0."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    shape = draw(st.sampled_from(("below", "equal", "above", "exact")))
    M = {"below": draw(st.integers(1, m)) - 1, "equal": m, "above": m + draw(st.integers(1, 6)),
         "exact": None}[shape]
    length = m + draw(st.integers(0, 6)) if M is None else max(M, 1)
    coeffs = dict(binomial_coefficient_series(n, length).coeffs)
    if draw(st.booleans()):  # g_0 = -1: a root of 1 + Z for even n only
        coeffs = {k: -c for k, c in coeffs.items()}
    edit = draw(st.sampled_from(("none", "perturb", "perturb_top", "junk", "negative", "zero")))
    delta = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
    if edit in ("perturb", "perturb_top"):
        k = m - 1 if edit == "perturb_top" else draw(st.integers(0, m - 1))
        coeffs[k] = coeffs.get(k, 0) + delta
    elif edit == "junk":
        for k in draw(st.lists(st.integers(m, m + 8), min_size=1, max_size=3, unique=True)):
            coeffs[k] = coeffs.get(k, 0) + delta
    elif edit == "negative":
        coeffs[draw(st.integers(-3, -1))] = delta
    elif edit == "zero":
        coeffs = {}
    return LaurentPoly(coeffs, M), n, m


@settings(max_examples=600, deadline=None)
@given(root_check_inputs())
def test_root_check_agrees_with_the_product_loop(inputs):
    g, n, m = inputs
    target = LaurentPoly({0: 1, 1: 1} if m > 1 else {0: 1}, m)
    assert _is_root_of_one_plus_z(g, n, m) == (cover_power_by_loop(g, n, m) == target)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_root_check_at_201_terms(n):
    g = binomial_coefficient_series(n, 201)
    assert _is_root_of_one_plus_z(g, n, 201)
    bent = series_add(g, LaurentPoly({200: Fraction(1, 3)}, 201))
    assert not _is_root_of_one_plus_z(bent, n, 201)
    target = LaurentPoly({0: 1, 1: 1}, 201)
    assert series_mul(LaurentPoly.one(201), series_pow_by_squaring(bent, n)) != target


@pytest.mark.parametrize("n", range(1, 9))
def test_binomial_series_is_the_fraction_recurrence(n):
    for m in range(1, 60):
        got, want = binomial_coefficient_series(n, m), binomial_series_fraction(n, m)
        assert (got.num, got.den, got.trunc_mod) == (want.num, want.den, want.trunc_mod)
        assert list(got.num) == list(want.num)


def test_build_refusals_keep_their_order():
    with pytest.raises(ValueError, match="need n >= 1, N >= 1"):
        CoverDescriptor.build(0, 5, 0, 3)
    with pytest.raises(CongruenceFails):
        CoverDescriptor.build(3, 5, 0, 3)
    with pytest.raises(ValueError, match="need n >= 1, m >= 1"):
        CoverDescriptor.build(2, 5, 0, 3)
    with pytest.raises(CannotCertify, match=r"n\*m = 1026 terms exceeds 1024"):
        CoverDescriptor.build(3, 7, 342, 4)
