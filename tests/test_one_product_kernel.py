"""Series products on one integer kernel, against the forms it replaced.

``series_ring._convolve`` is the one product kernel: it adds a scaled
convolution into a dict it is handed, on schoolbook below
``KRONECKER_TERMS`` terms and for sparse factors, and by one Kronecker
product of packed integers for two long runs of consecutive indices.
``series_mul`` is its one-pair case and ``series_dot`` sums the pairs of a
row and a column over one denominator.  On it, ``SeriesMatrix.mul`` makes
each entry one fused dot product, ``_neumann`` keeps one running integer
sum per entry, I + x and x - I move only the diagonal, ``prune`` keeps an
entry it does not cut, ``matrix_norm`` sums a row in one integer pass, and
a finite norm term at k = 1 is one integer pair with no ``pow_pairs`` call.

The replaced forms live in tests/oracles.py, and ``old_matrix_layer`` puts
them in place of the library's.  Products (with the order in which their
keys first appear), Cartan factorizations, Neumann inverses and norm pairs
must agree exactly, refusals included, class and text.
"""

from fractions import Fraction as F
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, Place, SeriesMatrix, SplitSystem
from arithline import series_ring as S
from arithline.base_space import norm_bounds_each
from arithline.cousin_cartan import cartan_factorize, neumann_inverse
from arithline.errors import ArithlineError
from arithline import normvalue
from arithline.series_ring import KRONECKER_TERMS, _convolve, series_dot, series_mul

from oracles import convolve, convolve_schoolbook, norm_bounds_each_by_pow_pairs, old_matrix_layer

K = KRONECKER_TERMS

# -- the product kernel -----------------------------------------------------


@st.composite
def factors(draw):
    """(items in stored order, sorted items): a run of consecutive indices on
    either side of K, stored ascending or shuffled, or a sparse set; signed
    coefficients of up to 200 bits, Laurent indices."""
    shape = draw(st.sampled_from(("run", "run", "shuffled", "sparse")))
    n = draw(st.integers(1, 2 * K + 4))
    start = draw(st.integers(-12, 12))
    if shape == "sparse":
        keys = draw(st.lists(st.integers(-20, 60), min_size=1, max_size=n, unique=True))
    else:
        keys = list(range(start, start + n))
        if shape == "shuffled":
            keys = draw(st.permutations(keys))
    bits = draw(st.sampled_from((4, 40, 200)))
    coeff = st.integers(-(1 << bits), 1 << bits).filter(bool)
    items = [(k, draw(coeff)) for k in keys]
    return items, sorted(items)


RUN = ([(k, 1) for k in range(K)],) * 2
LONG = ([(k, (-1) ** (k % 2) << 200) for k in range(-5, K)],) * 2


@settings(max_examples=600, deadline=None)
@given(factors(), factors(), st.sampled_from((None, None, -3, 0, 5, 17, 40)),
       st.sampled_from((1, 1, 6)), st.booleans())
@example(RUN, RUN, None, 1, False)
@example(RUN, LONG, 9, 3, True)
def test_convolve_matches_schoolbook_with_its_key_order(f, g, mod, scale, prefilled):
    f_items, _ = f
    _, g_sorted = g
    start = {k: 7 for k in range(-4, 4, 3)} if prefilled else {}
    want = convolve_schoolbook(f_items, g_sorted, mod, dict(start), scale)
    got = _convolve(f_items, g_sorted, mod, dict(start), scale)
    assert list(got.items()) == list(want.items())


def test_long_runs_take_the_kronecker_product(monkeypatch):
    calls = []
    real = S._kronecker
    monkeypatch.setattr(S, "_kronecker", lambda *args: calls.append(len(args[0])) or real(*args))
    f = LaurentPoly({k: F((-1) ** k, 3 ** k) for k in range(40)}, 40)
    g = LaurentPoly({k: F(k + 3, 2 ** (k + 2)) for k in range(-2, 30)})
    want = convolve_schoolbook(list(f.coeffs.items()), sorted(g.coeffs.items()), 38)
    assert series_mul(f, g).coeffs == {k: c for k, c in want.items() if c}
    assert calls == [40]
    calls.clear()
    short = LaurentPoly({k: 1 for k in range(K - 1)})
    series_mul(short, f)
    sparse = LaurentPoly({2 * k: 1 for k in range(2 * K)})
    series_mul(sparse, f)
    assert calls == []


@st.composite
def laurents(draw, mod):
    entry = st.dictionaries(st.integers(-3, 20), st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
                            max_size=draw(st.sampled_from((3, 24))))
    return LaurentPoly(draw(entry), mod)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3), st.sampled_from((None, 2, 9)))
def test_series_dot_is_the_sum_of_the_products(data, n, mod):
    fs = [data.draw(laurents(mod)) for _ in range(n)]
    gs = [data.draw(laurents(None)) for _ in range(n)]
    got = series_dot(fs, gs, mod)
    want = {}
    for f, g in zip(fs, gs):
        for k, c in convolve(f.coeffs, g.coeffs).items():
            if mod is None or k < mod:
                want[k] = want.get(k, 0) + c
    assert got.coeffs == {k: c for k, c in want.items() if c} and got.trunc_mod == mod


# -- the matrix layer against the old code ----------------------------------

SYSTEMS = (
    SplitSystem(Place.finite(2), 1, (F(1, 32), F(1, 16))),
    SplitSystem(Place.finite(2), 1, (F(1, 2), 2)),
    SplitSystem(Place.finite(3), 1, (F(1, 2), 2)),
    SplitSystem(Place.infinite(), F(1, 2), (F(1, 4), F(1, 2))),
)
CONTEXTS = (
    AnnulusSpec(BaseCompact.segment(Place.finite(2), 1, 1), F(1, 2), 2),
    AnnulusSpec(BaseCompact.segment(Place.finite(2), 1, 1), F(1, 4), F(1, 4)),
    AnnulusSpec(BaseCompact.segment(Place.finite(3), F(1, 2), 2), F(1, 3), 1),
    AnnulusSpec(BaseCompact.central_point(), 0, F(1, 2)),
)


@st.composite
def near_identity(draw, sys_=None):
    """I + b with 1 or 2 rows and an optional common modulus.  Given a
    system, b is shaped to pass its admissibility test about half the time,
    as the Cartan inputs of the benchmark are; else b's coefficients are
    +-2^e a / d at indices in [-2, 3]."""
    rows = draw(st.sampled_from((1, 2)))
    mod = draw(st.sampled_from((None, None, 2, 5)))
    if sys_ is None or draw(st.booleans()):
        index, scale = st.integers(-2, 3), st.builds(lambda e: F(2) ** e, st.integers(-8, 14))
    elif sys_.place.is_finite and sys_.annulus[1] < 1:  # the narrow annulus: T^2 and T^3
        index, scale = st.integers(2, 3), st.just(F(1))
    elif sys_.place.is_finite:  # T^-1 and T^1 over a high power of p
        index, scale = st.sampled_from((-1, 1)), st.just(F(sys_.place.prime) ** 8)
    else:
        index, scale = st.integers(-1, 1), st.just(F(1, 2000))
    coeff = st.builds(lambda sign, s, a, d: sign * s * F(a, d), st.sampled_from((1, -1)), scale,
                      st.integers(1, 60), st.sampled_from((1, 2, 3, 5, 10)))
    entry = st.dictionaries(index, coeff, max_size=3).map(lambda c: LaurentPoly(c, mod))
    b = SeriesMatrix([[draw(entry) for _ in range(rows)] for _ in range(rows)])
    return SeriesMatrix.identity(rows).add(b)


@st.composite
def cartan_inputs(draw):
    sys_ = draw(st.sampled_from(SYSTEMS))
    return draw(near_identity(sys_)), sys_


def nv_key(nv):
    return nv.lo, nv.hi, nv.exact


def matrix_key(mat):
    return [[(sorted(e.num.items()), e.den, e.trunc_mod) for e in row] for row in mat.entries]


def cartan_key(fn, *args):
    try:
        r = fn(*args)
    except ArithlineError as e:
        return type(e).__name__, str(e)
    return (matrix_key(r.c_minus), matrix_key(r.c_plus), nv_key(r.residual), r.iterations,
            r.bound_4D_ok, r.sides_ok, r.decay_ok, r.btilde_norms)


def inverse_key(fn, *args):
    try:
        return matrix_key(fn(*args))
    except ArithlineError as e:
        return type(e).__name__, str(e)


@settings(max_examples=150, deadline=None)
@given(cartan_inputs(), st.sampled_from((F(1, 2**40), F(1, 2**12))))
@example((SeriesMatrix([[LaurentPoly({0: 1, 1: 64})]]), SYSTEMS[1]), F(1, 2**40))
@example((SeriesMatrix([[LaurentPoly({-1: F(128, 3), 0: 1, 1: 256}), LaurentPoly({1: 512})],
                        [LaurentPoly({-1: F(1024, 5)}), LaurentPoly({0: 1, 2: 2048})]]), SYSTEMS[1]), F(1, 2**40))
@example((SeriesMatrix([[LaurentPoly({0: 1, 1: 81}, 5)]]), SYSTEMS[2]), F(1, 2**40))
def test_cartan_matches_the_old_matrix_layer(inputs, tol):
    a, sys_ = inputs
    got = cartan_key(cartan_factorize, a, sys_, 64, tol)
    with old_matrix_layer():
        want = cartan_key(cartan_factorize, a, sys_, 64, tol)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(near_identity(), st.sampled_from(CONTEXTS), st.integers(1, 12))
@example(SeriesMatrix([[LaurentPoly({0: 1, 1: 16})]]), CONTEXTS[0], 40)
@example(SeriesMatrix([[LaurentPoly({0: 1}), LaurentPoly({0: 2})], [LaurentPoly({}), LaurentPoly({0: 1})]]),
         CONTEXTS[1], 3)
@example(SeriesMatrix([[LaurentPoly({0: 1, 1: 2}, 3)]]), CONTEXTS[1], 6)
def test_neumann_inverse_matches_the_old_matrix_layer(a, ctx, m):
    got = inverse_key(neumann_inverse, a, ctx, m)
    with old_matrix_layer():
        want = inverse_key(neumann_inverse, a, ctx, m)
    assert got == want


def test_the_neumann_sum_is_built_once(monkeypatch):
    """No SeriesMatrix.add per term, and the checking constructor runs a
    fixed number of times, not once per term."""
    built = []
    init = SeriesMatrix.__init__

    def counted(self, entries):
        built.append(1)
        init(self, entries)

    def refused(*_):
        raise AssertionError("a copy of the sum")

    monkeypatch.setattr(SeriesMatrix, "__init__", counted)
    monkeypatch.setattr(SeriesMatrix, "add", refused)
    a = SeriesMatrix._of(((LaurentPoly({0: 1, 1: 16}),),))
    b = neumann_inverse(a, CONTEXTS[0], 300)
    assert b.entries[0][0].coeffs == {k: F(-16) ** k for k in range(300)}
    assert len(built) == 1  # the identity the sum starts from


# -- the norm term of a finite point ----------------------------------------

BUDGET = 1 << 10  # POW_BITS while the edge is probed, so the powers stay small


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 40), st.sampled_from((1, -1, 3, 7))), min_size=1,
             max_size=4),
    st.one_of(st.integers(-3, 3), st.integers(-(BUDGET // 4), 0)),
    st.sampled_from(("point", "star", "segment", "extreme")),
)
def test_norm_bounds_each_matches_the_pow_pairs_route_at_the_budget_edge(p, terms, shift, shape):
    """Exponents |x| bits(p) around the POW_BITS budget, lowered to BUDGET:
    the same pairs or the same refusal, and a k = 1 term is one shared pair
    for lo and hi."""
    den = p ** (BUDGET // p.bit_length() + shift)
    nums = [sign * unit * p ** v if sign else 0 for sign, v, unit in terms]
    V = {
        "point": BaseCompact.segment(Place.finite(p), 1, 1),
        "star": BaseCompact.star({Place.finite(p): 1}),
        "segment": BaseCompact.segment(Place.finite(p), F(1, 2), 2),
        "extreme": BaseCompact.segment(Place.finite(p), 1, float("inf")),
    }[shape]
    outcomes = []
    with mock.patch.object(normvalue, "POW_BITS", BUDGET):
        for fn in (norm_bounds_each, norm_bounds_each_by_pow_pairs):
            try:
                outcomes.append([(F(*lo), F(*hi), hi is lo) for lo, hi in fn(nums, den, V)])
            except ArithlineError as e:
                outcomes.append((type(e).__name__, str(e)))
    assert outcomes[0] == outcomes[1]
