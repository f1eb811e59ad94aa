"""Local division on one ascending residual window, against the dict loop.

``weierstrass._divide_by_iteration`` keeps the residual r as one ascending
list of integer numerators over its window, steps it by one slice-add per
term of -B mod T^m and one gcd, keeps alpha(phi) as one list and grows its
denominator geometrically, and reads each residual's norm off the nonzero
support through ``series_ring._support_pairs``.  On the trivial compact
that norm is the support's weight sum, with no bound pair per coefficient.

The reference is the loop it replaced, ``oracles.divide_by_dict_loop``: the
residual a dict made canonical each step, its norm ``annulus_pairs_by_sort``
over one bound pair per coefficient, alpha(phi) a dict rescaled whenever
r.den does not divide D, and B rebuilt through the series ops.  Patched in
for the library's loop, it must give the same Q, R, radius, epsilon,
residual trajectory (lo, hi and exactness) and refusal (class and text), on
the central point, finite and archimedean segments, for units u of 1, -1,
2 and 3/7, p = 1..4 and m from p + 1 to 96.  The trivial-compact norm is
compared with ``oracles.naive_norm_annulus``, and the weight sum, which
adds each run of consecutive indices as one geometric sum, with the
one-index Horner sum ``oracles.weight_sum_by_horner``.
"""

import contextvars
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import AnnulusSpec, BaseCompact, LaurentPoly, Place, norm_annulus, prepare
from arithline import series_ring as S
from arithline import weierstrass as W
from arithline.errors import ArithlineError
from arithline.normvalue import POW_BITS, set_default_bits

from oracles import divide_by_dict_loop, naive_norm_annulus, weight_sum_by_horner

CENTRAL = BaseCompact.central_point()
COMPACTS = {
    "central": CENTRAL,
    "3-adic": BaseCompact.segment(Place.finite(3), Fraction(1, 2), 2),
    "2-adic": BaseCompact.segment(Place.finite(2), 1, 1),
    "5-extreme": BaseCompact.segment(Place.finite(5), 1, float("inf")),
    "arch-frac": BaseCompact.segment(Place.infinite(), Fraction(1, 3), Fraction(1, 2)),
    "arch": BaseCompact.segment(Place.infinite(), 0, 1),
}
UNITS = (1, -1, 2, Fraction(3, 7))


def division_outcome(F, G, p, m, name, t=Fraction(1, 2)):
    """divide_local_series and prepare at (p, m) on the named compact, as
    plain values: each a tuple of Q, R (or E, Omega), radius, epsilon and
    trajectory, or the refusal's class and text."""
    ctx = AnnulusSpec(COMPACTS[name], 0, t)
    out = []
    for call in (lambda: W.divide_local_series(F, G, p, m, ctx), lambda: prepare(G, p, m, ctx)):
        try:
            a, b, cert = call()
        except ArithlineError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        out.append((a, b, cert.radius, nv_key(cert.epsilon), [nv_key(r) for r in cert.residuals]))
    return out


def nv_key(nv):
    return nv.lo, nv.hi, nv.exact


def assert_matches_dict_loop(F, G, p, m, name, t=Fraction(1, 2)):
    got = division_outcome(F, G, p, m, name, t)
    with mock.patch.object(W, "_divide_by_iteration", divide_by_dict_loop):
        want = division_outcome(F, G, p, m, name, t)
    assert got == want
    return got


@st.composite
def local_divisions(draw):
    """G = T^p (u + c_1 T + ... + c_5 T^5) and F of up to twelve terms, known
    mod T^m, with denominators that give poles at 5 now and then."""
    p = draw(st.integers(1, 4))
    m = draw(st.integers(p + 1, 96))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 5, 7, 9)))
    unit = {0: draw(st.sampled_from(UNITS))}
    for j in range(1, 6):
        if draw(st.booleans()):
            unit[j] = draw(coeff)
    G = LaurentPoly({p + j: c for j, c in unit.items()}, m)
    F = LaurentPoly({k: draw(coeff) for k in draw(st.sets(st.integers(0, 11), max_size=12))}, m)
    return F, G, p, m, draw(st.sampled_from(sorted(COMPACTS)))


@settings(max_examples=150, deadline=None)
@given(local_divisions())
# B = 0: G = u T^p, so r_0 = 0 and Q = alpha(F) / u
@example((LaurentPoly({0: 1, 2: 5, 3: Fraction(-2, 9)}, 40), LaurentPoly({2: Fraction(3, 7)}, 40), 2, 40, "central"))
@example((LaurentPoly({1: 4, 4: Fraction(1, 3)}, 9), LaurentPoly({4: -1}), 4, 9, "arch-frac"))
# m = p + 1: B has no index below m
@example((LaurentPoly({0: 1, 3: Fraction(5, 7)}, 4), LaurentPoly({3: 2, 4: 1, 5: Fraction(-1, 2)}, 4), 3, 4, "3-adic"))
@example((LaurentPoly({1: Fraction(2, 5)}, 2), LaurentPoly({1: -1, 2: 3}, 2), 1, 2, "5-extreme"))
# u = 3/7 at m = 96: the denominator grows on most steps
@example((LaurentPoly({0: 1, 1: Fraction(9, 7), 4: 7, 9: -2}, 96),
          LaurentPoly({1: Fraction(3, 7), 2: Fraction(1, 7), 3: -2, 6: Fraction(5, 9)}, 96), 1, 96, "2-adic"))
# a pole of F at 5 reaches r_0 at several indices: the lowest is named
@example((LaurentPoly({4: Fraction(-2, 7), 5: Fraction(-8, 5), 6: Fraction(-3, 25), 7: Fraction(7, 25), 8: 8}, 19),
          LaurentPoly({4: Fraction(7, 3), 5: Fraction(-6, 7), 7: -1}, 19), 4, 19, "5-extreme"))
# a pole of G/u at 5 is refused by the contraction scan, before the loop
@example((LaurentPoly({3: 1}, 12), LaurentPoly({1: 2, 2: Fraction(1, 5)}, 12), 1, 12, "5-extreme"))
def test_the_window_loop_is_the_dict_loop(case):
    assert_matches_dict_loop(*case)


def test_F_below_T_p_at_a_huge_modulus_is_the_dict_loop():
    """F lies below T^p, so r_0 = 0 at m = 2^200: both loops stop at once,
    and the window loop builds no list for the modulus."""
    F, G = LaurentPoly({0: 1, 1: Fraction(2, 3)}), LaurentPoly({2: Fraction(3, 7), 3: 1})
    got = assert_matches_dict_loop(F, G, 2, 2 ** 200, "central")
    Q, R, _, _, residuals = got[0]
    assert (Q, R, residuals) == (LaurentPoly.zero(2 ** 200 - 2), F, [(0, 0, 0)])


def test_the_running_sum_grows_geometrically():
    """With u = 3/7 the residual's denominator grows on most steps.  D grows
    to lcm(D, d Bd^K), K doubling while Bd^K fits in one 30-bit digit (here
    Bd = 9 and K runs 1, 2, 4, 7, 7, ...), so the running sum is rescaled 6
    times over 63 residuals, where the dict loop, growing D to lcm(D, d),
    rescaled it 31 times."""
    F = LaurentPoly({k: k + 1 for k in range(8)}, 64)
    G = LaurentPoly({1: Fraction(3, 7), 2: 1, 3: Fraction(-2, 3)}, 64)
    old = []
    with mock.patch.object(W, "_divide_by_iteration", lambda *a: divide_by_dict_loop(*a, rescales=old)):
        want = W.divide_local_series(F, G, 1, 64, AnnulusSpec(CENTRAL, 0, Fraction(1, 2)))
    with mock.patch.object(W, "lcm_list", wraps=W.lcm_list) as rescales:
        got = W.divide_local_series(F, G, 1, 64, AnnulusSpec(CENTRAL, 0, Fraction(1, 2)))
    assert got[:2] == want[:2] and got[2].residuals == want[2].residuals
    steps = len(got[2].residuals)
    assert (rescales.call_count, len(old), steps) == (6, 31, 63)


def test_the_radius_is_charged_at_the_last_nonzero_index():
    """A window cut at T^m may end in zeros: here r_0 = -2 T^2 + 0 T^3 mod T^4.
    The weight t^k is charged to POW_BITS at the last nonzero index, as the
    dict loop charged it, never at the window's end."""
    F, G = LaurentPoly({1: 2, 3: 2}, 4), LaurentPoly({1: 1, 2: 1}, 4)
    ctx = AnnulusSpec(CENTRAL, 0, Fraction(1, 2))

    def charged(loop):
        charges = []
        with mock.patch.object(W, "_divide_by_iteration", loop), \
                mock.patch.object(S, "_charge_radius", lambda n, d, k: charges.append(k)):
            W.divide_local_series(F, G, 1, 4, ctx)
        return charges

    windows, step = [], W._step
    with mock.patch.object(W, "_step", lambda *a: windows.append(step(*a)) or windows[-1]):
        got = charged(W._divide_by_iteration)
    assert [(r, lo) for r, lo, _ in windows] == [([-2, 0], 2), ([2], 3), ([], 4)]
    # the contraction scan charges B = T^2 first; then r_0 at 2, not at 3, and r_1 at 3
    assert got == charged(divide_by_dict_loop) and got[-2:] == [2, 3]


# -- the trivial compact's norm: the support's weight sum ----------------------

TRIVIAL = (CENTRAL, BaseCompact.segment(Place.finite(5), 0, 0))
RADII = [(Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(3)), (Fraction(0), Fraction(0)),
         (Fraction(1, 3), Fraction(5, 4)), (Fraction(2, 3), Fraction(3)), (Fraction(1), Fraction(1)),
         (Fraction(3, 2), Fraction(3, 2)), (Fraction(1, 2), Fraction(2))]


@st.composite
def trivial_norm_cases(draw):
    """(f, A, bits) on a trivial compact: dense support in [-8, 16] or a few
    indices with gaps up to 2^14; negative indices at s > 0, and now and
    then on a disk, for the refusal."""
    s, t = draw(st.sampled_from(RADII))
    negative = s > 0 or draw(st.integers(0, 9)) == 0
    low = -8 if negative else 0
    if draw(st.booleans()):
        keys = draw(st.sets(st.integers(low, 16), max_size=12))
    else:
        keys = draw(st.sets(st.integers(16 * low, 1 << 14), max_size=4))
    coeff = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.sampled_from((1, 5, 2 ** 10)))
    f = LaurentPoly({k: draw(coeff) for k in keys})
    return f, AnnulusSpec(draw(st.sampled_from(TRIVIAL)), s, t), draw(st.sampled_from((128, 8)))


def norm_outcome(fn, f, A):
    try:
        nv = fn(f, A)
    except ArithlineError as exc:
        return "raise", type(exc).__name__, str(exc)
    return "ok", nv.lo, nv.hi, nv.exact


EDGE = POW_BITS // 2  # t = 2 and s = 1/2 charge 2 bits a power


@settings(max_examples=300, deadline=None)
@given(trivial_norm_cases())
@example((LaurentPoly(), AnnulusSpec(CENTRAL, 0, Fraction(1, 2)), 128))
@example((LaurentPoly({-3: Fraction(1, 2), 0: 1, 4: 9}), AnnulusSpec(CENTRAL, Fraction(2, 3), Fraction(5, 4)), 128))
@example((LaurentPoly({-1: 1, 2: 3}), AnnulusSpec(CENTRAL, 0, 3), 128))
@example((LaurentPoly({EDGE: 1, 0: 5}), AnnulusSpec(CENTRAL, 0, 2), 8))
@example((LaurentPoly({-EDGE: 3, 1: 1}), AnnulusSpec(CENTRAL, Fraction(1, 2), 2), 128))
@example((LaurentPoly({0: 1, 10 ** 9: Fraction(1, 2), -10 ** 9: 7}), AnnulusSpec(CENTRAL, 1, 1), 128))
def test_the_trivial_norm_is_the_weight_sum_of_the_support(case):
    """On the trivial compact the norm is sum_k max(s^k, t^k) over the
    support: the naive sum's NormValue or its refusal (class and text), at
    128 and at 8 bits, with no bound pair asked of ``norm_bounds_each``."""
    f, A, bits = case

    def both():
        set_default_bits(bits)
        with mock.patch.object(S, "norm_bounds_each", side_effect=AssertionError("a bound pair was formed")):
            got = norm_outcome(norm_annulus, f, A)
        return got, norm_outcome(naive_norm_annulus, f, A)

    got, want = contextvars.copy_context().run(both)
    assert got == want


@st.composite
def runs_of_indices(draw):
    """Ascending indices >= 0 made of runs of consecutive ones, the gaps between
    them of 0 (two runs merge) up to 40."""
    ks, start = [], draw(st.integers(0, 3))
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 70)), max_size=5)):
        ks += range(start + gap, start + gap + length)
        start += gap + length
    return ks


@settings(max_examples=400, deadline=None)
@given(runs_of_indices(), st.integers(0, 12), st.integers(1, 12))
@example([], 1, 2)
@example(list(range(2049)), 1, 2)
@example([0, 1, 2, 5, 6, 9], 3, 3)
@example([0, 1, 2, 7, 8], 0, 5)
def test_the_weight_sum_by_runs_is_the_horner_sum(ks, rn, rd):
    """The same (acc, rd^j) pair, not only the same rational, for rn above,
    below and equal to rd."""
    assert S._weight_sum(ks, rn, rd) == weight_sum_by_horner(ks, rn, rd)


def test_the_trivial_norm_charges_the_extreme_indices_first():
    """t^k and (1/s)^-k are charged to POW_BITS at the support's extreme
    indices before any is taken: at the edge the sum is the naive one, one
    index past it the refusal comes at once, with the budget's text."""
    for f, A in ((LaurentPoly({EDGE: 1, 0: 5}), AnnulusSpec(CENTRAL, 0, 2)),
                 (LaurentPoly({-EDGE: 3, 1: 1}), AnnulusSpec(CENTRAL, Fraction(1, 2), 2))):
        assert norm_annulus(f, A) == naive_norm_annulus(f, A)
    budget = ("raise", "CannotCertify", f"x ** e exceeds the budget of {POW_BITS} bits of work")
    disk = ("raise", "NegativePowersOnDisk", "negative powers of T on a disk (s = 0)")
    for f, A, refusal in ((LaurentPoly({EDGE + 1: 1, 0: 5}), AnnulusSpec(CENTRAL, 0, 2), budget),
                          (LaurentPoly({-EDGE - 1: 3, 1: 1}), AnnulusSpec(CENTRAL, Fraction(1, 2), 2), budget),
                          (LaurentPoly({-EDGE - 1: 3, EDGE + 1: 1}), AnnulusSpec(CENTRAL, 0, 2), disk)):
        assert norm_outcome(norm_annulus, f, A) == refusal


def test_a_series_stored_out_of_order_has_its_sorted_norm():
    """``norm_annulus`` sorts the keys once, so a series stored out of order
    has the norm of the same series stored in order; a pole refusal names
    the first stored coefficient with a pole, as the per-coefficient bounds
    in stored order named it.  The window loop stores its residual in
    ascending order, so there the lowest index with a pole is named."""
    A = AnnulusSpec(BaseCompact.segment(Place.finite(5), 1, float("inf")), Fraction(1, 2), 2)
    shuffled = LaurentPoly._content({3: 7, -2: 1, 0: -4, 5: 9}, 2)
    ordered = LaurentPoly._content({-2: 1, 0: -4, 3: 7, 5: 9}, 2)
    assert norm_annulus(shuffled, A) == norm_annulus(ordered, A) == naive_norm_annulus(ordered, A)
    for stored, named in (({4: 2, 1: 1, 3: 5}, "2/25"), ({1: 1, 3: 5, 4: 2}, "1/25")):
        f = LaurentPoly._content(stored, 25)
        assert norm_outcome(norm_annulus, f, A) == norm_outcome(naive_norm_annulus, f, A) == (
            "raise", "NotInRingOfV", f"{named} has a pole at the extreme point of 5")
