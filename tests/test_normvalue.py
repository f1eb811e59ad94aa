import random
from fractions import Fraction

import pytest

from arithline.normvalue import NormValue, root_bounds
from arithline.numbers import iroot, perfect_root, rational_root


def test_iroot_matches_bruteforce():
    for n in list(range(0, 200)) + [10 ** 12 + 7, 2 ** 80 + 9]:
        for k in (1, 2, 3, 5):
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k


def test_perfect_root():
    assert perfect_root(27, 3) == 3
    assert perfect_root(-27, 3) == -3
    assert perfect_root(28, 3) is None
    assert perfect_root(-16, 2) is None
    assert rational_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_root(Fraction(5, 9), 2) is None


def test_root_bounds_enclose():
    rng = random.Random(7)
    for _ in range(200):
        num = rng.randint(1, 10 ** 8)
        den = rng.randint(1, 10 ** 8)
        k = rng.choice((2, 3, 5, 7))
        x = Fraction(num, den)
        lo, hi = root_bounds(x, k, 96)
        assert lo <= hi
        assert lo ** k <= x <= hi ** k
        assert hi - lo <= Fraction(2, 2 ** 96) * max(1, hi)


def test_exact_arithmetic():
    a = NormValue.of(Fraction(3, 4))
    b = NormValue.of(Fraction(2, 5))
    assert (a + b).exact == Fraction(23, 20)
    assert (a * b).exact == Fraction(3, 10)
    assert a.max_with(b).exact == Fraction(3, 4)


def test_pow_rational_exact_cases():
    assert NormValue.of(4).pow_rational(Fraction(1, 2)).exact == 2
    assert NormValue.of(Fraction(8, 27)).pow_rational(Fraction(2, 3)).exact == Fraction(4, 9)
    assert NormValue.of(2).pow_rational(-2).exact == Fraction(1, 4)
    assert NormValue.of(0).pow_rational(Fraction(3, 2)).exact == 0


def test_pow_rational_interval_soundness():
    nv = NormValue.of(7).pow_rational(Fraction(1, 2))
    assert not nv.is_exact
    assert nv.lo ** 2 <= 7 <= nv.hi ** 2
    assert nv.width() < Fraction(1, 2 ** 64)


def test_interval_combinators_sound():
    rng = random.Random(13)
    for _ in range(100):
        x = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        y = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
        ex = Fraction(1, rng.choice((2, 3, 5)))
        a = NormValue.of(x).pow_rational(ex)
        b = NormValue.of(y).pow_rational(ex)
        s = a + b
        prod = a * b
        # true values lie inside (compare by powering the bounds)
        assert (s.lo) <= (a.hi + b.hi)
        assert prod.lo ** ex.denominator <= (x * y) ** ex.numerator <= prod.hi ** ex.denominator
        # +, *, max and min on every exact/interval mix: exact exactly when
        # both operands are, the operation on the exact values then and on
        # the endpoints otherwise
        ops = (
            (NormValue.__add__, lambda u, v: u + v),
            (NormValue.__mul__, lambda u, v: u * v),
            (NormValue.max_with, max),
            (NormValue.min_with, min),
        )
        for u in (NormValue.of(x), a):
            for v in (NormValue.of(y), b):
                for method, op in ops:
                    got = method(u, v)
                    assert got.is_exact == (u.is_exact and v.is_exact)
                    if got.is_exact:
                        assert got.exact == op(u.exact, v.exact) == got.lo == got.hi
                    else:
                        assert (got.lo, got.hi) == (op(u.lo, v.lo), op(u.hi, v.hi))
    # a plain rational operand is an exact value; ties keep the first operand
    assert (NormValue.of(2) + 3).exact == 5 and (3 * NormValue.of(2)).exact == 6
    u, v = NormValue.interval(1, 3), NormValue.interval(Fraction(1), 2)
    assert u.max_with(v).lo is u.lo and v.min_with(u).lo is v.lo


@pytest.mark.parametrize("lo, hi, text", [
    (Fraction(-1, 3), Fraction(1, 2), "bad enclosure [-1/3, 1/2]"),
    (-2, 5, "bad enclosure [-2, 5]"),
    (Fraction(3, 4), Fraction(2, 3), "bad enclosure [3/4, 2/3]"),
    (3, 2, "bad enclosure [3, 2]"),
    (Fraction(-1), Fraction(-1), "bad enclosure [-1, -1]"),
])
def test_constructor_refuses_a_bad_enclosure(lo, hi, text):
    """lo < 0 and hi < lo are refused with one text for Fraction and int
    endpoints, the checks read on the integers."""
    with pytest.raises(ValueError) as exc:
        NormValue(lo, hi)
    assert str(exc.value) == text


def test_constructor_accepts_equal_endpoints_as_two_objects():
    lo, hi = Fraction(6, 8), Fraction(3, 4)
    assert lo is not hi
    nv = NormValue(lo, hi)
    assert (nv.lo, nv.hi, nv.is_exact) == (Fraction(3, 4), Fraction(3, 4), False)
    assert NormValue(0, 0).hi == 0 and NormValue(Fraction(1, 3), 1).hi == 1


@pytest.mark.parametrize("q, want", [(3, Fraction(3)), (Fraction(3, 4), Fraction(3, 4)),
                                     ("3/4", Fraction(3, 4)), (0, Fraction(0))])
def test_of_converts_its_input(q, want):
    nv = NormValue.of(q)
    assert type(nv.exact) is Fraction and nv.lo is nv.hi is nv.exact
    assert nv.exact == want and nv == NormValue.between(want, want)


@pytest.mark.parametrize("q", [-1, Fraction(-1, 3), "-3/4"])
def test_of_refuses_a_negative_value(q):
    with pytest.raises(ValueError) as exc:
        NormValue.of(q)
    assert str(exc.value) == "norm values are nonnegative"


def test_certified_comparisons():
    a = NormValue.interval(Fraction(1, 3), Fraction(1, 2))
    b = NormValue.interval(Fraction(3, 4), Fraction(7, 8))
    assert a.le(b) and a.lt(b)
    assert not b.le(a)
    assert not a.le(NormValue.interval(Fraction(2, 5), Fraction(3, 5)))


def test_negative_power_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        NormValue.of(0).pow_rational(-1)


def test_interval_negative_power():
    nv = NormValue.of(7).pow_rational(Fraction(1, 2))  # interval around sqrt 7
    inv = nv.pow_rational(-1)
    assert inv.lo <= Fraction(1, 2) * Fraction(3, 4) or inv.lo > 0
    assert inv.lo ** 2 <= Fraction(1, 7) <= inv.hi ** 2
    sq = nv.pow_rational(-2)
    assert sq.lo <= Fraction(1, 7) <= sq.hi
    rec = NormValue.interval(Fraction(1, 2), Fraction(2)).pow_rational(-1)
    assert rec.lo == Fraction(1, 2) and rec.hi == 2


def test_long_interval_chains_stay_sound():
    rng = random.Random(19)
    total = NormValue.of(0)
    true_lo = Fraction(0)
    true_hi = Fraction(0)
    for _ in range(100):
        x = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        e = Fraction(1, rng.choice((2, 3)))
        nv = NormValue.of(x).pow_rational(e)
        w = Fraction(rng.randint(1, 5))
        total = total + nv * NormValue.of(w)
        true_lo += w * nv.lo
        true_hi += w * nv.hi
    assert total.lo == true_lo and total.hi == true_hi
    assert total.hi - total.lo < Fraction(1, 2 ** 90)


def test_precision_is_per_thread():
    import threading

    from arithline import BaseCompact, Place, base_norm, jsonio
    from arithline.normvalue import DEFAULT_BITS, default_bits, set_default_bits

    V = BaseCompact.segment(Place.infinite(), Fraction(1, 2), Fraction(1, 2))
    both_set = threading.Barrier(2, timeout=30)
    widths = {}

    def norm_at(bits):
        set_default_bits(bits)
        both_set.wait()  # each thread computes after the other set its precision
        out = jsonio.encode(base_norm(-7, V))  # sqrt(7), outward at `bits` bits
        widths[bits] = Fraction(out["hi"]) - Fraction(out["lo"])

    threads = [threading.Thread(target=norm_at, args=(bits,)) for bits in (16, 64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert widths == {16: Fraction(1, 2 ** 16), 64: Fraction(1, 2 ** 64)}
    assert default_bits() == DEFAULT_BITS


def test_power_budget_is_checked_before_any_power():
    from arithline.errors import CannotCertify
    from arithline.normvalue import POW_BITS, pow_bounds

    # |e.numerator| h(x) with h(2) = 2 bits: 2^15 fits exactly, one more does not
    half = POW_BITS // 2
    assert pow_bounds(Fraction(2), Fraction(half)) == (2 ** half,) * 2
    assert NormValue.of(Fraction(1, 2)).pow_rational(-half).exact == 2 ** half
    for call in (lambda e: pow_bounds(Fraction(2), e), NormValue.of(2).pow_rational):
        with pytest.raises(CannotCertify):
            call(Fraction(half + 1))
        # a k-th root costs k bits of working precision (128 here): 3 * 128 + 1 * 2 fits
        call(Fraction(1, 3))
        with pytest.raises(CannotCertify):
            call(Fraction(1, POW_BITS // 128))
    assert pow_bounds(Fraction(0), Fraction(10 ** 30)) == (0, 0)
    assert NormValue.of(1).pow_rational(10 ** 4).exact == 1
