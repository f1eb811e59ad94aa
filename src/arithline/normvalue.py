"""Certified nonnegative reals.

A ``NormValue`` is either an exact nonnegative rational or a closed interval
[lo, hi] of dyadic rationals known to contain the true value.  Interval
endpoints come from outward rounding at a configurable binary precision
(default 128 bits); sums, products, maxima and rational powers all preserve
the enclosure, so any comparison certified through ``le``/``lt`` is sound.
``+``, ``*``, ``max_with`` and ``min_with`` share one rule: the operation on
the exact values when both operands are exact, else on the endpoints.

``NormValue(lo, hi)`` is the trusted constructor for rational endpoints
(Fractions or ints): it checks 0 <= lo <= hi on the integers, by the sign
of lo's numerator and one cross-multiplication, skipped when hi is lo.
``of``, ``interval`` and ``between`` convert their inputs to Fraction first
(``of`` skips a value that already is one), so they take ints, strings and
Fractions alike.

The precision is a context variable: ``set_default_bits`` changes it for the
current thread (or the ``contextvars`` context a caller runs in) only.
``pow_pairs`` is the one rule for x ** e at a rational exponent: exact for
integer e, outward at that precision otherwise, as integer pairs for the
norms, which take maxima of such pairs by ``pair_max``; ``pow_bounds`` reads
it as Fractions.  ``exact_power`` gives x ** e only when it is rational, for
``pow_rational`` and the exact radii of ``affine_line.flow``.  Both refuse a
power above ``POW_BITS`` bits of work with CannotCertify before it is taken.
"""

import contextvars
import operator
from fractions import Fraction
from math import gcd

from .errors import BadInput, CannotCertify
from .numbers import iroot, rational_root

DEFAULT_BITS = 128
MIN_BITS = 8
POW_BITS = 1 << 16  # most bits of work a power x ** e is allowed
RESULTANT_WORK = 1 << 30  # most N^3 ceil(N h / 64)^2 a Sylvester determinant is allowed: size N, h-bit entries
DIVISION_WORK = 1 << 26  # most j (p + 1) ceil(H / 64) a pseudo-division is allowed: j steps by a degree-p divisor, entries of H bits

_bits = contextvars.ContextVar("arithline_bits", default=DEFAULT_BITS)


def default_bits() -> int:
    return _bits.get()


def set_default_bits(bits: int) -> None:
    if bits < MIN_BITS:
        raise BadInput(f"precision below {MIN_BITS} bits is not supported")
    _bits.set(bits)


def round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(x.numerator * scale // x.denominator, scale)


def round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def root_bounds(x: Fraction, k: int, bits: int):
    """Dyadic lo <= x**(1/k) <= hi for x >= 0, outward at ``bits`` bits."""
    if x < 0:
        raise ValueError("root of a negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    shifted = x.numerator * scale ** k
    t_lo = shifted // x.denominator
    m_lo = iroot(t_lo, k)
    t_hi = -((-shifted) // x.denominator)
    m_hi = iroot(t_hi, k)
    if m_hi ** k < t_hi:
        m_hi += 1
    return Fraction(m_lo, scale), Fraction(m_hi, scale)


class NormValue:
    """Exact rational or outward-rounded enclosure of a nonnegative real."""

    __slots__ = ("lo", "hi", "exact")

    def __init__(self, lo: Fraction, hi: Fraction, exact=None):
        if lo.numerator < 0 or (
            hi is not lo and hi.numerator * lo.denominator < lo.numerator * hi.denominator
        ):
            raise ValueError(f"bad enclosure [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.exact = exact

    @classmethod
    def of(cls, q) -> "NormValue":
        if q.__class__ is not Fraction:
            q = Fraction(q)
        if q.numerator < 0:
            raise ValueError("norm values are nonnegative")
        return cls(q, q, q)

    @classmethod
    def interval(cls, lo, hi) -> "NormValue":
        return cls(Fraction(lo), Fraction(hi))

    @classmethod
    def between(cls, lo, hi) -> "NormValue":
        """The exact value lo when lo == hi, else the interval [lo, hi]."""
        return cls.of(lo) if lo == hi else cls.interval(lo, hi)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self):
        if self.is_exact:
            return f"NormValue({self.exact})"
        return f"NormValue[{self.lo}, {self.hi}]"

    def __eq__(self, other):
        if isinstance(other, NormValue):
            if self.is_exact and other.is_exact:
                return self.exact == other.exact
            return self.lo == other.lo and self.hi == other.hi
        if self.is_exact:
            return self.exact == other
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi, self.exact))

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, op) -> "NormValue":
        """op (monotone on nonnegative values) on the exact values, else on the endpoints."""
        other = _coerce(other)
        if self.exact is not None and other.exact is not None:
            return NormValue.of(op(self.exact, other.exact))
        return NormValue(op(self.lo, other.lo), op(self.hi, other.hi))

    def __add__(self, other) -> "NormValue":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __mul__(self, other) -> "NormValue":
        return self._combine(other, operator.mul)

    __rmul__ = __mul__

    def max_with(self, other) -> "NormValue":
        return self._combine(other, max)

    def min_with(self, other) -> "NormValue":
        return self._combine(other, min)

    def pow_rational(self, e) -> "NormValue":
        """self ** e for rational e, exact whenever representable."""
        e = Fraction(e)
        if e == 0:
            return NormValue.of(1)
        if self.is_exact:
            q = self.exact
            if q == 0:
                if e < 0:
                    raise ZeroDivisionError("0 ** negative")
                return NormValue.of(0)
            z = exact_power(q, e)
            if z is not None:
                return NormValue.of(z)
            return NormValue(*pow_bounds(q, e))
        if e > 0:
            return NormValue(pow_bounds(self.lo, e)[0], pow_bounds(self.hi, e)[1])
        if self.lo == 0:
            raise ZeroDivisionError("negative power of interval touching 0")
        return NormValue(pow_bounds(self.hi, e)[0], pow_bounds(self.lo, e)[1])

    def rounded(self) -> "NormValue":
        """Outward-round endpoints to dyadics at the current precision."""
        if self.is_exact:
            return self
        bits = _bits.get()
        return NormValue(round_down(self.lo, bits), round_up(self.hi, bits))

    # -- certified comparisons ---------------------------------------------

    def le(self, other) -> bool:
        """Certainly <=: true only when the enclosures prove it."""
        other = _coerce(other)
        return self.hi <= other.lo

    def lt(self, other) -> bool:
        other = _coerce(other)
        return self.hi < other.lo

    def gt(self, other) -> bool:
        return _coerce(other).lt(self)

    def overlaps(self, other) -> bool:
        other = _coerce(other)
        return self.lo <= other.hi and other.lo <= self.hi


def pow_bounds(x: Fraction, e: Fraction):
    """(lo, hi) with lo <= x ** e <= hi for rational x >= 0 and e: the pairs
    of ``pow_pairs`` as Fractions, one object when exact."""
    lo, hi = pow_pairs(x.numerator, x.denominator, e)
    lo_q = Fraction(*lo)
    return lo_q, lo_q if hi is lo else Fraction(*hi)


def pow_pairs(n: int, d: int, e):
    """lo <= (n / d) ** e <= hi for n >= 0 and d > 0 in any terms and e a
    Fraction or an int, as integer pairs ((lo_n, lo_d), (hi_n, hi_d)) with
    denominators > 0.

    Both are the power, one object, when e is an integer; otherwise they are
    dyadics, outward at the current precision.  0 ** e is taken as 0 for
    every e.  The pairs need not be in lowest terms.
    """
    if n == 0:
        z = (0, 1)
        return z, z
    if e == 1:  # n / d itself: no power is taken, so no budget applies
        z = (n, d)
        return z, z
    g = gcd(n, d)
    n, d = n // g, d // g
    a, k = e.numerator, e.denominator
    # a k-th root works at k times the precision
    _check_pow_budget(abs(a) * _height(n, d) + (k * _bits.get() if k > 1 else 0))
    z = (n ** a, d ** a) if a >= 0 else (d ** -a, n ** -a)
    if k == 1:
        return z, z
    lo, hi = root_bounds(Fraction(*z), k, _bits.get())
    return (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)


def pair_max(a, b):
    """The larger of the rationals a[0]/a[1] and b[0]/b[1] (denominators > 0), a on a tie."""
    return a if a[0] * b[1] >= b[0] * a[1] else b


def exact_power(x: Fraction, e: Fraction):
    """x ** e for rational x > 0 and e when it is rational, else None.

    For e = a/k, x != 1 has a rational k-th root only if its numerator or
    denominator is at least 2^k, so none is tried once k reaches h, the
    larger bit length of the two.  Otherwise the root and its power cost
    about |a| h bits.
    """
    if x == 1:
        return x
    h = _height(x.numerator, x.denominator)
    a, k = e.numerator, e.denominator
    if k >= h:
        return None
    _check_pow_budget(abs(a) * h)
    root = rational_root(x, k) if k > 1 else x
    return None if root is None else root ** a


def _height(n: int, d: int) -> int:
    return max(n.bit_length(), d.bit_length())


def _check_pow_budget(work: int) -> None:
    if work > POW_BITS:
        raise CannotCertify(f"x ** e exceeds the budget of {POW_BITS} bits of work")


def _coerce(v) -> NormValue:
    if isinstance(v, NormValue):
        return v
    return NormValue.of(v)


def nv_sum(values) -> NormValue:
    out = NormValue.of(0)
    for v in values:
        out = out + v
    return out


def nv_max(values) -> NormValue:
    out = None
    for v in values:
        v = _coerce(v)
        out = v if out is None else out.max_with(v)
    return NormValue.of(0) if out is None else out
