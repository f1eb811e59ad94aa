"""Certified nonnegative reals.

A ``NormValue`` is either an exact nonnegative rational or a closed interval
[lo, hi] of dyadic rationals known to contain the true value.  Interval
endpoints come from outward rounding at a configurable binary precision
(default 128 bits); sums, products, maxima and rational powers all preserve
the enclosure, so any comparison certified through ``le``/``lt`` is sound.

The precision is a context variable: ``set_default_bits`` changes it for the
current thread (or the ``contextvars`` context a caller runs in) only.
``pow_bounds`` is the one rule for x ** e at a rational exponent: exact for
integer e, outward at that precision otherwise; it and ``pow_rational``
refuse a power above ``POW_BITS`` of work before taking it.
"""

import contextvars
from fractions import Fraction

from .errors import CannotCertify
from .numbers import iroot, rational_root

DEFAULT_BITS = 128
MIN_BITS = 8
POW_BITS = 1 << 16  # most bits of work a power x ** e is allowed

_bits = contextvars.ContextVar("arithline_bits", default=DEFAULT_BITS)


def default_bits() -> int:
    return _bits.get()


def set_default_bits(bits: int) -> None:
    if bits < MIN_BITS:
        raise ValueError(f"precision below {MIN_BITS} bits is not supported")
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
        if lo < 0 or hi < lo:
            raise ValueError(f"bad enclosure [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.exact = exact

    @classmethod
    def of(cls, q) -> "NormValue":
        q = Fraction(q)
        if q < 0:
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

    def __add__(self, other) -> "NormValue":
        other = _coerce(other)
        if self.is_exact and other.is_exact:
            return NormValue.of(self.exact + other.exact)
        return NormValue(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __mul__(self, other) -> "NormValue":
        other = _coerce(other)
        if self.is_exact and other.is_exact:
            return NormValue.of(self.exact * other.exact)
        return NormValue(self.lo * other.lo, self.hi * other.hi)

    __rmul__ = __mul__

    def max_with(self, other) -> "NormValue":
        other = _coerce(other)
        if self.is_exact and other.is_exact:
            return NormValue.of(max(self.exact, other.exact))
        return NormValue(max(self.lo, other.lo), max(self.hi, other.hi))

    def min_with(self, other) -> "NormValue":
        other = _coerce(other)
        if self.is_exact and other.is_exact:
            return NormValue.of(min(self.exact, other.exact))
        return NormValue(min(self.lo, other.lo), min(self.hi, other.hi))

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
            _check_pow_budget(q, e)
            if e.denominator == 1:
                return NormValue.of(q ** e.numerator)
            root = rational_root(q, e.denominator)
            if root is not None:
                return NormValue.of(root ** e.numerator)
            return NormValue(*pow_bounds(q, e))
        if e > 0:
            return NormValue(pow_bounds(self.lo, e)[0], pow_bounds(self.hi, e)[1])
        if self.lo == 0:
            raise ZeroDivisionError("negative power of interval touching 0")
        return NormValue(pow_bounds(self.hi, e)[0], pow_bounds(self.lo, e)[1])

    def reciprocal(self) -> "NormValue":
        return self.pow_rational(-1)

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
    """(lo, hi) with lo <= x ** e <= hi for rational x >= 0 and e.

    Both are x ** e when e is an integer; otherwise they are dyadics, outward
    at the current precision.  0 ** e is taken as 0 for every e.
    """
    if x == 0:
        return Fraction(0), Fraction(0)
    if e == 1:  # x itself: no power is taken, so no budget applies
        return x, x
    _check_pow_budget(x, e)
    z = x ** e.numerator
    if e.denominator == 1:
        return z, z
    return root_bounds(z, e.denominator, _bits.get())


def _check_pow_budget(x: Fraction, e: Fraction) -> None:
    """CannotCertify when |a| h(x) + (k bits if k > 1) exceeds POW_BITS, for
    e = a/k and h(x) the larger bit length of x's numerator and denominator."""
    work = abs(e.numerator) * max(x.numerator.bit_length(), x.denominator.bit_length())
    if e.denominator > 1:
        work += e.denominator * _bits.get()
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
