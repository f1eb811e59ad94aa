"""Laurent polynomials as the finite stand-in for series on relative annuli.

A series is held as integer content over one denominator, the layout of
FLINT's ``fmpq_poly``, in canonical form; every series op works on the
integers, and ``LaurentPoly.coeffs`` is a Fraction view for printing.

Every product of series runs on one kernel, ``_convolve``: it adds a scaled
convolution of two numerator lists into a dict it is handed.  ``series_mul``
is its one-pair case, ``series_dot`` sums the pairs of a matrix row and
column into one dict over the lcm of the den_f den_g, and the Newton inverse
calls it directly.  (The local fixed point steps its residual window by
slice-adds of its own, ``weierstrass._step``: a divisor tail of a few terms
against one ascending run.)  Two factors of at least
``KRONECKER_TERMS`` terms at consecutive indices are multiplied by
Kronecker substitution, one product of packed integers (von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4; D. Harvey, J. Symbolic Comput. 44,
2009); everything else, sparse factors included, on schoolbook.  The
cutover sits at 16 terms because there the packed product stops losing: on
a 2-core Xeon it was 0.6-0.9 times as fast as schoolbook at 12 terms and
1.1-1.4 times as fast at 16, for coefficients of 4 to 135 bits, and it is
1.9-5 times as fast at 64.  So the short products of the benchmark's local
division (inverses to order 16) stay on schoolbook, and the series Hensel
lift, whose Newton steps at doubling precision end in a few long dense
products at the final order, makes those on the packed product.

The weighted norm of sum a_k T^k on the annulus s <= |T| <= t over a compact
V is sum ||a_k||_V * max(s^k, t^k); over an ultrametric V the uniform
(spectral) norm replaces the sum by a max and is attained on the finite
Shilov boundary.  The weight max(s^k, t^k) is t^k for k >= 0 and s^k for
k < 0.  ``_support_pairs`` is the one entry for this norm: it takes a
support already in ascending order, as the local fixed point holds its
residual, and ``norm_annulus`` calls it after one sort of its int keys.  It
sums the coefficient bounds against these powers by one integer Horner pass
over the support, in t and in 1/s, and never forms a weight on its own.  On
the trivial compact (the central point alone: no finite, archimedean or
extreme term) every nonzero coefficient has norm 1, so the norm is the
support's weight sum  sum_k max(s^k, t^k),  summed with no bound pair per
coefficient.  The uniform norm and the pruning of
``cousin_cartan.SeriesMatrix`` compare single terms, so they read the
weights as integer pairs from ``AnnulusSpec.weights``.  Both charge the
largest power of each radius to ``normvalue.POW_BITS`` before taking any.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Optional

from .base_space import (
    BaseCompact,
    _norm_endpoints,
    _refuse_poles,
    is_archimedean_compact,
    member_of_kv,
    norm_bounds_each,
    shilov_base,
)
from .affine_line import LinePoint
from .errors import (
    ArchimedeanBase,
    BadInput,
    CannotCertify,
    NegativePowersOnDisk,
    NotAUnit,
    NotInRingOfV,
    OrderingViolated,
)
from .normvalue import SERIES_ORDER, NormValue, _check_pow_budget, pair_max
from .numbers import lcm_list, parse_int, vp_int


class LaurentPoly:
    """Finitely supported Laurent polynomial over Q, as integer content.

    The series is sum_k (num[k] / den) T^k with nonzero ints num[k], den > 0
    and gcd(den, all num[k]) = 1 (den = 1 for zero).  The form is canonical,
    so ``__eq__`` and ``__hash__`` compare the fields.  ``trunc_mod = m``
    marks the object as a representative of its class modulo T^m; all stored
    indices are then < m.  The constructor and ``with_mod`` read indices and
    moduli by ``numbers.parse_int``.  ``coeffs`` and ``coeff(k)`` are
    read-only Fraction views.
    """

    __slots__ = ("num", "den", "trunc_mod")

    def __init__(self, coeffs=None, trunc_mod: Optional[int] = None):
        data = {}
        for k, c in coeffs.items() if isinstance(coeffs, dict) else coeffs or ():
            k, c = parse_int(k), c if type(c) is int or type(c) is Fraction else Fraction(c)
            data[k] = data[k] + c if k in data else c
        mod = None if trunc_mod is None else parse_int(trunc_mod)
        f = LaurentPoly._raw({k: c for k, c in sorted(data.items()) if c and (mod is None or k < mod)})
        self.num, self.den, self.trunc_mod = f.num, f.den, mod

    @classmethod
    def _raw(cls, data: dict, trunc_mod=None) -> "LaurentPoly":
        """Trusted constructor from nonzero int or Fraction values, keys < mod."""
        den = lcm_list(c.denominator for c in data.values())
        return cls._content({k: c.numerator * (den // c.denominator) for k, c in data.items()}, den, trunc_mod)

    @classmethod
    def _content(cls, num: dict, den: int, trunc_mod=None) -> "LaurentPoly":
        """The trusted constructor: sum_k (num[k] / den) T^k for int num[k], keys
        < mod and den > 0, with zeros dropped and the gcd divided out."""
        g = gcd(den, *num.values())
        if g > 1:
            num, den = {k: c // g for k, c in num.items() if c}, den // g
        elif 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        obj = object.__new__(cls)
        obj.num, obj.den, obj.trunc_mod = num, den, trunc_mod
        return obj

    @classmethod
    def from_poly(cls, coeffs, trunc_mod=None) -> "LaurentPoly":
        """sum_k coeffs[k] T^k, as ``LaurentPoly(dict(enumerate(coeffs)),
        trunc_mod)`` builds it, but as content directly, with no key to parse
        or sort: each value is read as the constructor reads it, then indices
        at or past the modulus and zeros are dropped."""
        vals = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]
        mod = None if trunc_mod is None else parse_int(trunc_mod)
        if mod is not None:
            del vals[max(mod, 0):]
        pairs = [c.as_integer_ratio() for c in vals]
        den = lcm_list(d for _, d in pairs)
        return cls._content({k: n * (den // d) for k, (n, d) in enumerate(pairs) if n}, den, mod)

    @classmethod
    def monomial(cls, k: int, trunc_mod=None) -> "LaurentPoly":
        return cls({k: 1}, trunc_mod)

    @classmethod
    def zero(cls, trunc_mod=None) -> "LaurentPoly":
        return cls({}, trunc_mod)

    @classmethod
    def one(cls, trunc_mod=None) -> "LaurentPoly":
        return cls({0: 1}, trunc_mod)

    @property
    def coeffs(self) -> dict:
        """Index -> Fraction coefficient, a new dict on each read."""
        return {k: Fraction(c, self.den) for k, c in self.num.items()}

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.num, self.den, self.trunc_mod) == (other.num, other.den, other.trunc_mod)

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), self.den, self.trunc_mod))

    def __repr__(self):
        coeffs = self.coeffs
        body = " + ".join(f"({coeffs[k]})T^{k}" for k in sorted(coeffs)) or "0"
        tail = f" mod T^{self.trunc_mod}" if self.trunc_mod is not None else ""
        return f"LaurentPoly({body}{tail})"

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.num.get(k, 0), self.den)

    def valuations(self, p: int) -> dict:
        """Index -> p-adic valuation of each stored coefficient, in stored
        order; v_p(den) is taken once."""
        e = vp_int(self.den, p)
        return {k: vp_int(n, p) - e for k, n in self.num.items()}

    def min_index(self):
        return min(self.num) if self.num else None

    def max_index(self):
        return max(self.num) if self.num else None

    def has_negative_support(self) -> bool:
        return bool(self.num) and min(self.num) < 0

    def degree(self):
        """Degree as a polynomial (max index); None for 0."""
        return self.max_index()

    def poly_coeffs(self) -> tuple:
        """Ascending dense coefficients; requires nonnegative support."""
        if self.has_negative_support():
            raise BadInput("negative support")
        return tuple(self.coeff(k) for k in range(max(self.num, default=-1) + 1))

    def with_mod(self, trunc_mod) -> "LaurentPoly":
        """The class of self modulo T^trunc_mod (keys >= trunc_mod dropped)."""
        m = None if trunc_mod is None else parse_int(trunc_mod)
        return LaurentPoly._content({k: c for k, c in self.num.items() if m is None or k < m}, self.den, m)

    def shift(self, j: int) -> "LaurentPoly":
        """T^j * self; the modulus moves with the indices."""
        mod = None if self.trunc_mod is None else self.trunc_mod + j
        return LaurentPoly._content({k + j: c for k, c in self.num.items()}, self.den, mod)


def _result_mod(f: LaurentPoly, g: LaurentPoly):
    mods = [m for m in (f.trunc_mod, g.trunc_mod) if m is not None]
    return min(mods) if mods else None


def series_add(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f + g over the lcm of the denominators, known mod the smaller modulus;
    cancelled indices and indices at or past that modulus drop out."""
    den = f.den // gcd(f.den, g.den) * g.den
    a, b = den // f.den, den // g.den
    out = {k: c * a for k, c in f.num.items()}
    get = out.get
    for k, c in g.num.items():
        s = get(k)
        out[k] = c * b if s is None else s + c * b
    mod = _result_mod(f, g)
    if f.trunc_mod != g.trunc_mod:  # the larger modulus may hold indices past mod
        out = {k: c for k, c in out.items() if k < mod}
    return LaurentPoly._content(out, den, mod)


def series_neg(f: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._content({k: -c for k, c in f.num.items()}, f.den, f.trunc_mod)


def series_sub(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return series_add(f, series_neg(g))


KRONECKER_TERMS = 16  # both factors at least this long, and dense: one integer product


def _convolve(f_items, g_sorted, mod, out=None, scale=1) -> dict:
    """Add scale * sum a_i b_j T^(i+j), over the pairs with i + j < mod (all
    if mod is None), into the dict ``out`` (a new one if None) and return it.

    ``g_sorted`` lists (j, b_j) by ascending j.  On schoolbook the inner loop
    stops at the first product past the modulus.  When both factors hold at
    least ``KRONECKER_TERMS`` terms, f at ascending consecutive indices and g
    at consecutive ones, the product is ``_kronecker``'s one integer product;
    a key then reaches ``out`` in the order schoolbook gives it, ascending.
    The result may hold zeros.
    """
    if out is None:
        out = {}
    if not g_sorted:
        return out
    if (len(f_items) >= KRONECKER_TERMS and len(g_sorted) >= KRONECKER_TERMS
            and g_sorted[-1][0] - g_sorted[0][0] == len(g_sorted) - 1):
        f_items = list(f_items)
        i0 = f_items[0][0]
        if all(i == k for k, (i, _) in enumerate(f_items, i0)):
            return _kronecker(f_items, g_sorted, mod, out, scale)
    end = g_sorted[-1][0] + 1  # past every j
    get = out.get
    for i, a in f_items:
        top = end if mod is None else mod - i
        if scale != 1:
            a *= scale
        for j, b in g_sorted:
            if j >= top:
                break
            k = i + j
            prev = get(k)
            out[k] = a * b if prev is None else prev + a * b
    return out


def _kronecker(f_items, g_sorted, mod, out, scale) -> dict:
    """``_convolve`` of two runs of consecutive indices by Kronecker
    substitution (von zur Gathen and Gerhard, Modern Computer Algebra, 8.4):
    each factor is packed into one integer, a digit of w bits per index,
    the two are multiplied once and the signed digits are read back.

    Every digit of the product is a sum of at most min(len f, len g)
    products a_i b_j, so w exceeds the bit length of that bound by one and
    holds the digit's sign.  A bias of 2^(w-1) per digit makes every digit
    of a packed integer nonnegative, so packing and unpacking are one
    ``to_bytes``/``from_bytes`` each, at whole bytes.  Indices at or past
    the modulus are dropped, first from the factors, then from the product.
    """
    i0, j0 = f_items[0][0], g_sorted[0][0]
    if mod is not None:
        f_items = f_items[:max(mod - j0 - i0, 0)]
        g_sorted = g_sorted[:max(mod - i0 - j0, 0)]
        if not f_items or not g_sorted:
            return out
    fa = [a for _, a in f_items]
    gb = [b for _, b in g_sorted]
    bits = (max(map(abs, fa)).bit_length() + max(map(abs, gb)).bit_length()
            + min(len(fa), len(gb)).bit_length())
    width = bits // 8 + 1  # bytes per digit: w = 8 width > bits
    half = 1 << (8 * width - 1)
    product = _pack(fa, width, half) * _pack(gb, width, half)
    n = len(fa) + len(gb) - 1
    raw = (product + _bias(n, width)).to_bytes(n * width, "little")
    top = n if mod is None else min(n, mod - i0 - j0)
    get = out.get
    k = i0 + j0
    for start in range(0, top * width, width):
        c = int.from_bytes(raw[start:start + width], "little") - half
        if scale != 1:
            c *= scale
        prev = get(k)
        out[k] = c if prev is None else prev + c
        k += 1
    return out


def _pack(coeffs, width: int, half: int) -> int:
    """sum_t c_t 2^(8 width t), packed with each digit biased by ``half``."""
    raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias(len(coeffs), width)


def _bias(n: int, width: int) -> int:
    """sum_{t<n} 2^(8 width t) 2^(8 width - 1): a digit's bias in each of n digits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _invert_series(f: LaurentPoly, m: int) -> LaurentPoly:
    """Exact inverse mod T^m of sum_{0 <= j < m} f_j T^j, where f_0 != 0.

    Only the indices 0 <= j < m of f are read; negative and higher indices,
    and f's own modulus, are ignored.  The result carries modulus m.

    Newton iteration g <- g (2 - f g) (von zur Gathen and Gerhard, Modern
    Computer Algebra, 9.1) on integer content.  Invariant: g is a canonical
    ``LaurentPoly`` (so g.den is its least common denominator) with
    f g = 1 mod T^prec.  Each step sets prec <- min(2 prec, m) and makes two
    truncated convolutions: e = f g - 1 mod T^prec over fd g.den (it
    vanishes below the old precision), then g <- g - g e mod T^prec over
    fd g.den^2, normalised by ``LaurentPoly._content``.
    """
    if not f.num.get(0):
        raise ZeroDivisionError("series inverse needs a nonzero constant term")
    if m < 1:
        return LaurentPoly.zero(m)
    low = LaurentPoly._content({k: c for k, c in f.num.items() if 0 <= k < m}, f.den)
    fd, f_sorted = low.den, sorted(low.num.items())
    g = LaurentPoly._content({0: fd if low.num[0] > 0 else -fd}, abs(low.num[0]))
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        scale = fd * g.den
        e = _convolve(g.num.items(), f_sorted, prec)  # f g over fd g.den
        e[0] -= scale
        e = [(k, c) for k, c in e.items() if c]
        out = {k: c * scale for k, c in g.num.items()}  # g over fd g.den^2
        for k, c in _convolve(e, sorted(g.num.items()), prec).items():
            out[k] = out.get(k, 0) - c
        g = LaurentPoly._content(out, scale * g.den)
    return LaurentPoly._content(dict(sorted(g.num.items())), g.den, m)


def _known_valuation(f: LaurentPoly) -> int:
    """A lower bound for the T-adic valuation of f as known: its lowest
    stored index, m for a stored zero known mod T^m, 0 for the exact zero."""
    if f.num:
        return min(f.num)
    return 0 if f.trunc_mod is None else f.trunc_mod


def _product_mod(fs, gs):
    """The modulus every product f g is known mod, f in fs and g in gs, each
    sequence's entries sharing one modulus: min(m_f + val g, m_g + val f)
    over the entries, val the ``_known_valuation``, or None if both are
    exact.  A factor known mod T^m contributes uncertainty only from
    T^(m + val) on."""
    mods = []
    if fs[0].trunc_mod is not None:
        mods.append(fs[0].trunc_mod + min(map(_known_valuation, gs)))
    if gs[0].trunc_mod is not None:
        mods.append(gs[0].trunc_mod + min(map(_known_valuation, fs)))
    return min(mods) if mods else None


def series_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f g: the one-pair case of ``series_dot``."""
    return series_dot((f,), (g,), _product_mod((f,), (g,)))


def series_dot(fs, gs, mod) -> LaurentPoly:
    """sum_k f_k g_k, its indices at or past ``mod`` dropped (none if None),
    known mod T^mod: the pairs are convolved into one dict over D, the lcm
    of the den_f den_g, each scaled by D / (den_f den_g), and made canonical
    by one ``LaurentPoly._content``.  A zero factor adds nothing."""
    pairs = [(f, g) for f, g in zip(fs, gs) if f.num and g.num]
    den = lcm_list(f.den * g.den for f, g in pairs)
    out = {}
    for f, g in pairs:
        _convolve(f.num.items(), sorted(g.num.items()), mod, out, den // (f.den * g.den))
    return LaurentPoly._content(out, den, mod)


def series_scale(a, f: LaurentPoly) -> LaurentPoly:
    a = Fraction(a)
    n = a.numerator
    return LaurentPoly._content({k: c * n for k, c in f.num.items()}, f.den * a.denominator,
                                f.trunc_mod)


def series_arith(f: LaurentPoly, g: LaurentPoly, op: str) -> LaurentPoly:
    """Ring operation dispatch; the result modulus is at most the min of the
    input moduli.

    A product is reported mod the smaller of that min and the modulus
    ``series_mul`` certifies, min(mod_f + val g, mod_g + val f), which is
    the lower one when a factor has negative valuation.
    """
    if op == "add":
        return series_add(f, g)
    if op == "mul":
        out = series_mul(f, g)
        m = _result_mod(f, g)
        return out if m is None or out.trunc_mod <= m else out.with_mod(m)
    raise BadInput(f"unknown op {op!r}")


def check_series_order(m: int) -> None:
    """Refuse a series pass to the truncation order m above ``SERIES_ORDER``
    with CannotCertify, before it starts."""
    if m > SERIES_ORDER:
        raise CannotCertify(f"a truncation order of {m} exceeds the SERIES_ORDER budget of {SERIES_ORDER}")


def _refuse_negative_powers():
    raise NegativePowersOnDisk("negative powers of T on a disk (s = 0)")


@dataclass(frozen=True)
class AnnulusSpec:
    """The relative annulus s <= |T| <= t over the base compact V."""

    V: BaseCompact
    s: Fraction
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", Fraction(self.s))
        object.__setattr__(self, "t", Fraction(self.t))
        if not (0 <= self.s <= self.t):
            raise BadInput("need 0 <= s <= t")

    def weights(self, ks) -> list:
        """The weights max(s^k, t^k) of the indices ks as integer pairs (n, d).

        As 0 <= s <= t the weight is t^k for k >= 0 and s^k for k < 0, which
        needs s > 0.  Each pair is in lowest terms, with d > 0.  The largest
        powers of t and s are charged to ``POW_BITS`` before any is taken.
        """
        sn, sd = self.s.numerator, self.s.denominator
        tn, td = self.t.numerator, self.t.denominator
        top, bottom = max(ks, default=0), min(ks, default=0)
        if bottom < 0 and sn == 0:
            _refuse_negative_powers()
        _charge_radius(tn, td, top)
        _charge_radius(sd, sn, -bottom)
        return [(tn ** k, td ** k) if k >= 0 else (sd ** -k, sn ** -k) for k in ks]


def _charge_radius(n: int, d: int, k: int) -> None:
    """Charge the power (n / d)^k of a radius to ``POW_BITS`` before it is
    taken: k times its height.  The radii 0 and 1 take no power, and k <= 0
    is not charged."""
    if k > 0 and (n > 1 or d > 1):
        _check_pow_budget(k * max(n.bit_length(), d.bit_length()))


def _check_support(f: LaurentPoly, A: AnnulusSpec):
    if A.s == 0 and f.has_negative_support():
        _refuse_negative_powers()


def _weighted_bounds(f: LaurentPoly, A: AnnulusSpec):
    """The terms ||a_k||_V.lo w_k and ||a_k||_V.hi w_k, w_k = max(s^k, t^k),
    as two lists of integer pairs (n, d) with d > 0: the pairs of
    ``norm_bounds_each`` times the weight pairs."""
    _check_support(f, A)
    bounds = norm_bounds_each(f.num.values(), f.den, A.V)
    lo, hi = [], []
    for (wn, wd), (c_lo, c_hi) in zip(A.weights(f.num), bounds):
        t = (c_lo[0] * wn, c_lo[1] * wd)
        lo.append(t)
        hi.append(t if c_hi is c_lo else (c_hi[0] * wn, c_hi[1] * wd))
    return lo, hi


def _radius_sum(terms, rn: int, rd: int, side: int):
    """sum_j b_j (rn / rd)^j as (num, den), for (j, bounds) by ascending j >= 0
    and b_j = bounds[side], an integer pair with a denominator > 0.

    A homogeneous Horner sum on the integers: after index j the sum is
    acc / (D rd^j).  A step to j + g multiplies acc by rd^g, raises the
    ladder rn^j by rn^g, and adds b's numerator times the ladder; b's
    denominator is merged into D by gcd only when it is neither 1 nor D.
    A gap of g indices costs one power, so sparse support stays sparse.
    """
    acc, D, j, ladder = 0, 1, 0, 1
    for k, bounds in terms:
        g = k - j
        if g:
            if rd != 1:
                acc *= rd if g == 1 else rd ** g
            if rn != 1:
                ladder *= rn if g == 1 else rn ** g
            j = k
        n, d = bounds[side]
        if d == D:
            acc += n * ladder
        elif d == 1:
            acc += n * ladder * D
        else:
            h = gcd(D, d)
            acc = acc * (d // h) + n * ladder * (D // h)
            D = D // h * d
    return acc, D * rd ** j


def norm_annulus(f: LaurentPoly, A: AnnulusSpec) -> NormValue:
    """The weighted norm  sum_k ||a_k||_V max(s^k, t^k).

    The sums of ``_support_pairs``, read as one Fraction each, one in all
    when they are exact.  The weights are not formed as pairs here; the
    uniform norm and ``SeriesMatrix.prune`` read them from
    ``AnnulusSpec.weights``.
    """
    return _pairs_value(*_norm_pairs(f, A))


def _pairs_value(lo, hi) -> NormValue:
    """The NormValue of an enclosure (lo, hi) of integer pairs from
    ``_support_pairs``."""
    q = Fraction(*lo)
    return NormValue(q, q, q) if hi is lo else NormValue.between(q, Fraction(*hi))


def _norm_pairs(f: LaurentPoly, A: AnnulusSpec):
    """``_support_pairs`` of f, its keys sorted once.  A pole refusal names
    the first stored coefficient with a pole, as the bounds taken in stored
    order named it, so a pole met on the sorted support is refused again in
    stored order."""
    ks = sorted(f.num)
    try:
        return _support_pairs(ks, list(map(f.num.__getitem__, ks)), f.den, A)
    except NotInRingOfV:
        _refuse_poles(f.num.values(), f.den, _norm_endpoints(A.V)[4])
        raise


def _support_pairs(ks, nums, den: int, A: AnnulusSpec):
    """(lo, hi), the enclosure of the weighted norm of sum_k (n_k / den) T^k
    as integer pairs (n, d) with d > 0; hi is lo when every bound is exact.

    The one norm entry: ks lists the support in ascending order and nums the
    nonzero numerators in the same order.  The refusals come in a fixed
    order: a negative index on a disk (s = 0), then a pole of some n_k / den
    on A.V, the lowest index first, then the largest powers of t and 1/s,
    charged to ``POW_BITS`` at the extreme indices of the support.

    On the trivial compact (``_norm_endpoints`` lists no finite, archimedean
    or extreme term) every nonzero coefficient has norm 1, so the norm is
    the support's weight sum  sum_k max(s^k, t^k), which ``_weight_sum``
    takes from ks alone.  Otherwise the bounds of ``norm_bounds_each`` are
    summed against t^k for k >= 0 and against (1/s)^-k for k < 0 by
    ``_radius_sum``; the hi sum is taken only when some bound is an
    interval, which a compact whose norm terms take no root never gives.
    """
    cut = bisect_left(ks, 0)  # the negative indices come first
    tn, td, sn, sd = A.t.numerator, A.t.denominator, A.s.numerator, A.s.denominator
    if cut and sn == 0:
        _refuse_negative_powers()
    _, finite, arch, extreme, pole, roots = _norm_endpoints(A.V)
    trivial = not (finite or arch or extreme)
    if trivial:
        _refuse_poles(nums, den, pole)
    else:
        bounds = norm_bounds_each(nums, den, A.V)
    if cut < len(ks):
        _charge_radius(tn, td, ks[-1])
    if cut:
        _charge_radius(sd, sn, -ks[0])
        neg = [-k for k in reversed(ks[:cut])]
        ks = ks[cut:]
    if trivial:
        lo = _weight_sum(ks, tn, td)
        if cut:
            lo = _join(lo, _weight_sum(neg, sd, sn))
        return lo, lo
    if cut:
        neg = list(zip(neg, reversed(bounds[:cut])))
        pos = list(zip(ks, bounds[cut:]))
    else:
        pos = list(zip(ks, bounds))
    lo = _radius_sum(pos, tn, td, 0)
    if cut:
        lo = _join(lo, _radius_sum(neg, sd, sn, 0))
    if not roots or all(b_hi is b_lo for b_lo, b_hi in bounds):
        return lo, lo  # every bound exact: so is the sum
    hi = _radius_sum(pos, tn, td, 1)
    if cut:
        hi = _join(hi, _radius_sum(neg, sd, sn, 1))
    return lo, hi


def _join(pos, neg):
    """The sum of two pairs (n, d)."""
    return pos[0] * neg[1] + neg[0] * pos[1], pos[1] * neg[1]


def _weight_sum(ks, rn: int, rd: int):
    """sum_k (rn / rd)^k over the ascending ks >= 0 as (num, den): the Horner
    sum of ``_radius_sum`` with every bound 1, so no pair is formed per
    index.  After index j the sum is acc / rd^j, and ladder is rn^j.

    A run a..b of L consecutive indices is added in one step, as the
    geometric sum  rn^a (rd^L - rn^L) / (rd - rn)  (rn^a L rd^(L-1) when
    rn = rd) over rd^b, so a dense support costs a few big products, not
    one product of the whole accumulator per index.  Since ks ascends,
    ks[e] - e never falls, and a run is a block on which it is constant; its
    end is found by galloping, then bisecting, so a run costs O(log L)."""
    acc, j, ladder, i, n = 0, 0, 1, 0, len(ks)
    while i < n:
        a, d = ks[i], ks[i] - i
        lo, hi, step = i, i + 1, 1  # ks[lo] is in the run; ks[hi] is not, or hi >= n
        while hi < n and ks[hi] - hi == d:
            lo, step = hi, 2 * step
            hi = lo + step
        hi = min(hi, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ks[mid] - mid == d:
                lo = mid
            else:
                hi = mid
        b, i = ks[lo], lo + 1
        if a != j and rn != 1:
            ladder *= rn ** (a - j)
        if b != j and rd != 1:
            acc *= rd ** (b - j)
        if a == b:
            acc += ladder
        else:
            L = b - a + 1
            if rn == rd:
                acc += ladder * L * rd ** (L - 1)
            else:
                acc += ladder * ((rd ** L - rn ** L) // (rd - rn))
            if rn != 1:
                ladder *= rn ** (L - 1)
        j = b
    return acc, rd ** j


def uniform_norm_annulus(
    f: LaurentPoly, A: AnnulusSpec, archimedean_upper_bound: bool = False
) -> NormValue:
    """The spectral norm  max_k ||a_k||_V max(s^k, t^k)  over ultrametric V.

    Over a compact touching the archimedean branch the max formula is only a
    lower bound for the true sup; pass ``archimedean_upper_bound=True`` to
    get the sum norm back as a certified upper bound instead of an error.
    """
    if is_archimedean_compact(A.V):
        if archimedean_upper_bound:
            return norm_annulus(f, A)
        raise ArchimedeanBase("uniform norm needs an ultrametric base compact")
    lo, hi = (Fraction(*reduce(pair_max, terms, (0, 1))) for terms in _weighted_bounds(f, A))
    return NormValue.between(lo, hi)


def compare_annulus_factor(s, t, u, v) -> Fraction:
    """The norm-comparison factor s/(u-s) + t/(t-v) for s < u <= v < t."""
    s, t, u, v = (Fraction(x) for x in (s, t, u, v))
    if not (s < u <= v < t):
        raise OrderingViolated(f"need s < u <= v < t, got {(s, u, v, t)}")
    first = Fraction(0) if s == 0 else s / (u - s)
    return first + t / (t - v)


def _unit_in_kv(c: Fraction, V: BaseCompact) -> bool:
    return c != 0 and member_of_kv(c, V) and member_of_kv(1 / c, V)


def _h_part(f: LaurentPoly, k0: int) -> LaurentPoly:
    """h with f = c T^k0 (1 + h), c the coefficient at k0: the terms
    (a_k / c) T^(k - k0) for k != k0, indices ascending."""
    n0 = f.num[k0]
    sign = 1 if n0 > 0 else -1
    return LaurentPoly._content(
        {k - k0: sign * c for k, c in sorted(f.num.items()) if k != k0}, abs(n0)
    )


def invert_unit(f: LaurentPoly, A: AnnulusSpec, m: int) -> LaurentPoly:
    """Inverse of f = c T^j (1 + h) with certified ||h||_{A} < 1, mod T^m.

    Two one-sided shapes are supported: h supported in positive degrees
    (series shape) and h supported in negative degrees (co-series shape,
    the series shape in T^-1).  Both invert through ``_invert_series``.  The
    certificate is the annulus norm of h; if neither shape certifies, the
    input is rejected.
    """
    check_series_order(m)
    if not f:
        raise NotAUnit("zero is not a unit")
    if m < 1:
        raise BadInput("truncation target must be positive")
    _check_support(f, A)
    # series shape: pivot at the lowest index
    k0 = f.min_index()
    if _unit_in_kv(f.coeff(k0), A.V) and _h_certifies(_h_part(f, k0), A):
        out = _invert_series(f.shift(-k0), m).shift(-k0)
        return out if k0 == 0 else out.with_mod(None)
    # co-series shape: pivot at the highest index; k -> -k reflects it
    k1 = f.max_index()
    if _unit_in_kv(f.coeff(k1), A.V) and _h_certifies(_h_part(f, k1), A):
        inv = _invert_series(LaurentPoly._content({k1 - k: c for k, c in f.num.items()}, f.den), m)
        return LaurentPoly._content({-k - k1: c for k, c in reversed(inv.num.items())}, inv.den)
    raise NotAUnit("no factorization f = c T^k (1 + h) with ||h|| < 1 certified")


def _h_certifies(h: LaurentPoly, A: AnnulusSpec) -> bool:
    if not h:
        return True
    try:
        nrm = norm_annulus(h, A)
    except (NegativePowersOnDisk,):
        return False
    return nrm.lt(1)


def shilov_annulus(A: AnnulusSpec) -> list:
    """Shilov boundary of the relative annulus over an ultrametric compact."""
    if is_archimedean_compact(A.V):
        raise ArchimedeanBase("Shilov description needs an ultrametric base")
    radii = sorted({r for r in (A.s, A.t) if r > 0})
    if not radii:
        radii = [Fraction(0)]
    out = []
    for v in shilov_base(A.V):
        for r in radii:
            out.append(LinePoint.gauss_point(v, r))
    return out
