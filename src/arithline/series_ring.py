"""Laurent polynomials as the finite stand-in for series on relative annuli.

The weighted norm of sum a_k T^k on the annulus s <= |T| <= t over a compact
V is sum ||a_k||_V * max(s^k, t^k); over an ultrametric V the uniform
(spectral) norm replaces the sum by a max and is attained on the finite
Shilov boundary.  The radius weights max(s^k, t^k) come from one place,
``AnnulusSpec.weights``, as integer pairs: every norm and the pruning of
``cousin_cartan.SeriesMatrix`` read them there.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .base_space import BaseCompact, is_archimedean_compact, member_of_kv, norm_bounds_each, shilov_base
from .affine_line import LinePoint
from .errors import (
    ArchimedeanBase,
    NegativePowersOnDisk,
    NotAUnit,
    OrderingViolated,
)
from .normvalue import NormValue
from .numbers import lcm_list


class LaurentPoly:
    """Finitely supported Laurent polynomial over Q.

    ``trunc_mod = m`` marks the object as a representative of its class
    modulo T^m; all stored indices are then < m.
    """

    __slots__ = ("coeffs", "trunc_mod")

    def __init__(self, coeffs=None, trunc_mod: Optional[int] = None):
        data = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for k, c in items:
                c = Fraction(c)
                if c != 0:
                    data[int(k)] = data.get(int(k), Fraction(0)) + c
            data = {k: c for k, c in data.items() if c != 0}
        if trunc_mod is not None:
            trunc_mod = int(trunc_mod)
            data = {k: c for k, c in data.items() if k < trunc_mod}
        self.coeffs = dict(sorted(data.items()))
        self.trunc_mod = trunc_mod

    @classmethod
    def _raw(cls, data: dict, trunc_mod=None) -> "LaurentPoly":
        """Trusted constructor: values are nonzero Fractions, keys < mod."""
        obj = object.__new__(cls)
        obj.coeffs = data
        obj.trunc_mod = trunc_mod
        return obj

    @classmethod
    def from_poly(cls, coeffs, trunc_mod=None) -> "LaurentPoly":
        return cls(dict(enumerate(coeffs)), trunc_mod)

    @classmethod
    def monomial(cls, k: int, trunc_mod=None) -> "LaurentPoly":
        return cls({k: 1}, trunc_mod)

    @classmethod
    def zero(cls, trunc_mod=None) -> "LaurentPoly":
        return cls({}, trunc_mod)

    @classmethod
    def one(cls, trunc_mod=None) -> "LaurentPoly":
        return cls({0: 1}, trunc_mod)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc_mod == other.trunc_mod

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.trunc_mod))

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            body = " + ".join(f"({self.coeffs[k]})T^{k}" for k in sorted(self.coeffs))
        tail = f" mod T^{self.trunc_mod}" if self.trunc_mod is not None else ""
        return f"LaurentPoly({body}{tail})"

    def coeff(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def support(self):
        return sorted(self.coeffs)

    def min_index(self):
        return min(self.coeffs) if self.coeffs else None

    def max_index(self):
        return max(self.coeffs) if self.coeffs else None

    def has_negative_support(self) -> bool:
        return bool(self.coeffs) and min(self.coeffs) < 0

    def degree(self):
        """Degree as a polynomial (max index); None for 0."""
        return self.max_index()

    def poly_coeffs(self) -> tuple:
        """Ascending dense coefficients; requires nonnegative support."""
        if self.has_negative_support():
            raise ValueError("negative support")
        n = (self.max_index() or 0) + 1 if self.coeffs else 0
        return tuple(self.coeff(k) for k in range(n))

    def with_mod(self, trunc_mod) -> "LaurentPoly":
        """The class of self modulo T^trunc_mod (keys >= trunc_mod dropped)."""
        if trunc_mod is None:
            return LaurentPoly._raw(dict(self.coeffs))
        trunc_mod = int(trunc_mod)
        return LaurentPoly._raw(
            {k: c for k, c in self.coeffs.items() if k < trunc_mod}, trunc_mod
        )

    def shift(self, j: int) -> "LaurentPoly":
        """T^j * self; the modulus moves with the indices."""
        mod = None if self.trunc_mod is None else self.trunc_mod + j
        return LaurentPoly._raw({k + j: c for k, c in self.coeffs.items()}, mod)


def _result_mod(f: LaurentPoly, g: LaurentPoly):
    mods = [m for m in (f.trunc_mod, g.trunc_mod) if m is not None]
    return min(mods) if mods else None


def series_add(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    out = dict(f.coeffs)
    for k, c in g.coeffs.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return LaurentPoly._raw(out, _result_mod(f, g))


def series_neg(f: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._raw({k: -c for k, c in f.coeffs.items()}, f.trunc_mod)


def series_sub(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return series_add(f, series_neg(g))


# Integer content: a series f as ({k: n_k}, D) with f = sum_k (n_k / D) T^k,
# the layout of FLINT's fmpq_poly.  Hot loops run on the integers and build
# Fractions only at their ends.


def _to_content(f: LaurentPoly):
    """(numerators, D) with D the lcm of f's coefficient denominators."""
    den = lcm_list(c.denominator for c in f.coeffs.values())
    return {k: c.numerator * (den // c.denominator) for k, c in f.coeffs.items()}, den


def _from_content(num: dict, den: int, trunc_mod=None) -> LaurentPoly:
    """The series sum_k (num[k] / den) T^k; zero numerators are dropped."""
    return LaurentPoly._raw({k: Fraction(c, den) for k, c in num.items() if c}, trunc_mod)


def _convolve(f_items, g_sorted, mod) -> dict:
    """sum a_i b_j T^(i+j) over the pairs with i + j < mod (all if mod is None).

    ``g_sorted`` lists (j, b_j) by ascending j, so the inner loop stops at the
    first product past the modulus.  The result may hold zeros.
    """
    out = {}
    if not g_sorted:
        return out
    if mod is None:  # a bound past every product
        mod = max((i for i, _ in f_items), default=0) + g_sorted[-1][0] + 1
    get = out.get
    for i, a in f_items:
        top = mod - i
        for j, b in g_sorted:
            if j >= top:
                break
            k = i + j
            prev = get(k)
            out[k] = a * b if prev is None else prev + a * b
    return out


def _reduce_content(num: dict, den: int):
    """num/den with the gcd of the numerators and den divided out."""
    g = gcd(den, *num.values())
    if g > 1:
        return {k: c // g for k, c in num.items()}, den // g
    return num, den


def _invert_series(f: LaurentPoly, m: int) -> LaurentPoly:
    """Exact inverse mod T^m of sum_{0 <= j < m} f_j T^j, where f_0 != 0.

    Only the indices 0 <= j < m of f are read; negative and higher indices,
    and f's own modulus, are ignored.  The result carries modulus m.

    Newton iteration g <- g (2 - f g) (von zur Gathen and Gerhard, Modern
    Computer Algebra, 9.1) on integer content.  Invariant: g = gn/gd, with
    gn a dict of integer numerators, gd > 0, gcd(gd, gn) = 1 and
    f g = 1 mod T^prec.  Each step sets prec <- min(2 prec, m) and makes two
    truncated convolutions: e = f g - 1 mod T^prec over fd gd (it vanishes
    below the old precision), then g <- g - g e mod T^prec over fd gd^2.
    The gcd of the new numerators and denominator is divided out at every
    step, so gd stays the least common denominator of g.  Fractions are
    built once, at the end.
    """
    if not f.coeffs.get(0):
        raise ZeroDivisionError("series inverse needs a nonzero constant term")
    if m < 1:
        return LaurentPoly._raw({}, m)
    fn, fd = _to_content(LaurentPoly._raw({k: c for k, c in f.coeffs.items() if 0 <= k < m}))
    f_sorted = sorted(fn.items())
    gn, gd = _reduce_content({0: fd if fn[0] > 0 else -fd}, abs(fn[0]))
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        scale = fd * gd
        e = _convolve(gn.items(), f_sorted, prec)  # f g over fd gd
        e[0] -= scale
        e = [(k, c) for k, c in e.items() if c]
        out = {k: c * scale for k, c in gn.items()}  # g over fd gd^2
        for k, c in _convolve(e, sorted(gn.items()), prec).items():
            out[k] = out.get(k, 0) - c
        gn, gd = _reduce_content({k: c for k, c in out.items() if c}, scale * gd)
    return _from_content(dict(sorted(gn.items())), gd, m)


def series_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    # a factor known mod T^m contributes uncertainty only from T^(m + val) on
    mods = []
    if f.trunc_mod is not None:
        mods.append(f.trunc_mod + (g.min_index() or 0))
    if g.trunc_mod is not None:
        mods.append(g.trunc_mod + (f.min_index() or 0))
    mod = min(mods) if mods else None
    # convolve over Z after clearing denominators: plain int arithmetic is
    # several times cheaper than Fraction arithmetic in the inner loop
    fi, den_f = _to_content(f)
    gi, den_g = _to_content(g)
    return _from_content(_convolve(fi.items(), sorted(gi.items()), mod), den_f * den_g, mod)


def series_scale(a, f: LaurentPoly) -> LaurentPoly:
    a = Fraction(a)
    if a == 0:
        return LaurentPoly._raw({}, f.trunc_mod)
    return LaurentPoly._raw({k: a * c for k, c in f.coeffs.items()}, f.trunc_mod)


def series_arith(f: LaurentPoly, g: LaurentPoly, op: str) -> LaurentPoly:
    """Ring operation dispatch; result modulus is the min of the input moduli.

    (Internally products carry the sharper modulus min(mod_f + val g,
    mod_g + val f); the public dispatch reports the conservative contract.)
    """
    if op == "add":
        return series_add(f, g)
    if op == "mul":
        out = series_mul(f, g)
        mods = [m for m in (f.trunc_mod, g.trunc_mod) if m is not None]
        return out.with_mod(min(mods)) if mods else out
    raise ValueError(f"unknown op {op!r}")


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
            raise ValueError("need 0 <= s <= t")

    def weights(self, ks) -> list:
        """The weights max(s^k, t^k) of the indices ks as integer pairs (n, d).

        As 0 <= s <= t the weight is t^k for k >= 0 and s^k for k < 0, which
        needs s > 0.  Each pair is in lowest terms, with d > 0.
        """
        sn, sd = self.s.numerator, self.s.denominator
        tn, td = self.t.numerator, self.t.denominator
        out = []
        for k in ks:
            if k >= 0:
                out.append((tn ** k, td ** k))
            elif sn == 0:
                raise NegativePowersOnDisk("negative index on a disk (s = 0)")
            else:
                out.append((sd ** -k, sn ** -k))
        return out


def _check_support(f: LaurentPoly, A: AnnulusSpec):
    if f.has_negative_support() and A.s == 0:
        raise NegativePowersOnDisk("series has negative powers but s = 0")


def _sum_ratios(terms) -> Fraction:
    """Exact sum of the rationals n/d (d > 0) over one running lcm of the d."""
    num, den = 0, 1
    for n, d in terms:
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def norm_annulus(f: LaurentPoly, A: AnnulusSpec) -> NormValue:
    """The weighted norm  sum_k ||a_k||_V max(s^k, t^k).

    The weights are integer pairs (``AnnulusSpec.weights``) and the terms
    are summed over a common denominator, one Fraction per bound.  When
    every coefficient norm is exact the two bounds are one sum.
    """
    _check_support(f, A)
    bounds = norm_bounds_each(f.coeffs.values(), A.V)
    exact = all(c_lo is c_hi or c_lo == c_hi for c_lo, c_hi in bounds)
    lo_terms, hi_terms = [], []
    for (wn, wd), (c_lo, c_hi) in zip(A.weights(f.coeffs), bounds):
        lo_terms.append((c_lo.numerator * wn, c_lo.denominator * wd))
        if not exact:
            hi_terms.append((c_hi.numerator * wn, c_hi.denominator * wd))
    lo = _sum_ratios(lo_terms)
    if exact:
        return NormValue.of(lo)
    hi = _sum_ratios(hi_terms)
    if lo == hi:
        return NormValue.of(lo)
    return NormValue.interval(lo, hi)


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
    _check_support(f, A)
    lo = hi = Fraction(0)
    bounds = norm_bounds_each(f.coeffs.values(), A.V)
    for (wn, wd), (c_lo, c_hi) in zip(A.weights(f.coeffs), bounds):
        w = Fraction(wn, wd)
        lo = max(lo, c_lo * w)
        hi = max(hi, c_hi * w)
    if lo == hi:
        return NormValue.of(lo)
    return NormValue.interval(lo, hi)


def compare_annulus_factor(s, t, u, v) -> Fraction:
    """The norm-comparison factor s/(u-s) + t/(t-v) for s < u <= v < t."""
    s, t, u, v = (Fraction(x) for x in (s, t, u, v))
    if not (s < u <= v < t):
        raise OrderingViolated(f"need s < u <= v < t, got {(s, u, v, t)}")
    first = Fraction(0) if s == 0 else s / (u - s)
    return first + t / (t - v)


def _unit_in_kv(c: Fraction, V: BaseCompact) -> bool:
    return c != 0 and member_of_kv(c, V) and member_of_kv(1 / c, V)


def invert_unit(f: LaurentPoly, A: AnnulusSpec, m: int) -> LaurentPoly:
    """Inverse of f = c T^j (1 + h) with certified ||h||_{A} < 1, mod T^m.

    Two one-sided shapes are supported: h supported in positive degrees
    (series shape) and h supported in negative degrees (co-series shape,
    the series shape in T^-1).  Both invert through ``_invert_series``.  The
    certificate is the annulus norm of h; if neither shape certifies, the
    input is rejected.
    """
    if not f:
        raise NotAUnit("zero is not a unit")
    if m < 1:
        raise ValueError("truncation target must be positive")
    if f.has_negative_support() and A.s == 0:
        raise NegativePowersOnDisk("f has negative powers but the annulus is a disk")
    # series shape: pivot at the lowest index
    k0 = f.min_index()
    c0 = f.coeff(k0)
    h_lo = LaurentPoly({k - k0: c / c0 for k, c in f.coeffs.items() if k != k0})
    if _unit_in_kv(c0, A.V) and _h_certifies(h_lo, A):
        out = _invert_series(f.shift(-k0), m).shift(-k0)
        return out if k0 == 0 else LaurentPoly._raw(out.coeffs)
    # co-series shape: pivot at the highest index; k -> -k reflects it
    k1 = f.max_index()
    c1 = f.coeff(k1)
    h_hi = LaurentPoly({k - k1: c / c1 for k, c in f.coeffs.items() if k != k1})
    if _unit_in_kv(c1, A.V) and _h_certifies(h_hi, A):
        inv = _invert_series(LaurentPoly._raw({k1 - k: c for k, c in f.coeffs.items()}), m)
        return LaurentPoly._raw({-k - k1: c for k, c in reversed(inv.coeffs.items())})
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
