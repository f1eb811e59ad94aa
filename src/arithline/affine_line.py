"""Points of the fibers of the affine line and the flow x -> x^eps.

Fibers come in three flavours.  Over an internal point of a finite branch the
fiber is an ultrametric analytic line and we represent disk points
eta_{alpha,r} with rational center and radius; |F| there is the max of
|c_k| r^k over the Taylor coefficients c_k at alpha, their norms read by one
``norm_bounds_each`` over the base point as the one-point compact.  Over the
central point and over extreme points the fiber is the line over a trivially
valued field (Q resp. F_p): closed points pair an irreducible polynomial with
a radius r <= 1, and the outer region is parametrized by r > 1.  Over
archimedean points the rigid fibers are Gaussian rationals, and only there
does a seminorm keep exact rational roots (``pow_rational``).
"""

from dataclasses import dataclass
from fractions import Fraction

from .base_space import BasePoint, classify_base_point, norm_bounds_each
from .errors import BadInput, FlowOutOfDomain, IncompatiblePoint, IrrationalRadius, NonIntegralCoefficients
from .normvalue import NormValue, exact_power, pair_max
from .numbers import vp
from .polys import (
    Gauss,
    deg,
    fp_irreducible,
    fp_multiplicity,
    fp_reduce,
    gauss_value,
    is_irreducible_q,
    numerators,
    p_multiplicity,
    poly,
    pshift,
)


@dataclass(frozen=True)
class UmDisk:
    """eta_{alpha,r}: sup norm of the disk of center alpha, radius r."""

    alpha: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r < 0:
            raise BadInput("radius must be nonnegative")


@dataclass(frozen=True)
class TrivClosed:
    """eta_{P,r} over a trivially valued fiber: |Q| = r**v_P(Q), r <= 1."""

    P: tuple
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "P", poly(self.P))
        object.__setattr__(self, "r", Fraction(self.r))
        if not (0 <= self.r <= 1):
            raise BadInput("closed-region radius lives in [0, 1]")
        if deg(self.P) < 1:
            raise BadInput("P must be nonconstant")


@dataclass(frozen=True)
class TrivOuter:
    """eta_r in the outer region: |Q| = r**deg(Q), r > 1."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r <= 1:
            raise BadInput("outer-region radius exceeds 1")


@dataclass(frozen=True)
class Arch:
    """A rigid point z = a + b*i of an archimedean fiber."""

    z: Gauss


@dataclass(frozen=True)
class LinePoint:
    """A point of the line: a base point plus compatible fiber data."""

    base: BasePoint
    fiber: object

    def __post_init__(self):
        cat = classify_base_point(self.base)
        fib = self.fiber
        if isinstance(fib, Arch):
            if cat != "internal" or self.base.place.is_finite:
                raise IncompatiblePoint("Arch fibers sit over archimedean points")
        elif isinstance(fib, UmDisk):
            if cat != "internal" or not self.base.place.is_finite:
                raise IncompatiblePoint("disk points sit over internal finite-place points")
        elif isinstance(fib, (TrivClosed, TrivOuter)):
            if cat not in ("central", "extreme"):
                raise IncompatiblePoint("trivially-valued fibers sit over a_0 or extreme points")
            if isinstance(fib, TrivClosed):
                self._check_irreducible(fib.P, cat)
        else:
            raise IncompatiblePoint(f"unknown fiber {fib!r}")

    def _check_irreducible(self, P, cat):
        if cat == "central":
            if not is_irreducible_q(P):
                raise IncompatiblePoint("P is reducible over Q")
        else:
            p = self.base.place.prime
            Pbar = _trivial_fiber_reduction(P, self)
            if deg(Pbar) != deg(P) or not fp_irreducible(Pbar, p):
                raise IncompatiblePoint(f"P is not irreducible over F_{p}")

    # convenience constructors ------------------------------------------------

    @classmethod
    def disk(cls, base: BasePoint, alpha, r) -> "LinePoint":
        return cls(base, UmDisk(Fraction(alpha), Fraction(r)))

    @classmethod
    def rational(cls, base: BasePoint, alpha) -> "LinePoint":
        return cls(base, UmDisk(Fraction(alpha), Fraction(0)))

    @classmethod
    def triv_closed(cls, base: BasePoint, P, r) -> "LinePoint":
        return cls(base, TrivClosed(poly(P), Fraction(r)))

    @classmethod
    def triv_outer(cls, base: BasePoint, r) -> "LinePoint":
        return cls(base, TrivOuter(Fraction(r)))

    @classmethod
    def arch(cls, base: BasePoint, re, im=0) -> "LinePoint":
        return cls(base, Arch(Gauss(re, im)))

    @classmethod
    def gauss_point(cls, base: BasePoint, r) -> "LinePoint":
        """eta_{0,r} in whichever shape the fiber over ``base`` requires."""
        r = Fraction(r)
        cat = classify_base_point(base)
        if cat == "internal" and base.place.is_finite:
            return cls.disk(base, 0, r)
        if cat in ("central", "extreme"):
            if r > 1:
                return cls.triv_outer(base, r)
            return cls.triv_closed(base, (0, 1), r)
        raise IncompatiblePoint("no Gauss point over archimedean base points")


def eval_line_seminorm(F, x: LinePoint) -> NormValue:
    """|F(x)| for a polynomial F over Q."""
    F = poly(F)
    if not F:
        return NormValue.of(0)
    fib = x.fiber
    if isinstance(fib, UmDisk):
        # F = sum c_k (T - alpha)^k: the max of |c_k| r^k, |c_k| read over {x.base}
        r = fib.r
        if r:
            shifted = pshift(F, fib.alpha)
        else:  # only c_0 = F(alpha) counts: one Horner pass
            X, _, S = gauss_value(*numerators(F), Gauss(fib.alpha))
            shifted = (Fraction(X, S),)
        lo = hi = (0, 1)
        exact, rn, rd = True, 1, 1
        for c_lo, c_hi in norm_bounds_each(*numerators(shifted), x.base):
            exact = exact and c_hi is c_lo
            lo = pair_max(lo, (c_lo[0] * rn, c_lo[1] * rd))
            hi = pair_max(hi, (c_hi[0] * rn, c_hi[1] * rd))
            rn, rd = rn * r.numerator, rd * r.denominator
        return NormValue.of(Fraction(*lo)) if exact else NormValue(Fraction(*lo), Fraction(*hi))
    if isinstance(fib, (TrivClosed, TrivOuter)):
        reduced = _trivial_fiber_reduction(F, x)
        if not reduced:
            return NormValue.of(0)
        if isinstance(fib, TrivOuter):
            return NormValue.of(fib.r ** deg(reduced))
        if classify_base_point(x.base) == "central":
            v = p_multiplicity(reduced, fib.P)
        else:
            p = x.base.place.prime
            v = fp_multiplicity(reduced, fp_reduce(fib.P, p), p)
        return NormValue.of(fib.r ** v)  # 0 ** 0 = 1
    # archimedean rigid point
    X, Y, S = gauss_value(*numerators(F), fib.z)
    return NormValue.of(Fraction(X * X + Y * Y, S * S)).pow_rational(Fraction(x.base.exponent) / 2)


def _trivial_fiber_reduction(F, x: LinePoint):
    if classify_base_point(x.base) == "central":
        return F
    p = x.base.place.prime
    for c in F:
        if c != 0 and vp(c, p) < 0:
            raise NonIntegralCoefficients(f"coefficient {c} not {p}-integral")
    return fp_reduce(F, p)


def flow(x: LinePoint, eps) -> LinePoint:
    """x^eps: raise the seminorm to the power eps.

    The base exponent multiplies by eps (extreme points are fixed); disk and
    trivially-valued radii map to r**eps, which must stay rational.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise FlowOutOfDomain("flow exponents are positive")
    base = x.base
    if classify_base_point(base) in ("central", "extreme"):
        new_base = base
    else:
        new_exp = base.exponent * eps
        if not base.place.is_finite and new_exp > 1:
            raise FlowOutOfDomain(f"exponent {new_exp} leaves the archimedean branch")
        new_base = BasePoint.branch(base.place, new_exp)
    fib = x.fiber
    if isinstance(fib, Arch):
        return LinePoint(new_base, fib)
    if isinstance(fib, UmDisk):
        return LinePoint(new_base, UmDisk(fib.alpha, _rational_power(fib.r, eps)))
    if isinstance(fib, TrivClosed):
        return LinePoint(new_base, TrivClosed(fib.P, _rational_power(fib.r, eps)))
    return LinePoint(new_base, TrivOuter(_rational_power(fib.r, eps)))


def _rational_power(r: Fraction, eps: Fraction) -> Fraction:
    """r ** eps exactly: IrrationalRadius without a rational value,
    CannotCertify past the ``POW_BITS`` budget of ``normvalue.exact_power``."""
    if r == 0 or eps == 1:
        return r
    out = exact_power(r, eps)
    if out is None:
        raise IrrationalRadius(f"{r}**{eps} is irrational")
    return out
