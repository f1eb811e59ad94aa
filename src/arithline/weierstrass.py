"""Weierstrass division with certified constants, preparation, Hensel lifting,
residual norms on finite covers, and the resultant interpolation bound.

Global division follows the contraction scheme behind the explicit threshold
condition  sum_k ||g_k|| v^(k-p) <= 1/2, which yields the quotient/remainder
bounds ||Q|| <= 2 v^(-p) ||F|| and ||R|| <= 2 ||F||.  The threshold is the
first radius v = i 2^-16 on the grid that meets the condition, its ||g_k||
read from G's integer content as pairs.  Cleared of denominators the
condition is an integer polynomial inequality in the grid index i, decided
by one Horner pass, and the indices that meet it form a ray [i*, oo).  The
search walks up to i* by integer Newton steps from the lower bound behind
Fujiwara's root bound; the condition is concave in i, so no step passes
i*, and the walk stops at the first index whose exact value meets it: i*,
the index before it failing.  No float is used.  The search answers when
i* <= 2^299 and otherwise raises NoContractionRadiusFound (see
``global_threshold``).  Each ``divide`` and each ``QuotientRing`` runs the
search again: a v handed in would need two exact passes (v meets the
condition, v - 2^-16 does not) before it could be trusted, so none is taken
and nothing is cached.  Q and R come from ``_euclid``, which runs the one
integer pseudo-division ``polys.pdivide`` on F's numerators and G's and
turns the result back into content; it also serves the polynomial branch of
local division, where G's leading coefficient is a unit.  Local division of
truncated series otherwise iterates the residual r <- -alpha(r) B mod T^m,
B = G/u - T^p formed once, keeps alpha(phi) as one running integer sum and
records its certificate.  The residual is one ascending list of integer
numerators over its window [lo, lo + len) below T^m, over one denominator:
a step is one slice-add per term of B and one gcd, and the norm is read off
the window's nonzero support, on the central point as its weight sum.  The
window starts at the residual's lowest index, which rises every step, and
ends at the highest index reached, so nothing is sized by m: F below T^p
modulo T^(2^200) answers at once.
``hensel_lift_root`` is the one Hensel lift, for series and p-adic roots (the
roots of unity of ``covers_galois`` among them).  A series lift prints the
gauges v_k = v(P(x_k) mod T^m) = min(m, v(x_k - r)) of its Newton steps
(P'(r) is a unit).  A step's error is e^2 (a_2 + O(e)) / P'(r + e), so once
w = v(P''(r)/2) < v_k, read off P''/2 at x_k mod T^(v_k), every later gauge
is min(m, 2 v + w) and the root is finished by Newton at doubling
precision; before that (or for a linear P) steps run at full precision.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import add, mul
from typing import Optional

from .base_space import (
    BaseCompact,
    BasePoint,
    _norm_endpoints,
    _refuse_poles,
    abs_at_place,
    base_norm,
    classify_base_point,
    eval_base_seminorm,
    is_inf,
    norm_bounds_each,
    shilov_base,
)
from .errors import (
    BadInput,
    NoContractionRadiusFound,
    NoConvergence,
    NonIntegralAtExtremePoint,
    NotMonic,
    NotSeparable,
    NotSimpleRoot,
    RadiusBelowThreshold,
    RadiusTooSmall,
    ValuationUndefined,
)
from .normvalue import NormValue, nv_max, nv_sum
from .numbers import invmod, iroot, is_prime, lcm_list, vp, vp_int
from .padic import PadicApprox
from .polys import (
    Gauss,
    check_division_work,
    deg,
    fp_reduce,
    gauss_value,
    hensel_multi_lift,
    is_monic,
    numerators,
    pderiv,
    pdivide,
    poly,
    sylvester_resultant,
)
from .series_ring import (
    AnnulusSpec,
    LaurentPoly,
    _charge_radius,
    _invert_series,
    _pairs_value,
    _support_pairs,
    check_series_order,
    norm_annulus,
    series_add,
    series_mul,
    series_scale,
    series_sub,
)

_GRID_BITS = 16
GRID = Fraction(1, 1 << _GRID_BITS)  # dyadic search grid for certified thresholds
_SEARCH_CAP = 1 << 299  # the largest grid index a threshold search answers with
_LEAD_BITS = 30  # one CPython digit: how far local division's D may run ahead of r.den


def _monic(G, refusal: str) -> LaurentPoly:
    """The divisor G, a ``LaurentPoly`` or an ascending coefficient sequence,
    as content; NotMonic(refusal) unless its leading coefficient is 1."""
    if isinstance(G, LaurentPoly):
        if G.has_negative_support():
            raise BadInput("negative support")
    else:
        G = LaurentPoly.from_poly(G)
    if not G or G.num[G.degree()] != G.den:
        raise NotMonic(refusal)
    return G


def global_threshold(G, V: BaseCompact) -> Fraction:
    """Smallest grid radius v certified to satisfy sum ||g_k|| v^(k-p) <= 1/2.

    The b_k = ||g_k||_V.hi come from one ``norm_bounds_each`` call on G's
    content, as integer pairs b_k = n_k / d_k.  With D the lcm of the d_k
    and v = i GRID, multiplying the condition by 2 D i^p > 0 gives the
    integer inequality

        P(i) = D i^p - sum_{k<p} C_k i^k >= 0,   C_k = 2 (D b_k) 2^(16(p-k)),

    which holds at exactly the grid indices where the rational condition
    holds, interval-valued norms included.  P has one sign change, so the
    indices i >= 1 where it holds form a ray [i*, oo).  The search walks up
    to i* by Newton's method on h = P / (D i^p) = 1 - sum_k (C_k / D) i^(k-p),
    which is increasing and concave: from an i with P(i) < 0 it steps by
    floor(-h / h') = -P(i) i // (i P'(i) - p P(i)), at least 1, and never
    past the root.  The divisor is sum_k (p - k) C_k i^k > 0.  The walk
    starts at max(1, iroot(C_k // D, p - k) - 1) for the term with the
    largest log2(C_k // D) / (p - k), the lower bound behind Fujiwara's root
    bound, which lies below every root, and stops at the first index where
    the exact value P(i) >= 0; it is i*, the index before it failing.
    ``_value_and_slope`` gives P and P' by one Horner pass; every index the
    answer depends on is decided by the exact value, and the slope only
    chooses the index tried next.  Were the last failing index and the
    first certifying one not adjacent, a bisection between them would find
    i*.  The answer is i* GRID when i* <= 2^299; otherwise, the walk having
    reached 2^299 with P < 0, NoContractionRadiusFound("threshold search
    exhausted").
    """
    G = _monic(G, "threshold needs a monic divisor")
    p = G.degree()
    if p < 1:
        raise NotMonic("divisor must have positive degree")
    b = [hi for _, hi in norm_bounds_each([G.num.get(k, 0) for k in range(p)], G.den, V)]
    D = lcm_list(d for _, d in b)
    C = [b[k][0] * (D // b[k][1]) << (_GRID_BITS * (p - k) + 1) for k in range(p)]
    coeffs = [D] + [-c for c in reversed(C)]  # P's coefficients, highest first
    q, m = 0, 1  # the term (C_k // D, p - k) with the largest log2(C_k // D) / (p - k)
    for k, c in enumerate(C):
        if ((c // D).bit_length() - 1) * m > (q.bit_length() - 1) * (p - k):
            q, m = c // D, p - k
    lo, i = 0, min(max(1, iroot(q, m) - 1), _SEARCH_CAP)
    value, slope = _value_and_slope(coeffs, i)
    while value < 0:
        if i == _SEARCH_CAP:
            raise NoContractionRadiusFound("threshold search exhausted")
        lo, i = i, min(i + max(1, -value * i // (i * slope - p * value)), _SEARCH_CAP)
        value, slope = _value_and_slope(coeffs, i)
    while lo + 1 < i:
        mid = (lo + i) // 2
        if _value_and_slope(coeffs, mid)[0] >= 0:
            i = mid
        else:
            lo = mid
    return i * GRID


def _value_and_slope(coeffs, i: int):
    """(P(i), P'(i)) for P's coefficients highest first, by one Horner pass."""
    value = slope = 0
    for c in coeffs:
        slope = slope * i + value
        value = value * i + c
    return value, slope


def _euclid(F: LaurentPoly, G: LaurentPoly, A: Optional[AnnulusSpec] = None):
    """(Q, R) with F = Q G + R and deg R < deg G, both known mod F's modulus.

    F has nonnegative support and G is a polynomial with leading
    coefficient u != 0.  With F = f / d and G = g / e on their content,
    ``polys.pdivide`` gives s f = q g + r on the integers; then
    Q = e q / (d s) and R = r / (d s).  Q and R store only indices below
    deg F, hence below F's modulus.  Work above ``DIVISION_WORK`` is refused
    on the sparse content, before the dense lists are built.  Given the
    annulus A whose norms follow, the refusals ``norm_annulus(F, A)`` would
    make are made next, in its order: a pole of F on A.V, then t^(deg F)
    charged to ``POW_BITS``.
    """
    mod = F.trunc_mod
    p, n = G.degree(), F.degree()
    if n is None or n < p:
        return LaurentPoly._content({}, 1, mod), F
    check_division_work(n, p, max(map(abs, F.num.values())).bit_length(),
                        max(map(abs, G.num.values())).bit_length())
    if A is not None:
        _refuse_poles(F.num.values(), F.den, _norm_endpoints(A.V)[4])
        _charge_radius(A.t.numerator, A.t.denominator, n)
    s, q, r = pdivide([F.num.get(i, 0) for i in range(n + 1)], [G.num.get(i, 0) for i in range(p + 1)])
    den = F.den * s
    Q = LaurentPoly._content({k: c * G.den for k, c in enumerate(q)}, den, mod)
    return Q, LaurentPoly._content(dict(enumerate(r)), den, mod)


@dataclass(frozen=True)
class DivisionCert:
    """Certificate for one global division F = Q G + R at radius w."""

    v: Fraction
    w: Fraction
    normF: NormValue
    normQ: NormValue
    normR: NormValue
    q_bound_ok: bool
    r_bound_ok: bool

    @property
    def bounds_ok(self) -> bool:
        return self.q_bound_ok and self.r_bound_ok


def divide(F, G, V: BaseCompact, w):
    """Divide F by the monic polynomial G over the compact V at radius w.

    Returns (Q, R, cert) with F = Q G + R exactly (mod T^m when F carries a
    truncation modulus), deg R < deg G, and the certificate for the bounds
    ||Q||_{V,w} <= 2 v^(-p) ||F||_{V,w} and ||R||_{V,w} <= 2 ||F||_{V,w}.
    """
    w = Fraction(w)
    G = _monic(G, "global division needs a monic divisor")
    p = G.degree()
    v = global_threshold(G, V)
    if w < v:
        raise RadiusBelowThreshold(f"w = {w} below certified threshold {v}")
    if not isinstance(F, LaurentPoly):
        F = LaurentPoly.from_poly(poly(F))
    if F.has_negative_support():
        raise BadInput("global division expects nonnegative support")
    A = AnnulusSpec(V, Fraction(0), w)
    Q, R = _euclid(F, G, A)
    normF = norm_annulus(F, A)
    normQ = norm_annulus(Q, A)
    normR = norm_annulus(R, A)
    factor = NormValue.of(2 * v ** (-p))
    cert = DivisionCert(
        v=v,
        w=w,
        normF=normF,
        normQ=normQ,
        normR=normR,
        q_bound_ok=normQ.le(factor * normF),
        r_bound_ok=normR.le(NormValue.of(2) * normF),
    )
    return Q, R, cert


# -- local (series) division --------------------------------------------------


@dataclass(frozen=True)
class LocalDivisionCert:
    """Contraction data for the fixed-point division at the chosen radius."""

    radius: Fraction
    epsilon: NormValue  # certified bound on ||A - I|| at the radius
    residuals: tuple  # per-iteration norms of F - (Q_n G + R_n)


def _anchor_point(V: BaseCompact) -> BasePoint:
    """The distinguished base point at which local reductions happen.

    A segment reaching the end of a finite branch anchors at the extreme
    point (the compact is then a neighborhood of it); otherwise a compact
    containing a_0 anchors there, and a proper internal segment anchors at
    its left endpoint.
    """
    if V.kind == "segment" and is_inf(V.v):
        return BasePoint.extreme(V.place.prime)
    if V.contains_central():
        return BasePoint.central()
    return BasePoint.branch(V.place, V.u)


def _reduction_valuation(G: LaurentPoly, b: BasePoint) -> Optional[int]:
    """T-adic valuation of the reduction of G at the base point b."""
    if classify_base_point(b) != "extreme":
        return G.min_index()
    for k, v in sorted(G.valuations(b.place.prime).items()):
        if v < 0:
            raise NonIntegralAtExtremePoint(f"coefficient {G.coeff(k)} at T^{k}")
        if v == 0:
            return k
    return None


def divide_local_series(F: LaurentPoly, G: LaurentPoly, p: int, m: int, ctx: AnnulusSpec):
    """Weierstrass division of truncated series: F = Q G + R mod T^m, deg R < p.

    G's reduction at the anchor point of ctx.V must have T-adic valuation
    exactly p.  Two exactly-representable regimes are supported: the low
    coefficients of G vanish identically (fixed-point iteration, recorded
    contraction certificate), or G is a polynomial of degree p whose low
    coefficients vanish at the anchor (euclidean division).  Returns
    (Q, R, cert).
    """
    if m < 1:
        raise BadInput("truncation order must be positive")
    if F.has_negative_support() or G.has_negative_support():
        raise BadInput("local division expects nonnegative support")
    b = _anchor_point(ctx.V)
    val = _reduction_valuation(G, b)
    if val is None:
        raise ValuationUndefined("G reduces to 0 at the anchor point")
    if val != p:
        raise ValuationUndefined(f"reduction has valuation {val}, expected {p}")
    F = F.with_mod(m)
    if G.min_index() >= p:
        if F.num and max(F.num) >= p:  # else the fixed point is F itself, at any m
            check_series_order(m)
        return _divide_by_iteration(F, G, p, m, ctx)
    if G.degree() == p:
        Q, R = _euclid(F, G)
        cert = _contraction_cert(_tail(G, p), p, ctx)
        return Q, R, cert
    raise ValuationUndefined(
        "G has nonvanishing low coefficients and degree > p; the quotient "
        "coefficients are not rational and cannot be represented exactly"
    )


def _tail(G: LaurentPoly, p: int) -> LaurentPoly:
    """B = G/u - T^p, u the coefficient of T^p in G, formed once per division."""
    return series_sub(series_scale(1 / G.coeff(p), G), LaurentPoly.monomial(p))


def _contraction_cert(B: LaurentPoly, p: int, ctx: AnnulusSpec) -> LocalDivisionCert:
    """Search a dyadic radius where ||A - I|| <= ||B|| w^(-p) < 1, B = G/u - T^p
    untruncated."""
    if not B:
        return LocalDivisionCert(Fraction(1), NormValue.of(0), ())

    # scan dyadic radii outward from 1: small radii win when B has high
    # valuation, large radii when the low coefficients are small in norm.
    # The norms of B's coefficients do not depend on w, so an error in them (a
    # pole of G/u on V, a power past POW_BITS) is raised at w = 1, the first
    # radius tried, and no radius could certify.  The weights w^k are charged
    # to POW_BITS per radius, so a long B can also be refused at a far
    # radius, deg B * bits(w) past the budget.  B has only indices > p or
    # only indices < p, so eps(w) = sum ||b_k|| w^(k-p) is monotone: at the
    # first j that certifies, only one of 2^j, 2^-j does, and the set's
    # order never changes the radius.
    for j in range(600):
        for w in {Fraction(2) ** j, Fraction(2) ** -j}:
            eps = norm_annulus(B, AnnulusSpec(ctx.V, Fraction(0), w)) * NormValue.of(w ** (-p))
            if eps.lt(1):
                return LocalDivisionCert(w, eps, ())
    raise NoContractionRadiusFound("no dyadic radius certifies the contraction")


def _divide_by_iteration(F: LaurentPoly, G: LaurentPoly, p: int, m: int, ctx: AnnulusSpec):
    """Fixed point of A(phi) = phi + alpha(phi) B = F mod T^m, B = G/u - T^p.

    A is linear, so the residual r = F - A(phi) of phi + r is -alpha(r) B:
    from phi_0 = F, r_0 = -(alpha(F) B) mod T^m, and each step phi <- phi + r
    is followed by r <- -(alpha(r) B) mod T^m, without rebuilding A(phi).
    The norms of r_0, r_1, ... at the certified radius are the residuals.

    phi itself is never formed.  B, hence every r, lives above T^p, so
    R = F mod T^p, and Q = alpha(phi) / u with alpha(phi) = alpha(F) plus the
    alpha(r) of each step, made canonical once, at the end.

    r is one ascending list of integer numerators over its window
    [lo, lo + len(r)), over one denominator d; alpha(F) enters as the first
    such list, F's terms from its lowest index >= p up.  A step is one
    slice-add of r times b_j per term b_j T^j of -B mod T^m, the window cut
    at T^m, and one gcd over the window.  B's lowest index exceeds p, so lo
    rises with every step; r[0] times B's lowest coefficient leads the next
    window, so a window starts at a nonzero term and empties only when lo
    reaches m.  The norm is read off the nonzero support by
    ``_support_pairs``.  The running sum alpha(phi) is one list over the
    indices reached, over one denominator D.  Nothing is sized by m: the
    lists are as long as the indices the steps reach, so with F below T^p a
    modulus of 2^200 costs nothing.  r_(n+k).den divides r_n.den Bd^k, so
    when d does not divide D, D grows to lcm(D, d Bd^K) and the next K steps
    need no rescale of the running sum.  K doubles at each growth while
    Bd^K fits in ``_LEAD_BITS``: a scale D / d of one digit costs a step no
    more than a small one, where a longer lead would multiply every term of
    every long window by a long scale.  So the rescales number O(log steps)
    up to that K, and one per K steps after.
    """
    u = G.coeff(p)
    B = _tail(G, p)
    cert = _contraction_cert(B, p, ctx)
    at_radius = AnnulusSpec(ctx.V, Fraction(0), cert.radius)
    minus_B = LaurentPoly._content({j: -c for j, c in B.num.items() if j < m}, B.den)
    beta, Bd = sorted(minus_B.num.items()), minus_B.den
    high = [k for k in F.num if k >= p]
    lo = min(high, default=m)
    r, d = [F.num.get(k, 0) for k in range(lo, max(high, default=m - 1) + 1)], F.den
    total, D, K = [], F.den, 1  # alpha(phi) over D, from index 0
    top_K = max(1, _LEAD_BITS // Bd.bit_length())
    residuals = []
    while True:
        if r:
            if D % d:
                grown = lcm_list((D, d * Bd ** K))
                total, D, K = list(map(mul, total, repeat(grown // D))), grown, min(2 * K, top_K)
            start = lo - p
            end = start + len(r)
            if len(total) < end:
                total += [0] * (end - len(total))
            total[start:end] = map(add, total[start:end], map(mul, r, repeat(D // d)))
            r, lo, d = _step(r, lo - p, d, beta, Bd, m)
        support = list(compress(range(lo, lo + len(r)), r))
        residuals.append(_pairs_value(*_support_pairs(support, list(filter(None, r)), d, at_radius)))
        if not r:
            break
    Q = series_scale(1 / u, LaurentPoly._content({j: c for j, c in enumerate(total) if c}, D, m - p))
    R = LaurentPoly._content({k: c for k, c in F.num.items() if k < p}, F.den)
    return Q, R, LocalDivisionCert(cert.radius, cert.epsilon, tuple(residuals))


def _step(r: list, at: int, d: int, beta, Bd: int, m: int):
    """(numerators, lowest index, denominator) of sum_j b_j T^j times the
    numerators r over d at the indices at, at + 1, ..., cut at T^m and
    reduced by the gcd of the window: beta lists the (j, b_j) of a series
    over Bd by ascending j.  One slice-add per term of beta."""
    if not beta:
        return [], m, 1
    j0 = beta[0][0]
    lo = at + j0
    n = min(len(r) + beta[-1][0] - j0, m - lo)
    if n <= 0:
        return [], m, 1
    out = list(map(mul, r, repeat(beta[0][1], n)))
    out += [0] * (n - len(out))
    for j, b in beta[1:]:
        o = j - j0
        count = min(len(r), n - o)
        if count <= 0:
            break
        out[o:o + count] = map(add, out[o:o + count], map(mul, r, repeat(b, count)))
    d *= Bd
    g = gcd(d, *out)
    if g > 1:
        out, d = [c // g for c in out], d // g
    return out, lo, d


def prepare(G: LaurentPoly, p: int, m: int, ctx: AnnulusSpec):
    """Weierstrass preparation: G = E * Omega mod T^m with Omega distinguished.

    Omega = T^p - R where R is the remainder of dividing T^p by G; E is the
    inverse of the quotient.  Returns (E, Omega, cert).  The division runs
    to the order m + p, which ``SERIES_ORDER`` bounds first.
    """
    check_series_order(m + p)
    Tp = LaurentPoly.monomial(p, trunc_mod=m + p)
    Q, R, cert = divide_local_series(Tp, G.with_mod(m + p), p, m + p, ctx)
    Omega = series_sub(LaurentPoly.monomial(p), R)
    c0 = Q.coeff(0)
    if c0 == 0:
        raise ValuationUndefined("quotient is not a unit; preparation fails")
    E = _invert_series(Q, m)
    return E, Omega, cert


# -- Hensel lifting -----------------------------------------------------------


@dataclass(frozen=True)
class HenselReport:
    """Residual-gauge trace of a Newton/Hensel run (valuations per step)."""

    gauges: tuple


def hensel_lift_root(P, f0, target: int):
    """Refine a simple approximate root of P to the target precision.

    Two coefficient rings are supported.  If f0 is a PadicApprox, P is a
    polynomial over Q with p-integral coefficients and target is the p-adic
    precision N; a sparse P may be given as a {degree: coefficient} map.  If
    f0 is a LaurentPoly, P is a polynomial in S whose coefficients are
    series with no negative index and target is the T-adic truncation order
    m.  Returns (root, report) with the per-step residual gauges.
    """
    if isinstance(f0, PadicApprox):
        return _hensel_padic(P, f0, target)
    if isinstance(f0, LaurentPoly):
        check_series_order(target)
        return _hensel_series(P, f0, target)
    raise TypeError("f0 must be a PadicApprox or a LaurentPoly")


def _terms_mod(terms: dict, mod: int) -> list:
    """The nonzero (degree, coefficient mod ``mod``) pairs of a map of
    p-integral coefficients; ``fp_reduce`` trims only trailing zeros, which
    ``zip`` then leaves out."""
    return [(i, r) for i, r in zip(terms, fp_reduce(terms.values(), mod)) if r]


def _eval_mod(terms, x: int, mod: int) -> int:
    """The polynomial with these (degree, integer coefficient) terms at x, mod ``mod``."""
    return sum(c * pow(x, i, mod) for i, c in terms) % mod


def _val_mod(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    return min(vp_int(n, p), cap)


def _hensel_padic(P, f0: PadicApprox, N: int):
    """Newton steps x <- x - P(x)/P'(x) mod p^internal.  P is a coefficient
    list or a {degree: coefficient} map; the nonzero terms of P and P' are
    reduced to integers once per modulus and evaluated term by term with
    ``pow``, so a sparse P such as X^n - 1 costs O(log n) per evaluation."""
    p = f0.p
    terms = {i: Fraction(c) for i, c in (P.items() if isinstance(P, dict) else enumerate(P))}
    terms = {i: c for i, c in sorted(terms.items()) if c}  # a refusal names the lowest term
    for c in terms.values():
        if vp(c, p) < 0:
            raise BadInput(f"coefficient {c} is not {p}-integral")
    dterms = {i - 1: i * c for i, c in terms.items() if i}
    df_cap = f0.N + 4
    v_df = _val_mod(_eval_mod(_terms_mod(dterms, p ** df_cap), f0.residue, p ** df_cap), p, df_cap)
    if v_df >= df_cap:
        raise NotSimpleRoot("P'(f0) vanishes at the seed precision")
    steps_cap = N.bit_length() + 8
    internal = N + v_df * (steps_cap + 2) + 4
    mod = p ** internal
    Pm, dPm = _terms_mod(terms, mod), _terms_mod(dterms, mod)
    x = f0.residue
    v_f = _val_mod(_eval_mod(Pm, x, mod), p, internal)
    if not v_f > 2 * v_df:
        raise NotSimpleRoot(
            f"need v(P(f0)) > 2 v(P'(f0)); got {v_f} vs 2*{v_df}"
        )
    gauges = [v_f]
    for _ in range(steps_cap):
        if gauges[-1] >= N:
            break
        fx = _eval_mod(Pm, x, mod)
        dfx = _eval_mod(dPm, x, mod)
        if _val_mod(dfx, p, internal) != v_df:
            raise NotSimpleRoot("derivative valuation drifted during lifting")
        unit = dfx // p ** v_df
        delta = fx // p ** v_df * invmod(unit, mod) % mod
        x = (x - delta) % mod
        gauges.append(_val_mod(_eval_mod(Pm, x, mod), p, internal))
    if gauges[-1] < N:
        raise NoConvergence("residual valuation did not reach the target")
    return PadicApprox(p, N, x), HenselReport(tuple(gauges))


def _series_poly(P) -> list:
    """Coerce a polynomial in S with series coefficients, refusing one with a
    negative index as a seed is refused: P(x) mod T^m is then known mod T^m."""
    out = [c if isinstance(c, LaurentPoly) else LaurentPoly({0: c}) for c in P]
    if any(c.has_negative_support() for c in out):
        raise BadInput("series coefficients of P must have nonnegative support")
    while out and not out[-1]:
        out.pop()
    return out


def _series_poly_eval(P, x: LaurentPoly, m: int) -> LaurentPoly:
    if not P:
        return LaurentPoly.zero(m)
    acc = P[-1].with_mod(m)
    for c in reversed(P[:-1]):
        acc = series_add(series_mul(acc, x), c.with_mod(m))
    return acc


def _series_poly_deriv(P) -> list:
    return [series_scale(k, c) for k, c in enumerate(P)][1:]


def _series_gauge(f: LaurentPoly, m: int) -> int:
    """T-adic valuation of a truncated series (m when it vanishes mod T^m)."""
    mi = f.min_index()
    return m if mi is None else min(mi, m)


def _hensel_series(P, f0: LaurentPoly, m: int):
    """The root r = f0 mod T of P, mod T^m and stored ascending, and the gauges
    g_k = v(P(x_k) mod T^m) = min(m, v(x_k - r)) of the Newton steps
    x <- x - P(x)/P'(x) mod T^m from x = f0.

    A step maps e = x - r to e^2 h(e) / P'(r + e), h(e) = sum_{j>=2} (j-1)
    a_j e^(j-2) with a_j = P^(j)(r)/j!, so v(e) at least doubles, and once
    w = v(a_2) < g_k every term of h past a_2 lies above T^w: g_(k+1) =
    min(m, 2 g_k + w), and w < g_(k+1) keeps the rule.  As x_k = r mod
    T^(g_k), P''/2 at x_k mod T^(g_k) decides it; then x_k mod T^(g_k) is
    finished by ``_newton_doubling``.  Until then (v(a_2) >= g_k, or P
    linear) the step is exact: P(x) mod T^m times P'(x)^-1 mod T^(m - g_k),
    all the correction reads, and that P(x) gives the gauge.
    """
    P = _series_poly(P)
    dP = _series_poly_deriv(P)
    half = [series_scale(k * (k - 1) // 2, c) for k, c in enumerate(P)][2:]  # P''/2
    if f0.has_negative_support():
        raise BadInput("series roots must have nonnegative support")
    x = f0.with_mod(m)
    fx = _series_poly_eval(P, x, m)
    v_f = _series_gauge(fx, m)
    if _series_poly_eval(dP, x, min(m, 1)).coeff(0) == 0:
        raise NotSimpleRoot("P'(f0) is not a unit at T = 0")
    if v_f < 1:
        raise NotSimpleRoot("P(f0) must vanish at T = 0")
    gauges = [v_f]
    while gauges[-1] < m:
        v = gauges[-1]
        w = _series_gauge(_series_poly_eval(half, x.with_mod(v), v), v)
        if w < v:
            while gauges[-1] < m:
                gauges.append(min(m, 2 * gauges[-1] + w))
            x = _newton_doubling(P, dP, x.with_mod(v), v, m)
            break
        inv = _invert_series(_series_poly_eval(dP, x, m - v), m - v)
        x = series_sub(x, series_mul(fx, inv))
        fx = _series_poly_eval(P, x, m)
        gauges.append(_series_gauge(fx, m))
    return LaurentPoly._content(dict(sorted(x.num.items())), x.den, m), HenselReport(tuple(gauges))


def _newton_doubling(P, dP, x: LaurentPoly, n: int, m: int) -> LaurentPoly:
    """r mod T^m from x = r mod T^n, n < m, by Newton at doubling precision up
    the ladder m, ceil(m/2), ... (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 9): a step n -> n2 <= 2n takes P(x) mod T^(n2), zero below T^n,
    times s = P'(x)^-1 mod T^n.  s is carried: the last step's s inverts
    P'(x) mod T^(n_prev), and s <- s + s (1 - P'(x) s) brings it to T^n.
    """
    ladder = [m]
    while ladder[-1] > 2 * n:
        ladder.append((ladder[-1] + 1) // 2)
    s = _invert_series(_series_poly_eval(dP, x, n), n)
    for n2 in reversed(ladder):
        x = x.with_mod(n2)
        if s.trunc_mod < n:
            s = s.with_mod(n)
            e = series_sub(LaurentPoly.one(), series_mul(_series_poly_eval(dP, x, n), s))
            s = series_add(s, series_mul(s, e))
        x = series_sub(x, series_mul(_series_poly_eval(P, x, n2), s))
        n = n2
    return x


def hensel_factor_lift(G, factors, p: int, N: int):
    """Lift a pairwise-coprime monic factorization of G mod p to mod p^N.

    G is a monic integer polynomial, the seed factors are monic mod p and
    multiply to G mod p; their coefficients are p-integral rationals, each
    reduced mod p exactly (``fp_reduce``).  Returns the lifted monic factors
    with coefficients reduced mod p^N; each is congruent to its seed mod p
    and the product is congruent to G mod p^N.  An N < 1 or a p that is not
    prime is BadInput.  This function checks the input; the coprimality and
    product checks and the lift itself are ``hensel_multi_lift``'s one pass.
    """
    if N < 1:
        raise BadInput("need N >= 1")
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    Gp = poly(G)
    if not is_monic(Gp):
        raise NotMonic("factor lifting needs a monic G")
    if any(Fraction(c).denominator != 1 for c in Gp):
        raise BadInput("G must have integer coefficients")
    seeds = [fp_reduce(poly(f), p) for f in factors]
    for f in seeds:
        if not f or f[-1] != 1:
            raise NotMonic("seed factors must be monic mod p")
    return hensel_multi_lift(tuple(int(c) for c in Gp), seeds, p, N)


def resultant(P, Q) -> Fraction:
    """Res(P, Q) with the convention Res(f,g) = lc(f)^deg(g) prod g(roots f)."""
    return sylvester_resultant(poly(P), poly(Q))


@dataclass(frozen=True)
class LagrangeBoundReport:
    lhs: NormValue
    D: NormValue
    rhs: NormValue

    @property
    def holds(self) -> bool:
        return self.lhs.le(self.rhs)


def lagrange_bound_report(f, g, roots, r, place) -> LagrangeBoundReport:
    """The interpolation bound sum |a_i| r^i <= D max |f(alpha_i)|.

    D = d (2r)^(d^2-d) / |Res(g, g')| at the chosen place; g must be monic
    separable of degree d with the supplied exact roots, and r must dominate
    every |alpha_i|.  Roots may be Gaussian rationals at the archimedean
    place, rational elsewhere.
    """
    f = poly(f)
    g = poly(g)
    r = Fraction(r)
    d = deg(g)
    if not is_monic(g):
        raise NotMonic("g must be monic")
    if deg(f) >= d:
        raise BadInput("f must have degree < deg g")
    if len(roots) != d:
        raise BadInput("need exactly deg g roots")
    res = sylvester_resultant(g, pderiv(g))
    if res == 0:
        raise NotSeparable("Res(g, g') = 0")
    roots = [z if isinstance(z, Gauss) else Gauss(z) for z in roots]
    finite = place.is_finite
    if finite and any(z.im != 0 for z in roots):
        raise BadInput("finite places need rational roots")
    # g is monic and separable of degree d, so g = prod (T - alpha_i) exactly
    # when the alpha_i are d distinct roots of g
    gn, gD = numerators(g)
    if len(set(roots)) < d or any(gauss_value(gn, gD, z)[:2] != (0, 0) for z in roots):
        raise BadInput("supplied roots do not multiply back to g")

    def root_abs(z: Gauss) -> NormValue:
        if finite:
            return NormValue.of(abs_at_place(z.re, place))
        return NormValue.of(z.re * z.re + z.im * z.im).pow_rational(Fraction(1, 2))

    for z in roots:
        if not root_abs(z).le(NormValue.of(r)):
            raise RadiusTooSmall(f"r = {r} below |root| for {z}")
    lhs = nv_sum(
        NormValue.of(abs_at_place(c, place) * r ** i) for i, c in enumerate(f) if c
    )
    Dv = NormValue.of(Fraction(d) * (2 * r) ** (d * d - d) / abs_at_place(res, place))
    fn, fD = numerators(f)
    vals = []
    for z in roots:
        X, Y, S = gauss_value(fn, fD, z)
        if z.im == 0:
            vals.append(NormValue.of(abs_at_place(Fraction(X, S), place)))
        else:
            vals.append(NormValue.of(Fraction(X * X + Y * Y, S * S)).pow_rational(Fraction(1, 2)))
    rhs = Dv * nv_max(vals)
    return LagrangeBoundReport(lhs=lhs, D=Dv, rhs=rhs)


# -- residual norms on the finite cover A[T]/(G) -------------------------------


@dataclass(frozen=True)
class QuotientRing:
    """B(U)[T]/(G) carried with the radius w >= the division threshold."""

    G: tuple
    U: BaseCompact
    w: Fraction

    def __post_init__(self):
        G = poly(self.G)
        if not is_monic(G):
            raise NotMonic("quotient ring needs a monic modulus")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "w", Fraction(self.w))
        if self.w < global_threshold(G, self.U):
            raise RadiusBelowThreshold(
                f"w = {self.w} below the division threshold of G"
            )

    @property
    def degree(self) -> int:
        return deg(self.G)


@dataclass(frozen=True)
class ResidualSandwich:
    div_norm: NormValue
    upper: NormValue
    C0: Fraction  # division constant bounding the sandwich width


def residual_norm_sandwich(qr: QuotientRing, F) -> ResidualSandwich:
    """Two-sided control of the residual norm of F in B(U)[T]/(G).

    div_norm is the coefficient-max norm of the canonical representative of
    degree < p (computed by division); upper = ||F_0||_{U,w} bounds the
    residual norm from above, and upper / C0 bounds it from below with
    C0 = 2, the division constant.  upper is the division certificate's
    normR, the same norm of the same remainder.
    """
    if not isinstance(F, LaurentPoly):
        F = LaurentPoly.from_poly(poly(F))
    _, F0, cert = divide(F, qr.G, qr.U, qr.w)
    div_norm = nv_max(base_norm(c, qr.U) for c in F0.coeffs.values()) if F0 else NormValue.of(0)
    return ResidualSandwich(div_norm=div_norm, upper=cert.normR, C0=Fraction(2))


@dataclass(frozen=True)
class ConditionRGReport:
    holds: bool
    gamma: tuple
    m_U: NormValue


def condition_RG_check(U: BaseCompact, G) -> ConditionRGReport:
    """Is |Res(G, G')| bounded below by a positive constant on the Shilov
    boundary of U?"""
    G = poly(G)
    rho = sylvester_resultant(G, pderiv(G))
    gamma = tuple(shilov_base(U))
    if rho == 0:
        return ConditionRGReport(False, gamma, NormValue.of(0))
    vals = []
    for x in gamma:
        try:
            vals.append(eval_base_seminorm(rho, x))
        except NonIntegralAtExtremePoint:
            continue  # |rho| exceeds 1 there; never the minimum over gamma
    if not vals:
        return ConditionRGReport(True, gamma, NormValue.of(1))
    m_U = vals[0]
    for v in vals[1:]:
        m_U = m_U.min_with(v)
    return ConditionRGReport(m_U.gt(0), gamma, m_U)
