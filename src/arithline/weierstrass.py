"""Weierstrass division with certified constants, preparation, Hensel lifting,
residual norms on finite covers, and the resultant interpolation bound.

Global division follows the contraction scheme behind the explicit threshold
condition  sum_k ||g_k|| v^(k-p) <= 1/2, which yields the quotient/remainder
bounds ||Q|| <= 2 v^(-p) ||F|| and ||R|| <= 2 ||F||.  The threshold is the
first radius on the 2^-16 grid that meets the condition, found by a search on
the grid index with the condition cleared of denominators into an integer
inequality (see ``global_threshold``), its ||g_k|| read from G's integer
content as pairs.  Q and R come from ``_euclid``, which runs the one integer
pseudo-division ``polys.pdivide`` on F's numerators and G's and turns the
result back into content; it also serves the polynomial branch of local
division, where G's leading coefficient is a unit.  Local division of
truncated series otherwise iterates the residual r <- -alpha(r) (G/u - T^p),
keeps alpha(phi) as one running integer sum and records its certificate.
``hensel_lift_root`` is the one Hensel lift, for series and p-adic roots (the
roots of unity of ``covers_galois`` among them).
"""

from dataclasses import dataclass
from fractions import Fraction
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
from .numbers import invmod, is_prime, lcm_list, vp, vp_int
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
    _convolve,
    _invert_series,
    check_series_order,
    norm_annulus,
    series_add,
    series_mul,
    series_scale,
    series_sub,
)

_GRID_BITS = 16
GRID = Fraction(1, 1 << _GRID_BITS)  # dyadic search grid for certified thresholds


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

        sum_{k<p} 2 (D b_k) 2^(16(p-k)) i^k <= D i^p,

    which holds at exactly the grid indices where the rational condition
    holds, interval-valued norms included, so the result is the one a search
    on the rational condition returns.  The left side of the condition falls
    as v grows, so the certified indices form a ray.  The search doubles i
    from 1 (at most 300 steps, then NoContractionRadiusFound) until i
    certifies, then bisects keeping the invariant that lo fails (lo = 0
    stands for "no index") and hi certifies; it returns hi GRID, the first
    certified grid radius.
    """
    G = _monic(G, "threshold needs a monic divisor")
    p = G.degree()
    if p < 1:
        raise NotMonic("divisor must have positive degree")
    b = [hi for _, hi in norm_bounds_each([G.num.get(k, 0) for k in range(p)], G.den, V)]
    D = lcm_list(d for _, d in b)
    # D i^p - sum_k 2 (D b_k) 2^(16(p-k)) i^k, highest coefficient first
    coeffs = [D] + [-(b[k][0] * (D // b[k][1]) << (_GRID_BITS * (p - k) + 1))
                    for k in reversed(range(p))]

    def certified(i: int) -> bool:
        acc = 0
        for c in coeffs:
            acc = acc * i + c
        return acc >= 0

    hi = 1
    for _ in range(300):
        if certified(hi):
            break
        hi *= 2
    else:
        raise NoContractionRadiusFound("threshold search exhausted")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi * GRID


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
        cert = _contraction_cert(G, p, ctx)
        return Q, R, cert
    raise ValuationUndefined(
        "G has nonvanishing low coefficients and degree > p; the quotient "
        "coefficients are not rational and cannot be represented exactly"
    )


def _contraction_cert(G: LaurentPoly, p: int, ctx: AnnulusSpec) -> LocalDivisionCert:
    """Search a dyadic radius where ||A - I|| <= ||G/u - T^p|| w^(-p) < 1."""
    u = G.coeff(p)
    B = series_sub(series_scale(1 / u, G), LaurentPoly.monomial(p))
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
    alpha(r) of each step: one running sum of integer numerators, keyed by
    the indices reached, over one denominator D that grows only when r.den
    does not divide it, made canonical once, at the end.
    """
    u = G.coeff(p)
    minus_B = series_sub(LaurentPoly.monomial(p, trunc_mod=m), series_scale(1 / u, G).with_mod(m))
    cert_radius = _contraction_cert(G, p, ctx)
    at_radius = AnnulusSpec(ctx.V, Fraction(0), cert_radius.radius)
    beta, Bd = sorted(minus_B.num.items()), minus_B.den
    total, D = {k - p: c for k, c in F.num.items() if k >= p}, F.den  # alpha(phi) over D
    r = LaurentPoly._content(_convolve(total.items(), beta, m), D * Bd, m)
    residuals = []
    for _ in range(m + 2):
        residuals.append(norm_annulus(r, at_radius))
        if not r:
            break
        alpha = [(k - p, c) for k, c in r.num.items()]
        if D % r.den:
            grow = lcm_list((D, r.den)) // D
            total, D = {j: c * grow for j, c in total.items()}, D * grow
        scale, get = D // r.den, total.get
        for j, c in alpha:
            total[j] = get(j, 0) + c * scale
        r = LaurentPoly._content(_convolve(alpha, beta, m), r.den * Bd, m)
    else:
        raise NoConvergence("fixed point not reached")  # pragma: no cover
    Q = series_scale(1 / u, LaurentPoly._content(total, D, m - p))
    R = LaurentPoly._content({k: c for k, c in F.num.items() if k < p}, F.den)
    return Q, R, LocalDivisionCert(cert_radius.radius, cert_radius.epsilon, tuple(residuals))


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
    acc = LaurentPoly.zero(m)
    for c in reversed(P):
        acc = series_add(series_mul(acc, x), c.with_mod(m))
    return acc


def _series_poly_deriv(P) -> list:
    return [series_scale(k, c) for k, c in enumerate(P)][1:]


def _series_gauge(f: LaurentPoly, m: int) -> int:
    """T-adic valuation of a truncated series (m when it vanishes mod T^m)."""
    mi = f.min_index()
    return m if mi is None else min(mi, m)


def _hensel_series(P, f0: LaurentPoly, m: int):
    """Newton steps x <- x - P(x)/P'(x) mod T^m from a simple root mod T.

    Each step works at the precision it needs.  If v is the gauge (T-adic
    valuation) of P(x), the correction P(x)/P'(x) mod T^m has its terms at
    indices >= v, so it reads P'(x)^-1, and hence P'(x), only below
    T^(m - v): both are taken mod T^(m - v), which leaves the correction
    unchanged mod T^m.  The P(x) that gives a step's gauge is the next
    step's P(x); it is evaluated once.
    """
    P = _series_poly(P)
    dP = _series_poly_deriv(P)
    if f0.has_negative_support():
        raise BadInput("series roots must have nonnegative support")
    x = f0.with_mod(m)
    fx = _series_poly_eval(P, x, m)
    d0 = _series_poly_eval(dP, x, m)
    v_f = _series_gauge(fx, m)
    if d0.coeff(0) == 0:
        raise NotSimpleRoot("P'(f0) is not a unit at T = 0")
    if v_f < 1:
        raise NotSimpleRoot("P(f0) must vanish at T = 0")
    gauges = [v_f]
    for _ in range(m.bit_length() + 8):
        if gauges[-1] >= m:
            break
        prec = m - gauges[-1]
        dfx = d0 if len(gauges) == 1 else _series_poly_eval(dP, x, prec)
        inv = _invert_series(dfx, prec)
        x = series_sub(x, series_mul(fx, inv))
        fx = _series_poly_eval(P, x, m)
        gauges.append(_series_gauge(fx, m))
    if gauges[-1] < m:
        raise NoConvergence("residual order did not reach the target")
    return x, HenselReport(tuple(gauges))


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
