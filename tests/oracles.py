"""Independent oracles for the test suite.

These deliberately re-derive expected values by routes different from the
library implementation: naive trial division, schoolbook polynomial
division, triangular series solves and textbook Newton iteration.
"""

from fractions import Fraction


def naive_factor(n: int) -> dict:
    n = abs(n)
    out = {}
    d = 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def padic_abs(q: Fraction, p: int) -> Fraction:
    """|q|_p straight from the factorizations of numerator and denominator."""
    if q == 0:
        return Fraction(0)
    v = naive_factor(q.numerator).get(p, 0) - naive_factor(q.denominator).get(p, 0)
    return Fraction(p) ** (-v)


def schoolbook_divmod(F, G):
    """Classical long division of coefficient lists (ascending) by G with a
    nonzero lead: the model the integer division of ``weierstrass`` is
    checked against.  Returns (Q, R) with no trailing zeros."""
    F = [Fraction(c) for c in F]
    G = [Fraction(c) for c in G]
    assert G and G[-1] != 0
    Q = [Fraction(0)] * max(0, len(F) - len(G) + 1)
    R = F[:]
    while len(R) >= len(G):
        if R[-1] == 0:
            R.pop()
            continue
        shift = len(R) - len(G)
        c = R[-1] / G[-1]
        Q[shift] = c
        for i, g in enumerate(G):
            R[shift + i] -= c * g
        R.pop()
    while R and R[-1] == 0:
        R.pop()
    while Q and Q[-1] == 0:
        Q.pop()
    return Q, R


def series_quotient(F, G, m):
    """Coefficients of F/G mod T^m for power series with G[0] != 0."""
    F = [Fraction(F[i]) if i < len(F) else Fraction(0) for i in range(m)]
    G = [Fraction(G[i]) if i < len(G) else Fraction(0) for i in range(m)]
    assert G[0] != 0
    out = []
    for k in range(m):
        acc = F[k]
        for j in range(1, k + 1):
            acc -= G[j] * out[k - j]
        out.append(acc / G[0])
    return out


def newton_sqrt_mod(a: int, p: int, N: int, seed: int) -> int:
    """sqrt(a) mod p^N by the textbook Newton mean iteration."""
    x = seed
    mod = p ** N
    inv2 = pow(2, -1, mod)
    for _ in range(N.bit_length() + 4):
        x = (x + a * pow(x, -1, mod)) * inv2 % mod
        if (x * x - a) % mod == 0:
            break
    return x


def convolve(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + Fraction(x) * Fraction(y)
    return {k: v for k, v in out.items() if v}


def resultant_from_roots(lc_f, roots_f, g_coeffs):
    """Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots of f."""
    from fractions import Fraction

    def geval(x):
        acc = Fraction(0)
        for c in reversed(g_coeffs):
            acc = acc * x + Fraction(c)
        return acc

    deg_g = len(g_coeffs) - 1
    out = Fraction(lc_f) ** deg_g
    for r in roots_f:
        out *= geval(Fraction(r))
    return out


# -- reference forms of the series inverse, Hensel, prune and split ----------
# The triangular Fraction recurrences, the full-precision Hensel loop, the
# per-coefficient prune and the direct split below are the forms the library
# replaced with the Newton inverse on integer content, the truncated Hensel
# step, the per-entry integer prune and the certificate-free split.  The
# library must agree with them exactly.


def invert_series_recurrence(f, m):
    """Inverse mod T^m, one coefficient at a time: h_k = -sum f_j h_(k-j) / f_0.

    Reads only the indices 0 <= j < m of f.
    """
    from arithline.series_ring import LaurentPoly

    c0 = f.coeff(0)
    out = {0: 1 / c0}
    for k in range(1, m):
        acc = Fraction(0)
        for j, c in f.coeffs.items():
            if 0 < j <= k:
                prev = out.get(k - j)
                if prev is not None:
                    acc += c * prev
        if acc:
            out[k] = -acc / c0
    return LaurentPoly(out, m)


def _invert_one_plus(h, m, ascending):
    from arithline.series_ring import LaurentPoly

    out = {0: Fraction(1)}
    idx = range(1, m) if ascending else range(-1, -m, -1)
    for k in idx:
        acc = Fraction(0)
        for j, c in h.coeffs.items():
            prev = out.get(k - j)
            if prev is not None:
                acc += c * prev
        if acc:
            out[k] = -acc
    return LaurentPoly(out)


def invert_unit_triangular(f, A, m):
    """``series_ring.invert_unit`` with (1 + h)^-1 by the triangular recursion."""
    from arithline.errors import NegativePowersOnDisk, NotAUnit
    from arithline.series_ring import LaurentPoly, _h_certifies, _unit_in_kv, series_scale

    if not f:
        raise NotAUnit("zero is not a unit")
    if m < 1:
        raise ValueError("truncation target must be positive")
    if f.has_negative_support() and A.s == 0:
        raise NegativePowersOnDisk("negative powers of T on a disk (s = 0)")
    k0 = f.min_index()
    c0 = f.coeff(k0)
    h_lo = LaurentPoly({k - k0: c / c0 for k, c in f.coeffs.items() if k != k0})
    if _unit_in_kv(c0, A.V) and _h_certifies(h_lo, A):
        inv = _invert_one_plus(h_lo, m, ascending=True)
        out = series_scale(1 / c0, inv).shift(-k0)
        return out.with_mod(m) if k0 == 0 else out
    k1 = f.max_index()
    c1 = f.coeff(k1)
    h_hi = LaurentPoly({k - k1: c / c1 for k, c in f.coeffs.items() if k != k1})
    if _unit_in_kv(c1, A.V) and _h_certifies(h_hi, A):
        inv = _invert_one_plus(h_hi, m, ascending=False)
        return series_scale(1 / c1, inv).shift(-k1)
    raise NotAUnit("no factorization f = c T^k (1 + h) with ||h|| < 1 certified")


def hensel_series_full_precision(P, f0, m):
    """Series Hensel lift with every evaluation and inverse taken mod T^m."""
    from arithline.errors import NoConvergence, NotSimpleRoot
    from arithline.series_ring import series_mul, series_sub
    from arithline.weierstrass import (
        HenselReport,
        _series_gauge,
        _series_poly,
        _series_poly_deriv,
        _series_poly_eval,
    )

    P = _series_poly(P)
    dP = _series_poly_deriv(P)
    if f0.has_negative_support():
        raise ValueError("series roots must have nonnegative support")
    x = f0.with_mod(m)
    r0 = _series_poly_eval(P, x, m)
    d0 = _series_poly_eval(dP, x, m)
    v_f = _series_gauge(r0, m)
    if d0.coeff(0) == 0:
        raise NotSimpleRoot("P'(f0) is not a unit at T = 0")
    if v_f < 1:
        raise NotSimpleRoot("P(f0) must vanish at T = 0")
    gauges = [v_f]
    for _ in range(m.bit_length() + 8):
        if gauges[-1] >= m:
            break
        fx = _series_poly_eval(P, x, m)
        dfx = _series_poly_eval(dP, x, m)
        inv = invert_series_recurrence(dfx, m)
        x = series_sub(x, series_mul(fx, inv).with_mod(m)).with_mod(m)
        gauges.append(_series_gauge(_series_poly_eval(P, x, m), m))
    if gauges[-1] < m:
        raise NoConvergence("residual order did not reach the target")
    return x, HenselReport(tuple(gauges))


def prune_per_coefficient(mat, ctx, tol):
    """SeriesMatrix.prune with one norm and one Fraction weight per coefficient."""
    from arithline.base_space import norm_bounds
    from arithline.series_ring import LaurentPoly

    def prune_entry(e):
        kept = {}
        for k, c in e.coeffs.items():
            if norm_bounds(c, ctx.V)[1] * radius_weight(ctx, k) > tol:
                kept[k] = c
        return LaurentPoly._raw(kept, e.trunc_mod)

    return matrix_map(mat, prune_entry)


def matrix_map(mat, fn):
    """fn on every entry, through the validating ``SeriesMatrix`` constructor."""
    from arithline.cousin_cartan import SeriesMatrix

    return SeriesMatrix(tuple(tuple(fn(e) for e in row) for row in mat.entries))


def _nearest_int(q):
    """Integer within 1/2 of q (ties toward +inf)."""
    return (2 * q + 1).__floor__() // 2


def split_rational_direct(a, sys):
    """(a_minus, a_plus) with a = a_minus - a_plus, as split_rational states it."""
    from arithline.numbers import invmod, vp

    a = Fraction(a)
    if a == 0:
        return Fraction(0), Fraction(0)
    if sys.place.is_finite:
        p = sys.place.prime
        if vp(a, p) >= 0:
            return a, Fraction(0)
        k = -vp(a, p)
        d = a.denominator // p ** k
        t = a.numerator * invmod(d, p ** k) % p ** k
        plus = Fraction(-t, p ** k)
        plus += -_nearest_int(plus)
        return a + plus, plus
    if abs(a) <= 1:
        return a, Fraction(0)
    b = -_nearest_int(a)
    return a + b, Fraction(b)


def split_matrix_direct(mat, sys):
    """The Cartan step's entrywise split through ``split_rational_direct``:
    b^- takes the minus parts, b^+ the negated plus parts."""
    from arithline.cousin_cartan import SeriesMatrix
    from arithline.series_ring import LaurentPoly

    minus_rows, plus_rows = [], []
    for row in mat.entries:
        mrow, prow = [], []
        for e in row:
            parts = {k: split_rational_direct(c, sys) for k, c in e.coeffs.items()}
            mrow.append(LaurentPoly({k: cm for k, (cm, _) in parts.items()}, e.trunc_mod))
            prow.append(LaurentPoly({k: -cp for k, (_, cp) in parts.items()}, e.trunc_mod))
        minus_rows.append(tuple(mrow))
        plus_rows.append(tuple(prow))
    return SeriesMatrix(tuple(minus_rows)), SeriesMatrix(tuple(plus_rows))


def cover_power_by_loop(g, n, m):
    """1 * g * ... * g (n factors) from LaurentPoly.one(m), one product at a
    time: the check CoverDescriptor made before it formed powers by squaring."""
    from arithline.series_ring import LaurentPoly, series_mul

    power = LaurentPoly.one(m)
    for _ in range(n):
        power = series_mul(power, g)
    return power


def series_pow_by_squaring(g, n):
    """g**n for n >= 1 by repeated squaring (two products for n = 4): the
    power CoverDescriptor formed before it read g's differential equation."""
    from arithline.series_ring import series_mul

    power, square = None, g
    while True:
        if n & 1:
            power = square if power is None else series_mul(power, square)
        n >>= 1
        if not n:
            return power
        square = series_mul(square, square)


def binomial_series_fraction(n, m):
    """sum_{i<m} C(1/n, i) Z^i mod Z^m from the Fraction recurrence
    c_{i+1} = c_i (1/n - i) / (i + 1), through the validating constructor."""
    from arithline.series_ring import LaurentPoly

    coeffs, c, k = {}, Fraction(1), Fraction(1, n)
    for i in range(m):
        if c:
            coeffs[i] = c
        c = c * (k - i) / (i + 1)
    return LaurentPoly(coeffs, m)


# -- second copies of rules the library now writes once ----------------------
# Each function below is the code the library deleted when it folded the rule
# into its one remaining form: AnnulusSpec.weights, cousin_cartan._on_side,
# normvalue.pow_bounds, numbers.invmod and CoverDescriptor.build.


def radius_weight(A, k):
    """max(s^k, t^k) for the annulus A; requires s > 0 when k < 0."""
    from arithline.errors import NegativePowersOnDisk

    if k < 0 and A.s == 0:
        raise NegativePowersOnDisk("negative powers of T on a disk (s = 0)")
    return max(A.s ** k, A.t ** k)


def minus_side_ok(mat, sys):
    """Minus-side membership: every coefficient is integral at the place."""
    from arithline.numbers import vp

    if not sys.place.is_finite:
        return True
    p = sys.place.prime
    return all(vp(c, p) >= 0 for row in mat.entries for e in row for c in e.coeffs.values())


def plus_side_ok(mat, sys):
    """Plus-side membership: denominators are powers of the place's prime."""
    coeffs = [c for row in mat.entries for e in row for c in e.coeffs.values()]
    if not sys.place.is_finite:
        return all(c.denominator == 1 for c in coeffs)
    p = sys.place.prime
    for c in coeffs:
        d = c.denominator
        while d % p == 0:
            d //= p
        if d != 1:
            return False
    return True


def pow_lo(x, e, bits):
    from arithline.normvalue import root_bounds

    if x == 0:
        return Fraction(0)
    z = x ** e.numerator
    if e.denominator == 1:
        return z
    return root_bounds(z, e.denominator, bits)[0]


def pow_hi(x, e, bits):
    from arithline.normvalue import root_bounds

    if x == 0:
        return Fraction(0)
    z = x ** e.numerator
    if e.denominator == 1:
        return z
    return root_bounds(z, e.denominator, bits)[1]


def egcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def invmod_egcd(a, m):
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} not invertible mod {m}")
    return x % m


def cover_build_certified_twice(n, p, m, N):
    """CoverDescriptor.build as it was: g from binomial_root_series, with its
    g**n certificate, then the constructor's own check of g**n."""
    from arithline.covers_galois import CoverDescriptor, binomial_root_series, primitive_root_of_unity
    from arithline.errors import BadDescriptor

    zeta = primitive_root_of_unity(n, p, N)
    g, report = binomial_root_series(n, m, None if n % p == 0 else p)
    if not report.power_identity_ok:
        raise BadDescriptor("binomial certificate failed")
    return CoverDescriptor(n=n, p=p, zeta=zeta, m=m, g=g)


# -- second implementations folded into one ----------------------------------
# The covers' own Newton loop and seed search, the per-coefficient Fraction
# evaluation of the p-adic Hensel lift, the two case-by-case pole checks of
# K(V), the archimedean test by compact shape, trial-division divisors and
# the unit-step prime search, as the library had them.  The one remaining
# form of each must agree with them exactly, refusals included.


def find_prime_congruent_unit_step(n, bound=10000):
    """Least prime p <= bound with p = 1 (mod n), trying every q from 2."""
    from arithline.errors import NoneFound
    from arithline.numbers import is_prime

    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 2
    q = 2
    while q <= bound:
        if q % n == 1 and is_prime(q):
            return q
        q += 1
    raise NoneFound(f"no prime = 1 mod {n} up to {bound}")


def primitive_root_by_search(n, p, N):
    """Seed by trying z = 2 .. p-1, then Newton on X^n - 1 with doubling precision."""
    from arithline.errors import CongruenceFails
    from arithline.numbers import prime_divisors
    from arithline.padic import PadicApprox

    if n < 1 or N < 1:
        raise ValueError("need n >= 1, N >= 1")
    if n == 1:
        return PadicApprox(p, N, 1)
    if (p - 1) % n != 0:
        raise CongruenceFails(f"{p} is not 1 mod {n}")
    divisors = [n // q for q in prime_divisors(n)]
    seed = None
    for z in range(2, p):
        if pow(z, n, p) == 1 and all(pow(z, e, p) != 1 for e in divisors):
            seed = z
            break
    if seed is None:
        raise CongruenceFails(f"no primitive {n}-th root mod {p}")
    x = seed
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        mod = p ** prec
        fx = (pow(x, n, mod) - 1) % mod
        dfx = n * pow(x, n - 1, mod) % mod
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return PadicApprox(p, N, x)


def eval_int_mod(P, x, mod):
    """P(x) mod ``mod`` (a power of p), each p-integral coefficient reduced per call."""
    acc = 0
    for c in reversed(P):
        c = Fraction(c)
        cres = c.numerator * pow(c.denominator, -1, mod) % mod
        acc = (acc * x + cres) % mod
    return acc


def hensel_padic_fraction_eval(P, f0, N):
    """The p-adic Hensel lift evaluating P and P' through ``eval_int_mod``."""
    from arithline.errors import NoConvergence, NotSimpleRoot
    from arithline.numbers import vp, vp_int
    from arithline.padic import PadicApprox
    from arithline.polys import pderiv, poly

    def val(n, cap):
        return cap if n == 0 else min(vp_int(n, p), cap)

    p = f0.p
    Pq = poly(P)
    for c in Pq:
        if c != 0 and vp(c, p) < 0:
            raise ValueError(f"coefficient {c} is not {p}-integral")
    dP = pderiv(Pq)
    df_cap = f0.N + 4
    v_df = val(eval_int_mod(dP, f0.residue, p ** df_cap), df_cap)
    if v_df >= df_cap:
        raise NotSimpleRoot("P'(f0) vanishes at the seed precision")
    steps_cap = N.bit_length() + 8
    internal = N + v_df * (steps_cap + 2) + 4
    mod = p ** internal
    x = f0.residue
    v_f = val(eval_int_mod(Pq, x, mod), internal)
    if not v_f > 2 * v_df:
        raise NotSimpleRoot(f"need v(P(f0)) > 2 v(P'(f0)); got {v_f} vs 2*{v_df}")
    gauges = [v_f]
    for _ in range(steps_cap):
        if gauges[-1] >= N:
            break
        fx = eval_int_mod(Pq, x, mod)
        dfx = eval_int_mod(dP, x, mod)
        if val(dfx, internal) != v_df:
            raise NotSimpleRoot("derivative valuation drifted during lifting")
        unit = dfx // p ** v_df
        x = (x - fx // p ** v_df * pow(unit, -1, mod)) % mod
        gauges.append(val(eval_int_mod(Pq, x, mod), internal))
    if gauges[-1] < N:
        raise NoConvergence("residual valuation did not reach the target")
    return PadicApprox(p, N, x), tuple(gauges)


def member_of_kv_by_case(f, V):
    """f in K(V), case by case: a segment reaching the extreme point of p needs
    f p-integral; a star needs a denominator made of cut primes only."""
    from arithline.base_space import is_inf
    from arithline.numbers import strip_primes

    f = Fraction(f)
    if f == 0:
        return True
    if V.kind == "segment":
        if V.place.is_finite and is_inf(V.v):
            return f.denominator % V.place.prime != 0
        return True
    return strip_primes(f.denominator, V.cut_primes()) == 1


def kv_pole_refusal(f, V):
    """The NotInRingOfV text norm_bounds gave for f on V, or None: a segment
    names the prime of its extreme point, a star hands the uncut cofactor of
    the denominator to ``_pole_detail``."""
    from arithline.base_space import _pole_detail, is_inf
    from arithline.numbers import strip_primes, vp

    f = Fraction(f)
    if f == 0:
        return None
    if V.kind == "segment":
        q = V.place.prime
        if V.place.is_finite and is_inf(V.v) and vp(f, q) < 0:
            return f"{f} has a pole at the extreme point of {q}"
        return None
    r = strip_primes(f.denominator, sorted(V.cut_primes()))
    return None if r == 1 else _pole_detail(f, r)


def is_archimedean_by_shape(V):
    """Does V contain a point of the archimedean branch other than a_0?"""
    if V.kind == "segment":
        return not V.place.is_finite and V.v > 0
    arch_cut = next((c for pl, c in V.cuts if not pl.is_finite), None)
    return arch_cut is None or arch_cut > 0


def trial_divisors(n):
    """The positive divisors of n > 0 by trial division up to sqrt(n)."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def frac_horner(f, x):
    """f(x) by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + Fraction(c)
    return acc


def frac_horner_gauss(f, re, im):
    """f(re + i im) by Horner's rule on Fraction pairs, as (real part, imaginary part)."""
    a = b = Fraction(0)
    for c in reversed(f):
        a, b = a * re - b * im + Fraction(c), a * im + b * re
    return a, b


def frac_taylor_shift(f, alpha):
    """g with f(T) = g(T - alpha), by repeated synthetic division on Fractions."""
    alpha = Fraction(alpha)
    out = [Fraction(c) for c in f]
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += alpha * out[j + 1]
    return tuple(out)


def frac_multiplicity(f, P):
    """Largest k with P^k dividing the nonzero f, by long division on Fractions."""
    k = 0
    while True:
        q, r = schoolbook_divmod(f, P)
        if r:
            return k
        f, k = q, k + 1


def frac_sylvester_det(f, g):
    """Res(f, g) for Fraction tuples without trailing zeros: Gaussian elimination
    with Fraction pivots on the Sylvester matrix."""
    n, m = len(f) - 1, len(g) - 1
    if n < 0 and m < 0:
        raise ValueError("resultant of two zero polynomials")
    if n < 0 or m < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(f[0]) ** m
    if m == 0:
        return Fraction(g[0]) ** n
    size = n + m
    fr = [Fraction(c) for c in reversed(f)]
    gr = [Fraction(c) for c in reversed(g)]
    rows = [[Fraction(0)] * i + fr + [Fraction(0)] * (size - n - 1 - i) for i in range(m)]
    rows += [[Fraction(0)] * i + gr + [Fraction(0)] * (size - m - 1 - i) for i in range(n)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
    return det


def rational_roots_trial(f):
    """Rational roots of a nonzero f in Q[T] over trial-division divisors."""
    from math import gcd

    if not f:
        raise ValueError("zero polynomial")
    k = 0
    while f[k] == 0:
        k += 1
    f = f[k:]
    roots = set([Fraction(0)] if k else [])
    den = 1
    for c in f:
        den = den * Fraction(c).denominator
    g = [int(c * den) for c in f]
    content = 0
    for c in g:
        content = gcd(content, abs(c))
    g = [c // content for c in g]
    for r in trial_divisors(abs(g[0])):
        for s in trial_divisors(abs(g[-1])):
            for sign in (1, -1):
                cand = Fraction(sign * r, s)
                if frac_horner(f, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def quartic_splits_trial(f):
    """Quadratic factorization of a monic quartic with no rational root, with
    b running over trial-division divisors of the scaled constant term."""
    from arithline.numbers import lcm_list, rational_root

    lam = lcm_list(c.denominator for c in f)
    c3, c2, c1, c0 = f[3] * lam, f[2] * lam ** 2, f[1] * lam ** 3, f[0] * lam ** 4
    for b in trial_divisors(abs(c0.numerator)):
        for b_signed in (b, -b):
            d_ = c0 / b_signed
            if d_ == b_signed:
                if c1 != b_signed * c3:
                    continue
                disc = c3 * c3 - 4 * (c2 - 2 * b_signed)
                if disc >= 0 and rational_root(Fraction(disc), 2) is not None:
                    return True
                continue
            a = (c1 - b_signed * c3) / (d_ - b_signed)
            if a * (c3 - a) == c2 - b_signed - d_:
                return True
    return False


# -- the Fraction model of series_ring ------------------------------------------
# LaurentPoly held a dict of nonzero Fractions before it held integer content
# over one denominator.  ``FracLaurent`` and the functions below are that
# form: each op works coefficient by coefficient in Fractions and each norm
# reads one Fraction coefficient at a time.  The library must agree with them
# exactly: coefficients in stored order, moduli, NormValues and refusals.

NEG_ON_DISK = "negative powers of T on a disk (s = 0)"


class FracLaurent:
    """sum_k coeffs[k] T^k with nonzero Fraction values, known mod T^trunc_mod."""

    def __init__(self, coeffs, trunc_mod=None):
        self.coeffs = {k: Fraction(c) for k, c in coeffs.items() if c}
        self.trunc_mod = trunc_mod

    @classmethod
    def of(cls, f):
        return cls(f.coeffs, f.trunc_mod)

    def layout(self):
        return list(self.coeffs.items()), self.trunc_mod

    def min_index(self):
        return min(self.coeffs, default=None)


def frac_add(f, g):
    """The sum known mod the smaller modulus, the indices at or past it dropped."""
    out = dict(f.coeffs)
    for k, c in g.coeffs.items():
        s = out.get(k, Fraction(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    mods = [m for m in (f.trunc_mod, g.trunc_mod) if m is not None]
    mod = min(mods, default=None)
    return FracLaurent({k: c for k, c in out.items() if mod is None or k < mod}, mod)


def frac_neg(f):
    return FracLaurent({k: -c for k, c in f.coeffs.items()}, f.trunc_mod)


def frac_scale(a, f):
    return FracLaurent({k: Fraction(a) * c for k, c in f.coeffs.items()}, f.trunc_mod)


def frac_val(f):
    """The valuation of f as far as it is known: its lowest index, m for a
    zero known mod T^m, and 0 (a lower bound) for the exact zero."""
    if f.coeffs:
        return f.min_index()
    return 0 if f.trunc_mod is None else f.trunc_mod


def frac_mul(f, g):
    """The whole product, then the indices at or past its modulus dropped;
    the modulus is min(mod_f + val g, mod_g + val f) with ``frac_val``."""
    mods = []
    if f.trunc_mod is not None:
        mods.append(f.trunc_mod + frac_val(g))
    if g.trunc_mod is not None:
        mods.append(g.trunc_mod + frac_val(f))
    mod = min(mods, default=None)
    full = {}
    for i, a in f.coeffs.items():
        for j, b in sorted(g.coeffs.items()):
            full[i + j] = full.get(i + j, Fraction(0)) + a * b
    return FracLaurent({k: c for k, c in full.items() if mod is None or k < mod}, mod)


def frac_with_mod(f, m):
    return FracLaurent({k: c for k, c in f.coeffs.items() if m is None or k < m}, m)


def frac_shift(f, j):
    mod = None if f.trunc_mod is None else f.trunc_mod + j
    return FracLaurent({k + j: c for k, c in f.coeffs.items()}, mod)


def norm_endpoints_by_case(V):
    """The terms of ||.||_V case by case on the shape of V, as
    ``base_space._norm_endpoints`` compiled them before it read
    ``shilov_base``: (has_trivial, finite_terms, arch_terms, extreme_primes).
    A star always carries the trivial term and never lists a_0's cut, and a
    segment reaching an extreme point keeps its extreme term."""
    from arithline.base_space import is_inf

    if V.kind == "segment":
        place = V.place
        has_trivial = V.u == 0
        exps = []
        if V.u > 0 and not is_inf(V.u):
            exps.append(V.u)
        if V.v > 0 and not is_inf(V.v) and V.v not in exps:
            exps.append(V.v)
        if place.is_finite:
            extreme = (place.prime,) if is_inf(V.v) else ()
            return has_trivial, tuple((place.prime, e) for e in exps), (), extreme
        return has_trivial, (), tuple(exps), ()
    arch_cut = next((c for pl, c in V.cuts if not pl.is_finite), None)
    if arch_cut is None:
        arch_terms = (Fraction(1),)
    elif arch_cut > 0:
        arch_terms = (arch_cut,)
    else:
        arch_terms = ()
    finite_terms = tuple((pl.prime, c) for pl, c in V.cuts if pl.is_finite and c > 0)
    return True, finite_terms, arch_terms, ()


def frac_norm_bounds(c, V):
    """(lo, hi) of ||c||_V for one Fraction: the pole test, then the largest
    endpoint term of ``norm_endpoints_by_case``."""
    from arithline.errors import NotInRingOfV
    from arithline.normvalue import pow_bounds
    from arithline.numbers import vp

    detail = kv_pole_refusal(c, V)
    if detail is not None:
        raise NotInRingOfV(detail)
    if c == 0:
        return Fraction(0), Fraction(0)
    has_trivial, finite_terms, arch_terms, extreme = norm_endpoints_by_case(V)
    terms = [(Fraction(1), Fraction(1))] if has_trivial else []
    terms += [pow_bounds(Fraction(p), -e * vp(c, p)) for p, e in finite_terms]
    terms += [pow_bounds(abs(c), e) for e in arch_terms]
    terms += [(Fraction(0),) * 2 if vp(c, q) > 0 else (Fraction(1),) * 2 for q in extreme]
    return max(lo for lo, _ in terms), max(hi for _, hi in terms)


def _frac_terms(f, A):
    from arithline.errors import NegativePowersOnDisk

    if A.s == 0 and any(k < 0 for k in f.coeffs):
        raise NegativePowersOnDisk(NEG_ON_DISK)
    out = []
    for k, c in f.coeffs.items():
        c_lo, c_hi = frac_norm_bounds(c, A.V)
        w = max(A.s ** k, A.t ** k)
        out.append((c_lo * w, c_hi * w))
    return out


def _frac_value(lo, hi):
    from arithline.normvalue import NormValue

    return NormValue.of(lo) if lo == hi else NormValue.interval(lo, hi)


def frac_norm_annulus(f, A):
    """sum_k ||a_k||_V max(s^k, t^k), one Fraction product per term."""
    terms = _frac_terms(f, A)
    return _frac_value(sum(lo for lo, _ in terms), sum(hi for _, hi in terms))


def naive_norm_annulus(f, A):
    """sum_k ||a_k||_V max(s^k, t^k), one Fraction multiply-add per term: the
    model of ``norm_annulus``, which sums the same terms by one integer
    Horner pass.  Each radius power is formed in full, with no budget."""
    from arithline.base_space import norm_bounds
    from arithline.errors import NegativePowersOnDisk
    from arithline.normvalue import NormValue

    if f.has_negative_support() and A.s == 0:
        raise NegativePowersOnDisk(NEG_ON_DISK)
    lo = hi = Fraction(0)
    for k, c in f.coeffs.items():
        w = max(A.s ** k, A.t ** k)
        c_lo, c_hi = norm_bounds(c, A.V)
        lo += c_lo * w
        hi += c_hi * w
    return NormValue.of(lo) if lo == hi else NormValue.interval(lo, hi)


def frac_uniform_norm_annulus(f, A, archimedean_upper_bound=False):
    """max_k ||a_k||_V max(s^k, t^k); the sum norm or a refusal off the
    ultrametric branches."""
    from arithline.errors import ArchimedeanBase

    if is_archimedean_by_shape(A.V):
        if archimedean_upper_bound:
            return frac_norm_annulus(f, A)
        raise ArchimedeanBase("uniform norm needs an ultrametric base compact")
    terms = _frac_terms(f, A)
    return _frac_value(max((lo for lo, _ in terms), default=Fraction(0)),
                       max((hi for _, hi in terms), default=Fraction(0)))


def frac_prune(f, ctx, tol):
    """The monomials whose certified contribution ||c||_V.hi max(s^k, t^k)
    exceeds tol: every coefficient's norm first, then every weight."""
    his = [frac_norm_bounds(c, ctx.V)[1] for c in f.coeffs.values()]
    weights = [radius_weight(ctx, k) for k in f.coeffs]
    kept = {k: c for (k, c), hi, w in zip(f.coeffs.items(), his, weights) if hi * w > tol}
    return FracLaurent(kept, f.trunc_mod)


# -- the series passes, one Fraction per coefficient ---------------------------
# The Cousin split, the Runge approximation, the cover defects, the radius
# witness and the reduction valuation read each coefficient back as a
# Fraction and took its valuation before they read integer content.  The
# functions below are those forms.


def split_series_direct(f, sys):
    """(f_minus, f_plus): ``split_rational_direct`` on each coefficient."""
    from arithline.series_ring import LaurentPoly

    minus, plus = {}, {}
    for k, c in f.coeffs.items():
        cm, cp = split_rational_direct(c, sys)
        if cm:
            minus[k] = cm
        if cp:
            plus[k] = cp
    return LaurentPoly._raw(minus, f.trunc_mod), LaurentPoly._raw(plus, f.trunc_mod)


def approx_in_z_inv_p_direct(f, p, M):
    """Each coefficient c with a prime-to-p part d > 1 in its reduced
    denominator becomes t / p^e, e = max(0, -v_p(c)) and t = c's numerator
    times d^-1 mod p^(e + M); the others are kept."""
    from arithline.numbers import invmod, vp
    from arithline.series_ring import LaurentPoly

    out = {}
    for k, c in f.coeffs.items():
        e = max(0, -vp(c, p))
        d = c.denominator // p ** e
        if d == 1:
            out[k] = c
            continue
        mod = p ** (e + M)
        out[k] = Fraction(c.numerator * invmod(d, mod) % mod, p ** e)
    return LaurentPoly(out, f.trunc_mod)


def runge_depth_direct(s_list, p):
    """N = the largest -v_p over the coefficients of s_list, and at least 0."""
    from arithline.numbers import vp

    N = 0
    for s in s_list:
        for c in s.coeffs.values():
            N = max(N, -min(0, vp(c, p)))
    return N


def cyclic_cover_split_direct(desc):
    """``cyclic_cover_split`` with the valuation of each defect read from a
    Fraction coefficient."""
    from arithline.covers_galois import CoverSplitReport
    from arithline.errors import PrecisionInsufficient
    from arithline.numbers import vp
    from arithline.series_ring import LaurentPoly, series_add, series_mul, series_scale, series_sub

    n, p, m, N = desc.n, desc.p, desc.m, desc.zeta.N
    coeffs = [LaurentPoly.one(m)]
    for j in range(n):
        rho = series_scale(p * pow(desc.zeta.residue, j, desc.zeta.modulus), desc.g)
        new = [LaurentPoly.zero(m) for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            new[k + 1] = series_add(new[k + 1], c)
            new[k] = series_sub(new[k], series_mul(rho, c))
        coeffs = new
    target = [LaurentPoly.zero(m) for _ in range(n + 1)]
    target[n] = LaurentPoly.one(m)
    target[0] = LaurentPoly({0: -(p ** n), 1: -(p ** n)}, m)
    defects = []
    ok = True
    for k in range(n + 1):
        diff = series_sub(coeffs[k], target[k])
        for j, c in diff.coeffs.items():
            v = vp(c, p)
            defects.append((k, j, v))
            if v < N:
                ok = False
    if not ok:
        raise PrecisionInsufficient(
            f"defects below p^{N}: {[(k, j, v) for k, j, v in defects if v < N]}"
        )
    return CoverSplitReport(n=n, p=p, N=N, defects=tuple(defects), zero_at_precision=True)


def radius_witness_direct(root, place):
    """min over i >= 1 of the lower end of |a_i|^(-1/i), from Fraction a_i."""
    from arithline.normvalue import default_bits, pow_bounds
    from arithline.numbers import vp

    best = None
    for i, c in root.coeffs.items():
        if i < 1 or c == 0:
            continue
        if place.is_finite:
            inv_abs = Fraction(place.prime) ** vp(c, place.prime)
        else:
            inv_abs = 1 / abs(c)
        bound = pow_bounds(inv_abs, Fraction(1, i))[0]
        if bound == 0:
            bound = Fraction(1, 2 ** default_bits())
        best = bound if best is None else min(best, bound)
    return Fraction(1) if best is None else best


def reduction_valuation_direct(G, b):
    """The least index whose coefficient is a p-adic unit at an extreme point
    (a refusal at a lower non-integral one); the least index elsewhere."""
    from arithline.base_space import classify_base_point
    from arithline.errors import NonIntegralAtExtremePoint
    from arithline.numbers import vp

    if classify_base_point(b) != "extreme":
        return G.min_index()
    for k in sorted(G.num):
        v = vp(G.coeff(k), b.place.prime)
        if v < 0:
            raise NonIntegralAtExtremePoint(f"coefficient {G.coeff(k)} at T^{k}")
        if v == 0:
            return k
    return None


# -- the Cayley tables as they were written by hand ----------------------------


def cyclic_table_by_hand(n):
    from arithline.covers_galois import GroupTable

    return GroupTable([[(i + j) % n + 1 for j in range(n)] for i in range(n)])


def direct_product_table_by_hand(A, B):
    from arithline.covers_galois import GroupTable

    pairs = [(a, b) for a in range(1, A.n + 1) for b in range(1, B.n + 1)]
    index = {ab: k + 1 for k, ab in enumerate(pairs)}
    return GroupTable(
        [[index[(A.mul(a1, a2), B.mul(b1, b2))] for (a2, b2) in pairs] for (a1, b1) in pairs]
    )


def symmetric_table_by_hand(n):
    from itertools import permutations

    from arithline.covers_galois import GroupTable

    perms = sorted(permutations(range(n)))
    index = {p: k + 1 for k, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(n))
    return GroupTable([[index[compose(p, q)] for q in perms] for p in perms])


def dihedral_table_by_hand(n):
    """D_n of order 2n: elements r^k and s r^k, the product case by case."""
    from arithline.covers_galois import GroupTable

    elems = [(0, k) for k in range(n)] + [(1, k) for k in range(n)]
    index = {e: i + 1 for i, e in enumerate(elems)}

    def mul(x, y):
        (s1, k1), (s2, k2) = x, y
        if s1 == 0:
            return (s2, (k1 + k2) % n) if s2 == 0 else (1, (k2 - k1) % n)
        return (1, (k1 + k2) % n) if s2 == 0 else (0, (k2 - k1) % n)

    return GroupTable([[index[mul(x, y)] for y in elems] for x in elems])


def quaternion_table_by_hand():
    """Q_8 = {1, -1, i, -i, j, -j, k, -k} from the 16 products of the letters."""
    from arithline.covers_galois import GroupTable

    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    index = {nm: k + 1 for k, nm in enumerate(names)}
    base = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def mul(a, b):
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        s, letter = base[(a.lstrip("-"), b.lstrip("-"))]
        return ("-" if sa * sb * s < 0 else "") + letter

    return GroupTable([[index[mul(a, b)] for b in names] for a in names])


# -- the group-table checks over every triple ----------------------------------


def group_table_by_triples(table):
    """Validate a Cayley table as GroupTable did before Light's test: the same
    checks, in the same order and with the same texts, and associativity over
    all n^3 triples.  Returns the parsed table and its identity."""
    from arithline.errors import BadInput
    from arithline.numbers import parse_int

    table = tuple(tuple(parse_int(x) for x in row) for row in table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise BadInput("table must be square")
    if any(not 1 <= x <= n for row in table for x in row):
        raise BadInput("entries must lie in [1, n]")
    r = range(n)
    identity = next((e + 1 for e in r if all(table[e][j] == j + 1 == table[j][e] for j in r)), None)
    if identity is None:
        raise BadInput("no identity element")
    for i in r:
        if identity not in table[i]:
            raise BadInput(f"element {i + 1} has no inverse")
    if any(table[table[i][j] - 1][k] != table[i][table[j][k] - 1] for i in r for j in r for k in r):
        raise BadInput("associativity fails")
    return table, identity


def mu_flags_pointwise(G):
    """mu's two flags checked point by point: alpha_{gh}(j) = alpha_g(alpha_h(j))
    for every g, h and j, and n distinct left translations."""
    n = G.n
    perms = {h: tuple(G.mul(h, j) for j in range(1, n + 1)) for h in range(1, n + 1)}
    homomorphism = all(
        perms[G.mul(h1, h2)] == tuple(perms[h1][perms[h2][j] - 1] for j in range(n))
        for h1 in range(1, n + 1)
        for h2 in range(1, n + 1)
    )
    return homomorphism, len(set(perms.values())) == n


# -- the direct Euclid over F_p and the zero-start matrix product ---------------


def fp_gcd_direct(f, g, p):
    """The monic gcd by its own remainder loop, as fp_gcd was written."""
    from arithline.numbers import invmod
    from arithline.polys import fp_divmod, fp_poly

    a, b = f, g
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    if a and a[-1] != 1:
        inv = invmod(a[-1], p)
        a = fp_poly([c * inv for c in a], p)
    return a


def matrix_mul_zero_start(a, b):
    """a b with each entry summed from LaurentPoly.zero(), term by term."""
    from arithline.cousin_cartan import SeriesMatrix
    from arithline.series_ring import LaurentPoly, series_add, series_mul

    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = LaurentPoly.zero()
            for k in range(a.cols):
                acc = series_add(acc, series_mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return SeriesMatrix(tuple(out))


def neumann_sum(n, done, cap=10000):
    """I - n + n^2 - ... with each term the previous one times n, negated;
    the sum ends before the first term ``done`` accepts, and raises
    NoConvergence after cap terms."""
    from arithline.cousin_cartan import SeriesMatrix
    from arithline.errors import NoConvergence
    from arithline.series_ring import series_neg

    term = SeriesMatrix.identity(n.rows)
    acc = term
    for _ in range(cap):
        term = matrix_map(term.mul(n), series_neg)
        if done(term):
            break
        acc = acc.add(term)
    else:
        raise NoConvergence("Neumann series did not terminate exactly")
    return acc


def neumann_inverse_by_sum(a, ctx, m):
    """``cousin_cartan.neumann_inverse`` with a shortcut for a = I and its sum
    taken by ``neumann_sum``."""
    from fractions import Fraction

    from arithline.cousin_cartan import SeriesMatrix, _indices, _is_identity_in_window, matrix_norm
    from arithline.errors import NoConvergence, NormTooLarge

    n = a.sub(SeriesMatrix.identity(a.rows))
    gap = matrix_norm(n, ctx)
    if not gap.le(Fraction(1, 2)):
        raise NormTooLarge(f"||a - I|| = {gap} not certified <= 1/2")
    if n.is_zero():
        return SeriesMatrix.identity(a.rows)
    indices = _indices(n)
    if all(k > 0 for k in indices):
        b = neumann_sum(n, lambda mat: all(k >= m for k in _indices(mat)))
    elif all(k < 0 for k in indices):
        b = neumann_sum(n, lambda mat: all(k <= -m for k in _indices(mat)))
    else:
        b = neumann_sum(n, SeriesMatrix.is_zero, cap=4 * m + 8 * a.rows)
    if not matrix_norm(b, ctx).le(2):
        raise NormTooLarge("inverse norm not certified <= 2")
    if not _is_identity_in_window(a.mul(b), m):
        raise NoConvergence("no exactly summable Neumann shape found")
    return b


def approx_inverse_by_loop(n, ctx, target, prune_tol):
    """``cousin_cartan._approx_inverse`` as one loop: each term is the
    previous one times n, negated and pruned; the sum stops at a zero term,
    once ||n||^(j+1) <= target after j terms, or after 500 terms."""
    from fractions import Fraction

    from arithline.cousin_cartan import SeriesMatrix, matrix_norm
    from arithline.errors import NormTooLarge
    from arithline.series_ring import series_neg

    nrm = matrix_norm(n, ctx)
    if not nrm.le(Fraction(1, 2)):
        raise NormTooLarge("inverse factor drifted out of the Neumann zone")
    acc = SeriesMatrix.identity(n.rows)
    term = acc
    bound = nrm.hi
    running = bound
    for _ in range(500):
        term = matrix_map(term.mul(n), series_neg).prune(ctx, prune_tol)
        if term.is_zero():
            break
        acc = acc.add(term)
        running *= bound
        if running <= target:
            break
    return acc


def eval_base_by_pow_rational(f, x):
    """|f(x)| as ``eval_base_seminorm`` computed it before a point was read as
    the one-point compact: the central point gives 1, an extreme point 0 or
    1 (a pole refused), and a branch point |f|_sigma, an exact rational,
    raised to the exponent by ``NormValue.pow_rational``."""
    from arithline.base_space import abs_at_place, is_inf
    from arithline.errors import NonIntegralAtExtremePoint
    from arithline.normvalue import NormValue
    from arithline.numbers import vp

    f = Fraction(f)
    if f == 0:
        return NormValue.of(0)
    if x.place is None:
        return NormValue.of(1)
    if is_inf(x.exponent):
        v = vp(f, x.place.prime)
        if v < 0:
            raise NonIntegralAtExtremePoint(f"{f} has a pole at the extreme point of {x.place.prime}")
        return NormValue.of(0 if v > 0 else 1)
    return NormValue.of(abs_at_place(f, x.place)).pow_rational(x.exponent)


def eval_disk_by_terms(F, x):
    """|F(x)| at a disk point eta_{alpha,r} by the per-coefficient loop that
    ``eval_line_seminorm`` ran before: the max over the Taylor coefficients
    c_k at alpha of ``eval_base_by_pow_rational(c_k)`` times r^k, as
    NormValues; at r = 0 only c_0 is read."""
    from arithline.normvalue import NormValue, nv_max
    from arithline.polys import poly, pshift

    F = poly(F)
    if not F:
        return NormValue.of(0)
    r = x.fiber.r
    terms = []
    rpow = Fraction(1)
    for k, c in enumerate(pshift(F, x.fiber.alpha)):
        if c:
            terms.append(eval_base_by_pow_rational(c, x.base) * NormValue.of(rpow))
        rpow *= r
        if r == 0 and k == 0:
            break
    return nv_max(terms)


# -- the recursive factor lift and its pairwise coprimality check --------------


def _fp_bezout_unscaled(f, g, p):
    """Extended Euclid over F_p[T], the gcd left as the remainders end:
    (d, s, t) with s f + t g = d."""
    from itertools import zip_longest

    from arithline.polys import fp_divmod, fp_mul, fp_poly

    def sub(a, b):
        return fp_poly([x - y for x, y in zip_longest(a, b, fillvalue=0)], p)

    r0, r1 = f, g
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, fp_mul(q, s1, p))
        t0, t1 = t1, sub(t0, fp_mul(q, t1, p))
    return r0, s0, t0


def hensel_pair_lift_refreshing(f, g, h, p, N):
    """Lift f = g h (mod p) to mod p^N as the pair lift was written: its own
    Bezout pair, made monic here, and g and h re-reduced mod p each step."""
    from itertools import zip_longest

    from arithline.errors import NotCoprime
    from arithline.numbers import invmod
    from arithline.polys import deg, fp_divmod, fp_mul, fp_poly

    gp, hp = fp_poly(g, p), fp_poly(h, p)
    one, s, t = _fp_bezout_unscaled(gp, hp, p)
    if deg(one) != 0:
        raise NotCoprime("factors share a root mod p")
    inv = invmod(one[0], p)
    s = fp_poly([c * inv for c in s], p)
    t = fp_poly([c * inv for c in t], p)
    g_cur, h_cur = [int(c) for c in g], [int(c) for c in h]
    for k in range(1, N):
        mod = p ** (k + 1)
        prod = fp_mul(tuple(g_cur), tuple(h_cur), mod)
        diff = [(a - b) % mod for a, b in zip_longest(f, prod, fillvalue=0)]
        if all(c % p ** (k + 1) == 0 for c in diff):
            continue
        assert all(c % p ** k == 0 for c in diff), "lift invariant broken"
        e = fp_poly([c // p ** k % p for c in diff], p)
        dg = fp_divmod(fp_mul(e, t, p), fp_poly(g_cur, p), p)[1]
        dh = fp_divmod(fp_mul(e, s, p), fp_poly(h_cur, p), p)[1]
        g_cur = [(a + p ** k * b) % mod for a, b in zip_longest(g_cur, dg, fillvalue=0)]
        h_cur = [(a + p ** k * b) % mod for a, b in zip_longest(h_cur, dh, fillvalue=0)]
    return fp_poly(g_cur, p ** N), fp_poly(h_cur, p ** N)


def hensel_multi_lift_recursive(f, factors, p, N):
    """The first factor lifted against the product of the rest, then the
    rest lifted by recursion; the product mod p checked at every level."""
    from arithline.errors import ProductMismatch
    from arithline.polys import fp_mul, fp_poly

    prod = (1,)
    for fac in factors:
        prod = fp_mul(prod, fp_poly(fac, p), p)
    if prod != fp_poly(f, p):
        raise ProductMismatch("seed factors do not multiply to G mod p")
    if len(factors) <= 1:
        return [fp_poly(f, p ** N) for _ in factors]
    rest = (1,)
    for fac in factors[1:]:
        rest = fp_mul(rest, fp_poly(fac, p), p)
    g_lift, h_lift = hensel_pair_lift_refreshing(tuple(f), fp_poly(factors[0], p), rest, p, N)
    return [g_lift] + hensel_multi_lift_recursive(h_lift, factors[1:], p, N)


def hensel_factor_lift_recursive(G, factors, p, N):
    """``weierstrass.hensel_factor_lift`` as it was written: the input checks,
    a quadratic pairwise gcd loop for coprimality, the recursive lift and the
    product of the lifts checked mod p^N."""
    from arithline.errors import BadInput, NotCoprime, NotMonic, ProductMismatch
    from arithline.numbers import is_prime
    from arithline.polys import deg, fp_mul, fp_poly, fp_reduce, is_monic, poly

    if N < 1:
        raise BadInput("need N >= 1")
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    Gp = poly(G)
    if not is_monic(Gp):
        raise NotMonic("factor lifting needs a monic G")
    if any(Fraction(c).denominator != 1 for c in Gp):
        raise BadInput("G must have integer coefficients")
    Gint = [int(c) for c in Gp]
    seeds = [fp_reduce(poly(f), p) for f in factors]
    for f in seeds:
        if not f or f[-1] != 1:
            raise NotMonic("seed factors must be monic mod p")
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            if deg(fp_gcd_direct(seeds[i], seeds[j], p)) > 0:
                raise NotCoprime(f"factors {i} and {j} share a root mod p")
    lifted = hensel_multi_lift_recursive(Gint, seeds, p, N)
    prod = (1,)
    for f in lifted:
        prod = fp_mul(prod, f, p ** N)
    if prod != fp_poly(Gint, p ** N):
        raise ProductMismatch("lifted product does not match G mod p^N")
    return lifted


# -- the series product and the matrix layer before one integer kernel -------
# Schoolbook convolution at every size, the matrix product as a reduce of
# series_add over series_mul, the Neumann loop that copies its whole sum at
# each step, a prune that rebuilds every entry, the row norm as a sum of
# NormValues, I + x and x - I as sums with the whole identity, and the norm
# term of a finite point read through ``pow_pairs``: the forms that
# ``series_ring`` and ``cousin_cartan`` replaced with Kronecker products,
# fused dot products, one running integer sum per entry, the integer row pass
# and the diagonal-only identity.  ``old_matrix_layer`` puts them back in
# place of the library's, so that a call of ``cartan_factorize`` or
# ``neumann_inverse`` runs the old code.


def convolve_schoolbook(f_items, g_sorted, mod, out=None, scale=1):
    """``series_ring._convolve`` before Kronecker products: sum a_i b_j
    T^(i+j) over the pairs with i + j < mod (all if mod is None), the inner
    loop stopped at the first product past the modulus, then added scaled
    into ``out``."""
    prod = {}
    if g_sorted:
        if mod is None:
            mod = max((i for i, _ in f_items), default=0) + g_sorted[-1][0] + 1
        get = prod.get
        for i, a in f_items:
            top = mod - i
            for j, b in g_sorted:
                if j >= top:
                    break
                k = i + j
                prev = get(k)
                prod[k] = a * b if prev is None else prev + a * b
    if out is None:
        out = {}
    for k, c in prod.items():
        out[k] = out.get(k, 0) + c * scale
    return out


def _checked_entrywise(a, b, op):
    from arithline.cousin_cartan import SeriesMatrix

    return SeriesMatrix(tuple(tuple(op(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries)))


def matrix_mul_by_reduce(a, b):
    """``SeriesMatrix.mul`` as reduce(series_add, map(series_mul, row, col))
    per entry, moved to the least modulus by the validating constructor."""
    from functools import reduce

    from arithline.cousin_cartan import SeriesMatrix
    from arithline.errors import BadInput
    from arithline.series_ring import series_add, series_mul

    if a.cols != b.rows:
        raise BadInput("shape mismatch")
    columns = tuple(zip(*b.entries))
    return SeriesMatrix(
        tuple(tuple(reduce(series_add, map(series_mul, row, col)) for col in columns) for row in a.entries)
    )


def neumann_by_copies(n, stop, steps, keep):
    """``cousin_cartan._neumann`` with acc = acc.add(term) at each step."""
    from arithline.cousin_cartan import SeriesMatrix
    from arithline.series_ring import series_add, series_neg

    minus_n = matrix_map(n, series_neg)
    term = acc = SeriesMatrix.identity(n.rows)
    for _ in range(steps):
        term = keep(term.mul(minus_n))
        if stop(term):
            return acc, True
        acc = _checked_entrywise(acc, term, series_add)
    return acc, False


def prune_every_entry(mat, ctx, tol):
    """``SeriesMatrix.prune`` rebuilding every entry, zero or kept whole."""
    from arithline.series_ring import LaurentPoly

    tol_n, tol_d = tol.numerator, tol.denominator

    def prune_entry(e):
        import arithline.cousin_cartan as CC

        bounds = CC.norm_bounds_each(e.num.values(), e.den, ctx.V)
        kept = {
            k: c
            for (k, c), (_, (hn, hd)), (wn, wd) in zip(e.num.items(), bounds, ctx.weights(e.num))
            if hn * wn * tol_d > tol_n * hd * wd
        }
        return LaurentPoly._content(kept, e.den, e.trunc_mod)

    return matrix_map(mat, prune_entry)


def matrix_norm_by_nv_sum(a, ctx):
    """``cousin_cartan.matrix_norm`` as nv_max over rows of nv_sum of the
    entries' ``norm_annulus``."""
    from arithline.normvalue import nv_max, nv_sum
    from arithline.series_ring import norm_annulus

    return nv_max(nv_sum(norm_annulus(e, ctx) for e in row) for row in a.entries)


def plus_identity_by_add(mat, sign=1):
    """I + mat or mat - I with the whole identity, entry by entry."""
    from arithline.cousin_cartan import SeriesMatrix
    from arithline.series_ring import series_add, series_sub

    ident = SeriesMatrix.identity(mat.rows)
    return _checked_entrywise(ident, mat, series_add) if sign > 0 else _checked_entrywise(mat, ident, series_sub)


def norm_bounds_each_by_pow_pairs(nums, den, V):
    """``base_space.norm_bounds_each`` with every finite term read through
    ``pow_pairs``, at the int exponent x when k = 1."""
    from arithline.base_space import _NIL, _ONE, _UNIT, _ZERO, _norm_endpoints, _refuse_poles
    from arithline.normvalue import pair_max, pow_pairs
    from arithline.numbers import vp_int

    has_trivial, finite_terms, arch_terms, extreme, pole = _norm_endpoints(V)[:5]
    _refuse_poles(nums, den, pole)
    if not (finite_terms or arch_terms or extreme):
        return [_UNIT if n else _NIL for n in nums]
    finite = [(p, a, k, a * vp_int(den, p)) for p, a, k in finite_terms]
    extreme = [(q, vp_int(den, q)) for q in extreme]
    start = _ONE if has_trivial else None
    out = []
    for n in nums:
        if n == 0:
            out.append(_NIL)
            continue
        lo = hi = start
        for p, a, k, a_vd in finite:
            x = a_vd - a * vp_int(n, p)
            t_lo, t_hi = pow_pairs(p, 1, x if k == 1 else Fraction(x, k))
            lo, hi = (t_lo, t_hi) if lo is None else (pair_max(lo, t_lo), pair_max(hi, t_hi))
        for e in arch_terms:
            t_lo, t_hi = pow_pairs(abs(n), den, e)
            lo, hi = (t_lo, t_hi) if lo is None else (pair_max(lo, t_lo), pair_max(hi, t_hi))
        for q, vd in extreme:
            t = _ZERO if vp_int(n, q) > vd else _ONE
            lo, hi = (t, t) if lo is None else (pair_max(lo, t), pair_max(hi, t))
        if hi is not lo and hi[0] * lo[1] == lo[0] * hi[1]:
            hi = lo
        out.append((lo, hi))
    return out


def old_matrix_layer():
    """A context in which the library runs the forms above in place of the
    one integer kernel: schoolbook products, the reduce-based matrix
    product, the copying Neumann loop, the rebuilding prune, the NormValue
    row sums, the identity added whole and the ``pow_pairs`` norm term."""
    from contextlib import ExitStack
    from unittest import mock

    import arithline.base_space as B
    import arithline.cousin_cartan as CC
    import arithline.series_ring as S

    stack = ExitStack()
    for target, name, value in (
        (S, "_convolve", convolve_schoolbook),
        (CC.SeriesMatrix, "mul", matrix_mul_by_reduce),
        (CC.SeriesMatrix, "prune", prune_every_entry),
        (CC, "_neumann", neumann_by_copies),
        (CC, "matrix_norm", matrix_norm_by_nv_sum),
        (CC, "_plus_identity", plus_identity_by_add),
        (B, "norm_bounds_each", norm_bounds_each_by_pow_pairs),
        (S, "norm_bounds_each", norm_bounds_each_by_pow_pairs),
        (CC, "norm_bounds_each", norm_bounds_each_by_pow_pairs),
    ):
        stack.enter_context(mock.patch.object(target, name, value))
    return stack
