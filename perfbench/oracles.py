"""Independent exact oracles for the benchmark's output checks.

Nothing here imports arithline: each value is re-derived by a textbook
route (schoolbook long division, triangular series solves, direct
convolution, trial-division valuations, integer power comparisons) so that
a fault in the library cannot hide behind the same fault in the check.
"""

from fractions import Fraction
from math import log2

ZERO = Fraction(0)


def vp(q, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def p_abs(q, p: int) -> Fraction:
    """|q|_p exactly."""
    q = Fraction(q)
    return ZERO if q == 0 else Fraction(p) ** (-vp(q, p))


def p_integral(q, p: int) -> bool:
    return q == 0 or vp(q, p) >= 0


def only_p_in_denominator(q, p: int) -> bool:
    d = Fraction(q).denominator
    while d % p == 0:
        d //= p
    return d == 1


def convolve(a: dict, b: dict, below=None) -> dict:
    """Product of two coefficient maps, keeping indices < below if given."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            if below is None or k < below:
                out[k] = out.get(k, ZERO) + x * y
    return {k: c for k, c in out.items() if c}


def schoolbook_divmod(F, G):
    """Long division of ascending coefficient lists by a monic G."""
    F = [Fraction(c) for c in F]
    G = [Fraction(c) for c in G]
    Q = [ZERO] * max(0, len(F) - len(G) + 1)
    R = F[:]
    while len(R) >= len(G):
        c = R[-1]
        if c:
            shift = len(R) - len(G)
            Q[shift] = c
            for i, g in enumerate(G):
                R[shift + i] -= c * g
        R.pop()
    while R and R[-1] == 0:
        R.pop()
    while Q and Q[-1] == 0:
        Q.pop()
    return Q, R


def series_quotient(F, U, m: int):
    """Coefficients of F/U mod T^m by the triangular solve, U[0] != 0."""
    F = [Fraction(F[i]) if i < len(F) else ZERO for i in range(m)]
    U = [Fraction(U[i]) if i < len(U) else ZERO for i in range(m)]
    out = []
    for k in range(m):
        acc = F[k]
        for j in range(1, k + 1):
            if U[j]:
                acc -= U[j] * out[k - j]
        out.append(acc / U[0])
    return out


def binomial_coefficient(n: int, i: int) -> Fraction:
    """C(1/n, i) = prod_{j<i} (1/n - j) / i!, by the product formula."""
    num = 1
    for j in range(i):
        num *= 1 - j * n
    fact = 1
    for j in range(2, i + 1):
        fact *= j
    return Fraction(num, n ** i * fact)


def encloses_power(lo: Fraction, hi: Fraction, base: Fraction, e: Fraction) -> bool:
    """lo <= base**e <= hi for base >= 0 and rational e, compared exactly."""
    e = Fraction(e)
    if e < 0:
        base, e = 1 / base, -e
    a, b = e.numerator, e.denominator
    z = base ** a
    return lo >= 0 and lo ** b <= z <= hi ** b and lo <= hi


def whole_space_norm(c) -> Fraction:
    """||c|| over the whole base space, for an integer c: max(1, |c|)."""
    c = Fraction(c)
    if c == 0:
        return ZERO
    if c.denominator != 1:
        raise ValueError("only integers lie in B(M(Z))")
    return max(Fraction(1), abs(c))


def enclosure_bits(lo: Fraction, hi: Fraction):
    """-log2(width / hi) of an interval, None when exact or zero."""
    width = hi - lo
    if width == 0 or hi == 0:
        return None
    return (log2(hi.numerator) - log2(hi.denominator)) - (
        log2(width.numerator) - log2(width.denominator)
    )


def nearest_int(q: Fraction) -> int:
    """Integer within 1/2 of q, ties toward +inf."""
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)
