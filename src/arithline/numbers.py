"""Elementary exact number theory: valuations, factoring, integer roots."""

import re
from fractions import Fraction
from math import gcd, isqrt

from .errors import BadInput, CannotFactor

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DECIMAL = re.compile("-?[0-9]+")


def parse_int(v) -> int:
    """An int that is not a bool, or an optional "-" and ASCII digits (the form
    in which ``--place 2`` arrives); anything else is BadInput, with
    ``int()``'s text for a string, so no float, "1_0" or " 3" is truncated."""
    if isinstance(v, str):
        if _DECIMAL.fullmatch(v):
            return int(v)
        raise BadInput(f"invalid literal for int() with base 10: {v!r:.200}")
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise BadInput(f"expected an integer, got {v!r}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


TRIAL_BOUND = 1 << 20  # factor finds primes below this by trial division
RHO_BUDGET = 1 << 18  # Pollard-Brent steps factor spends on one composite


def factor(n: int) -> dict:
    """Prime factorization of |n|, in increasing order of the primes.

    Trial division below TRIAL_BOUND, then Miller-Rabin and Pollard-Brent
    rho on what is left.  A composite that rho does not split within
    RHO_BUDGET steps raises CannotFactor, so the cost is bounded for every n.
    """
    n, out, pending = abs(n), {}, []
    while n > 1:
        p = small_prime_factor(n, TRIAL_BOUND)
        if p is None:
            pending.append(n)
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_divisor(m, RHO_BUDGET)
        if d is None:
            raise CannotFactor(f"no factor of {m} found in {RHO_BUDGET} Pollard-Brent steps")
        pending += [d, m // d]
    return dict(sorted(out.items()))


def _rho_divisor(n: int, budget: int):
    """A proper divisor of the odd composite n by Brent's rho (BIT 20, 1980),
    or None once about budget steps of y -> y^2 + c mod n are spent."""
    steps, c = 0, 0
    while steps < budget:
        c += 1  # a walk that ends in gcd n is retried with the next c
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):  # one gcd per batch of 128 products
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def strip_primes(n: int, primes) -> int:
    """|n| for n != 0 with every factor from ``primes`` divided out."""
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def small_prime_factor(n: int, bound: int):
    """The least prime factor of n > 1, or None if it is not found below bound.

    Trial division by 2, 3 and 6k +- 1 up to min(bound, sqrt(n)), so the
    cost is bounded by ``bound`` whatever the size of n.
    """
    for p in (2, 3):
        if n % p == 0:
            return p
    d = 5
    while d < bound and d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                return p
        d += 6
    return n if d * d > n else None


def prime_divisors(n: int) -> list:
    """The distinct primes dividing |n|, in increasing order."""
    return list(factor(n))


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def invmod(a: int, m: int) -> int:
    """The inverse of a modulo m >= 1, in [0, m)."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} not invertible mod {m}") from None


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_root(n: int, k: int):
    """Exact integer k-th root of n, or None.  Handles negative n for odd k."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = perfect_root(-n, k)
        return None if r is None else -r
    r = iroot(n, k)
    return r if r ** k == n else None


def rational_root(q: Fraction, k: int):
    """Exact rational k-th root of q >= 0, or None."""
    num = perfect_root(q.numerator, k)
    if num is None:
        return None
    den = perfect_root(q.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def lcm_list(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out
