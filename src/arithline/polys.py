"""Dense univariate polynomials over Q and over F_p, plus Gaussian rationals.

A polynomial over Q is a tuple of Fractions in ascending degree with no
trailing zeros, the zero polynomial the empty tuple; ``poly`` builds one from
the API and JSON boundary.  The kernels run on its integer numerators over
one denominator D (``numerators``, the layout of FLINT's ``fmpq_poly``): one
pseudo-division, one Gaussian Horner evaluation, the Taylor shift and the
Bareiss resultant.  Polynomials over F_p are tuples of ints mod p;
``fp_poly``, ``fp_sub`` and ``fp_mul`` never invert, so the Hensel lifts use
them mod p^N.  ``_fp_bezout`` is the one Euclid over F_p, its gcd monic and
its Bezout cofactors scaled to match (``fp_gcd`` is its first entry).  The
factor lift is one pass: one ``_fp_bezout`` per seed, against the product of
the seeds after it.
"""

from fractions import Fraction
from functools import reduce
from itertools import accumulate, zip_longest
from math import gcd, prod

from .errors import BadInput, CannotCertify, NotCoprime, ProductMismatch
from .normvalue import DIVISION_WORK, RESULTANT_WORK
from .numbers import factor, invmod, lcm_list, next_prime, prime_divisors, rational_root

# -- polynomials over Q -----------------------------------------------------


def poly(coeffs) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def deg(f) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


def numerators(f):
    """(n, D) with f = n / D: the integer numerators of f over the lcm D of
    its denominators."""
    D = lcm_list(c.denominator for c in f)
    return [c.numerator * (D // c.denominator) for c in f], D


def check_division_work(n: int, p: int, hf: int, hg: int) -> None:
    """Refuse, with CannotCertify, a pseudo-division of a degree-n dividend by
    a degree-p divisor, with coefficients of at most hf and hg bits, whose
    work is above DIVISION_WORK.  Its j = n - p + 1 steps each touch p + 1
    entries of up to H = hf + j hg bits, and the j quotient entries are as
    large: the work is j (p + 1) ceil(H / 64) words."""
    j = n - p + 1
    if j * (p + 1) * ((hf + j * hg + 63) // 64) > DIVISION_WORK:
        raise CannotCertify(f"a pseudo-division of degree {n} by degree {p} with {hf}- and {hg}-bit "
                            f"coefficients exceeds the DIVISION_WORK budget of {DIVISION_WORK}")


def pdivide(f, g):
    """The integer pseudo-division s f = q g + r, deg r < deg g.

    f and g are ascending int lists, g with a nonzero last entry L.  With
    s = |L|^j for the j = deg f - deg g + 1 quotient steps, each quotient
    coefficient is an exact division by L; for L = 1 this is synthetic
    division.  Returns (s, q, r), r with deg g entries; for deg f < deg g,
    (1, [], f).  Work above DIVISION_WORK (``check_division_work``) is
    refused before the first step.
    """
    p, n = len(g) - 1, len(f) - 1
    if n < p:
        return 1, [], list(f)
    check_division_work(n, p, max(map(abs, f)).bit_length(), max(map(abs, g)).bit_length())
    L = g[p]
    low = [(i, b) for i, b in enumerate(g[:p]) if b]
    s = abs(L) ** (n - p + 1)
    r = [c * s for c in f]
    q = [0] * (n - p + 1)
    for k in range(n - p, -1, -1):
        c = r[k + p] if L == 1 else r[k + p] // L
        if c:
            q[k] = c
            for i, b in low:
                r[k + i] -= c * b
    return s, q, r[:p]


def horner(n, x, y, w):
    """(X, Y) with X + iY = sum_k n_k (x + iy)^k w^(d-k), d = len(n) - 1: for
    f = n / D and z = (x + iy) / w, f(z) = (X + iY) / (D w^d)."""
    X = Y = 0
    wk = 1
    for c in reversed(n):
        X, Y = X * x - Y * y + c * wk, X * y + Y * x
        wk *= w
    return X, Y


def gauss_value(n, D, z):
    """f(z) = (X + iY) / S as ints (X, Y, S), for f = n / D and a Gaussian
    rational z."""
    a, b = z.re, z.im
    w = lcm_list((a.denominator, b.denominator))
    X, Y = horner(n, a.numerator * (w // a.denominator), b.numerator * (w // b.denominator), w)
    return X, Y, D * w ** max(len(n) - 1, 0)


def pderiv(f):
    return poly([i * c for i, c in enumerate(f)][1:])


def pshift(f, alpha):
    """Taylor coefficients of f at alpha, i.e. g with f(T) = g(T - alpha).

    With f = n / D of degree d and alpha = a / b, the shift runs on the
    integers m_i = n_i b^(d-i): h(U) = sum_i m_i (U + a)^i gives
    g_j = h_j / (D b^(d-j)).
    """
    alpha = Fraction(alpha)
    a, b = alpha.numerator, alpha.denominator
    n, D = numerators(f)
    d = len(n) - 1
    out = [c * b ** (d - i) for i, c in enumerate(n)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            out[j] += a * out[j + 1]
    return tuple(Fraction(c, D * b ** (d - j)) for j, c in enumerate(out))


def p_multiplicity(f, P):
    """Largest k with P**k dividing f; f nonzero, deg P >= 1.  Each step is
    one ``pdivide`` of the primitive numerators of f by those of P: the
    remainder vanishes exactly when P divides f over Q."""
    if not f:
        raise ValueError("multiplicity in the zero polynomial")
    f, g = numerators(f)[0], numerators(P)[0]
    k = 0
    while True:
        _, q, r = pdivide(f, g)
        if any(r):
            return k
        c = gcd(*q)
        f = [x // c for x in q]
        k += 1


def is_monic(f) -> bool:
    return bool(f) and f[-1] == 1


def sylvester_resultant(f, g) -> Fraction:
    """Res(f, g) as the Sylvester determinant (Res = lc(f)^deg g * prod g(roots f)).

    The determinant of the integer Sylvester matrix of the numerators
    f = nf / Df, g = ng / Dg comes from fraction-free Bareiss elimination,
    then Res(f, g) = det / (Df^deg g Dg^deg f).  Its N^3 steps each divide
    numbers of up to about N h bits for entries of h bits, a cost quadratic
    in the words: a matrix with N^3 ceil(N h / 64)^2 above RESULTANT_WORK is
    refused with CannotCertify before the elimination starts.
    """
    n, m = deg(f), deg(g)
    if n < 0 and m < 0:
        raise BadInput("resultant of two zero polynomials")
    if n < 0 or m < 0:
        return Fraction(0)
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    (nf, Df), (ng, Dg) = numerators(f), numerators(g)
    size = n + m
    h = max(abs(c) for c in nf + ng).bit_length()
    work = size ** 3 * ((size * h + 63) // 64) ** 2
    if work > RESULTANT_WORK:
        raise CannotCertify(f"a {size}x{size} Sylvester determinant of {h}-bit entries exceeds {RESULTANT_WORK}")
    fr, gr = nf[::-1], ng[::-1]
    rows = [[0] * i + fr + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gr + [0] * (n - 1 - i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(size - 1):
        piv = next((r for r in range(k, size) if rows[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        a = top[k]
        for row in rows[k + 1:]:
            c = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * a - c * top[j]) // prev
        prev = a
    return Fraction(sign * rows[-1][-1], Df ** m * Dg ** n)


# -- polynomials over F_p ---------------------------------------------------


def fp_poly(coeffs, p):
    out = [int(c) % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def fp_reduce(f, p):
    """Reduce a Q-polynomial with p-integral coefficients mod p."""
    n, D = numerators(f)
    if D % p == 0:
        raise BadInput("coefficient not p-integral")
    u = invmod(D, p)
    return fp_poly([c * u for c in n], p)


def fp_sub(f, g, p):
    return fp_poly([a - b for a, b in zip_longest(f, g, fillvalue=0)], p)


def fp_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return fp_poly(out, p)


def fp_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError
    inv = invmod(g[-1], p)
    q = [0] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g):
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(g)
        c = r[-1] * inv % p
        q[k] = c
        for i, b in enumerate(g):
            r[k + i] = (r[k + i] - c * b) % p
        r.pop()
    return fp_poly(q, p), fp_poly(r, p)


def fp_gcd(f, g, p):
    """The monic gcd over F_p, read from ``_fp_bezout``; () for two zeros."""
    return _fp_bezout(f, g, p)[0]


def _fp_bezout(f, g, p):
    """Extended Euclid over F_p[T]: (d, s, t) with s*f + t*g = d and d the
    monic gcd, s and t scaled with it; ((), (1,), ()) for two zeros."""
    r0, r1 = f, g
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, fp_sub(t0, fp_mul(q, t1, p), p)
    inv = invmod(r0[-1], p) if r0 else 1
    return tuple(fp_poly([c * inv for c in a], p) for a in (r0, s0, t0))


def fp_powmod(f, e, mod, p):
    result = (1,)
    base = fp_divmod(f, mod, p)[1]
    while e:
        if e & 1:
            result = fp_divmod(fp_mul(result, base, p), mod, p)[1]
        base = fp_divmod(fp_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def fp_multiplicity(f, g, p):
    k = 0
    while True:
        q, r = fp_divmod(f, g, p)
        if r:
            return k
        f = q
        k += 1


def fp_irreducible(f, p) -> bool:
    """Rabin's test: f irreducible over F_p."""
    d = deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    x = (0, 1)
    xq = fp_powmod(x, p ** d, f, p)
    if xq != fp_divmod(x, f, p)[1]:
        return False
    for q in prime_divisors(d):
        e = d // q
        xe = fp_powmod(x, p ** e, f, p)
        diff = fp_sub(xe, x, p)
        if deg(fp_gcd(diff, f, p)) != 0:
            return False
    return True


# -- Hensel lifting of coprime factorizations -------------------------------


def hensel_multi_lift(f, seeds, p, N):
    """Lift f = seeds[0] ... seeds[-1] mod p, f monic in Z[T] and the seeds
    monic mod p, to the monic factors mod p^N, in one pass (von zur Gathen
    and Gerhard, ch. 15): with rest[i] = seeds[i] ... seeds[-1] mod p, one
    ``_fp_bezout`` of seeds[i] and rest[i + 1] is both the coprimality test
    (NotCoprime names the first pair that shares a root) and the Bezout pair
    that lifts seeds[i] against rest[i + 1], whose lift is the next f.  The
    product is checked mod p before the lift and mod p^N after it."""
    rest = list(accumulate(reversed(seeds), lambda a, g: fp_mul(g, a, p), initial=(1,)))[::-1]
    ts = []
    for i, g in enumerate(seeds):
        one, _, t = _fp_bezout(g, rest[i + 1], p)
        if one != (1,):
            j = next(j for j in range(i + 1, len(seeds)) if fp_gcd(g, seeds[j], p) != (1,))
            raise NotCoprime(f"factors {i} and {j} share a root mod p")
        ts.append(t)
    if rest[0] != fp_poly(f, p):
        raise ProductMismatch("seed factors do not multiply to G mod p")
    lifted, cofactor = [], f
    for g, h, t in zip(seeds, rest[1:], ts):
        lift, cofactor = _pair_lift(cofactor, g, h, t, p, N)
        lifted.append(lift)
    modN = p ** N
    if reduce(lambda a, b: fp_mul(a, b, modN), lifted, (1,)) != fp_poly(f, modN):
        raise ProductMismatch("lifted product does not match G mod p^N")
    return lifted


def _pair_lift(f, g, h, t, p, N):
    """Lift f = g h mod p, g and h monic with s g + t h = 1 mod p, to the monic
    pair with f = g h mod p^N: the step to p^(k+1) adds p^k dg and p^k dh,
    e = (f - g h) / p^k mod p, dg = e t mod g and dh = (e - dg h) / g, an
    exact division by the monic g (dg h + dh g = e mod p with deg dh < deg h
    fixes dh; it is e s mod h).  The lifts stay g and h mod p, so g and h
    themselves divide."""
    g_cur, h_cur = g, h
    for k in range(1, N):
        pk = p ** k
        mod = pk * p
        gh = fp_mul(g_cur, h_cur, mod)
        diff = [(a - b) % mod for a, b in zip_longest(f, gh, fillvalue=0)]
        if not any(diff):
            continue
        assert all(c % pk == 0 for c in diff), "lift invariant broken"
        e = fp_poly([c // pk for c in diff], p)
        dg = fp_divmod(fp_mul(e, t, p), g, p)[1]
        dh = fp_divmod(fp_sub(e, fp_mul(dg, h, p), p), g, p)[0]
        g_cur = tuple((a + pk * b) % mod for a, b in zip_longest(g_cur, dg, fillvalue=0))
        h_cur = tuple((a + pk * b) % mod for a, b in zip_longest(h_cur, dh, fillvalue=0))
    modN = p ** N
    return fp_poly(g_cur, modN), fp_poly(h_cur, modN)


# -- irreducibility over Q --------------------------------------------------


ROOT_CANDIDATES = 1 << 14  # most divisor pairs a rational root search tries


def rational_roots(f):
    """All rational roots of a nonzero f in Q[T].

    The candidates are +-r/s with r | a_0 and s | a_n, the end coefficients
    of f cleared of denominators and content; more than ROOT_CANDIDATES
    pairs, d(a_0) d(a_n), are refused with CannotCertify.
    """
    if not f:
        raise ValueError("zero polynomial")
    k = 0
    while f[k] == 0:
        k += 1
    f = f[k:]
    roots = set([Fraction(0)] if k else [])
    g = numerators(f)[0]
    content = gcd(*g)
    g = [c // content for c in g]
    r_divs, s_divs = _divisors(g[0], g[-1])
    for r in r_divs:
        for s in s_divs:
            for sign in (1, -1):
                if horner(g, sign * r, 0, s)[0] == 0:
                    roots.add(Fraction(sign * r, s))
    return sorted(roots)


def _divisors(*ns) -> list:
    """The sorted positive divisors of each nonzero n, from ``numbers.factor``;
    CannotCertify if the product of their counts exceeds ROOT_CANDIDATES."""
    factored = [factor(n) for n in ns]
    count = prod(e + 1 for fac in factored for e in fac.values())
    if count > ROOT_CANDIDATES:
        raise CannotCertify(f"{count} divisor candidates exceed {ROOT_CANDIDATES}")
    out = []
    for fac in factored:
        divs = [1]
        for q, e in fac.items():
            divs = [d * q ** k for d in divs for k in range(e + 1)]
        out.append(sorted(divs))
    return out


def is_irreducible_q(f) -> bool:
    """Irreducibility over Q for desk-scale polynomials.

    Exact for degree <= 4 (rational roots plus quadratic-pair search); for
    higher degree falls back on a mod-p certificate and raises when no small
    prime settles the question.
    """
    f = poly(f)
    d = deg(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if rational_roots(f):
        return False
    if d <= 3:
        return True
    monic = tuple(c / f[-1] for c in f)
    if d == 4:
        return not _quartic_splits(monic)
    p = 2
    for _ in range(25):
        try:
            fp = fp_reduce(monic, p)
        except ValueError:
            fp = ()
        if deg(fp) == d and fp_irreducible(fp, p):
            return True
        p = next_prime(p)
    raise CannotCertify(f"cannot certify irreducibility of degree {d} input")


def _quartic_splits(f) -> bool:
    """Monic quartic with no rational root: check for a quadratic factorization."""
    # Scale T -> U/lam so the quartic becomes monic with integer coefficients;
    # by Gauss's lemma a rational factorization then forces monic integer
    # quadratics (U^2+aU+b)(U^2+cU+d), so b runs over the divisors of the
    # constant term and the remaining coefficients solve linear relations.
    lam = lcm_list(c.denominator for c in f)
    c3 = f[3] * lam
    c2 = f[2] * lam ** 2
    c1 = f[1] * lam ** 3
    c0 = f[0] * lam ** 4
    assert c0 != 0, "rational root 0 should have been excluded"
    (b_divs,) = _divisors(c0.numerator)
    for b in b_divs:
        for b_signed in (b, -b):
            d_ = c0 / b_signed
            # a + c = c3, a*c = c2 - b - d, a*d + b*c = c1
            if d_ == b_signed:
                if c1 != b_signed * c3:
                    continue
                disc = c3 * c3 - 4 * (c2 - 2 * b_signed)
                if disc >= 0 and rational_root(Fraction(disc), 2) is not None:
                    return True
                continue
            a = (c1 - b_signed * c3) / (d_ - b_signed)
            c = c3 - a
            if a * c == c2 - b_signed - d_:
                return True
    return False


# -- Gaussian rationals ------------------------------------------------------


class Gauss:
    """Gaussian rational a + b*i, a value only: ``gauss_value`` evaluates a
    polynomial at it on the integers."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other):
        if not isinstance(other, Gauss):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Gauss({self.re}, {self.im})"
