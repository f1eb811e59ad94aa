"""Constructive inputs of the cyclic-cover and group-gluing constructions.

The analytic core is the binomial n-th-root series g = sum C(1/n, i) Z^i,
whose coefficients are p-integral whenever p does not divide n, and the
factorization S^n - p^n - T = prod_j (S - p zeta^j g) over a primitive n-th
root of unity zeta in Z_p (p = 1 mod n): the least one mod p, lifted on the
sparse X^n - 1 by the one p-adic Newton lift, ``weierstrass.hensel_lift_root``.  The combinatorial core is the
coset bookkeeping sigma_i and the left-translation embedding mu of a finite
group into the permutations of its own elements.  A table is validated once,
associativity by Light's test on a generating set in O(n^2 log n); mu is then
a homomorphism and injective by Cayley's argument, with nothing left to
check.  Every table of the small
library is an element list and a product, built by the one Cayley-table
builder ``_table``; the list order fixes the 1-based indices, and
STANDARD_GROUPS builds each standard table by its name.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, permutations
from math import factorial, gcd
from typing import Optional

from .errors import (
    BadDescriptor,
    BadInput,
    CannotCertify,
    CongruenceFails,
    NoneFound,
    NotLiftable,
    NotSimpleRoot,
    PDividesN,
    PrecisionInsufficient,
)
from .normvalue import default_bits, pow_bounds
from .numbers import is_prime, parse_int, prime_divisors
from .padic import PadicApprox
from .series_ring import LaurentPoly, series_add, series_mul, series_scale, series_sub
from .weierstrass import hensel_lift_root


def find_prime_congruent(n: int, bound: int = 10000) -> int:
    """Least prime p <= bound with p = 1 (mod n), walking p = n+1, 2n+1, ..."""
    if n < 1:
        raise BadInput("n must be positive")
    if n == 1:
        return 2
    q = n + 1
    while q <= bound:
        if is_prime(q):
            return q
        q += n
    raise NoneFound(f"no prime = 1 mod {n} up to {bound}")


ROOT_SEARCH_STEPS = 1 << 18  # most steps the search for a root of unity mod p takes
COVER_TERMS = 1 << 10  # most n*m a cover is built for: its split check costs ~ (n*m)^2
BINOMIAL_BITS = 1 << 10  # most m*bits(n) a binomial root series is built for


def primitive_root_of_unity(n: int, p: int, N: int) -> PadicApprox:
    """A primitive n-th root of unity in Z_p at precision p^N.

    The seed is the least primitive n-th root of unity mod p, found by two
    searches run in step: an upward scan z = 2, 3, ..., which settles at the
    first primitive z, and the powers z0^k of z0 = a^((p-1)/n) (the first
    a = 2, 3, ... with z0^(n/q) != 1 for each prime q | n), which settle at
    the least z0^k with gcd(k, n) = 1 once k reaches n.  The scan is short
    when (p-1)/n is small and the powers when n is; past ROOT_SEARCH_STEPS
    steps of both the seed is refused with CannotCertify.  The seed is
    lifted by ``hensel_lift_root`` on the sparse X^n - 1, a simple root as
    p does not divide n.
    """
    if n < 1 or N < 1:
        raise BadInput("need n >= 1, N >= 1")
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    if n == 1:
        return PadicApprox(p, N, 1)
    if (p - 1) % n != 0:
        raise CongruenceFails(f"{p} is not 1 mod {n}")
    cofactors = [n // q for q in prime_divisors(n)]

    def primitive(z: int) -> bool:
        return pow(z, n, p) == 1 and all(pow(z, e, p) != 1 for e in cofactors)

    z0 = next(z for z in (pow(a, (p - 1) // n, p) for a in count(2)) if primitive(z))
    seed = z = z0
    for k in range(2, ROOT_SEARCH_STEPS):
        if primitive(k):  # the scan settles: no z < k is primitive
            seed = k
            break
        if k == n:  # the powers settle: seed is the least of z0^1 .. z0^(n-1)
            break
        z = z * z0 % p
        if z < seed and gcd(k, n) == 1:
            seed = z
    else:
        raise CannotCertify(
            f"no primitive {n}-th root of unity mod {p} within {ROOT_SEARCH_STEPS} steps"
        )
    root, _report = hensel_lift_root({0: -1, n: 1}, PadicApprox(p, 1, seed), N)
    return root


@dataclass(frozen=True)
class BinomialReport:
    """Certificate data for a truncated binomial root series."""

    n: int
    order: int
    power_identity_ok: bool  # g**n == 1 + Z mod Z^order, decided exactly from n (1 + Z) g' = g
    p: Optional[int] = None
    integral_at_p: Optional[bool] = None
    min_valuation: Optional[int] = None


def binomial_coefficient_series(n: int, m: int) -> LaurentPoly:
    """g = sum_{i<m} C(1/n, i) Z^i with exact rational coefficients.

    Over D = n^(m-1) (m-1)! the numerators are a_0 = D and
    a_{i+1} = (1 - n i) a_i / (n (i + 1)), an exact division; the series is
    normalised once, in ascending index order.
    """
    den = n ** (m - 1) * factorial(m - 1)
    num = {0: den}
    for i in range(m - 1):
        num[i + 1] = num[i] * (1 - n * i) // (n * (i + 1))
    return LaurentPoly._content(num, den, m)


def _is_root_of_one_plus_z(g: LaurentPoly, n: int, m: int) -> bool:
    """g**n == 1 + Z mod Z^m, for m >= 1, decided in O(m) integer operations
    with no power of g formed.

    Lemma.  Let g have no negative index and be known mod Z^M with M >= m,
    or exactly.  Then g^n = 1 + Z mod Z^m if and only if g_0 = +-1 (-1 only
    for even n) and n (1 + Z) g' = g mod Z^(m-1); on the content a_i / D
    this reads n (i+1) a_{i+1} = (1 - n i) a_i for 0 <= i < m - 1.
    Proof.  => : differentiate g^n = 1 + Z + Z^m h and multiply by g.
    <= : the recurrence fixes a_1, ..., a_{m-1} from a_0, and
    g_0 (1 + Z)^(1/n) satisfies it.

    A negative index, a zero g or a modulus M < m gives False: g^n then has
    a negative index, is zero or is known only mod Z^M.  Indices >= m are not
    read.
    """
    a, d = g.num, g.den
    if not a or min(a) < 0 or (g.trunc_mod is not None and g.trunc_mod < m):
        return False
    get = a.get
    if get(0) != d and not (get(0) == -d and n % 2 == 0):
        return False
    return all(n * (i + 1) * get(i + 1, 0) == (1 - n * i) * get(i, 0) for i in range(m - 1))


def binomial_root_series(n: int, m: int, p: Optional[int] = None):
    """The truncated n-th root of 1 + Z, with its exactness certificate.

    Returns (g, report); the report confirms g**n = 1 + Z mod Z^m exactly
    and, when a prime p with p not dividing n is supplied, that every
    coefficient is p-integral.  m*bits(n) above BINOMIAL_BITS is refused
    with CannotCertify, a p that is not prime with BadInput and a p that
    divides n with PDividesN, all before g is built.
    """
    if n < 1 or m < 1:
        raise BadInput("need n >= 1, m >= 1")
    bits = m * n.bit_length()
    if bits > BINOMIAL_BITS:
        raise CannotCertify(f"a binomial series with m*bits(n) = {bits} exceeds {BINOMIAL_BITS}")
    if p is not None:
        if not is_prime(p):
            raise BadInput(f"{p} is not prime")
        if n % p == 0:
            raise PDividesN(f"{p} divides {n}; coefficients are not p-integral")
    g = binomial_coefficient_series(n, m)
    ok = _is_root_of_one_plus_z(g, n, m)
    if p is None:
        return g, BinomialReport(n=n, order=m, power_identity_ok=ok)
    min_v = min(g.valuations(p).values()) if g else 0
    return g, BinomialReport(
        n=n,
        order=m,
        power_identity_ok=ok,
        p=p,
        integral_at_p=min_v >= 0,
        min_valuation=min_v,
    )


@dataclass(frozen=True)
class CoverDescriptor:
    """Data of the cyclic cover S^n = p^n + T trivialized by g."""

    n: int
    p: int
    zeta: PadicApprox
    m: int
    g: LaurentPoly

    def __post_init__(self):
        if self.n < 1:
            raise BadDescriptor("n must be >= 1")
        if (self.p - 1) % self.n != 0:
            raise BadDescriptor(f"{self.p} is not 1 mod {self.n}")
        if pow(self.zeta.residue, self.n, self.zeta.modulus) != 1:
            raise BadDescriptor("zeta^n != 1 at the stored precision")
        if self.n > 1 and any(
            pow(self.zeta.residue, self.n // q, self.p) == 1
            for q in prime_divisors(self.n)
        ):
            raise BadDescriptor("zeta is not primitive mod p")
        if self.m < 1:
            raise BadDescriptor("m must be >= 1")
        if not _is_root_of_one_plus_z(self.g, self.n, self.m):
            raise BadDescriptor("g**n != 1 + Z mod Z^m")

    @classmethod
    def build(cls, n: int, p: int, m: int, N: int) -> "CoverDescriptor":
        """The descriptor with the binomial root series g; g**n is certified
        once, by the constructor.  n*m above COVER_TERMS is refused with
        CannotCertify."""
        zeta = primitive_root_of_unity(n, p, N)
        if m < 1:
            raise BadInput("need n >= 1, m >= 1")
        if n * m > COVER_TERMS:
            raise CannotCertify(f"a cover with n*m = {n * m} terms exceeds {COVER_TERMS}")
        return cls(n=n, p=p, zeta=zeta, m=m, g=binomial_coefficient_series(n, m))


@dataclass(frozen=True)
class CoverSplitReport:
    """Per-coefficient defects of the cyclic-cover factorization.

    The product prod_j (S - p zeta^j g(Z)) is compared with
    S^n - p^n (1 + Z) coefficientwise mod Z^m.  A defect at S^k Z^j is
    recorded with its p-adic valuation; it counts as zero at precision when
    the valuation reaches N.  In the T-coordinates (T = p^n Z) the same
    defect sits at valuation >= N - n*j, the stretch being the exact
    reparametrization slack.
    """

    n: int
    p: int
    N: int
    defects: tuple  # (k, j, valuation) for nonzero defects
    zero_at_precision: bool


def cyclic_cover_split(desc: CoverDescriptor) -> CoverSplitReport:
    """Verify the factorization of S^n - p^n - T through the root series, at
    the precision N of the descriptor's zeta."""
    n, p, m, N = desc.n, desc.p, desc.m, desc.zeta.N
    z = desc.zeta.residue
    # roots rho_j = p * z^j * g(Z); expand prod (S - rho_j) over Q[Z]/Z^m
    coeffs = [LaurentPoly.one(m)]  # coefficients of S^k, ascending in k
    for j in range(n):
        rho = series_scale(p * pow(z, j, desc.zeta.modulus), desc.g)
        new = [LaurentPoly.zero(m) for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            new[k + 1] = series_add(new[k + 1], c)
            new[k] = series_sub(new[k], series_mul(rho, c))
        coeffs = new
    # target: S^n - p^n - p^n Z
    target = [LaurentPoly.zero(m) for _ in range(n + 1)]
    target[n] = LaurentPoly.one(m)
    target[0] = LaurentPoly({0: -(p ** n), 1: -(p ** n)}, m)
    defects = [
        (k, j, v)
        for k in range(n + 1)
        for j, v in series_sub(coeffs[k], target[k]).valuations(p).items()
    ]
    low = [(k, j, v) for k, j, v in defects if v < N]
    if low:
        raise PrecisionInsufficient(f"defects below p^{N}: {low}")
    return CoverSplitReport(n=n, p=p, N=N, defects=tuple(defects), zero_at_precision=True)


# -- Eisenstein witnesses ------------------------------------------------------


@dataclass(frozen=True)
class EisensteinWitness:
    root: LaurentPoly
    N: int  # lcm of coefficient denominators
    radii: dict  # Place -> certified positive rational lower bound


def eisenstein_witness(P, f0: LaurentPoly, m: int, places) -> EisensteinWitness:
    """Truncation-level witness for the algebraicity constraints of a series.

    P is a polynomial in S with series coefficients defining f implicitly;
    the truncated root comes from Hensel lifting.  N is the least common
    multiple of the coefficient denominators of the truncation, and each
    requested place receives a certified positive lower bound on the radius
    of convergence of the truncated data, namely min over i >= 1 of
    |a_i|^(-1/i), rounded downward.  The lift refuses an m above
    ``SERIES_ORDER`` before any work.
    """
    try:
        root, _report = hensel_lift_root(P, f0, m)
    except NotSimpleRoot as exc:
        raise NotLiftable(str(exc)) from exc
    N = root.den  # the canonical denominator is the lcm of the coefficients
    radii = {}
    for place in places:
        radii[place] = _radius_witness(root, place)
    return EisensteinWitness(root=root, N=N, radii=radii)


def _radius_witness(root: LaurentPoly, place) -> Fraction:
    """Certified rational lower bound for min_i |a_i|^(-1/i)."""
    best = None
    vals = root.valuations(place.prime) if place.is_finite else None
    for i, n in root.num.items():
        if i < 1:
            continue
        if place.is_finite:
            inv_abs = Fraction(place.prime) ** vals[i]  # |a_i|^-1 exactly
        else:
            inv_abs = Fraction(root.den, abs(n))
        bound = pow_bounds(inv_abs, Fraction(1, i))[0]
        if bound == 0:
            # keep the witness positive: round down to a tiny dyadic instead
            bound = Fraction(1, 2 ** default_bits())
        best = bound if best is None else min(best, bound)
    if best is None:
        return Fraction(1)  # constant truncation: every radius works
    return best


# -- finite group tables -------------------------------------------------------


GROUP_ORDER = 1 << 10  # most elements a group table is validated for


def _associative(table) -> bool:
    """Light's associativity test on a 1-based n x n table with entries in [1, n].

    The elements s with (x s) y = x (s y) for all x, y are closed under the
    product: (x (s t)) y = ((x s) t) y = (x s) (t y) = x (s (t y)) = x ((s t) y).
    So the table is associative exactly when every element of a generating
    set passes (Clifford and Preston, The Algebraic Theory of Semigroups I,
    1961, section 1.2).  The set is grown greedily: each new element is the
    least one outside the submagma closure of those before it, tested as it
    is taken, and the closure takes every product of a new element with the
    closure in both orders, so each pair is multiplied once in each order.
    Each test costs n^2.  When an identity lies in every row, the closure of
    elements that pass is a group: it is associative, and an idempotent f of
    it is the identity, as f = f e = f (f y) = (f f) y = f y = e for the y
    with f y = e.  Each further element that passes at least doubles it
    (Lagrange), so at most log2(n) + 2 elements are tested.
    """
    rows = [(0, *row) for row in table]  # rows[x - 1][y] = x y
    cols = [(0, *col) for col in zip(*table)]  # cols[y - 1][x] = x y
    inside = bytearray(len(table) + 1)
    closure = []
    for s in range(1, len(table) + 1):
        if inside[s]:
            continue
        row_s = table[s - 1]
        if any(table[r[s] - 1] != tuple(map(r.__getitem__, row_s)) for r in rows):
            return False
        inside[s] = 1
        fresh = [s]
        while fresh:
            x = fresh.pop()
            closure.append(x)
            for z in {*map(rows[x - 1].__getitem__, closure), *map(cols[x - 1].__getitem__, closure)}:
                if not inside[z]:
                    inside[z] = 1
                    fresh.append(z)
    return True


class GroupTable:
    """A finite group as a 1-based Cayley table, validated at construction;
    its entries are read by ``numbers.parse_int``.

    A table of more than GROUP_ORDER rows is refused with CannotCertify
    before any entry is read.  The checks then run in a fixed order, each a
    BadInput with its own text: the table is square, its entries lie in
    [1, n], it has an identity, every row holds the identity (an inverse)
    and the product is associative.  Associativity is decided by Light's
    test on a generating set (``_associative``), in O(n^2 log n) for a
    group rather than over all n^3 triples.
    """

    __slots__ = ("n", "table", "identity")

    def __init__(self, table):
        n = len(table)
        if n > GROUP_ORDER:
            raise CannotCertify(f"a group table of order {n} exceeds the GROUP_ORDER budget of {GROUP_ORDER}")
        table = tuple(tuple(parse_int(x) for x in row) for row in table)
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
        if not _associative(table):
            raise BadInput("associativity fails")
        self.n = n
        self.table = table
        self.identity = identity

    def mul(self, i: int, j: int) -> int:
        return self.table[i - 1][j - 1]

    def order_of(self, i: int) -> int:
        acc = i
        order = 1
        while acc != self.identity:
            acc = self.mul(acc, i)
            order += 1
        return order

    def __eq__(self, other):
        return isinstance(other, GroupTable) and self.table == other.table

    def __repr__(self):
        return f"GroupTable(n={self.n})"


@dataclass(frozen=True)
class CoverGlueData:
    n_i: int
    d_i: int
    reps: tuple  # coset representatives a_{i,0..d_i-1}, least-index rule
    sigma: tuple  # permutation of [1, n] as a 1-based tuple


def group_cover_data(G: GroupTable, i: int) -> CoverGlueData:
    """Coset bookkeeping for the cyclic subgroup generated by g_i.

    reps lists the least-index representatives of G/<g_i>; sigma is the
    permutation with sigma(u*n_i + v) = index of g_{reps[u]} * g_i^(v-1).
    """
    n = G.n
    if not 1 <= i <= n:
        raise BadInput(f"element index {i} outside [1, {n}]")
    powers = [G.identity]  # g_i^0, g_i^1, ... until the walk is back at the identity
    h = i
    while h != G.identity:
        powers.append(h)
        h = G.mul(h, i)
    n_i = len(powers)
    if n % n_i != 0:
        raise ValueError("order does not divide group order")  # impossible
    d_i = n // n_i
    reps, sigma = [], []
    for j in range(1, n + 1):
        if j not in sigma:  # j is the least element of its coset j <g_i>
            reps.append(j)
            sigma.extend(G.mul(j, h) for h in powers)
    assert len(reps) == d_i
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("sigma is not a bijection")  # pragma: no cover
    return CoverGlueData(n_i=n_i, d_i=d_i, reps=tuple(reps), sigma=tuple(sigma))


@dataclass(frozen=True)
class MuReport:
    perms: dict  # element -> left-translation permutation of [1, n]
    homomorphism: bool
    injective: bool


def mu_homomorphism(G: GroupTable) -> MuReport:
    """The left-translation map h -> alpha_h, alpha_h(j) = h j, the row of h.

    Both flags follow from the validation of G (Cayley's theorem):
    alpha_{g h}(j) = (g h) j = g (h j) = alpha_g(alpha_h(j)) is
    associativity, so mu is a homomorphism, and alpha_h(e) = h, so mu is
    injective.  The map is read off the table in O(n^2).
    """
    return MuReport(perms=dict(enumerate(G.table, 1)), homomorphism=True, injective=True)


# -- a small library of tables -------------------------------------------------


def _table(elements, mul) -> GroupTable:
    """The Cayley table of ``mul`` on the elements, each numbered by its
    1-based position in the list."""
    index = {x: k for k, x in enumerate(elements, 1)}
    return GroupTable([[index[mul(x, y)] for y in elements] for x in elements])


def cyclic_table(n: int) -> GroupTable:
    """Z/n on 0, ..., n-1."""
    return _table(range(n), lambda i, j: (i + j) % n)


def direct_product_table(A: GroupTable, B: GroupTable) -> GroupTable:
    """A x B on the pairs (a, b) in row-major order."""
    pairs = [(a, b) for a in range(1, A.n + 1) for b in range(1, B.n + 1)]
    return _table(pairs, lambda x, y: (A.mul(x[0], y[0]), B.mul(x[1], y[1])))


def symmetric_table(n: int) -> GroupTable:
    """S_n on the sorted permutations of 0..n-1, (p q)(i) = p(q(i))."""
    return _table(sorted(permutations(range(n))), lambda p, q: tuple(p[i] for i in q))


def dihedral_table(n: int) -> GroupTable:
    """D_n of order 2n: elements r^k, then s r^k, as pairs (0, k) and (1, k),
    with s^a r^k s^b r^l = s^(a + b) r^(l + (-1)^b k)."""
    elems = [(s, k) for s in (0, 1) for k in range(n)]
    return _table(elems, lambda x, y: (x[0] ^ y[0], (y[1] - x[1] if y[0] else y[1] + x[1]) % n))


def quaternion_table() -> GroupTable:
    """Q_8 = {1, -1, i, -i, j, -j, k, -k} under the Hamilton product."""

    def mul(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    return _table([tuple(s * c for c in u) for u in units for s in (1, -1)], mul)


STANDARD_GROUPS = {
    **{f"Z{n}": partial(cyclic_table, n) for n in range(1, 9)},
    "Z2xZ2": lambda: direct_product_table(cyclic_table(2), cyclic_table(2)),
    "Z2xZ4": lambda: direct_product_table(cyclic_table(2), cyclic_table(4)),
    "S3": partial(symmetric_table, 3),
    "D4": partial(dihedral_table, 4),
    "Q8": quaternion_table,
}  # name -> builder of the standard table


def standard_group_tables() -> dict:
    """Cyclic up to 8, the Klein four group, Z2 x Z4, S_3, D_4 and Q_8, each
    built by its entry of STANDARD_GROUPS."""
    return {name: build() for name, build in STANDARD_GROUPS.items()}
