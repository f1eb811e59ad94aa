"""Constructive Cousin splittings and the Cartan matrix factorization.

A split system fixes a place and a branch exponent u; the space splits into
the closed branch tail K0^- = [a_sigma^u, end], the complementary star
K0^+, and their overlap L0 = {a_sigma^u}.  The Z-lattice constant is
C = 1/2 (nearest integer), giving the splitting constant D = C + 1 = 3/2 at
finite places and D = C + 2 = 5/2 at the archimedean place.

The Cartan factorization writes a matrix a close to the identity as
c^- c^+ with sides living on K0^- and K0^+, by iterating entrywise Cousin
splits; the products are truncated and certified a posteriori through an
exactly computed residual.  Each round splits every entry of the
perturbation b once, b = b^- + b^+, and inverts I + b^- and I + b^+ by
Neumann series in b^- and b^+ themselves.  ``_neumann`` is the one Neumann
loop; the exact inverse of ``neumann_inverse`` and the pruned one of a round
differ only in when it stops and what it keeps of each term.  Admissibility
is the one test 4 D^2 ||a - I|| <= 1/2, which implies the other two bounds
as D > 1 (``cartan_factorize``); a = I passes it and, for tol >= 0, stops
at round 0.

A side is a compact, and living on it means that every coefficient lies in
K(V) (``base_space.member_of_kv``): p-integral on K0^- = [a_p^u, a~_p],
with a power of p as denominator on K0^+, and integral on the archimedean
K0^+ (its K0^- takes every rational).  Rational and series splits share one
D-bound certificate, ``_split_cert``.

A matrix's entries share one modulus.  Its product makes each entry one
fused dot product (``series_ring.series_dot``): the row-by-column
convolutions go into one dict over one denominator, made canonical once.
The Neumann sum keeps one running integer sum per entry over a denominator
that grows only when a term needs it, and builds its matrix once, at the
end, so a sum of j terms costs the terms and not j copies of the sum.  I + x
and x - I move only the diagonal, a prune keeps an entry it does not cut,
and ``matrix_norm`` sums a row of annulus norms in one integer pass.

A split reads the series' integer content n_k / D (``_split_series``; a
rational is the one-term series).  At a finite place p, with q the p-part of
D, a^+_k = t_k / q where t_k = -n_k (D/q)^-1 mod q is moved into
[-q/2, q/2): the one element of Z[1/p] in [-1/2, 1/2) congruent to -a_k
mod Z_(p).  At the archimedean place a^+_k = -floor((2 n_k + D) / 2D), the
nearest integer to -a_k with ties up, where |n_k| > D, and 0 otherwise.
Then a^- = a + a^+.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .base_space import BaseCompact, Place, base_norm, member_of_kv, norm_bounds_each
from .errors import (
    BadInput,
    DeltaNotAchievable,
    EpsilonTooLarge,
    NoConvergence,
    NormTooLarge,
    ToleranceNotReached,
)
from .normvalue import NormValue, nv_max
from .numbers import invmod, vp_int
from .series_ring import (
    AnnulusSpec,
    LaurentPoly,
    _annulus_pairs,
    _check_support,
    _known_valuation,
    check_series_order,
    norm_annulus,
    series_add,
    series_dot,
    series_neg,
    series_scale,
    series_sub,
)

LATTICE_C = Fraction(1, 2)  # nearest-integer approximation constant for Z
_ONE, _ZERO = LaurentPoly.one(), LaurentPoly.zero()


@dataclass(frozen=True)
class SplitSystem:
    """Place, branch exponent and optional annulus for Cousin splittings."""

    place: Place
    u: Fraction
    annulus: Optional[tuple] = None  # (s, t)

    def __post_init__(self):
        object.__setattr__(self, "u", Fraction(self.u))
        if not 0 < self.u < self.place.branch_length():
            raise BadInput("exponent must lie strictly inside the branch")
        if self.annulus is not None:
            s, t = self.annulus
            object.__setattr__(self, "annulus", (Fraction(s), Fraction(t)))

    @property
    def C(self) -> Fraction:
        return LATTICE_C

    @property
    def D(self) -> Fraction:
        return self.C + (1 if self.place.is_finite else 2)

    def minus_compact(self) -> BaseCompact:
        return BaseCompact.segment(self.place, self.u, self.place.branch_length())

    def plus_compact(self) -> BaseCompact:
        return BaseCompact.star({self.place: self.u})

    def overlap_compact(self) -> BaseCompact:
        return BaseCompact.segment(self.place, self.u, self.u)

    def annulus_on(self, V: BaseCompact) -> AnnulusSpec:
        if self.annulus is None:
            raise BadInput("system carries no annulus")
        return AnnulusSpec(V, *self.annulus)


@dataclass(frozen=True)
class SplitCert:
    """Norms of a split a = a^- - a^+ and the D-bound verdicts."""

    norm_input: NormValue
    norm_minus: NormValue
    norm_plus: NormValue
    D: Fraction
    minus_bound_ok: bool
    plus_bound_ok: bool

    @property
    def bounds_ok(self) -> bool:
        return self.minus_bound_ok and self.plus_bound_ok


def split_rational(a, sys: SplitSystem):
    """Split a rational as a = a_minus - a_plus across the system's sides.

    At a finite place p, a_minus is p-integral and a_plus in Z[1/p] lands in
    [-1/2, 1/2) by an exact partial-fraction step; at the archimedean place
    a_plus is the nearest integer to -a.  Returns (a_minus, a_plus, cert).
    """
    a = Fraction(a)
    minus, plus = (side.coeff(0) for side in _split_series(LaurentPoly({0: a}), sys))
    cert = _split_cert(
        base_norm(a, sys.overlap_compact()),
        base_norm(minus, sys.minus_compact()),
        base_norm(plus, sys.plus_compact()),
        sys.D,
    )
    return minus, plus, cert


def _split_cert(n_in: NormValue, n_minus: NormValue, n_plus: NormValue, D: Fraction) -> SplitCert:
    """The verdicts ||a^-||, ||a^+|| <= D ||a|| on the three norms of a split."""
    bound = NormValue.of(D) * n_in
    return SplitCert(n_in, n_minus, n_plus, D, n_minus.le(bound), n_plus.le(bound))


def split_laurent_sides(f: LaurentPoly):
    """f = f_nonneg + f_neg by index sign; norms only move down."""
    items = sorted(f.num.items())
    nonneg = LaurentPoly._content({k: c for k, c in items if k >= 0}, f.den, f.trunc_mod)
    neg = LaurentPoly._content({k: c for k, c in items if k < 0}, f.den, f.trunc_mod)
    return nonneg, neg


def split_series_arith(f: LaurentPoly, sys: SplitSystem):
    """Coefficientwise Cousin split of a Laurent polynomial.

    Every coefficient splits as in ``split_rational``; reconstruction is
    exact and both sides obey the D-bound for the annulus norms.  Returns
    (f_minus, f_plus, cert).
    """
    f_minus, f_plus = _split_series(f, sys)
    cert = _split_cert(
        norm_annulus(f, sys.annulus_on(sys.overlap_compact())),
        norm_annulus(f_minus, sys.annulus_on(sys.minus_compact())),
        norm_annulus(f_plus, sys.annulus_on(sys.plus_compact())),
        sys.D,
    )
    return f_minus, f_plus, cert


def _split_series(f: LaurentPoly, sys: SplitSystem):
    """(f_minus, f_plus) of ``split_series_arith``, without the certificate:
    the split rule of the module docstring on f's content."""
    D = f.den
    if sys.place.is_finite:
        q = sys.place.prime ** vp_int(D, sys.place.prime)
        inv = -invmod(D // q, q)
        plus = {k: n * inv % q for k, n in f.num.items()}
        plus = {k: t - q if 2 * t >= q else t for k, t in plus.items()}
    else:
        q = 1
        plus = {k: -((2 * n + D) // (2 * D)) for k, n in f.num.items() if abs(n) > D}
    f_plus = LaurentPoly._content(plus, q, f.trunc_mod)
    return series_add(f, f_plus), f_plus


@dataclass(frozen=True)
class RungeCert:
    s_defects: tuple  # certified upper bounds for condition (i), per (i, j)
    t_defects: tuple  # certified upper bounds for condition (ii), per (i, j)
    delta: Fraction

    @property
    def ok(self) -> bool:
        return all(d <= self.delta for d in self.s_defects + self.t_defects)


def runge_approximate(s_list, t_list, sys: SplitSystem, delta):
    """Runge-style approximation across a finite-place split.

    Returns (f, s_primes, t_primes, cert) where f = p^-N is invertible on
    the plus side, s'_i = f^-1 s_i exactly (p-integral, minus side), and
    t'_j approximates f t_j in Z[1/p] to p-adic depth making both product
    inequalities certified below delta.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise BadInput("delta must be positive")
    if not sys.place.is_finite:
        raise BadInput("the approximation step is implemented at finite places")
    p = sys.place.prime
    ctx = sys.annulus_on(sys.overlap_compact())
    N = max([0] + [-v for s in s_list for v in s.valuations(p).values()])
    f = Fraction(1, p ** N)
    s_primes = [series_scale(p ** N, s) for s in s_list]  # exact: defect 0
    max_fs = nv_max([norm_annulus(sp, ctx) for sp in s_primes])
    for t in t_list:  # T^-k at s = 0, refused here: where t' = t the loop's norms never see it
        _check_support(t, ctx)
    ft_list = [series_scale(f, t) for t in t_list]

    M = 1
    for _ in range(400):
        t_primes = [_approx_in_z_inv_p(ft, p, M) for ft in ft_list]
        t_defects = tuple(
            (max_fs * norm_annulus(series_sub(ft, tp), ctx)).hi for ft, tp in zip(ft_list, t_primes)
        )
        if all(d <= delta for d in t_defects):
            s_defects = tuple(Fraction(0) for _ in s_primes for _ in t_list)
            return f, s_primes, t_primes, RungeCert(s_defects, t_defects, delta)
        M *= 2
    raise DeltaNotAchievable(f"no approximation depth reached delta = {delta}")


def _approx_in_z_inv_p(f: LaurentPoly, p: int, M: int) -> LaurentPoly:
    """Coefficientwise p-adic approximation by elements of Z[1/p].

    With f = sum n_k / D T^k and D = q d, q the p-part: a coefficient with
    d | n_k is kept; any other becomes t / q with t = n_k d^-1 mod q p^M, the
    one x in q^-1 Z with 0 <= x < p^M and x = n_k / D mod p^M.
    """
    q = p ** vp_int(f.den, p)
    d, mod = f.den // q, q * p ** M
    inv = invmod(d, mod)
    out = {k: n // d if n % d == 0 else n * inv % mod for k, n in sorted(f.num.items())}
    return LaurentPoly._content(out, q, f.trunc_mod)


# -- matrices of Laurent polynomials ------------------------------------------


class SeriesMatrix:
    """A rectangular matrix of Laurent polynomials with the row-sum norm.

    Its entries share one modulus: the public constructor checks the shape
    and the entry types and moves every entry to the least modulus among
    them; ``_of`` is the trusted constructor for entries built from
    matrices, which share one already.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(e for e in row) for row in entries)
        if not entries or not entries[0]:
            raise BadInput("matrix must be nonempty")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise BadInput("ragged matrix")
            for e in row:
                if not isinstance(e, LaurentPoly):
                    raise TypeError("entries must be LaurentPoly")
        mods = {e.trunc_mod for row in entries for e in row if e.trunc_mod is not None}
        if mods:
            m = min(mods)
            entries = tuple(tuple(e.with_mod(m) for e in row) for row in entries)
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols

    @classmethod
    def _of(cls, entries: tuple) -> "SeriesMatrix":
        """Trusted constructor: a nonempty tuple of equally long nonempty
        tuples of LaurentPoly that share one modulus."""
        obj = object.__new__(cls)
        obj.entries, obj.rows, obj.cols = entries, len(entries), len(entries[0])
        return obj

    @classmethod
    def identity(cls, n: int) -> "SeriesMatrix":
        return cls(tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return isinstance(other, SeriesMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols})"

    def _entrywise(self, other, op) -> "SeriesMatrix":
        # the sums of two matrices' entries all have the smaller of their moduli
        return SeriesMatrix._of(
            tuple(
                tuple(op(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def add(self, other) -> "SeriesMatrix":
        return self._entrywise(other, series_add)

    def sub(self, other) -> "SeriesMatrix":
        return self._entrywise(other, series_sub)

    def mul(self, other) -> "SeriesMatrix":
        """Each entry one ``series_dot`` of a row and a column, all known mod
        the least modulus of the products a_ik b_kj: min(m_a + val b,
        m_b + val a) over the entries, val an entry's ``_known_valuation``."""
        if self.cols != other.rows:
            raise BadInput("shape mismatch")
        mods = []
        if self.entries[0][0].trunc_mod is not None:
            mods.append(self.entries[0][0].trunc_mod + min(map(_known_valuation, _flat(other))))
        if other.entries[0][0].trunc_mod is not None:
            mods.append(other.entries[0][0].trunc_mod + min(map(_known_valuation, _flat(self))))
        mod = min(mods) if mods else None
        columns = tuple(zip(*other.entries))
        return SeriesMatrix._of(
            tuple(tuple(series_dot(row, col, mod) for col in columns) for row in self.entries)
        )

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def prune(self, ctx: AnnulusSpec, tol: Fraction) -> "SeriesMatrix":
        """Drop monomials whose certified norm contribution is below tol.

        The contribution of c T^k is ||c||_V.hi w_k with the integer pairs of
        ``norm_bounds_each`` and ``AnnulusSpec.weights``, taken in that order
        entry by entry; hi w_k > tol is decided by cross-multiplication.  A
        zero entry, and an entry that loses no monomial, is kept as it is.
        """
        tol_n, tol_d = tol.numerator, tol.denominator

        def prune_entry(e: LaurentPoly) -> LaurentPoly:
            if not e.num:
                return e
            bounds = norm_bounds_each(e.num.values(), e.den, ctx.V)
            kept = {
                k: c
                for (k, c), (_, (hn, hd)), (wn, wd) in zip(e.num.items(), bounds, ctx.weights(e.num))
                if hn * wn * tol_d > tol_n * hd * wd
            }
            return e if len(kept) == len(e.num) else LaurentPoly._content(kept, e.den, e.trunc_mod)

        return SeriesMatrix._of(tuple(tuple(prune_entry(e) for e in row) for row in self.entries))


def _flat(mat: SeriesMatrix):
    return (e for row in mat.entries for e in row)


def _plus_identity(mat: SeriesMatrix, sign: int = 1) -> SeriesMatrix:
    """I + mat (sign 1) or mat - I (sign -1), for I of mat's row count:
    only the diagonal moves, as a sum with I's one; an off-diagonal sum with
    I's zero is the same entry.  The shape is the common part of the two."""
    n = mat.rows
    return SeriesMatrix._of(
        tuple(
            tuple(
                e if i != j else series_add(_ONE, e) if sign > 0 else series_sub(e, _ONE)
                for j, e in enumerate(row[:n])
            )
            for i, row in enumerate(mat.entries)
        )
    )


def matrix_norm(a: SeriesMatrix, ctx: AnnulusSpec) -> NormValue:
    """max over rows of the sum of entry norms.

    A row is summed in one integer pass over the pairs of ``_annulus_pairs``,
    entry by entry in order, and read as one Fraction per bound: exact when
    every entry's norm is, else the interval of the two sums.
    """
    return nv_max(_row_norm(row, ctx) for row in a.entries)


def _row_norm(row, ctx: AnnulusSpec) -> NormValue:
    lo_n, lo_d, hi_n, hi_d, exact = 0, 1, 0, 1, True
    for e in row:
        (ln, ld), hi = _annulus_pairs(e, ctx)
        lo_n, lo_d = lo_n * ld + ln * lo_d, lo_d * ld
        hn, hd = hi
        hi_n, hi_d = hi_n * hd + hn * hi_d, hi_d * hd
        exact = exact and (hn * ld == ln * hd)
    lo = Fraction(lo_n, lo_d)
    return NormValue(lo, lo, lo) if exact else NormValue(lo, Fraction(hi_n, hi_d))


def neumann_inverse(a: SeriesMatrix, ctx: AnnulusSpec, m: int) -> SeriesMatrix:
    """Exact inverse mod the T^m window of a matrix with ||a - I|| <= 1/2.

    Handles the exactly-summable shapes: one-sided entries (uniformly
    positive or uniformly negative indices), nilpotent perturbations, and
    constant matrices; the Neumann bound ||a^-1|| <= 2 is re-certified.
    """
    check_series_order(m)
    n = _plus_identity(a, -1)
    gap = matrix_norm(n, ctx)
    if not gap.le(Fraction(1, 2)):
        raise NormTooLarge(f"||a - I|| = {gap} not certified <= 1/2")
    indices = _indices(n)
    if all(k > 0 for k in indices):
        stop, steps = (lambda mat: all(k >= m for k in _indices(mat))), 10000
    elif all(k < 0 for k in indices):
        stop, steps = (lambda mat: all(k <= -m for k in _indices(mat))), 10000
    else:
        stop, steps = SeriesMatrix.is_zero, 4 * m + 8 * a.rows
    b, stopped = _neumann(n, stop, steps, lambda mat: mat)
    if not stopped:
        raise NoConvergence("Neumann series did not terminate exactly")
    if not matrix_norm(b, ctx).le(2):
        raise NormTooLarge("inverse norm not certified <= 2")
    if not _is_identity_in_window(a.mul(b), m):
        raise NoConvergence("no exactly summable Neumann shape found")
    return b


def _neumann(n: SeriesMatrix, stop, steps: int, keep):
    """(acc, stopped): the partial sum I - n + n^2 - ... of (I + n)^-1, each
    term keep(previous term times -n).  The sum ends before the first term
    that ``stop`` accepts (stopped is True), or after ``steps`` terms
    (stopped is False).

    Each entry of the sum is one running dict of integer numerators over a
    denominator that grows only when a term's does not divide it, as the
    quotient sum of ``weierstrass._divide_by_iteration``; the sum is known
    mod the least modulus of its terms, and its matrix is built once, at
    the end, with the shape of I + term.
    """
    minus_n = SeriesMatrix._of(tuple(tuple(series_neg(e) for e in row) for row in n.entries))
    size = n.rows
    term = SeriesMatrix.identity(size)
    sums = [[({0: 1} if i == j else {}) for j in range(size)] for i in range(size)]
    dens = [[1] * size for _ in range(size)]
    cols, mod, stopped = size, None, False
    for _ in range(steps):
        term = keep(term.mul(minus_n))
        if stop(term):
            stopped = True
            break
        m = term.entries[0][0].trunc_mod
        if m is not None:
            mod = m if mod is None else min(mod, m)
        cols = min(size, term.cols)
        for i, row in enumerate(term.entries):
            for j, e in enumerate(row[:size]):
                if e.num:
                    dens[i][j] = _accumulate(sums[i][j], dens[i][j], e)
    return SeriesMatrix._of(
        tuple(
            tuple(
                LaurentPoly._content({k: c for k, c in sums[i][j].items() if mod is None or k < mod},
                                     dens[i][j], mod)
                for j in range(cols)
            )
            for i in range(size)
        )
    ), stopped


def _accumulate(total: dict, D: int, e: LaurentPoly) -> int:
    """Add e's numerators into the running sum total / D in place and return
    its denominator, D grown to lcm(D, e.den) when e.den does not divide it."""
    if D % e.den:
        grow = e.den // gcd(D, e.den)
        for k in total:
            total[k] *= grow
        D *= grow
    scale, get = D // e.den, total.get
    for k, c in e.num.items():
        total[k] = get(k, 0) + c * scale
    return D


def _indices(mat: SeriesMatrix) -> list:
    """The indices of all stored monomials of mat's entries."""
    return [k for row in mat.entries for e in row for k in e.num]


def _is_identity_in_window(prod: SeriesMatrix, m: int) -> bool:
    diff = _plus_identity(prod, -1)
    return all(k >= m or k <= -m for k in _indices(diff))


@dataclass(frozen=True)
class CartanResult:
    c_minus: SeriesMatrix
    c_plus: SeriesMatrix
    residual: NormValue
    iterations: int
    bound_4D_ok: bool
    sides_ok: bool
    decay_ok: bool
    btilde_norms: tuple


def cartan_factorize(a: SeriesMatrix, sys: SplitSystem, max_iter: int, tol):
    """Factor a = c^- c^+ across the system's sides, up to a certified residual.

    Requires the admissibility conditions on eps = ||a - I||: eps < 1/(2D),
    beta = 4 D^2 eps <= 1/2 and eps <= 1/(8D).  Only beta <= 1/2 is tested:
    as D > 1 it gives eps <= 1/(8 D^2) < 1/(8D) < 1/(2D).  The infinite
    product is truncated after at most max_iter rounds; acceptance is the
    exactly computed residual ||c^- c^+ - a|| <= tol, together with entrywise
    side membership, invertibility margins, the 4D bounds on ||c^± - I|| and
    the geometric decay of the recorded iteration norms.
    """
    tol = Fraction(tol)
    D = sys.D
    ctx = sys.annulus_on(sys.overlap_compact())
    ctx_minus = sys.annulus_on(sys.minus_compact())
    ctx_plus = sys.annulus_on(sys.plus_compact())
    ident = SeriesMatrix.identity(a.rows)
    b0 = _plus_identity(a, -1)
    norm_b0 = matrix_norm(b0, ctx)
    eps = norm_b0.hi
    beta = 4 * D * D * eps
    if beta > Fraction(1, 2):
        # inputs already living on one side are accepted by verification
        # even when the iteration's admissibility bounds fail
        one_sided = _one_sided_result(a, b0, norm_b0, sys, ctx_minus, ctx_plus)
        if one_sided is not None:
            return one_sided
        raise EpsilonTooLarge(f"||a - I|| = {eps} violates the admissibility bounds")
    # every approximation defect lands in the final residual, so all three
    # budgets sit safely below the acceptance tolerance
    prune_c = tol / (1 << 12)
    prune_b = tol / (1 << 24)
    inv_target = tol / (1 << 16)

    btilde = b0
    c_minus = ident
    c_plus = ident
    norms = [norm_b0.hi]
    residual = norm_b0  # residual of the empty product
    iterations = 0
    for k in range(1, max_iter + 1):
        if residual.hi <= tol:
            break
        b_m, b_p = _split_matrix(btilde, sys)
        c_minus = c_minus.mul(_plus_identity(b_m)).prune(ctx_minus, prune_c)
        c_plus = _plus_identity(b_p).mul(c_plus).prune(ctx_plus, prune_c)
        inv_m = _approx_inverse(b_m, ctx, inv_target, prune_b)
        inv_p = _approx_inverse(b_p, ctx, inv_target, prune_b)
        btilde = _plus_identity(inv_m.mul(_plus_identity(btilde)).mul(inv_p), -1).prune(ctx, prune_b)
        norms.append(matrix_norm(btilde, ctx).hi)
        residual = matrix_norm(c_minus.mul(c_plus).sub(a), ctx)
        iterations = k
    if residual.hi > tol:
        raise ToleranceNotReached(f"residual {residual.hi} > {tol} after {iterations} iterations")
    bound = NormValue.of(4 * D) * norm_b0
    gap_minus = matrix_norm(_plus_identity(c_minus, -1), ctx_minus)
    gap_plus = matrix_norm(_plus_identity(c_plus, -1), ctx_plus)
    bound_ok = gap_minus.le(bound) and gap_plus.le(bound)
    sides_ok = _on_side(c_minus, ctx_minus.V) and _on_side(c_plus, ctx_plus.V)
    decay_ok = all(nk <= norms[0] * beta ** k for k, nk in enumerate(norms))
    return CartanResult(c_minus, c_plus, residual, iterations, bound_ok, sides_ok, decay_ok, tuple(norms))


def _one_sided_result(a, b0, norm_b0, sys, ctx_minus, ctx_plus):
    """(a, I) or (I, a) when a - I already lives entirely on one side."""
    ident = SeriesMatrix.identity(a.rows)
    for minus in (True, False):
        ctx_side = ctx_minus if minus else ctx_plus
        if not _on_side(b0, ctx_side.V):
            continue
        gap = matrix_norm(b0, ctx_side)
        if not gap.le(Fraction(1, 2)):
            continue  # Neumann invertibility not certified on that side
        bound_ok = gap.le(NormValue.of(4 * sys.D) * norm_b0)
        return CartanResult(
            c_minus=a if minus else ident,
            c_plus=ident if minus else a,
            residual=NormValue.of(0),
            iterations=0,
            bound_4D_ok=bound_ok,
            sides_ok=True,
            decay_ok=True,
            btilde_norms=(norm_b0.hi,),
        )
    return None


def _split_matrix(mat: SeriesMatrix, sys: SplitSystem):
    """Entrywise split b = b^- + b^+ with b^- = b_minus and b^+ = -b_plus
    (``_split_series``; no certificate is built)."""
    split = [[_split_series(e, sys) for e in row] for row in mat.entries]
    return (
        SeriesMatrix._of(tuple(tuple(em for em, _ in row) for row in split)),
        SeriesMatrix._of(tuple(tuple(series_neg(ep) for _, ep in row) for row in split)),
    )


def _approx_inverse(
    n: SeriesMatrix, ctx: AnnulusSpec, target: Fraction, prune_tol: Fraction
) -> SeriesMatrix:
    """Neumann inverse of I + n, truncated so the defect norm is below target:
    the least j <= 500 terms with ||n||^(j+1) <= target, each pruned."""
    nrm = matrix_norm(n, ctx)
    if not nrm.le(Fraction(1, 2)):
        raise NormTooLarge("inverse factor drifted out of the Neumann zone")
    bound = nrm.hi
    steps, running = 1, bound * bound
    while steps < 500 and running > target:
        steps, running = steps + 1, running * bound
    return _neumann(n, SeriesMatrix.is_zero, steps, lambda mat: mat.prune(ctx, prune_tol))[0]


def _on_side(mat: SeriesMatrix, V: BaseCompact) -> bool:
    """Side membership: every coefficient of mat lies in K(V), that is, each
    entry's least common denominator has no pole on V."""
    return all(member_of_kv(Fraction(1, e.den), V) for row in mat.entries for e in row)
