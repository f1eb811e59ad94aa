"""Points, seminorms, compacts and Shilov boundaries of the base space over Z.

The base space is a tree of branches, one per prime plus one archimedean
branch, joined at the central point carrying the trivial absolute value.
Branch coordinates are exponents: the point at exponent eps on the branch of
the place sigma evaluates f to |f|_sigma**eps.  Finite branches end in an
extreme point (exponent +inf) carrying the trivial seminorm of the residue
field; the archimedean branch stops at exponent 1.

The norms read the Shilov boundary of a compact (``shilov_base``, the one
case analysis of which points realize ||.||_V) as ``_norm_endpoints``
compiles it; the pole test of K(V) and ``is_archimedean_compact`` read the
same compile.  A point is the one-point compact (of kind "point"), its own
boundary, so ``eval_base_seminorm`` is ``base_norm`` over it; only an
archimedean point keeps exact rational roots (|1/9|^(1/2) = 1/3).  A finite
point a_p^e compiles to integers (p, a, k) with e = a/k in lowest terms.
``norm_bounds_each`` gives the norms of integer content n_k / D as integer
pairs, each the max of its endpoint terms by cross-multiplication, so the
annulus norms, the pruning of series matrices, the disk seminorms and the
division threshold build no Fraction per coefficient; it takes
v_p(D) once per finite term and call, and forms the term p^x,
x = a (v_p(D) - v_p(n_k)), as one integer pair when k = 1, charged to
``POW_BITS`` as ``pow_pairs`` charges it; only a root goes through
``pow_pairs``.  A compact none of whose terms takes a root gives exact
pairs only, and ``_norm_endpoints`` records that.  On the trivial compact
(the central point alone) every norm is 1 or 0, one shared pair each.
``norm_bounds`` reads one such pair as Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from .errors import BadInput, NonIntegralAtExtremePoint, NotInRingOfV, ZeroInput
from .normvalue import NormValue, _check_pow_budget, pair_max, pow_pairs
from .numbers import TRIAL_BOUND, factor, is_prime, small_prime_factor, strip_primes, vp, vp_int

INF = float("inf")
_NAMED_BITS = 2000  # 603 digits, below the least int-to-str limit Python allows (640)


def is_inf(x) -> bool:
    """Is x +inf?  A rational (Fraction or int) never is: its type says so
    before any comparison with the float INF."""
    return not isinstance(x, (Fraction, int)) and x == INF


@dataclass(frozen=True)
class Place:
    """A finite place (a prime) or the archimedean place of Q."""

    kind: str  # "finite" | "infinite"
    prime: Optional[int] = None

    def __post_init__(self):
        if self.kind == "finite":
            if self.prime is None or self.prime < 2 or not is_prime(self.prime):
                raise BadInput(f"bad finite place {self.prime}")
        elif self.kind == "infinite":
            if self.prime is not None:
                raise BadInput("infinite place carries no prime")
        else:
            raise BadInput(f"bad place kind {self.kind!r}")

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls("finite", p)

    @classmethod
    def infinite(cls) -> "Place":
        return cls("infinite")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def branch_length(self):
        """l(sigma): +inf on finite branches, 1 on the archimedean one."""
        return INF if self.is_finite else Fraction(1)

    def __repr__(self):
        return f"Place({self.prime})" if self.is_finite else "Place(inf)"


@dataclass(frozen=True)
class BasePoint:
    """A multiplicative seminorm on Z: central, internal, or extreme."""

    kind = "point"  # not a field: a point is the one-point compact of the norms
    place: Optional[Place]
    exponent: object  # Fraction >= 0 or INF

    def __post_init__(self):
        e = self.exponent
        if self.place is None:
            if e != 0:
                raise BadInput("central point must have exponent 0")
            return
        if is_inf(e):
            if not self.place.is_finite:
                raise BadInput("extreme points live on finite branches")
            return
        e = Fraction(e)
        object.__setattr__(self, "exponent", e)
        if e <= 0:
            raise BadInput("branch points need a positive exponent")
        if e > self.place.branch_length():
            raise BadInput("exponent exceeds branch length")

    @classmethod
    def central(cls) -> "BasePoint":
        return cls(None, Fraction(0))

    @classmethod
    def branch(cls, place: Place, eps) -> "BasePoint":
        return cls(place, INF if is_inf(eps) else Fraction(eps))

    @classmethod
    def finite(cls, p: int, eps) -> "BasePoint":
        return cls.branch(Place.finite(p), eps)

    @classmethod
    def arch(cls, eps) -> "BasePoint":
        return cls.branch(Place.infinite(), eps)

    @classmethod
    def extreme(cls, p: int) -> "BasePoint":
        return cls(Place.finite(p), INF)

    def __repr__(self):
        if self.place is None:
            return "a_0"
        tag = self.place.prime if self.place.is_finite else "inf"
        if is_inf(self.exponent):
            return f"a~_{tag}"
        return f"a_{tag}^{self.exponent}"


def classify_base_point(x: BasePoint) -> str:
    if x.place is None:
        return "central"
    if is_inf(x.exponent):
        return "extreme"
    return "internal"


def abs_at_place(f: Fraction, place: Place) -> Fraction:
    """|f|_sigma with exponent 1, as an exact rational."""
    f = Fraction(f)
    if f == 0:
        return Fraction(0)
    if place.is_finite:
        return Fraction(place.prime) ** (-vp(f, place.prime))
    return abs(f)


def eval_base_seminorm(f, x: BasePoint) -> NormValue:
    """|f(x)|: ``base_norm`` over the one-point compact {x}, except at an
    archimedean point, whose rational roots stay exact (|1/9|^(1/2) = 1/3),
    and at an extreme point, where a pole of f is refused."""
    f = Fraction(f)
    place = x.place
    if place is not None and not place.is_finite:
        return NormValue.of(abs(f)).pow_rational(x.exponent)
    if is_inf(x.exponent) and f.denominator % place.prime == 0:
        raise NonIntegralAtExtremePoint(f"{f} has a pole at the extreme point of {place.prime}")
    return base_norm(f, x)


def product_formula_defect(f) -> NormValue:
    """prod over all places of |f|_sigma, computed exactly; equals 1."""
    f = Fraction(f)
    if f == 0:
        raise ZeroInput("product formula needs a nonzero rational")
    acc = abs(f)
    for p in set(factor(f.numerator)) | set(factor(f.denominator)):
        acc *= Fraction(p) ** (-vp(f, p))
    return NormValue.of(acc)


# -- compact connected subsets ----------------------------------------------


@dataclass(frozen=True)
class BaseCompact:
    """A compact connected subset of the base space.

    Segment: the arc [a_sigma^u, a_sigma^v] inside one branch (v may be +inf
    on a finite branch; u = 0 includes the central point).
    Star: a union of initial arcs [a_0, a_sigma^{v_sigma}] over all places,
    where places absent from ``cuts`` are contained in full.
    """

    kind: str  # "segment" | "star"
    place: Optional[Place] = None
    u: object = None
    v: object = None
    cuts: tuple = ()  # sorted tuple of (Place, exponent)
    _hash = None  # not a field: the hash of the fields, taken on first use

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.place, self.u, self.v, self.cuts))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):  # string hashes differ between processes
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __post_init__(self):
        if self.kind == "segment":
            if self.place is None:
                raise BadInput("segment needs a place")
            u = self.u if is_inf(self.u) else Fraction(self.u)
            v = self.v if is_inf(self.v) else Fraction(self.v)
            if is_inf(u) and not is_inf(v):
                raise BadInput("need u <= v")
            if not is_inf(u) and (u < 0 or (not is_inf(v) and u > v)):
                raise BadInput("need 0 <= u <= v")
            if not is_inf(v) and v > self.place.branch_length():
                raise BadInput("v exceeds branch length")
            if is_inf(v) and not self.place.is_finite:
                raise BadInput("archimedean branch has length 1")
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)
        elif self.kind == "star":
            cleaned = []
            seen = set()
            for place, cut in self.cuts:
                if place is None:
                    raise BadInput("cut needs a place")
                if place in seen:
                    raise BadInput("duplicate cut")
                seen.add(place)
                if is_inf(cut):
                    continue  # cutting at full branch length = no cut
                cut = Fraction(cut)
                if cut < 0 or cut > place.branch_length():
                    raise BadInput("cut outside branch")
                if not place.is_finite and cut == 1:
                    continue
                cleaned.append((place, cut))
            cleaned.sort(key=_place_sort_key)
            object.__setattr__(self, "cuts", tuple(cleaned))
        else:
            raise BadInput(f"bad compact kind {self.kind!r}")

    @classmethod
    def segment(cls, place: Place, u, v) -> "BaseCompact":
        return cls("segment", place=place, u=u, v=v)

    @classmethod
    def star(cls, cuts) -> "BaseCompact":
        items = cuts.items() if isinstance(cuts, dict) else cuts
        return cls("star", cuts=tuple(items))

    @classmethod
    def whole_space(cls) -> "BaseCompact":
        return cls.star({})

    @classmethod
    def central_point(cls) -> "BaseCompact":
        """The singleton {a_0} as a degenerate segment."""
        return cls.segment(Place.infinite(), 0, 0)

    def contains_central(self) -> bool:
        return self.kind == "star" or self.u == 0

    def cut_primes(self) -> frozenset:
        if self.kind != "star":
            raise ValueError("cut_primes applies to stars")
        return frozenset(pl.prime for pl, _ in self.cuts if pl.is_finite)

    def __repr__(self):
        if self.kind == "segment":
            return f"Segment({self.place!r}, {self.u}, {self.v})"
        cuts = ", ".join(f"{pl!r}->{c}" for pl, c in self.cuts)
        return f"Star({{{cuts}}})"


def _place_sort_key(item):
    place = item[0]
    return (0, place.prime) if place.is_finite else (1, 0)


def member_of_kv(f, V: BaseCompact) -> bool:
    """f in K(V): no pole at any extreme point contained in V."""
    pole = _norm_endpoints(V)[4]
    return pole is None or pole(Fraction(f).denominator) == 1


def is_archimedean_compact(V: BaseCompact) -> bool:
    """Does V contain a point of the archimedean branch other than a_0?"""
    return bool(_norm_endpoints(V)[2])


def _pole_detail(f: Fraction, r: int) -> str:
    """Refusal text for f, whose denominator keeps the uncut cofactor r > 1.

    Names the least prime factor of r when r is prime or that factor lies
    below TRIAL_BOUND; otherwise names r, so a refusal never factors a large r.
    An integer past ``_NAMED_BITS`` bits is named by its bit length, and f
    by its denominator's, so the text never meets the interpreter's limit on
    int-to-str digits.
    """
    q = r if is_prime(r) else small_prime_factor(r, TRIAL_BOUND)
    if max(f.numerator.bit_length(), f.denominator.bit_length()) > _NAMED_BITS:
        name = f"a number with a {f.denominator.bit_length()}-bit denominator"
    else:
        name = str(f)
    if q is None:
        return f"{name} has a pole at the extreme point of a prime factor of {_named(r, 'integer')}"
    return f"{name} has a pole at the extreme point of {_named(q, 'prime')}"


def _named(n: int, what: str) -> str:
    return str(n) if n.bit_length() <= _NAMED_BITS else f"a {n.bit_length()}-bit {what}"


@lru_cache(maxsize=512)
def _norm_endpoints(V):
    """Compile ``shilov_base(V)`` into the terms of ||.||_V and the pole test,
    for a compact V or a point, the one-point compact.

    Returns (has_trivial, finite_terms, arch_terms, extreme_primes, pole,
    roots): a_0 sets has_trivial, a point a_p^e adds (p, a, k) to
    finite_terms for e = a/k in lowest terms, a point a_inf^e adds e to
    arch_terms, an extreme point its prime.  pole, the one pole test of K(V)
    and the one reading of V's shape here, maps a denominator to 1 when it
    has no pole at an extreme point of V, else to the prime of the segment or
    the point, or to the star's uncut cofactor; it is None when V holds no
    extreme point.  roots is True when some term takes a root, a finite
    k > 1 or an archimedean e != 1; when it is False every pair of
    ``norm_bounds_each`` is exact.

    Two terms of the sup over V are dominated and not compiled: 1 on a star
    with no cut at 0 (by the product formula some Shilov term of f != 0 in
    K(V) is >= 1, and an outward-rounded lo of a value >= 1 is >= 1), and
    the extreme term on [u, inf] (the pole test makes f p-integral, so the
    term at a_p^u is at least it).
    """
    has_trivial, finite_terms, arch_terms, extreme = False, [], [], []
    for x in shilov_base(V):
        cat = classify_base_point(x)
        if cat == "central":
            has_trivial = True
        elif cat == "extreme":
            extreme.append(x.place.prime)
        elif x.place.is_finite:
            finite_terms.append((x.place.prime, x.exponent.numerator, x.exponent.denominator))
        else:
            arch_terms.append(x.exponent)
    if V.kind == "star":
        cut = tuple(sorted(V.cut_primes()))
        pole = lambda d: strip_primes(d, cut)
    elif extreme or V.kind == "segment" and is_inf(V.v):
        p = V.place.prime
        pole = lambda d: p if d % p == 0 else 1
    else:
        pole = None
    roots = any(k > 1 for _, _, k in finite_terms) or any(e != 1 for e in arch_terms)
    return has_trivial, tuple(finite_terms), tuple(arch_terms), tuple(extreme), pole, roots


def _refuse_poles(nums, den: int, pole) -> None:
    """Refuse with NotInRingOfV the first n / den (n in nums) with a pole at an
    extreme point of V, pole being V's test from ``_norm_endpoints``.  No pole
    at den means none at any n / den; else each is tested."""
    if pole is not None and den != 1 and pole(den) != 1:
        for n in nums:
            r = pole(den // gcd(n, den))
            if r != 1:
                raise NotInRingOfV(_pole_detail(Fraction(n, den), r))


def norm_bounds(f, V):
    """Exact Fraction enclosure (lo, hi) of ||f||_V."""
    f = Fraction(f)
    lo, hi = norm_bounds_each((f.numerator,), f.denominator, V)[0]
    q = Fraction(*lo)
    return q, (q if hi is lo else Fraction(*hi))


def norm_bounds_each(nums, den: int, V) -> list:
    """[norm_bounds(n / den, V) for n in nums] as integer pairs: each item is
    ((lo_n, lo_d), (hi_n, hi_d)) with lo_d, hi_d > 0, not necessarily in
    lowest terms, and lo is hi exactly when the two are equal.  den > 0; V's
    endpoints are compiled once, and ``_refuse_poles`` refuses a pole first.

    A finite term (p, a, k) reads p^x with x = a (v_p(den) - v_p(n)), v_p(den)
    taken once per call.  For k = 1 the term is the one pair (p^x, 1) or
    (1, p^-x) for lo and hi, with |x| bits(p) charged to ``POW_BITS`` as
    ``pow_pairs`` charges it (x = 1 takes no power); for k > 1 ``pow_pairs``
    takes the root p^(x/k).
    v_q(den) of an extreme point q is taken once too.  On the trivial
    compact every n != 0 gets one shared pair for 1 and every 0 one for 0,
    with no per-coefficient work."""
    has_trivial, finite_terms, arch_terms, extreme, pole, _ = _norm_endpoints(V)
    _refuse_poles(nums, den, pole)
    if not (finite_terms or arch_terms or extreme):  # a_0 alone: shilov_base lists a point
        return [_UNIT if n else _NIL for n in nums]
    finite = [(p, a, k, a * vp_int(den, p), p.bit_length()) for p, a, k in finite_terms]
    extreme = [(q, vp_int(den, q)) for q in extreme]
    start = _ONE if has_trivial else None
    out = []
    for n in nums:
        if n == 0:
            out.append(_NIL)
            continue
        lo = hi = start
        for p, a, k, a_vd, bits in finite:
            x = a_vd - a * vp_int(n, p)
            if k == 1:
                if x != 1:
                    _check_pow_budget(abs(x) * bits)
                t_lo = t_hi = (p ** x, 1) if x >= 0 else (1, p ** -x)
            else:
                t_lo, t_hi = pow_pairs(p, 1, Fraction(x, k))
            lo, hi = (t_lo, t_hi) if lo is None else (pair_max(lo, t_lo), pair_max(hi, t_hi))
        for e in arch_terms:
            t_lo, t_hi = pow_pairs(abs(n), den, e)
            lo, hi = (t_lo, t_hi) if lo is None else (pair_max(lo, t_lo), pair_max(hi, t_hi))
        for q, vd in extreme:
            t = _ZERO if vp_int(n, q) > vd else _ONE
            lo, hi = (t, t) if lo is None else (pair_max(lo, t), pair_max(hi, t))
        if hi is not lo and hi[0] * lo[1] == lo[0] * hi[1]:
            hi = lo  # a root taken exactly, or a rounded root tying an exact term
        out.append((lo, hi))
    return out


_ZERO, _ONE = (0, 1), (1, 1)
_NIL, _UNIT = (_ZERO, _ZERO), (_ONE, _ONE)


def base_norm(f, V) -> NormValue:
    """The uniform norm ||f||_V, as a maximum over the Shilov boundary of V
    (a compact, or a point as the one-point compact)."""
    return NormValue.between(*norm_bounds(f, V))


def shilov_base(V) -> list:
    """The Shilov boundary of V, as the explicit finite list of points.

    A point x is the one-point compact {x}, its own boundary.  A star lists
    its finite cuts c > 0, then a_0 once if a branch is cut at 0, then
    a_inf^c for an archimedean cut c > 0 (a_inf^1 when uncut).
    """
    if V.kind == "point":
        return [V]
    if V.kind == "segment":
        place = V.place
        left = BasePoint.central() if V.u == 0 else BasePoint.branch(place, V.u)
        if is_inf(V.v):
            if is_inf(V.u):
                return [BasePoint.extreme(place.prime)]
            return [left]  # [a^u, extreme] and the whole branch: left endpoint
        right = BasePoint.central() if V.v == 0 else BasePoint.branch(place, V.v)
        return [left] if left == right else [left, right]
    out = [BasePoint.branch(pl, c) for pl, c in V.cuts if pl.is_finite and c > 0]
    if any(c == 0 for _, c in V.cuts):
        out.append(BasePoint.central())
    arch_cut = next((c for pl, c in V.cuts if not pl.is_finite), Fraction(1))
    if arch_cut > 0:
        out.append(BasePoint.arch(arch_cut))
    return out


@dataclass(frozen=True)
class RingLabel:
    """Identification of the ring of sections B(V)."""

    label: str
    inverted_primes: frozenset = frozenset()
    completion_prime: Optional[int] = None

    def __repr__(self):
        if self.completion_prime is not None:
            return f"RingLabel({self.label}, p={self.completion_prime})"
        if self.inverted_primes:
            inv = ",".join(str(p) for p in sorted(self.inverted_primes))
            return f"RingLabel({self.label}, inverted={{{inv}}})"
        return f"RingLabel({self.label})"


def ring_label(V: BaseCompact) -> RingLabel:
    """Which classical ring B(V) is, by the case analysis of the compact."""
    if V.kind == "segment":
        p = V.place.prime
        if V.place.is_finite:
            if V.u == 0 and is_inf(V.v):
                return RingLabel("Z_(p)", completion_prime=p)
            if V.u == 0:
                return RingLabel("Q")
            if is_inf(V.v):
                return RingLabel("Zp_hat", completion_prime=p)
            return RingLabel("Qp_hat", completion_prime=p)
        if V.u == 0:
            return RingLabel("Q")
        return RingLabel("R")
    inverted = V.cut_primes()
    if not inverted:
        return RingLabel("Z")
    return RingLabel("Z_inverted", inverted_primes=inverted)
