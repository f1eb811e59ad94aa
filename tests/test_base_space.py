import math
import random
from fractions import Fraction

import pytest

from arithline import (
    BaseCompact,
    BasePoint,
    NormValue,
    Place,
    base_norm,
    classify_base_point,
    eval_base_seminorm,
    product_formula_defect,
    ring_label,
    shilov_base,
)
from arithline.base_space import norm_bounds_each
from arithline.errors import CannotFactor, NonIntegralAtExtremePoint, NotInRingOfV, ZeroInput
from arithline.numbers import factor, prime_divisors

from oracles import naive_factor, padic_abs

INF = math.inf


def rand_rational(rng, bound=10 ** 6):
    return Fraction(rng.randint(1, bound) * rng.choice((1, -1)), rng.randint(1, bound))


# -- point model ----------------------------------------------------------------


def test_point_invariants():
    with pytest.raises(ValueError):
        Place.finite(4)
    with pytest.raises(ValueError):
        BasePoint.finite(3, 0)
    with pytest.raises(ValueError):
        BasePoint.arch(Fraction(3, 2))
    with pytest.raises(ValueError):
        BasePoint(Place.infinite(), INF)
    assert classify_base_point(BasePoint.central()) == "central"
    assert classify_base_point(BasePoint.finite(3, 2)) == "internal"
    assert classify_base_point(BasePoint.extreme(7)) == "extreme"


def test_eval_examples():
    # unit has norm 1 by multiplicativity
    for x in (BasePoint.central(), BasePoint.finite(3, 2), BasePoint.extreme(5), BasePoint.arch(1)):
        assert eval_base_seminorm(1, x) == NormValue.of(1)
    # 10 lies in (5): residue zero
    assert eval_base_seminorm(10, BasePoint.extreme(5)) == NormValue.of(0)
    # oracle: 12 = 2^2 * 3, so |12|_2 = 2^-2
    assert naive_factor(12) == {2: 2, 3: 1}
    assert eval_base_seminorm(12, BasePoint.finite(2, 1)) == NormValue.of(Fraction(1, 4))
    # outward-rounded square root of 7
    nv = eval_base_seminorm(-7, BasePoint.arch(Fraction(1, 2)))
    assert nv.lo ** 2 <= 7 <= nv.hi ** 2
    assert nv.width() < Fraction(1, 2 ** 64)


def test_eval_extreme_pole_rejected():
    with pytest.raises(NonIntegralAtExtremePoint):
        eval_base_seminorm(Fraction(1, 5), BasePoint.extreme(5))


def test_a_point_is_its_one_point_compact():
    """base_norm over a point x is |f(x)|: the boundary of {x} is x, and an
    extreme point tests poles as the segment [inf, inf] does."""
    segment = BaseCompact.segment(Place.finite(5), INF, INF)
    x = BasePoint.extreme(5)
    assert shilov_base(x) == [x] == shilov_base(segment)
    for f in (10, Fraction(3, 7), 0):
        assert base_norm(f, x) == eval_base_seminorm(f, x) == base_norm(f, segment)
    for V in (x, segment):
        with pytest.raises(NotInRingOfV, match="^1/5 has a pole at the extreme point of 5$"):
            base_norm(Fraction(1, 5), V)
    for x in (BasePoint.central(), BasePoint.finite(3, Fraction(2, 5))):
        assert shilov_base(x) == [x] and base_norm(Fraction(18, 7), x) == eval_base_seminorm(Fraction(18, 7), x)


@pytest.mark.parametrize("num, den, V, detail", [
    (1, 2 ** 20000, BaseCompact.segment(Place.finite(2), 1, INF),
     "a number with a 20001-bit denominator has a pole at the extreme point of 2"),
    (1, 3 * 2 ** 20000, BaseCompact.star({Place.finite(2): 1}),
     "a number with a 20002-bit denominator has a pole at the extreme point of 3"),
    (2 ** 20000 + 1, 5, BaseCompact.whole_space(),
     "a number with a 3-bit denominator has a pole at the extreme point of 5"),
    (1, (2 ** 61 - 1) ** 40, BaseCompact.star({Place.finite(2): 1}),
     "a number with a 2440-bit denominator has a pole at the extreme point of "
     "a prime factor of a 2440-bit integer"),
], ids=["segment", "star", "numerator", "unfactored-cofactor"])
def test_a_pole_refusal_names_a_huge_number_by_its_bit_length(num, den, V, detail):
    """Past the interpreter's int-to-str digit limit the decimal text of f
    cannot be built, so the refusal says how long its denominator is."""
    with pytest.raises(NotInRingOfV) as exc:
        norm_bounds_each([num], den, V)
    assert str(exc.value) == detail


def test_product_formula_examples():
    assert product_formula_defect(12) == NormValue.of(1)
    assert product_formula_defect(1) == NormValue.of(1)
    # oracle: |−5/6|_2 = 2, |.|_3 = 3, |.|_5 = 1/5, |.|_inf = 5/6
    q = Fraction(-5, 6)
    prod = padic_abs(q, 2) * padic_abs(q, 3) * padic_abs(q, 5) * abs(q)
    assert prod == 1
    assert product_formula_defect(q) == NormValue.of(1)
    with pytest.raises(ZeroInput):
        product_formula_defect(0)


def test_product_formula_random():
    rng = random.Random(2024)
    for _ in range(1000):
        assert product_formula_defect(rand_rational(rng)) == NormValue.of(1)


M31, M61, M89 = 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1  # Mersenne primes


def test_factor_matches_trial_division():
    rng = random.Random(7)
    values = [rng.randint(-10 ** 5, 10 ** 5) for _ in range(300)]
    values += [0, 1, -1, 2 ** 40, 3 ** 25, 1000003 * 1000033, -7 * 1000003 ** 2]
    for n in values:
        got = factor(n)
        assert got == naive_factor(n)
        assert list(got) == sorted(got) and prime_divisors(n) == sorted(got)


def test_factor_finds_large_primes_by_rho():
    assert factor(M31 * M61) == {M31: 1, M61: 1}
    assert factor(12 * M31 ** 2 * 1048583) == {2: 2, 3: 1, 1048583: 1, M31: 2}
    assert prime_divisors(-5 * M61 * 1048573) == [5, 1048573, M61]
    assert factor(M89) == {M89: 1}
    assert product_formula_defect(Fraction(1, M31 * M61)) == NormValue.of(1)


def test_factor_refuses_two_large_primes():
    with pytest.raises(CannotFactor):
        factor(M61 * M89)
    with pytest.raises(CannotFactor):
        product_formula_defect(Fraction(7, M61 * M89))


def test_multiplicativity_and_ultrametric():
    rng = random.Random(5)
    points = [
        BasePoint.central(),
        BasePoint.finite(2, 1),
        BasePoint.finite(3, Fraction(1, 2)),
        BasePoint.finite(5, 4),
        BasePoint.extreme(7),
        BasePoint.arch(1),
        BasePoint.arch(Fraction(1, 3)),
    ]
    from arithline.numbers import vp

    for _ in range(300):
        x = rng.choice(points)
        f = rand_rational(rng, 10 ** 4)
        g = rand_rational(rng, 10 ** 4)
        if classify_base_point(x) == "extreme":
            # clear the poles at the extreme point's prime
            p = x.place.prime
            f = f * Fraction(p) ** max(0, -vp(f, p))
            g = g * Fraction(p) ** max(0, -vp(g, p))
        lhs = eval_base_seminorm(f * g, x)
        rhs = eval_base_seminorm(f, x) * eval_base_seminorm(g, x)
        if lhs.is_exact and rhs.is_exact:
            assert lhs.exact == rhs.exact
        else:
            assert lhs.overlaps(rhs)
            assert lhs.width() <= Fraction(1, 2 ** 64) * max(1, lhs.hi)
        if x.place is None or x.place.is_finite:
            s = eval_base_seminorm(f + g, x)
            bound = eval_base_seminorm(f, x).max_with(eval_base_seminorm(g, x))
            assert s.lo <= bound.hi  # certified ultrametric inequality


# -- compacts, norms, Shilov ------------------------------------------------------


def seg(p, u, v):
    return BaseCompact.segment(Place.finite(p), u, v)


def test_base_norm_examples():
    assert base_norm(0, BaseCompact.whole_space()) == NormValue.of(0)
    assert base_norm(6, seg(3, 1, INF)) == NormValue.of(Fraction(1, 3))
    V = BaseCompact.star({Place.finite(2): 1, Place.finite(3): 1, Place.infinite(): 1})
    # oracle: endpoint max of (|5/6|_2, |5/6|_3, |5/6|_inf, |5/6|_0)
    q = Fraction(5, 6)
    expected = max(padic_abs(q, 2), padic_abs(q, 3), abs(q), 1)
    assert expected == 3
    assert base_norm(q, V) == NormValue.of(3)


def test_base_norm_pole_rejected():
    with pytest.raises(NotInRingOfV):
        base_norm(Fraction(1, 3), seg(3, 1, INF))
    with pytest.raises(NotInRingOfV):
        base_norm(Fraction(1, 3), BaseCompact.whole_space())


def test_shilov_cases():
    assert shilov_base(seg(3, Fraction(1, 2), 2)) == [
        BasePoint.finite(3, Fraction(1, 2)),
        BasePoint.finite(3, 2),
    ]
    assert shilov_base(seg(5, 1, INF)) == [BasePoint.finite(5, 1)]
    assert shilov_base(seg(5, INF, INF)) == [BasePoint.extreme(5)]
    assert shilov_base(
        BaseCompact.star({Place.finite(2): Fraction(1, 3), Place.infinite(): Fraction(1, 2)})
    ) == [BasePoint.finite(2, Fraction(1, 3)), BasePoint.arch(Fraction(1, 2))]
    arch = BaseCompact.segment(Place.infinite(), Fraction(1, 4), Fraction(3, 4))
    assert shilov_base(arch) == [BasePoint.arch(Fraction(1, 4)), BasePoint.arch(Fraction(3, 4))]
    # the whole space: only the archimedean end carries the max
    assert shilov_base(BaseCompact.whole_space()) == [BasePoint.arch(1)]
    # a cut at 0 lists a_0 once, after the finite points and before a_inf
    star = BaseCompact.star
    assert shilov_base(star({Place.finite(2): 0})) == [BasePoint.central(), BasePoint.arch(1)]
    assert shilov_base(star({Place.finite(2): 0, Place.infinite(): Fraction(1, 2)})) == [
        BasePoint.central(),
        BasePoint.arch(Fraction(1, 2)),
    ]
    assert shilov_base(star({Place.finite(5): 1, Place.infinite(): 0})) == [
        BasePoint.finite(5, 1),
        BasePoint.central(),
    ]
    assert shilov_base(star({Place.finite(5): 0, Place.infinite(): 0})) == [BasePoint.central()]


def compacts_family():
    return [
        seg(2, 1, 3),
        seg(2, Fraction(1, 2), Fraction(5, 2)),
        seg(3, 1, INF),
        seg(5, 0, 2),
        BaseCompact.segment(Place.infinite(), 0, 1),
        BaseCompact.segment(Place.infinite(), Fraction(1, 4), Fraction(1, 2)),
        BaseCompact.whole_space(),
        BaseCompact.star({Place.finite(2): 1}),
        BaseCompact.star({Place.finite(2): 2, Place.finite(3): 1, Place.infinite(): Fraction(1, 2)}),
        BaseCompact.star({Place.infinite(): 0, Place.finite(5): 1}),
        BaseCompact.star({Place.finite(2): 0}),
        BaseCompact.star({Place.finite(5): 0, Place.infinite(): Fraction(1, 2)}),
    ]


def member_for(V, rng):
    f = rand_rational(rng, 10 ** 3)
    from arithline.base_space import member_of_kv

    while not member_of_kv(f, V):
        f = rand_rational(rng, 10 ** 3)
    return f


def test_shilov_soundness_random():
    rng = random.Random(99)
    for V in compacts_family():
        for _ in range(200):
            f = member_for(V, rng)
            nrm = base_norm(f, V)
            best = None
            for gamma in shilov_base(V):
                val = eval_base_seminorm(f, gamma)
                best = val if best is None else best.max_with(val)
            if nrm.is_exact and best.is_exact:
                assert nrm.exact == best.exact
            else:
                assert nrm.overlaps(best)


def test_shilov_minimality_witness():
    """For each Shilov point of a segment, a two-cut star or a star cut at
    0, some small rational attains the sup there and only there (on
    Star({2: 0}), 1/2 at a_0 and 3 at a_inf^1)."""
    rng = random.Random(3)
    targets = [
        seg(2, 1, 2),
        seg(3, Fraction(1, 2), 1),
        seg(5, 1, INF),
        BaseCompact.star({Place.finite(2): 1, Place.finite(3): 1}),
        BaseCompact.star({Place.finite(2): 0}),
    ]
    candidates = [
        Fraction(a, b)
        for a in range(-12, 13)
        if a
        for b in range(1, 13)
    ]
    for V in targets:
        gamma = shilov_base(V)
        for target in gamma:
            found = False
            for f in candidates:
                from arithline.base_space import member_of_kv

                if not member_of_kv(f, V):
                    continue
                nrm = base_norm(f, V)
                at_target = eval_base_seminorm(f, target)
                if not (at_target.is_exact and nrm.is_exact and at_target.exact == nrm.exact):
                    continue
                strict = True
                for other in gamma:
                    if other == target:
                        continue
                    val = eval_base_seminorm(f, other)
                    if not val.hi < nrm.exact:
                        strict = False
                        break
                if strict:
                    found = True
                    break
            assert found, f"no witness for {target} in {V}"


def test_ring_labels():
    assert ring_label(seg(2, 1, INF)).label == "Zp_hat"
    assert ring_label(seg(2, 1, INF)).completion_prime == 2
    assert ring_label(seg(2, 1, 2)).label == "Qp_hat"
    assert ring_label(seg(2, 0, 2)).label == "Q"
    assert ring_label(seg(2, 0, INF)).label == "Z_(p)"
    lbl = ring_label(BaseCompact.star({Place.finite(2): Fraction(1, 2)}))
    assert lbl.label == "Z_inverted" and lbl.inverted_primes == frozenset({2})
    assert ring_label(BaseCompact.whole_space()).label == "Z"
    assert ring_label(BaseCompact.segment(Place.infinite(), Fraction(1, 2), 1)).label == "R"
    assert ring_label(BaseCompact.central_point()).label == "Q"


def test_star_normalizes_full_cuts():
    V = BaseCompact.star({Place.finite(2): INF, Place.infinite(): 1})
    assert V.cuts == ()
    assert V == BaseCompact.whole_space()


def test_equal_compacts_hash_equal():
    """A compact keeps its hash after the first use; equal compacts, however
    they were written, hash equal before and after, and a copy made by
    pickling takes its hash afresh."""
    import pickle

    pairs = [
        (BaseCompact.central_point(), BaseCompact.segment(Place.infinite(), Fraction(0), 0)),
        (seg(3, Fraction(1, 2), 2), seg(3, Fraction(2, 4), Fraction(2))),
        (seg(5, 1, INF), seg(5, Fraction(1), float("inf"))),
        (BaseCompact.star({Place.finite(2): 1, Place.infinite(): Fraction(1, 2)}),
         BaseCompact.star([(Place.infinite(), Fraction(1, 2)), (Place.finite(2), Fraction(1))])),
        (BaseCompact.whole_space(), BaseCompact.star({Place.finite(7): INF, Place.infinite(): 1})),
    ]
    for V, W in pairs:
        h = hash(V)
        assert V == W and hash(W) == h == hash(V)
        assert hash(W) == hash((W.kind, W.place, W.u, W.v, W.cuts))
        assert len({V, W}) == 1
        copy = pickle.loads(pickle.dumps(V))
        assert "_hash" not in vars(copy) and copy == V and hash(copy) == h
    assert hash(seg(3, Fraction(1, 2), 2)) != hash(seg(3, Fraction(1, 2), 1))


def test_is_inf_reads_the_type_of_a_rational_first():
    from arithline.base_space import is_inf

    assert is_inf(INF) and is_inf(float("inf"))
    for x in (Fraction(1, 2), Fraction(0), 0, 7, True, None, "inf", -INF, 1.5):
        assert not is_inf(x)
