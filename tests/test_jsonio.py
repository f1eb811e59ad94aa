import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithline import jsonio as io
from arithline import (
    AnnulusSpec,
    BaseCompact,
    BasePoint,
    LaurentPoly,
    LinePoint,
    NormValue,
    Place,
    SeriesMatrix,
)
from arithline.covers_galois import cyclic_table
from arithline.weierstrass import ResidualSandwich

from oracles import frac_str_by_copy, parse_frac_by_fraction

INF = math.inf


def test_frac_strings():
    assert io.frac_str(Fraction(1, 4)) == "1/4"
    assert io.frac_str(Fraction(3)) == "3"
    assert io.parse_frac("-5/6") == Fraction(-5, 6)
    assert io.parse_frac(7) == 7
    assert io.exp_str(INF) == "inf"
    assert io.parse_exp("inf") == INF


def test_dyadic_decimal():
    assert io.dyadic_decimal(Fraction(1, 2)) == "0.5"
    assert io.dyadic_decimal(Fraction(-3, 8)) == "-0.375"
    assert io.dyadic_decimal(Fraction(5)) == "5"
    assert Fraction(io.dyadic_decimal(Fraction(77, 64))) == Fraction(77, 64)
    with pytest.raises(ValueError):
        io.dyadic_decimal(Fraction(1, 3))


def test_norm_value_payloads():
    assert io.norm_value_json(NormValue.of(Fraction(1, 4))) == {"exact": "1/4"}
    nv = NormValue.of(7).pow_rational(Fraction(1, 2))
    payload = io.norm_value_json(nv)
    assert float(payload["lo"]) <= 7 ** 0.5 <= float(payload["hi"])


def test_base_point_roundtrip():
    for x in (
        BasePoint.central(),
        BasePoint.finite(5, Fraction(3, 2)),
        BasePoint.extreme(11),
        BasePoint.arch(Fraction(1, 3)),
    ):
        assert io.parse_base_point(io.base_point_json(x)) == x


def test_compact_roundtrip():
    for V in (
        BaseCompact.segment(Place.finite(2), 1, INF),
        BaseCompact.segment(Place.infinite(), 0, Fraction(1, 2)),
        BaseCompact.whole_space(),
        BaseCompact.star({Place.finite(2): 1, Place.infinite(): Fraction(1, 2)}),
    ):
        assert io.parse_base_compact(io.base_compact_json(V)) == V


def test_line_point_roundtrip():
    pts = [
        LinePoint.disk(BasePoint.finite(2, 1), Fraction(1, 2), 1),
        LinePoint.triv_closed(BasePoint.central(), (1, 0, 1), Fraction(1, 2)),
        LinePoint.triv_outer(BasePoint.extreme(3), 2),
        LinePoint.arch(BasePoint.arch(1), 1, -2),
    ]
    for x in pts:
        assert io.parse_line_point(io.line_point_json(x)) == x


def test_laurent_and_annulus_roundtrip():
    f = LaurentPoly({-2: Fraction(1, 3), 0: 5, 4: Fraction(-7, 2)}, 6)
    assert io.parse_laurent(io.laurent_json(f)) == f
    assert io.parse_laurent(["1", "0", "2"]) == LaurentPoly({0: 1, 2: 2})
    A = AnnulusSpec(BaseCompact.segment(Place.finite(3), 1, 2), Fraction(1, 2), 2)
    text = io.dumps(A)  # through encode's dataclass rule, fields in order
    assert text == (
        '{"v": 1, "V": {"kind": "segment", "place": 3, "u": "1", "v": "2"}, "s": "1/2", "t": "2"}'
    )
    assert io.parse_annulus(json.loads(text)) == A


def test_integers_are_read_without_truncation():
    assert io.parse_int(7) == 7
    assert io.parse_int("-12") == -12
    for bad in (2.9, 2.0, True, None, [2], "2.9", "x"):
        with pytest.raises(ValueError):
            io.parse_int(bad)
    assert io.parse_place("2") == Place.finite(2)
    with pytest.raises(ValueError):
        io.parse_place(2.9)
    with pytest.raises(ValueError):
        io.parse_laurent({"coeffs": {"0": "1"}, "mod": 2.7})
    assert io.parse_laurent({"coeffs": {"0": "1"}, "mod": 3}) == LaurentPoly({0: 1}, 3)
    with pytest.raises(ValueError):
        io.parse_group_table([[1.9, 2], [2, 1]])


def test_one_integer_rule_for_json_and_the_constructors():
    """``numbers.parse_int`` reads an optional "-" and ASCII digits; every
    other string gets int()'s own text, and the constructors use the rule."""
    from arithline.covers_galois import GroupTable
    from arithline.numbers import parse_int

    assert parse_int("007") == 7 and parse_int("-0") == 0 and parse_int(-3) == -3
    for bad in ("1_0", " 3", "3 ", "+3", "", "-", "\u0663", "0x10", "1e3"):
        with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: "):
            parse_int(bad)
    with pytest.raises(ValueError, match="^invalid literal for int\\(\\) with base 10: 'x'$"):
        parse_int("x")
    for bad in (2.7, 2.0, True, None, Fraction(2), [2]):
        with pytest.raises(ValueError, match="^expected an integer"):
            parse_int(bad)
    assert LaurentPoly({"3": 1, -1: 2}, "5") == LaurentPoly({3: 1, -1: 2}, 5)
    assert LaurentPoly({0: 1}).with_mod("4") == LaurentPoly({0: 1}, 4)
    for coeffs, mod in (({0: 1}, 2.7), ({1.0: 1}, None), ({"1_0": 1}, None), ({0: 1}, True)):
        with pytest.raises(ValueError):
            LaurentPoly(coeffs, mod)
    with pytest.raises(ValueError):
        LaurentPoly({0: 1}).with_mod(2.7)
    assert GroupTable([["1", 2], [2, "1"]]).table == ((1, 2), (2, 1))
    for table in ([[1.9, 2], [2, 1.2]], [[True, 2], [2, 1]], [[" 1", 2], [2, 1]]):
        with pytest.raises(ValueError):
            GroupTable(table)
    with pytest.raises(ValueError, match="'1_0'"):
        io.parse_laurent({"coeffs": {"1_0": "1"}, "mod": None})
    with pytest.raises(ValueError, match="' 3'"):
        io.parse_place(" 3")


def test_one_rational_rule_for_json_and_the_cli():
    """``parse_frac`` reads a Fraction, an int that is not a bool, or "p" or
    "p/q" in ASCII digits (the digits of ``parse_int``); everything else is
    refused in Fraction's own words, before any number is built."""
    assert io.parse_frac("007/014") == Fraction(1, 2) and io.parse_frac("-0") == 0
    assert io.parse_frac(Fraction(2, 3)) == Fraction(2, 3) and io.parse_frac(-4) == -4
    for bad in ("1_0", " 1", "1 ", "+1", "1e9", "1e2000000", "0.5", "1/-2", "-1/+2", "1//2", "/2", "1/",
                "\u0663", "inf", "", 0.5, 2.0, True, None, [1]):
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: "):
            io.parse_frac(bad)
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: 'x'$"):
        io.parse_frac("x")
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: 'True'$"):
        io.parse_poly([1, True])
    with pytest.raises(ZeroDivisionError):
        io.parse_frac("1/0")
    with pytest.raises(ValueError, match="'1_0'"):
        io.parse_base_point({"place": 2, "exp": "1_0"})


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the refusal itself is compared: its class and text
        return "raise", type(exc).__name__, str(exc)


DIGITS = "1" * 4301  # one digit past the default int-to-str limit


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    st.text("-/0123456789 _e+.\u0663", max_size=12),
    st.integers(), st.fractions(), st.floats(), st.booleans(), st.none(),
))
@example("1/0")
@example("-0/0")
@example("-5/00")
@example(DIGITS)
@example("-" + DIGITS + "/7")
@example("7/" + DIGITS)
def test_a_rational_is_parsed_once_as_fraction_parsed_it(s):
    """``parse_frac`` builds the Fraction from the two integers of its match:
    the value, or the refusal's class and text (``Fraction(1, 0)``, the
    int-to-str digit limit, ``Invalid literal``), of the regex check followed
    by ``Fraction(s)``."""
    assert outcome(io.parse_frac, s) == outcome(parse_frac_by_fraction, s)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(), st.integers()), st.sampled_from((0, 4301, -4301)))
def test_a_fraction_prints_as_its_copy(q, shift):
    """``frac_str`` prints a Fraction as it is, an int through Fraction: the
    text, or the digit limit's refusal, of ``str(Fraction(q))``; the shift by
    10^4301 is applied here, since Hypothesis cannot print such an example."""
    if shift:
        q = q * Fraction(10) ** shift
    assert outcome(io.frac_str, q) == outcome(frac_str_by_copy, q)


def test_a_central_point_needs_exponent_zero():
    assert io.parse_base_point({"place": None, "exp": "0"}) == BasePoint.central()
    for exp in ("7", "inf", "1/2"):
        with pytest.raises(ValueError, match="central point must have exponent 0"):
            io.parse_base_point({"place": None, "exp": exp})


def test_matrix_and_table_roundtrip():
    m = SeriesMatrix([[LaurentPoly({0: 1}), LaurentPoly({1: Fraction(1, 2)})],
                      [LaurentPoly.zero(), LaurentPoly({-1: 3})]])
    assert io.parse_matrix(io.matrix_json(m)) == m
    G = cyclic_table(5)
    assert io.parse_group_table(io.group_table_json(G)) == G


# -- round trips through the one encoder --------------------------------------

fracs = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
positive = st.builds(Fraction, st.integers(1, 10 ** 4), st.integers(1, 10 ** 3))
unit_interval = st.integers(1, 64).flatmap(lambda d: st.builds(Fraction, st.integers(1, d), st.just(d)))
primes = st.sampled_from((2, 3, 5, 7, 11, 2 ** 61 - 1))
finite_places = primes.map(Place.finite)
places = st.one_of(finite_places, st.just(Place.infinite()))


def encoded(x):
    return json.loads(json.dumps(x, default=io.encode))


base_points = st.one_of(
    st.just(BasePoint.central()),
    st.builds(BasePoint.finite, primes, positive),
    primes.map(BasePoint.extreme),
    unit_interval.map(BasePoint.arch),
)


@st.composite
def segments(draw):
    place = draw(places)
    if place.is_finite:
        u, v = sorted((draw(positive), draw(positive)))
        if draw(st.booleans()):
            v = INF
    else:
        u, v = sorted((draw(unit_interval), draw(unit_interval)))
    if draw(st.booleans()):
        u = 0
    return BaseCompact.segment(place, u, v)


@st.composite
def stars(draw):
    cuts = {}
    for place in draw(st.lists(places, max_size=4, unique=True)):
        cuts[place] = draw(unit_interval if not place.is_finite else st.one_of(positive, st.just(INF)))
    return BaseCompact.star(cuts)


compacts = st.one_of(segments(), stars())
laurents = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-5, 20), fracs, max_size=8),
    st.one_of(st.none(), st.integers(-3, 25)),
)
annuli = st.tuples(compacts, st.builds(Fraction, st.integers(0, 50), st.integers(1, 9)), positive).map(
    lambda a: AnnulusSpec(a[0], min(a[1], a[2]), max(a[1], a[2]))
)
line_points = st.one_of(
    st.builds(LinePoint.disk, st.builds(BasePoint.finite, primes, positive), fracs,
              st.one_of(st.just(0), positive)),
    st.builds(LinePoint.triv_closed, st.one_of(st.just(BasePoint.central()), primes.map(BasePoint.extreme)),
              st.integers(-50, 50).map(lambda c: (c, 1)), unit_interval),
    st.builds(LinePoint.triv_outer, st.one_of(st.just(BasePoint.central()), primes.map(BasePoint.extreme)),
              positive.map(lambda r: 1 + r)),
    st.builds(LinePoint.arch, unit_interval.map(BasePoint.arch), fracs, fracs),
)
matrices = st.integers(1, 3).flatmap(
    lambda cols: st.lists(st.lists(laurents, min_size=cols, max_size=cols), min_size=1, max_size=3)
).map(SeriesMatrix)


@settings(max_examples=150, deadline=None)
@given(laurents, compacts, annuli, line_points, matrices, base_points)
def test_encoder_round_trips(f, V, A, x, a, b):
    assert io.parse_laurent(encoded(f)) == f
    assert io.parse_base_compact(encoded(V)) == V
    assert io.parse_annulus(encoded(A)) == A
    assert io.parse_line_point(encoded(x)) == x
    assert io.parse_matrix(encoded(a)) == a
    assert io.parse_base_point(encoded(b)) == b


def test_encoder_refuses_unregistered_types():
    for value in (object(), {1, 2}, 1j, b"bytes", Place):
        with pytest.raises(TypeError):
            io.encode(value)
        with pytest.raises(TypeError):
            io.dumps({"x": [value]})


def test_payloads_lead_with_the_schema_version():
    sandwich = ResidualSandwich(NormValue.of(3), NormValue.of(Fraction(7, 2)), Fraction(2))
    assert io.dumps(sandwich) == '{"v": 1, "div_norm": {"exact": "3"}, "upper": {"exact": "7/2"}, "C0": "2"}'
    assert io.dumps({"n": 1, "q": [Fraction(1, 3)]}) == '{"v": 1, "n": 1, "q": ["1/3"]}'


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_an_integer_past_the_digit_limit_is_a_typed_refusal():
    """The interpreter refuses to print an int past its digit limit (4300 by
    default); ``dumps`` turns that into the domain error OutputTooLarge, for
    a Fraction, an interval endpoint and a plain int alike, and leaves the
    limit as it was."""
    from arithline.errors import OutputTooLarge

    limit = sys.get_int_max_str_digits()
    huge = 10 ** (limit + 1)
    assert io.frac_str(Fraction(10 ** (limit - 1))) == "1" + "0" * (limit - 1)
    for payload in (
        {"x": Fraction(1, huge)},
        {"x": NormValue.interval(0, huge)},
        {"residue": huge},
    ):
        with pytest.raises(OutputTooLarge):
            io.dumps(payload)
    assert sys.get_int_max_str_digits() == limit
