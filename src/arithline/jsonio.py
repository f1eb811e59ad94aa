"""JSON encodings of the domain types.

Rationals travel as "p/q" strings (plain "p" for integers); interval
endpoints are outward-rounded dyadics printed as exact decimal strings.

Each ``parse_*`` reads one type from decoded JSON.  ``numbers.parse_int`` is
the one reader of an integer (a place, a series index or modulus, a table
entry, here and in the constructors), so a float such as 2.9, a bool or a
string such as "1_0" is refused instead of truncated; ``parse_frac`` is the
one reader of a rational, by the same digit rule; ``parse_list`` of an
array, so a string or an object is refused instead of iterated.  Each
refuses with BadInput.  ``encode`` is the one
serializer: it dispatches on the type to the matching ``*_json`` function,
writes any other dataclass (``AnnulusSpec`` among them) as {field: value} in
declaration order, and refuses everything else with TypeError.  ``dumps``
writes a top-level CLI payload through it, headed by the schema version
field "v": 1.  An integer past the interpreter's int-to-str digit limit
(4300 by default) is refused with the domain error OutputTooLarge; the
limit itself is left alone.
"""

import dataclasses
import functools
import json
import re
import sys
from fractions import Fraction

from .affine_line import LinePoint, TrivClosed, TrivOuter, UmDisk
from .base_space import INF, BaseCompact, BasePoint, Place, RingLabel, is_inf
from .cousin_cartan import SeriesMatrix
from .covers_galois import GroupTable
from .errors import BadInput, OutputTooLarge
from .normvalue import NormValue
from .numbers import parse_int
from .polys import Gauss, poly
from .series_ring import AnnulusSpec, LaurentPoly

SCHEMA_VERSION = 1


@functools.singledispatch
def encode(obj):
    """The JSON form of a domain object (the ``default`` hook of json.dumps)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


@encode.register(Fraction)
def frac_str(q) -> str:
    return str(q) if isinstance(q, Fraction) else str(Fraction(q))


_RATIONAL = re.compile("(-?[0-9]+)(?:/([0-9]+))?")


def parse_frac(s) -> Fraction:
    """A Fraction, an int that is not a bool, or an ASCII string "p" or "p/q"
    (an optional "-" and digits, then "/" and digits); anything else, a float,
    "1_0", " 1" or "1e9" among them, is refused in ``Fraction``'s words.  The
    string is parsed once, by the match; p/0 and a part past the int-to-str
    digit limit raise as ``Fraction(s)`` would."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, str):
        match = _RATIONAL.fullmatch(s)
        if match:
            p, q = match.groups()
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
    elif isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise BadInput(f"Invalid literal for Fraction: {str(s)!r:.200}")


def exp_str(e) -> str:
    return "inf" if is_inf(e) else frac_str(e)


def parse_exp(s):
    if s == "inf":
        return INF
    return parse_frac(s)


def dyadic_decimal(q: Fraction) -> str:
    """Exact decimal expansion of a dyadic rational."""
    den = q.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError(f"{q} is not dyadic")
    scaled = q.numerator * 5 ** k  # q = scaled / 10^k
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    if k == 0:
        return sign + digits
    return sign + (digits[:-k] or "0") + "." + digits[-k:]


@encode.register(NormValue)
def norm_value_json(nv: NormValue) -> dict:
    if nv.is_exact:
        return {"exact": frac_str(nv.exact)}
    nv = nv.rounded()
    return {"lo": dyadic_decimal(nv.lo), "hi": dyadic_decimal(nv.hi)}


def place_json(place):
    if place is None:
        return None
    return "inf" if not place.is_finite else place.prime


def parse_place(v):
    if v is None:
        return None
    if v == "inf":
        return Place.infinite()
    return Place.finite(parse_int(v))


def parse_places(lst) -> list:
    """A list of places; unlike the place of a base point, none is null."""
    places = [parse_place(v) for v in parse_list(lst)]
    if None in places:
        raise BadInput("a place is \"inf\" or a prime, not null")
    return places


@encode.register(BasePoint)
def base_point_json(x: BasePoint) -> dict:
    return {"place": place_json(x.place), "exp": exp_str(x.exponent)}


def parse_base_point(d) -> BasePoint:
    return BasePoint.branch(parse_place(d["place"]), parse_exp(d["exp"]))


@encode.register(BaseCompact)
def base_compact_json(V: BaseCompact) -> dict:
    if V.kind == "segment":
        return {
            "kind": "segment",
            "place": place_json(V.place),
            "u": exp_str(V.u),
            "v": exp_str(V.v),
        }
    return {
        "kind": "star",
        "cuts": [
            {"place": place_json(pl), "v": exp_str(c)} for pl, c in V.cuts
        ],
    }


def parse_base_compact(d) -> BaseCompact:
    if d["kind"] == "segment":
        return BaseCompact.segment(
            parse_place(d["place"]), parse_exp(d["u"]), parse_exp(d["v"])
        )
    if d["kind"] == "star":
        cuts = [(parse_place(c["place"]), parse_exp(c["v"])) for c in parse_list(d["cuts"])]
        return BaseCompact.star(cuts)
    raise BadInput(f"unknown compact kind {d['kind']!r}")


@encode.register(RingLabel)
def ring_label_json(r: RingLabel) -> dict:
    return {
        "label": r.label,
        "inverted_primes": sorted(r.inverted_primes),
        "completion_prime": r.completion_prime,
    }


def poly_json(coeffs) -> list:
    return [frac_str(c) for c in poly(coeffs)]


def parse_list(v) -> list:
    """A JSON array; a string or an object, which would iterate as a list, is refused."""
    if not isinstance(v, list):
        raise BadInput(f"expected a JSON array, got {v!r:.200}")
    return v


def parse_poly(lst) -> tuple:
    return poly([parse_frac(c) for c in parse_list(lst)])


@encode.register(LinePoint)
def line_point_json(x: LinePoint) -> dict:
    fib = x.fiber
    if isinstance(fib, UmDisk):
        fiber = {"kind": "um", "alpha": frac_str(fib.alpha), "r": frac_str(fib.r)}
    elif isinstance(fib, TrivClosed):
        fiber = {"kind": "trivc", "P": poly_json(fib.P), "r": frac_str(fib.r)}
    elif isinstance(fib, TrivOuter):
        fiber = {"kind": "trivo", "r": frac_str(fib.r)}
    else:
        fiber = {"kind": "arch", "re": frac_str(fib.z.re), "im": frac_str(fib.z.im)}
    return {"base": base_point_json(x.base), "fiber": fiber}


def parse_line_point(d) -> LinePoint:
    base = parse_base_point(d["base"])
    f = d["fiber"]
    kind = f["kind"]
    if kind == "um":
        return LinePoint.disk(base, parse_frac(f["alpha"]), parse_frac(f["r"]))
    if kind == "trivc":
        return LinePoint.triv_closed(base, parse_poly(f["P"]), parse_frac(f["r"]))
    if kind == "trivo":
        return LinePoint.triv_outer(base, parse_frac(f["r"]))
    if kind == "arch":
        return LinePoint.arch(base, parse_frac(f["re"]), parse_frac(f.get("im", 0)))
    raise BadInput(f"unknown fiber kind {kind!r}")


@encode.register(LaurentPoly)
def laurent_json(f: LaurentPoly) -> dict:
    coeffs = f.coeffs
    return {
        "coeffs": {str(k): frac_str(coeffs[k]) for k in sorted(coeffs)},
        "mod": f.trunc_mod,
    }


def parse_laurent(d) -> LaurentPoly:
    if isinstance(d, list):
        return LaurentPoly.from_poly(parse_poly(d))
    if not isinstance(d["coeffs"], dict):
        raise BadInput("coeffs must be an object {index: rational}")
    coeffs = {parse_int(k): parse_frac(c) for k, c in d["coeffs"].items()}
    return LaurentPoly(coeffs, d.get("mod"))


def parse_annulus(d) -> AnnulusSpec:
    return AnnulusSpec(
        parse_base_compact(d["V"]), parse_frac(d["s"]), parse_frac(d["t"])
    )


@encode.register(SeriesMatrix)
def matrix_json(a: SeriesMatrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[laurent_json(e) for e in row] for row in a.entries],
    }


def parse_matrix(d) -> SeriesMatrix:
    rows = d if isinstance(d, list) else d["entries"]
    return SeriesMatrix([[parse_laurent(e) for e in parse_list(row)] for row in parse_list(rows)])


@encode.register(GroupTable)
def group_table_json(G: GroupTable) -> dict:
    return {"n": G.n, "table": [list(row) for row in G.table], "identity": G.identity}


def parse_group_table(d) -> GroupTable:
    rows = d if isinstance(d, list) else d["table"]
    return GroupTable([parse_list(row) for row in parse_list(rows)])


def parse_gauss(v) -> Gauss:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise BadInput("a Gaussian rational is a rational or a pair [re, im]")
        return Gauss(parse_frac(v[0]), parse_frac(v[1]))
    return Gauss(parse_frac(v))


def dumps(result, indent=None) -> str:
    """A CLI payload: "v" first, then result (a dict, or an object encoding to one).

    Every int of the payload becomes decimal here, so this is where the
    interpreter's digit limit raises its ValueError; it is refused as
    OutputTooLarge.
    """
    try:
        if not isinstance(result, dict):
            result = encode(result)
        return json.dumps({"v": SCHEMA_VERSION, **result}, indent=indent, default=encode)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise OutputTooLarge(f"an integer of the output has more than {limit} decimal digits") from None
