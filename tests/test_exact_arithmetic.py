"""No floating-point arithmetic in src/arithline.

Every number the kernel prints is exact or soundly enclosed, so the library
computes on ints and Fractions only.  Two rules, checked on the syntax tree
of every module:

- no module imports ``math`` as a module, and a ``from math import`` takes
  only the integer functions gcd, isqrt, factorial and prod;
- no float literal appears, except in ``selftest.py``, whose literals are
  sampling rates for its random inputs.

``INF = float("inf")`` in ``base_space`` stays the one float: the exponent
of an extreme point, never an operand of arithmetic.
"""

import ast
import pathlib

import pytest

import arithline

SRC = pathlib.Path(arithline.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
INTEGER_MATH = {"gcd", "isqrt", "factorial", "prod"}
SAMPLING_RATES = {"selftest.py"}


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_math_is_used_only_for_integer_functions(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            bad += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and not node.level:
            bad += [f"line {node.lineno}: from math import {a.name}" for a in node.names
                    if a.name not in INTEGER_MATH]
    assert not bad, bad


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in SAMPLING_RATES], ids=lambda p: p.name)
def test_no_float_literal(path):
    bad = [f"line {node.lineno}: {node.value!r}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]
    assert not bad, bad
