"""Every function and method in src/arithline has a user.

A private module-level function or method (one leading underscore, not a
dunder) must be referenced somewhere in src/ outside its own ``def``: by
name, as an attribute, or in an import.  A decorated one counts as used,
since its decorator registers it.  A helper that only tests call belongs
in tests/oracles.py.

A public one (no leading underscore) must be referenced outside its own
``def`` somewhere in src/ (an ``__init__`` re-export counts), demos/ or
perfbench/.  A test is not a user: an entry point that only tests call is
dead code with a test.  Dunders are exempt, and so are functions decorated
with ``<dispatcher>.register``, which the dispatcher calls.
"""

import ast
import collections
import pathlib

import arithline

SRC = pathlib.Path(arithline.__file__).resolve().parent
ROOT = SRC.parents[1]
USER_DIRS = ("src", "demos", "perfbench")
USERS = tuple(ROOT / name for name in USER_DIRS)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _registered(helper: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "register"
        for d in helper.decorator_list
    )


def _helpers(tree: ast.Module):
    """The module-level functions and methods of one module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, defs))


def _references(node: ast.AST) -> collections.Counter:
    """The names referenced under node: names, attributes and imports."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _unreferenced(src: pathlib.Path, users, keep) -> list:
    """The functions and methods of src/*.py that ``keep`` selects and that no
    file of ``users`` references outside their own def."""
    paths = sorted(src.glob("*.py"))
    refs = collections.Counter()
    for path in {path.resolve() for path in paths + list(users)}:
        refs += _references(ast.parse(path.read_text(), str(path)))
    out = []
    for path in paths:
        for helper in _helpers(ast.parse(path.read_text(), str(path))):
            if keep(helper) and refs[helper.name] <= _references(helper)[helper.name]:
                out.append(f"{path.name}:{helper.lineno} {helper.name}")
    return out


def dead_helpers(src: pathlib.Path) -> list:
    return _unreferenced(src, [], lambda h: _private(h.name) and not h.decorator_list)


def unused_public(src: pathlib.Path, roots) -> list:
    users = [path for root in roots for path in root.rglob("*.py")]
    return _unreferenced(src, users, lambda h: not h.name.startswith("_") and not _registered(h))


def test_every_private_helper_is_used_in_src():
    assert dead_helpers(SRC) == []


def test_every_public_function_has_a_user():
    assert unused_public(SRC, USERS) == []


def test_gate_sees_a_helper_used_only_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n"
        "class K:\n    def _method(self):\n        return _used()\n\n"
        "    @property\n    def _prop(self):\n        return 2\n\n"
        "def public():\n    return K()._method()\n"
    )
    assert dead_helpers(tmp_path) == ["mod.py:4 _dead"]


def test_public_gate_looks_outside_src(tmp_path):
    src, user, tests = tmp_path / "src", tmp_path / "demos", tmp_path / "tests"
    for path in (src, user, tests):
        path.mkdir()
    (src / "mod.py").write_text(
        "import functools\n\n"
        "@functools.singledispatch\ndef encode(x):\n    return x\n\n"
        "@encode.register(int)\ndef _(x):\n    return x\n\n"
        "@encode.register(str)\ndef encode_str(x):\n    return x\n\n"
        "def tested():\n    return 1\n\n"
        "def only_tested():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class K:\n    def __repr__(self):\n        return 'K'\n\n"
        "    def method(self):\n        return encode(1)\n"
    )
    (user / "demo_mod.py").write_text("from mod import tested\n\nK = tested()\n")
    (tests / "test_mod.py").write_text("from mod import only_tested\n\nK = only_tested()\n")
    roots = [tmp_path / name for name in USER_DIRS]
    assert unused_public(src, roots) == ["mod.py:18 only_tested", "mod.py:21 recursive", "mod.py:28 method"]
