"""Every private helper in src/arithline is used by the library itself.

A private module-level function or method (one leading underscore, not a
dunder) must be referenced somewhere in src/ outside its own ``def``: by
name, as an attribute, or in an import.  A decorated one counts as used,
since its decorator registers it.  A helper that only tests call belongs
in tests/oracles.py.
"""

import ast
import pathlib

import arithline

SRC = pathlib.Path(arithline.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _helpers(tree: ast.Module):
    """The private module-level functions and methods of one module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, defs))


def _references(node: ast.AST, skip: ast.AST, out: list) -> None:
    """Append the names referenced under node, not descending into skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        out.append(node.id)
    elif isinstance(node, ast.Attribute):
        out.append(node.attr)
    elif isinstance(node, ast.alias):
        out.append(node.name)
    for child in ast.iter_child_nodes(node):
        _references(child, skip, out)


def dead_helpers(src: pathlib.Path) -> list:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    dead = []
    for path, tree in trees.items():
        for helper in _helpers(tree):
            if not _private(helper.name) or helper.decorator_list:
                continue
            names = []
            for other in trees.values():
                _references(other, helper, names)
            if helper.name not in names:
                dead.append(f"{path.name}:{helper.lineno} {helper.name}")
    return dead


def test_every_private_helper_is_used_in_src():
    assert dead_helpers(SRC) == []


def test_gate_sees_a_helper_used_only_by_itself(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n"
        "class K:\n    def _method(self):\n        return _used()\n\n"
        "    @property\n    def _prop(self):\n        return 2\n\n"
        "def public():\n    return K()._method()\n"
    )
    assert dead_helpers(tmp_path) == ["mod.py:4 _dead"]
