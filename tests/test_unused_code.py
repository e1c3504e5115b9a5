"""No dead code in the package: every top-level function and class of
``src/isotuple`` is used, unless the allowlist below says why it stays.

A top-level definition counts as used only where the package reads it as that
module's: its own module names it, another module imports it by name from that
module, or another module reads it as an attribute of that module's alias
(``mc.fro_norm``, ``tf.triangle``).  A name that merely matches some other
variable does not count.  A method (other than a dunder) counts as used when
some module reads an attribute of its name, since the type of an instance is not
known statically."""

from __future__ import annotations

import ast
from pathlib import Path

import isotuple

PACKAGE = Path(isotuple.__file__).parent

#: Definitions that nothing in the package uses, each with why it stays.
ALLOWED = {
    "vec": "the vec convention helper; the module docstring states vec(A X B) = (B^T kron A) vec(X)",
    "unvec": "the inverse of vec under the same convention",
    "triangle_by_iteration": "the iterated-map cross-check of triangle, read by the tests",
    "delta_by_iteration": "the iterated-map cross-check of delta, read by the tests",
    "random_unitary": "a building block of hand-made test instances",
    "OperatorTuple.op_norms": "a property of a public class",
    "OperatorTuple.sum_op_norm": "a property of a public class",
}


def _trees() -> dict[str, ast.Module]:
    """Each module of the package by name (``__init__`` for the package itself)."""
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    """The qualified names of a module's top-level functions and classes, and of their
    methods other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{node.name}.{method.name}"


def _source(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, ``__init__`` for the package itself, or
    None for a module outside the package."""
    if node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module == "isotuple":
        return "__init__"
    if node.level == 0 and node.module and node.module.startswith("isotuple."):
        return node.module.removeprefix("isotuple.")
    return None


def _used(trees: dict) -> tuple[set[tuple[str, str]], set[str]]:
    """The ``(module, name)`` of every top-level name the package reads as that module's,
    and every attribute name read anywhere (for methods)."""
    used, attributes = set(), set()
    for module, tree in trees.items():
        aliases = {}  # a name bound to a package module in this module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (source := _source(node)) is not None:
                for alias in node.names:
                    if source == "__init__" and alias.name in trees:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        used.add((source, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.id))
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    used.add((aliases[node.value.id], node.attr))
    return used, attributes


def _is_used(module: str, name: str, used: set, attributes: set) -> bool:
    if "." in name:
        return name.rsplit(".", 1)[-1] in attributes
    return (module, name) in used


def test_every_definition_is_referenced_exported_or_allowed():
    trees = _trees()
    used, attributes = _used(trees)
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if not _is_used(module, name, used, attributes) and name not in ALLOWED
    ]
    assert unused == []


def test_every_allowed_name_is_still_defined_and_unreferenced():
    # an entry that has gone, or that the package now uses, leaves the allowlist
    trees = _trees()
    used, attributes = _used(trees)
    defined = {name: module for module, tree in trees.items() for name in _definitions(tree)}
    assert sorted(
        name for name in ALLOWED if name not in defined or _is_used(defined[name], name, used, attributes)
    ) == []
