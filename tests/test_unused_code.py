"""No dead code in the package: every top-level function and class of
``src/isotuple``, and every method, is referenced by name from some module
of the package or listed in its ``__all__``, unless the allowlist below says
why it stays."""

from __future__ import annotations

import ast
from pathlib import Path

import isotuple

PACKAGE = Path(isotuple.__file__).parent

#: Definitions that nothing in the package references, each with why it stays.
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
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


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


def _referenced(trees: dict) -> set[str]:
    """Every name the package reads: bare names, attributes and imported names."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_referenced_exported_or_allowed():
    trees = _trees()
    referenced, exported = _referenced(trees), set(isotuple.__all__)
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.rsplit(".", 1)[-1] not in referenced and name not in exported and name not in ALLOWED
    ]
    assert unused == []


def test_every_allowed_name_is_still_defined_and_unreferenced():
    # an entry that has gone, or that the package now reads, leaves the allowlist
    trees = _trees()
    referenced = _referenced(trees)
    defined = {name for tree in trees.values() for name in _definitions(tree)}
    assert sorted(name for name in ALLOWED if name not in defined or name.rsplit(".", 1)[-1] in referenced) == []
