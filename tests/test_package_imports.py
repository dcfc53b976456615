"""The package's own import graph: relative imports only at module level,
and no cycle among them.  numpy may still be imported inside a function,
so that a cold start does not load it."""
from __future__ import annotations

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "allee_lab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _relative_imports(tree: ast.Module):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def _targets(node: ast.ImportFrom) -> list[str]:
    # `from .x import a` reads module x; `from . import x` reads module x
    # when x is one, and the package's __init__ otherwise
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def test_no_function_body_holds_a_relative_import():
    inside = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [f"{name}.py:{node.lineno}" for node in _relative_imports(func)]
    assert inside == []


def test_relative_imports_form_an_acyclic_graph():
    graph = {name: {target for node in _relative_imports(tree) for target in _targets(node)}
             for name, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(MODULES)
    order = list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError
    assert sorted(order) == sorted(MODULES)
