"""Static checks over the package, its tests and its tools."""

import ast
import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/shufflemix", "tests", "tools")


def _names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never uses.  A name
    counts as used when the code reads it, when ``__all__`` lists it, or when
    a doctest example in one of the module's strings reads it."""
    tree = ast.parse(source)
    imported, used = {}, _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], a.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, a.lineno) for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for example in doctest.DocTestParser().get_examples(node.value):
                used |= _names(ast.parse(example.source))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports_and_counts_all_and_doctests_as_uses():
    source = '''
from __future__ import annotations
import os.path
import json as js
from math import fsum, sqrt, tau
from numpy import array
__all__ = ["tau"]

def f(x):
    """>>> array([1])"""
    return os.path.join(x) + fsum([])
'''
    assert unused_imports(source) == [(4, "js"), (5, "sqrt")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
