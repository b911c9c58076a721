"""The engine imports the standard library, numpy and itself, nothing
else, and only `linalg` row-reduces: every graded-subspace basis comes
from the Gröbner kernel."""

import ast
import sys
from pathlib import Path

ENGINE = Path(__file__).resolve().parent.parent / "src" / "charp"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "charp"}


def foreign_imports(source: str) -> list:
    """Top-level names of the absolute imports in the source that are
    neither standard library, numpy nor charp; relative imports stay
    inside charp."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend(name for name in names
                     if name.split(".")[0] not in ALLOWED)
    return found


def test_engine_imports_numpy_and_nothing_else():
    modules = sorted(ENGINE.glob("*.py"))
    assert len(modules) > 10
    for module in modules:
        assert foreign_imports(module.read_text()) == [], module.name


def test_foreign_imports_are_seen_anywhere():
    assert foreign_imports("import sympy") == ["sympy"]
    assert foreign_imports("def f():\n    from sympy.core import S\n") \
        == ["sympy.core"]
    assert foreign_imports("import numpy as np, os.path\n"
                           "from .ring import PolyRing\n"
                           "from charp.ideal import Ideal\n") == []


def rref_uses(source: str) -> list:
    """Line numbers where the source imports `rref` or names it: a call,
    an attribute such as `linalg.rref`, or any other reference."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = any(alias.name == "rref" for alias in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id == "rref"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "rref"
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def test_only_linalg_row_reduces():
    for module in sorted(ENGINE.glob("*.py")):
        if module.name != "linalg.py":
            assert rref_uses(module.read_text()) == [], module.name
    assert rref_uses((ENGINE / "linalg.py").read_text())


def test_rref_uses_are_seen_anywhere():
    assert rref_uses("from .linalg import null_space, rref\n") == [1]
    assert rref_uses("from . import linalg\nlinalg.rref(m, 5)\n") == [2]
    assert rref_uses("def f(m):\n    return rref(m, 5)[0]\n") == [2]
    assert rref_uses("from .linalg import null_space, rank\n"
                     "rank(null_space(m, 5), 5)\n") == []
