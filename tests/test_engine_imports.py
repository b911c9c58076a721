"""The engine imports the standard library, numpy and itself, nothing else."""

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
