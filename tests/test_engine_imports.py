"""The engine imports the standard library and itself, nothing else, so
no engine module imports numpy; only `linalg` row-reduces, so every
graded-subspace basis comes from the Gröbner kernel; and each layer
beyond the pair layer loads only for the ops that need it: `proj`,
through the runners in `projops`, for the projective ops, and the array
layer, `linalg` for separates and thm46 and `extfield` for separates
alone; a scenario built by hand runs every op all the same; and loading
the engine runs no generated code: its classes are written out by
hand."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from charp.scenario import OPS

ENGINE = Path(__file__).resolve().parent.parent / "src" / "charp"
ALLOWED = set(sys.stdlib_module_names) | {"charp"}
ARRAY_LAYER = ("linalg.py", "extfield.py")


def foreign_imports(source: str) -> list:
    """Top-level names of the absolute imports in the source that are
    neither standard library nor charp; relative imports stay inside
    charp."""
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


def test_engine_imports_the_standard_library_and_itself():
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
                           "from charp.ideal import Ideal\n") == ["numpy"]
    assert foreign_imports("import os.path\n"
                           "from .ring import PolyRing\n"
                           "from charp.ideal import Ideal\n") == []


def test_public_names_resolve():
    # `__all__` lists each public name once, every listed name resolves,
    # and every public non-module attribute the package imports is listed
    import charp

    assert len(set(charp.__all__)) == len(charp.__all__)
    assert [name for name in charp.__all__ if not hasattr(charp, name)] == []
    namespace: dict = {}
    exec("from charp import *", namespace)
    assert set(charp.__all__) <= set(namespace)
    public = {name for name, value in vars(charp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(charp.__all__)


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


def eager_imports(source: str) -> set:
    """Dotted names of what the source imports when it is loaded: every
    import outside a function body, each imported name of a `from`
    import included, relative imports read inside charp."""
    found = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "charp" + (f".{base}" if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return found


def loads(names: set, module: str) -> bool:
    return any(name == module or name.startswith(module + ".")
               for name in names)


def test_no_engine_module_imports_numpy():
    # nor names it at all, so not even a function body imports it; and no
    # module loads the array layer when it loads
    modules = sorted(ENGINE.glob("*.py"))
    assert {module.name for module in modules} >= set(ARRAY_LAYER)
    for module in modules:
        source = module.read_text()
        assert "numpy" not in source, module.name
        names = eager_imports(source)
        assert not loads(names, "charp.linalg"), module.name
        assert not loads(names, "charp.extfield"), module.name


def test_eager_imports_skip_function_bodies_only():
    source = ("import numpy as np, os.path\n"
              "from . import linalg\n"
              "try:\n"
              "    from .extfield import ExtField\n"
              "except ImportError:\n"
              "    pass\n"
              "class Holder:\n"
              "    from charp.ring import PolyRing\n"
              "def f():\n"
              "    import sympy\n"
              "    from .proj import separates\n"
              "async def g():\n"
              "    import json\n"
              "h = lambda: __import__('fractions')\n")
    assert eager_imports(source) == {
        "numpy", "os.path", "charp", "charp.linalg", "charp.extfield",
        "charp.extfield.ExtField", "charp.ring", "charp.ring.PolyRing"}
    assert eager_imports("def f():\n    import numpy as np\n"
                         "    from .linalg import null_space\n") == set()
    names = eager_imports("from numpy.linalg import det\n")
    assert loads(names, "numpy") and not loads(names, "charp.linalg")
    assert not loads({"numpyish"}, "numpy")


LAZY = ("charp.proj", "charp.projops", "charp.linalg", "charp.extfield",
        "numpy")

PROBE = """
import json, sys
from charp.scenario import execute, parse_scenario
LAZY = %r
def loaded():
    return [name for name in sys.modules if name in LAZY]
assert loaded() == [], loaded()
scenario = parse_scenario(json.loads(sys.argv[1]))
parsed = loaded()
report, _ = execute(scenario)
print(json.dumps({"parsed": parsed, "ran": loaded(),
                  "errors": [job["error"] for job in report["jobs"]
                             if job["status"] != "ok"]}))
""" % (LAZY,)


def run_fresh(source: str, *args: str) -> str:
    """Standard output of the source run in a fresh interpreter that
    imports charp from this checkout."""
    path = os.pathsep.join(filter(None, [str(ENGINE.parent),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", source, *args],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


def probe(jobs: list) -> dict:
    """Parse and execute a scenario over F_5[x, y, z] in a fresh
    interpreter: which of the lazily loaded modules (LAZY) were loaded
    after parsing and after executing, in the order their imports
    finished, and the jobs' errors."""
    doc = {"p": 5, "vars": ["x", "y", "z"], "jobs": jobs}
    return json.loads(run_fresh(PROBE, json.dumps(doc)))


CUBIC = {"n": 2, "hypersurfaces": ["x^3+y^3+z^3"]}
PLANE = {"n": 2}
PAIR = {"f": "x*y", "a": 4, "e": 1}
PAIR_JOBS = [
    {"op": "sigma", "pair": PAIR},
    {"op": "tau", "pair": PAIR},
    {"op": "fpure", "pair": {"f": "x^3+y^3+z^3", "a": 4, "e": 1}},
    {"op": "sfr", "pair": PAIR},
    {"op": "compatible", "pair": PAIR, "I_Z": ["x", "y"]},
    {"op": "mult", "pair": {"f": "x^2+x*y+y^2", "a": 4, "e": 1},
     "point": [0, 0, None], "l": 2},
]
PROJ_JOBS = [
    {"op": "s0", "scheme": CUBIC, "m": 1},
    {"op": "s0", "scheme": PLANE, "pair": {"f": "z", "a": 4, "e": 1},
     "m": 1, "which": "tau"},
    {"op": "bpf", "scheme": CUBIC, "m": 1, "forms": ["x", "y", "z"]},
    {"op": "bpf", "scheme": CUBIC, "m": 1},
    {"op": "gg", "ideal": ["x^2", "x*y", "y^2"], "m": 2},
    {"op": "gg", "scheme": PLANE, "pair": {"f": "x^2*z+y^3", "a": 4,
                                            "e": 1}, "m": 2},
    {"op": "restrict", "scheme": PLANE, "pair": {"f": "z", "a": 4, "e": 1},
     "I_Z": ["z"], "m": 3},
]
SEPARATES = {"op": "separates", "scheme": CUBIC, "m": 1, "ext_degree": 2}
THM46 = {"op": "thm46", "scheme": PLANE,
         "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "A": "(x*y*z)^2",
         "l": 4, "e": 2}
ARRAY_JOBS = [SEPARATES, THM46]


def ops(jobs: list) -> set:
    return {job["op"] for job in jobs}


def runners(module: str) -> set:
    """The ops whose runner `_run_<op>` the engine module defines."""
    found = vars(importlib.import_module(f"charp.{module}"))
    return {name[len("_run_"):] for name, value in found.items()
            if name.startswith("_run_") and callable(value)
            and value.__module__ == f"charp.{module}"}


def test_each_op_lists_its_layers_projops_first():
    layers = {op: modules for op, (_, modules) in OPS.items()}
    assert {op for op, modules in layers.items() if not modules} \
        == ops(PAIR_JOBS)
    assert {op for op, modules in layers.items()
            if modules == ("projops",)} == ops(PROJ_JOBS)
    assert layers["separates"] == ("projops", "linalg", "extfield")
    assert layers["thm46"] == ("projops", "linalg")
    assert set(layers) == ops(PAIR_JOBS + PROJ_JOBS + ARRAY_JOBS)
    # every runner lives in the first module its op needs, the pair
    # ops' in `scenario` and the projective ops' in `projops`, and
    # neither module defines a runner of an op outside the table
    assert runners("scenario") == ops(PAIR_JOBS)
    assert runners("projops") == ops(PROJ_JOBS + ARRAY_JOBS)
    for op, (_, modules) in OPS.items():
        assert op in runners(modules[0] if modules else "scenario"), op


def test_pair_ops_load_neither_proj_nor_numpy():
    assert probe(PAIR_JOBS) == {"parsed": [], "ran": [], "errors": []}


PROJ_LAYER = ["charp.proj", "charp.projops"]


def test_projective_ops_load_proj_while_parsing_and_no_numpy():
    for job in PROJ_JOBS:
        assert probe([job]) == {"parsed": PROJ_LAYER, "ran": PROJ_LAYER,
                                "errors": []}, job


def test_scenarios_without_array_ops_never_load_numpy():
    assert ops(PAIR_JOBS + PROJ_JOBS) == set(OPS) - ops(ARRAY_JOBS)
    assert probe(PAIR_JOBS + PROJ_JOBS) == {
        "parsed": PROJ_LAYER, "ran": PROJ_LAYER, "errors": []}


def test_array_ops_load_the_array_layer_while_parsing():
    # sys.modules lists a module once its import finishes; numpy, which
    # LAZY lists, never loads; only separates samples points, so thm46
    # loads no `extfield`
    linalg = PROJ_LAYER + ["charp.linalg"]
    extfield = linalg + ["charp.extfield"]
    for job, layers in ((SEPARATES, extfield), (THM46, linalg)):
        assert probe([job]) == {"parsed": layers, "ran": layers,
                                "errors": []}, job
    # proj loads first even when an array op comes first
    assert probe(ARRAY_JOBS + PROJ_JOBS + PAIR_JOBS)["parsed"] == extfield
    assert probe([THM46] + PROJ_JOBS + PAIR_JOBS)["parsed"] == linalg


HAND_BUILT = """
import json, sys
from charp.ring import PolyRing
from charp.scenario import Scenario, execute, parse_scenario
doc = json.loads(sys.argv[1])
ring = PolyRing(tuple(doc["vars"]), doc["p"])
# nothing has loaded `projops` yet: each job loads what it needs
built, _ = execute(Scenario(ring, [{"op": "bogus"}] + doc["jobs"]))
parsed, _ = execute(parse_scenario(doc))
print(json.dumps({"built": built["jobs"], "parsed": parsed["jobs"]}))
"""


def test_a_scenario_built_by_hand_runs_every_op():
    # one job of each op, after a job of an unknown op
    jobs = list({job["op"]: job for job in reversed(
        PAIR_JOBS + PROJ_JOBS + ARRAY_JOBS)}.values())
    assert len(jobs) == len(OPS) == 12 and ops(jobs) == set(OPS)
    doc = {"p": 5, "vars": ["x", "y", "z"], "jobs": jobs}
    out = json.loads(run_fresh(HAND_BUILT, json.dumps(doc)))
    bogus, *built = out["built"]
    assert bogus == {"index": 0, "op": "bogus", "inputs": {},
                     "status": "error", "result": None, "iterations": None,
                     "pass": False,
                     "error": {"type": "ScenarioError",
                               "message": "unknown op 'bogus'"}}
    assert [dict(entry, index=entry["index"] - 1) for entry in built] \
        == out["parsed"]
    assert [entry["status"] for entry in out["parsed"]] == ["ok"] * 12


def test_import_charp_loads_the_projective_layer_on_first_use():
    out = run_fresh("""
import json, sys
import charp, charp.cli
before = [name for name in sys.modules if name in %r]
found = charp.stable_sections
cached = vars(charp).get("stable_sections") is found
from charp import proj
try:
    charp.no_such_name
    refused = False
except AttributeError:
    refused = True
print(json.dumps({"before": before, "cached": cached,
                  "same": found is proj.stable_sections,
                  "module": charp.proj is proj, "refused": refused}))
""" % (LAZY,))
    assert json.loads(out) == {"before": [], "cached": True, "same": True,
                               "module": True, "refused": True}


def test_only_projops_loads_proj_eagerly():
    # `projops` is the scenario runner's one door to `proj`, and no
    # engine module loads `projops` eagerly
    assert loads(eager_imports((ENGINE / "projops.py").read_text()),
                 "charp.proj")
    for module in sorted(ENGINE.glob("*.py")):
        names = eager_imports(module.read_text())
        assert not loads(names, "charp.projops"), module.name
        if module.name != "projops.py":
            assert not loads(names, "charp.proj"), module.name


# -- no generated code ---------------------------------------------------------


def codegen_uses(source: str) -> list:
    """Line numbers where the source imports `dataclasses` or names
    `namedtuple` or `NamedTuple`, whose classes run generated code each
    time their module loads: an import, or an attribute such as
    `typing.NamedTuple`."""
    makers = ("namedtuple", "NamedTuple")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "dataclasses"
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module == "dataclasses"
                   or any(alias.name in makers for alias in node.names))
        elif isinstance(node, ast.Attribute):
            hit = node.attr in makers
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def test_engine_classes_are_written_out():
    for module in sorted(ENGINE.glob("*.py")):
        assert codegen_uses(module.read_text()) == [], module.name


def test_codegen_uses_are_seen_anywhere():
    assert codegen_uses("from dataclasses import dataclass, field\n") == [1]
    assert codegen_uses("import os\nimport dataclasses as dc\n") == [2]
    assert codegen_uses("from collections import namedtuple\n") == [1]
    assert codegen_uses("import typing\n"
                        "class P(typing.NamedTuple):\n    x: int\n") == [2]
    assert codegen_uses("def f():\n    from typing import NamedTuple\n") \
        == [2]
    assert codegen_uses("from functools import cached_property\n"
                        "class A:\n    __slots__ = ('x',)\n") == []


# Every `exec` audit event whose code has no source file, by the file of
# the nearest module-level frame above it: the module whose loading ran
# generated code.  `dataclasses` is imported before the hook is added, so
# the namedtuples of the modules it loads (`inspect`, `dis`, `tokenize`)
# are not recorded.  The probe's own dataclass, defined at its top level
# after the engine has loaded, shows that the hook sees such code.
CODEGEN_PROBE = """
import dataclasses, json, os, sys

events = []

def hook(event, args):
    if event != "exec" or os.path.isfile(args[0].co_filename):
        return
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_name != "<module>":
        frame = frame.f_back
    events.append(None if frame is None else frame.f_code.co_filename)

sys.addaudithook(hook)
import charp, charp.cli
from charp.scenario import parse_scenario
parse_scenario(json.loads(sys.argv[1]))
engine = list(events)
@dataclasses.dataclass
class Probe:
    x: int
print(json.dumps({"engine": engine, "probe": events[len(engine):]}))
"""


def test_loading_the_engine_runs_no_generated_code():
    jobs = PAIR_JOBS + PROJ_JOBS + ARRAY_JOBS
    assert ops(jobs) == set(OPS)
    doc = {"p": 5, "vars": ["x", "y", "z"], "jobs": jobs}
    out = json.loads(run_fresh(CODEGEN_PROBE, json.dumps(doc)))
    # the standard library's own generated code (say a namedtuple that
    # `fractions` loads) is attributed to the standard library
    assert [name for name in out["engine"]
            if name is not None and Path(name).resolve().parent == ENGINE] \
        == []
    assert out["probe"] and set(out["probe"]) == {"<string>"}
