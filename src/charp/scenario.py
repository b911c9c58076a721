"""Scenario files: JSON job lists executed against the engine.

A scenario declares the ring in its header (characteristic, variable list,
monomial order) and lists jobs drawn from a fixed op registry.  Runs are
deterministic: the machine-readable report for a file is byte-identical
across runs (timings are reported on the human side only).

Job schema by op ([optional], (one | other)):
  sigma | fpure                {"pair": {"f","a","e"}}
  tau | sfr                    {"pair", ["c"]}
  compatible                   {"pair", "I_Z": [forms]}
  mult                         {"pair", "point": [residue|null,...], ["l"]}
  s0                           {"scheme", "m", ["pair"], ["which"], ["c"]}
  bpf                          {["scheme"], "m",
                                ("forms" | ["pair"], ["which"], ["c"])}
  separates                    {the fields of bpf, ["ext_degree"]}
  gg                           {["scheme"], "m",
                                ("ideal" | ["pair"], ["which"], ["c"])}
  thm46                        {["scheme"], "points", "A", "l", "e", ["d"]}
  restrict                     {["scheme"], "pair", "I_Z", "m"}

Any job may carry "expect": a JSON fragment that must match the result
(recursive subset for objects, equality for leaves).  Ops that verify a
theorem (mult, thm46, restrict) pass exactly when the theorem holds.
OPS lists each op's fields from this schema.  A field outside it
(other than "op" and "expect"; the first in sorted order when there are
several), a missing or malformed field, or one the job would ignore in
its context (c unless which, after its default, is tau; pair, which or
c beside forms or ideal) fails its job with a ScenarioError naming the
field; the other jobs still run.  An unknown op is refused sooner:
`parse_scenario` rejects the whole file, and only a Scenario built by
hand runs its other jobs beside it.  Integer fields (p, a, e, n, m, l,
d, ext_degree and point coordinates) take JSON integers only: a bool,
float or string is refused, never truncated.  thm46 works on P^n only,
so its scheme, when given, must have no hypersurfaces.  Top-level keys
other than the ring header and the job list are ignored.

Importing this module loads the pair layer (ring, ideal, cartier,
fsing) and the runners of the pair ops, and nothing more.  OPS also
lists the modules each op needs beyond the pair layer: `projops`, which
imports `proj` and holds the runners of the projective ops, and after
it the array layer (`linalg`, and for separates `extfield`) for
separates and thm46.  Each op's runner is `_run_<op>`, in the first
module it needs, or here for a pair op.  Parsing a scenario loads the
modules its jobs need, `projops` first, so every import is paid before
any job is timed; a scenario of pair ops loads neither `proj` nor the
array layer.  A job looks its runner up as it starts and imports
the module only when nothing has, as for a Scenario built by hand.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .config import Caps, DEFAULT_CAPS, caps_scope
from .errors import CharpError, ScenarioError
from .fsing import (PairDivisor, is_compatible, is_sharply_f_pure,
                    is_strongly_f_regular, multiplicity_containment,
                    sigma_chain, tau_chain)
from .ideal import Ideal
from .ring import PolyRing

REPORT_FORMAT = "charp-report-v1"


class Scenario:
    __slots__ = ("ring", "jobs", "header")

    def __init__(self, ring: PolyRing, jobs: List[dict],
                 header: Optional[Dict[str, Any]] = None):
        self.ring = ring
        self.jobs = jobs
        self.header = {} if header is None else header


def _require(condition: bool, message: str):
    if not condition:
        raise ScenarioError(message)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"{path}: not UTF-8 text at byte {exc.start}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except ValueError as exc:
        # an integer with more digits than the interpreter converts
        raise ScenarioError(f"{path}: {str(exc).partition(';')[0]}") from None
    return parse_scenario(data, source=path)


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    _require(isinstance(data, dict), f"{source}: scenario must be an object")
    _require("p" in data, f"{source}: missing characteristic 'p'")
    _require("vars" in data, f"{source}: missing variable list 'vars'")
    order = data.get("order", "grevlex")
    _require(order == "grevlex",
             f"{source}: only the grevlex order is supported, got {order!r}")
    p = _field(data, "p", _integer, where=source)
    names = data["vars"]
    _require(isinstance(names, list) and all(isinstance(v, str) for v in names),
             f"{source}: 'vars' must be a JSON list of variable names")
    try:
        ring = PolyRing(tuple(names), p)
    except (CharpError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    jobs = data.get("jobs", [])
    _require(isinstance(jobs, list), f"{source}: 'jobs' must be a list")
    for i, job in enumerate(jobs):
        _require(isinstance(job, dict) and "op" in job,
                 f"{source}: job {i} must be an object with an 'op'")
        _require(isinstance(job["op"], str) and job["op"] in OPS,
                 f"{source}: job {i} has unknown op {job['op']!r}")
    # load the layers the jobs need now, so that no job's wall time
    # includes an import
    for layer in dict.fromkeys(layer for job in jobs
                               for layer in OPS[job["op"]][1]):
        importlib.import_module(f".{layer}", __package__)
    header = {"p": ring.p, "vars": list(ring.variables), "order": "grevlex"}
    return Scenario(ring=ring, jobs=jobs, header=header)


# -- job helpers -----------------------------------------------------------

_REQUIRED = object()


def _field(spec: dict, key: str, convert: Optional[Callable] = None,
           default: Any = _REQUIRED, where: str = "job"):
    """spec[key], passed through convert when given.  A missing field
    without a default, or a value convert rejects, raises ScenarioError
    naming the field."""
    if key not in spec:
        _require(default is not _REQUIRED, f"{where} needs the field {key!r}")
        return default
    value = spec[key]
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{where} field {key!r} has the malformed value {value!r}") from None


def _integer(value) -> int:
    """A JSON integer; bools, floats and strings are refused rather
    than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _parse_pair(ring: PolyRing, job: dict) -> PairDivisor:
    """The job's pair."""
    spec = _field(job, "pair")
    _require(isinstance(spec, dict), "pair must be an object with f, a, e")
    return PairDivisor(_field(spec, "f", ring.parse, where="pair"),
                       _field(spec, "a", _integer, where="pair"),
                       _field(spec, "e", _integer, where="pair"))


def _polys(ring: PolyRing, spec: dict, key: str, default: Any = _REQUIRED,
           where: str = "job") -> list:
    """The polynomials listed in spec[key]."""
    texts = _field(spec, key, default=default, where=where)
    _require(isinstance(texts, list),
             f"{where} field {key!r} must be a list of polynomials")
    return [ring.parse(t) for t in texts]


def _ideal_json(ideal: Ideal) -> list:
    return [str(g) for g in ideal.groebner_basis]


def _echo_pair(pair: PairDivisor) -> dict:
    return {"f": str(pair.f), "a": pair.a, "e": pair.e}


def _point_tuple(raw: list) -> tuple:
    """A mult point: integer residues, None for a free direction."""
    if not isinstance(raw, list):
        raise TypeError("point must be a list of coordinates")
    return tuple(None if v is None else _integer(v) for v in raw)


# -- job runners ------------------------------------------------------------


def _run_sigma(ring, job):
    pair = _parse_pair(ring, job)
    chain = sigma_chain(pair)
    return ({"pair": _echo_pair(pair)},
            {"generators": _ideal_json(chain.ideal)}, chain.steps, None)


def _run_tau(ring, job):
    pair = _parse_pair(ring, job)
    c = _field(job, "c", ring.parse, None)
    chain = tau_chain(pair, c)
    inputs = {"pair": _echo_pair(pair)}
    if c is not None:
        inputs["c"] = str(c)
    return (inputs, {"generators": _ideal_json(chain.ideal)}, chain.steps, None)


def _run_fpure(ring, job):
    pair = _parse_pair(ring, job)
    verdict = is_sharply_f_pure(pair)
    return ({"pair": _echo_pair(pair)}, {"verdict": verdict}, None, None)


def _run_sfr(ring, job):
    pair = _parse_pair(ring, job)
    c = _field(job, "c", ring.parse, None)
    verdict = is_strongly_f_regular(pair, c)
    return ({"pair": _echo_pair(pair)}, {"verdict": verdict}, None, None)


def _run_compatible(ring, job):
    pair = _parse_pair(ring, job)
    center = Ideal(ring, _polys(ring, job, "I_Z"))
    verdict = is_compatible(center, pair)
    return ({"pair": _echo_pair(pair), "I_Z": [str(g) for g in center.generators]},
            {"verdict": verdict}, None, None)


def _run_mult(ring, job):
    pair = _parse_pair(ring, job)
    point = _field(job, "point", _point_tuple)
    l = _field(job, "l", _integer, None)
    report = multiplicity_containment(pair, point, l)
    result = {"multiplicity": str(report.pair_multiplicity),
              "codim": report.codim, "threshold": report.threshold,
              "verdict": report.holds}
    return ({"pair": _echo_pair(pair), "point": list(point)},
            result, None, report.holds)


# every op: its job fields, from the schema in the module docstring
# (any job may also carry "op" and "expect", and no other field), and
# the modules it needs beyond the pair layer (ring, ideal, cartier,
# fsing) in the order `parse_scenario` loads them; the first holds the
# runner `_run_<op>`, which for a pair op lives here
_PROJ = ("projops",)
OPS = {
    "sigma": (("pair",), ()),
    "fpure": (("pair",), ()),
    "tau": (("pair", "c"), ()),
    "sfr": (("pair", "c"), ()),
    "compatible": (("pair", "I_Z"), ()),
    "mult": (("pair", "point", "l"), ()),
    "s0": (("scheme", "m", "pair", "which", "c"), _PROJ),
    "bpf": (("scheme", "m", "forms", "pair", "which", "c"), _PROJ),
    "separates": (("scheme", "m", "forms", "pair", "which", "c",
                   "ext_degree"), ("projops", "linalg", "extfield")),
    "gg": (("scheme", "m", "ideal", "pair", "which", "c"), _PROJ),
    "thm46": (("scheme", "points", "A", "l", "e", "d"),
              ("projops", "linalg")),
    "restrict": (("scheme", "pair", "I_Z", "m"), _PROJ),
}


def _expect_matches(expect, actual) -> bool:
    if isinstance(expect, dict):
        if not isinstance(actual, dict):
            return False
        return all(k in actual and _expect_matches(v, actual[k])
                   for k, v in expect.items())
    if isinstance(expect, list):
        return isinstance(actual, list) and len(expect) == len(actual) and all(
            _expect_matches(a, b) for a, b in zip(expect, actual))
    return expect == actual


def _execute_job(ring: PolyRing, index: int, job: dict) -> tuple:
    """Returns (report_entry, elapsed_seconds)."""
    start = time.monotonic()
    op = job["op"]
    entry: Dict[str, Any] = {"index": index, "op": op}
    try:
        spec = OPS.get(op) if isinstance(op, str) else None
        if spec is None:
            raise ScenarioError(f"unknown op {op!r}")
        fields, layers = spec
        stray = sorted(set(job) - {"op", "expect", *fields})
        if stray:
            raise ScenarioError(f"job field {stray[0]!r} is not read by the "
                                f"op {op!r}")
        home = f"{__package__}.{layers[0]}" if layers else __name__
        module = sys.modules.get(home) or importlib.import_module(home)
        inputs, result, iterations, theorem_pass = getattr(
            module, f"_run_{op}")(ring, job)
        entry["inputs"] = inputs
        entry["status"] = "ok"
        entry["result"] = result
        entry["iterations"] = iterations
        entry["error"] = None
        verdicts = []
        if theorem_pass is not None:
            verdicts.append(bool(theorem_pass))
        if "expect" in job:
            verdicts.append(_expect_matches(job["expect"], result))
        entry["pass"] = all(verdicts) if verdicts else None
    except CharpError as exc:
        entry["inputs"] = {k: v for k, v in job.items() if k != "op"}
        entry["status"] = "error"
        entry["result"] = None
        entry["iterations"] = None
        entry["pass"] = False
        entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
    return entry, time.monotonic() - start


def execute(scenario: Scenario, caps: Caps = DEFAULT_CAPS) -> tuple:
    """Run all jobs in file order under the given caps; returns
    (machine report dict, timings list).

    This is the one engine entry that takes caps: the jobs run inside
    `caps_scope(caps)`, and the caps in force before come back when it
    returns or raises.  The machine report is fully deterministic;
    per-job wall times are returned separately for the human-readable
    rendering.
    """
    with caps_scope(caps):
        outcomes = [_execute_job(scenario.ring, i, job)
                    for i, job in enumerate(scenario.jobs)]
    entries = [entry for entry, _ in outcomes]
    timings = [elapsed for _, elapsed in outcomes]
    errors = sum(1 for e in entries if e["status"] == "error")
    failures = sum(1 for e in entries if e["pass"] is False)
    report = {
        "format": REPORT_FORMAT,
        "scenario": scenario.header,
        "jobs": entries,
        "summary": {"jobs": len(entries), "errors": errors,
                    "failures": failures,
                    "ok": errors == 0 and failures == 0},
    }
    return report, timings


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
