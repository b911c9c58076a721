"""Scenario files: JSON job lists executed against the engine.

A scenario declares the ring in its header (characteristic, variable list,
monomial order) and lists jobs drawn from a fixed op registry.  Runs are
deterministic: the machine-readable report for a file is byte-identical
across runs (timings are reported on the human side only).

Job schema by op:
  sigma | tau | fpure | sfr    {"pair": {"f","a","e"}, ["c"]}
  compatible                   {"pair", "I_Z": [forms]}
  mult                         {"pair", "point": [residue|null,...], ["l"]}
  s0                           {"scheme", "m", ["pair"], ["which"], ["c"]}
  bpf | separates              {"scheme", ("forms" | s0 arguments),
                                ["ext_degree"]}
  gg                           {"scheme", "m", ("ideal" | "pair"+["which"])}
  thm46                        {["scheme"], "points", "A", "l", "e", ["d"]}
  restrict                     {"scheme", "pair", "I_Z", "m"}

Any job may carry "expect": a JSON fragment that must match the result
(recursive subset for objects, equality for leaves).  Ops that verify a
theorem (mult, thm46, restrict) pass exactly when the theorem holds.
A missing or malformed field, or one the job would ignore (c unless
which, after its default, is tau; pair, which or c beside forms or
ideal), fails its job with a ScenarioError naming the field; the other
jobs still run.  Integer fields (p, a, e, n, m, l,
d, ext_degree and point coordinates) take JSON integers only: a bool,
float or string is refused, never truncated.  thm46 works on P^n only,
so its scheme, when given, must have no hypersurfaces.  Top-level keys
other than the ring header and the job list are ignored.

Only separates and thm46 compute with numpy (ARRAY_OPS).  Parsing a
scenario that holds one of them loads the array layer (`linalg`,
`extfield`), so the import is paid before any job is timed; every other
scenario runs without numpy.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .config import Caps, DEFAULT_CAPS, caps_scope
from .errors import CharpError, ScenarioError
from .fsing import (PairDivisor, is_compatible, is_sharply_f_pure,
                    is_strongly_f_regular, multiplicity_containment,
                    sigma_chain, tau_chain)
from .ideal import Ideal
from .proj import (ProjScheme, degree_bound_pipeline,
                   is_base_point_free, is_globally_generated,
                   restriction_is_surjective, separates, space_from_polys,
                   stable_sections, stable_sections_generate, trivial_pair)
from .ring import PolyRing

REPORT_FORMAT = "charp-report-v1"


@dataclass
class Scenario:
    ring: PolyRing
    jobs: List[dict]
    header: Dict[str, Any] = field(default_factory=dict)


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
        _require(isinstance(job["op"], str) and job["op"] in JOB_REGISTRY,
                 f"{source}: job {i} has unknown op {job['op']!r}")
    if any(job["op"] in ARRAY_OPS for job in jobs):
        # load the array layer now, so the first such job's wall time
        # measures its work and not numpy's import
        from . import extfield, linalg  # noqa: F401
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


def _parse_pair(ring: PolyRing, spec: dict) -> PairDivisor:
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


def _parse_scheme(ring: PolyRing, spec: dict) -> ProjScheme:
    _require(isinstance(spec, dict), "scheme must be an object")
    n = _field(spec, "n", _integer, where="scheme")
    _require(n + 1 == ring.nvars,
             f"scheme n={n} needs {n + 1} variables, header declares "
             f"{ring.nvars}")
    return ProjScheme.from_forms(
        ring, _polys(ring, spec, "hypersurfaces", [], "scheme"))


def _job_scheme(ring: PolyRing, job: dict) -> ProjScheme:
    """The job's scheme, by default the whole projective space."""
    return _parse_scheme(ring, _field(job, "scheme",
                                      default={"n": ring.nvars - 1}))


def _pair_or_trivial(ring: PolyRing, job: dict) -> PairDivisor:
    if "pair" in job:
        return _parse_pair(ring, job["pair"])
    return trivial_pair(ring)


def _ideal_json(ideal: Ideal) -> list:
    return [str(g) for g in ideal.groebner_basis]


def _space_json(space) -> dict:
    return {"dim": space.dim, "basis": [str(f) for f in space.basis]}


def _echo_pair(pair: PairDivisor) -> dict:
    return {"f": str(pair.f), "a": pair.a, "e": pair.e}


def _point_tuple(raw: list) -> tuple:
    """A mult point: integer residues, None for a free direction."""
    if not isinstance(raw, list):
        raise TypeError("point must be a list of coordinates")
    return tuple(None if v is None else _integer(v) for v in raw)


def _which_and_seed(ring: PolyRing, job: dict, default: str) -> tuple:
    """`which`, after its default, and the seed `c`, read only by tau."""
    which = job.get("which", default)
    _require(which == "tau" or "c" not in job,
             f"job field 'c' is read only with which 'tau', not {which!r}")
    return which, _field(job, "c", ring.parse, None)


def _refuse_beside(job: dict, source: str):
    for key in ("pair", "which", "c"):
        _require(key not in job,
                 f"job field {key!r} is not read beside {source!r}")


def _subsystem_space(ring: PolyRing, job: dict):
    """Shared input handling for bpf/separates: an explicit span of
    forms, or the stable subsystem of a pair."""
    scheme = _job_scheme(ring, job)
    echo_scheme = {"n": scheme.n,
                   "hypersurfaces": [str(h) for h in scheme.forms]}
    m = _field(job, "m", _integer)
    if "forms" in job:
        _refuse_beside(job, "forms")
        polys = _polys(ring, job, "forms")
        space = space_from_polys(scheme.ideal, m, polys)
        info = {"scheme": echo_scheme, "m": m, "source": "forms",
                "forms": [str(f) for f in polys]}
    else:
        pair = _pair_or_trivial(ring, job)
        which, c = _which_and_seed(ring, job, "sigma")
        result = stable_sections(scheme, pair, m, which, c)
        space = result.space
        info = {"scheme": echo_scheme, "pair": _echo_pair(pair),
                "m": m, "which": which, "level": result.level,
                "source": "stable-image"}
    return scheme, space, info


# -- job runners ------------------------------------------------------------


def _run_sigma(ring, job):
    pair = _parse_pair(ring, _field(job, "pair"))
    chain = sigma_chain(pair)
    return ({"pair": _echo_pair(pair)},
            {"generators": _ideal_json(chain.ideal)}, chain.steps, None)


def _run_tau(ring, job):
    pair = _parse_pair(ring, _field(job, "pair"))
    c = _field(job, "c", ring.parse, None)
    chain = tau_chain(pair, c)
    inputs = {"pair": _echo_pair(pair)}
    if c is not None:
        inputs["c"] = str(c)
    return (inputs, {"generators": _ideal_json(chain.ideal)}, chain.steps, None)


def _run_fpure(ring, job):
    pair = _parse_pair(ring, _field(job, "pair"))
    verdict = is_sharply_f_pure(pair)
    return ({"pair": _echo_pair(pair)}, {"verdict": verdict}, None, None)


def _run_sfr(ring, job):
    pair = _parse_pair(ring, _field(job, "pair"))
    c = _field(job, "c", ring.parse, None)
    verdict = is_strongly_f_regular(pair, c)
    return ({"pair": _echo_pair(pair)}, {"verdict": verdict}, None, None)


def _run_compatible(ring, job):
    pair = _parse_pair(ring, _field(job, "pair"))
    center = Ideal(ring, _polys(ring, job, "I_Z"))
    verdict = is_compatible(center, pair)
    return ({"pair": _echo_pair(pair), "I_Z": [str(g) for g in center.generators]},
            {"verdict": verdict}, None, None)


def _run_mult(ring, job):
    pair = _parse_pair(ring, _field(job, "pair"))
    point = _field(job, "point", _point_tuple)
    l = _field(job, "l", _integer, None)
    report = multiplicity_containment(pair, point, l)
    result = {"multiplicity": str(report.pair_multiplicity),
              "codim": report.codim, "threshold": report.threshold,
              "verdict": report.holds}
    return ({"pair": _echo_pair(pair), "point": list(point)},
            result, None, report.holds)


def _run_s0(ring, job):
    scheme = _parse_scheme(ring, _field(job, "scheme"))
    pair = _pair_or_trivial(ring, job)
    which, c = _which_and_seed(ring, job, "sigma")
    m = _field(job, "m", _integer)
    result = stable_sections(scheme, pair, m, which, c)
    full_dim = scheme.hilbert_function(m)
    out = _space_json(result.space)
    out.update({"level": result.level, "full_dim": full_dim,
                "complete": result.space.dim == full_dim})
    return ({"pair": _echo_pair(pair), "m": m, "which": which}, out,
            result.level, None)


def _run_bpf(ring, job):
    scheme, space, info = _subsystem_space(ring, job)
    verdict = is_base_point_free(space)
    out = {"verdict": verdict, "dim": space.dim}
    return (info, out, info.get("level"), None)


def _run_separates(ring, job):
    scheme, space, info = _subsystem_space(ring, job)
    k = _field(job, "ext_degree", _integer, 1)
    report = separates(scheme, space, k)
    out = {"verdict": report.ok, "points": report.points_on_scheme,
           "pairs": report.pairs_checked, "tangents": report.tangents_checked,
           "failures": [{"kind": f.kind, "points": list(f.points),
                         "detail": f.detail} for f in report.failures],
           "coverage": report.coverage()}
    inputs = dict(info)
    inputs["ext_degree"] = k
    return (inputs, out, info.get("level"), None)


def _run_gg(ring, job):
    m = _field(job, "m", _integer)
    if "ideal" in job:
        _refuse_beside(job, "ideal")
        ideal = Ideal(ring, _polys(ring, job, "ideal"))
        verdict = is_globally_generated(ideal, m)
        return ({"ideal": [str(g) for g in ideal.generators], "m": m},
                {"verdict": verdict}, None, None)
    scheme = _job_scheme(ring, job)
    pair = _pair_or_trivial(ring, job)
    which, c = _which_and_seed(ring, job, "tau")
    verdict = stable_sections_generate(scheme, pair, m, which, c)
    return ({"pair": _echo_pair(pair), "m": m, "which": which},
            {"verdict": verdict}, None, None)


def _run_thm46(ring, job):
    # the bound lives on P^n: a scheme with hypersurfaces is refused
    # rather than answered for the whole space
    _require(not _job_scheme(ring, job).forms,
             "thm46 field 'scheme' must be projective space, with no "
             "hypersurfaces")
    points = _field(job, "points",
                    lambda raw: [tuple(map(_integer, P)) for P in raw])
    form = _field(job, "A", ring.parse)
    d = _field(job, "d", _integer, None)
    if d is not None and d != form.degree():
        raise ScenarioError(
            f"declared degree {job['d']} but A has degree {form.degree()}")
    l = _field(job, "l", _integer)
    e = _field(job, "e", _integer)
    report = degree_bound_pipeline(ring, points, form, l, e)
    result = {"delta": report.delta, "witness": str(report.witness),
              "witness_degree": report.witness_degree,
              "tau": _ideal_json(report.test_ideal),
              "multiplicities": report.multiplicities,
              "verdict": report.ok}
    inputs = {"points": [list(P) for P in points], "A": str(form),
              "l": l, "e": e, "d": form.degree()}
    return (inputs, result, None, report.ok)


def _run_restrict(ring, job):
    scheme = _job_scheme(ring, job)
    pair = _parse_pair(ring, _field(job, "pair"))
    center = Ideal(ring, _polys(ring, job, "I_Z"))
    m = _field(job, "m", _integer)
    verdict = restriction_is_surjective(scheme, pair, center, m)
    return ({"pair": _echo_pair(pair), "I_Z": [str(g) for g in center.generators],
             "m": m}, {"verdict": verdict}, None, verdict)


JOB_REGISTRY = {
    "sigma": _run_sigma,
    "tau": _run_tau,
    "fpure": _run_fpure,
    "sfr": _run_sfr,
    "compatible": _run_compatible,
    "mult": _run_mult,
    "s0": _run_s0,
    "bpf": _run_bpf,
    "separates": _run_separates,
    "gg": _run_gg,
    "thm46": _run_thm46,
    "restrict": _run_restrict,
}

# ops whose jobs compute with numpy (`linalg`, `extfield`); a scenario
# loads the array layer only when it holds one of them
ARRAY_OPS = frozenset({"separates", "thm46"})


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


def _run_job(ring: PolyRing, index: int, job: dict) -> tuple:
    """Returns (report_entry, elapsed_seconds)."""
    start = time.monotonic()
    entry: Dict[str, Any] = {"index": index, "op": job["op"]}
    try:
        inputs, result, iterations, theorem_pass = JOB_REGISTRY[job["op"]](
            ring, job)
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
        outcomes = [_run_job(scenario.ring, i, job)
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
