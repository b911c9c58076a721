"""Scenario runners of the projective ops: s0, bpf, separates, gg, thm46
and restrict.

This module is the scenario runner's one door to the projective layer:
it imports `proj`, and it registers nothing when it loads.
`scenario.OPS` names it as the first module each of these ops needs, so
`scenario.parse_scenario` imports it only for a scenario that holds one
of them, and a scenario of pair ops never loads `proj`; a job finds its
runner `_run_<op>` here by name.
"""

from __future__ import annotations

from .errors import ScenarioError
from .ideal import Ideal
from .proj import (ProjScheme, degree_bound_pipeline, is_base_point_free,
                   is_globally_generated, restriction_is_surjective,
                   separates, space_from_polys, stable_sections,
                   stable_sections_generate, trivial_pair)
from .ring import PolyRing
from .scenario import (_echo_pair, _field, _ideal_json, _integer,
                       _parse_pair, _polys, _require)


# -- job helpers -----------------------------------------------------------


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


def _stable_image(ring: PolyRing, job: dict, scheme: ProjScheme, m: int,
                  which: str, run) -> tuple:
    """The job's pair (by default the trivial pair), its `which` after
    the given default, and `run` (`stable_sections`, or for gg
    `stable_sections_generate`) on the scheme with them and the seed
    `c`, which only tau reads."""
    pair = _parse_pair(ring, job) if "pair" in job else trivial_pair(ring)
    which = job.get("which", which)
    _require(which == "tau" or "c" not in job,
             f"job field 'c' is read only with which 'tau', not {which!r}")
    c = _field(job, "c", ring.parse, None)
    return pair, which, run(scheme, pair, m, which, c)


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
        pair, which, result = _stable_image(ring, job, scheme, m, "sigma",
                                            stable_sections)
        space = result.space
        info = {"scheme": echo_scheme, "pair": _echo_pair(pair),
                "m": m, "which": which, "level": result.level,
                "source": "stable-image"}
    return scheme, space, info


# -- job runners ------------------------------------------------------------


def _run_s0(ring, job):
    scheme = _parse_scheme(ring, _field(job, "scheme"))
    m = _field(job, "m", _integer)
    pair, which, result = _stable_image(ring, job, scheme, m, "sigma",
                                        stable_sections)
    space = result.space
    full_dim = scheme.hilbert_function(m)
    out = {"dim": space.dim, "basis": [str(f) for f in space.basis],
           "level": result.level, "full_dim": full_dim,
           "complete": space.dim == full_dim}
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
    return (dict(info, ext_degree=k), out, info.get("level"), None)


def _run_gg(ring, job):
    m = _field(job, "m", _integer)
    if "ideal" in job:
        _refuse_beside(job, "ideal")
        ideal = Ideal(ring, _polys(ring, job, "ideal"))
        verdict = is_globally_generated(ideal, m)
        return ({"ideal": [str(g) for g in ideal.generators], "m": m},
                {"verdict": verdict}, None, None)
    pair, which, verdict = _stable_image(ring, job, _job_scheme(ring, job), m,
                                         "tau", stable_sections_generate)
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
    report = degree_bound_pipeline(points, form, l, e)
    result = {"delta": report.delta, "witness": str(report.witness),
              "witness_degree": report.witness_degree,
              "tau": _ideal_json(report.test_ideal),
              "multiplicities": report.multiplicities,
              "verdict": True}
    inputs = {"points": [list(P) for P in points], "A": str(form),
              "l": l, "e": e, "d": form.degree()}
    # the pipeline's two TheoremViolationErrors decide the verdict
    return (inputs, result, None, True)


def _run_restrict(ring, job):
    scheme = _job_scheme(ring, job)
    pair = _parse_pair(ring, job)
    center = Ideal(ring, _polys(ring, job, "I_Z"))
    m = _field(job, "m", _integer)
    verdict = restriction_is_surjective(scheme, pair, center, m)
    return ({"pair": _echo_pair(pair), "I_Z": [str(g) for g in center.generators],
             "m": m}, {"verdict": verdict}, None, verdict)

