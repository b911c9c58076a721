"""Scenario parsing, deterministic reports, CLI contract, bundled suites."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from charp import extfield
from charp import scenario as scenario_module
from charp.cli import SUITE_DIRS, main, parse_caps, suite_scenarios
from charp.config import (DEFAULT_CAPS, SHOWN_BITS, Caps, current_caps,
                          shown)
from charp.errors import ScenarioError
from charp.fsing import PairDivisor
from charp.proj import ProjScheme
from charp.ring import PolyRing
from charp.scenario import (OPS, execute, load_scenario, parse_scenario,
                            report_to_json)

GOLDEN = Path(__file__).parent / "golden"


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASIC = {
    "p": 5,
    "vars": ["x"],
    "order": "grevlex",
    "jobs": [
        {"op": "sigma", "pair": {"f": "x", "a": 5, "e": 1},
         "expect": {"generators": ["x"]}},
        {"op": "tau", "pair": {"f": "x", "a": 4, "e": 1}},
    ],
}


def test_run_reports_results(tmp_path, capsys):
    path = write_scenario(tmp_path, BASIC)
    report_path = tmp_path / "out.json"
    code = main(["run", path, "--report", str(report_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "sigma" in text and "(x)" in text and "OK" in text
    report = json.loads(report_path.read_text())
    assert report["summary"]["ok"]
    assert report["jobs"][0]["result"]["generators"] == ["x"]
    assert report["jobs"][0]["pass"] is True
    assert report["jobs"][1]["pass"] is None
    assert report["jobs"][1]["result"]["generators"] == ["x"]


def test_reports_are_byte_identical(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, BASIC))
    first, _ = execute(scenario)
    second, _ = execute(scenario)
    assert report_to_json(first) == report_to_json(second)


def test_parallel_key_is_ignored(tmp_path):
    # "parallel" and "seed" are no longer options: like any unknown
    # top-level key they change nothing, not even the report header
    payload = dict(BASIC, jobs=BASIC["jobs"] * 3)
    flagged = dict(payload, parallel=True, seed=7)
    report, _ = execute(load_scenario(write_scenario(tmp_path, flagged)))
    assert [e["index"] for e in report["jobs"]] == list(range(6))
    plain, _ = execute(load_scenario(write_scenario(tmp_path, payload,
                                                    "plain.json")))
    assert report_to_json(report) == report_to_json(plain)


def test_execute_restores_the_caps(tmp_path, monkeypatch):
    payload = {"p": 5, "vars": ["x"],
               "jobs": [{"op": "sigma", "pair": {"f": "x", "a": 5, "e": 1}}]}
    scenario = load_scenario(write_scenario(tmp_path, payload))
    report, _ = execute(scenario, Caps(chain_steps=1))
    assert report["jobs"][0]["error"]["type"] == "ResourceError"
    assert current_caps() is DEFAULT_CAPS

    def crash(ring, job):
        assert current_caps() == Caps(chain_steps=1)
        raise RuntimeError("job crashed")

    monkeypatch.setattr(scenario_module, "_run_sigma", crash)
    with pytest.raises(RuntimeError):
        execute(scenario, Caps(chain_steps=1))
    assert current_caps() is DEFAULT_CAPS


def test_malformed_job_fields_fail_only_their_job(tmp_path):
    # a seed c is read only by a tau chain, after the op's default which,
    # so the pair ops that run no tau chain refuse it too; pair, which and
    # c change nothing beside explicit forms or an ideal, so each such
    # field fails its job like a malformed one, and so does any field
    # outside the op's schema
    scheme = {"n": 2}
    pair = {"f": "x", "a": 1, "e": 1}
    forms = ["x", "y", "z"]
    ignored = [({"op": "s0", "m": 1, "c": "x"}, "'c'"),
               ({"op": "s0", "m": 1, "which": "sigma", "c": "x"}, "'c'"),
               ({"op": "bpf", "m": 1, "pair": pair, "c": "x"}, "'c'"),
               ({"op": "separates", "m": 1, "c": "x"}, "'c'"),
               ({"op": "gg", "m": 1, "pair": pair, "which": "sigma",
                 "c": "x"}, "'c'"),
               ({"op": "bpf", "m": 1, "forms": forms, "pair": pair}, "'pair'"),
               ({"op": "separates", "m": 1, "forms": forms, "which": "tau"},
                "'which'"),
               ({"op": "bpf", "m": 1, "forms": forms, "c": "x"}, "'c'"),
               ({"op": "gg", "m": 1, "ideal": ["x", "y"], "pair": pair},
                "'pair'"),
               ({"op": "gg", "m": 1, "ideal": ["x", "y"], "which": "tau"},
                "'which'"),
               ({"op": "gg", "m": 1, "ideal": ["x", "y"], "c": "x"}, "'c'"),
               ({"op": "sigma", "pair": pair, "c": "x"}, "'c'"),
               ({"op": "fpure", "pair": pair, "c": "x"}, "'c'"),
               ({"op": "compatible", "pair": pair, "I_Z": ["x"], "c": "x"},
                "'c'"),
               ({"op": "mult", "pair": pair, "point": [0, None, None],
                 "c": "x"}, "'c'"),
               ({"op": "restrict", "pair": pair, "I_Z": ["x"], "m": 3,
                 "c": "x"}, "'c'")]
    # one field outside the schema for each op; the first two once ran
    # OK and echoed nothing of their stray fields, and of several stray
    # fields the first in sorted order is named
    points = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    stray = [({"op": "sigma", "pair": {"f": "x*y", "a": 4, "e": 1},
               "which": "tau", "m": 3}, "'m'"),
             ({"op": "thm46", "points": points, "A": "(x*y*z)^2", "l": 4,
               "e": 2, "c": "x"}, "'c'"),
             ({"op": "tau", "pair": pair, "m": 1}, "'m'"),
             ({"op": "fpure", "pair": pair, "scheme": scheme}, "'scheme'"),
             ({"op": "sfr", "pair": pair, "which": "tau"}, "'which'"),
             ({"op": "compatible", "pair": pair, "I_Z": ["x"],
               "point": [0, None, None]}, "'point'"),
             ({"op": "mult", "pair": pair, "point": [0, None, None],
               "I_Z": ["x"]}, "'I_Z'"),
             ({"op": "s0", "m": 1, "forms": forms}, "'forms'"),
             ({"op": "bpf", "m": 1, "ext_degree": 2}, "'ext_degree'"),
             ({"op": "separates", "m": 1, "ideal": ["x"]}, "'ideal'"),
             ({"op": "gg", "m": 1, "forms": forms}, "'forms'"),
             ({"op": "restrict", "pair": pair, "I_Z": ["x"], "m": 3,
               "which": "sigma"}, "'which'")]
    assert {job["op"] for job, _ in stray} == set(OPS)
    read = [{"op": "s0", "m": 1, "pair": pair, "which": "tau", "c": "x^2"},
            {"op": "gg", "m": 1, "pair": pair, "c": "x^2"},
            {"op": "bpf", "m": 1, "forms": forms},
            {"op": "gg", "m": 1, "ideal": ["x", "y"]},
            {"op": "tau", "pair": pair, "c": "x"},
            {"op": "sfr", "pair": pair, "c": "x"}]

    def placed(job):
        """The job on the plane when its op reads a scheme."""
        return dict(job, scheme=scheme) if OPS[job["op"]][1] else job

    refused_jobs = ignored + stray
    payload = {"p": 5, "vars": ["x", "y", "z"],
               "jobs": [{"op": "s0", "scheme": scheme},
                        {"op": "sigma", "pair": {"f": "x", "a": "z", "e": 1}},
                        {"op": "bpf", "m": 1, "forms": "xy"},
                        {"op": "s0", "scheme": scheme, "m": 1}]
               + [placed(job) for job, _ in refused_jobs]
               + [placed(job) for job in read]}
    report, _ = execute(load_scenario(write_scenario(tmp_path, payload)))
    missing, malformed, not_a_list, fine = report["jobs"][:4]
    refused = [(missing, "'m'"), (malformed, "'a'"), (not_a_list, "'forms'")]
    refused += [(entry, name) for entry, (_, name)
                in zip(report["jobs"][4:], refused_jobs)]
    for entry, name in refused:
        assert entry["status"] == "error", entry["inputs"]
        assert entry["error"]["type"] == "ScenarioError", entry["inputs"]
        assert name in entry["error"]["message"], entry["inputs"]
    first_stray = report["jobs"][4 + len(ignored)]
    assert first_stray["error"]["message"] \
        == "job field 'm' is not read by the op 'sigma'"
    # the refused job's inputs echo its fields, the stray ones included
    assert first_stray["inputs"] == {key: value for key, value
                                     in stray[0][0].items() if key != "op"}
    assert fine["status"] == "ok" and fine["result"]["dim"] == 3
    assert all(entry["status"] == "ok"
               for entry in report["jobs"][4 + len(refused_jobs):])


def test_empty_job_list_exits_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, {"p": 5, "vars": ["x"], "jobs": []})
    assert main(["run", path]) == 0
    assert "0 errors" in capsys.readouterr().out


def test_failed_expectation_sets_exit_code(tmp_path, capsys):
    payload = {"p": 5, "vars": ["x"],
               "jobs": [{"op": "sigma", "pair": {"f": "x", "a": 5, "e": 1},
                         "expect": {"generators": ["1"]}}]}
    assert main(["run", write_scenario(tmp_path, payload)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_job_error_is_structured(tmp_path):
    payload = {"p": 5, "vars": ["x"],
               "jobs": [{"op": "tau", "pair": {"f": "0", "a": 1, "e": 1}}]}
    scenario = load_scenario(write_scenario(tmp_path, payload))
    report, _ = execute(scenario)
    entry = report["jobs"][0]
    assert entry["status"] == "error"
    assert entry["error"]["type"] == "DomainError"
    assert not report["summary"]["ok"]


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"p": 5,\n  "vars": ["x"],\n  jobs: []}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "line 3" in str(err.value)


def test_header_validation():
    with pytest.raises(ScenarioError):
        parse_scenario({"vars": ["x"], "jobs": []})
    with pytest.raises(ScenarioError):
        parse_scenario({"p": 6, "vars": ["x"], "jobs": []})
    with pytest.raises(ScenarioError):
        parse_scenario({"p": "five", "vars": ["x"], "jobs": []})
    with pytest.raises(ScenarioError):
        parse_scenario({"p": 5, "vars": ["x"], "order": "lex", "jobs": []})
    with pytest.raises(ScenarioError):
        parse_scenario({"p": 5, "vars": ["x"],
                        "jobs": [{"op": "frobnicate"}]})
    with pytest.raises(ScenarioError, match="unknown op"):
        parse_scenario({"p": 5, "vars": ["x"], "jobs": [{"op": ["sigma"]}]})


def test_polynomial_parse_error_reported_per_job(tmp_path):
    payload = {"p": 5, "vars": ["x"],
               "jobs": [{"op": "sigma", "pair": {"f": "x + w", "a": 1,
                                                 "e": 1}}]}
    report, _ = execute(load_scenario(write_scenario(tmp_path, payload)))
    assert report["jobs"][0]["error"]["type"] == "ParseError"
    assert "column" in report["jobs"][0]["error"]["message"]


@pytest.mark.parametrize("text", ["(" * 2000 + "x" + ")" * 2000, "-" * 3000 + "x"])
def test_deep_nesting_fails_its_job_only(text):
    # a RecursionError is no CharpError: it would end the whole run
    report, _ = execute(parse_scenario(
        {"p": 5, "vars": ["x"],
         "jobs": [{"op": "sigma", "pair": {"f": text, "a": 1, "e": 1}},
                  {"op": "sigma", "pair": {"f": "x", "a": 5, "e": 1}}]}))
    bad, good = report["jobs"]
    assert bad["status"] == "error" and bad["error"] == {
        "type": "ParseError",
        "message": "nesting deeper than 100 levels at column 101"}
    assert good["status"] == "ok" and good["result"] == {"generators": ["x"]}


def test_degree_cap_binds_on_the_inputs_of_a_completion():
    # the first image of these chains is one generator of degree 2047 or
    # 511, which needs no S-polynomial: unchecked, a = 4095 ran for
    # minutes and a = 1023 answered a generator of degree 1022
    report, timings = execute(parse_scenario(
        {"p": 2, "vars": ["x", "y"],
         "jobs": [{"op": "sigma", "pair": {"f": "x+y", "a": 4095, "e": 1}},
                  {"op": "sigma", "pair": {"f": "x+y", "a": 1023, "e": 1}},
                  {"op": "sigma", "pair": {"f": "x*y", "a": 3, "e": 1}}]}))
    *refused, good = report["jobs"]
    for entry, degree, elapsed in zip(refused, (2047, 511), timings):
        assert entry["status"] == "error" and entry["error"] == {
            "type": "ResourceError",
            "message": "resource cap max_degree=64 exceeded: generator of "
                       f"degree {degree}"}
        assert elapsed < 1.0
    assert good["status"] == "ok" and good["result"] == {"generators": ["x^2*y^2"]}


def execute_with_bounded_memory(payload, limit=1536 << 20):
    """Run `execute` on the scenario in a child process whose address
    space is capped (1.5 GB by default); returns (report, timings), or
    fails the test with the child's error output.  A job that builds a
    huge piece or power fails there instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    code = (
        "import json, resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from charp.scenario import execute, parse_scenario\n"
        "print(json.dumps(execute(parse_scenario(json.load(sys.stdin)))))\n")
    env = {"PATH": "", "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", code], input=json.dumps(payload),
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_degree_cap_refuses_f_power_and_seed_before_forming_them():
    # f^a (first three) and the default test element f^2047 (fourth) are
    # refused before they are formed: the chains' completions refused
    # them only after 40.6 s, 4.3 s and 4.3 s.  The compatible job has
    # no generator to complete and once answered True after forming f^a
    jobs = [{"op": "sigma", "pair": {"f": "x+y+z", "a": 16383, "e": 1}},
            {"op": "sigma", "pair": {"f": "x+y+z", "a": 4095, "e": 1}},
            {"op": "compatible", "pair": {"f": "x+y+z", "a": 16383, "e": 1},
             "I_Z": []},
            {"op": "tau", "pair": {"f": "x+y", "a": 2047, "e": 1}},
            {"op": "sigma", "pair": {"f": "x*y", "a": 3, "e": 1}}]
    report, timings = execute_with_bounded_memory(
        {"p": 2, "vars": ["x", "y", "z"], "jobs": jobs})
    *refused, good = report["jobs"]
    for entry, degree, elapsed in zip(refused, (8190, 2046, 8190, 2047),
                                      timings):
        assert entry["status"] == "error" and entry["error"] == {
            "type": "ResourceError",
            "message": "resource cap max_degree=64 exceeded: generator of "
                       f"degree {degree}"}
        assert elapsed < 1.0
    assert good["status"] == "ok" and good["result"] == {"generators": ["x^2*y^2"]}


def test_degree_cap_refuses_large_graded_pieces():
    # every op that reads a graded piece refuses one above max_degree at
    # once, as bpf and gg already did in their completions; the s0 piece
    # at m = 200 once allocated about 3.3 GB, and spans of explicit forms
    # of degree 200 (each power within the cap) were once accepted
    scheme = {"n": 2}
    pair = {"f": "x", "a": 4, "e": 1}  # (x) is a compatible center
    forms = ["x^64*y^64*z^64*x^8", "y^64*z^64*x^64*y^8"]
    jobs = [{"op": "s0", "scheme": scheme, "m": 200},
            {"op": "separates", "scheme": scheme, "m": 200},
            {"op": "bpf", "scheme": scheme, "forms": forms, "m": 200},
            {"op": "separates", "scheme": scheme, "forms": forms, "m": 200},
            {"op": "restrict", "scheme": scheme, "pair": pair, "I_Z": ["x"],
             "m": 200},
            {"op": "bpf", "scheme": scheme, "m": 200},
            {"op": "gg", "scheme": scheme, "m": 200},
            {"op": "gg", "ideal": ["x"], "m": 200},
            {"op": "s0", "scheme": scheme, "m": 64}]
    report, timings = execute_with_bounded_memory(
        {"p": 5, "vars": ["x", "y", "z"], "jobs": jobs})
    *refused, good = report["jobs"]
    for entry, elapsed in zip(refused, timings):
        assert entry["status"] == "error", entry
        assert entry["error"]["type"] == "ResourceError"
        assert entry["error"]["message"].startswith(
            "resource cap max_degree=64 exceeded"), entry
        assert elapsed < 1.0
    for entry in (refused[0], *refused[2:4]):
        assert entry["error"]["message"].endswith("graded piece of degree 200")
    assert good["status"] == "ok" and good["result"]["dim"] == 2145


def test_large_graded_piece_runs_in_bounded_memory():
    # the degree-45 piece of F_5[x, y, z, w] has 17296 monomials; built
    # as a dense matrix it let a MemoryError escape `execute` under the
    # same 1.5 GB address-space limit
    report, _ = execute_with_bounded_memory(
        {"p": 5, "vars": ["x", "y", "z", "w"],
         "jobs": [{"op": "s0", "scheme": {"n": 3}, "m": 45},
                  {"op": "sigma", "pair": {"f": "x*y", "a": 3, "e": 1}}]})
    s0, sigma = report["jobs"]
    assert s0["status"] == "ok" and s0["result"]["complete"] is True
    assert s0["result"]["dim"] == s0["result"]["full_dim"] == 17296
    assert sigma["status"] == "ok" and sigma["result"] == {"generators": ["1"]}


def test_piece_cap_refuses_large_pieces_by_their_count():
    # the degree-30 piece of F_5[x0, ..., x7] has C(37, 7) = 10295472
    # monomials; enumerating them let a MemoryError escape `execute`
    # under the same 1.5 GB address-space limit, and the next job never
    # ran.  Each op that reads a piece refuses it at once by its count
    scheme = {"n": 7}
    jobs = [{"op": "s0", "scheme": scheme, "m": 30},
            {"op": "bpf", "scheme": scheme, "forms": ["x0^30"], "m": 30},
            {"op": "gg", "ideal": ["x0"], "m": 30},
            {"op": "s0", "scheme": scheme, "m": 3}]
    report, timings = execute_with_bounded_memory(
        {"p": 5, "vars": [f"x{i}" for i in range(8)], "jobs": jobs})
    *refused, good = report["jobs"]
    for entry, elapsed in zip(refused, timings):
        assert entry["status"] == "error", entry
        assert entry["error"] == {
            "type": "ResourceError",
            "message": "resource cap max_piece=1000000 exceeded: graded "
                       "piece of degree 30 in 8 variables has 10295472 "
                       "monomials"}
        assert elapsed < 1.0
    assert good["status"] == "ok" and good["result"]["dim"] == 120


@pytest.mark.parametrize("names", ["xy", "x_y", {"x": 1, "y": 2}, ["x", 2],
                                   None, 3])
def test_header_variables_must_be_a_list_of_names(names):
    # a string once ran over one variable per character (or one name with
    # underscores), and an object's keys became the variables
    with pytest.raises(ScenarioError, match="'vars'"):
        parse_scenario({"p": 5, "vars": names, "jobs": []})
    assert parse_scenario({"p": 5, "vars": ["x", "y"],
                           "jobs": []}).ring.variables == ("x", "y")


def test_power_in_polynomial_text_is_capped():
    # (x+y+z)^200 once took 27 s to expand; its degree is refused first
    report, timings = execute(parse_scenario(
        {"p": 5, "vars": ["x", "y", "z"],
         "jobs": [{"op": "sigma", "pair": {"f": "(x+y+z)^200", "a": 1, "e": 1}},
                  {"op": "sigma", "pair": {"f": "x^64", "a": 1, "e": 1}}]}))
    bad, good = report["jobs"]
    assert bad["status"] == "error" and bad["error"] == {
        "type": "ResourceError",
        "message": "resource cap max_degree=64 exceeded: power of degree 200 "
                   "at column 8"}
    assert timings[0] < 1.0
    assert good["status"] == "ok" and good["result"] == {"generators": ["x^15"]}


def test_caps_parsing_and_validation():
    caps = parse_caps("degree=32,steps=16,max_basis=100")
    assert caps.max_degree == 32 and caps.chain_steps == 16
    assert caps.max_basis == 100
    with pytest.raises(ScenarioError):
        parse_caps("degree=fast")
    with pytest.raises(ScenarioError):
        parse_caps("nope=3")
    with pytest.raises(ScenarioError):
        parse_caps("saturation_steps=3")
    with pytest.raises(ScenarioError):
        parse_caps("degree=-1")
    # the stable-image level cap is gone: its chains are bounded by steps
    for retired in ("levels=2", "image_levels=2"):
        with pytest.raises(ScenarioError):
            parse_caps(retired)


def test_value_types_compare_by_fields_and_refuse_assignment():
    ring, twin = PolyRing(("x", "y"), 5), PolyRing(("x", "y"), 5)
    line = ring.parse("x*y")
    cases = [(Caps(max_degree=8), Caps(8), Caps(max_degree=9)),
             (ring, twin, PolyRing(("x", "y"), 7)),
             (PairDivisor(line, 4, 1), PairDivisor(twin.parse("x*y"), 4, 1),
              PairDivisor(line, 4, 2)),
             (ProjScheme.projective_space(ring), ProjScheme(twin, ()),
              ProjScheme.from_forms(ring, [ring.gen(0)]))]
    for value, equal, other in cases:
        assert value is not equal and value == equal
        assert hash(value) == hash(equal)
        assert value != other and len({value, equal, other}) == 2
        assert value != ring.one() and value != ()
        for name in type(value).FIELDS + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(other, name, 1))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == equal and not hasattr(value, "extra")
        assert repr(value).startswith(type(value).__name__ + "(")
    # the cached properties still fill the instance dict
    scheme = ProjScheme.from_forms(ring, [ring.gen(0)])
    assert scheme.hilbert_numerator is scheme.hilbert_numerator
    assert PairDivisor(line, 1, 1).multiplier is line
    # the caps' names, their defaults and the overrides built from them
    assert Caps.FIELDS == ("max_degree", "max_basis", "chain_steps",
                           "frobenius_block", "ext_degree", "max_piece")
    assert [getattr(DEFAULT_CAPS, name) for name in Caps.FIELDS] \
        == [64, 512, 64, 256, 3, 1_000_000]
    lower = DEFAULT_CAPS.with_overrides(max_degree=8, max_piece=10)
    assert lower == Caps(max_degree=8, max_piece=10) != DEFAULT_CAPS
    assert DEFAULT_CAPS == Caps()
    with pytest.raises(ValueError) as refused:
        DEFAULT_CAPS.with_overrides(nope=1, max_basis=2, also=3)
    assert str(refused.value) == "unknown cap names: ['also', 'nope']"
    assert parse_caps(None) is DEFAULT_CAPS
    assert parse_caps("degree=8,max_piece=10") == lower
    with pytest.raises(ScenarioError) as refused:
        parse_caps("nope=3")
    assert str(refused.value) == "unknown cap names: ['nope']"


# the thm46 job whose coefficient rounding once read the frobenius_block
# cap in force: under frobenius_block=8 it reported a false theorem
# violation instead of failing on the cap
THM46_F3 = {"p": 3, "vars": ["x", "y", "z"],
            "jobs": [{"op": "thm46", "points": [[0, 0, 1]], "A": "x^4*y^4",
                      "l": 4, "e": 1}]}


def test_lower_caps_fail_loudly_or_change_nothing():
    """Every cap set to each of 1, 2, 4, 8, 16 below its default: each
    job of the bundled suites and of THM46_F3 reports exactly what it
    reports under the defaults, or fails with a ResourceError naming
    that cap."""
    scenarios = [parse_scenario(THM46_F3)]
    for suite in SUITE_DIRS:
        for _, entry in suite_scenarios(suite):
            with resources.as_file(entry) as concrete:
                scenarios.append(load_scenario(str(concrete)))
    defaults = [execute(scenario)[0]["jobs"] for scenario in scenarios]
    assert all(job["status"] == "ok" for jobs in defaults for job in jobs)
    settings = [(name, value) for name in Caps.FIELDS
                for value in (1, 2, 4, 8, 16)
                if value < getattr(DEFAULT_CAPS, name)]
    assert len(settings) == 27
    fired = set()
    for name, value in settings:
        caps = DEFAULT_CAPS.with_overrides(**{name: value})
        for scenario, want in zip(scenarios, defaults):
            for got, default in zip(execute(scenario, caps)[0]["jobs"], want):
                if got == default:
                    continue
                error = got["error"] or {}
                assert (error.get("type") == "ResourceError" and
                        f"resource cap {name}={value} " in error["message"]), (
                    name, value, got)
                fired.add(name)
    # each cap fires on some job at some value, so each one is exercised
    assert fired == set(Caps.FIELDS)


def test_caps_flow_into_jobs(tmp_path, capsys):
    payload = {"p": 5, "vars": ["x"],
               "jobs": [{"op": "sigma", "pair": {"f": "x", "a": 5, "e": 1}}]}
    path = write_scenario(tmp_path, payload)
    assert main(["run", path, "--caps", "steps=1"]) == 1
    out = capsys.readouterr().out
    assert "ResourceError" in out and "chain_steps=1" in out


def test_basis_cap_binds_inside_a_stable_image_job(tmp_path, capsys):
    payload = {"p": 5, "vars": ["x", "y", "z"],
               "jobs": [{"op": "s0", "m": 1,
                         "scheme": {"n": 2, "hypersurfaces": ["x^3+y^3+z^3"]}}]}
    path = write_scenario(tmp_path, payload)
    assert main(["run", path, "--caps", "basis=1"]) == 1
    out = capsys.readouterr().out
    assert "ResourceError" in out and "max_basis=1" in out
    assert main(["run", path]) == 0
    assert "dim 3" in capsys.readouterr().out


def test_extension_degree_cap_fails_a_separation_job(tmp_path, capsys):
    payload = {"p": 5, "vars": ["x", "y", "z"],
               "jobs": [{"op": "separates", "m": 1, "ext_degree": 2,
                         "scheme": {"n": 2, "hypersurfaces": ["x^3+y^3+z^3"]}}]}
    path = write_scenario(tmp_path, payload)
    report_path = tmp_path / "report.json"
    assert main(["run", path, "--caps", "ext_degree=1",
                 "--report", str(report_path)]) == 1
    assert "ResourceError" in capsys.readouterr().out
    error = json.loads(report_path.read_text())["jobs"][0]["error"]
    assert error["type"] == "ResourceError"
    assert "ext_degree=1" in error["message"]
    assert main(["run", path]) == 0


def test_point_count_refuses_a_separation_job(tmp_path, monkeypatch):
    # a curve in P^3 over F_(251^2) passes the order and degree caps, but
    # has (q^4 - 1)/(q - 1) projective points to walk: refused at once,
    # before the field's tables are built
    def no_tables(p, k):
        raise AssertionError(f"F_({p}^{k}) tables built")

    monkeypatch.setattr(extfield, "ExtField", no_tables)
    payload = {"p": 251, "vars": ["x", "y", "z", "w"],
               "jobs": [{"op": "separates", "m": 1, "ext_degree": 2,
                         "forms": ["x", "y", "z", "w"],
                         "scheme": {"n": 3, "hypersurfaces": [
                             "x*w-y*z", "x^2+y^2+z^2+w^2"]}}]}
    start = time.monotonic()
    report, _ = execute(load_scenario(write_scenario(tmp_path, payload)))
    assert time.monotonic() - start < 1
    error = report["jobs"][0]["error"]
    assert error["type"] == "DomainError"
    q = 251 ** 2
    assert str((q ** 4 - 1) // (q - 1)) in error["message"]
    assert str(extfield.MAX_POINTS) in error["message"]


def _f16_mul(a, b):
    """Product in F_16 = F_2[t]/(t^4 + t + 1), elements as 4-bit masks."""
    out = 0
    for i in range(4):
        if b >> i & 1:
            out ^= a << i
    for i in (6, 5, 4):
        if out >> i & 1:
            out ^= 0b10011 << (i - 4)
    return out


def test_separation_job_over_f16_counts_every_point(tmp_path, capsys):
    # the Fermat cubic over F_2 sampled over F_(2^4), once the cap allows it
    payload = {"p": 2, "vars": ["x", "y", "z"],
               "jobs": [{"op": "separates", "m": 1, "ext_degree": 4,
                         "scheme": {"n": 2, "hypersurfaces": ["x^3+y^3+z^3"]}}]}
    path = write_scenario(tmp_path, payload)
    report_path = tmp_path / "report.json"
    assert main(["run", path, "--caps", "ext_degree=4",
                 "--report", str(report_path)]) == 0
    result = json.loads(report_path.read_text())["jobs"][0]["result"]
    cube = [_f16_mul(v, _f16_mul(v, v)) for v in range(16)]
    affine = sum(1 for x in range(16) for y in range(16) for z in range(16)
                 if (x, y, z) != (0, 0, 0) and cube[x] ^ cube[y] ^ cube[z] == 0)
    assert result["verdict"] is True
    assert result["points"] == affine // 15 == 9
    assert main(["run", path]) == 1  # above the default cap
    capsys.readouterr()


def test_unknown_suite_exits_two(capsys):
    assert main(["suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["run", "/nonexistent/scenario.json"]) == 2
    # a directory, a file that is not UTF-8 and a report path inside a
    # directory are usage problems too, not failed jobs
    assert main(["run", str(tmp_path)]) == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"p": 5, "vars": ["\xe9"], "jobs": []}')
    assert main(["run", str(latin)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    path = write_scenario(tmp_path, BASIC)
    assert main(["run", path, "--report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("charp: ") and "Traceback" not in err


def test_a_level_too_large_to_print_fails_only_its_job(tmp_path, capsys):
    # over F_5, p^e at e = 7000 has 4893 digits, more than Python turns
    # into a string; the job is refused with the level named as a power,
    # and the report keeps every job's entry
    payload = {"p": 5, "vars": ["x", "y"],
               "jobs": [{"op": "sigma", "pair": {"f": "x", "a": 1, "e": 7000}},
                        {"op": "sigma", "pair": {"f": "x", "a": 1, "e": 4}},
                        {"op": "sigma", "pair": {"f": "x", "a": 5, "e": 1}}]}
    report_path = tmp_path / "out.json"
    assert main(["run", write_scenario(tmp_path, payload),
                 "--report", str(report_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    huge, small, fine = json.loads(report_path.read_text())["jobs"]
    cap = "resource cap frobenius_block=256 exceeded: p^e = "
    assert huge["error"] == {"type": "ResourceError",
                             "message": cap + "5^7000"}
    assert small["error"] == {"type": "ResourceError", "message": cap + "625"}
    assert fine["status"] == "ok" and fine["result"]["generators"] == ["x"]


HUGE = int("9" * 4300)  # the longest integer a scenario file can hold


def test_a_degree_too_large_to_print_fails_only_its_job():
    # over F_5 the generator degree bound of f^a for f = x^20 and a of
    # 4300 nines is about 4 * 10^4300, more digits than Python turns into
    # a string: the job fails with its degree shown as a power of ten,
    # and the next job still runs
    jobs = [{"op": "sigma", "pair": {"f": "x^20", "a": HUGE, "e": 1}},
            {"op": "sigma", "pair": {"f": "x*y", "a": 1, "e": 1}}]
    report, _ = execute(scenario_module.Scenario(PolyRing(("x", "y"), 5),
                                                 jobs))
    huge, plain = report["jobs"]
    assert huge["error"] == {
        "type": "ResourceError",
        "message": "resource cap max_degree=64 exceeded: generator of "
                   "degree ~10^4300"}
    assert plain["status"] == "ok"


def test_a_multiplicity_too_large_to_print_fails_only_its_job(tmp_path,
                                                              capsys):
    # over F_41 the divisor multiplicity of (x^7, a, 1) at the line x = 0
    # is 7a/40, whose numerator has 4301 digits for a of 4300 nines;
    # through the CLI the report keeps every entry and the run exits 1
    payload = {"p": 41, "vars": ["x", "y"],
               "jobs": [{"op": "mult", "pair": {"f": "x^7", "a": HUGE, "e": 1},
                         "point": [0, None], "l": HUGE},
                        {"op": "sigma", "pair": {"f": "x^20", "a": HUGE,
                                                 "e": 1}},
                        {"op": "sigma", "pair": {"f": "x*y", "a": 1, "e": 1}}]}
    report_path = tmp_path / "out.json"
    assert main(["run", write_scenario(tmp_path, payload),
                 "--report", str(report_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    mult, sigma, plain = json.loads(report_path.read_text())["jobs"]
    assert mult["error"] == {
        "type": "PreconditionError",
        "message": "divisor multiplicity ~10^4300/40 at (0, None) is below "
                   "the threshold ~10^4300"}
    assert sigma["error"]["type"] == "ResourceError"
    assert sigma["error"]["message"].endswith("generator of degree ~10^4299")
    assert plain["status"] == "ok"


def test_shown_prints_decimal_up_to_its_bound():
    assert shown(-625) == "-625" and shown(Fraction(3, 4)) == "3/4"
    assert shown(Fraction(8, 1)) == "8"
    edge = (1 << SHOWN_BITS) - 1
    assert shown(edge) == str(edge) and shown(-edge) == str(-edge)
    assert shown(10 ** 5000) == "~10^5000"
    assert shown(-3 * 10 ** 5000) == "-~10^5000"
    assert shown(Fraction(7 * 10 ** 5000 + 1, 40)) == "~10^5000/40"


def test_a_huge_level_is_refused_before_p_to_the_e_is_formed(tmp_path):
    # 5^(10^9) would take about 290 MB and minutes to form
    payload = {"p": 5, "vars": ["x", "y"],
               "jobs": [{"op": op, "pair": {"f": "x", "a": 1, "e": 10 ** 9},
                         **extra}
                        for op, extra in (("sigma", {}), ("tau", {}),
                                          ("mult", {"point": [0, None]}))]}
    report_path = tmp_path / "out.json"
    start = time.monotonic()
    assert main(["run", write_scenario(tmp_path, payload),
                 "--report", str(report_path)]) == 1
    assert time.monotonic() - start < 1
    for entry in json.loads(report_path.read_text())["jobs"]:
        assert entry["error"]["message"].endswith("p^e = 5^1000000000")


def test_an_integer_too_long_to_read_exits_two(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"p": 5, "vars": ["x"], "jobs": [{"op": "sigma", '
                    '"pair": {"f": "x", "a": ' + "1" * 5000 + ', "e": 1}}]}')
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"charp: {path}: ") and "5000 digits" in err
    assert "Traceback" not in err
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_readme_library_example_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["(x, y)", "3"]


def test_smoke_suite_passes(capsys):
    assert main(["suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "suite smoke: PASS" in out


def test_console_entry_point(tmp_path):
    path = write_scenario(tmp_path, BASIC)
    proc = subprocess.run([sys.executable, "-m", "charp.cli", "run", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "OK" in proc.stdout


def test_gg_refuses_a_negative_twist(tmp_path):
    # the ideal form of gg refuses m < 0 in the words of its pair form
    # and of bpf, also for the zero ideal
    payload = {"p": 5, "vars": ["x", "y", "z"],
               "jobs": [{"op": "gg", "ideal": ["x", "y"], "m": -1},
                        {"op": "gg", "ideal": ["0"], "m": -1},
                        {"op": "gg", "scheme": {"n": 2}, "m": -1},
                        {"op": "bpf", "scheme": {"n": 2}, "m": -1},
                        {"op": "gg", "ideal": ["x", "y"], "m": 0}]}
    report, _ = execute(load_scenario(write_scenario(tmp_path, payload)))
    *refused, fine = report["jobs"]
    for entry in refused:
        assert entry["status"] == "error"
        assert entry["error"] == {"type": "DomainError", "message":
                                  "target degree must be >= 0, got -1"}
    assert fine["status"] == "ok" and fine["result"]["verdict"] is False


def test_fpt_scan_script_help_and_errors():
    script = Path(__file__).parent.parent / "scripts" / "fpt_scan.py"

    def run(*args):
        return subprocess.run([sys.executable, str(script), *args],
                              capture_output=True, text=True)

    for flag in ("-h", "--help"):
        proc = run(flag)
        assert proc.returncode == 0 and "Usage:" in proc.stdout
    for args, message in ((("x^2+y^3", "4"), "characteristic must be a prime"),
                          (("x^2+w", "5"), "unknown variable 'w'"),
                          (("x^2", "five"), "'five'")):
        proc = run(*args)
        assert proc.returncode == 2, args
        assert message in proc.stderr and "Traceback" not in proc.stderr
    proc = run("x^2+y^3", "5")
    assert proc.returncode == 0 and "jump" in proc.stdout


def test_fpt_scan_default_output_matches_golden():
    """The script's default scan (the cusp over F_5, F_7, F_11, F_13)
    matches the checked-in golden output byte for byte."""
    script = Path(__file__).parent.parent / "scripts" / "fpt_scan.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / "fpt_scan_default.txt").read_bytes()


def test_golden_report(tmp_path):
    """The machine report for a frozen scenario matches the checked-in
    golden file byte for byte."""
    golden_scenario = GOLDEN / "basic_scenario.json"
    golden_report = GOLDEN / "basic_report.json"
    scenario = load_scenario(str(golden_scenario))
    report, _ = execute(scenario)
    assert report_to_json(report) == golden_report.read_text()


@pytest.mark.parametrize("suite, golden", [
    ("paper-repro", "paper_repro_report.json"),
    ("smoke", "smoke_report.json"),
])
def test_suite_report_matches_golden(suite, golden, tmp_path, capsys):
    """The aggregated report of each bundled suite matches the checked-in
    golden file byte for byte."""
    report_path = tmp_path / "report.json"
    assert main(["suite", suite, "--report", str(report_path)]) == 0
    assert report_path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_scheme_header_mismatch(tmp_path):
    payload = {"p": 5, "vars": ["x", "y"],
               "jobs": [{"op": "s0", "scheme": {"n": 2}, "m": 1}]}
    report, _ = execute(load_scenario(write_scenario(tmp_path, payload)))
    assert report["jobs"][0]["status"] == "error"


_THM46 = {"op": "thm46", "scheme": {"n": 2},
          "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          "A": "(x*y*z)^2", "l": 4, "e": 2}


def _with(job, **fields):
    out = dict(job)
    out.update(fields)
    return out


@pytest.mark.parametrize("job, name", [
    ({"op": "sigma", "pair": {"f": "x", "a": 5.9, "e": 1}}, "'a'"),
    ({"op": "sigma", "pair": {"f": "x", "a": 5, "e": True}}, "'e'"),
    ({"op": "tau", "pair": {"f": "x", "a": "4", "e": 1}}, "'a'"),
    ({"op": "mult", "pair": {"f": "x^2", "a": 4, "e": 1},
      "point": [0, None, None], "l": 1.7}, "'l'"),
    ({"op": "mult", "pair": {"f": "x^2", "a": 4, "e": 1},
      "point": [0.5, None, None]}, "'point'"),
    ({"op": "mult", "pair": {"f": "x^2", "a": 4, "e": 1},
      "point": [False, None, None]}, "'point'"),
    ({"op": "s0", "scheme": {"n": 2}, "m": 1.7}, "'m'"),
    ({"op": "s0", "scheme": {"n": 2.0}, "m": 1}, "'n'"),
    ({"op": "gg", "m": True, "ideal": ["x"]}, "'m'"),
    ({"op": "separates", "scheme": {"n": 2, "hypersurfaces": ["x^3+y^3+z^3"]},
      "m": 1, "ext_degree": 1.0}, "'ext_degree'"),
    (_with(_THM46, points=[[0.5, 0, 1]]), "'points'"),
    (_with(_THM46, points=[[1, 0, 0], [0, True, 0]]), "'points'"),
    (_with(_THM46, l=4.0), "'l'"),
    (_with(_THM46, e="2"), "'e'"),
    (_with(_THM46, d=6.0), "'d'"),
])
def test_integer_fields_take_json_integers_only(job, name):
    # a bool, float or string in an integer field fails its job and names
    # the field instead of running on a truncated value
    scenario = parse_scenario({"p": 7, "vars": ["x", "y", "z"], "jobs": [job]})
    entry = execute(scenario)[0]["jobs"][0]
    assert entry["status"] == "error", entry
    assert entry["error"]["type"] == "ScenarioError"
    assert name in entry["error"]["message"]


@pytest.mark.parametrize("p", [7.9, 7.0, True, "7"])
def test_header_characteristic_takes_a_json_integer_only(p):
    with pytest.raises(ScenarioError, match="'p'"):
        parse_scenario({"p": p, "vars": ["x"], "jobs": []})
    assert parse_scenario({"p": 7, "vars": ["x"], "jobs": []}).ring.p == 7


def test_thm46_refuses_a_scheme_with_hypersurfaces():
    cubic = {"n": 2, "hypersurfaces": ["x^3+y^3+z^3"]}
    scenario = parse_scenario({"p": 7, "vars": ["x", "y", "z"],
                               "jobs": [_with(_THM46, scheme=cubic), _THM46,
                                        {k: v for k, v in _THM46.items()
                                         if k != "scheme"}]})
    refused, plane, default = execute(scenario)[0]["jobs"]
    assert refused["status"] == "error"
    assert refused["error"]["type"] == "ScenarioError"
    assert "'scheme'" in refused["error"]["message"]
    for entry in (plane, default):
        assert entry["status"] == "ok" and entry["result"]["delta"] == 3
