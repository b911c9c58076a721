"""Command-line runner for scenario files and the bundled suites.

Usage:
    charp run <file> [--report out.json] [--caps degree=64,steps=64]
    charp suite <name> [--report out.json] [--caps ...]

Exit status is 0 exactly when every job succeeds and every verdict job
passes, and 1 when one does not; scenario, file or usage problems
(including a file that cannot be read or a report that cannot be
written) exit with 2.  The human-readable text goes to stdout (with
per-job wall times); the machine-readable JSON is deterministic and
timing-free.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from typing import List, Optional

from .config import Caps, DEFAULT_CAPS
from .errors import CharpError, ScenarioError
from .scenario import execute, load_scenario, report_to_json

SUITE_DIRS = {
    "paper-repro": "paper_repro",
    "smoke": "smoke",
}

_CAP_ALIASES = {
    "degree": "max_degree",
    "steps": "chain_steps",
    "basis": "max_basis",
}


def parse_caps(spec: Optional[str]) -> Caps:
    if not spec:
        return DEFAULT_CAPS
    overrides = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ScenarioError(f"bad cap setting {chunk!r}, expected name=value")
        name, _, value = chunk.partition("=")
        name = _CAP_ALIASES.get(name.strip(), name.strip())
        try:
            number = int(value)
        except ValueError:
            raise ScenarioError(f"cap value {value!r} is not an integer") from None
        if number <= 0:
            raise ScenarioError(f"cap {name} must be positive")
        overrides[name] = number
    try:
        return DEFAULT_CAPS.with_overrides(**overrides)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _format_result(entry: dict) -> str:
    if entry["status"] == "error":
        err = entry["error"]
        return f"{err['type']}: {err['message']}"
    result = entry["result"]
    bits = []
    if "generators" in result:
        bits.append("(" + ", ".join(result["generators"]) + ")")
    if "verdict" in result:
        bits.append(f"verdict {'true' if result['verdict'] else 'false'}")
    if "dim" in result:
        bits.append(f"dim {result['dim']}")
    if "delta" in result:
        bits.append(f"delta {result['delta']} witness {result['witness']}")
    if "multiplicity" in result:
        bits.append(f"mult {result['multiplicity']}")
    return "; ".join(bits) if bits else "ok"


def render_text(report: dict, timings: List[float]) -> str:
    lines = []
    header = report["scenario"]
    lines.append(f"ring F_{header['p']}[{', '.join(header['vars'])}], "
                 f"order {header['order']}")
    for entry, elapsed in zip(report["jobs"], timings):
        mark = {True: "PASS", False: "FAIL", None: "ok"}[entry["pass"]]
        iters = (f", {entry['iterations']} iterations"
                 if entry.get("iterations") else "")
        lines.append(f"  [{entry['index']}] {entry['op']}: "
                     f"{_format_result(entry)} [{mark}{iters}, "
                     f"{elapsed:.3f}s]")
    summary = report["summary"]
    status = "OK" if summary["ok"] else "FAILED"
    lines.append(f"{summary['jobs']} jobs, {summary['errors']} errors, "
                 f"{summary['failures']} failures: {status}")
    return "\n".join(lines) + "\n"


def run_file(path: str, caps: Caps, report_path: Optional[str]) -> int:
    scenario = load_scenario(path)
    report, timings = execute(scenario, caps)
    sys.stdout.write(render_text(report, timings))
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    return 0 if report["summary"]["ok"] else 1


def suite_scenarios(name: str):
    """Yield (scenario name, path-like) for a bundled suite."""
    if name not in SUITE_DIRS:
        raise ScenarioError(
            f"unknown suite {name!r}; available: {sorted(SUITE_DIRS)}")
    root = resources.files("charp").joinpath("suites", SUITE_DIRS[name])
    entries = sorted(root.iterdir(), key=lambda e: e.name)
    return [(entry.name, entry) for entry in entries
            if entry.name.endswith(".json")]


def run_suite(name: str, caps: Caps, report_path: Optional[str]) -> int:
    scenarios = suite_scenarios(name)
    overall_ok = True
    aggregated = {"format": "charp-suite-report-v1", "suite": name,
                  "scenarios": []}
    rows = []
    for scen_name, entry in scenarios:
        with resources.as_file(entry) as concrete:
            scenario = load_scenario(str(concrete))
        report, timings = execute(scenario, caps)
        ok = report["summary"]["ok"]
        overall_ok = overall_ok and ok
        aggregated["scenarios"].append({"name": scen_name, "report": report})
        rows.append((scen_name, ok, sum(timings)))
        sys.stdout.write(render_text(report, timings))
    sys.stdout.write("\nsuite summary\n")
    for scen_name, ok, total in rows:
        sys.stdout.write(f"  {scen_name:<40} "
                         f"{'PASS' if ok else 'FAIL'}  ({total:.2f}s)\n")
    sys.stdout.write(f"suite {name}: {'PASS' if overall_ok else 'FAIL'}\n")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(aggregated))
    return 0 if overall_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charp",
        description="Frobenius-splitting computations over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("file")
    run_p.add_argument("--report", help="write the machine-readable JSON here")
    run_p.add_argument("--caps", help="cap overrides, e.g. degree=64,steps=64")

    suite_p = sub.add_parser("suite", help="run a bundled scenario suite")
    suite_p.add_argument("name")
    suite_p.add_argument("--report", help="write the aggregated JSON here")
    suite_p.add_argument("--caps", help="cap overrides")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = parse_caps(args.caps)
        if args.command == "run":
            return run_file(args.file, caps, args.report)
        return run_suite(args.name, caps, args.report)
    except (ScenarioError, OSError) as exc:
        sys.stderr.write(f"charp: {exc}\n")
        return 2
    except CharpError as exc:
        sys.stderr.write(f"charp: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
