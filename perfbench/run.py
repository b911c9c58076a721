#!/usr/bin/env python3
"""End-to-end benchmark of charp's scenario path on seeded workloads.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: charp is imported from ./src.
Each job of the workload's instance list is a one-job scenario passed
through `charp.scenario.parse_scenario` and `execute`, the path
`charp run` takes, on one thread with `parallel` off.  Rounds over the
whole list repeat, one job after another, until --seconds have passed
(at least MIN_ROUNDS rounds).  Every time is normalised by the reference
kernel (see refkernel.py).  The outputs of the first round are checked
against the benchmark's own computations; later rounds must repeat them.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and the metrics, end-to-end ones with --trace 0
and per-layer ones from an extra traced round with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # job_tail_s: the highest percentile with 10 jobs beyond it


def _import_charp():
    """Import charp.scenario afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "charp" or m.startswith("charp.")]:
        del sys.modules[name]
    scenario = importlib.import_module("charp.scenario")
    origin = Path(scenario.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"charp was imported from {origin}, not from {SRC}")
    return scenario


def scenario_doc(inst: dict, job: dict | None = None) -> dict:
    return {"p": inst["p"], "vars": inst["vars"], "order": "grevlex",
            "parallel": False, "jobs": [job or inst["job"]]}


def setup(workload: str, seed: int):
    """Import charp, build the instance list, parse every scenario."""
    from perfbench.instances import instances
    charp_scenario = _import_charp()
    insts = instances(workload, seed)
    scenarios = [charp_scenario.parse_scenario(scenario_doc(i)) for i in insts]
    return charp_scenario, insts, scenarios


def timed_setup(workload: str, seed: int):
    """SETUP_REPEATS full set-ups; returns the last one's objects and the
    median normalised set-up time."""
    from perfbench import refkernel
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        stretches = refkernel.Stretches()
        t0 = time.perf_counter()
        made = setup(workload, seed)
        stretches.add(time.perf_counter() - t0)
        times.extend(stretches.close())
    return made, statistics.median(times)


def run_round(execute, scenarios, hook=None):
    """One pass over every scenario; returns the report entries and the
    closed Stretches (normalised and raw per-job times, factors, kernel
    samples)."""
    from perfbench import refkernel
    stretches = refkernel.Stretches()
    entries = []
    for index, sc in enumerate(scenarios):
        gc.collect()
        if hook is not None:
            hook(index)
        t0 = time.perf_counter()
        report, _ = execute(sc)
        stretches.add(time.perf_counter() - t0)
        entries.append(report["jobs"][0])
    stretches.close()
    return entries, stretches


def summarise(per_job: list) -> dict:
    ordered = sorted(per_job)
    return {"solve_s": sum(per_job), "job_p50_s": statistics.median(per_job),
            "job_tail_s": ordered[len(ordered) - TAIL_BEYOND - 1]}


def judge(charp_scenario, insts, entries):
    """Check the first round's outputs; returns (correct, failing jobs)."""
    from perfbench.checks import Checker

    def rerun(inst, job):
        sc = charp_scenario.parse_scenario(scenario_doc(inst, job))
        return charp_scenario.execute(sc)[0]["jobs"][0]

    checker = Checker(rerun)
    correct, failing = True, 0
    for inst, entry in zip(insts, entries):
        if entry["status"] != "ok":
            failing += 1
            reason = f"{entry['error']['type']}: {entry['error']['message']}"
        else:
            reason = checker.check(inst, entry["result"])
            if reason is None:
                continue
            if inst["known_fault"]:
                failing += 1
            else:
                correct = False
        tag = "known fault" if inst["known_fault"] else "FAILED"
        print(f"{tag}: {inst['name']}: {reason}", file=sys.stderr)
    return correct, failing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "charp" / "__init__.py").is_file():
        print(f"no charp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import refkernel
    from perfbench.instances import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2

    (charp_scenario, insts, scenarios), setup_s = timed_setup(args.workload,
                                                             args.seed)
    execute = charp_scenario.execute
    # Everything built so far lives for the whole run; freezing it keeps
    # the untimed gc.collect() between jobs from rescanning it each time.
    gc.collect()
    gc.freeze()
    rounds, raw, first, drift = [], [], None, 0
    kernel_ticks = kernel_s = 0
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        entries, stretches = run_round(execute, scenarios)
        rounds.append(stretches.normalised)
        raw.append(stretches.raw)
        kernel_ticks += stretches.kernel.ticks
        kernel_s += stretches.kernel.seconds
        if first is None:
            first = entries
        else:
            drift += sum(a != b for a, b in zip(first, entries))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_job = [statistics.median(r[i] for r in rounds) for i in range(len(insts))]
    figures = summarise(per_job)
    raw_solve_s = sum(statistics.median(r[i] for r in raw) for i in range(len(insts)))

    print(f"{args.workload} seed {args.seed}: {len(insts)} jobs x "
          f"{len(rounds)} rounds; solve_s {figures['solve_s']:.4f}, "
          f"job_p50_s {figures['job_p50_s']:.6f}, job_tail_s "
          f"{figures['job_tail_s']:.6f} (p{100 * (len(insts) - TAIL_BEYOND) // len(insts)}), "
          f"setup_s {setup_s:.4f}, peak_rss_mb {peak_rss_mb:.1f}; raw "
          f"solve_s {raw_solve_s:.4f}, kernel tick {1e6 * kernel_s / kernel_ticks:.1f} us "
          f"(nominal {1e6 * refkernel.NOMINAL_TICK_S:.1f} us)")

    if args.trace:
        from perfbench.tracing import traced_round
        layer, traced_solve_s = traced_round(run_round, charp_scenario, scenarios,
                                             args.workload, args.seed)
        print(f"tracing overhead: traced solve_s {traced_solve_s:.4f} - "
              f"untraced solve_s {figures['solve_s']:.4f} = "
              f"{traced_solve_s - figures['solve_s']:.4f} s")

    correct, failing = judge(charp_scenario, insts, first)
    if drift:
        correct = False
        print(f"FAILED: {drift} job outputs changed between rounds", file=sys.stderr)

    if args.trace:
        metrics = layer
    else:
        metrics = {k: {"value": v, "unit": "s"} for k, v in figures.items()}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": correct, "attempted": len(rounds) * len(insts),
                      "failed": len(rounds) * failing, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
