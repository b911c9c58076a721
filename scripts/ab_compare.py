#!/usr/bin/env python3
"""Interleaved A/B timing of two source trees on one benchmark workload.

    python3 scripts/ab_compare.py PARENT_DIR CHANGE_DIR --workload pairs --rounds 60

Each tree is a checkout with `src/charp` and `perfbench/`.  Both are
imported into this one process, each with its own modules, and each
builds its own instance list with `perfbench.instances` and its own
one-job scenarios with `perfbench.run.scenario_doc`, as
`perfbench/run.py` does; nothing is written to either tree, not even
bytecode caches.  A first round of each side must give equal report
entries, job by job; otherwise the script exits nonzero and names the
first job that differs.  Then full rounds of the two sides alternate,
and the side that goes first switches every round, so a host whose
clock speed wanders between runs slows both sides alike.  Each job is
timed alone after an untimed `gc.collect()`.

Prints each side's median round time and the median and quartiles of
the per-round ratio change/parent.  Then each side's end-to-end metrics
`solve_s`, `job_p50_s` and `job_tail_s`, computed by that tree's
`perfbench.run.summarise` from the median over rounds of each job's
time, as `perfbench/run.py` computes them; the times here are seconds
as measured, not normalised by the reference kernel.  Then one line per
job op, in alphabetical order: the median over rounds of the ratio
change/parent of the time that op's jobs took in the round, which shows
where a change in the round time sits.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import statistics
import sys
import time
from pathlib import Path

# both trees are imported from their sources; caching bytecode would
# leave __pycache__ directories in them
sys.dont_write_bytecode = True

PACKAGES = ("charp", "perfbench")


def _own_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.split(".")[0] in PACKAGES}


class Side:
    """One tree's modules, its workload's scenarios and its `execute`."""

    def __init__(self, tree: Path, workload: str, seed: int):
        for name in _own_modules():
            del sys.modules[name]
        sys.path[:0] = [str(tree / "src"), str(tree)]
        try:
            charp = importlib.import_module("charp")
            # import every submodule now: a function-level import would
            # otherwise resolve to whichever tree was loaded last
            for info in pkgutil.walk_packages(charp.__path__, "charp."):
                importlib.import_module(info.name)
            scenario = importlib.import_module("charp.scenario")
            run = importlib.import_module("perfbench.run")
            insts = importlib.import_module("perfbench.instances").instances(
                workload, seed)
        finally:
            del sys.path[:2]
        origin = Path(scenario.__file__).resolve()
        if (tree / "src").resolve() not in origin.parents:
            raise SystemExit(f"charp was imported from {origin}, not from {tree}")
        self.modules = _own_modules()
        self.execute = scenario.execute
        self.summarise = run.summarise
        self.scenarios = [scenario.parse_scenario(run.scenario_doc(inst))
                          for inst in insts]

    def round(self) -> tuple:
        """(report entries, seconds of each job)."""
        sys.modules.update(self.modules)
        entries, seconds = [], []
        for sc in self.scenarios:
            gc.collect()
            t0 = time.perf_counter()
            report, _ = self.execute(sc)
            seconds.append(time.perf_counter() - t0)
            entries.append(report["jobs"][0])
        return entries, seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be positive")

    parent = Side(args.parent, args.workload, args.seed)
    change = Side(args.change, args.workload, args.seed)
    want, _ = parent.round()
    got, _ = change.round()
    if len(want) != len(got):
        raise SystemExit(f"parent has {len(want)} jobs, change {len(got)}")
    for index, (a, b) in enumerate(zip(want, got)):
        a, b = json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True)
        if a != b:
            raise SystemExit(f"job {index} differs:\n parent {a}\n change {b}")

    gc.collect()
    gc.freeze()
    jobs = {parent: [], change: []}  # per round, the seconds of each job
    for r in range(args.rounds):
        for side in ((parent, change) if r % 2 == 0 else (change, parent)):
            jobs[side].append(side.round()[1])
    times = {side: [sum(seconds) for seconds in rounds]
             for side, rounds in jobs.items()}
    ratios = [c / p for p, c in zip(times[parent], times[change])]
    low, _, high = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                    else ratios * 3)
    wins = sum(r < 1 for r in ratios)
    print(f"{args.workload} seed {args.seed}: {len(want)} jobs x "
          f"{args.rounds} rounds per side")
    print(f"parent {args.parent}: median round {statistics.median(times[parent]):.4f} s")
    print(f"change {args.change}: median round {statistics.median(times[change]):.4f} s")
    print(f"change/parent per round: median {statistics.median(ratios):.3f}, "
          f"quartiles {low:.3f}-{high:.3f}, change faster in {wins}/{len(ratios)}")
    for name, side in (("parent", parent), ("change", change)):
        rounds = jobs[side]
        figures = side.summarise([statistics.median(r[i] for r in rounds)
                                  for i in range(len(want))])
        print(f"{name} per-job medians: solve_s {figures['solve_s']:.4f}, "
              f"job_p50_s {figures['job_p50_s']:.6f}, "
              f"job_tail_s {figures['job_tail_s']:.6f}")
    by_op: dict = {}
    for index, entry in enumerate(want):
        by_op.setdefault(entry["op"], []).append(index)
    for op, indices in sorted(by_op.items()):
        op_ratios = [sum(c[i] for i in indices) / sum(p[i] for i in indices)
                     for p, c in zip(jobs[parent], jobs[change])]
        print(f"op {op}: {len(indices)} jobs, change/parent per round: "
              f"median {statistics.median(op_ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
