"""scripts/ab_compare.py on copies of this checkout."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_compare.py"


def _copy(dest: Path) -> Path:
    """The two directories the script imports from, without caches."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info", "out"))
    return dest


def _files(tree: Path) -> set:
    return {path.relative_to(tree) for path in tree.rglob("*")}


def _run(parent: Path, change: Path):
    # bytecode writing stays at Python's default, as in CI
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change),
         "--workload", "geometry", "--rounds", "1"],
        capture_output=True, text=True, env=env, cwd=parent)


def _ops(tree: Path) -> list:
    """The op of each geometry job, in order."""
    ops = subprocess.run(
        [sys.executable, "-B", "-c",
         "from perfbench.instances import instances\n"
         "from perfbench.run import scenario_doc\n"
         "for inst in instances('geometry', 1):\n"
         "    print(scenario_doc(inst)['jobs'][0]['op'])"],
        capture_output=True, text=True, check=True, cwd=tree,
        env=dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree}"))
    return ops.stdout.split()


def test_one_tree_on_both_sides_reports_and_writes_nothing(tmp_path):
    tree = _copy(tmp_path / "tree")
    before = _files(tree)
    proc = _run(tree, tree)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) > 6, proc.stdout
    head = re.fullmatch(r"geometry seed 1: (\d+) jobs x 1 rounds per side",
                        lines[0])
    assert head
    for line, side in zip(lines[1:3], ("parent", "change")):
        assert re.fullmatch(rf"{side} {re.escape(str(tree))}: "
                            r"median round \d+\.\d{4} s", line)
    assert re.fullmatch(r"change/parent per round: median \d+\.\d{3}, "
                        r"quartiles \d+\.\d{3}-\d+\.\d{3}, "
                        r"change faster in [01]/1", lines[3])
    # each side's end-to-end metrics from its per-job medians
    for line, side in zip(lines[4:6], ("parent", "change")):
        found = re.fullmatch(rf"{side} per-job medians: "
                             r"solve_s (\d+\.\d{4}), "
                             r"job_p50_s (\d+\.\d{6}), "
                             r"job_tail_s (\d+\.\d{6})", line)
        assert found, line
        solve, p50, tail = map(float, found.groups())
        assert 0 < p50 <= tail <= solve
    # then one line per op, alphabetical, covering every job once
    per_op = [re.fullmatch(r"op (\w+): (\d+) jobs, change/parent per round: "
                           r"median \d+\.\d{3}", line) for line in lines[6:]]
    assert all(per_op), lines[6:]
    ops, jobs = [found[1] for found in per_op], _ops(tree)
    assert ops == sorted(set(jobs))
    assert [int(found[2]) for found in per_op] == list(map(jobs.count, ops))
    assert sum(map(jobs.count, ops)) == int(head[1])
    assert _files(tree) == before


def test_differing_reports_name_the_first_job_that_differs(tmp_path):
    parent = _copy(tmp_path / "parent")
    change = _copy(tmp_path / "change")
    # the change reports every bpf subsystem one dimension too large
    runners = change / "src" / "charp" / "projops.py"
    text = runners.read_text()
    line = 'out = {"verdict": verdict, "dim": space.dim}'
    assert text.count(line) == 1
    runners.write_text(text.replace(line, line[:-1] + " + 1}"))
    proc = _run(parent, change)
    assert proc.returncode != 0 and not proc.stdout
    found = re.fullmatch(r"job (\d+) differs:\n parent (.*)\n change (.*)\n",
                         proc.stderr)
    assert found, proc.stderr
    want, got = json.loads(found[2]), json.loads(found[3])
    assert want["op"] == got["op"] == "bpf"
    assert got["result"]["dim"] == want["result"]["dim"] + 1
    assert int(found[1]) == _ops(parent).index("bpf") > 0
