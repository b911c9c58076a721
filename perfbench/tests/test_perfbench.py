"""Tests of the benchmark itself (not of charp).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import refkernel, run  # noqa: E402
from perfbench.instances import KNOWN_FAULTS, WORKLOADS, instances  # noqa: E402


def _digest(workload: str, seed: int) -> str:
    text = json.dumps(instances(workload, seed), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_gives_byte_identical_instances(workload):
    assert _digest(workload, 7) == _digest(workload, 7)
    assert _digest(workload, 7) != _digest(workload, 8)
    # and in a fresh interpreter with another string-hash seed
    code = ("import hashlib, json, sys; sys.path.insert(0, sys.argv[1]); "
            "from perfbench.instances import instances; "
            "text = json.dumps(instances(sys.argv[2], 7), sort_keys=True); "
            "print(hashlib.sha256(text.encode()).hexdigest())")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT), workload],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == _digest(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_has_the_same_skeleton(workload):
    def skeleton(seed):
        return [(i["name"], i["p"], i["job"]["op"], i["known_fault"])
                for i in instances(workload, seed)]
    first = skeleton(0)
    assert len(first) >= 40
    assert all(skeleton(seed) == first for seed in (1, 2, 3))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_instance_raises_but_the_kept_fault(workload):
    charp_scenario, insts, scenarios = run.setup(workload, 3)
    raised = []
    for inst, sc in zip(insts, scenarios):
        entry = charp_scenario.execute(sc)[0]["jobs"][0]
        if entry["status"] != "ok":
            raised.append(inst["name"])
    allowed = {i["name"] for i in insts if i["known_fault"]}
    assert set(raised) <= allowed
    if workload == "pairs":
        assert len(allowed) == len(KNOWN_FAULTS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_pass_the_independent_checks(workload):
    charp_scenario, insts, scenarios = run.setup(workload, 4)
    entries = [charp_scenario.execute(sc)[0]["jobs"][0] for sc in scenarios]
    correct, failing = run.judge(charp_scenario, insts, entries)
    assert correct
    assert failing == sum(i["known_fault"] for i in insts)


def _synthetic_sampler(slowdown):
    """Kernel samples that take slowdown[0] times their nominal length."""
    def sampler(ticks):
        return refkernel.Sample(ticks, ticks * refkernel.NOMINAL_TICK_S * slowdown[0])
    return sampler


def test_normaliser_cancels_a_uniform_slowdown():
    work = [0.003, 0.02, 0.04, 0.0005, 0.3, 0.011]
    for factor in (1.0, 1.5, 3.0):
        slowdown = [factor]
        stretches = refkernel.Stretches(sampler=_synthetic_sampler(slowdown))
        for w in work:
            stretches.add(w * factor)
        assert stretches.close() == pytest.approx(work, rel=1e-12)


def test_normaliser_follows_a_slowdown_that_changes_between_stretches():
    slowdown = [1.0]
    stretches = refkernel.Stretches(sampler=_synthetic_sampler(slowdown))
    stretches.add(0.1)        # closes a stretch at full speed
    slowdown[0] = 2.0
    stretches.add(0.2 * 2.0)  # this stretch's closing sample runs slowed
    normalised = stretches.close()
    # the second stretch pools one full-speed and one slowed sample
    assert normalised[0] == pytest.approx(0.1)
    assert 0.2 < normalised[1] < 0.4

