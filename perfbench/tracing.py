"""The traced round: where a pass over the workload spends its work.

Wrappers are installed only for the traced round and removed after it.
Each wraps a function a layer of charp exposes and is installed at every
module attribute (or class attribute) that binds that function, so calls
made through `from .ideal import normal_form` are seen too.  Three kinds:

  span     records (name, start, end, parent span, job) in memory; a
           layer's self time is its spans' time minus their child spans'
  timer    aggregate call count and time, for functions called too often
           for one span each (their time stays in the caller's self time)
  count    call count only, for the hot MultiPoly methods

Span and timer times are normalised with the factor of the stretch their
job ran in, like every other reported time.  The spans are written to
perfbench/out/ when the round ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def _levels(t, result):
    t.counts["proj.image_levels"] += getattr(result, "level", 0)
    t.counts["proj.source_rows"] += sum(getattr(result, "source_rows", ()))


def _separation(t, result):
    t.counts["proj.separates.pair_checks"] += getattr(result, "pairs_checked", 0)
    t.counts["proj.separates.tangent_checks"] += getattr(result, "tangents_checked", 0)


def _chain(t, result):
    t.counts["fsing.chain_steps"] += getattr(result, "steps", 0)


def _basis_out(t, result):
    t.counts["ideal.buchberger.basis_out"] += len(result)


def _trace_in(t, args):
    t.counts["cartier.trace.terms_in"] += args[0].num_terms()


def _rref_in(t, args):
    t.counts["linalg.rref.entries"] += getattr(args[0], "size", 0)


# (layer, module, attribute, kind, hook on the arguments, hook on the result)
TARGETS = [
    ("scenario", "charp.scenario", "execute", "span", None, None),
    ("proj.stable_sections", "charp.proj", "stable_sections", "span", None, _levels),
    ("proj.separates", "charp.proj", "separates", "span", None, _separation),
    ("proj.from_forms", "charp.proj", "ProjScheme.from_forms", "span", None, None),
    ("proj.bpf", "charp.proj", "is_base_point_free", "span", None, None),
    ("proj.gg", "charp.proj", "is_globally_generated", "span", None, None),
    ("proj.gg", "charp.proj", "stable_sections_generate", "span", None, None),
    ("proj.restrict", "charp.proj", "restriction_is_surjective", "span", None, None),
    ("fsing.chains", "charp.fsing", "descending_fixed_ideal", "span", None, _chain),
    ("fsing.chains", "charp.fsing", "ascending_fixed_ideal", "span", None, _chain),
    ("cartier.apply", "charp.cartier", "apply_cartier", "span", None, None),
    ("ideal.buchberger", "charp.ideal", "buchberger", "span", None, _basis_out),
    ("ideal.saturate", "charp.ideal", "Ideal.saturate", "span", None, None),
    ("ideal.quotient", "charp.ideal", "Ideal.quotient", "span", None, None),
    ("ideal.intersect", "charp.ideal", "Ideal.intersect", "span", None, None),
    ("linalg.rref", "charp.linalg", "rref", "span", _rref_in, None),
    ("ideal.normal_form", "charp.ideal", "normal_form", "timer", None, None),
    ("cartier.trace", "charp.cartier", "trace", "timer", _trace_in, None),
    ("extfield.evaluate", "charp.extfield", "evaluate_poly", "timer", None, None),
    ("extfield.points", "charp.extfield", "projective_points", "yield", None, None),
    ("ring.leading_exponent", "charp.ring", "MultiPoly.leading_exponent", "count", None, None),
    ("ring.mul", "charp.ring", "MultiPoly.__mul__", "count", None, None),
    ("ring.mul_monomial", "charp.ring", "MultiPoly.mul_monomial", "count", None, None),
]

# per-layer metrics and their units, in BENCHMARK.json order
METRICS = [
    ("scenario.self_s", "s"),
    ("proj.stable_sections.calls", "count"), ("proj.stable_sections.self_s", "s"),
    ("proj.image_levels", "count"), ("proj.source_rows", "count"),
    ("proj.from_forms.total_s", "s"), ("proj.bpf.total_s", "s"),
    ("proj.gg.total_s", "s"), ("proj.restrict.total_s", "s"),
    ("proj.separates.self_s", "s"), ("proj.separates.pair_checks", "count"),
    ("proj.separates.tangent_checks", "count"),
    ("fsing.chains.calls", "count"), ("fsing.chain_steps", "count"),
    ("fsing.chains.self_s", "s"),
    ("cartier.apply.calls", "count"), ("cartier.apply.self_s", "s"),
    ("cartier.trace.calls", "count"), ("cartier.trace.terms_in", "count"),
    ("cartier.trace.total_s", "s"),
    ("ideal.buchberger.calls", "count"), ("ideal.buchberger.self_s", "s"),
    ("ideal.buchberger.basis_out", "count"), ("ideal.normal_form.calls", "count"),
    ("ideal.normal_form.total_s", "s"),
    ("ideal.saturate.calls", "count"), ("ideal.saturate.total_s", "s"),
    ("ideal.quotient.calls", "count"), ("ideal.intersect.calls", "count"),
    ("ideal.saturate.rounds_per_call", "rounds/call"),
    ("ring.leading_exponent.calls", "count"), ("ring.mul.calls", "count"),
    ("ring.mul_monomial.calls", "count"),
    ("linalg.rref.calls", "count"), ("linalg.rref.entries", "count"),
    ("linalg.rref.total_s", "s"),
    ("extfield.evaluate.calls", "count"), ("extfield.evaluate.total_s", "s"),
    ("extfield.points", "count"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index, job, outermost]
        self.stack: list = []
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.timers = defaultdict(lambda: defaultdict(float))  # name -> job -> s
        self.job = -1

    def wrap(self, name, kind, fn, on_call, on_result):
        t = self
        clock = time.perf_counter

        if kind == "count":
            def counted(*args, **kwargs):
                t.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "yield":
            def generated(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    t.counts[name] += 1
                    yield item
            return generated

        if kind == "timer":
            def timed(*args, **kwargs):
                t.counts[name + ".calls"] += 1
                if on_call is not None:
                    on_call(t, args)
                if t.depth[name]:
                    return fn(*args, **kwargs)
                t.depth[name] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t.timers[name][t.job] += clock() - start
                    t.depth[name] -= 1
            return timed

        def spanned(*args, **kwargs):
            if on_call is not None:
                on_call(t, args)
            record = [name, 0.0, 0.0, t.stack[-1] if t.stack else -1, t.job,
                      t.depth[name] == 0]
            t.stack.append(len(t.spans))
            t.spans.append(record)
            t.depth[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                t.stack.pop()
                t.depth[name] -= 1
            if on_result is not None:
                on_result(t, result)
            return result
        return spanned

    def install(self) -> list:
        """Wrap every target at every binding; returns the undo list."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "charp" or n.startswith("charp.")) and m is not None]
        for name, module_name, attr, kind, on_call, on_result in TARGETS:
            home = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                continue  # the layer no longer exposes this function
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self.wrap(name, kind, func, on_call, on_result)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return undo

    def metrics(self, factors: list) -> dict:
        child = defaultdict(float)
        for name, start, end, parent, job, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, parent, job, outermost) in enumerate(self.spans):
            k = factors[job]
            calls[name] += 1
            self_s[name] += (end - start - child[index]) * k
            if outermost:
                total_s[name] += (end - start) * k
        timed = {name: sum(s * factors[job] for job, s in per_job.items())
                 for name, per_job in self.timers.items()}
        values = dict(self.counts)
        for name in calls:
            values[name + ".calls"] = calls[name]
            values[name + ".self_s"] = self_s[name]
            values[name + ".total_s"] = total_s[name]
        for name, seconds in timed.items():
            values[name + ".total_s"] = seconds
        saturations = calls["ideal.saturate"]
        rounds = sum(1 for name, _, _, parent, _, _ in self.spans
                     if name == "ideal.quotient" and parent >= 0
                     and self.spans[parent][0] == "ideal.saturate")
        values["ideal.saturate.rounds_per_call"] = (rounds / saturations
                                                    if saturations else 0.0)
        return {metric: {"value": values.get(metric, 0.0 if unit == "s" else 0),
                         "unit": unit} for metric, unit in METRICS}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def traced_round(run_round, execute_holder, scenarios, workload: str, seed: int):
    """One traced pass; returns (per-layer metrics, traced solve_s).

    `execute_holder` is the charp.scenario module: its `execute` is read
    after the wrappers are in place, so the round runs the wrapped one.
    """
    tracer = Tracer()
    undo = tracer.install()
    try:
        def hook(index):
            tracer.job = index
        _, stretches = run_round(execute_holder.execute, scenarios, hook)
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return tracer.metrics(stretches.factors), sum(stretches.normalised)
