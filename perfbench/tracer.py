"""Outside-in span recorder for one `dynavg run` in the current process.

`install` replaces the module globals that `cli.run_experiment` and
`cluster_sim.run` resolve at call time (and `ShardSampler.next_batch` on
its class), so the program runs unchanged while every call into a named
layer function is recorded as a span: (name, start, end, parent span,
run id).  Spans stay in memory until the run ends; `summarize` turns them
into per-name call counts and self times, where a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module of the global that the program resolves, attribute).
# `vecmath.average` is reached through two modules' globals.
PATCH_TARGETS = [
    ("cli.load_config", "cli", "load_config"),
    ("cluster_sim.run", "cli", "run"),
    ("cli.write_metrics_csv", "cli", "write_metrics_csv"),
    ("cli.write_events_jsonl", "cli", "write_events_jsonl"),
    ("learner.make_blobs", "cluster_sim", "make_blobs"),
    ("learner.init_model", "cluster_sim", "init_model"),
    ("cluster_sim.partition", "cluster_sim", "partition"),
    ("sketch.make_transform", "sketch", "make_transform"),
    ("learner.loss_and_grad", "cluster_sim", "loss_and_grad"),
    ("learner.apply_gradient", "cluster_sim", "apply_gradient"),
    ("learner.evaluate", "cluster_sim", "evaluate"),
    ("fda_core.make_local_state_sketch", "fda_core", "make_local_state_sketch"),
    ("fda_core.make_local_state_linear", "fda_core", "make_local_state_linear"),
    ("fda_core.average_states", "fda_core", "average_states"),
    ("fda_core.h_sketch", "fda_core", "h_sketch"),
    ("fda_core.h_linear", "fda_core", "h_linear"),
    ("fda_core.should_sync", "cluster_sim", "should_sync"),
    ("fda_core.compute_xi", "fda_core", "compute_xi"),
    ("fda_core.variance_exact", "fda_core", "variance_exact"),
    ("sketch.apply", "sketch", "apply"),
    ("sketch.m2_estimate", "sketch", "m2_estimate"),
    ("vecmath.average", "cluster_sim", "average"),
    ("vecmath.average", "fda_core", "average"),
]
SAMPLER_SPAN = "learner.ShardSampler.next_batch"
ALLREDUCE_SPAN = "cluster_sim.allreduce_average"
ALLREDUCE_CATEGORIES = ("state", "model-sync")
ROOT_SPAN = "process"

SPAN_NAMES = sorted({name for name, _, _ in PATCH_TARGETS}
                    | {SAMPLER_SPAN, ROOT_SPAN}
                    | {f"{ALLREDUCE_SPAN}.{c}" for c in ALLREDUCE_CATEGORIES})


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def open(self, name: str, start: float) -> int:
        index = len(self.spans)
        self.spans.append([name, start, None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int, end: float) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = end

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Write one JSON array per span: name, start, end, parent, run id."""
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent, self.run_id]))
                f.write("\n")


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every patch target found in `modules` (short name -> module).

    A target the program no longer has is listed in `tracer.missing` and
    reported as zero calls, so the untraced program is never affected.
    """
    for name, module_name, attr in PATCH_TARGETS:
        module = modules[module_name]
        if not hasattr(module, attr):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    sampler = getattr(modules["learner"], "ShardSampler", None)
    if sampler is None or not hasattr(sampler, "next_batch"):
        tracer.missing.append("learner.ShardSampler.next_batch")
    else:
        sampler.next_batch = tracer.wrap(SAMPLER_SPAN, sampler.next_batch)

    cluster_sim = modules["cluster_sim"]
    original = getattr(cluster_sim, "allreduce_average", None)
    if original is None:
        tracer.missing.append("cluster_sim.allreduce_average")
    else:
        by_category: dict = {}

        def allreduce_average(payloads, ledger, category=None):
            # One span name per cost category, so state exchanges and
            # model syncs are timed apart.
            traced = by_category.get(category)
            if traced is None:
                traced = tracer.wrap(f"{ALLREDUCE_SPAN}.{category}", original)
                by_category[category] = traced
            return traced(payloads, ledger, category)

        cluster_sim.allreduce_average = allreduce_average
    if tracer.missing:
        print("tracer: not found, reported as 0 calls: "
              + ", ".join(tracer.missing), file=sys.stderr)


def summarize(spans: list[list]) -> dict:
    """Per span name: call count and summed self time in seconds."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {name: [0, 0.0] for name in SPAN_NAMES}
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[i]
    return {name: {"calls": calls, "self_s": self_s}
            for name, (calls, self_s) in stats.items()}
