"""dynavg benchmark: time to target, throughput and communication outcome.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each run of a workload is `dynavg run` on a generated YAML config, in a
fresh interpreter (perfbench/child.py), one child at a time, with BLAS
pinned to one thread.  Every run writes the metrics CSV and the events
JSONL, and every run is checked (see `check_run`).  With `--trace 1` one
more run of the workload is traced (perfbench/tracer.py) and the per-layer
metrics replace the end-to-end ones in the result line.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics, the workloads and the trace.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
PACKAGE_INIT = os.path.join(ROOT, "src", "dynavg", "__init__.py")
WORK = os.path.join(ROOT, ".perfbench_work")

ACCEPTANCE_SEED = 101  # the seed of tests/conftest.py
# A run at seed n trains the workload's `seeds` seeds: n, n + SEED_STRIDE, ...
SEED_STRIDE = 10007
WORKERS = 5
BATCH = 32
BYTES_PER_ENTRY = 4
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
MEASURE_LIMIT_S = 110  # no optional repeat starts after this
METRICS_COLUMNS = ["epoch", "test_accuracy", "train_loss", "bytes_total",
                   "bytes_state", "bytes_sync", "steps", "syncs"]

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("run_s", "s"), ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"), ("steps", "count"), ("syncs", "count"),
    ("bytes_total", "bytes"), ("test_accuracy", "fraction"),
]
TIMED = ("setup_s", "run_s", "samples_per_s", "peak_rss_mb")
OUTCOME = ("steps", "syncs", "bytes_total", "test_accuracy")
# Depend on the seed: mean over the training seeds of each seed's median.
# The rest barely do: median over all untraced runs, which shrugs off the
# runs a noisy host slows down.
PER_SEED = ("run_s",) + OUTCOME


@dataclass(frozen=True)
class Workload:
    p: int
    classes: int
    hidden: int        # 0 selects the logistic model
    lr: float
    strategy: dict     # config strategy node; theta comes from the profile
    audit: bool
    accuracy_target: float
    max_epochs: int
    expected_exit: int
    seeds: int         # training seeds per run

    @property
    def d(self) -> int:
        if self.hidden:
            return (self.p * self.hidden + self.hidden
                    + self.hidden * self.classes + self.classes)
        return self.p * self.classes + self.classes

    @property
    def state_payload_bytes(self) -> int:
        """Bytes one worker ships per state exchange."""
        if self.strategy["kind"] == "sketch-fda":
            sk = self.strategy["sketch"]
            return BYTES_PER_ENTRY * (sk["rows"] * sk["cols"] + 1)
        return BYTES_PER_ENTRY * 2

    def config(self, seed: int, out_dir: str) -> dict:
        return {
            "seed": seed,
            "workers": WORKERS,
            "batch_size": BATCH,
            "accuracy_target": self.accuracy_target,
            "max_epochs": self.max_epochs,
            "audit_variance": self.audit,
            "dataset": {"kind": "blobs", "n": 6000, "p": self.p,
                        "classes": self.classes, "test_n": 2000},
            "model": {"kind": "mlp" if self.hidden else "logistic",
                      "hidden": self.hidden},
            "optimizer": {"kind": "sgd", "lr": self.lr},
            "partition": {"scheme": "iid"},
            "strategy": {**self.strategy, "theta_profile": "balanced"},
            "output": {"metrics_csv": os.path.join(out_dir, "metrics.csv"),
                       "events_jsonl": os.path.join(out_dir, "events.jsonl")},
        }


WORKLOADS = {
    "blobs-linear": Workload(
        p=20, classes=3, hidden=0, lr=0.003,
        strategy={"kind": "linear-fda"}, audit=False,
        accuracy_target=0.95, max_epochs=600, expected_exit=0, seeds=8),
    "blobs-sketch-audit": Workload(
        p=20, classes=3, hidden=0, lr=0.003,
        strategy={"kind": "sketch-fda",
                  "sketch": {"rows": 3, "cols": 1, "seed": 2}},
        audit=True, accuracy_target=0.95, max_epochs=600, expected_exit=0,
        seeds=6),
    "mlp-sketch": Workload(
        p=784, classes=10, hidden=128, lr=0.3,
        strategy={"kind": "sketch-fda",
                  "sketch": {"rows": 5, "cols": 250, "seed": 2}},
        audit=False, accuracy_target=1.0, max_epochs=4, expected_exit=1,
        seeds=9),
}


@dataclass
class Run:
    seed: int
    traced: bool
    exit_code: int = -1
    result: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)   # OUTCOME + ledger columns
    failures: list = field(default_factory=list)

    def value(self, name: str) -> float:
        if name == "samples_per_s":
            busy = self.result["run_s"] - self.result["setup_s"]
            return WORKERS * BATCH * self.outcome["steps"] / busy
        if name in TIMED:
            return self.result[name]
        return self.outcome[name]


# --- running one child ------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)  # the child imports dynavg from src/ itself
    return env


def run_child(workload: Workload, seed: int, out_dir: str,
              traced: bool) -> Run:
    os.makedirs(out_dir)
    config_path = os.path.join(out_dir, "config.yaml")
    with open(config_path, "w") as f:
        yaml.safe_dump(workload.config(seed, out_dir), f, sort_keys=False)
    result_path = os.path.join(out_dir, "result.json")
    cmd = [sys.executable, CHILD, config_path, result_path]
    if traced:
        cmd.append(os.path.join(out_dir, "spans.jsonl"))
    run = Run(seed=seed, traced=traced)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.failures.append(f"no exit within {CHILD_TIMEOUT_S} s")
        return run
    run.exit_code = proc.returncode
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    try:
        with open(result_path) as f:
            run.result = json.load(f)
    except (OSError, ValueError) as exc:
        run.failures.append(f"no result from the child: {exc}")
        return run
    check_run(workload, run, out_dir)
    return run


def read_outputs(out_dir: str) -> tuple[dict, int, object]:
    """Last metrics-CSV row, events-JSONL line count and last event step."""
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != METRICS_COLUMNS or len(rows) < 2:
        raise ValueError(f"metrics CSV header or rows wrong: {rows[:1]}")
    last = dict(zip(METRICS_COLUMNS, rows[-1]))
    outcome = {name: int(last[name]) for name in
               ("steps", "syncs", "bytes_total", "bytes_state", "bytes_sync")}
    outcome["test_accuracy"] = float(last["test_accuracy"])
    with open(os.path.join(out_dir, "events.jsonl")) as f:
        events = f.read().splitlines()
    last_step = json.loads(events[-1])["step"] if events else None
    return outcome, len(events), last_step


def check_run(workload: Workload, run: Run, out_dir: str) -> None:
    """Record every failed check of one run in `run.failures`."""
    fail = run.failures.append
    if run.exit_code != workload.expected_exit:
        fail(f"exit code {run.exit_code}, expected {workload.expected_exit}")
    setup, total = run.result.get("setup_s"), run.result.get("run_s")
    if setup is None or not 0 < setup < total:
        fail(f"no first local step inside the run (setup_s={setup}, "
             f"run_s={total})")
    try:
        run.outcome, event_count, last_step = read_outputs(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        fail(f"unreadable outputs: {exc}")
        return
    o = run.outcome
    want_state = o["steps"] * WORKERS * workload.state_payload_bytes
    want_sync = o["syncs"] * WORKERS * BYTES_PER_ENTRY * workload.d
    if o["bytes_state"] != want_state:
        fail(f"bytes_state {o['bytes_state']} != steps*K*payload {want_state}")
    if o["bytes_sync"] != want_sync:
        fail(f"bytes_sync {o['bytes_sync']} != syncs*K*4d {want_sync}")
    if o["bytes_total"] != o["bytes_state"] + o["bytes_sync"]:
        fail("bytes_total != bytes_state + bytes_sync")
    if event_count != o["steps"] or last_step != o["steps"]:
        fail(f"events JSONL has {event_count} lines, the last for step "
             f"{last_step}, after {o['steps']} steps")
    if run.traced:
        check_trace(run)


def check_trace(run: Run) -> None:
    layers = run.result.get("layers", {})
    self_sum = sum(v["self_s"] for v in layers.values())
    if abs(self_sum - run.result["run_s"]) > 1e-6 * run.result["run_s"]:
        run.failures.append(f"traced self times sum to {self_sum:.6f} s, "
                            f"run_s is {run.result['run_s']:.6f} s")
    ledger = run.result.get("ledger", {})
    for name in ("bytes_state", "bytes_sync"):
        if ledger.get(name) != run.outcome[name]:
            run.failures.append(f"RunReport {name} {ledger.get(name)} "
                                f"!= metrics CSV {run.outcome[name]}")


def check_repeats(runs: list) -> None:
    """Runs of one seed must agree exactly on the communication outcome."""
    first: dict = {}
    for run in runs:
        if not run.outcome:
            continue
        key = tuple(run.outcome[name] for name in OUTCOME)
        if run.seed not in first:
            first[run.seed] = key
        elif key != first[run.seed]:
            run.failures.append(f"outcome {key} differs from an earlier run "
                                f"of seed {run.seed}: {first[run.seed]}")


# --- one workload ------------------------------------------------------------

def train_seeds(workload: Workload, seed: int) -> list:
    return [seed + SEED_STRIDE * j for j in range(workload.seeds)]


def warm_up() -> None:
    """Import what a run imports once, so the first timed run does not pay
    for a cold file cache."""
    subprocess.run([sys.executable, "-c", "import numpy, yaml, dynavg.cli"],
                   cwd=ROOT, env={**child_env(),
                                  "PYTHONPATH": os.path.join(ROOT, "src")},
                   check=True, timeout=CHILD_TIMEOUT_S)


def measure(name: str, seed: int, seconds: float, trace: bool) -> list:
    """Untraced runs for about `seconds`, then the traced run if asked.

    Every training seed runs once and the first one twice (the repeat
    check), however long that takes.  Further runs cycle through the other
    seeds while one more run still ends within `seconds`.
    """
    workload = WORKLOADS[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    seeds = train_seeds(workload, seed)
    order = itertools.chain(seeds, itertools.cycle(seeds))
    runs = []
    start = time.monotonic()
    for i, s in enumerate(order):
        elapsed = time.monotonic() - start
        if i > len(seeds) and (elapsed + elapsed / i > seconds
                               or elapsed >= MEASURE_LIMIT_S):
            break
        runs.append(run_child(workload, s, os.path.join(work, f"run{i}-seed{s}"),
                              traced=False))
    if trace:
        runs.append(run_child(workload, seed, os.path.join(work, "trace"),
                              traced=True))
    check_repeats(runs)
    return runs


def end_to_end(runs: list, seed: int) -> tuple[dict, list]:
    """A PER_SEED metric is the mean over the training seeds of its median
    over the seed's untraced runs (outcomes are equal across a seed's
    runs); any other metric is its median over all untraced runs."""
    good = [r for r in runs if not r.failures and not r.traced]
    by_seed: dict = {}
    for r in good:
        by_seed.setdefault(r.seed, []).append(r)
    metrics, notes = {}, []
    for name, unit in END_TO_END:
        per_seed = {s: statistics.median(r.value(name) for r in seed_runs)
                    for s, seed_runs in by_seed.items()}
        values = [r.value(name) for r in good]
        if name in PER_SEED:
            value = statistics.fmean(per_seed.values())
            how = f"mean of {len(per_seed)} seeds"
        else:
            value = statistics.median(values)
            how = "median of all runs"
        at_seed = f"{per_seed[seed]:.6g}" if seed in per_seed else "n/a"
        metrics[name] = {"value": value, "unit": unit}
        notes.append(
            f"  {name:<14} {value:>14.6g} {unit:<10} {how}; {len(values)} "
            f"runs, {min(values):.6g} to {max(values):.6g}; seed {seed}: "
            f"{at_seed}")
    return metrics, notes


def per_layer(runs: list, seed: int) -> tuple[dict, list]:
    traced = [r for r in runs if r.traced and not r.failures]
    if not traced:
        return {}, ["  traced run failed"]
    result = traced[0].result
    metrics = {}
    for span, stats in sorted(result["layers"].items()):
        if span != "process":
            metrics[f"{span}.calls"] = {"value": stats["calls"], "unit": "count"}
        metrics[f"{span}.self_s"] = {"value": stats["self_s"], "unit": "s"}
    for name, value in result["ledger"].items():
        metrics[f"cluster_sim.{name}"] = {"value": value, "unit": "bytes"}
    audit = result["audit"]
    for ratio in ("h_covers_var", "sync_needed"):
        count, base = audit[ratio], audit[f"{ratio}_base"]
        metrics[f"fda_core.{ratio}_ratio"] = {
            "value": count / base if base else 0.0, "unit": "fraction"}
        metrics[f"fda_core.{ratio}_ratio.count"] = {"value": count, "unit": "count"}
        metrics[f"fda_core.{ratio}_ratio.base"] = {"value": base, "unit": "count"}
    untraced = [r.value("run_s") for r in runs
                if r.seed == seed and not r.traced and not r.failures]
    overhead = result["run_s"] - statistics.median(untraced) if untraced else 0.0
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    notes = [f"  {name:<48} {m['value']:>14.6g} {m['unit']}"
             for name, m in metrics.items()]
    if result.get("missing"):
        notes.append("  not traced (absent from the program): "
                     + ", ".join(result["missing"]))
    return metrics, notes


# --- environment and entry point ---------------------------------------------

def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "threads": THREAD_ENV,
            "commit": git_commit()}


def build() -> None:
    """Byte-compile the package so no run pays for compiling it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time spent on untraced runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(PACKAGE_INIT):
        print(f"benchmark: no program source at {PACKAGE_INIT}", file=sys.stderr)
        return 2
    build()
    warm_up()
    print("env " + json.dumps(environment()))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        runs = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += len(runs)
        failed += sum(1 for r in runs if r.failures)
        print(f"{name}: seed {args.seed}, training seeds "
              f"{train_seeds(WORKLOADS[name], args.seed)}, {len(runs)} runs")
        for r in runs:
            for reason in r.failures:
                print(f"  FAILED run (seed {r.seed}, traced={r.traced}): {reason}")
        found, notes = end_to_end(runs, args.seed) if any(
            not r.failures and not r.traced for r in runs) else ({}, [])
        print("\n".join(notes))
        if args.trace:
            found, notes = per_layer(runs, args.seed)
            print("\n".join(notes))
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
