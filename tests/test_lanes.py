"""Lanes (`vecmath.split`) change no output byte.

A run at d ~ 10^5 splits each step's worker rows and coordinate columns
between this thread and one helper thread.  Here lanes are forced on at
tiny sizes (`LANE_MIN_ENTRIES = 1`, with a helper thread that the tests
start on any CPU count), and every golden config and every strategy kind
under every optimizer kind, audited and not, must give the events, the
metrics and the final parameters of the serial path byte for byte.  A
blobs run at the acceptance size must never start a thread.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynavg import cli, vecmath
from dynavg import cluster_sim as cs
from dynavg.fda_core import (FedOpt, LinearFda, LocalSgd, ServerSpec,
                             SketchFda, Synchronous)

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
SERIAL = 1 << 62


def outputs(config: cs.RunConfig, out_dir: Path) -> tuple[bytes, ...]:
    """A run's metrics CSV, events JSONL and final mean parameters."""
    report = cs.run(config)
    out_dir.mkdir()
    cli.write_metrics_csv(report, out_dir / "metrics.csv")
    cli.write_events_jsonl(report, out_dir / "events.jsonl")
    return ((out_dir / "metrics.csv").read_bytes(),
            (out_dir / "events.jsonl").read_bytes(),
            report.final_mean_params.tobytes())


@functools.cache
def helper() -> vecmath._Lane:
    """One helper thread for every test here, on any CPU count."""
    return vecmath._Lane()


def assert_lanes_match_serial(config, tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(vecmath, "LANE_MIN_ENTRIES", SERIAL)
    serial = outputs(config, tmp_path / "serial")
    lane, blocks = helper(), []
    start = lane.start

    def counting_start(fn, lo, hi):
        blocks.append((lo, hi))
        start(fn, lo, hi)

    monkeypatch.setattr(lane, "start", counting_start)
    monkeypatch.setattr(vecmath, "LANE_MIN_ENTRIES", 1)
    monkeypatch.setattr(vecmath, "_lane", lane)
    split = outputs(config, tmp_path / "lanes")
    assert blocks, "the helper thread ran no block"
    assert split[0] == serial[0]
    assert split[1] == serial[1]
    assert split[2] == serial[2]


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.yaml")))
def test_golden_configs_give_the_same_bytes_in_lanes(tmp_path, monkeypatch,
                                                    name):
    config = cli.load_config(str(GOLDEN / f"{name}.yaml"))
    assert_lanes_match_serial(config, tmp_path, monkeypatch)


STRATEGIES = {
    "synchronous": Synchronous(),
    "local-sgd": LocalSgd(tau=3),
    "linear-fda": LinearFda(theta=0.05),
    "sketch-fda": SketchFda(theta=0.05, rows=3, cols=4, seed=2),
    "fedopt": FedOpt(),
    "fedopt-adam": FedOpt(server=ServerSpec(kind="adam", lr=0.1)),
}
OPTIMIZERS = {
    "sgd": cs.OptimizerSpec(kind="sgd", lr=0.05),
    "sgd-momentum": cs.OptimizerSpec(kind="sgd-momentum", lr=0.05),
    "nesterov": cs.OptimizerSpec(kind="sgd-momentum", lr=0.05, nesterov=True),
    "adam": cs.OptimizerSpec(kind="adam", lr=0.01),
    "adamw": cs.OptimizerSpec(kind="adamw", lr=0.01, weight_decay=0.1),
}


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audit"])
@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_every_strategy_and_optimizer_gives_the_same_bytes_in_lanes(
        tmp_path, monkeypatch, strategy, optimizer, audit):
    # Three workers split 2 + 1; the hidden layer runs the ReLU path.
    config = cs.RunConfig(
        dataset=cs.BlobsSpec(n=300, p=8, num_classes=3, test_n=100),
        strategy=STRATEGIES[strategy], workers=3, batch_size=16,
        model_kind="mlp", hidden=6, optimizer=OPTIMIZERS[optimizer],
        accuracy_target=1.0, max_epochs=2, seed=5, audit_variance=audit)
    assert_lanes_match_serial(config, tmp_path, monkeypatch)


def test_importing_the_package_first_caps_blas_at_one_thread():
    # Threaded BLAS kernels round otherwise at d ~ 10^5; a count that the
    # environment sets is kept.
    script = ("import os, sys; sys.path.insert(0, {src!r}); import dynavg; "
              "print(os.environ['OPENBLAS_NUM_THREADS'])")
    src = str(TESTS.parent / "src")
    for given, expected in ((None, "1"), ("3", "3")):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if given:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run([sys.executable, "-c", script.format(src=src)],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        assert proc.stdout.strip() == expected


@pytest.mark.parametrize("imports, given, warns", [
    ("numpy, dynavg", None, True), ("dynavg, numpy", None, False),
    ("numpy, dynavg", "1", False)],
    ids=["numpy-first", "dynavg-first", "count-set"])
def test_importing_numpy_first_without_a_blas_count_warns(imports, given,
                                                          warns):
    # The cap cannot take once numpy has loaded BLAS, so bytes at d > 10^4
    # may differ from `dynavg run`: the import says so, once.
    script = (f"import sys; sys.path.insert(0, {str(TESTS.parent / 'src')!r})"
              f"; import {imports}")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-W", "always", "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    warned = proc.stderr.count("RuntimeWarning: numpy was imported before "
                               "dynavg")
    assert warned == warns
    if warns:
        assert "one-thread BLAS cap cannot take effect" in proc.stderr
        assert "may give other bytes than `dynavg run`" in proc.stderr


# The acceptance blobs runs (tests/conftest.py) of both blobs benchmark
# workloads: linear-fda, and sketch-fda with the audit.
BLOBS_SCRIPT = """
import json, sys, threading
sys.path[:0] = [{src!r}, {tests!r}]
started = []
start = threading.Thread.start
def recording_start(self):
    started.append(self.name)
    start(self)
threading.Thread.start = recording_start
from conftest import bench_config, bench_linear, bench_sketch
from dynavg import cluster_sim as cs, vecmath
cs.run(bench_config(bench_linear()))
cs.run(bench_config(bench_sketch(), audit=True))
print(json.dumps({{"started": started, "lane": repr(vecmath._lane),
                  "threads": threading.active_count(),
                  "futures": "concurrent.futures" in sys.modules}}))
"""


def test_acceptance_blobs_runs_start_no_thread():
    script = BLOBS_SCRIPT.format(src=str(TESTS.parent / "src"),
                                 tests=str(TESTS))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"started": [], "lane": "None", "threads": 1,
                    "futures": False}
