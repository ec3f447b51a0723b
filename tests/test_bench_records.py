import importlib.util
import json
from pathlib import Path

import pytest

from dynavg import learner

ROOT = Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_record_is_a_passing_run_with_every_end_to_end_metric(workload):
    # Each workload has a committed BENCH_<workload>.json: the env block
    # and the result line of one `perfbench/run.py` run.
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert record["command"][:4] == ["python3", "perfbench/run.py",
                                     "--workload", workload]
    assert {"nproc", "python", "numpy", "commit"} <= set(record["env"])
    result = record["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_every_traced_call_site_exists():
    # perfbench/tracer.py wraps these names as module globals; one that the
    # program renames or moves would read 0 calls in a traced run.  The
    # stale cluster_sim.should_sync target is the one allowed absence.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = {(module, attr) for _, module, attr in tracer.PATCH_TARGETS}
    targets -= {("cluster_sim", "should_sync")}
    targets |= {("cluster_sim", "allreduce_average")}
    missing = [f"{module}.{attr}" for module, attr in sorted(targets)
               if not hasattr(importlib.import_module(f"dynavg.{module}"),
                              attr)]
    assert missing == []
    assert hasattr(learner.ShardSampler, "next_batch")
