import json
from pathlib import Path

import pytest

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
