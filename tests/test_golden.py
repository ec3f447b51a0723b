"""Golden-file test: `dynavg run` outputs are locked byte for byte.

Each `golden/<name>.yaml` config is run through the CLI and its metrics CSV
and events JSONL must equal `golden/<name>.metrics.csv` and
`golden/<name>.events.jsonl` exactly.  This pins the report schemas and
every number in them, so a refactor that changes the arithmetic or the
reduction order shows up here.  The cases run again under CPython 3.12's
compensated float `sum`, so the bytes cannot depend on the interpreter.

The cases are the YAML files in `golden/`, each run by `dynavg run <config>`
alone: a config that wants the exact-variance audit says
`audit_variance: true`.  Every run stops at max_epochs (exit 1).  Some
cases pin a shape that the others do not:

- linear-fda-uneven-k5: shards of 80, 80, 79, 79, 79, so passes of
  5, 5, 4, 4, 4 batches;
- sketch-fda-k3: a 3x4 sketch, the mean of (l, m) rows with m > 1;
- sketch-fda-mlp-k3: the same sketch on a hidden-layer model;
- synchronous-k3 and linear-fda-theta0-k3: the every-step path, which a
  zero-threshold monitor runs to the same bytes.

Regenerate (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import builtins
import math
import tempfile
from pathlib import Path

import pytest
import yaml

from dynavg import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.yaml"))
EXIT_CODE = 1


def run_case(name: str, out_dir: Path) -> tuple[int, Path, Path]:
    mapping = yaml.safe_load((GOLDEN / f"{name}.yaml").read_text())
    csv_path, jsonl_path = out_dir / "metrics.csv", out_dir / "events.jsonl"
    mapping["output"] = {"metrics_csv": str(csv_path),
                         "events_jsonl": str(jsonl_path)}
    config = out_dir / "run.yaml"
    config.write_text(yaml.safe_dump(mapping))
    code = cli.main(["run", str(config)])
    return code, csv_path, jsonl_path


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(tmp_path, name):
    code, csv_path, jsonl_path = run_case(name, tmp_path)
    assert code == EXIT_CODE
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.metrics.csv").read_bytes()
    assert jsonl_path.read_bytes() == \
        (GOLDEN / f"{name}.events.jsonl").read_bytes()


def sum_py312(iterable, /, start=0):
    """Builtin `sum` as CPython 3.12 computes it: once the running total is
    a float, Neumaier-compensated additions, with the compensation added at
    the end when it is nonzero and finite.  Int sums are unchanged."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if isinstance(total, float):
            break
    else:
        return total
    compensation = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_sum_py312_compensates_floats_only():
    assert sum_py312([1e16, 1.0, -1e16]) == 1.0  # 0.0 before Python 3.12
    assert sum_py312([0.1] * 10) == 1.0
    assert sum_py312([1, 2, 3]) == 6 and sum_py312([], 5) == 5
    assert sum_py312([float("inf"), 1.0]) == float("inf")


@pytest.mark.parametrize("name", CASES)
def test_outputs_do_not_depend_on_builtin_float_sum(tmp_path, monkeypatch,
                                                    name):
    monkeypatch.setattr(builtins, "sum", sum_py312)
    test_outputs_match_golden(tmp_path, name)


def regenerate() -> None:
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, csv_path, jsonl_path = run_case(name, Path(tmp))
            if code != EXIT_CODE:
                raise SystemExit(f"{name}: exit code {code}")
            (GOLDEN / f"{name}.metrics.csv").write_bytes(csv_path.read_bytes())
            (GOLDEN / f"{name}.events.jsonl").write_bytes(
                jsonl_path.read_bytes())


if __name__ == "__main__":
    regenerate()
