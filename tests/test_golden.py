"""Golden-file test: `dynavg run` outputs are locked byte for byte.

Each `golden/<name>.yaml` config is run through the CLI and its metrics CSV
and events JSONL must equal `golden/<name>.metrics.csv` and
`golden/<name>.events.jsonl` exactly.  This pins the report schemas and
every number in them, so a refactor that changes the arithmetic or the
reduction order shows up here.

Regenerate (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import tempfile
from pathlib import Path

import pytest
import yaml

from dynavg import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> extra `dynavg run` flags; every run stops at max_epochs (exit 1).
CASES = {
    "linear-fda-k3": [],
    # shards of 80, 80, 79, 79, 79: passes of 5, 5, 4, 4, 4 batches
    "linear-fda-uneven-k5": [],
    "sketch-fda-audit-k3": ["--audit-variance"],
    "sketch-fda-k3": [],  # a 3x4 sketch: the mean of (l, m) rows, m > 1
    "fedopt-adam-k9": [],
    "local-sgd-adam-k9": [],
}
EXIT_CODE = 1


def run_case(name: str, out_dir: Path) -> tuple[int, Path, Path]:
    mapping = yaml.safe_load((GOLDEN / f"{name}.yaml").read_text())
    csv_path, jsonl_path = out_dir / "metrics.csv", out_dir / "events.jsonl"
    mapping["output"] = {"metrics_csv": str(csv_path),
                         "events_jsonl": str(jsonl_path)}
    config = out_dir / "run.yaml"
    config.write_text(yaml.safe_dump(mapping))
    code = cli.main(["run", str(config), *CASES[name]])
    return code, csv_path, jsonl_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(tmp_path, name):
    code, csv_path, jsonl_path = run_case(name, tmp_path)
    assert code == EXIT_CODE
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.metrics.csv").read_bytes()
    assert jsonl_path.read_bytes() == \
        (GOLDEN / f"{name}.events.jsonl").read_bytes()


def regenerate() -> None:
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, csv_path, jsonl_path = run_case(name, Path(tmp))
            if code != EXIT_CODE:
                raise SystemExit(f"{name}: exit code {code}")
            (GOLDEN / f"{name}.metrics.csv").write_bytes(csv_path.read_bytes())
            (GOLDEN / f"{name}.events.jsonl").write_bytes(
                jsonl_path.read_bytes())


if __name__ == "__main__":
    regenerate()
