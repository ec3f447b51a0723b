import csv
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from dynavg import cli
from dynavg.cluster_sim import (
    BlobsSpec,
    CostLedger,
    NonIidLabel,
    RunReport,
    StepLog,
    run,
)
from dynavg.fda_core import FedOpt, LinearFda, LocalSgd, SketchFda, Synchronous


GOLDEN = Path(__file__).parent / "golden"


BLOBS = {"kind": "blobs", "n": 400, "p": 6, "classes": 3, "test_n": 200}


def base_mapping(**overrides):
    mapping = {
        "seed": 5,
        "workers": 2,
        "batch_size": 16,
        "max_epochs": 2,
        "accuracy_target": 1.0,
        "dataset": dict(BLOBS),
        "model": {"kind": "logistic"},
        "optimizer": {"kind": "sgd", "lr": 0.05},
        "strategy": {"kind": "synchronous"},
    }
    mapping.update(overrides)
    return mapping


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


# --- theta presets ----------------------------------------------------------

def test_theta_preset_fl():
    assert cli.theta_preset("fl", 62_000) == pytest.approx(3.044, abs=1e-3)


def test_theta_preset_hpc():
    assert cli.theta_preset("hpc", 62_000) == pytest.approx(1.699, abs=1e-3)


def test_theta_preset_balanced_unit_dim():
    assert cli.theta_preset("balanced", 1) == pytest.approx(3.89e-5)


def test_theta_preset_errors():
    with pytest.raises(ValueError):
        cli.theta_preset("desktop", 100)
    with pytest.raises(ValueError):
        cli.theta_preset("fl", 0)


# --- config parsing ---------------------------------------------------------

def test_parse_config_basics():
    config = cli.parse_config(base_mapping())
    assert isinstance(config.strategy, Synchronous)
    assert isinstance(config.dataset, BlobsSpec)
    assert config.workers == 2 and config.batch_size == 16


def test_parse_all_strategies():
    cases = [
        ({"kind": "linear-fda", "theta": 0.5}, LinearFda),
        ({"kind": "sketch-fda", "theta": 0.5,
          "sketch": {"rows": 3, "cols": 7, "seed": 2}}, SketchFda),
        ({"kind": "local-sgd", "tau": 6}, LocalSgd),
        ({"kind": "fedopt", "local_epochs": 2,
          "server": {"kind": "adam", "lr": 0.001}}, FedOpt),
    ]
    for node, expected in cases:
        config = cli.parse_config(base_mapping(strategy=node))
        assert isinstance(config.strategy, expected)
    sk = cli.parse_config(base_mapping(
        strategy={"kind": "sketch-fda", "theta": 0.5,
                  "sketch": {"rows": 3, "cols": 7, "seed": 2}})).strategy
    assert (sk.rows, sk.cols, sk.seed) == (3, 7, 2)


def test_parse_theta_profile_resolves_against_model_dim():
    config = cli.parse_config(base_mapping(
        strategy={"kind": "linear-fda", "theta_profile": "balanced"}))
    d = 6 * 3 + 3
    assert config.strategy.theta == pytest.approx(3.89e-5 * d)


def test_parse_theta_and_profile_conflict():
    with pytest.raises(cli.ConfigError):
        cli.parse_config(base_mapping(
            strategy={"kind": "linear-fda", "theta": 0.1,
                      "theta_profile": "fl"}))


def test_parse_missing_required_fields():
    mapping = base_mapping()
    del mapping["workers"]
    with pytest.raises(cli.ConfigError):
        cli.parse_config(mapping)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(base_mapping(strategy={"kind": "warp"}))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(base_mapping(dataset={"kind": "parquet"}))


def test_parse_partition_schemes():
    config = cli.parse_config(base_mapping(
        partition={"scheme": "noniid-label", "label": 0, "holders": 2}))
    assert config.partition_scheme == NonIidLabel(label=0, holders=2)


def test_parse_idx_requires_existing_files(tmp_path):
    mapping = base_mapping(dataset={
        "kind": "idx",
        "train_images": str(tmp_path / "missing.idx"),
        "train_labels": str(tmp_path / "missing2.idx"),
        "test_images": str(tmp_path / "missing3.idx"),
        "test_labels": str(tmp_path / "missing4.idx")})
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.parse_config(mapping)


def test_config_round_trip(tmp_path):
    from test_cluster_sim import idx_spec

    strategies = [
        {"kind": "synchronous"},
        {"kind": "linear-fda", "theta": 0.25},
        {"kind": "sketch-fda", "theta": 0.5,
         "sketch": {"rows": 2, "cols": 9, "seed": 4}},
        {"kind": "local-sgd", "tau": 3},
        {"kind": "fedopt", "local_epochs": 2},
        {"kind": "fedopt", "server": {"kind": "adam", "lr": 0.02,
                                      "beta1": 0.8}}]
    cases = [{"strategy": strategy} for strategy in strategies] + [
        {"partition": {"scheme": "iid"}},
        {"partition": {"scheme": "noniid-fraction", "percent": 40}},
        {"partition": {"scheme": "noniid-label", "label": 1, "holders": 2}},
        {"dataset": {"kind": "blobs", "n": 300, "p": 4, "classes": 3,
                     "seed": 17}},
        {"dataset": {"kind": "idx", **asdict(idx_spec(tmp_path))}},
        {"model": {"kind": "mlp", "hidden": 5, "init": "he-normal"},
         "optimizer": {"kind": "adamw", "lr": 0.002, "beta2": 0.99,
                       "weight_decay": 0.01},
         "output": {"metrics_csv": "out/m.csv",
                    "events_jsonl": "out/e.jsonl"}}]
    for overrides in cases:
        config = cli.parse_config(base_mapping(**overrides))
        assert cli.parse_config(config.to_node()) == config


@pytest.mark.parametrize("strategy", [
    {"kind": "local-sgd", "tau": 0},
    {"kind": "fedopt", "local_epochs": 0},
    {"kind": "fedopt", "server": {"kind": "yogi"}},
    {"kind": "sketch-fda", "theta": 0.5, "sketch": {"rows": 0}},
    {"kind": "linear-fda", "theta": -0.1},
    {"kind": "fedopt", "server": {"nesterov": True}},
    {"kind": "fedopt", "server": {"weight_decay": 0.1}},
], ids=["tau-0", "local-epochs-0", "server-yogi", "sketch-rows-0",
        "negative-theta", "server-nesterov", "server-weight-decay"])
def test_invalid_strategy_values_rejected_at_parse(tmp_path, strategy):
    mapping = base_mapping(strategy=strategy)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(mapping)
    assert cli.main(["run", write_config(tmp_path, mapping)]) == 2


# Cases whose error must name the key at fault.
NAMED_KEYS = {"synchronous-theta-profile": "'theta_profile'",
              "linear-fda-no-theta": "'theta'",
              "blobs-n-0": "blobs n must", "blobs-p-0": "blobs p must",
              "blobs-classes-1": "blobs classes must",
              "blobs-test-n-0": "blobs test_n must",
              "seed-negative": "config: seed must be >= 0",
              "sketch-seed-negative": "sketch seed must be >= 0",
              "blobs-seed-negative": "blobs seed must be >= 0"}


@pytest.mark.parametrize("overrides", [
    {"model": {"kind": "cnn"}},
    {"model": {"kind": "logistic", "init": "zeros"}},
    {"optimizer": {"kind": "rmsprop", "lr": 0.05}},
    {"partition": {"scheme": "noniid-fraction", "percent": 150}},
    {"partition": {"scheme": "noniid-label", "label": 0, "holders": 0}},
    {"audit_variance": "false"},
    {"optimizer": {"kind": "sgd-momentum", "lr": 0.05, "nesterov": "false"}},
    {"workers": 2.7},
    {"model": "logistic"},
    {"strategy": {"kind": "linear-fda", "theta": True}},
    {"optimizer": {"kind": "sgd", "lr": True}},
    {"strategy": {"kind": "fedopt", "server": {"lr": True}}},
    {"output": {"metrics_csv": True}},
    {"strategy": {"kind": "linear-fda", "theta_profile": 1}},
    {"optimizer": {"kind": "sgd", "learning_rate": 0.5}},
    {"wokers": 9},
    {"strategy": {"kind": "linear-fda", "theta": 0.5,
                  "sketch": {"rows": 3}}},
    {"partition": {"scheme": "noniid-label", "label": 0, "holder": 2}},
    {"strategy": {"kind": "synchronous", "theta_profile": "balanced"}},
    {"strategy": {"kind": "linear-fda"}},
    {"strategy": {"kind": "sketch-fda", "theta": 0.5, "sketch": {"row": 3}}},
    {"model": {"kind": "logistic", "hiden": 4}},
    {"strategy": {"kind": "fedopt", "server": {"learning_rate": 0.1}}},
    {"model": {"kind": "logistic", "hidden": 128}},
    {"output": {"metrics_csv": "out/both.log",
                "events_jsonl": "out/./sub/../both.log"}},
    {"optimizer": {"kind": "sgd", "lr": -0.1}},
    {"optimizer": {"kind": "sgd", "lr": float("nan")}},
    {"optimizer": {"kind": "sgd", "lr": float("inf")}},
    {"optimizer": {"kind": "sgd-momentum", "lr": 0.05, "momentum": -3}},
    {"optimizer": {"kind": "sgd-momentum", "lr": 0.05, "momentum": 1.0}},
    {"optimizer": {"kind": "adam", "lr": 0.05, "beta1": 1.0}},
    {"optimizer": {"kind": "adam", "lr": 0.05, "beta1": -0.1}},
    {"optimizer": {"kind": "adam", "lr": 0.05, "beta2": 1.5}},
    {"optimizer": {"kind": "adam", "lr": 0.05, "eps": 0.0}},
    {"optimizer": {"kind": "adam", "lr": 0.05, "eps": float("nan")}},
    {"optimizer": {"kind": "adamw", "lr": 0.05, "weight_decay": -0.1}},
    {"optimizer": {"kind": "adamw", "lr": 0.05,
                   "weight_decay": float("inf")}},
    {"strategy": {"kind": "fedopt", "server": {"lr": -1.0}}},
    {"strategy": {"kind": "fedopt", "server": {"momentum": 1.0}}},
    {"strategy": {"kind": "fedopt", "server": {"kind": "adam",
                                               "beta1": 1.0}}},
    {"strategy": {"kind": "fedopt", "server": {"kind": "adam",
                                               "eps": -1e-7}}},
    {"accuracy_target": float("nan")},
    {"accuracy_target": -3},
    {"accuracy_target": 1.5},
    {"dataset": {**BLOBS, "n": 0}},
    {"dataset": {**BLOBS, "p": 0}},
    {"dataset": {**BLOBS, "classes": 1}},
    {"dataset": {**BLOBS, "test_n": 0}},
    {"workers": "3"},
    {"seed": "7"},
    {"accuracy_target": "0.5"},
    {"strategy": {"kind": "linear-fda", "theta": "0.01"}},
    {"seed": -1},
    {"strategy": {"kind": "sketch-fda", "theta": 0.5, "sketch": {"seed": -1}}},
    {"dataset": {**BLOBS, "seed": -3}},
], ids=["model-cnn", "init-zeros", "optimizer-rmsprop", "percent-150",
        "holders-0", "audit-quoted-false", "nesterov-quoted-false",
        "workers-2.7", "model-not-a-mapping", "theta-true", "lr-true",
        "server-lr-true", "metrics-csv-true", "theta-profile-int",
        "optimizer-learning-rate", "wokers", "linear-fda-sketch",
        "label-holder", "synchronous-theta-profile", "linear-fda-no-theta",
        "sketch-row",
        "model-hiden", "server-learning-rate", "logistic-hidden",
        "one-file-both-outputs", "lr-negative", "lr-nan", "lr-inf",
        "momentum-negative", "momentum-1", "beta1-1", "beta1-negative",
        "beta2-1.5", "eps-0", "eps-nan", "weight-decay-negative",
        "weight-decay-inf", "server-lr-negative", "server-momentum-1",
        "server-beta1-1", "server-eps-negative", "target-nan", "target--3",
        "target-1.5", "blobs-n-0", "blobs-p-0", "blobs-classes-1",
        "blobs-test-n-0", "workers-string", "seed-string", "target-string",
        "theta-string", "seed-negative", "sketch-seed-negative",
        "blobs-seed-negative"])
def test_invalid_config_values_rejected_at_parse(tmp_path, overrides,
                                                request):
    mapping = base_mapping(**overrides)
    match = NAMED_KEYS.get(request.node.callspec.id)
    with pytest.raises(cli.ConfigError, match=match):
        cli.parse_config(mapping)
    assert cli.main(["run", write_config(tmp_path, mapping)]) == 2


@pytest.mark.parametrize("partition", [
    {"scheme": "noniid-label", "label": 0, "holders": 3},
    {"scheme": "noniid-label", "label": 3},
    {"scheme": "noniid-label", "label": -1},
], ids=["holders-over-workers", "label-over-classes", "label-negative"])
def test_partition_outside_workers_or_classes_rejected_at_parse(tmp_path,
                                                                partition):
    # base_mapping has 2 workers and 3 blob classes.
    mapping = base_mapping(partition=partition)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(mapping)
    assert cli.main(["run", write_config(tmp_path, mapping)]) == 2


def test_numpy_scalars_parse_as_numbers():
    config = cli.parse_config(base_mapping(
        workers=np.int64(3), accuracy_target=np.float32(0.5),
        strategy={"kind": "linear-fda", "theta": np.float64(0.01)}))
    assert config.workers == 3 and config.accuracy_target == 0.5
    assert config.strategy.theta == 0.01


def drop_nulls(node: dict) -> dict:
    return {key: drop_nulls(value) if isinstance(value, dict) else value
            for key, value in node.items() if value is not None}


@pytest.mark.parametrize("overrides", [
    {"partition": None},
    {"optimizer": None},
    {"model": None},
    {"output": None},
    {"strategy": {"kind": "sketch-fda", "theta": 0.5, "sketch": None}},
    {"strategy": {"kind": "fedopt", "server": None}},
], ids=["partition", "optimizer", "model", "output", "strategy-sketch",
        "strategy-server"])
def test_empty_optional_node_reads_as_absent(tmp_path, overrides):
    mapping = base_mapping(**overrides)
    config = cli.load_config(write_config(tmp_path, mapping))
    assert config == cli.parse_config(drop_nulls(mapping))


def test_readme_config_schema_parses():
    # The README's schema block is a valid config under the strict-key
    # parser, so a renamed or removed key there fails here.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Run config schema (YAML)", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    config = cli.parse_config(yaml.safe_load(block))
    assert config.strategy == LinearFda(theta=0.00245)
    assert config.dataset == BlobsSpec(n=6000, p=20, num_classes=3,
                                       test_n=2000)
    assert (config.metrics_csv, config.events_jsonl) == (
        "out/metrics.csv", "out/events.jsonl")


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_golden_configs_parse_alike_under_both_yaml_loaders(path):
    # `load_config` parses with libyaml when PyYAML has it; the pure-Python
    # SafeLoader shares its constructor, so every config reads the same.
    configs = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        with open(path) as f:
            configs.append(cli.parse_config(yaml.load(f, Loader=loader)))
    assert configs[0] == configs[1] == cli.load_config(str(path))


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("strategy: [unclosed")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(path))


def test_idx_theta_profile_peeks_headers(tmp_path):
    from test_learner import write_idx_images, write_idx_labels

    rng = np.random.default_rng(32)
    files = {}
    for split, n in (("train", 50), ("test", 20)):
        images = rng.integers(0, 256, size=(n, 5, 6), dtype=np.uint8)
        labels = rng.integers(0, 4, size=n, dtype=np.uint8)
        ip = str(tmp_path / f"{split}-i.idx.gz")
        lp = str(tmp_path / f"{split}-l.idx.gz")
        write_idx_images(ip, images, gz=True)
        write_idx_labels(lp, labels, gz=True)
        files[split] = (ip, lp)
    mapping = base_mapping(
        dataset={"kind": "idx",
                 "train_images": files["train"][0],
                 "train_labels": files["train"][1],
                 "test_images": files["test"][0],
                 "test_labels": files["test"][1]},
        strategy={"kind": "linear-fda", "theta_profile": "fl"})
    config = cli.parse_config(mapping)
    d = 5 * 6 * 4 + 4  # p from the image header, classes from the labels
    assert config.strategy.theta == pytest.approx(4.91e-5 * d)


def test_idx_theta_profile_matches_the_trained_model(tmp_path):
    # The test split holds a class the train split lacks: theta must be
    # resolved for the model the run trains, which counts both splits.
    from test_learner import write_idx_images, write_idx_labels

    rng = np.random.default_rng(33)
    files = {}
    for split, n, classes in (("train", 60, 3), ("test", 20, 4)):
        images = rng.integers(0, 256, size=(n, 2, 3), dtype=np.uint8)
        labels = np.arange(n, dtype=np.uint8) % classes
        ip, lp = str(tmp_path / f"{split}-i.idx"), str(tmp_path / f"{split}-l.idx")
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        files[split] = (ip, lp)
    mapping = base_mapping(
        dataset={"kind": "idx",
                 "train_images": files["train"][0],
                 "train_labels": files["train"][1],
                 "test_images": files["test"][0],
                 "test_labels": files["test"][1]},
        strategy={"kind": "linear-fda", "theta_profile": "fl"})
    config = cli.parse_config(mapping)
    report = run(config)
    d = report.final_mean_params.size
    assert d == 6 * 4 + 4
    assert config.strategy.theta == pytest.approx(4.91e-5 * d)


def test_idx_theta_profile_rejects_image_file_as_labels(tmp_path):
    from test_learner import write_idx_images

    images = str(tmp_path / "train-i.idx")
    write_idx_images(images, np.zeros((8, 5, 6), dtype=np.uint8))
    mapping = base_mapping(
        dataset={"kind": "idx", "train_images": images,
                 "train_labels": images, "test_images": images,
                 "test_labels": images},
        strategy={"kind": "linear-fda", "theta_profile": "fl"})
    with pytest.raises(cli.ConfigError, match="magic"):
        cli.parse_config(mapping)


# --- run_experiment ---------------------------------------------------------

def test_run_experiment_writes_reports(tmp_path, capsys):
    out_csv = str(tmp_path / "out" / "metrics.csv")
    out_jsonl = str(tmp_path / "out" / "events.jsonl")
    mapping = base_mapping(output={"metrics_csv": out_csv,
                                   "events_jsonl": out_jsonl})
    code = cli.run_experiment(write_config(tmp_path, mapping))
    assert code == 1  # target 1.0 not reached
    with open(out_csv) as f:
        rows = list(csv.DictReader(f))
    assert [r["epoch"] for r in rows] == ["1", "2"]
    assert list(rows[0].keys()) == cli.METRICS_COLUMNS
    # Synchronous: the syncs column tracks the steps column.
    for row in rows:
        assert row["syncs"] == row["steps"]
    with open(out_jsonl) as f:
        events = [json.loads(line) for line in f]
    assert len(events) == int(rows[-1]["steps"])
    assert events[0]["worker_count"] == 2
    assert events[0]["synced"] is True
    assert events[-1]["bytes_cumulative"] == int(
        float(rows[-1]["bytes_total"]))


def test_run_summary_line_of_a_golden_config(capsys):
    assert cli.main(["run", str(GOLDEN / "linear-fda-k3.yaml")]) == 1
    assert capsys.readouterr().out == (
        "steps=36 epochs=3 syncs=7 bytes=3132 test_accuracy=0.5500 "
        "reached_target=False\n")


def test_run_experiment_deterministic_outputs(tmp_path):
    means, events = [], []
    for tag in ("a", "b"):
        out_csv = str(tmp_path / tag / "metrics.csv")
        out_jsonl = str(tmp_path / tag / "events.jsonl")
        mapping = base_mapping(
            strategy={"kind": "linear-fda", "theta": 0.02},
            output={"metrics_csv": out_csv, "events_jsonl": out_jsonl})
        code = cli.run_experiment(write_config(tmp_path, mapping,
                                               name=f"{tag}.yaml"))
        assert code in (0, 1)
        means.append(Path(out_csv).read_bytes())
        events.append(Path(out_jsonl).read_bytes())
    assert means[0] == means[1]
    assert events[0] == events[1]


def test_run_experiment_reaches_target(tmp_path):
    mapping = base_mapping(
        dataset={"kind": "blobs", "n": 600, "p": 25, "classes": 3,
                 "test_n": 300},
        optimizer={"kind": "sgd", "lr": 0.2},
        max_epochs=40, accuracy_target=0.9)
    code = cli.run_experiment(write_config(tmp_path, mapping))
    assert code == 0


def test_run_experiment_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("not: [valid")
    assert cli.run_experiment(str(path)) == 2
    missing = base_mapping()
    del missing["dataset"]
    assert cli.run_experiment(write_config(tmp_path, missing)) == 2


@pytest.mark.parametrize("key", ["metrics_csv", "events_jsonl"])
def test_run_experiment_output_under_a_file_is_a_config_error(
        tmp_path, capsys, monkeypatch, key):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("trained"))
    # A path under a file, and a path that is an existing directory.
    for path in (blocker / "out" / "report", tmp_path):
        mapping = base_mapping(output={key: str(path)})
        assert cli.run_experiment(write_config(tmp_path, mapping)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_experiment_divergence_exit_code(tmp_path):
    mapping = base_mapping(
        model={"kind": "mlp", "hidden": 8},
        optimizer={"kind": "sgd", "lr": 1e160})
    assert cli.run_experiment(write_config(tmp_path, mapping)) == 3


def test_run_experiment_audit_flag(tmp_path):
    out_jsonl = str(tmp_path / "ev.jsonl")
    mapping = base_mapping(strategy={"kind": "linear-fda", "theta": 0.05},
                           output={"events_jsonl": out_jsonl})
    code = cli.run_experiment(write_config(tmp_path, mapping),
                              audit_variance=True)
    assert code in (0, 1)


def test_events_jsonl_renders_null_nan_and_infinity_as_json_dumps(tmp_path):
    # The writer formats lines from the log's columns; each must equal
    # json.dumps of the record dict, whatever the H value.
    h_values = [None, float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                0.1, 1e-300, 1e22, 123456789.125, None]
    log = StepLog()
    for i, h in enumerate(h_values):
        log.append(i % 3 == 0, h, None, 0.5, 2 ** 40 + 8 * i)
    report = RunReport(
        steps=log, epochs=[], ledger=CostLedger(), worker_count=7,
        reached_target=False, final_mean_params=np.zeros(4))
    path = tmp_path / "events.jsonl"
    cli.write_events_jsonl(report, str(path))
    expected = "".join(
        json.dumps({"step": i + 1, "worker_count": 7, "H": h,
                    "synced": i % 3 == 0,
                    "bytes_cumulative": 2 ** 40 + 8 * i}) + "\n"
        for i, h in enumerate(h_values))
    written = path.read_bytes()
    assert written == expected.encode()
    for spelling in (b"null", b"NaN", b" Infinity", b"-Infinity", b"-0.0"):
        assert spelling in written


# --- sweep ------------------------------------------------------------------

def test_sweep_empty_directory(tmp_path):
    out = str(tmp_path / "agg.csv")
    rows = cli.sweep(str(tmp_path), out)
    assert rows == []
    with open(out) as f:
        lines = f.read().splitlines()
    assert lines == [",".join(cli.SWEEP_COLUMNS)]


def test_sweep_missing_directory_is_a_config_error_before_any_run(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("trained"))
    # A path that does not exist, and a config file given as the directory.
    config = write_config(tmp_path, base_mapping())
    for path in (tmp_path / "no" / "such" / "dir", config):
        with pytest.raises(OSError):
            cli.sweep(str(path))
        assert cli.main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


def test_sweep_marks_failures_and_continues(tmp_path):
    write_config(tmp_path, base_mapping(), name="a_good.yaml")
    write_config(tmp_path, base_mapping(
        strategy={"kind": "linear-fda", "theta": 0.05}), name="b_good.yaml")
    (tmp_path / "c_bad.yaml").write_text("strategy: {kind: warp}")
    out = str(tmp_path / "agg.csv")
    rows = cli.sweep(str(tmp_path), out)
    assert len(rows) == 3
    statuses = sorted(r["status"] for r in rows)
    assert statuses == ["failed", "ok", "ok"]
    failed = [r for r in rows if r["status"] == "failed"][0]
    assert failed["config"] == "c_bad.yaml"


def test_sweep_runs_configs_with_empty_nodes(tmp_path):
    write_config(tmp_path, base_mapping(), name="a_good.yaml")
    write_config(tmp_path, base_mapping(model=None, output=None),
                 name="b_empty_nodes.yaml")
    write_config(tmp_path, base_mapping(model="logistic"),
                 name="c_model_not_a_mapping.yaml")
    rows = cli.sweep(str(tmp_path))
    status = {r["config"]: r["status"] for r in rows}
    assert status == {"a_good.yaml": "ok", "b_empty_nodes.yaml": "ok",
                      "c_model_not_a_mapping.yaml": "failed"}


def test_sweep_unusable_out_is_a_config_error_before_any_run(
        tmp_path, capsys, monkeypatch):
    configs = tmp_path / "configs"
    configs.mkdir()
    write_config(configs, base_mapping())
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("trained"))
    # An existing directory, and a path under a file.
    for out in (tmp_path, blocker / "agg.csv"):
        assert cli.main(["sweep", str(configs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


def test_sweep_writes_each_configs_outputs_as_run_does(tmp_path):
    def outputs(name):
        return {"metrics_csv": str(tmp_path / name / "metrics.csv"),
                "events_jsonl": str(tmp_path / name / "events.jsonl")}

    strategy = {"kind": "linear-fda", "theta": 0.05}
    configs = tmp_path / "configs"
    configs.mkdir()
    write_config(configs, base_mapping(strategy=strategy,
                                       output=outputs("swept")))
    # A report path under a file fails that run's row, not the sweep.
    (tmp_path / "blocker").write_text("")
    write_config(configs, base_mapping(output={
        "metrics_csv": str(tmp_path / "blocker" / "m.csv")}),
        name="unwritable.yaml")
    rows = cli.sweep(str(configs))
    assert {r["config"]: r["status"] for r in rows} == {
        "run.yaml": "ok", "unwritable.yaml": "failed"}
    single = write_config(tmp_path, base_mapping(strategy=strategy,
                                                 output=outputs("single")))
    assert cli.main(["run", single]) == 1
    for name in ("metrics.csv", "events.jsonl"):
        swept = (tmp_path / "swept" / name).read_bytes()
        assert swept and swept == (tmp_path / "single" / name).read_bytes()


def test_sweep_grid_sorted_and_synchronous_dominates(tmp_path):
    target = 0.85
    for i, (kind, workers) in enumerate(
            [("linear-fda", 2), ("linear-fda", 5),
             ("synchronous", 2), ("synchronous", 5)]):
        strategy = {"kind": kind}
        if kind == "linear-fda":
            strategy["theta"] = 0.01
        mapping = base_mapping(
            dataset={"kind": "blobs", "n": 1000, "p": 25, "classes": 3,
                     "test_n": 400},
            optimizer={"kind": "sgd", "lr": 0.1},
            workers=workers, max_epochs=30, accuracy_target=target,
            strategy=strategy)
        write_config(tmp_path, mapping, name=f"cfg{i}.yaml")
    rows = cli.sweep(str(tmp_path), str(tmp_path / "agg.csv"))
    assert len(rows) == 4
    assert [r["strategy"] for r in rows] == [
        "linear-fda", "linear-fda", "synchronous", "synchronous"]
    assert [r["workers"] for r in rows] == [2, 5, 2, 5]
    assert all(r["reached_target"] for r in rows)
    for k in (2, 5):
        fda_bytes = [r["bytes"] for r in rows
                     if r["strategy"] == "linear-fda" and r["workers"] == k][0]
        sync_bytes = [r["bytes"] for r in rows
                      if r["strategy"] == "synchronous" and r["workers"] == k][0]
        assert sync_bytes >= fda_bytes


# --- command line -----------------------------------------------------------

def test_main_theta(capsys):
    assert cli.main(["theta", "--profile", "fl", "--dim", "62000"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(3.044, abs=1e-3)


@pytest.mark.parametrize("dim", ["0", "-5"])
def test_main_theta_dim_below_one_is_a_config_error(capsys, dim):
    assert cli.main(["theta", "--profile", "fl", "--dim", dim]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: model dimension must be >= 1\n"


def test_main_run_and_sweep(tmp_path, capsys):
    config = write_config(tmp_path, base_mapping())
    assert cli.main(["run", config]) == 1
    sweep_dir = tmp_path / "sweepdir"
    sweep_dir.mkdir()
    write_config(sweep_dir, base_mapping(), name="one.yaml")
    out = str(tmp_path / "agg.csv")
    assert cli.main(["sweep", str(sweep_dir), "--out", out]) == 0
    assert os.path.exists(out)
