import csv
import hashlib
import json
import os
import statistics
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from dynavg import cli
from dynavg.cluster_sim import (
    BlobsSpec,
    EpochRecord,
    NonIidLabel,
    RunReport,
    StepLog,
    run,
)
from dynavg.fda_core import (FedOpt, LinearFda, LocalSgd, ServerSpec,
                             SketchFda, Synchronous, SyncStrategy,
                             VarianceMonitor)


GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
FRONTIER = ROOT / "experiments" / "theta-frontier"
HETEROGENEITY = ROOT / "experiments" / "heterogeneity"
WORKERS = ROOT / "experiments" / "workers"
SEEDS = ROOT / "experiments" / "seeds"
BASELINES = ROOT / "experiments" / "baselines"
BASELINES_SKEW = ROOT / "experiments" / "baselines-skew"
BASELINES_SEEDS = ROOT / "experiments" / "baselines-seeds"


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
    # The hidden width enters d: p -> hidden -> C is 6*6 + 6 + 6*3 + 3.
    config = cli.parse_config(base_mapping(
        model={"kind": "mlp", "hidden": 6},
        strategy={"kind": "linear-fda", "theta_profile": "balanced"}))
    d = 6 * 6 + 6 + 6 * 3 + 3
    assert config.strategy.theta == pytest.approx(3.89e-5 * d)


# The fields without a default that a strategy kind needs besides theta.
REQUIRED_FIELDS = {"local-sgd": {"tau": 3}}


@pytest.mark.parametrize("variant", SyncStrategy.__subclasses__(),
                         ids=lambda variant: variant.kind)
def test_theta_profile_resolves_under_exactly_the_monitor_kinds(variant):
    strategy = {"kind": variant.kind, "theta_profile": "balanced",
                **REQUIRED_FIELDS.get(variant.kind, {})}
    mapping = base_mapping(strategy=strategy)
    if issubclass(variant, VarianceMonitor):
        config = cli.parse_config(mapping)
        assert type(config.strategy) is variant
        assert config.strategy.theta == pytest.approx(3.89e-5 * (6 * 3 + 3))
    else:
        with pytest.raises(cli.ConfigError,
                           match=r"unknown \w+ key\(s\) 'theta_profile'"):
            cli.parse_config(mapping)


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
        {"dataset": {"kind": "blobs", "n": 300, "p": 4, "classes": 3}},
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
              "dataset-seed": r"unknown BlobsSpec key\(s\) 'seed'",
              "adam-weight-decay": "adam optimizer does not read weight_decay",
              "sgd-nesterov": "sgd optimizer does not read nesterov",
              "sgd-momentum-beta1": "sgd-momentum optimizer does not read beta1",
              "server-adam-momentum": "adam optimizer does not read momentum",
              "sgd-eps": "sgd optimizer does not read eps",
              "sgd-momentum-eps": "sgd-momentum optimizer does not read eps",
              "server-eps": "sgd-momentum optimizer does not read eps",
              "synchronous-tau": r"unknown Synchronous key\(s\) 'tau'"}


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
    {"dataset": {**BLOBS, "seed": 17}},
    {"optimizer": {"kind": "adam", "lr": 0.01, "weight_decay": 0.1}},
    {"optimizer": {"kind": "sgd", "lr": 0.01, "nesterov": True}},
    {"optimizer": {"kind": "sgd-momentum", "lr": 0.01, "beta1": 0.5}},
    {"strategy": {"kind": "fedopt", "server": {"kind": "adam", "lr": 0.1,
                                               "momentum": 0.5}}},
    {"optimizer": {"kind": "sgd", "lr": 0.01, "eps": 1.0e-6}},
    {"optimizer": {"kind": "sgd-momentum", "lr": 0.01, "eps": 1.0e-6}},
    {"strategy": {"kind": "fedopt", "server": {"eps": 1.0e-6}}},
    {"strategy": {"kind": "synchronous", "tau": 1}},
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
        "dataset-seed", "adam-weight-decay", "sgd-nesterov",
        "sgd-momentum-beta1", "server-adam-momentum", "sgd-eps",
        "sgd-momentum-eps", "server-eps", "synchronous-tau"])
def test_invalid_config_values_rejected_at_parse(tmp_path, overrides,
                                                request):
    mapping = base_mapping(**overrides)
    match = NAMED_KEYS.get(request.node.callspec.id)
    with pytest.raises(cli.ConfigError, match=match):
        cli.parse_config(mapping)
    assert cli.main(["run", write_config(tmp_path, mapping)]) == 2


@pytest.mark.parametrize("partition,idx", [
    ({"scheme": "noniid-label", "label": 0, "holders": 3}, False),
    ({"scheme": "noniid-label", "label": 3}, False),
    ({"scheme": "noniid-label", "label": -1}, False),
    ({"scheme": "noniid-label", "label": 3}, True),
], ids=["holders-over-workers", "label-over-classes", "label-negative",
        "idx-label-over-classes"])
def test_partition_outside_workers_or_classes_rejected_at_parse(tmp_path,
                                                                partition,
                                                                idx):
    # base_mapping has 2 workers and 3 blob classes; idx_spec's files hold
    # 3 classes, which the config reads from its label files.
    mapping = base_mapping(partition=partition)
    if idx:
        from test_cluster_sim import idx_spec

        mapping["dataset"] = idx_spec(tmp_path).to_node()
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


K3 = (GOLDEN / "linear-fda-k3.yaml").read_text()


@pytest.mark.parametrize("name, text, key", [
    ("top.yaml", K3 + "workers: 9\n", "'workers'"),
    ("nested.yaml", K3.replace("theta: 0.01", "theta: 0.01, theta: 0.5"),
     "'theta'"),
    ("dup.json", json.dumps(yaml.safe_load(K3))[:-1] + ', "workers": 9}',
     "'workers'"),
], ids=["top-level", "nested", "json"])
def test_load_config_rejects_a_key_written_twice(tmp_path, name, text, key):
    assert text.count(key.strip("'")) == 2
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(cli.ConfigError, match=f"duplicate key {key}"):
        cli.load_config(str(path))
    assert cli.main(["run", str(path)]) == 2
    rows = cli.sweep([str(path)])
    assert [(r["config"], r["status"]) for r in rows] == [(name, "failed")]


def test_load_config_merge_keys_still_merge(tmp_path):
    # A merged key may be overridden by one written out; only an explicit
    # key written twice is rejected.
    path = tmp_path / "merge.yaml"
    path.write_text(yaml.safe_dump(base_mapping(strategy={}))
                    .replace("optimizer:", "optimizer: &opt")
                    .replace("strategy: {}", "strategy: {kind: fedopt, "
                             "server: {<<: *opt, kind: sgd-momentum}}"))
    config = cli.load_config(str(path))
    assert config.strategy.server == ServerSpec(lr=0.05)


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


def idx_mapping(tmp_path, **overrides):
    """A linear-fda config with a theta_profile over seeded IDX files:
    gzipped 4x5 images, plain labels, and a test split holding a class (3)
    that the train split lacks."""
    from test_learner import write_idx_images, write_idx_labels

    rng = np.random.default_rng(35)
    dataset = {"kind": "idx"}
    for split, n, classes in (("train", 180, 3), ("test", 60, 4)):
        labels = rng.integers(0, classes, size=n, dtype=np.uint8)
        images = rng.integers(0, 64, size=(n, 4, 5), dtype=np.uint8)
        images += (64 * labels)[:, None, None]
        dataset[f"{split}_images"] = str(tmp_path / f"{split}-images.idx.gz")
        dataset[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
        write_idx_images(dataset[f"{split}_images"], images, gz=True)
        write_idx_labels(dataset[f"{split}_labels"], labels)
    return base_mapping(**{
        "dataset": dataset, "workers": 3, "batch_size": 8, "max_epochs": 3,
        "strategy": {"kind": "linear-fda", "theta_profile": "fl"},
        **overrides})


# sha256 of the reports of the `idx_mapping` run: reading the IDX files
# and counting their classes must not move a byte.
IDX_RUN_SHA256 = {
    "metrics.csv":
        "d141b1476d3207359020afb7fb340bfa07613d4450b0b114c953ea0f33835b23",
    "events.jsonl":
        "1210fb48db7d310ec4982cc0d6cb7fcc3d7bec741f632d7705f15317ab9365a5",
}


def test_idx_run_outputs_are_pinned(tmp_path):
    output = {"metrics_csv": str(tmp_path / "metrics.csv"),
              "events_jsonl": str(tmp_path / "events.jsonl")}
    config = write_config(tmp_path, idx_mapping(tmp_path, output=output))
    assert cli.main(["run", config]) == 1
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in IDX_RUN_SHA256}
    assert digests == IDX_RUN_SHA256


def test_idx_config_reads_each_file_once(tmp_path, monkeypatch):
    # Parsing reads each split's image header and each label file once;
    # the run then reads each of the four files once.
    from dynavg import learner

    opened, read = [], []
    open_idx, read_idx = learner._open_idx, learner.read_idx

    def counting_open(path, *args):
        opened.append(path)
        return open_idx(path, *args)

    def counting_read(path, *args):
        read.append(path)
        return read_idx(path, *args)

    monkeypatch.setattr(learner, "_open_idx", counting_open)
    monkeypatch.setattr(learner, "read_idx", counting_read)
    mapping = idx_mapping(tmp_path)
    files = mapping["dataset"]
    config = cli.parse_config(mapping)
    labels = sorted([files["train_labels"], files["test_labels"]])
    assert sorted(read) == labels
    assert sorted(opened) == sorted([files["train_images"],
                                     files["test_images"], *labels])
    del opened[:], read[:]
    run(config)
    paths = sorted(path for key, path in files.items() if key != "kind")
    assert sorted(read) == sorted(opened) == paths


def test_idx_test_images_of_other_dims_are_a_config_error(tmp_path, capsys,
                                                          monkeypatch):
    from test_learner import write_idx_images

    mapping = idx_mapping(tmp_path)
    test_images = mapping["dataset"]["test_images"]
    write_idx_images(test_images, np.zeros((60, 5, 5), dtype=np.uint8),
                     gz=True)
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("trained"))
    assert cli.main(["run", write_config(tmp_path, mapping)]) == 2
    err = capsys.readouterr().err
    assert f"images file {test_images} holds 5x5 images" in err
    assert mapping["dataset"]["train_images"] in err


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
def test_damaged_gzip_idx_file_is_a_config_error(tmp_path, capsys, damage):
    from test_learner import damage_gzip

    mapping = idx_mapping(tmp_path)
    damage_gzip(mapping["dataset"]["train_images"], damage)
    assert cli.main(["run", write_config(tmp_path, mapping)]) == 2
    assert "images file" in capsys.readouterr().err


def test_sweep_records_a_damaged_idx_config_and_goes_on(tmp_path):
    from test_learner import damage_gzip

    mapping = idx_mapping(tmp_path)
    damage_gzip(mapping["dataset"]["train_images"], "truncated")
    paths = [write_config(tmp_path, mapping, name="a_damaged.yaml"),
             write_config(tmp_path, base_mapping(), name="b_blobs.yaml")]
    out = tmp_path / "agg.csv"
    assert cli.main(["sweep", *paths, "--out", str(out)]) == 0
    with open(out) as f:
        rows = [(r["config"], r["status"]) for r in csv.DictReader(f)]
    assert rows == [("a_damaged.yaml", "failed"), ("b_blobs.yaml", "ok")]


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


def test_synchronous_writes_the_outputs_of_local_sgd_at_tau_1(tmp_path):
    outputs = []
    for strategy in ({"kind": "synchronous"}, {"kind": "local-sgd", "tau": 1}):
        out = tmp_path / strategy["kind"]
        mapping = base_mapping(
            strategy=strategy,
            output={"metrics_csv": str(out / "metrics.csv"),
                    "events_jsonl": str(out / "events.jsonl")})
        assert cli.run_experiment(write_config(tmp_path, mapping)) == 1
        outputs.append(((out / "metrics.csv").read_bytes(),
                        (out / "events.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("strategy", [
    {"kind": "synchronous"},
    {"kind": "local-sgd", "tau": 3},
    {"kind": "fedopt", "local_epochs": 1, "server": {"kind": "adam",
                                                     "lr": 0.1}},
    {"kind": "linear-fda", "theta": 0.02},
    {"kind": "sketch-fda", "theta": 0.02,
     "sketch": {"rows": 3, "cols": 1, "seed": 2}},
], ids=lambda node: node["kind"])
def test_audit_is_an_oracle_channel(tmp_path, strategy):
    # The audit centres the models in the scratch buffer that each hook
    # then overwrites: it sets every step's exact variance and moves no
    # other output.
    reports, outputs = [], []
    for audit in (False, True):
        out = tmp_path / str(audit)
        mapping = base_mapping(
            workers=3, strategy=strategy, audit_variance=audit,
            output={"metrics_csv": str(out / "metrics.csv"),
                    "events_jsonl": str(out / "events.jsonl")})
        reports.append(cli.run_and_write(cli.parse_config(mapping)))
        outputs.append([(out / name).read_bytes()
                        for name in ("metrics.csv", "events.jsonl")])
    plain, audited = reports
    assert outputs[0] == outputs[1]
    assert np.array_equal(plain.final_mean_params, audited.final_mean_params)
    assert all(step.variance is None for step in plain.steps)
    assert all(step.variance is not None for step in audited.steps)
    assert len(audited.steps) > 0


def test_events_jsonl_renders_null_nan_and_infinity_as_json_dumps(tmp_path):
    # The writer formats lines from the log's rows; each must equal
    # json.dumps of the record dict, whatever the H value.
    h_values = [None, float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                0.1, 1e-300, 1e22, 123456789.125, None]
    log = StepLog()
    for i, h in enumerate(h_values):
        log.append(i % 3 == 0, h, None, 0.5, 2 ** 40 + 8 * i)
    report = RunReport(
        steps=log, epochs=[], worker_count=7,
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

def test_sweep_of_no_configs_writes_the_header(tmp_path):
    out = str(tmp_path / "agg.csv")
    rows = cli.sweep([], out)
    assert rows == []
    with open(out) as f:
        lines = f.read().splitlines()
    assert lines == ["config,status"]


def test_sweep_unreadable_path_is_a_failed_row(tmp_path, capsys):
    # A path that does not exist, and a directory, between two good configs;
    # rows follow the arguments, not the file names.
    paths = [write_config(tmp_path, base_mapping(), name="z_good.yaml"),
             str(tmp_path / "no" / "such.yaml"), str(tmp_path) + os.sep,
             write_config(tmp_path, base_mapping(), name="a_good.yaml")]
    names = ["z_good.yaml", "such.yaml", tmp_path.name, "a_good.yaml"]
    out = tmp_path / "agg.csv"
    rows = cli.sweep(paths, str(out))
    assert [r["config"] for r in rows] == names
    assert [r["status"] for r in rows] == ["ok", "failed", "failed", "ok"]
    assert [len(r) for r in rows[1:3]] == [2, 2]
    with open(out) as f:
        assert [r["config"] for r in csv.DictReader(f)] == names
    capsys.readouterr()
    assert cli.main(["sweep", *paths]) == 0
    captured = capsys.readouterr()
    assert [line.split()[1] for line in captured.out.splitlines()] == [
        "status=ok", "status=failed", "status=failed", "status=ok"]
    assert captured.err.count("cannot read config") == 2


def test_sweep_marks_failures_and_continues(tmp_path):
    (tmp_path / "c_bad.yaml").write_text("strategy: {kind: warp}")
    paths = [write_config(tmp_path, base_mapping(), name="a_good.yaml"),
             write_config(tmp_path, base_mapping(
                 strategy={"kind": "linear-fda", "theta": 0.05}),
                 name="b_good.yaml"),
             str(tmp_path / "c_bad.yaml")]
    out = str(tmp_path / "agg.csv")
    rows = cli.sweep(paths, out)
    assert len(rows) == 3
    statuses = sorted(r["status"] for r in rows)
    assert statuses == ["failed", "ok", "ok"]
    failed = [r for r in rows if r["status"] == "failed"][0]
    assert failed["config"] == "c_bad.yaml"


def test_sweep_runs_configs_with_empty_nodes(tmp_path):
    rows = cli.sweep([
        write_config(tmp_path, base_mapping(), name="a_good.yaml"),
        write_config(tmp_path, base_mapping(model=None, output=None),
                     name="b_empty_nodes.yaml"),
        write_config(tmp_path, base_mapping(model="logistic"),
                     name="c_model_not_a_mapping.yaml")])
    status = {r["config"]: r["status"] for r in rows}
    assert status == {"a_good.yaml": "ok", "b_empty_nodes.yaml": "ok",
                      "c_model_not_a_mapping.yaml": "failed"}


def test_sweep_unusable_out_is_a_config_error_before_any_run(
        tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, base_mapping())
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("trained"))
    # An existing directory, and a path under a file.
    for out in (tmp_path, blocker / "agg.csv"):
        assert cli.main(["sweep", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


def test_sweep_writes_each_configs_outputs_as_run_does(tmp_path):
    def outputs(name):
        return {"metrics_csv": str(tmp_path / name / "metrics.csv"),
                "events_jsonl": str(tmp_path / name / "events.jsonl")}

    strategy = {"kind": "linear-fda", "theta": 0.05}
    configs = tmp_path / "configs"
    configs.mkdir()
    # A report path under a file fails that run's row, not the sweep.
    (tmp_path / "blocker").write_text("")
    rows = cli.sweep([
        write_config(configs, base_mapping(strategy=strategy,
                                           output=outputs("swept"))),
        write_config(configs, base_mapping(output={
            "metrics_csv": str(tmp_path / "blocker" / "m.csv")}),
            name="unwritable.yaml")])
    assert {r["config"]: r["status"] for r in rows} == {
        "run.yaml": "ok", "unwritable.yaml": "failed"}
    single = write_config(tmp_path, base_mapping(strategy=strategy,
                                                 output=outputs("single")))
    assert cli.main(["run", single]) == 1
    for name in ("metrics.csv", "events.jsonl"):
        swept = (tmp_path / "swept" / name).read_bytes()
        assert swept and swept == (tmp_path / "single" / name).read_bytes()


def test_sweep_rows_follow_file_names_and_synchronous_dominates(tmp_path):
    target = 0.85
    grid = [("synchronous", 5), ("linear-fda", 5), ("synchronous", 2),
            ("linear-fda", 2)]
    paths = []
    for i, (kind, workers) in enumerate(grid):
        strategy = {"kind": kind}
        if kind == "linear-fda":
            strategy["theta"] = 0.01
        mapping = base_mapping(
            dataset={"kind": "blobs", "n": 1000, "p": 25, "classes": 3,
                     "test_n": 400},
            optimizer={"kind": "sgd", "lr": 0.1},
            workers=workers, max_epochs=30, accuracy_target=target,
            strategy=strategy)
        paths.append(write_config(tmp_path, mapping, name=f"cfg{i}.yaml"))
    rows = cli.sweep(paths, str(tmp_path / "agg.csv"))
    assert [r["config"] for r in rows] == [f"cfg{i}.yaml" for i in range(4)]
    assert [(r["strategy.kind"], r["workers"]) for r in rows] == grid
    assert all(r["reached_target"] for r in rows)
    bytes_total = {(r["strategy.kind"], r["workers"]): r["bytes_total"]
                   for r in rows}
    for k in (2, 5):
        assert bytes_total["synchronous", k] >= bytes_total["linear-fda", k]


def test_sweep_row_is_the_runs_records(tmp_path):
    strategies = {
        "a_linear.yaml": {"kind": "linear-fda", "theta": 0.05},
        "b_sketch.yaml": {"kind": "sketch-fda", "theta": 0.05,
                          "sketch": {"rows": 3, "cols": 2}},
        "c_fedopt.yaml": {"kind": "fedopt", "server": {"kind": "adam"}}}
    records = {"config", "status", "reached_target", *EpochRecord._fields}
    configs = tmp_path / "configs"
    configs.mkdir()
    exit_codes, last_epoch, paths = {}, {}, []
    for name, strategy in strategies.items():
        metrics = tmp_path / name / "metrics.csv"
        path = write_config(configs, base_mapping(
            strategy=strategy, partition={"scheme": "noniid-label",
                                          "label": 1},
            output={"metrics_csv": str(metrics)}), name=name)
        exit_codes[name] = cli.main(["run", path])
        with open(metrics) as f:
            last_epoch[name] = list(csv.DictReader(f))[-1]
        paths.append(path)
    rows = cli.sweep(paths)
    assert [r["config"] for r in rows] == list(strategies)
    for row in rows:
        name = row["config"]
        config = cli.load_config(str(configs / name))
        top_keys = set(config.to_node())
        assert not top_keys & set(EpochRecord._fields)
        assert not (top_keys | set(EpochRecord._fields)) & {
            "config", "status", "reached_target"}
        assert row["status"] == "ok"
        assert row["reached_target"] == (exit_codes[name] == 0)
        assert {f: str(row[f]) for f in EpochRecord._fields} \
            == last_epoch[name]
        node = {}
        for key in row.keys() - records:
            *parents, leaf = key.split(".")
            parent = node
            for p in parents:
                parent = parent.setdefault(p, {})
            parent[leaf] = row[key]
        assert cli.parse_config(node) == config


def assert_committed_rows_are_current(directory, names, tmp_path):
    """Re-sweep some cells of a committed grid in place; their rows must
    equal the committed CSV's."""
    out = tmp_path / "sweep.csv"
    cli.sweep([str(directory / name) for name in names], str(out))
    with open(directory / "sweep.csv") as f:
        committed = {r["config"]: r for r in csv.DictReader(f)}
    with open(out) as f:
        fresh = list(csv.DictReader(f))
    assert [r["config"] for r in fresh] == names
    for row in fresh:
        expected = committed[row["config"]]
        assert row["status"] == "ok"
        assert dict.fromkeys(expected, "") | row == expected


def test_committed_theta_frontier_rows_are_current(tmp_path):
    # The README table comes from the committed sweep CSV; re-running its
    # two theta_B cells catches a CSV that the program no longer produces.
    assert_committed_rows_are_current(
        FRONTIER, ["linear-fda-theta-1x.yaml", "sketch-fda-theta-1x.yaml"],
        tmp_path)


def test_committed_heterogeneity_rows_are_current(tmp_path):
    assert_committed_rows_are_current(
        HETEROGENEITY, ["label-0-linear-fda.yaml"], tmp_path)


def test_committed_workers_rows_are_current(tmp_path):
    assert_committed_rows_are_current(
        WORKERS, ["k05-linear-fda.yaml"], tmp_path)


def test_committed_seeds_rows_are_current(tmp_path):
    assert_committed_rows_are_current(
        SEEDS, ["seed-10108-linear-fda.yaml"], tmp_path)


def test_committed_baselines_rows_are_current(tmp_path):
    assert_committed_rows_are_current(
        BASELINES, ["fedavgm-e01.yaml"], tmp_path)


def test_committed_baselines_skew_rows_are_current(tmp_path):
    assert_committed_rows_are_current(
        BASELINES_SKEW, ["label-0-local-sgd-tau-00100.yaml"], tmp_path)


def test_committed_baselines_seeds_rows_are_current(tmp_path):
    assert_committed_rows_are_current(
        BASELINES_SEEDS, ["seed-30122-local-sgd-tau-00280.yaml"], tmp_path)


@pytest.mark.parametrize(
    "grid", [p for p in sorted((ROOT / "experiments").iterdir())
             if p.is_dir()], ids=lambda p: p.name)
def test_committed_csv_rows_are_the_grid_config_files(grid):
    # A config added to or deleted from a grid without a re-sweep fails.
    with open(grid / "sweep.csv") as f:
        rows = [r["config"] for r in csv.DictReader(f)]
    assert rows == sorted(p.name for p in grid.glob("*.yaml"))


# A README result column and the sweep CSV column it shows.
README_COLUMNS = {"strategy": "strategy.kind", "syncs": "syncs",
                  "bytes_total": "bytes_total", "bytes_state": "bytes_state",
                  "bytes_sync": "bytes_sync", "steps": "steps"}


def readme_results():
    """The text of the README's "Results" section."""
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Results\n")[1].split("\n## ")[0]


def readme_result_tables():
    """Each table of the README's "Results" section, keyed by the `--out`
    CSV of the `dynavg sweep` command above it, as rows of its cells."""
    tables, out = {}, None
    for line in readme_results().splitlines():
        if line.startswith("dynavg sweep "):
            out = line.split("--out ")[1].split()[0]
        elif line.startswith("|") and not line.startswith("|---"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            tables.setdefault(out, []).append(cells)
    return tables


def test_readme_result_tables_match_the_committed_csvs():
    tables = readme_result_tables()
    assert sorted(tables) == sorted(
        str(p.relative_to(ROOT)) for p in ROOT.glob("experiments/*/sweep.csv"))
    for out, (header, *body) in tables.items():
        with open(ROOT / out) as f:
            committed = [[r[c] for c in README_COLUMNS.values()]
                         for r in csv.DictReader(f)]
        shown = [[row[header.index(c)].replace(",", "")
                  for c in README_COLUMNS] for row in body]
        assert shown == committed, out


def paired_cells(grid):
    """{seed: {cell: (bytes_total, steps)}} of a grid of configs named
    seed-NNNNN-<cell>.yaml at five run seeds, each run reaching the
    target."""
    by_seed = {}
    with open(grid / "sweep.csv") as f:
        for r in csv.DictReader(f):
            assert (r["status"], r["reached_target"]) == ("ok", "True")
            cell = r["config"].split("-", 2)[2].removesuffix(".yaml")
            by_seed.setdefault(r["seed"], {})[cell] = \
                (int(r["bytes_total"]), int(r["steps"]))
    assert len(by_seed) == 5
    return by_seed.values()


def spread(ratios):
    """The median and range of paired ratios, as the README states them."""
    return (f"median {statistics.median(ratios):.3g}×, range "
            f"{min(ratios):.3g}–{max(ratios):.3g}×")


# A cell of the paired-seed baseline grid and its name in the README.
PAIRED_BASELINES = {"local-sgd-tau-00280": "local-sgd τ = 280",
                    "local-sgd-tau-01000": "local-sgd τ = 1,000",
                    "fedavgm-e01": "FedAvgM E = 1",
                    "never-sync": "never-sync"}


def test_paired_seed_byte_ratios_hold_on_every_seed():
    # The README's paired ratios: synchronous and sketch-fda each move more
    # bytes than linear-fda on every seed of the committed grid, so a
    # re-sweep that flips a sign, or moves a stated figure, fails here.
    section = " ".join(readme_results().split())
    seeds = paired_cells(SEEDS)
    for kind in ("synchronous", "sketch-fda"):
        ratios = [b[kind][0] / b["linear-fda"][0] for b in seeds]
        assert min(ratios) > 1, kind
        stated = (f"- {kind} ÷ linear-fda: {spread(ratios)}, more bytes on "
                  f"{len(ratios)} of {len(ratios)} seeds")
        assert stated in section
    # The baselines against linear-fda, seed by seed: bytes as linear-fda's
    # over theirs, steps as theirs over linear-fda's.
    baselines = paired_cells(BASELINES_SEEDS)
    for cell, name in PAIRED_BASELINES.items():
        sent = [b[cell][0] for b in baselines]
        if any(sent):
            ratios = [b["linear-fda"][0] / b[cell][0] for b in baselines]
            fewer = sum(r > 1 for r in ratios)
            bytes_stated = (f"fewer bytes on {fewer} of 5 seeds, linear-fda "
                            f"÷ its bytes {spread(ratios)}")
        else:
            bytes_stated = "0 bytes on 5 of 5 seeds"
        steps = [b[cell][1] / b["linear-fda"][1] for b in baselines]
        stated = (f"- {name}: {bytes_stated}; its steps ÷ linear-fda's "
                  f"{spread(steps)}, fewer on {sum(r < 1 for r in steps)}, "
                  f"as many on {steps.count(1)} and more on "
                  f"{sum(r > 1 for r in steps)} of 5 seeds")
        assert stated in section, name


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


def test_main_run_takes_no_audit_flag(capsys):
    # The audit is the config's `audit_variance` key alone.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", str(GOLDEN / "sketch-fda-audit-k3.yaml"),
                  "--audit-variance"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --audit-variance" in \
        capsys.readouterr().err


def test_main_run_and_sweep(tmp_path, capsys):
    config = write_config(tmp_path, base_mapping())
    assert cli.main(["run", config]) == 1
    out = str(tmp_path / "agg.csv")
    assert cli.main(["sweep", config, "--out", out]) == 0
    assert os.path.exists(out)
