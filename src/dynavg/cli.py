"""Experiment front end: config files, runs, sweeps, threshold presets.

A run is described by one YAML (or JSON) file; see the README for the full
schema.  `run` executes it and writes a per-epoch metrics CSV plus a
per-step JSONL event log.  `sweep` executes every config in a directory and
aggregates one row per run.  `theta` prints a threshold preset c * d for a
deployment profile.

Exit codes for `run`: 0 target reached, 1 target not reached (reports are
still written), 2 config error, 3 divergence.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

import yaml

from .cluster_sim import (
    BlobsSpec,
    IdxSpec,
    Iid,
    NonIidFraction,
    NonIidLabel,
    OptimizerSpec,
    RunConfig,
    RunDivergedError,
    RunReport,
    run,
)
from .fda_core import STRATEGIES
from .learner import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    idx_shape,
    param_count,
    read_idx,
)

THETA_COEFFICIENTS = {
    "fl": 4.91e-5,
    "balanced": 3.89e-5,
    "hpc": 2.74e-5,
}

METRICS_COLUMNS = ["epoch", "test_accuracy", "train_loss", "bytes_total",
                   "bytes_state", "bytes_sync", "steps", "syncs"]
SWEEP_COLUMNS = ["strategy", "theta", "workers", "reached_target", "steps",
                 "bytes", "status", "config"]


class ConfigError(ValueError):
    """Raised when a run config fails to parse or validate."""


def theta_preset(profile: str, d: int) -> float:
    """Threshold preset c * d for a deployment profile."""
    if profile not in THETA_COEFFICIENTS:
        raise ValueError(
            f"unknown profile {profile!r}; choose from {sorted(THETA_COEFFICIENTS)}")
    if d < 1:
        raise ValueError("model dimension must be >= 1")
    return THETA_COEFFICIENTS[profile] * d


# --- config parsing ---------------------------------------------------------

def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing {context} field {key!r}")
    return mapping[key]


def _parse_dataset(node: dict):
    kind = _require(node, "kind", "dataset")
    if kind == "blobs":
        return BlobsSpec(
            n=int(_require(node, "n", "blobs dataset")),
            p=int(_require(node, "p", "blobs dataset")),
            num_classes=int(_require(node, "classes", "blobs dataset")),
            test_n=int(node.get("test_n", 1000)),
            seed=None if node.get("seed") is None else int(node["seed"]))
    if kind == "idx":
        spec = IdxSpec(
            train_images=str(_require(node, "train_images", "idx dataset")),
            train_labels=str(_require(node, "train_labels", "idx dataset")),
            test_images=str(_require(node, "test_images", "idx dataset")),
            test_labels=str(_require(node, "test_labels", "idx dataset")))
        for path in (spec.train_images, spec.train_labels,
                     spec.test_images, spec.test_labels):
            if not os.path.exists(path):
                raise ConfigError(f"dataset file not found: {path}")
        return spec
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _parse_partition(node: Optional[dict]):
    if node is None:
        return Iid()
    scheme = node.get("scheme", "iid")
    if scheme == "iid":
        return Iid()
    if scheme == "noniid-fraction":
        return NonIidFraction(percent=float(_require(node, "percent", "partition")))
    if scheme == "noniid-label":
        return NonIidLabel(label=int(_require(node, "label", "partition")),
                           holders=int(node.get("holders", 1)))
    raise ConfigError(f"unknown partition scheme {scheme!r}")


def _parse_optimizer(node: Optional[dict]) -> OptimizerSpec:
    if node is None:
        return OptimizerSpec()
    return OptimizerSpec(
        kind=str(node.get("kind", "sgd")),
        lr=float(node.get("lr", 0.01)),
        momentum=float(node.get("momentum", 0.9)),
        nesterov=bool(node.get("nesterov", False)),
        beta1=float(node.get("beta1", 0.9)),
        beta2=float(node.get("beta2", 0.999)),
        eps=float(node.get("eps", 1e-8)),
        weight_decay=float(node.get("weight_decay", 0.0)))


def _model_dim(mapping: dict, dataset) -> int:
    model = mapping.get("model", {})
    kind = model.get("kind", "logistic")
    hidden = int(model.get("hidden", 0))
    if isinstance(dataset, BlobsSpec):
        return param_count(kind, dataset.p, dataset.num_classes, hidden)
    dims = idx_shape(dataset.train_images, IDX_IMAGES_MAGIC, "images")
    labels = read_idx(dataset.train_labels, IDX_LABELS_MAGIC, "labels")
    return param_count(kind, math.prod(dims[1:]), int(labels.max()) + 1, hidden)


def _parse_strategy(node: dict, mapping: dict, dataset):
    kind = _require(node, "kind", "strategy")
    if kind not in STRATEGIES:
        raise ConfigError(f"unknown strategy kind {kind!r}")

    def theta() -> float:
        if "theta" in node and "theta_profile" in node:
            raise ConfigError("give either theta or theta_profile, not both")
        if "theta_profile" in node:
            return theta_preset(str(node["theta_profile"]),
                                _model_dim(mapping, dataset))
        return float(_require(node, "theta", f"{kind} strategy"))

    return STRATEGIES[kind].from_node(node, theta)


def parse_config(mapping: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed config mapping.

    Any missing field or invalid value raises ConfigError.
    """
    if not isinstance(mapping, dict):
        raise ConfigError("config root must be a mapping")
    try:
        dataset = _parse_dataset(_require(mapping, "dataset", "config"))
        strategy = _parse_strategy(_require(mapping, "strategy", "config"),
                                   mapping, dataset)
        model = mapping.get("model", {})
        output = mapping.get("output", {})
        config = RunConfig(
            dataset=dataset,
            strategy=strategy,
            workers=int(_require(mapping, "workers", "config")),
            batch_size=int(_require(mapping, "batch_size", "config")),
            model_kind=str(model.get("kind", "logistic")),
            hidden=int(model.get("hidden", 0)),
            init_scheme=str(model.get("init", "glorot-uniform")),
            optimizer=_parse_optimizer(mapping.get("optimizer")),
            partition_scheme=_parse_partition(mapping.get("partition")),
            accuracy_target=float(mapping.get("accuracy_target", 1.0)),
            max_epochs=int(mapping.get("max_epochs", 10)),
            seed=int(mapping.get("seed", 0)),
            audit_variance=bool(mapping.get("audit_variance", False)),
            metrics_csv=output.get("metrics_csv"),
            events_jsonl=output.get("events_jsonl"))
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if config.max_epochs < 1:
        raise ConfigError("max_epochs must be >= 1")
    if config.model_kind == "mlp" and config.hidden < 1:
        raise ConfigError("mlp model needs hidden >= 1")


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            mapping = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(mapping)


def config_to_mapping(config: RunConfig) -> dict:
    """Serialize a RunConfig so that parse_config round-trips it."""
    ds = config.dataset
    if isinstance(ds, BlobsSpec):
        dataset = {"kind": "blobs", "n": ds.n, "p": ds.p,
                   "classes": ds.num_classes, "test_n": ds.test_n,
                   "seed": ds.seed}
    else:
        dataset = {"kind": "idx", "train_images": ds.train_images,
                   "train_labels": ds.train_labels,
                   "test_images": ds.test_images,
                   "test_labels": ds.test_labels}
    part = config.partition_scheme
    if isinstance(part, Iid):
        partition = {"scheme": "iid"}
    elif isinstance(part, NonIidFraction):
        partition = {"scheme": "noniid-fraction", "percent": part.percent}
    else:
        partition = {"scheme": "noniid-label", "label": part.label,
                     "holders": part.holders}
    return {
        "dataset": dataset,
        "strategy": config.strategy.to_node(),
        "model": {"kind": config.model_kind, "hidden": config.hidden,
                  "init": config.init_scheme},
        "optimizer": asdict(config.optimizer),
        "partition": partition,
        "workers": config.workers,
        "batch_size": config.batch_size,
        "accuracy_target": config.accuracy_target,
        "max_epochs": config.max_epochs,
        "seed": config.seed,
        "audit_variance": config.audit_variance,
        "output": {"metrics_csv": config.metrics_csv,
                   "events_jsonl": config.events_jsonl},
    }


# --- report writing ---------------------------------------------------------

def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_metrics_csv(report: RunReport, path: str) -> None:
    _ensure_parent(path)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for e in report.epochs:
            writer.writerow([e.epoch, e.test_accuracy, e.train_loss,
                             e.bytes_total, e.bytes_state, e.bytes_sync,
                             e.steps, e.syncs])


def write_events_jsonl(report: RunReport, path: str) -> None:
    _ensure_parent(path)
    with open(path, "w") as f:
        for s in report.steps:
            record = {"step": s.step, "worker_count": report.worker_count,
                      "H": s.h_value, "synced": s.synced,
                      "bytes_cumulative": s.bytes_cumulative}
            f.write(json.dumps(record) + "\n")


# --- CLI operations ---------------------------------------------------------

def run_experiment(config_path: str, audit_variance: bool = False) -> int:
    """Run one config; write reports; return the run's exit code."""
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if audit_variance:
        config.audit_variance = True
    try:
        report = run(config)
    except RunDivergedError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.metrics_csv:
        write_metrics_csv(report, config.metrics_csv)
    if config.events_jsonl:
        write_events_jsonl(report, config.events_jsonl)
    print(f"steps={report.final_steps} epochs={report.final_epochs} "
          f"syncs={report.sync_count} bytes={report.final_bytes} "
          f"test_accuracy={report.final_test_accuracy:.4f} "
          f"reached_target={report.reached_target}")
    return 0 if report.reached_target else 1


def sweep(config_dir: str, output_csv: Optional[str] = None) -> list[dict]:
    """Run every config in a directory; aggregate one row per run.

    Invalid configs produce a row with status "failed" and the sweep
    continues.  Rows are sorted by (strategy, theta, workers).
    """
    paths = sorted(
        p for pattern in ("*.yaml", "*.yml", "*.json")
        for p in glob.glob(os.path.join(config_dir, pattern)))
    rows = []
    for path in paths:
        name = os.path.basename(path)
        try:
            config = load_config(path)
            report = run(config)
        except (ConfigError, RunDivergedError, ValueError, TypeError,
                OSError) as exc:
            print(f"{name}: failed ({exc})", file=sys.stderr)
            rows.append({"strategy": "", "theta": "", "workers": "",
                         "reached_target": "", "steps": "", "bytes": "",
                         "status": "failed", "config": name})
            continue
        theta = getattr(config.strategy, "theta", "")
        rows.append({"strategy": config.strategy.label,
                     "theta": theta, "workers": config.workers,
                     "reached_target": report.reached_target,
                     "steps": report.final_steps,
                     "bytes": report.final_bytes,
                     "status": "ok", "config": name})

    def sort_key(row):
        theta = row["theta"]
        workers = row["workers"]
        return (row["strategy"],
                float(theta) if theta != "" else -1.0,
                int(workers) if workers != "" else -1,
                row["config"])

    rows.sort(key=sort_key)
    if output_csv is not None:
        _ensure_parent(output_csv)
        with open(output_csv, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynavg",
        description="Variance-triggered synchronization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run config")
    p_run.add_argument("config")
    p_run.add_argument("--audit-variance", action="store_true",
                       help="record exact model variance every step")

    p_sweep = sub.add_parser("sweep", help="run every config in a directory")
    p_sweep.add_argument("config_dir")
    p_sweep.add_argument("--out", default=None, help="aggregate CSV path")

    p_theta = sub.add_parser("theta", help="print a threshold preset")
    p_theta.add_argument("--profile", required=True,
                         choices=sorted(THETA_COEFFICIENTS))
    p_theta.add_argument("--dim", required=True, type=int)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, audit_variance=args.audit_variance)
    if args.command == "sweep":
        rows = sweep(args.config_dir, args.out)
        for row in rows:
            print(f"{row['config']}: status={row['status']} "
                  f"strategy={row['strategy']} bytes={row['bytes']}")
        return 0
    if args.command == "theta":
        print(theta_preset(args.profile, args.dim))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
