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
import os
import sys
from dataclasses import astuple, fields, replace
from typing import Optional

import yaml

from .cluster_sim import (
    DATASETS,
    PARTITIONS,
    EpochRecord,
    Iid,
    OptimizerSpec,
    RunConfig,
    RunDivergedError,
    RunReport,
    run,
)
from .fda_core import STRATEGIES, Synchronous
from .learner import param_count
from .schema import child, read, to_float, to_str, write

THETA_COEFFICIENTS = {
    "fl": 4.91e-5,
    "balanced": 3.89e-5,
    "hpc": 2.74e-5,
}

METRICS_COLUMNS = [f.name for f in fields(EpochRecord)]
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

# RunConfig fields kept under another key than their own name.
RUN_KEYS = {"model_kind": "model.kind", "hidden": "model.hidden",
            "init_scheme": "model.init", "partition_scheme": "partition",
            "metrics_csv": "output.metrics_csv",
            "events_jsonl": "output.events_jsonl"}


def _spec_class(table: dict, node: dict, key: str, what: str, default=None):
    """The class that `node[key]` names in `table`."""
    name = node.get(key, default)
    if name is None:
        raise ConfigError(f"missing {what} field {key!r}")
    if name not in table:
        raise ConfigError(f"unknown {what} {key} {name!r}")
    return table[name]


def _theta(node: dict, config: RunConfig) -> float:
    """A strategy node's theta, or its theta_profile preset at the
    config's model dimension."""
    if "theta" in node and "theta_profile" in node:
        raise ConfigError("give either theta or theta_profile, not both")
    if "theta_profile" in node:
        d = param_count(config.model_kind, *config.dataset.shape(),
                        config.hidden)
        return theta_preset(to_str(node["theta_profile"]), d)
    if "theta" not in node:
        raise ConfigError(f"missing {node['kind']} strategy field 'theta'")
    return to_float(node["theta"])


def parse_config(mapping: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed config mapping.

    Any missing field or invalid value raises ConfigError.
    """
    if not isinstance(mapping, dict):
        raise ConfigError("config root must be a mapping")
    try:
        data, part = child(mapping, "dataset"), child(mapping, "partition")
        node = child(mapping, "strategy")
        strategy = _spec_class(STRATEGIES, node, "kind", "strategy")
        config = read(
            RunConfig, mapping, RUN_KEYS,
            dataset=_spec_class(DATASETS, data, "kind", "dataset")
            .from_node(data),
            strategy=Synchronous(),  # replaced once theta can resolve
            optimizer=OptimizerSpec.from_node(child(mapping, "optimizer")),
            partition_scheme=_spec_class(PARTITIONS, part, "scheme",
                                         "partition", Iid.scheme)
            .from_node(part))
        return replace(config, strategy=strategy.from_node(
            node, lambda: _theta(node, config)))
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            mapping = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(mapping)


def config_to_mapping(config: RunConfig) -> dict:
    """Serialize a RunConfig so that parse_config round-trips it."""
    return write(config, RUN_KEYS)


# --- report writing ---------------------------------------------------------

def _ensure_parent(path: str) -> None:
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path} is a directory")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_metrics_csv(report: RunReport, path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        writer.writerows(astuple(e) for e in report.epochs)


def write_events_jsonl(report: RunReport, path: str) -> None:
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
        if audit_variance:
            config = replace(config, audit_variance=True)
        for path in (config.metrics_csv, config.events_jsonl):
            if path:  # an unusable output path fails before training
                _ensure_parent(path)
        report = run(config)
        if config.metrics_csv:
            write_metrics_csv(report, config.metrics_csv)
        if config.events_jsonl:
            write_events_jsonl(report, config.events_jsonl)
    except RunDivergedError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
        except (RunDivergedError, ValueError, TypeError, OSError) as exc:
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
