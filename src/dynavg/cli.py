"""Experiment front end: config files, runs, sweeps, threshold presets.

A run is described by one YAML (or JSON) file; see the README for the full
schema.  `RunConfig.from_node` reads it (`schema.Node`); `parse_config`
then replaces a strategy's `theta_profile` key, which needs the model
dimension, with the preset `theta` before it builds the strategy.  `run`
executes it and writes a per-epoch metrics CSV plus a per-step JSONL event
log.  `sweep` executes every config in a directory, each writing its own
reports as `run` does, and aggregates one row per run.  `theta` prints a
threshold preset c * d for a deployment profile.

Exit codes for `run`: 0 target reached, 1 target not reached (reports are
still written), 2 config error, 3 divergence.  `sweep` exits 0, or 2 before
any run when its config directory is not a directory or its `--out` path
is unusable.  `theta` exits 0, or 2 for a dimension below 1.
"""

from __future__ import annotations

import argparse
import csv
import glob
import os
import sys
from dataclasses import astuple, fields, replace
from typing import Optional

import yaml

from .cluster_sim import (EpochRecord, RunConfig, RunDivergedError, RunReport,
                          run)
from .fda_core import SyncStrategy, Synchronous
from .learner import param_count
from .schema import child, to_str

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

def _resolve_theta(node: dict, config: RunConfig) -> dict:
    """A strategy node whose theta_profile key, when its kind takes a theta,
    is replaced by that profile's preset at the config's model dimension."""
    takes_theta = "theta" in SyncStrategy.variant(node).__dataclass_fields__
    if "theta_profile" not in node or not takes_theta:
        return node
    if "theta" in node:
        raise ConfigError("give either theta or theta_profile, not both")
    d = param_count(config.model_kind, *config.dataset.shape(), config.hidden)
    node = dict(node, theta=theta_preset(to_str(node["theta_profile"]), d))
    del node["theta_profile"]
    return node


def parse_config(mapping: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed config mapping.

    Any missing field or invalid value raises ConfigError.
    """
    if not isinstance(mapping, dict):
        raise ConfigError("config root must be a mapping")
    try:
        # The strategy is replaced once its theta_profile can resolve.
        config = RunConfig.from_node(mapping, strategy=Synchronous())
        node = _resolve_theta(child(mapping, "strategy"), config)
        return replace(config, strategy=SyncStrategy.pick(node))
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


# PyYAML's libyaml parser, when built, with the same safe constructor.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            mapping = yaml.load(f, Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(mapping)


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


# How `json.dumps` spells the floats that `repr` spells otherwise.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: Optional[float]) -> str:
    if x is None:
        return "null"
    text = repr(x)
    return _JSON_FLOATS.get(text, text)


def write_events_jsonl(report: RunReport, path: str) -> None:
    """One line per step, formatted straight from the step log's columns,
    byte for byte as `json.dumps` renders {"step", "worker_count", "H",
    "synced", "bytes_cumulative"}: H is `null` when unset and `NaN`,
    `Infinity` or `-Infinity` when not finite."""
    log, k = report.steps, report.worker_count
    lines = (f'{{"step": {t}, "worker_count": {k}, "H": {_json_float(h)}, '
             f'"synced": {"true" if synced else "false"}, '
             f'"bytes_cumulative": {b}}}\n'
             for t, h, synced, b in zip(
                 log.column("step"), log.column("h_value"),
                 log.column("synced"), log.column("bytes_cumulative")))
    with open(path, "w") as f:
        f.writelines(lines)


# --- CLI operations ---------------------------------------------------------

def run_and_write(config: RunConfig) -> RunReport:
    """Run one config and write the reports that its `output` node names;
    an unusable output path raises OSError before training."""
    for path in (config.metrics_csv, config.events_jsonl):
        if path:
            _ensure_parent(path)
    report = run(config)
    if config.metrics_csv:
        write_metrics_csv(report, config.metrics_csv)
    if config.events_jsonl:
        write_events_jsonl(report, config.events_jsonl)
    return report


def run_experiment(config_path: str, audit_variance: bool = False) -> int:
    """Run one config; write reports; return the run's exit code."""
    try:
        config = load_config(config_path)
        if audit_variance:
            config = replace(config, audit_variance=True)
        report = run_and_write(config)
    except RunDivergedError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"steps={report.final_steps} epochs={len(report.epochs)} "
          f"syncs={report.sync_count} bytes={report.final_bytes} "
          f"test_accuracy={report.epochs[-1].test_accuracy:.4f} "
          f"reached_target={report.reached_target}")
    return 0 if report.reached_target else 1


def sweep(config_dir: str, output_csv: Optional[str] = None) -> list[dict]:
    """Run every config in a directory; aggregate one row per run.

    Each run writes the reports its own `output` node names, as `run`
    does.  Invalid configs, and runs that diverge or cannot write their
    reports, produce a row with status "failed" and the sweep continues.
    Rows are sorted by (strategy, theta, workers).  A `config_dir` that is
    not a directory, or an unusable `output_csv`, raises OSError before the
    first run.
    """
    if not os.path.isdir(config_dir):
        raise NotADirectoryError(f"config directory {config_dir} is not a "
                                 f"directory")
    if output_csv is not None:
        _ensure_parent(output_csv)
    paths = sorted(
        p for pattern in ("*.yaml", "*.yml", "*.json")
        for p in glob.glob(os.path.join(config_dir, pattern)))
    rows = []
    for path in paths:
        name = os.path.basename(path)
        try:
            config = load_config(path)
            report = run_and_write(config)
        except (RunDivergedError, ValueError, TypeError, OSError) as exc:
            print(f"{name}: failed ({exc})", file=sys.stderr)
            rows.append({"strategy": "", "theta": "", "workers": "",
                         "reached_target": "", "steps": "", "bytes": "",
                         "status": "failed", "config": name})
            continue
        theta = getattr(config.strategy, "theta", "")
        rows.append({"strategy": config.strategy.kind,
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
    try:
        if args.command == "theta":
            print(theta_preset(args.profile, args.dim))
            return 0
        rows = sweep(args.config_dir, args.out)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['config']}: status={row['status']} "
              f"strategy={row['strategy']} bytes={row['bytes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
