"""Experiment front end: config files, runs, sweeps, threshold presets.

A run is described by one YAML (or JSON) file; see the README for the full
schema.  `parse_config` reads it with `RunConfig.from_node` (`schema.Node`)
under a placeholder strategy node, then builds the strategy from its own
node, a `theta_profile` key replaced by the preset `theta` at the model
dimension.  `run` executes it and writes a per-epoch metrics CSV plus a
per-step JSONL event log.  `sweep` runs the config files it is given, in
order, each writing its own reports as `run` does, and aggregates one row
per file.  `theta` prints a threshold preset c * d for a deployment profile.

Exit codes for `run`: 0 target reached, 1 target not reached (reports are
still written), 2 config error, 3 divergence.  `sweep` exits 0 (a config
that fails is a "failed" row), or 2 before any run when its `--out` path is
unusable.  `theta` exits 0, or 2 for a dimension below 1.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from typing import Optional

import yaml

from .cluster_sim import (EpochRecord, RunConfig, RunDivergedError, RunReport,
                          run)
from .fda_core import SyncStrategy, VarianceMonitor
from .learner import param_count
from .schema import child, to_str

THETA_COEFFICIENTS = {
    "fl": 4.91e-5,
    "balanced": 3.89e-5,
    "hpc": 2.74e-5,
}

METRICS_COLUMNS = list(EpochRecord._fields)


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
    """A strategy node whose theta_profile key, when its kind is a variance
    monitor, is replaced by that profile's preset at the model dimension."""
    monitor = issubclass(SyncStrategy.variant(node), VarianceMonitor)
    if "theta_profile" not in node or not monitor:
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
        config = RunConfig.from_node(
            dict(mapping, strategy={"kind": "synchronous"}))
        node = _resolve_theta(child(mapping, "strategy"), config)
        return replace(config, strategy=SyncStrategy.pick(node))
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


class _YamlLoader(yaml.CSafeLoader if yaml.__with_libyaml__
                  else yaml.SafeLoader):
    """PyYAML's libyaml parser, when built, with the safe constructor; a
    key written twice in one mapping raises, and merge keys still merge."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            keys = [self.construct_object(key) for key, _ in node.value
                    if key.tag != "tag:yaml.org,2002:merge"]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}")
        return super().construct_mapping(node, deep)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            mapping = yaml.load(f, Loader=_YamlLoader)
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
        writer.writerows(report.epochs)


# How `json.dumps` spells the floats that `repr` spells otherwise.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: Optional[float]) -> str:
    if x is None:
        return "null"
    text = repr(x)
    return _JSON_FLOATS.get(text, text)


def write_events_jsonl(report: RunReport, path: str) -> None:
    """One line per step, formatted from the step log's rows byte for byte
    as `json.dumps` renders {"step", "worker_count", "H", "synced",
    "bytes_cumulative"}: H is `null` when unset and `NaN`, `Infinity` or
    `-Infinity` when not finite."""
    k = report.worker_count
    lines = (f'{{"step": {t}, "worker_count": {k}, "H": {_json_float(h)}, '
             f'"synced": {"true" if synced else "false"}, '
             f'"bytes_cumulative": {b}}}\n'
             for t, synced, h, _, _, b in report.steps)
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


def run_experiment(config_path: str) -> int:
    """Run one config; write reports; return the run's exit code."""
    try:
        report = run_and_write(load_config(config_path))
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


def _flat(node: dict, prefix: str = "") -> dict:
    """A config node's values keyed by dotted path (`strategy.sketch.rows`)."""
    flat = {}
    for key, value in node.items():
        flat |= (_flat(value, f"{prefix}{key}.") if isinstance(value, dict)
                 else {prefix + key: value})
    return flat


def sweep(config_paths: list[str],
          output_csv: Optional[str] = None) -> list[dict]:
    """Run config files in the order given; one row per file: its base
    name and `status`, then, for a run that finished, its config node by
    dotted path (`strategy.kind`, `seed`), `reached_target` and its last
    epoch record.  Each run writes its own reports as `run` does; a path
    that cannot be read, parsed, run or written gets a "failed" row and the
    sweep continues.  An unusable `output_csv` raises OSError before any run.
    """
    if output_csv is not None:
        _ensure_parent(output_csv)
    rows = []
    for path in config_paths:
        row = {"config": os.path.basename(os.path.normpath(path)),
               "status": "failed"}
        try:
            config = load_config(path)
            report = run_and_write(config)
        except (RunDivergedError, ValueError, TypeError, OSError) as exc:
            print(f"{row['config']}: failed ({exc})", file=sys.stderr)
        else:
            row |= {"status": "ok", **_flat(config.to_node()),
                    "reached_target": report.reached_target,
                    **report.epochs[-1]._asdict()}
        rows.append(row)
    if output_csv is not None:
        columns = dict.fromkeys(["config", "status",
                                 *(key for row in rows for key in row)])
        with open(output_csv, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(columns))
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

    p_sweep = sub.add_parser("sweep", help="run config files in order")
    p_sweep.add_argument("config", nargs="+")
    p_sweep.add_argument("--out", default=None, help="aggregate CSV path")

    p_theta = sub.add_parser("theta", help="print a threshold preset")
    p_theta.add_argument("--profile", required=True,
                         choices=sorted(THETA_COEFFICIENTS))
    p_theta.add_argument("--dim", required=True, type=int)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config)
    try:
        if args.command == "theta":
            print(theta_preset(args.profile, args.dim))
            return 0
        rows = sweep(args.config, args.out)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"{row['config']}: status={row['status']} "
              f"strategy={row.get('strategy.kind', '')} "
              f"bytes={row.get('bytes_total', '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
