"""One `dynavg run` in a fresh interpreter, timed from its first statement.

Usage: python3 perfbench/child.py CONFIG RESULT_JSON [SPANS_JSONL]

Imports `dynavg` from the `src/` directory next to this one and calls
`dynavg.cli.main(["run", CONFIG])`, which is what the `dynavg run` console
script does; the process exits with that run's code.  RESULT_JSON gets:

  exit_code    the code `dynavg run` returned
  setup_s      first statement of this file -> first local step (the first
               `ShardSampler.next_batch` call)
  run_s        first statement of this file -> `cli.main` returned, so it
               includes imports and report writing
  peak_rss_mb  peak resident memory of this process (MiB)

With SPANS_JSONL the run is traced (see tracer.py): the spans are written
there after the run, and RESULT_JSON also gets per-layer call counts and
self times, the ledger totals and the audit counts taken from the
`RunReport` that `cli.run` returned.  Without it nothing is wrapped except
a one-shot hook that notes the first local step and then removes itself.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "dynavg")


def audit_counts(config, report) -> dict:
    """Counts behind the two audit ratios, from the per-step records.

    h_covers_var: audited steps with H >= exact Var, over audited steps.
    sync_needed: syncs whose pre-sync exact Var > theta, over audited syncs.
    """
    theta = getattr(config.strategy, "theta", None)
    audited = [s for s in report.steps
               if s.variance is not None and s.h_value is not None]
    synced = [s for s in report.steps if s.synced and s.variance is not None]
    return {
        "h_covers_var": sum(s.h_value >= s.variance for s in audited),
        "h_covers_var_base": len(audited),
        "sync_needed": 0 if theta is None
        else sum(s.variance > theta for s in synced),
        "sync_needed_base": len(synced),
    }


def main(argv: list) -> int:
    config_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    recorder = tracing = None
    if spans_path:
        import tracer as tracing
        recorder = tracing.Tracer(
            run_id=os.path.relpath(os.path.dirname(spans_path), ROOT))
        root = recorder.open(tracing.ROOT_SPAN, T0)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dynavg
    from dynavg import cli, cluster_sim, fda_core, learner, sketch
    if os.path.dirname(os.path.abspath(dynavg.__file__)) != PACKAGE_DIR:
        print(f"imported dynavg from {dynavg.__file__}, expected {PACKAGE_DIR}",
              file=sys.stderr)
        return 90

    first_step: list = []
    reports: list = []
    if recorder is None:
        sampler = learner.ShardSampler
        next_batch = sampler.next_batch

        def first_next_batch(self):
            first_step.append(time.perf_counter())
            sampler.next_batch = next_batch
            return next_batch(self)

        sampler.next_batch = first_next_batch
    else:
        tracing.install(recorder, {"cli": cli, "cluster_sim": cluster_sim,
                                   "fda_core": fda_core, "learner": learner,
                                   "sketch": sketch})
        traced_run = cli.run

        def run_and_keep(config):
            report = traced_run(config)
            reports.append((config, report))
            return report

        cli.run = run_and_keep

    code = cli.main(["run", config_path])
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"exit_code": code, "run_s": end - T0, "peak_rss_mb": peak_rss_mb}
    if recorder is None:
        result["setup_s"] = first_step[0] - T0 if first_step else None
    else:
        recorder.close(root, end)
        result["layers"] = tracing.summarize(recorder.spans)
        result["missing"] = recorder.missing
        first = next((s for s in recorder.spans if s[0] == tracing.SAMPLER_SPAN),
                     None)
        result["setup_s"] = None if first is None else first[1] - T0
        if reports:
            config, report = reports[-1]
            result["ledger"] = {"bytes_state": report.ledger.bytes_state,
                                "bytes_sync": report.ledger.bytes_sync}
            result["audit"] = audit_counts(config, report)
        recorder.write(spans_path)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
