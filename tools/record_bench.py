"""Record benchmark runs as BENCH_<workload>.json at the repository root.

    python3 tools/record_bench.py <workload>|all [perfbench/run.py options]

Runs `python3 perfbench/run.py --workload <workload> <options>` and keeps
its `env` line and its result line (the last line of standard output) as
{"command": [...], "env": {...}, "result": {...}}.  `all` records every
workload that BENCHMARK.json names, one run and one file each, in its
order, and stops at the first that fails.  The env block's `commit` is the
checked-out commit: a tree measured before it is committed names its
parent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(workload: str, options: list[str]) -> int:
    """Run one workload and write its BENCH file; return the exit code."""
    command = ["python3", "perfbench/run.py", "--workload", workload, *options]
    proc = subprocess.run([sys.executable, *command[1:]], cwd=ROOT,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [line[4:] for line in lines if line.startswith("env ")]
    if proc.returncode != 0 or len(env) != 1:
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode or 1
    entry = {"command": command, "env": json.loads(env[0]),
             "result": json.loads(lines[-1])}
    path = os.path.join(ROOT, f"BENCH_{workload}.json")
    with open(path, "w") as f:
        json.dump(entry, f, indent=1)
        f.write("\n")
    print(path, flush=True)
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workload, options = argv[0], argv[1:]
    names = [workload]
    if workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    for name in names:
        code = record(name, options)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
