"""Benchmark entry point.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each workload runs in its own ``worker.py`` process with one BLAS thread
(the thread variables are set here, before that process imports numpy).
The last line of standard output is the result JSON of the workload; with
``--workload all`` every workload's report and result line is printed in
turn. Exits non-zero when a workload fails its correctness gate or an
output check, or when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-c9", "large-n")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(name: str, args) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env={**os.environ, **PINNED},
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"{name}: worker exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1, []
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"{name}: worker printed no result line", file=sys.stderr)
        return 1, lines
    return proc.returncode, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        rc, lines = run_workload(name, args)
        for line in lines:
            print(line, flush=True)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
