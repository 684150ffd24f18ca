#!/usr/bin/env python3
"""Benchmark of the cyclovision pipeline, one workload at a time.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is sweep-small, reconstruct-mid, scene-large, or all (each in turn).
Each workload runs in fresh single-threaded worker processes
(``bench/worker.py``), one after another. With ``--trace 0`` the run
prints every end-to-end metric by name with its unit; with ``--trace 1``
it prints the per-layer metrics of a separate traced run. The run length
is a fixed number of passes over a fixed problem list, chosen from
``--seconds`` and a nominal pass time, never from the clock.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
1 when a correctness check fails and 2 when the benchmark cannot run
(then no JSON is printed). See ``bench/README.md`` for the workloads and
the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-small", "reconstruct-mid", "scene-large")

#: set-ups timed per untraced run; setup_s is their median
SETUP_ROUNDS = 3
#: wall-clock budget of one workload, all of its processes together
BUDGET_S = 170.0
#: BLAS and OpenMP pools pinned to one thread: the machine may have 2 cores
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args: list[str], deadline: float) -> dict:
    """Run one worker process; its result with ``setup_s`` from launch to ready."""
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker {' '.join(args)} timed out") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and worker.
    result["setup_s"] = result.pop("ready") - launched
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        return launch(args, deadline)
    setups = [launch([*args, "--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_ROUNDS - 1)]
    result = launch(args, deadline)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = [statistics.median(setups), "s"]
    result["details"]["setup_rounds_s"] = setups
    return result


def report(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  seed {seed}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:32s} {value:<24.10g} {unit}")
    for name, value in result["details"].items():
        print(f"   {name:32s} {json.dumps(value)}")
    for name, passed in result["checks"].items():
        print(f"   check {name:26s} {'pass' if passed else 'FAIL'}")
    print(f"   environment {json.dumps(result['environment'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    for workload, result in results.items():
        report(workload, args.seed, result)
    correct = all(all(r["checks"].values()) for r in results.values())
    prefix = len(workloads) > 1
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, r in results.items() for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
