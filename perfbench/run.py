"""Segmentation benchmark: one run of one workload.

    python3 perfbench/run.py --workload banded-chain --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts worker.py in a fresh
process with a pinned environment: BLAS and OpenMP pools at one thread,
a fixed hash seed, no bytecode writes and no SEGMAT_CONFIG, so no config
file can change parameters silently.  The worker's standard output is
passed through; its last line is the result JSON.  The exit code is not 0
when the worker fails, times out or prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def pinned_env(base) -> dict[str, str]:
    env = dict(base)
    env.pop("SEGMAT_CONFIG", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, env=pinned_env(os.environ),
                              stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish in {TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"error: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("error: worker printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
