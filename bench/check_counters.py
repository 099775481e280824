#!/usr/bin/env python3
"""Check that the work counters repeat exactly for a seed.

    python3 bench/check_counters.py [--seed N] [--workload W ...]

Runs each workload twice with the same seed, traced and untraced, each time
in a fresh process, and compares every count-based per-layer metric and the
decided ratio.  A counter that differs is listed as unfit for count-based
claims and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("corpus", "subtype", "infer", "probe")


def run(workload: str, seed: int, trace: int) -> dict:
    # --seconds 1 gives one pass (one untraced and one traced when tracing)
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def counted(metrics: dict) -> dict:
    """Metrics that are counts, or ratios of counts, and so must repeat exactly."""
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] == "count" or (m["unit"] == "ratio" and name != "trace.overhead_ratio")
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = p.parse_args()

    unfit = []
    for workload in args.workload:
        first, second = {}, {}
        for trace in (0, 1):
            first.update(counted(run(workload, args.seed, trace)))
            second.update(counted(run(workload, args.seed, trace)))
        differ = sorted(k for k in first if first[k] != second.get(k))
        unfit += [f"{workload}:{k}" for k in differ]
        print(f"{workload:8s} {len(first) - len(differ)} of {len(first)} counters repeat"
              + (f"; differ: {', '.join(differ)}" if differ else ""))
    if unfit:
        print(f"unfit for count-based claims: {', '.join(unfit)}")
        return 1
    print("all counters repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
