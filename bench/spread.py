#!/usr/bin/env python3
"""Run a workload once per seed and summarise each end-to-end metric.

    python3 bench/spread.py --workload W [--seeds 1 2 ...] [--json FILE]

Each run is untraced and lasts BENCHMARK.json's run_seconds.

For each metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, the figure that must stay below the metric's bound in
BENCHMARK.json.  ``--json`` appends the summary to a JSON file, keyed by
workload, so that a baseline can be recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--json", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if n in bounds), flush=True)

    summary = {}
    print(f"{'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "values": vs}
        bound = bounds.get(name)
        flag = "" if bound is None or share <= bound / 3 else "  above bound/3"
        print(f"{name:28s} {med:11.5g} {q1:11.5g} {q3:11.5g} {share:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")

    if args.json:
        data = json.loads(args.json.read_text(encoding="utf-8")) if args.json.exists() else {}
        data[args.workload] = {"seeds": args.seeds, "seconds": spec["run_seconds"],
                               "metrics": summary}
        args.json.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
