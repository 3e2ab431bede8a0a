#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py                       # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads floor --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs go one after another, never in parallel, so they do not compete for
cores. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    report = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} requests failed", file=sys.stderr)
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        report[workload] = values
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {workload:7s} {m['name']:24s} median {med:12.5g} {m['unit']:7s} "
                  f"spread {spread:7.3f}  bound {m['bound']}  {verdict}")
    out = Path(".bench_work") / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
