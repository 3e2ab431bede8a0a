#!/usr/bin/env python3
"""Benchmark a parent revision against the checkout in alternating pairs and record it.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload floor --seeds 9001 1 2 3 4 --pr 18

The parent is exported with `git archive` into a temporary directory. For
each seed, `perfbench/run.py --trace 0` runs once there and once in the
checkout for BENCHMARK.json's `run_seconds`, one after the other; which
side runs first alternates from pair to pair. Each run's
`.bench_work/result-<workload>-trace0.json` is read back, and
BENCH_<pr>.json is written at the root of the checkout with the
environment, each end-to-end metric's median and quartiles per side, the
per-pair ratios (checkout over parent) and a `claimable` verdict: the
checkout wins at least nine tenths of all pairs (a tie wins for neither
side), and the median ratio lies outside the parent's spread (the distance
between its quartiles over its median) on the better side. Run from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into `dest`; return the commit it names."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`; its result file."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        last = proc.stderr.strip().rpartition("\n")[2]
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}: {last}")
    return json.loads((tree / ".bench_work" / f"result-{workload}-trace0.json").read_text())


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4, as perfbench/spread.py)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's values, median and quartiles, the
    per-pair ratios change / parent, and whether the change is claimable.

    `pairs` holds one {"seed", "first", "parent", "change"} per pair, each
    side a result summary as perfbench/run.py writes it. A metric is
    claimable only when every run was correct, the change wins at least
    nine tenths of all pairs (a tie wins for neither side), and the median
    ratio lies beyond 1 by more than the parent's spread, (q3 - q1) /
    median, on the better side."""
    correct = all(p[side]["correct"] for p in pairs for side in SIDES)
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        stats = {side: {"values": values[side], **spread(values[side])} for side in SIDES}
        parent = stats["parent"]
        band = (parent["q3"] - parent["q1"]) / parent["median"]
        median_ratio = statistics.median(ratios)
        if higher:
            wins, beyond = sum(r > 1 for r in ratios), median_ratio > 1 + band
        else:
            wins, beyond = sum(r < 1 for r in ratios), median_ratio < 1 - band
        out[name] = {"unit": m["unit"], "better": m["better"], **stats, "ratios": ratios,
                     "wins": wins, "median_ratio": median_ratio, "parent_spread": band,
                     "claimable": correct and 10 * wins >= 9 * len(ratios) and beyond}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pr", required=True, help="number in the name BENCH_<pr>.json")
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]          # the run length the benchmark sets for both sides
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": root}
        commit = export(args.parent, trees["parent"])
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {side: run_side(trees[side], args.workload, seed, seconds)
                       for side in order}
            pairs.append({"seed": seed, "first": order[0],
                          **{side: results[side]["summary"] for side in SIDES}})
            environment = results["change"]["runs"][-1]["environment"]
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: " + ", ".join(
                f"{name} {pairs[-1]['parent']['metrics'][name]['value']:.4g} -> "
                f"{pairs[-1]['change']['metrics'][name]['value']:.4g}"
                for name in pairs[-1]["change"]["metrics"]), flush=True)

    record = {"workload": args.workload, "parent": commit, "seconds": seconds,
              "environment": environment,
              "pairs": [{"seed": p["seed"], "first": p["first"],
                         **{f"{side}_correct": p[side]["correct"] for side in SIDES}}
                        for p in pairs],
              "metrics": summarize(pairs, spec["end_to_end"])}
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name:16s} parent {m['parent']['median']:.4g}  change {m['change']['median']:.4g}"
              f"  wins {m['wins']}/{len(pairs)}  median ratio {m['median_ratio']:.3f}"
              f"  spread {m['parent_spread']:.3f}"
              f"  claimable {m['claimable']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
