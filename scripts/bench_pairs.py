#!/usr/bin/env python3
"""Benchmark a parent revision against the checkout in alternating pairs and record it.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload floor --seeds 9001 1 2 3 4 --pr 18
    python3 scripts/bench_pairs.py --parent HEAD~1 --workload market floor score \
        --seeds 9001 1 2 3 4 --pr 18

The parent is exported with `git archive` into a temporary directory. For
each workload and seed, `perfbench/run.py --trace 0` runs once there and
once in the checkout for BENCHMARK.json's `run_seconds`, one after the
other; which side runs first alternates from pair to pair. Each run's
`.bench_work/result-<workload>-trace0.json` is read back, and a record is
written at the root of the checkout, BENCH_<pr>.json for the first workload
and BENCH_<pr>_<workload>.json for each other one. It holds the
environment, each end-to-end metric's median and quartiles per side, the
per-pair ratios (checkout over parent) and two verdicts. `claimable`: the
checkout wins at least nine tenths of all pairs (a tie wins for neither
side), and the median ratio lies outside the parent's spread (the distance
between its quartiles over its median) on the better side. `bound_verdict`,
against the metric's `bound` in BENCHMARK.json: `within` when the
checkout's median is no worse than the parent's by more than the bound,
`worse` when it is, and `unresolved` when the parent's spread exceeds the
bound and not every checkout run beats every parent run. Run from the root
of a checkout.
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


def bound_verdict(stats: dict, higher: bool, bound: float) -> str:
    """`within`, `worse` or `unresolved`: the change's median against the
    parent's, allowed to be worse by `bound` (a fraction of the parent's).
    A parent spread wider than the bound cannot tell, unless every change
    run beats every parent run."""
    parent, change = stats["parent"], stats["change"]
    beats_all = (min(change["values"]) > max(parent["values"]) if higher
                 else max(change["values"]) < min(parent["values"]))
    if (parent["q3"] - parent["q1"]) / parent["median"] > bound and not beats_all:
        return "unresolved"
    worse_by = (parent["median"] - change["median"]) / parent["median"]
    return "worse" if (worse_by if higher else -worse_by) > bound else "within"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's values, median and quartiles, the
    per-pair ratios change / parent, whether the change is claimable, and
    its `bound_verdict` against the metric's `bound`.

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
                     "claimable": correct and 10 * wins >= 9 * len(ratios) and beyond,
                     "bound": m["bound"],
                     "bound_verdict": bound_verdict(stats, higher, m["bound"])}
    return out


def record_names(pr: str, workloads: list[str]) -> dict[str, str]:
    """The record file of each workload: BENCH_<pr>.json for the first,
    BENCH_<pr>_<workload>.json for each other."""
    return {w: f"BENCH_{pr}.json" if i == 0 else f"BENCH_{pr}_{w}.json"
            for i, w in enumerate(workloads)}


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int],
              seconds: int) -> tuple[list[dict], dict]:
    """Alternating pairs of one workload, one per seed; the pairs and the
    checkout's last environment."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_side(trees[side], workload, seed, seconds) for side in order}
        pairs.append({"seed": seed, "first": order[0],
                      **{side: results[side]["summary"] for side in SIDES}})
        environment = results["change"]["runs"][-1]["environment"]
        print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
            f"{name} {pairs[-1]['parent']['metrics'][name]['value']:.4g} -> "
            f"{pairs[-1]['change']['metrics'][name]['value']:.4g}"
            for name in pairs[-1]["change"]["metrics"]), flush=True)
    return pairs, environment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", nargs="+", required=True,
                        help="one or more workloads, run one after another")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pr", required=True, help="number in the name BENCH_<pr>.json")
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]          # the run length the benchmark sets for both sides
    names = record_names(args.pr, args.workload)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": root}
        commit = export(args.parent, trees["parent"])
        for workload in args.workload:
            pairs, environment = run_pairs(trees, workload, args.seeds, seconds)
            record = {"workload": workload, "parent": commit, "seconds": seconds,
                      "environment": environment,
                      "pairs": [{"seed": p["seed"], "first": p["first"],
                                 **{f"{side}_correct": p[side]["correct"] for side in SIDES}}
                                for p in pairs],
                      "metrics": summarize(pairs, spec["end_to_end"])}
            out = root / names[workload]
            out.write_text(json.dumps(record, indent=1) + "\n")
            for name, m in record["metrics"].items():
                print(f"{name:16s} parent {m['parent']['median']:.4g}"
                      f"  change {m['change']['median']:.4g}"
                      f"  wins {m['wins']}/{len(pairs)}  median ratio {m['median_ratio']:.3f}"
                      f"  spread {m['parent_spread']:.3f}  claimable {m['claimable']}"
                      f"  bound {m['bound']:g} {m['bound_verdict']}")
            print(f"wrote {out.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
