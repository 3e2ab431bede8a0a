#!/usr/bin/env python3
"""Run every rendering policy over several workload seeds and print the mean
render times, F1 scores, and pairwise time reductions.

Trains the desk-scale preference model once (a few seconds) and reuses it for
all seeds.

Usage: python scripts/bench_multiseed.py [--seeds N] [--out CSV]
"""

import argparse
import csv

import numpy as np

from renderopt.bench import (CostModel, RenderPolicy, WorkloadConfig, compare,
                             generate_workload, run_policy)
from renderopt.cli import _train_denoiser
from renderopt.config import load_config

POLICIES = ("proposed", "mdp", "random_opt", "none")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default="bench_multiseed.csv")
    args = parser.parse_args()

    # bench-run's training settings on 256 users of population seed 101, seed 0
    config = load_config(None)
    result, standardizer = _train_denoiser(config, config.bench_train, 256, 101, 0)
    model, schedule = result.model, config.schedule
    print("model trained; running workloads")

    cost = CostModel()
    wconfig = WorkloadConfig()
    rows = []
    agg: dict[str, list] = {p: [] for p in POLICIES}
    for seed in range(args.seeds):
        workload = generate_workload(wconfig, seed=seed)
        reports = [run_policy(workload, RenderPolicy(variant=p), cost, model=model,
                              schedule=schedule, standardizer=standardizer)
                   for p in POLICIES]
        for rep in reports:
            agg[rep.policy].append(rep)
            rows.append((seed, rep.policy, rep.mean_render_time_s, rep.accuracy,
                         rep.recall, rep.f1))
        summary = compare(reports)
        red = summary["time_reduction_pct"]["proposed_vs_none"]
        print(f"seed {seed}: " + "  ".join(
            f"{rep.policy}={rep.mean_render_time_s:.2f}s" for rep in reports)
            + f"  (proposed vs none: -{red:.1f}%)")

    print("\nmeans over seeds:")
    for policy in POLICIES:
        times = [r.mean_render_time_s for r in agg[policy]]
        f1s = [r.f1 for r in agg[policy]]
        print(f"  {policy:11s} time {np.mean(times):6.2f}s  f1 {np.mean(f1s):.3f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "policy", "mean_render_time_s", "accuracy",
                         "recall", "f1"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]),
                             repr(row[4]), repr(row[5])])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
