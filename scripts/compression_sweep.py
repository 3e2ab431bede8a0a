#!/usr/bin/env python3
"""Sensitivity of the walk's downlink savings to the delta-frame size model.

Sweeps the distance-ramp decay and the region side, runs the default walk for
each setting, and writes compression_sweep.csv with the bytes ratio and miss
counts.

Usage: python scripts/compression_sweep.py [--steps N] [--seed S] [--out CSV]
"""

import argparse

from renderopt.config import WalkSettings
from renderopt.errors import write_csv
from renderopt.prerender import EncodingSpec, GridWorld, TimingModel, simulate_walk


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="compression_sweep.csv")
    args = parser.parse_args()

    timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0)
    rows = []
    for region_side in (3, 5, 7):
        for decay in (2.0, 4.0, 8.0):
            world = GridWorld(width=20, height=20, region_side=region_side)
            encoding = EncodingSpec(ratio_floor=0.1, decay=decay)
            result = simulate_walk(world, timing, args.steps, args.seed, encoding,
                                   WalkSettings().panorama_work)
            ratio = result.bytes_transmitted / result.bytes_all_i_baseline
            rows.append((region_side, decay, ratio, result.deadline_misses))
            print(f"region_side={region_side} decay={decay}: "
                  f"bytes ratio {ratio:.3f}, misses {result.deadline_misses}")

    write_csv(args.out, ("region_side", "decay", "bytes_ratio", "deadline_misses"), rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
