#!/usr/bin/env python3
"""Trace the leader's utility curve over the price band and mark the solver's
answer. Writes price_sweep.csv (price, cloud_utility) for plotting.

Usage: python scripts/price_sweep.py [--config CONFIG] [--points N] [--out CSV]
"""

import argparse
import csv
from pathlib import Path

from renderopt.config import load_config
from renderopt.game import price_sweep, solve_stackelberg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None)
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--out", default="price_sweep.csv")
    args = parser.parse_args()

    cfg = load_config(args.config)
    nodes = list(cfg.nodes)
    prices, utils = price_sweep(cfg.cloud, nodes, cfg.solver, n_points=args.points)
    eq = solve_stackelberg(cfg.cloud, nodes, cfg.solver)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["price", "cloud_utility"])
        for p, u in zip(prices, utils):
            writer.writerow([repr(float(p)), repr(float(u))])

    print(f"wrote {args.points}-point sweep to {Path(args.out).resolve()}")
    print(f"solver price {eq.price:.6f}, utility {eq.cloud_utility:.6f}, "
          f"sweep peak {prices[utils.argmax()]:.6f}")


if __name__ == "__main__":
    main()
