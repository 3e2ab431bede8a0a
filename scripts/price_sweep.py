#!/usr/bin/env python3
"""Trace the leader's utility curve over the price band and mark the solver's
answer. Writes price_sweep.csv (price, cloud_utility) for plotting.

Usage: python scripts/price_sweep.py [--config CONFIG] [--points N] [--out CSV]
"""

import argparse
import warnings
from pathlib import Path

import numpy as np

from renderopt.config import load_config
from renderopt.errors import ConvergenceWarning, write_csv
from renderopt.game import cloud_utility, solve_stackelberg


def price_sweep(cloud, nodes, settings, n_points):
    """The leader's utility at `n_points` evenly spaced prices, band ends included."""
    prices = np.linspace(cloud.price_min, cloud.price_max, n_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        utils = np.array([cloud_utility(cloud, nodes, float(p), settings) for p in prices])
    return prices, utils


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

    write_csv(args.out, ("price", "cloud_utility"), zip(prices, utils))

    print(f"wrote {args.points}-point sweep to {Path(args.out).resolve()}")
    print(f"solver price {eq.price:.6f}, utility {eq.cloud_utility:.6f}, "
          f"sweep peak {prices[utils.argmax()]:.6f}")


if __name__ == "__main__":
    main()
