#!/usr/bin/env python3
"""Time each CLI subcommand end to end at the default config, every run in a fresh interpreter.

    python3 scripts/cli_wall.py --repeats 5
    python3 scripts/cli_wall.py --commands game-solve prerender-sim --repeats 9 --src ../parent/src

Each run is `python -m renderopt.cli <command> --out-dir <new dir>` in a child
process with OPENBLAS_NUM_THREADS=1, so it counts interpreter start, imports,
config validation, the command and its writes. Wall time spans the child's
whole life; CPU time (user + system), system CPU time, minor page faults
and peak resident set size come from `os.wait4` on that child alone. System
time and minor faults show allocation churn: pages the allocator hands back to
the kernel and faults in again. diffusion-infer reads the checkpoint of one
untimed diffusion-train run made first. prerender-replay is `prerender-sim
--trace` on a 100 000-step trace written first: back and forth along a
serpentine through every point of the default 20 x 20 floor. game-solve-8 is
`game-solve --config` on an 8-node market written first, where the default
2-node solve is mostly interpreter start. Prints one row
per command: runs, median wall seconds, median CPU seconds, median system CPU
seconds, median minor page faults, and the largest peak RSS of its runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("game-solve", "game-solve-8", "prerender-sim", "prerender-replay",
            "diffusion-train", "diffusion-infer", "bench-run")
REPLAY_STEPS = 100_000
MARKET_NODES = 8


def write_market(path: Path, nodes: int) -> None:
    """A config of one `nodes`-node market, its weights, congestion and caps
    spread over the ranges the benchmark's `market` pools draw from; every
    fifth node is congestion-free."""
    market = [{"id": f"edge-{j}", "alpha": 1.4 + 0.7 * j / nodes,
               "beta": 0.0 if j % 5 == 0 else 0.25 + 0.3 * j / nodes,
               "demand_max": 1.8 + 0.4 * j / nodes} for j in range(nodes)]
    path.write_text(json.dumps({"game": {"nodes": market}}))


def write_trace(path: Path, steps: int) -> None:
    """A `steps`-step trace on the default floor: one `index x y` line a point."""
    serpentine = [(x if y % 2 == 0 else 19 - x, y) for y in range(20) for x in range(20)]
    lap = serpentine + serpentine[-2:0:-1]
    with open(path, "w") as fh:
        fh.writelines("%d %d %d\n" % (k, *lap[k % len(lap)]) for k in range(steps + 1))


def run_once(argv: list[str], env: dict, out_dir: Path) -> tuple[float, float, float, int, float]:
    """Run one CLI command in a child; its wall seconds, CPU seconds, system CPU
    seconds, minor page faults and peak RSS in MB."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "renderopt.cli", *argv,
                                 "--out-dir", str(out_dir)],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            message = err.read().decode(errors="replace").strip()
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {message}")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_stime, usage.ru_minflt,
            usage.ru_maxrss / 1024.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", nargs="+", choices=COMMANDS, default=list(COMMANDS))
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per command")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="renderopt source root to run (default: this checkout's)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()),
           "OPENBLAS_NUM_THREADS": "1"}
    print(f"{'command':16s} {'runs':>4s} {'wall_s':>8s} {'cpu_s':>8s} {'sys_s':>8s} "
          f"{'minflt':>8s} {'peak_rss_mb':>11s}")
    with tempfile.TemporaryDirectory(prefix="cli-wall-") as tmp:
        work = Path(tmp)
        argv = {name: [name] for name in COMMANDS}
        if "diffusion-infer" in args.commands:
            run_once(["diffusion-train"], env, work / "checkpoint")
            argv["diffusion-infer"].extend(["--checkpoint",
                                            str(work / "checkpoint" / "checkpoint.npz")])
        if "prerender-replay" in args.commands:
            write_trace(work / "replay.trace", REPLAY_STEPS)
            argv["prerender-replay"] = ["prerender-sim", "--trace", str(work / "replay.trace")]
        if "game-solve-8" in args.commands:
            write_market(work / "market.json", MARKET_NODES)
            argv["game-solve-8"] = ["game-solve", "--config", str(work / "market.json")]
        for name in args.commands:
            runs = [run_once(argv[name], env, work / f"{name}-{i}")
                    for i in range(args.repeats)]
            walls, cpus, syss, faults, rss = zip(*runs)
            print(f"{name:16s} {len(runs):4d} {statistics.median(walls):8.3f} "
                  f"{statistics.median(cpus):8.3f} {statistics.median(syss):8.3f} "
                  f"{statistics.median(faults):8.0f} {max(rss):11.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
