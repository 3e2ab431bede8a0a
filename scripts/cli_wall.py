#!/usr/bin/env python3
"""Time each CLI subcommand end to end at the default config, every run in a fresh interpreter.

    python3 scripts/cli_wall.py --repeats 5
    python3 scripts/cli_wall.py --commands game-solve prerender-sim --repeats 9 --src ../parent/src
    python3 scripts/cli_wall.py --commands diffusion-train bench-run --bytecode warm
    python3 scripts/cli_wall.py --commands diffusion-train --src ../parent/src --src src

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
2-node solve is mostly interpreter start.

`--bytecode cold` (the default) runs each child in this environment as it is,
so where PYTHONDONTWRITEBYTECODE is set every run compiles renderopt again.
`--bytecode warm` runs them as an installed user's: PYTHONPYCACHEPREFIX in the
script's temporary directory, PYTHONDONTWRITEBYTECODE unset, and one untimed
warm-up run per command that fills the cache. Prints one row per command: the
bytecode mode, runs, median wall seconds, median CPU seconds, median system
CPU seconds, median minor page faults, and the largest peak RSS of its runs.

`--src` given twice compares two source trees. Each command's runs go in
pairs, one run of each tree, and the pairs alternate which tree runs first,
so drift of the machine over a command's runs falls on both trees alike.
Each tree gets its own untimed set-up runs and one row per command, `tree`
1 or 2 in `--src` order; the second tree's row adds `wall_ratio`, the median
over pairs of its wall time over the first tree's, and `wins`, the pairs in
which it ran faster.
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
    parser.add_argument("--src", action="append",
                        help="renderopt source root to run (default: this checkout's); "
                             "given twice, the two trees run in alternating pairs")
    parser.add_argument("--bytecode", choices=("cold", "warm"), default="cold",
                        help="run as this environment does, or from a bytecode cache "
                             "filled by an untimed warm-up run")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    srcs = args.src or [str(Path(__file__).resolve().parents[1] / "src")]
    if len(srcs) > 2:
        parser.error("--src may be given at most twice")
    paired = len(srcs) == 2

    print(f"{'command':16s} {'tree ' if paired else ''}{'bytecode':8s} {'runs':>4s} "
          f"{'wall_s':>8s} {'cpu_s':>8s} {'sys_s':>8s} {'minflt':>8s} {'peak_rss_mb':>11s}"
          + (f" {'wall_ratio':>10s} {'wins':>5s}" if paired else ""))
    with tempfile.TemporaryDirectory(prefix="cli-wall-") as tmp:
        work = Path(tmp)
        argv = {name: [name] for name in COMMANDS}
        if "prerender-replay" in args.commands:
            write_trace(work / "replay.trace", REPLAY_STEPS)
            argv["prerender-replay"] = ["prerender-sim", "--trace", str(work / "replay.trace")]
        if "game-solve-8" in args.commands:
            write_market(work / "market.json", MARKET_NODES)
            argv["game-solve-8"] = ["game-solve", "--config", str(work / "market.json")]
        envs, argvs = [], []
        for tree, src in enumerate(srcs, 1):
            env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
                   "OPENBLAS_NUM_THREADS": "1"}
            if args.bytecode == "warm":
                env.pop("PYTHONDONTWRITEBYTECODE", None)
                env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
            checkpoint = work / f"checkpoint-{tree}"
            if "diffusion-infer" in args.commands:
                run_once(["diffusion-train"], env, checkpoint)
            envs.append(env)
            argvs.append({**argv, "diffusion-infer": ["diffusion-infer", "--checkpoint",
                                                      str(checkpoint / "checkpoint.npz")]})
        for name in args.commands:
            trees = range(len(srcs))
            if args.bytecode == "warm":
                for t in trees:
                    run_once(argvs[t][name], envs[t], work / f"{name}-{t + 1}-warm-up")
            runs: list[list] = [[] for _ in trees]
            for i in range(args.repeats):
                for t in (trees if i % 2 == 0 else reversed(trees)):
                    runs[t].append(run_once(argvs[t][name], envs[t],
                                            work / f"{name}-{t + 1}-{i}"))
            ratios = [b[0] / a[0] for a, b in zip(*runs)] if paired else []
            for t, tree_runs in enumerate(runs):
                walls, cpus, syss, faults, rss = zip(*tree_runs)
                row = (f"{name:16s} {f'{t + 1:<4d} ' if paired else ''}{args.bytecode:8s} "
                       f"{len(tree_runs):4d} {statistics.median(walls):8.3f} "
                       f"{statistics.median(cpus):8.3f} {statistics.median(syss):8.3f} "
                       f"{statistics.median(faults):8.0f} {max(rss):11.1f}")
                if paired:
                    wins = f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}"
                    row += (f" {'-':>10s} {'-':>5s}" if t == 0 else
                            f" {statistics.median(ratios):10.3f} {wins:>5s}")
                print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
