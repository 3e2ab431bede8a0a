"""Seeded request pools for the four benchmark workloads.

A workload turns a seed into a fixed pool of `renderopt` CLI requests and the
input files they name (configs, mobility traces, a checkpoint it trains).
For every request it knows how to read the artifacts back: how much work
the request did, whether the artifacts pass the workload's checks, and the
simulated outcomes that feed the `sim` metrics.

Inputs come from `random.Random(seed)`, so one seed always yields the same
pool. The program only ever sees the generated files and `--seed` values.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

POLICIES = ("proposed", "mdp", "random_opt", "none")


@dataclass
class Request:
    argv: list[str]                    # CLI arguments, without --out-dir
    kind: str                          # request class, e.g. "large" / "small"
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    work: float                        # workload units done (solves, steps, ...)
    problems: list[str]                # failed artifact checks
    sim: dict = field(default_factory=dict)   # simulated outcomes to aggregate
    users: int = 0                     # sequences scored (score workload)


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return str(path)


def _read_json(path: Path):
    return json.loads(path.read_text())


class Workload:
    """Set-up results a workload may add; only `score` trains during set-up."""

    setup_out: Path | None = None      # artifacts written by set-up requests
    setup_problems: list[str] = []
    setup_sim: dict = {}


class Market(Workload):
    """`game-solve` on generated markets of 2-8 edge nodes."""

    pool_size = 35                     # five markets of each size, 2 to 8 nodes

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)
        self.requests = []
        for i in range(self.pool_size):
            n_nodes = 2 + i % 7
            nodes = [{
                "id": f"edge-{j}",
                "alpha": rng.uniform(1.4, 2.1),
                # every fifth node is congestion-free
                "beta": 0.0 if (i + j) % 5 == 0 else rng.uniform(0.25, 0.55),
                "demand_max": rng.uniform(1.8, 2.2),
            } for j in range(n_nodes)]
            cloud = {"unit_cost": 0.3, "price_min": 0.35, "price_max": 1.8,
                     "capacity": rng.uniform(7.0, 9.0)}
            config = {"game": {"nodes": nodes, "cloud": cloud}}
            path = _write_json(work_dir / f"market-{i}.json", config)
            self.requests.append(Request(
                argv=["game-solve", "--config", path, "--seed", str(rng.randrange(2**31))],
                kind=f"nodes{n_nodes}", meta={"nodes": nodes, "cloud": cloud}))

    def examine(self, req: Request, out: Path) -> Outcome:
        rec = _read_json(out / "equilibrium.json")
        cloud, nodes = req.meta["cloud"], req.meta["nodes"]
        problems = []
        price = rec["price"]
        if not cloud["price_min"] <= price <= cloud["price_max"]:
            problems.append(f"price {price} outside the band")
        if rec["converged"] is not True:
            problems.append("solver did not converge")
        problems += _first_order_problems(nodes, cloud["capacity"], price,
                                          [rec[f"demand_{i}"] for i in range(len(nodes))])
        return Outcome(work=1, problems=problems,
                       sim={"cloud_utility": rec["cloud_utility"]})

    @staticmethod
    def summarize(sims: list[dict]) -> dict:
        return {"market.cloud_utility_mean":
                sum(s["cloud_utility"] for s in sims) / len(sims)}


def _first_order_problems(nodes: list[dict], capacity: float, price: float,
                          demands: list[float], br_tolerance: float = 1e-6) -> list[str]:
    """Check every follower's first-order condition at the returned demands.

    The edge utility in `renderopt.game` is
    alpha*ln(1+d) - beta*d*(d+D)/C - p*d, so its marginal is
    alpha/(1+d) - beta*(2d+D)/C - p: zero at an interior optimum, <= 0 at
    d = 0 and >= 0 at d = demand_max. The solver stops once no demand moves
    by br_tolerance, so the marginal may be off by the marginal's slope in
    d (alpha + 2*beta/C) plus its slope in the opponents' total (beta/C per
    opponent), each times br_tolerance; a factor 4 covers the golden-section
    bracket.
    """
    problems = []
    total = sum(demands)
    for node, d in zip(nodes, demands):
        a, b, d_max = node["alpha"], node["beta"], node["demand_max"]
        others = total - d
        marginal = a / (1.0 + d) - b * (2.0 * d + others) / capacity - price
        tol = 4.0 * br_tolerance * (a + 2.0 * b / capacity + (len(nodes) - 1) * b / capacity)
        if d < -tol or d > d_max + tol:
            problems.append(f"{node['id']}: demand {d} outside [0, {d_max}]")
            continue
        if d <= tol:
            ok = marginal <= tol
        elif d >= d_max - tol:
            ok = marginal >= -tol
        else:
            ok = abs(marginal) <= tol
        if not ok:
            problems.append(f"{node['id']}: marginal utility {marginal:.3e} at d={d}")
    return problems


class Floor(Workload):
    """`prerender-sim` over small long-horizon floors and >= 200^2 floors."""

    pool_size = 25
    large_every = 5                    # every fifth request is a large floor

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(seed)
        # Odd-numbered requests replay a trace, and a replay costs more than
        # a seeded walk. Diagonal floors, and on small floors 7-point region
        # sides, come in fixed shares within each class of (size, replay), in
        # seeded order, so every seed's pool holds the same mix of costs.
        groups: dict[tuple[str, bool], list[int]] = {}
        for i in range(self.pool_size):
            groups.setdefault((self._kind(i), i % 2 == 1), []).append(i)
        diagonal, side_7 = {}, {}
        for (kind, _), members in sorted(groups.items()):
            share = 0.4 if kind == "large" else 0.3
            diagonal.update(zip(members, _shuffled(rng, len(members), round(share * len(members)))))
            if kind == "small":
                side_7.update(zip(members, _shuffled(rng, len(members), len(members) // 2)))
        self.requests = []
        for i in range(self.pool_size):
            kind = self._kind(i)
            if kind == "large":
                width, height = rng.randint(200, 203), rng.randint(200, 203)
                steps, region_side = rng.randint(280, 320), 5
            else:
                width, height = rng.randint(18, 22), rng.randint(18, 22)
                steps, region_side = rng.randint(3800, 4200), 7 if side_7[i] else 5
            section = {
                "width": width, "height": height, "diagonal": diagonal[i],
                "region_side": region_side, "steps": steps,
                "timing": {"t_request": 1.0, "render_throughput": 20.0,
                           "bandwidth": rng.uniform(4500.0, 7000.0),
                           "avatar_speed": rng.uniform(0.9, 1.1)},
            }
            config = _write_json(work_dir / f"floor-{i}.json", {"prerender": section})
            argv = ["prerender-sim", "--config", config]
            if i % 2 == 1:
                start = (rng.randrange(width), rng.randrange(height))
                path = _random_path(rng, width, height, section["diagonal"], start, steps)
                trace = work_dir / f"floor-{i}.trace"
                trace.write_text("".join(f"{k} {x} {y}\n" for k, (x, y) in enumerate(path)))
                argv += ["--trace", str(trace)]
            else:
                start = (width // 2, height // 2)
                argv += ["--seed", str(rng.randrange(2**31))]
            self.requests.append(Request(argv=argv, kind=kind,
                                         meta={"section": section, "start": start}))

    def _kind(self, i: int) -> str:
        return "large" if i % self.large_every == 0 else "small"

    def examine(self, req: Request, out: Path) -> Outcome:
        section, start = req.meta["section"], req.meta["start"]
        summary = _read_json(out / "walk_summary.json")
        timing = section["timing"]
        deadline = 1000.0 * 0.02 / timing["avatar_speed"]      # default spacing 0.02 m
        problems = []
        misses = 0
        prev = start
        with open(out / "walk_steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            point = (int(row["x"]), int(row["y"]))
            dx, dy = abs(point[0] - prev[0]), abs(point[1] - prev[1])
            step_ok = (max(dx, dy) == 1) if section["diagonal"] else (dx + dy == 1)
            if not (step_ok and 0 <= point[0] < section["width"]
                    and 0 <= point[1] < section["height"]):
                problems.append(f"step {row['step']}: hop {prev}->{point} is not to a neighbour")
                break
            hop = math.hypot(dx, dy) if section["diagonal"] else 1.0
            if float(row["latency_ms"]) > deadline * max(hop, 1.0):
                misses += 1
            prev = point
        if len(rows) != summary["steps"]:
            problems.append(f"{len(rows)} CSV rows for {summary['steps']} steps")
        if misses != summary["deadline_misses"]:
            problems.append(f"recounted {misses} misses, summary says {summary['deadline_misses']}")
        if summary["bytes_transmitted"] > summary["bytes_all_i_baseline"]:
            problems.append("downlink bytes exceed the all-I baseline")
        return Outcome(work=summary["steps"], problems=problems, sim={
            "steps": summary["steps"], "misses": summary["deadline_misses"],
            "bytes": summary["bytes_transmitted"],
            "baseline": summary["bytes_all_i_baseline"]})

    @staticmethod
    def summarize(sims: list[dict]) -> dict:
        return {
            "floor.deadline_miss_rate": sum(s["misses"] for s in sims) / sum(s["steps"] for s in sims),
            "floor.bytes_ratio": sum(s["bytes"] for s in sims) / sum(s["baseline"] for s in sims),
        }


def _shuffled(rng: random.Random, n: int, n_true: int) -> list[bool]:
    flags = [True] * n_true + [False] * (n - n_true)
    rng.shuffle(flags)
    return flags


def _random_path(rng: random.Random, width: int, height: int, diagonal: bool,
                 start: tuple[int, int], steps: int) -> list[tuple[int, int]]:
    """A walk of `steps` hops, each to an in-bounds grid neighbour."""
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if diagonal:
        offsets += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    path = [start]
    x, y = start
    for _ in range(steps):
        options = [(x + dx, y + dy) for dx, dy in offsets
                   if 0 <= x + dx < width and 0 <= y + dy < height]
        x, y = rng.choice(options)
        path.append((x, y))
    return path


def _training_problems(out: Path) -> list[str]:
    """Checks on a `diffusion-train` run's artifacts."""
    from renderopt.diffusion.checkpoint import load_checkpoint
    problems = []
    with open(out / "training_curve.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    losses = [float(r[k]) for r in curve for k in ("train_loss", "val_loss")]
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in the training curve")
    if not float(curve[-1]["val_loss"]) < float(curve[0]["val_loss"]):
        problems.append("final validation loss is not below the initial one")
    try:
        load_checkpoint(out / "checkpoint.npz")
    except (ValueError, KeyError, OSError) as exc:
        problems.append(f"checkpoint does not reload: {exc}")
    return problems


class Score(Workload):
    """`diffusion-infer` for tens of users, every fourth request a `bench-run`.

    Set-up trains the checkpoint they read with `diffusion-train`, so this
    workload also carries the training side of the denoiser: its cost shows
    in setup_s, its artifacts are checked and digested like a request's, and
    the traced run reports its layers from the set-up spans.
    """

    pool_size = 24
    bench_every = 4

    def __init__(self, seed: int, work_dir: Path):
        from renderopt import cli
        from renderopt.config import DEFAULTS
        from renderopt.synthetic import PlantedConfig
        rng = random.Random(seed)
        tsec = DEFAULTS["bench"]["train"]
        ckpt_config = _write_json(work_dir / "score-train.json", {"diffusion": {
            "learning_rate": tsec["learning_rate"], "batch_size": tsec["batch_size"],
            "epochs": tsec["epochs"], "patience": tsec["patience"],
            "dataset_users": tsec["users"]}})
        ckpt_dir = work_dir / "score-checkpoint"
        argv = ["diffusion-train", "--config", ckpt_config, "--seed", str(seed),
                "--out-dir", str(ckpt_dir)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"checkpoint training failed: {argv}")
        self.setup_out = ckpt_dir
        self.setup_problems = _training_problems(ckpt_dir)
        self.setup_sim = {"score.checkpoint_final_val_loss":
                          _read_json(ckpt_dir / "train_summary.json")["final_val_loss"]}
        self.checkpoint = str(ckpt_dir / "checkpoint.npz")
        self.items = PlantedConfig().n_items
        self.scenes = DEFAULTS["bench"]["scenes"]
        config = _write_json(work_dir / "score.json", {})
        # every user count from 24 to 32 appears equally often, in seeded order
        n_infer = self.pool_size - self.pool_size // self.bench_every
        user_counts = [24 + k % 9 for k in range(n_infer)]
        rng.shuffle(user_counts)
        self.requests = []
        for i in range(self.pool_size):
            req_seed = str(rng.randrange(2**31))
            if i % self.bench_every == 0:
                self.requests.append(Request(
                    argv=["bench-run", "--config", config, "--checkpoint", self.checkpoint,
                          "--seed", req_seed], kind="bench"))
            else:
                users = user_counts.pop()
                self.requests.append(Request(
                    argv=["diffusion-infer", "--config", config, "--checkpoint",
                          self.checkpoint, "--users", str(users), "--seed", req_seed],
                    kind="infer", meta={"users": users}))

    def examine(self, req: Request, out: Path) -> Outcome:
        problems = []
        if req.kind == "infer":
            users = req.meta["users"]
            with open(out / "probabilities.csv", newline="") as fh:
                probs = [float(r["probability"]) for r in csv.DictReader(fh)]
            if len(probs) != users * self.items:
                problems.append(f"{len(probs)} rows for {users} users x {self.items} items")
            if not all(0.0 < p < 1.0 for p in probs):
                problems.append("probability outside (0, 1)")
            return Outcome(work=users, problems=problems, users=users)
        summary = _read_json(out / "bench_summary.json")
        table = {row["policy"]: row for row in summary["table"]}
        if sorted(table) != sorted(POLICIES):
            problems.append(f"bench summary lists {sorted(table)}")
            return Outcome(work=0, problems=problems)
        return Outcome(
            work=self.scenes * len(POLICIES), problems=problems, users=self.scenes,
            sim={"f1": table["proposed"]["f1"],
                 "reduction": summary["time_reduction_pct"]["proposed_vs_none"]})

    @staticmethod
    def summarize(sims: list[dict]) -> dict:
        sims = [s for s in sims if s]
        return {
            "score.proposed_f1": sum(s["f1"] for s in sims) / len(sims),
            "score.time_reduction_pct": sum(s["reduction"] for s in sims) / len(sims),
        }


WORKLOADS = {"market": Market, "floor": Floor, "score": Score}
