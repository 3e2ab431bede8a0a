"""Brute-force oracles, independent of the code they check.

For the resource game: the solver uses golden-section best responses inside
Jacobi sweeps; these oracles only ever scan utility values on grids, so
agreement between the two is meaningful evidence. The equilibrium oracle does
nested grid refinement (each stage is an exhaustive scan of a shrinking box)
and audits its answer with full-range scans at the end.

For the follower: the golden-section best response as it was before its probe
offsets were made once per node and solve, each step multiplying the width by
1/phi and the offsets out of it. The search as it stands must agree bit for bit.

For the leader: the Stackelberg solve without its per-solve equilibrium memo,
re-solving the follower game at every price the ascent evaluates, repeats
included, plus counters of the follower work a solve does.

For pre-rendering: region assignment by checking every center for every
point; a walk that encodes every frame up front and recomputes each step's
neighbours, latency and deadline; and the step CSV written row by row with
`csv.writer`.

For the benchmark's `mdp` policy: the region-hop MDP built as a full
transition tensor and solved by value iteration. For `random_opt`: one
configuration's objective, computed from popularity, quality, work and LOD
multiplier without the per-region reward pair the policy sums.

For trace files: the writer `load_trace` must read back, and the reader as it
was before it read blocks: a regex match and three `int` calls per line, read
a capped line at a time. The one edit is the explicit UTF-8 encoding.

For the diffusion forward process: the literal step-by-step perturbation
chain whose marginal `NoiseSchedule.perturb` gives in closed form.

For the denoiser's activation: the exact GELU, x Phi(x), and its derivative,
element by element with `math.erf`; the network uses the tanh form.

For the denoiser's weights: the network's tensors as a table of shape and init
rule, a seeded init that builds each tensor apart, and Adam over a dict of
tensors, one tensor at a time. The model keeps one weight vector instead; the
two must agree bit for bit.

For the denoiser's kernels: the layernorm, GELU, linear, softmax, timestep
embedding and reverse-step bodies as they were written before they worked in
place, each one numpy expression allocating its own result. The in-place
kernels replay the same left-to-right evaluation, so the two agree bit for bit.

For the config: every key's default written out as one literal tree, as the
config module held it before it built the tree from its dataclasses' fields.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from functools import partial
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from renderopt import bench, game
from renderopt.game import (CloudParams, EdgeNodeParams, EquilibriumResult, SolverSettings,
                            cloud_utility)
from renderopt.config import NoiseSchedule
from renderopt.diffusion.denoiser import DenoiserConfig
from renderopt.errors import shown
from renderopt.prerender import (Coord, EncodingSpec, GridWorld, TimingModel,
                                 WalkResult, encode_frame, hop_deadline, neighbors,
                                 step_latency)


def utility_curve(node: EdgeNodeParams, d: np.ndarray, d_others_sum: float,
                  price: float, capacity: float) -> np.ndarray:
    return (node.alpha * np.log1p(d)
            - node.beta * d * (d + d_others_sum) / capacity
            - price * d)


def br_grid(node: EdgeNodeParams, d_others_sum: float, price: float,
            capacity: float, resolution: float = 1e-5) -> float:
    """Best response by dense 1-D scan: coarse pass over the full range,
    fine pass around the coarse winner."""
    coarse = np.linspace(0.0, node.demand_max, 4001)
    i = int(np.argmax(utility_curve(node, coarse, d_others_sum, price, capacity)))
    lo = max(0.0, coarse[i] - 2 * (node.demand_max / 4000))
    hi = min(node.demand_max, coarse[i] + 2 * (node.demand_max / 4000))
    n = max(3, int(round((hi - lo) / resolution)) + 1)
    fine = np.linspace(lo, hi, n)
    j = int(np.argmax(utility_curve(node, fine, d_others_sum, price, capacity)))
    return float(fine[j])


def _br_table(node: EdgeNodeParams, s_grid: np.ndarray, d_lo: float, d_hi: float,
              d_res: float, price: float, capacity: float) -> np.ndarray:
    """argmax_d utility for every opponent-sum in s_grid, d restricted to a box."""
    n = max(3, int(round((d_hi - d_lo) / d_res)) + 1)
    d_grid = np.linspace(d_lo, d_hi, n)
    table = np.empty(len(s_grid))
    chunk = max(1, int(2_000_000 // n))
    for start in range(0, len(s_grid), chunk):
        s = s_grid[start:start + chunk, None]
        u = (node.alpha * np.log1p(d_grid[None, :])
             - node.beta * d_grid[None, :] * (d_grid[None, :] + s) / capacity
             - price * d_grid[None, :])
        table[start:start + chunk] = d_grid[np.argmax(u, axis=1)]
    return table


def nash_grid(nodes: list[EdgeNodeParams], price: float, capacity: float,
              target_res: float = 1e-4, points_per_axis: int = 121) -> np.ndarray:
    """Equilibrium demands by nested grid search on the joint demand box.

    Each stage scans the full product grid for the point minimizing the
    simultaneous best-response residual max_i |d_i - BR_i(sum of others)|,
    then shrinks the box around the winner. The final point is audited with
    full-range best-response scans.
    """
    n = len(nodes)
    lo = np.zeros(n)
    hi = np.array([nd.demand_max for nd in nodes], dtype=float)
    res = (hi - lo) / (points_per_axis - 1)

    while True:
        axes = [np.linspace(lo[i], hi[i], points_per_axis) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        total = sum(mesh)
        residual = np.zeros_like(total)
        for i, node in enumerate(nodes):
            s_lo = float(sum(lo) - lo[i])
            s_hi = float(sum(hi) - hi[i])
            q = min(1024, max(2, int(np.ceil((s_hi - s_lo) / max(res.min(), 1e-9))) + 1))
            s_grid = np.linspace(s_lo, s_hi, q)
            # restrict the argmax range to the current box plus a margin; the
            # trailing audit catches any response escaping it
            margin = max(10.0 * res[i], 0.05 * node.demand_max)
            d_lo = max(0.0, lo[i] - margin)
            d_hi = min(node.demand_max, hi[i] + margin)
            table = _br_table(node, s_grid, d_lo, d_hi, res[i] / 2, price, capacity)
            s_other = total - mesh[i]
            idx = np.clip(np.rint((s_other - s_lo) / max(s_grid[1] - s_grid[0], 1e-12))
                          .astype(int), 0, q - 1)
            residual = np.maximum(residual, np.abs(mesh[i] - table[idx]))
        flat = int(np.argmin(residual))
        point = np.array([m.reshape(-1)[flat] for m in mesh])
        if res.max() <= 0.5 * target_res:
            break
        width = 3.0 * res
        lo = np.maximum(0.0, point - width)
        hi = np.minimum([nd.demand_max for nd in nodes], point + width)
        res = (hi - lo) / (points_per_axis - 1)

    total = float(point.sum())
    for i, node in enumerate(nodes):
        fresh = br_grid(node, total - point[i], price, capacity, resolution=target_res / 4)
        if abs(fresh - point[i]) > 5.0 * target_res:
            raise AssertionError(
                f"grid oracle audit failed for node {i}: point {point[i]:.6f} "
                f"vs full-range response {fresh:.6f}"
            )
    return point


def sweep_argmax_price(cloud: CloudParams, nodes: list[EdgeNodeParams],
                       settings: SolverSettings, n_points: int = 1000) -> tuple[float, float]:
    """Leader price by dense sweep of the (equilibrium-substituted) utility."""
    import warnings

    from renderopt.errors import ConvergenceWarning

    prices = np.linspace(cloud.price_min, cloud.price_max, n_points)
    best_p, best_u = prices[0], -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for p in prices:
            u = cloud_utility(cloud, nodes, float(p), settings)
            if u > best_u:
                best_p, best_u = float(p), u
    return best_p, best_u


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _edge_marginal(node: EdgeNodeParams, d: float, d_others_sum: float,
                   price: float, capacity: float) -> float:
    return (node.alpha / (1.0 + d)
            - node.beta * (2.0 * d + d_others_sum) / capacity
            - price)


def edge_best_response_unplanned(node: EdgeNodeParams, d_others_sum: float, price: float,
                                 settings: SolverSettings, capacity: float) -> float:
    """Maximize the node's utility over [0, demand_max] at fixed opponents.

    The objective is strictly concave, so a marginal-utility sign check
    resolves boundary optima exactly and golden-section search handles the
    interior to within br_tolerance.
    """
    if price <= 0:
        raise ValueError(f"price must be > 0, got {price}")
    if _edge_marginal(node, 0.0, d_others_sum, price, capacity) <= 0:
        return 0.0
    if _edge_marginal(node, node.demand_max, d_others_sum, price, capacity) >= 0:
        return node.demand_max

    alpha, beta, cap, log1p = node.alpha, node.beta, capacity, math.log1p
    # the utility alpha*ln(1+d) - beta*d*(d+D)/C - p*d, written out at each probe

    a, b = 0.0, node.demand_max
    h = b - a
    n = max(1, math.ceil(math.log(settings.br_tolerance / h) / math.log(_INVPHI)))
    c = a + _INVPHI2 * h
    dd = a + _INVPHI * h
    yc = alpha * log1p(c) - beta * c * (c + d_others_sum) / cap - price * c
    yd = alpha * log1p(dd) - beta * dd * (dd + d_others_sum) / cap - price * dd
    # the utility overflows to -inf only on a tail of the bracket, past the
    # optimum: shrink from the right until the right probe is finite
    while yd == -math.inf:
        b, dd, yd = dd, c, yc
        h *= _INVPHI
        c = a + _INVPHI2 * h
        yc = alpha * log1p(c) - beta * c * (c + d_others_sum) / cap - price * c
    for _ in range(n):
        if yc > yd:
            b, dd, yd = dd, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = alpha * log1p(c) - beta * c * (c + d_others_sum) / cap - price * c
        else:
            a, c, yc = c, dd, yd
            h *= _INVPHI
            dd = a + _INVPHI * h
            yd = alpha * log1p(dd) - beta * dd * (dd + d_others_sum) / cap - price * dd
    # halved before adding, as c + b overflows near the largest float; the cap bounds
    # a search that NaN utilities (inf - inf) walked past it
    return min(0.5 * a + 0.5 * dd if yc > yd else 0.5 * c + 0.5 * b, node.demand_max)


def _ascend_from_uncached(p0: float, cloud: CloudParams, nodes: list[EdgeNodeParams],
                          settings: SolverSettings) -> tuple[float, float, int, bool]:
    """Sign-guided ascent with step halving from one starting price."""
    lo, hi = cloud.price_min, cloud.price_max
    band = hi - lo
    eps = settings.fd_epsilon_frac * band
    step = settings.price_step_frac * band
    min_step = 1e-8 * band

    def u(p: float) -> float:
        return game.cloud_utility(cloud, nodes, p, settings)

    p = p0
    up = u(p)
    iterations = 0
    converged = False
    while iterations < settings.price_max_iters:
        iterations += 1
        p_hi = min(hi, p + eps)
        p_lo = max(lo, p - eps)
        grad = (u(p_hi) - u(p_lo)) / (p_hi - p_lo)
        moved = False
        if grad != 0.0:
            cand = min(hi, max(lo, p + math.copysign(step, grad)))
            uc = u(cand)
            if uc > up and cand != p:
                p, up = cand, uc
                moved = True
        else:
            # flat gradient: probe both directions before shrinking
            for cand in (min(hi, p + step), max(lo, p - step)):
                uc = u(cand)
                if uc > up and cand != p:
                    p, up = cand, uc
                    moved = True
                    break
        if not moved:
            step *= 0.5
            if step < min_step:
                converged = True
                break
    return p, up, iterations, converged


def solve_stackelberg_uncached(cloud: CloudParams, nodes: list[EdgeNodeParams],
                               settings: SolverSettings) -> EquilibriumResult:
    """Leader solve that runs the follower sweeps at every price it evaluates."""
    lo, hi = cloud.price_min, cloud.price_max
    best: tuple[float, float, int, bool] | None = None
    total_iters = 0
    for p0 in (lo, 0.5 * (lo + hi), hi):
        p, up, iters, conv = _ascend_from_uncached(p0, cloud, nodes, settings)
        total_iters += iters
        if best is None or up > best[1]:
            best = (p, up, iters, conv)
    price, _, _, price_converged = best
    nash = game.nash_equilibrium(nodes, price, settings, cloud.capacity)
    utils = tuple(
        game.edge_utility(node, d, sum(nash.demands) - d, price, cloud.capacity)
        for node, d in zip(nodes, nash.demands)
    )
    return EquilibriumResult(
        price=price,
        demands=nash.demands,
        edge_utilities=utils,
        cloud_utility=(price - cloud.unit_cost) * sum(nash.demands),
        iterations=total_iters,
        converged=price_converged and nash.converged,
    )


@contextmanager
def counted_game_calls():
    """Count `renderopt.game`'s follower work while the block runs.

    Yields a dict whose "nash" entry lists (price, best responses made) per
    `nash_equilibrium` call and whose "br" entry counts every
    `edge_best_response` call.
    """
    nash, br = game.nash_equilibrium, game.edge_best_response
    log: dict = {"nash": [], "br": 0}

    def counted_br(*args, **kwargs):
        log["br"] += 1
        return br(*args, **kwargs)

    def counted_nash(*args, **kwargs):
        before = log["br"]
        result = nash(*args, **kwargs)
        log["nash"].append((args[1], log["br"] - before))
        return result

    game.nash_equilibrium, game.edge_best_response = counted_nash, counted_br
    try:
        yield log
    finally:
        game.nash_equilibrium, game.edge_best_response = nash, br


def best_responses_per_price(nash_log: list[tuple[float, int]]) -> dict[float, int]:
    """Best responses spent at each distinct price of a `counted_game_calls`
    log, checking that every solve at one price made the same number."""
    per_price: dict[float, int] = {}
    for price, n in nash_log:
        if per_price.setdefault(price, n) != n:
            raise AssertionError(f"price {price}: {n} best responses, earlier "
                                 f"{per_price[price]}")
    return per_price


def random_instance(rng: np.random.Generator):
    """One randomized small game: 1-3 nodes, mixed congestion strengths."""
    k = int(rng.integers(1, 4))
    nodes = [
        EdgeNodeParams(
            id=f"n{i}",
            alpha=float(rng.uniform(0.8, 2.5)),
            beta=float(rng.uniform(0.0, 0.8)),
            demand_max=float(rng.uniform(1.0, 2.0)),
        )
        for i in range(k)
    ]
    cost = float(rng.uniform(0.2, 0.45))
    price_min = cost + float(rng.uniform(0.05, 0.2))
    cloud = CloudParams(
        unit_cost=cost,
        price_min=price_min,
        price_max=price_min + float(rng.uniform(0.8, 1.6)),
        capacity=float(rng.uniform(4.0, 12.0)),
    )
    return cloud, nodes


def _region_centers(world: GridWorld) -> list[Coord]:
    """Centers of the square tiling, row-major by tile; partial border tiles
    use their median point."""
    k = world.region_side
    centers = []
    for ty in range(0, world.height, k):
        ny = min(k, world.height - ty)
        for tx in range(0, world.width, k):
            nx = min(k, world.width - tx)
            centers.append((tx + (nx - 1) // 2, ty + (ny - 1) // 2))
    return centers


def segment_regions_bruteforce(world: GridWorld) -> dict[Coord, Coord]:
    """The center of each point's region: the nearest center under Manhattan
    distance over every center, the first row-major one on a tie."""
    centers = _region_centers(world)
    cx = np.array([c[0] for c in centers])
    cy = np.array([c[1] for c in centers])
    assignment: dict[Coord, Coord] = {}
    for y in range(world.height):
        for x in range(world.width):
            dist = np.abs(cx - x) + np.abs(cy - y)
            # argmin takes the lowest index on ties
            assignment[(x, y)] = centers[int(np.argmin(dist))]
    return assignment


def walk_eager(world: GridWorld, timing: TimingModel, horizon: int, seed: int,
               encoding: EncodingSpec, panorama_work: float,
               trace: tuple[Coord, ...] | None = None):
    """(entered frames, latencies, missed flags, bytes transmitted) of
    `simulate_walk`: every frame encoded up front from the brute-force
    segmentation, then the same path, caching and deadline rules, each
    recomputed at every step. A `trace` here holds exactly horizon + 1 points."""
    frames = {p: encode_frame(p, encoding, center)
              for p, center in segment_regions_bruteforce(world).items()}
    deadline = hop_deadline(world, timing)
    rng = np.random.default_rng(seed)
    current = trace[0] if trace else (world.width // 2, world.height // 2)
    fetched, bytes_tx = set(), 0.0
    entered, latencies, missed = [], [], []
    for step in range(1, horizon + 1):
        options = neighbors(world, current)
        if trace:
            nxt = trace[step]
        else:
            nxt = options[int(rng.integers(len(options)))] if options else current
        frame = frames[nxt]
        cached = frame.kind == "P" and nxt in fetched
        hop = math.hypot(nxt[0] - current[0], nxt[1] - current[1]) if world.diagonal else 1.0
        latency = step_latency(frame, timing, panorama_work, cached=cached)
        if frame.kind == "P" and not cached:
            bytes_tx += frame.size
            fetched.add(nxt)
        entered.append(frame)
        latencies.append(latency)
        missed.append(latency > deadline * max(hop, 1.0))
        current = nxt
    return entered, latencies, missed, bytes_tx


def walk_steps(result: WalkResult) -> tuple[list, list[float], list[bool]]:
    """(entered frames, latencies, missed flags) of a walk, one per step,
    read from its outcome table through the per-step outcome ids."""
    per_step = [result.outcomes[i] for i in result.step_outcomes]
    return ([frame for frame, _, _ in per_step], [latency for _, latency, _ in per_step],
            [missed for _, _, missed in per_step])


def write_walk_csv_rowwise(result: WalkResult, path: str | Path) -> None:
    """The step CSV, one `csv.writer.writerow` per step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "x", "y", "kind", "size", "latency_ms", "missed"])
        for step, (frame, latency, missed) in enumerate(zip(*walk_steps(result)), start=1):
            x, y = frame.grid_point
            writer.writerow([step, x, y, frame.kind, repr(float(frame.size)),
                             repr(float(latency)), int(missed)])


def save_trace(path: str | Path, points: list[Coord]) -> None:
    """A trace file `load_trace` reads back as `points`: one `index x y` line each."""
    Path(path).write_text("".join(f"{i} {x} {y}\n" for i, (x, y) in enumerate(points)))


# one trace line: blank, a comment, or three ASCII integers
_TRACE_LINE = re.compile(r"\s*(?:#.*|([+-]?[0-9]+)\s+([+-]?[0-9]+)\s+([+-]?[0-9]+))?\s*",
                         re.ASCII)
# the longest trace line, newline included; three fields at int()'s
# 4300-digit limit fit in it, and a longer line is malformed
_TRACE_LINE_CHARS = 16_384


def _bad_trace_line(path: str | Path, lineno: int, line: str) -> ValueError:
    longer = f" in a line longer than {_TRACE_LINE_CHARS} characters" \
        if len(line) > _TRACE_LINE_CHARS else ""
    return ValueError(f"{shown(str(path))}:{lineno}: expected 'step_index x y' integers, "
                      f"got {shown(line.strip())}{longer}")


def load_trace_linewise(path: str | Path) -> Iterator[Coord]:
    """Each point of a mobility trace, read as it is asked for: one
    `step_index x y` line per point, with step indices strictly increasing in
    file order. Fields are ASCII integers; blank lines and lines starting with
    `#` are skipped. A line is read at most _TRACE_LINE_CHARS + 1 characters
    at a time, and a longer one is malformed."""
    last: int | None = None
    with open(path, encoding="utf-8") as fh:
        lines = iter(partial(fh.readline, _TRACE_LINE_CHARS + 1), "")
        for lineno, line in enumerate(lines, start=1):
            match = _TRACE_LINE.fullmatch(line) if len(line) <= _TRACE_LINE_CHARS else None
            if match is None:
                raise _bad_trace_line(path, lineno, line)
            index, x, y = match.groups()
            if index is None:           # blank or a comment
                continue
            try:
                index, x, y = int(index), int(x), int(y)
            except ValueError:          # longer than int's digit limit
                raise _bad_trace_line(path, lineno, line) from None
            if last is not None and index <= last:
                raise ValueError(f"{shown(str(path))}:{lineno}: step index {shown(index)} "
                                 f"does not follow {shown(last)}; indices must strictly increase")
            last = index
            yield x, y


def mdp_focus_value_iteration(scene: bench.Scene, policy: bench.RenderPolicy,
                              cost: bench.CostModel) -> np.ndarray:
    """High-detail set of the region-hop MDP by value iteration: one state per
    region, uniform action-independent transitions, greedy action per state."""
    n = len(scene.region_work)
    transitions = np.full((n, 2, n), 1.0 / n)
    rewards = np.empty((n, 2))
    rewards[:, 0] = (scene.popularity * cost.quality_low
                     - policy.mdp_cost_weight * scene.region_work * cost.lod_low)
    rewards[:, 1] = (scene.popularity * cost.quality_high
                     - policy.mdp_cost_weight * scene.region_work * cost.lod_high)
    _, actions, _ = bench.value_iteration(transitions, rewards, policy.mdp_discount)
    return actions.astype(bool)


def random_opt_objective(high: np.ndarray, scene: bench.Scene, cost: bench.CostModel,
                         cost_weight: float) -> float:
    """Popularity-weighted quality minus weighted render cost of one LOD
    configuration (`high` marks the high-detail regions)."""
    quality = np.where(high, cost.quality_high, cost.quality_low)
    mult = np.where(high, cost.lod_high, cost.lod_low)
    return float(np.sum(scene.popularity * quality - cost_weight * scene.region_work * mult))


def stepwise_perturb(features: np.ndarray, t: int, schedule: NoiseSchedule,
                     rng: np.random.Generator) -> np.ndarray:
    """Apply x <- sqrt(1 - beta_s) x + sqrt(beta_s) eps_s for s = 1..t."""
    x = np.asarray(features, dtype=np.float64).copy()
    schedule.check_step("t", t)
    for s in range(t):
        beta = schedule.betas[s]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(x.shape)
    return x


def gelu_exact(x: np.ndarray) -> np.ndarray:
    """x Phi(x), Phi the standard normal CDF."""
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])


def gelu_exact_grad(x: np.ndarray) -> np.ndarray:
    """Phi(x) + x phi(x), phi the standard normal density."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                     + v * math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) for v in x])


def param_layout(config: DenoiserConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """(shape, init) of every denoiser tensor in creation order; init is
    "normal" (standard normal over sqrt(fan-in)), "zeros" or "ones"."""
    d, f, c = config.d_model, config.feature_dim, config.cond_dim
    mf = config.d_model * config.mlp_ratio
    a = config.gate_dim

    def w(*shape):
        return shape, "normal"

    def zeros(n):
        return (n,), "zeros"

    def ones(n):
        return (n,), "ones"

    layout = {
        "in.w": w(f, d), "in.b": zeros(d),
        "time.w": w(d, d), "time.b": zeros(d),
        "cond.w": w(c, d), "cond.b": zeros(d),
        "gate.wg": w(d, a), "gate.wx": w(d, a), "gate.b": zeros(a),
        "gate.psi": w(a, 1), "gate.bpsi": zeros(1),
        "merge.w": w(2 * d, d), "merge.b": zeros(d),
        "dec.ln.g": ones(d), "dec.ln.b": zeros(d),
        "dec.mlp.w1": w(d, mf), "dec.mlp.b1": zeros(mf),
        "dec.mlp.w2": w(mf, d), "dec.mlp.b2": zeros(d),
        "out.w": w(d, f), "out.b": zeros(f),
    }
    for prefix in ("enc", "bot"):
        layout[f"{prefix}.ln1.g"] = ones(d)
        layout[f"{prefix}.ln1.b"] = zeros(d)
        layout[f"{prefix}.ln2.g"] = ones(d)
        layout[f"{prefix}.ln2.b"] = zeros(d)
        for name in ("wq", "wk", "wv", "wo"):
            layout[f"{prefix}.attn.{name}"] = w(d, d)
        for name in ("bq", "bk", "bv", "bo"):
            layout[f"{prefix}.attn.{name}"] = zeros(d)
        layout[f"{prefix}.mlp.w1"] = w(d, mf)
        layout[f"{prefix}.mlp.b1"] = zeros(mf)
        layout[f"{prefix}.mlp.w2"] = w(mf, d)
        layout[f"{prefix}.mlp.b2"] = zeros(d)
    return layout


def init_params(config: DenoiserConfig, seed: int) -> dict[str, np.ndarray]:
    """Every tensor built apart, drawing in `param_layout` order."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, (shape, init) in param_layout(config).items():
        if init == "normal":
            params[name] = rng.standard_normal(shape) / math.sqrt(shape[0])
        else:
            params[name] = np.ones(shape) if init == "ones" else np.zeros(shape)
    return params


class TensorAdam:
    """Adam over a named tensor dict, one tensor at a time."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        b1c = 1.0 - self.beta1 ** self.step
        b2c = 1.0 - self.beta2 ** self.step
        for k in sorted(params):
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LN_EPS = 1e-5


def timestep_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-math.log(10_000.0) * np.arange(half, dtype=np.float64) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def gelu(x: np.ndarray):
    term = 1.0 + np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * term, term


def gelu_grad(x: np.ndarray, term: np.ndarray) -> np.ndarray:
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return 0.5 * term + 0.5 * x * term * (2.0 - term) * du


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def layernorm_back(params: dict, prefix: str, dy: np.ndarray, cache: dict, grads: dict):
    xhat, inv = cache[prefix]
    grads[f"{prefix}.g"][...] = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    grads[f"{prefix}.b"][...] = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dxhat = dy * params[f"{prefix}.g"]
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def softmax(scores: np.ndarray, scale: float) -> np.ndarray:
    """The attention's row softmax of the scaled scores."""
    scores = scores * scale
    scores -= scores.max(axis=-1, keepdims=True)
    ex = np.exp(scores)
    return ex / ex.sum(axis=-1, keepdims=True)


def reverse_step(model, x: np.ndarray, t: int, t_next: int, s: np.ndarray,
                 schedule: NoiseSchedule) -> np.ndarray:
    eps = model.predict(x, float(t), s)
    ab_t = schedule.signal_level(t)
    x0 = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
    if t_next == 0:
        return x0
    ab_n = schedule.signal_level(t_next)
    return np.sqrt(ab_n) * x0 + np.sqrt(1.0 - ab_n) * eps


CONFIG_DEFAULTS: dict = {
    "seed": 0,
    "out_dir": "runs",
    "game": {
        "nodes": [
            {"id": "edge-0", "alpha": 2.0, "beta": 0.5, "demand_max": 2.0},
            {"id": "edge-1", "alpha": 1.5, "beta": 0.3, "demand_max": 2.0},
        ],
        "cloud": {"unit_cost": 0.3, "price_min": 0.35, "price_max": 1.8, "capacity": 8.0},
        "solver": {
            "br_tolerance": 1e-6,
            "br_max_iters": 10_000,
            "price_step_frac": 0.1,
            "fd_epsilon_frac": 1e-4,
            "price_max_iters": 500,
        },
    },
    "prerender": {
        "width": 20,
        "height": 20,
        "spacing": 0.02,
        "region_side": 5,
        "diagonal": False,
        "steps": 500,
        "panorama_work": 100.0,
        "timing": {
            "t_request": 1.0,
            "render_throughput": 20.0,
            "bandwidth": 8000.0,
            "avatar_speed": 1.0,
        },
        "encoding": {"base_i_size": 100_000.0, "ratio_floor": 0.1, "decay": 4.0},
    },
    "diffusion": {
        "steps": 700,
        "beta_start": 0.0001,
        "beta_end": 0.04,
        "d_model": 64,
        "heads": 4,
        "learning_rate": 0.0001,
        "batch_size": 32,
        "epochs": 20,
        "patience": 5,
        "seq_len": 16,
        "dataset_users": 256,
        "stride": 35,
        "infer_noise_step": 140,
    },
    "bench": {
        "scenes": 20,
        "frames_per_scene": 3600,
        "fps": 60,
        "regions_per_scene": 40,
        "interest_fraction": 0.3,
        "lod_high": 1.0,
        "lod_low": 0.25,
        "throughput": 1.0125,
        "mdp_discount": 0.95,
        "mdp_cost_weight": 0.55,
        "ro_samples": 21,
        "stride": 35,
        "t_noise": 140,
        "focus_quantile": None,
        "train": {
            "learning_rate": 0.003,
            "batch_size": 32,
            "epochs": 20,
            "patience": 5,
            "users": 256,
        },
    },
}
