"""Two-tier rendering-resource market between one cloud and several edge nodes.

Tier 2 is a non-cooperative demand game among edge nodes at a fixed cloud
price; tier 1 is the cloud's pricing problem over the induced equilibrium.
The tiers are solved by backward induction: synchronous best-response sweeps
for the followers, projected gradient ascent with finite-difference gradients
for the leader. Within one leader solve the follower game is solved once per
distinct price: the equilibrium depends on nothing else the solve varies, so
repeated prices are answered from a memo that lives only as long as the solve.

Edge utility of node i demanding d against opponent total D and price p:

    alpha * ln(1 + d) - beta * d * (d + D) / capacity - p * d

which is strictly concave in d. Cloud utility is (p - cost) * total demand.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ConvergenceWarning, check

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# the (left, right) probe offsets of each step of one golden-section search
_Steps = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class EdgeNodeParams:
    """One edge node: satisfaction weight, congestion coefficient, demand cap."""

    id: str
    alpha: float
    beta: float
    demand_max: float

    def __post_init__(self):
        check(self.alpha > 0, "alpha", "a positive number", self.alpha)
        check(self.beta >= 0, "beta", "a non-negative number", self.beta)
        check(self.demand_max > 0, "demand_max", "a positive number", self.demand_max)


# the market of the config's defaults
DEFAULT_NODES = (EdgeNodeParams("edge-0", alpha=2.0, beta=0.5, demand_max=2.0),
                 EdgeNodeParams("edge-1", alpha=1.5, beta=0.3, demand_max=2.0))


@dataclass(frozen=True)
class CloudParams:
    """Cloud side of the market: unit cost, admissible price band, capacity."""

    unit_cost: float = 0.3
    price_min: float = 0.35
    price_max: float = 1.8
    capacity: float = 8.0

    def __post_init__(self):
        check(self.unit_cost > 0, "unit_cost", "a positive number", self.unit_cost)
        check(self.price_min >= self.unit_cost, "price_min",
              f">= unit_cost ({self.unit_cost})", self.price_min)
        check(self.price_max > self.price_min, "price_max",
              f"> price_min ({self.price_min})", self.price_max)
        check(self.capacity > 0, "capacity", "a positive number", self.capacity)


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs for both tiers. All values strictly positive, and
    br_tolerance at least 1e-8: golden-section search on the utility places a
    demand no finer than about sqrt(2**-52) of its scale, so a finer stop is
    never met and every follower solve would run to br_max_iters."""

    br_tolerance: float = 1e-6
    br_max_iters: int = 10_000
    price_step_frac: float = 0.1       # initial ascent step, fraction of the price band
    fd_epsilon_frac: float = 1e-4      # finite-difference perturbation, fraction of the band
    price_max_iters: int = 500

    def __post_init__(self):
        for name in ("br_tolerance", "br_max_iters", "price_step_frac",
                     "fd_epsilon_frac", "price_max_iters"):
            check(getattr(self, name) > 0, name, "positive", getattr(self, name))
        check(self.br_tolerance >= 1e-8, "br_tolerance", "at least 1e-8", self.br_tolerance)


@dataclass(frozen=True)
class NashResult:
    """Fixed point of the follower game at one price."""

    demands: tuple[float, ...]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class EquilibriumResult:
    """Leader price plus the follower equilibrium it induces."""

    price: float
    demands: tuple[float, ...]
    edge_utilities: tuple[float, ...]
    cloud_utility: float
    iterations: int
    converged: bool

    def to_record(self) -> dict:
        """Flat key-value record for serialization."""
        rec: dict = {
            "price": self.price,
            "cloud_utility": self.cloud_utility,
            "iterations": self.iterations,
            "converged": self.converged,
        }
        for i, (d, u) in enumerate(zip(self.demands, self.edge_utilities)):
            rec[f"demand_{i}"] = d
            rec[f"edge_utility_{i}"] = u
        return rec


def edge_utility(node: EdgeNodeParams, d: float, d_others_sum: float,
                 price: float, capacity: float) -> float:
    """Utility of one edge node: log satisfaction minus congestion minus payment."""
    if price <= 0:
        raise ValueError(f"price must be > 0, got {price}")
    if d < 0:
        raise ValueError(f"demand must be >= 0, got {d}")
    if d_others_sum < 0:
        raise ValueError(f"opponent demand sum must be >= 0, got {d_others_sum}")
    return (node.alpha * math.log1p(d)
            - node.beta * d * (d + d_others_sum) / capacity
            - price * d)


def _probe_offsets(h: float) -> Iterator[tuple[float, float]]:
    """(left, right) probe offsets of a golden-section bracket of width h and
    of each bracket that steps leave from it, without end. A bracket's right
    offset is the width of the next."""
    while True:
        left, h = _INVPHI2 * h, _INVPHI * h
        yield left, h


def _golden_steps(width: float, tolerance: float) -> _Steps:
    """The probe offsets of each step of a golden-section search over
    [0, width] to `tolerance`. They depend on nothing else, and every search
    of one node starts from its demand cap, so a solve makes them once a node."""
    n = max(1, math.ceil(math.log(tolerance / width) / math.log(_INVPHI)))
    return tuple(itertools.islice(_probe_offsets(width), 1, n + 1))


def edge_best_response(node: EdgeNodeParams, d_others_sum: float, price: float,
                       settings: SolverSettings, capacity: float,
                       steps: _Steps | None = None) -> float:
    """Maximize the node's utility over [0, demand_max] at fixed opponents.

    The objective is strictly concave, so a marginal-utility sign check
    resolves boundary optima exactly and golden-section search handles the
    interior to within br_tolerance. `steps` is the search's probe offsets,
    `_golden_steps(node.demand_max, settings.br_tolerance)`, made here when
    not given.
    """
    if price <= 0:
        raise ValueError(f"price must be > 0, got {price}")
    alpha, beta, cap, log1p = node.alpha, node.beta, capacity, math.log1p
    # the marginal utility alpha/(1+d) - beta*(2d+D)/C - p, at d = 0 and at the cap
    if alpha - beta * d_others_sum / cap - price <= 0:
        return 0.0
    b = node.demand_max
    if alpha / (1.0 + b) - beta * (2.0 * b + d_others_sum) / cap - price >= 0:
        return b

    # the utility alpha*ln(1+d) - beta*d*(d+D)/C - p*d, written out at each probe
    if steps is None:
        steps = _golden_steps(b, settings.br_tolerance)
    a, c, dd = 0.0, _INVPHI2 * b, _INVPHI * b
    yc = alpha * log1p(c) - beta * c * (c + d_others_sum) / cap - price * c
    yd = alpha * log1p(dd) - beta * dd * (dd + d_others_sum) / cap - price * dd
    if yd == -math.inf:
        # the utility overflows to -inf only on a tail of the bracket, past the
        # optimum: shrink from the right until the right probe is finite. Each
        # shrink takes the next step's offsets, so the search's steps start
        # further along the same sequence, past the last step's if need be
        offsets = itertools.chain(steps, _probe_offsets(steps[-1][1]))
        for c_off, _ in offsets:
            b, dd, yd = dd, c, yc
            c = a + c_off
            yc = alpha * log1p(c) - beta * c * (c + d_others_sum) / cap - price * c
            if yd != -math.inf:
                break
        steps = itertools.islice(offsets, len(steps))
    for c_off, d_off in steps:
        if yc > yd:
            b, dd, yd = dd, c, yc
            c = a + c_off
            yc = alpha * log1p(c) - beta * c * (c + d_others_sum) / cap - price * c
        else:
            a, c, yc = c, dd, yd
            dd = a + d_off
            yd = alpha * log1p(dd) - beta * dd * (dd + d_others_sum) / cap - price * dd
    # halved before adding, as c + b overflows near the largest float; the cap bounds
    # a search that NaN utilities (inf - inf) walked past it
    return min(0.5 * a + 0.5 * dd if yc > yd else 0.5 * c + 0.5 * b, node.demand_max)


def nash_equilibrium(nodes: list[EdgeNodeParams], price: float,
                     settings: SolverSettings, capacity: float,
                     memo: dict[float, NashResult] | None = None,
                     steps: list[_Steps] | None = None) -> NashResult:
    """Synchronous best-response sweeps from all-zero demands.

    Stops when the max per-node change falls below br_tolerance; hitting the
    iteration cap is reported through the converged flag and one
    ConvergenceWarning, not an exception. `memo` maps price to result for one
    fixed (nodes, settings, capacity); a price found there is returned without
    sweeping or warning again, a new one is stored. `steps` holds each node's
    search offsets, `_golden_steps(node.demand_max, settings.br_tolerance)`,
    made here when not given.
    """
    if memo is not None and price in memo:
        return memo[price]
    if not nodes:
        raise ValueError("need at least one edge node")
    if steps is None:
        steps = [_golden_steps(node.demand_max, settings.br_tolerance) for node in nodes]
    demands = [0.0] * len(nodes)
    converged = False
    iterations = 0
    total = 0.0
    for iterations in range(1, settings.br_max_iters + 1):
        new = [edge_best_response(node, total - d, price, settings, capacity, node_steps)
               for node, d, node_steps in zip(nodes, demands, steps)]
        delta = max([abs(a - b) for a, b in zip(new, demands)])
        demands = new
        total = sum(demands)
        if delta < settings.br_tolerance:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"follower game did not converge at price {price:.6g} "
            f"({iterations} sweeps)",
            ConvergenceWarning,
            stacklevel=2,
        )
    result = NashResult(demands=tuple(demands), iterations=iterations, converged=converged)
    if memo is not None:
        memo[price] = result
    return result


def cloud_utility(cloud: CloudParams, nodes: list[EdgeNodeParams], price: float,
                  settings: SolverSettings,
                  memo: dict[float, NashResult] | None = None,
                  steps: list[_Steps] | None = None) -> float:
    """Leader margin times induced total demand, (price - cost) * sum d_i*(price).

    A non-converged follower game warns once, when `nash_equilibrium` solves
    it; a price that `memo` already holds does not warn again. `memo` and
    `steps` are passed on to `nash_equilibrium`.
    """
    if not cloud.price_min <= price <= cloud.price_max:
        raise ValueError(
            f"price {price} outside [{cloud.price_min}, {cloud.price_max}]"
        )
    nash = nash_equilibrium(nodes, price, settings, cloud.capacity, memo, steps)
    return (price - cloud.unit_cost) * sum(nash.demands)


def _ascend_from(p0: float, cloud: CloudParams, nodes: list[EdgeNodeParams],
                 settings: SolverSettings,
                 memo: dict[float, NashResult],
                 steps: list[_Steps]) -> tuple[float, float, int, bool]:
    """Sign-guided ascent with step halving from one starting price."""
    lo, hi = cloud.price_min, cloud.price_max
    band = hi - lo
    eps = settings.fd_epsilon_frac * band
    step = settings.price_step_frac * band
    min_step = 1e-8 * band

    def u(p: float) -> float:
        return cloud_utility(cloud, nodes, p, settings, memo, steps)

    p = p0
    up = u(p)
    iterations = 0
    converged = False
    while iterations < settings.price_max_iters:
        iterations += 1
        p_hi = min(hi, p + eps)
        p_lo = max(lo, p - eps)
        # an eps below the price's float spacing leaves no difference to take:
        # probe both directions as on a flat gradient
        grad = (u(p_hi) - u(p_lo)) / (p_hi - p_lo) if p_hi > p_lo else 0.0
        # step along the gradient's sign; on a flat gradient try up, then down
        for direction in ((grad,) if grad != 0.0 else (1.0, -1.0)):
            cand = min(hi, max(lo, p + math.copysign(step, direction)))
            uc = u(cand)
            if uc > up and cand != p:
                p, up = cand, uc
                break
        else:                           # no direction improved: shrink the step
            step *= 0.5
            if step < min_step:
                converged = True
                break
    return p, up, iterations, converged


def solve_stackelberg(cloud: CloudParams, nodes: list[EdgeNodeParams],
                      settings: SolverSettings) -> EquilibriumResult:
    """Backward induction: pick the price maximizing the leader's utility.

    The leader gradient has no closed form here (the equilibrium demands are
    themselves iterative), so the ascent uses central finite differences and
    halves its step on non-improvement. Three deterministic starts (band ends
    and midpoint) guard against flat regions where all demands are zero.

    The follower game is solved once per distinct price: a step that does
    not move re-probes p +- eps at the same p, and the final equilibrium is
    at a price already probed. Results are memoized by exact price for this
    call only, so the outcome is the same as re-solving. Each node's search
    offsets are made once for the whole solve.
    """
    lo, hi = cloud.price_min, cloud.price_max
    memo: dict[float, NashResult] = {}
    steps = [_golden_steps(node.demand_max, settings.br_tolerance) for node in nodes]
    best: tuple[float, float, int, bool] | None = None
    total_iters = 0
    for p0 in (lo, 0.5 * (lo + hi), hi):
        p, up, iters, conv = _ascend_from(p0, cloud, nodes, settings, memo, steps)
        total_iters += iters
        if best is None or up > best[1]:
            best = (p, up, iters, conv)
    price, _, _, price_converged = best
    nash = nash_equilibrium(nodes, price, settings, cloud.capacity, memo)
    utils = tuple(
        edge_utility(node, d, sum(nash.demands) - d, price, cloud.capacity)
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
