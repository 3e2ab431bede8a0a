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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, check

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


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


@dataclass(frozen=True)
class CloudParams:
    """Cloud side of the market: unit cost, admissible price band, capacity."""

    unit_cost: float
    price_min: float
    price_max: float
    capacity: float

    def __post_init__(self):
        check(self.unit_cost > 0, "unit_cost", "a positive number", self.unit_cost)
        check(self.price_min >= self.unit_cost, "price_min",
              f">= unit_cost ({self.unit_cost})", self.price_min)
        check(self.price_max > self.price_min, "price_max",
              f"> price_min ({self.price_min})", self.price_max)
        check(self.capacity > 0, "capacity", "a positive number", self.capacity)


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs for both tiers. All values strictly positive."""

    br_tolerance: float = 1e-6
    br_max_iters: int = 10_000
    price_step_frac: float = 0.1       # initial ascent step, fraction of the price band
    fd_epsilon_frac: float = 1e-4      # finite-difference perturbation, fraction of the band
    price_max_iters: int = 500

    def __post_init__(self):
        for name in ("br_tolerance", "br_max_iters", "price_step_frac",
                     "fd_epsilon_frac", "price_max_iters"):
            check(getattr(self, name) > 0, name, "positive", getattr(self, name))


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


def _edge_marginal(node: EdgeNodeParams, d: float, d_others_sum: float,
                   price: float, capacity: float) -> float:
    return (node.alpha / (1.0 + d)
            - node.beta * (2.0 * d + d_others_sum) / capacity
            - price)


def edge_best_response(node: EdgeNodeParams, d_others_sum: float, price: float,
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

    alpha, beta, cap = node.alpha, node.beta, capacity

    def u(d: float) -> float:
        return alpha * math.log1p(d) - beta * d * (d + d_others_sum) / cap - price * d

    a, b = 0.0, node.demand_max
    h = b - a
    n = max(1, math.ceil(math.log(settings.br_tolerance / h) / math.log(_INVPHI)))
    c = a + _INVPHI2 * h
    dd = a + _INVPHI * h
    yc, yd = u(c), u(dd)
    # u overflows to -inf only on a tail of the bracket, past the optimum:
    # shrink from the right until the right probe is finite
    while yd == -math.inf:
        b, dd, yd = dd, c, yc
        h *= _INVPHI
        c = a + _INVPHI2 * h
        yc = u(c)
    for _ in range(n):
        if yc > yd:
            b, dd, yd = dd, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = u(c)
        else:
            a, c, yc = c, dd, yd
            h *= _INVPHI
            dd = a + _INVPHI * h
            yd = u(dd)
    return 0.5 * (a + dd) if yc > yd else 0.5 * (c + b)


def nash_equilibrium(nodes: list[EdgeNodeParams], price: float,
                     settings: SolverSettings, capacity: float,
                     memo: dict[float, NashResult] | None = None) -> NashResult:
    """Synchronous best-response sweeps from all-zero demands.

    Stops when the max per-node change falls below br_tolerance; hitting the
    iteration cap is reported through the converged flag and one
    ConvergenceWarning, not an exception. `memo` maps price to result for one
    fixed (nodes, settings, capacity); a price found there is returned without
    sweeping or warning again, a new one is stored.
    """
    if memo is not None and price in memo:
        return memo[price]
    if not nodes:
        raise ValueError("need at least one edge node")
    demands = [0.0] * len(nodes)
    converged = False
    iterations = 0
    total = 0.0
    for iterations in range(1, settings.br_max_iters + 1):
        new = [
            edge_best_response(node, total - demands[i], price, settings, capacity)
            for i, node in enumerate(nodes)
        ]
        delta = max(abs(a - b) for a, b in zip(new, demands))
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
                  memo: dict[float, NashResult] | None = None) -> float:
    """Leader margin times induced total demand, (price - cost) * sum d_i*(price).

    A non-converged follower game warns once, when `nash_equilibrium` solves
    it; a price that `memo` already holds does not warn again.
    """
    if not cloud.price_min <= price <= cloud.price_max:
        raise ValueError(
            f"price {price} outside [{cloud.price_min}, {cloud.price_max}]"
        )
    nash = nash_equilibrium(nodes, price, settings, cloud.capacity, memo)
    return (price - cloud.unit_cost) * sum(nash.demands)


def _ascend_from(p0: float, cloud: CloudParams, nodes: list[EdgeNodeParams],
                 settings: SolverSettings,
                 memo: dict[float, NashResult]) -> tuple[float, float, int, bool]:
    """Sign-guided ascent with step halving from one starting price."""
    lo, hi = cloud.price_min, cloud.price_max
    band = hi - lo
    eps = settings.fd_epsilon_frac * band
    step = settings.price_step_frac * band
    min_step = 1e-8 * band

    def u(p: float) -> float:
        return cloud_utility(cloud, nodes, p, settings, memo)

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


def solve_stackelberg(cloud: CloudParams, nodes: list[EdgeNodeParams],
                      settings: SolverSettings | None = None) -> EquilibriumResult:
    """Backward induction: pick the price maximizing the leader's utility.

    The leader gradient has no closed form here (the equilibrium demands are
    themselves iterative), so the ascent uses central finite differences and
    halves its step on non-improvement. Three deterministic starts (band ends
    and midpoint) guard against flat regions where all demands are zero.

    The follower game is solved once per distinct price: a step that does
    not move re-probes p +- eps at the same p, and the final equilibrium is
    at a price already probed. Results are memoized by exact price for this
    call only, so the outcome is the same as re-solving.
    """
    if settings is None:
        settings = SolverSettings()
    lo, hi = cloud.price_min, cloud.price_max
    memo: dict[float, NashResult] = {}
    best: tuple[float, float, int, bool] | None = None
    total_iters = 0
    for p0 in (lo, 0.5 * (lo + hi), hi):
        p, up, iters, conv = _ascend_from(p0, cloud, nodes, settings, memo)
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


def price_sweep(cloud: CloudParams, nodes: list[EdgeNodeParams],
                settings: SolverSettings, n_points: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the leader utility on a dense price grid (exploration helper)."""
    prices = np.linspace(cloud.price_min, cloud.price_max, n_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        utils = np.array([cloud_utility(cloud, nodes, float(p), settings) for p in prices])
    return prices, utils
