"""Two-tier market: utility forms, best responses, equilibria, the leader solve."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st

from oracles import (best_responses_per_price, br_grid, counted_game_calls,
                     edge_best_response_unplanned, nash_equilibrium_every_sweep, nash_grid,
                     random_instance, solve_stackelberg_uncached, sweep_argmax_price)
from renderopt import game
from renderopt.errors import ConvergenceWarning
from renderopt.game import (CloudParams, EdgeNodeParams, EquilibriumResult, SolverSettings,
                            cloud_utility, edge_best_response, edge_utility,
                            nash_equilibrium, solve_stackelberg)

SETTINGS = SolverSettings()


def node(alpha=2.0, beta=0.0, demand_max=10.0, nid="n"):
    return EdgeNodeParams(id=nid, alpha=alpha, beta=beta, demand_max=demand_max)


class TestEdgeUtility:
    def test_zero_demand_zero_utility(self):
        assert edge_utility(node(), 0.0, 5.0, 1.0, 10.0) == 0.0

    def test_log_satisfaction_minus_payment(self):
        assert edge_utility(node(), 1.0, 0.0, 1.0, 10.0) == pytest.approx(2 * math.log(2) - 1)

    def test_congestion_term(self):
        got = edge_utility(node(beta=1.0), 1.0, 3.0, 0.5, 10.0)
        assert got == pytest.approx(2 * math.log(2) - 0.4 - 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            edge_utility(node(), 1.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            edge_utility(node(), -0.1, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            edge_utility(node(), 1.0, -1.0, 1.0, 10.0)

    @hyp_settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.1, 5.0), beta=st.floats(0.0, 2.0),
           others=st.floats(0.0, 5.0), price=st.floats(0.1, 3.0),
           cap=st.floats(1.0, 20.0))
    def test_concave_in_demand(self, alpha, beta, others, price, cap):
        n = node(alpha=alpha, beta=beta)
        d = np.linspace(0.0, n.demand_max, 100)
        u = np.array([edge_utility(n, x, others, price, cap) for x in d])
        slopes = np.diff(u) / np.diff(d)
        assert np.all(np.diff(slopes) <= 1e-9)


class TestBestResponse:
    def test_closed_form_when_uncongested(self):
        # first-order condition alpha/(1+d) = p gives d* = alpha/p - 1
        got = edge_best_response(node(), 0.0, 1.0, SETTINGS, 10.0)
        assert got == pytest.approx(1.0, abs=SETTINGS.br_tolerance * 10)

    def test_clamped_to_zero(self):
        assert edge_best_response(node(), 0.0, 3.0, SETTINGS, 10.0) == 0.0

    def test_clamped_to_cap(self):
        got = edge_best_response(node(alpha=50.0, demand_max=1.0), 0.0, 1.0, SETTINGS, 10.0)
        assert got == 1.0

    def test_congested_case_matches_grid_scan(self):
        n = node(alpha=2.0, beta=1.0)
        got = edge_best_response(n, 2.0, 0.5, SETTINGS, 10.0)
        want = br_grid(n, 2.0, 0.5, 10.0, resolution=1e-5)
        assert got == pytest.approx(want, abs=2e-5)

    def test_huge_demand_cap_matches_a_small_one(self):
        # at demand_max 1e308 the utility overflows to -inf at both first probes
        got = edge_best_response(node(alpha=2.0, beta=0.5, demand_max=1e308), 1.0, 0.5,
                                 SETTINGS, 8.0)
        want = edge_best_response(node(alpha=2.0, beta=0.5), 1.0, 0.5, SETTINGS, 8.0)
        assert math.isfinite(got)
        assert got == pytest.approx(want, abs=SETTINGS.br_tolerance)

    @pytest.mark.parametrize("alpha", [2.0, 1e154, 1e308])
    @pytest.mark.parametrize("others", [0.0, 1.0, 1e308])
    def test_huge_cap_best_response_stays_within_the_cap(self, alpha, others):
        # the bracket's midpoint c + b overflowed to inf once b neared 1e308, and
        # at alpha 1e308 the NaN utilities walked the probes past the cap
        cap = node(alpha=alpha, beta=0.5, demand_max=1e308)
        for price in (0.35, 1.8):
            assert 0.0 <= edge_best_response(cap, others, price, SETTINGS, 8.0) <= 1e308


def _outcome(best_response, *args):
    """A best response's value in hex, or the exception it raised."""
    try:
        return best_response(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return repr(exc)


_POSITIVE = st.floats(0.0, 1e308, exclude_min=True)


class TestPlannedSearch:
    """The golden-section search takes its probe offsets from steps made once
    per node and solve, and answers bit for bit as the search that multiplied
    them out at every step did."""

    @hyp_settings(max_examples=300, deadline=None)
    @given(alpha=_POSITIVE, beta=st.one_of(st.just(0.0), st.floats(0.0, 1e308)),
           demand_max=_POSITIVE, others=st.floats(0.0, 1e308), price=_POSITIVE,
           capacity=_POSITIVE, tolerance=st.floats(1e-8, 1.0))
    # the utility overflows to -inf at the first probes: the search shrinks first
    @example(alpha=2.0, beta=0.5, demand_max=1e308, others=1.0, price=0.5,
             capacity=8.0, tolerance=1e-6)
    # 2190 shrinks, more than the search's 1474 steps
    @example(alpha=10.0, beta=1e308, demand_max=1e308, others=0.0, price=1.0,
             capacity=1e-300, tolerance=1.0)
    # every probe's utility is NaN (inf - inf)
    @example(alpha=1e308, beta=0.5, demand_max=1e308, others=0.0, price=1.0,
             capacity=8.0, tolerance=1e-6)
    # a weight whose utility stays finite wherever the congestion term does
    @example(alpha=1e154, beta=0.5, demand_max=1e308, others=0.0, price=1.0,
             capacity=8.0, tolerance=1e-6)
    # the two boundary returns: no demand, and the cap
    @example(alpha=2.0, beta=0.0, demand_max=10.0, others=0.0, price=3.0,
             capacity=10.0, tolerance=1e-6)
    @example(alpha=50.0, beta=0.0, demand_max=1.0, others=0.0, price=1.0,
             capacity=10.0, tolerance=1e-6)
    def test_matches_the_unplanned_search_bit_for_bit(self, alpha, beta, demand_max, others,
                                                      price, capacity, tolerance):
        args = (node(alpha=alpha, beta=beta, demand_max=demand_max), others, price,
                SolverSettings(br_tolerance=tolerance), capacity)
        assert _outcome(edge_best_response, *args) == _outcome(edge_best_response_unplanned,
                                                               *args)

    def test_a_tolerance_past_the_width_takes_one_step(self):
        # 1e281 / 1e-28 overflows to inf: the step count must not go through it
        assert len(game._golden_steps(1e-28, 1e281)) == 1
        assert len(game._golden_steps(2.0, 2.0)) == 1
        nodes = [node(beta=0.5, demand_max=1e-28, nid="0"), node(beta=0.3, nid="1")]
        eq = solve_stackelberg(CloudParams(), nodes, SolverSettings(br_tolerance=1e281))
        assert all(math.isfinite(d) for d in eq.demands)

    def test_a_solve_makes_each_nodes_steps_once(self, monkeypatch):
        # five nodes, each with a width of its own
        made = []
        golden_steps = game._golden_steps
        monkeypatch.setattr(game, "_golden_steps",
                            lambda width, tol: made.append(width) or golden_steps(width, tol))
        nodes = [node(alpha=2.0, beta=0.5, demand_max=1.5 + j / 5, nid=str(j))
                 for j in range(5)]
        with counted_game_calls() as calls:
            eq = solve_stackelberg(CloudParams(), nodes, SETTINGS)
        assert made == [n.demand_max for n in nodes]
        assert calls["br"] > 100 * len(nodes)
        assert eq == solve_stackelberg_uncached(CloudParams(), nodes, SETTINGS)


class TestNashEquilibrium:
    def test_single_node_reduces_to_best_response(self):
        res = nash_equilibrium([node()], 1.0, SETTINGS, 10.0)
        assert res.converged
        assert res.demands[0] == pytest.approx(1.0, abs=1e-5)

    def test_identical_nodes_symmetric(self):
        nodes = [node(alpha=2.0, beta=0.5, nid=f"n{i}") for i in range(3)]
        res = nash_equilibrium(nodes, 0.8, SETTINGS, 10.0)
        assert res.converged
        assert max(res.demands) - min(res.demands) < SETTINGS.br_tolerance

    def test_two_heterogeneous_nodes_match_grid_oracle(self):
        nodes = [node(alpha=2.0, beta=0.8, demand_max=2.0, nid="a"),
                 node(alpha=1.2, beta=0.4, demand_max=2.0, nid="b")]
        res = nash_equilibrium(nodes, 0.6, SETTINGS, 8.0)
        assert res.converged
        oracle = nash_grid(nodes, 0.6, 8.0, target_res=1e-3)
        assert np.max(np.abs(np.array(res.demands) - oracle)) < 2e-3

    def test_fixed_point_under_fresh_responses(self):
        nodes = [node(alpha=1.8, beta=0.6, demand_max=2.5, nid="a"),
                 node(alpha=1.1, beta=0.3, demand_max=2.5, nid="b"),
                 node(alpha=2.4, beta=0.7, demand_max=2.5, nid="c")]
        res = nash_equilibrium(nodes, 0.7, SETTINGS, 9.0)
        assert res.converged
        total = sum(res.demands)
        for i, n in enumerate(nodes):
            fresh = edge_best_response(n, total - res.demands[i], 0.7, SETTINGS, 9.0)
            assert abs(fresh - res.demands[i]) < 10 * SETTINGS.br_tolerance

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nash_equilibrium([], 1.0, SETTINGS, 10.0)

    def test_iteration_cap_reports_not_raises(self):
        tight = SolverSettings(br_max_iters=1)
        with pytest.warns(ConvergenceWarning, match="at price 1 "):
            res = nash_equilibrium([node(nid="a"), node(nid="b")], 1.0, tight, 10.0)
        assert not res.converged

    def test_deterministic(self):
        nodes = [node(alpha=1.7, beta=0.5, nid="a"), node(alpha=2.2, beta=0.9, nid="b")]
        a = nash_equilibrium(nodes, 0.9, SETTINGS, 7.0)
        b = nash_equilibrium(nodes, 0.9, SETTINGS, 7.0)
        assert a.demands == b.demands
        assert a.iterations == b.iterations


class TestCloudUtility:
    def test_zero_margin(self):
        cloud = CloudParams(unit_cost=0.5, price_min=0.5, price_max=2.0, capacity=10.0)
        assert cloud_utility(cloud, [node()], 0.5, SETTINGS) == 0.0

    def test_zero_demand(self):
        cloud = CloudParams(unit_cost=0.5, price_min=0.5, price_max=5.0, capacity=10.0)
        # price above every node's willingness: all demands zero
        assert cloud_utility(cloud, [node(alpha=2.0)], 4.0, SETTINGS) == 0.0

    def test_margin_times_demand(self):
        cloud = CloudParams(unit_cost=0.5, price_min=0.5, price_max=2.0, capacity=10.0)
        got = cloud_utility(cloud, [node()], 1.0, SETTINGS)
        assert got == pytest.approx(0.5, abs=1e-5)

    def test_price_outside_band_rejected(self):
        cloud = CloudParams(unit_cost=0.5, price_min=0.6, price_max=2.0, capacity=10.0)
        with pytest.raises(ValueError):
            cloud_utility(cloud, [node()], 0.55, SETTINGS)

    def test_inner_non_convergence_warns(self):
        cloud = CloudParams(unit_cost=0.5, price_min=0.5, price_max=2.0, capacity=10.0)
        tight = SolverSettings(br_max_iters=1)
        with pytest.warns(ConvergenceWarning):
            cloud_utility(cloud, [node(nid="a"), node(nid="b", beta=1.0)], 0.9, tight)


class TestSolveStackelberg:
    CLOUD = CloudParams(unit_cost=0.3, price_min=0.35, price_max=1.8, capacity=8.0)
    NODES = [node(alpha=2.0, beta=0.5, demand_max=2.0, nid="a"),
             node(alpha=1.5, beta=0.3, demand_max=2.0, nid="b")]

    def test_price_matches_dense_sweep(self):
        eq = solve_stackelberg(self.CLOUD, self.NODES, SETTINGS)
        p_star, _ = sweep_argmax_price(self.CLOUD, self.NODES, SETTINGS)
        assert abs(eq.price - p_star) / p_star < 0.01

    def test_beats_interval_endpoints(self):
        eq = solve_stackelberg(self.CLOUD, self.NODES, SETTINGS)
        for p in (self.CLOUD.price_min, self.CLOUD.price_max):
            assert eq.cloud_utility >= cloud_utility(self.CLOUD, self.NODES, p, SETTINGS)

    def test_demands_consistent_with_follower_game(self):
        eq = solve_stackelberg(self.CLOUD, self.NODES, SETTINGS)
        nash = nash_equilibrium(self.NODES, eq.price, SETTINGS, self.CLOUD.capacity)
        assert np.max(np.abs(np.array(eq.demands) - np.array(nash.demands))) \
            < SETTINGS.br_tolerance

    def test_doubling_alpha_weakly_improves_leader(self):
        _, base = sweep_argmax_price(self.CLOUD, self.NODES, SETTINGS, n_points=400)
        doubled = [node(alpha=2 * n.alpha, beta=n.beta, demand_max=n.demand_max,
                        nid=n.id) for n in self.NODES]
        _, better = sweep_argmax_price(self.CLOUD, doubled, SETTINGS, n_points=400)
        assert better >= base - 1e-9

    def test_deterministic(self):
        a = solve_stackelberg(self.CLOUD, self.NODES, SETTINGS)
        b = solve_stackelberg(self.CLOUD, self.NODES, SETTINGS)
        assert a.price == b.price
        assert a.demands == b.demands
        assert a.cloud_utility == b.cloud_utility

    def test_flat_record_is_scalar_valued(self):
        rec = solve_stackelberg(self.CLOUD, self.NODES, SETTINGS).to_record()
        assert {"price", "cloud_utility", "iterations", "converged",
                "demand_0", "demand_1"} <= set(rec)
        assert all(isinstance(v, (int, float, bool)) for v in rec.values())

    def test_randomized_instance_agreement(self):
        rng = np.random.default_rng(7)
        cloud, nodes = random_instance(rng)
        eq = solve_stackelberg(cloud, nodes, SETTINGS)
        for d, n in zip(eq.demands, nodes):
            assert 0.0 <= d <= n.demand_max
        assert cloud.price_min <= eq.price <= cloud.price_max
        oracle = nash_grid(nodes, eq.price, cloud.capacity)
        assert np.max(np.abs(np.array(eq.demands) - oracle)) < 1e-3


@st.composite
def markets(draw):
    """(cloud, nodes, settings) with 1-8 nodes: the benchmark's `market`
    ranges at default settings, or wider alpha/beta/capacity/price bands with
    sweep caps the follower game often cannot meet (and a short leader cap)."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        alpha, dmax = st.floats(1.4, 2.1), st.floats(1.8, 2.2)
        beta = st.one_of(st.just(0.0), st.floats(0.25, 0.55))
        cloud = CloudParams(unit_cost=0.3, price_min=0.35, price_max=1.8,
                            capacity=draw(st.floats(7.0, 9.0)))
        settings = SolverSettings()
    else:
        alpha, dmax = st.floats(0.2, 5.0), st.floats(0.5, 4.0)
        beta = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
        cost = draw(st.floats(0.05, 1.0))
        price_min = cost + draw(st.floats(0.0, 0.5))
        cloud = CloudParams(unit_cost=cost, price_min=price_min,
                            price_max=price_min + draw(st.floats(0.05, 3.0)),
                            capacity=draw(st.floats(0.5, 20.0)))
        settings = SolverSettings(br_max_iters=draw(st.sampled_from([1, 2, 5, 20])),
                                  price_max_iters=draw(st.sampled_from([4, 500])))
    nodes = [EdgeNodeParams(id=f"n{i}", alpha=draw(alpha), beta=draw(beta),
                            demand_max=draw(dmax)) for i in range(n)]
    return cloud, nodes, settings


def _counted_solve(solve, cloud, nodes, settings):
    """(result, follower-work log, convergence warning texts) of one solve."""
    with counted_game_calls() as log, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        result = solve(cloud, nodes, settings)
    return result, log, [str(w.message) for w in caught]


class TestPerSolveMemo:
    """`solve_stackelberg` solves the follower game once per distinct price
    and otherwise behaves exactly as the uncached solve in `oracles`."""

    @hyp_settings(max_examples=40, deadline=None)
    @given(market=markets())
    def test_equals_uncached_solve_doing_each_price_once(self, market):
        cloud, nodes, settings = market
        want, want_log, want_warnings = _counted_solve(
            solve_stackelberg_uncached, cloud, nodes, settings)
        got, log, got_warnings = _counted_solve(solve_stackelberg, cloud, nodes, settings)
        for f in fields(EquilibriumResult):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        # every evaluation still goes through nash_equilibrium
        assert [p for p, _ in log["nash"]] == [p for p, _ in want_log["nash"]]
        # the sweeps run at the first solve of each price and never again
        per_price = best_responses_per_price(want_log["nash"])
        swept = [p for p, n in log["nash"] if n > 0]
        assert sorted(swept) == sorted(per_price)
        assert log["br"] == sum(per_price.values())
        # each solve that hits the sweep cap warns once: the uncached solve at
        # every such call, the memoized one at the first solve of each price
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            capped = {p for p in per_price
                      if not nash_equilibrium(nodes, p, settings, cloud.capacity).converged}
        assert len(want_warnings) == sum(p in capped for p, _ in want_log["nash"])
        first_capped = [p for p in swept if p in capped]
        assert len(got_warnings) == len(first_capped)
        for p, text in zip(first_capped, got_warnings):
            assert f" at price {p:.6g} ({settings.br_max_iters} sweeps)" in text
        # nothing outlives a solve: a second one does the same work
        again, again_log, _ = _counted_solve(solve_stackelberg, cloud, nodes, settings)
        assert again == got
        assert again_log == log

    def test_direct_calls_take_no_memo(self):
        nodes = [node(alpha=1.7, beta=0.5, nid="a"), node(alpha=2.2, beta=0.9, nid="b")]
        with counted_game_calls() as log:
            nash_equilibrium(nodes, 0.9, SETTINGS, 7.0)
            once = log["br"]
            nash_equilibrium(nodes, 0.9, SETTINGS, 7.0)
        assert once > 0 and log["br"] == 2 * once

    def test_memo_hit_does_not_warn_again(self):
        cloud = CloudParams(unit_cost=0.5, price_min=0.5, price_max=2.0, capacity=10.0)
        nodes = [node(nid="a"), node(nid="b", beta=1.0)]
        tight = SolverSettings(br_max_iters=1)
        memo = {}
        with counted_game_calls() as log, pytest.warns(ConvergenceWarning) as caught:
            first = cloud_utility(cloud, nodes, 0.9, tight, memo)
            assert len(caught) == 1
            assert cloud_utility(cloud, nodes, 0.9, tight, memo) == first
        assert len(caught) == 1
        assert [n > 0 for _, n in log["nash"]] == [True, False]


def _nash_outcome(solve, nodes, price, settings, capacity):
    """A Nash solve's demands by repr, sweeps, convergence flag and warning count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConvergenceWarning)
        res = solve(nodes, price, settings, capacity)
    return ([repr(d) for d in res.demands], res.iterations, res.converged,
            sum(issubclass(w.category, ConvergenceWarning) for w in caught))


# two congestion-free nodes and three congested ones
MIXED = [node(alpha=1.4 + 0.1 * j, beta=0.0 if j % 3 == 0 else 0.25 + 0.05 * j,
              demand_max=1.8 + 0.1 * j, nid=f"e{j}") for j in range(5)]


class TestCongestionFreeReuse:
    """A congestion-free node is searched once per Nash solve and its answer
    reused in every sweep, with the bits of searching it in every sweep."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(market=markets(), where=st.floats(0.0, 1.0))
    @example(market=(CloudParams(), [node(beta=-0.0, demand_max=2.0, nid="a"),
                                      node(alpha=1.5, beta=0.3, demand_max=2.0, nid="b")],
                     SETTINGS), where=0.3)
    @example(market=(CloudParams(), [node(alpha=1.4 + 0.3 * j, demand_max=2.0, nid=str(j))
                                      for j in range(3)], SETTINGS), where=0.2)
    @example(market=(CloudParams(), MIXED, SolverSettings(br_max_iters=1)), where=0.1)
    # node a's 2b + D overflows at node b's demand, though not at D = 0: there its
    # marginal check yields the cap, at b's demand a search ends just below it
    @example(market=(CloudParams(unit_cost=1e-4, price_min=1e-3, price_max=2e-3),
                     [node(alpha=1e305, demand_max=0.85e308, nid="a"),
                      node(alpha=1e305, demand_max=0.9e308, nid="b")], SETTINGS), where=0.0)
    def test_matches_searching_every_node_every_sweep(self, market, where):
        cloud, nodes, settings = market
        price = min(cloud.price_max, cloud.price_min + where * (cloud.price_max - cloud.price_min))
        assert (_nash_outcome(nash_equilibrium, nodes, price, settings, cloud.capacity)
                == _nash_outcome(nash_equilibrium_every_sweep, nodes, price, settings,
                                 cloud.capacity))

    @hyp_settings(max_examples=300, deadline=None)
    @given(alpha=_POSITIVE, beta=st.sampled_from([0.0, -0.0]), demand_max=_POSITIVE,
           others=st.floats(0.0, 1e308), price=_POSITIVE, capacity=_POSITIVE,
           tolerance=st.floats(1e-8, 1.0))
    # near the guard's edge, where the marginal check at the cap decides
    @example(alpha=1e305, beta=0.0, demand_max=0.3e308, others=0.14e308, price=1e-3,
             capacity=8.0, tolerance=1e-6)
    def test_a_congestion_free_search_ignores_the_opponents(self, alpha, beta, demand_max,
                                                          others, price, capacity, tolerance):
        # inside the guard: four times the caps that bound b and D is finite
        assume(math.isfinite(4.0 * (demand_max + others)))
        n = node(alpha=alpha, beta=beta, demand_max=demand_max)
        settings = SolverSettings(br_tolerance=tolerance)
        assert (_outcome(edge_best_response, n, others, price, settings, capacity)
                == _outcome(edge_best_response, n, 0.0, price, settings, capacity))

    def test_counts_one_search_per_free_node_and_price(self):
        free = sum(n.beta == 0 for n in MIXED)
        assert free == 2
        with counted_game_calls() as log:
            res = nash_equilibrium(MIXED, 0.9, SETTINGS, 8.0)
        assert res.converged and res.iterations > 2
        assert log["br"] == free + (len(MIXED) - free) * res.iterations
        with counted_game_calls() as log:
            solve_stackelberg(CloudParams(), MIXED, SETTINGS)
        swept = [(p, n) for p, n in log["nash"] if n > 0]
        assert len({p for p, _ in swept}) == len(swept) > 10
        for p, n in swept:
            sweeps = nash_equilibrium(MIXED, p, SETTINGS, 8.0).iterations
            assert n == free + (len(MIXED) - free) * sweeps, p
        assert log["br"] == sum(n for _, n in swept)

    def test_three_nodes_one_free_match_grid_oracle(self):
        nodes = [node(alpha=2.0, beta=0.0, demand_max=2.0, nid="a"),
                 node(alpha=1.6, beta=0.5, demand_max=2.0, nid="b"),
                 node(alpha=1.2, beta=0.3, demand_max=2.5, nid="c")]
        res = nash_equilibrium(nodes, 0.9, SETTINGS, 8.0)
        assert res.converged
        oracle = nash_grid(nodes, 0.9, 8.0, target_res=1e-3)
        assert np.max(np.abs(np.array(res.demands) - oracle)) < 2e-3


class TestValidation:
    def test_bad_node_params(self):
        with pytest.raises(ValueError):
            EdgeNodeParams(id="x", alpha=0.0, beta=0.0, demand_max=1.0)
        with pytest.raises(ValueError):
            EdgeNodeParams(id="x", alpha=1.0, beta=-0.1, demand_max=1.0)
        with pytest.raises(ValueError):
            EdgeNodeParams(id="x", alpha=1.0, beta=0.0, demand_max=0.0)

    def test_bad_cloud_params(self):
        with pytest.raises(ValueError):
            CloudParams(unit_cost=0.5, price_min=0.4, price_max=2.0, capacity=10.0)
        with pytest.raises(ValueError):
            CloudParams(unit_cost=0.5, price_min=0.6, price_max=0.6, capacity=10.0)
        with pytest.raises(ValueError):
            CloudParams(unit_cost=0.5, price_min=0.6, price_max=2.0, capacity=0.0)

    def test_bad_solver_settings(self):
        with pytest.raises(ValueError):
            SolverSettings(br_tolerance=0.0)
