"""Two-tier market: utility forms, best responses, equilibria, the leader solve."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles import (best_responses_per_price, br_grid, counted_game_calls, nash_grid,
                     random_instance, solve_stackelberg_uncached, sweep_argmax_price)
from renderopt.errors import ConvergenceWarning
from renderopt.game import (CloudParams, EdgeNodeParams, EquilibriumResult, SolverSettings,
                            cloud_utility, edge_best_response, edge_utility,
                            nash_equilibrium, price_sweep, solve_stackelberg)

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


def test_price_sweep_shape():
    cloud = CloudParams(unit_cost=0.3, price_min=0.35, price_max=1.8, capacity=8.0)
    prices, utils = price_sweep(cloud, [node()], SETTINGS, n_points=50)
    assert prices.shape == utils.shape == (50,)
    assert prices[0] == cloud.price_min and prices[-1] == cloud.price_max
