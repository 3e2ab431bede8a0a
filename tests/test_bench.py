"""Benchmark harness: workloads, policies, metrics, comparisons."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from oracles import mdp_focus_value_iteration

from renderopt.bench import (CostModel, MetricsReport, RenderPolicy, Scene,
                             WorkloadConfig, _mdp_focus, compare, confusion_metrics,
                             generate_workload, random_opt_select, run_policy,
                             value_iteration)
from renderopt.cli import EXIT_OK, main
from renderopt.synthetic import LATENT_DIM

WCONFIG = WorkloadConfig()
COST = CostModel()


@pytest.fixture(scope="module")
def workload():
    return generate_workload(WCONFIG, seed=0)


class TestWorkload:
    def test_seed_reuse_gives_identical_digest(self):
        assert generate_workload(WCONFIG, seed=4).digest() \
            == generate_workload(WCONFIG, seed=4).digest()

    def test_distinct_seeds_give_distinct_digests(self):
        digests = {generate_workload(WCONFIG, seed=s).digest() for s in range(10)}
        assert len(digests) == 10

    def test_interest_fraction_per_scene(self, workload):
        for scene in workload.scenes:
            assert scene.interest_flags.sum() == round(0.3 * 40)

    def test_scene_count_and_shapes(self, workload):
        assert len(workload.scenes) == 20
        scene = workload.scenes[0]
        assert scene.region_work.shape == (40,)
        assert scene.user_sequence_raw.shape == (16, 6)
        assert np.all((scene.popularity > 0) & (scene.popularity < 1))

    def test_one_minute_invariant_enforced(self):
        with pytest.raises(ValueError):
            WorkloadConfig(frames_per_scene=3000)


class TestMetricIdentities:
    @hyp_settings(max_examples=100, deadline=None)
    @given(tp=st.integers(0, 500), fp=st.integers(0, 500),
           fn=st.integers(0, 500), tn=st.integers(0, 500))
    def test_confusion_algebra(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        m = confusion_metrics(tp, fp, fn, tn)
        assert m["accuracy"] == pytest.approx((tp + tn) / (tp + fp + fn + tn))
        if tp + fp:
            assert m["precision"] == pytest.approx(tp / (tp + fp))
        if tp + fn:
            assert m["recall"] == pytest.approx(tp / (tp + fn))
        if m["precision"] + m["recall"] > 0:
            want = 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
            assert m["f1"] == pytest.approx(want)
        assert 0.0 <= m["f1"] <= 1.0

    def test_perfect_predictor_scores_one(self):
        m = confusion_metrics(tp=12, fp=0, fn=0, tn=28)
        assert m["accuracy"] == m["recall"] == m["f1"] == 1.0


class TestValueIteration:
    def test_hand_computed_fixed_point(self):
        # uniform action-independent transitions: V(s) = R(s) + g * mean(V),
        # so mean(V) = mean(R)/(1-g) in closed form
        rewards = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.4]])
        transitions = np.full((3, 2, 3), 1.0 / 3.0)
        gamma = 0.95
        values, policy, _ = value_iteration(transitions, rewards, gamma, tol=1e-12)
        best = rewards.max(axis=1)
        mean_v = best.mean() / (1.0 - gamma)
        want = best + gamma * mean_v
        assert np.max(np.abs(values - want)) < 1e-8
        assert list(policy) == [0, 1, 0]

    def test_zero_discount_is_greedy(self):
        rewards = np.array([[0.3, 0.7], [0.9, 0.1]])
        transitions = np.full((2, 2, 2), 0.5)
        values, policy, _ = value_iteration(transitions, rewards, 1e-9)
        assert list(policy) == [1, 0]


def _scene(popularity, work) -> Scene:
    """A scene carrying only what the popularity baselines read."""
    n = len(popularity)
    return Scene(index=0, region_work=np.asarray(work, dtype=float),
                 region_features=np.zeros((n, LATENT_DIM)),
                 interest_flags=np.zeros(n, dtype=bool),
                 popularity=np.asarray(popularity, dtype=float),
                 user_sequence_raw=np.zeros((16, 6)), user_condition=np.zeros(4),
                 noise_seed=0)


@st.composite
def mdp_cases(draw):
    n = draw(st.integers(2, 12))
    popularity = draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))
    work = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    lod_low = draw(st.floats(0.01, 1.0))
    cost = CostModel(lod_high=lod_low + draw(st.floats(0.01, 2.0)), lod_low=lod_low,
                     quality_high=draw(st.floats(0.0, 2.0)),
                     quality_low=draw(st.floats(0.0, 2.0)))
    policy = RenderPolicy(variant="mdp",
                          mdp_cost_weight=draw(st.floats(0.01, 5.0)),
                          mdp_discount=draw(st.floats(0.0, 1.0, exclude_min=True,
                                                      exclude_max=True)))
    return _scene(popularity, work), policy, cost


class TestMdpBaseline:
    """The closed-form `mdp` policy against value iteration on the same MDP."""

    @staticmethod
    def _rewards(scene, policy, cost):
        low = (scene.popularity * cost.quality_low
               - policy.mdp_cost_weight * scene.region_work * cost.lod_low)
        high = (scene.popularity * cost.quality_high
                - policy.mdp_cost_weight * scene.region_work * cost.lod_high)
        return low, high

    @hyp_settings(max_examples=60, deadline=None)
    @given(case=mdp_cases())
    def test_matches_value_iteration(self, case):
        scene, policy, cost = case
        focus = _mdp_focus(scene, policy, cost)
        want = mdp_focus_value_iteration(scene, policy, cost)
        # Value iteration adds one continuation value, of size up to
        # max|reward| / (1 - discount), to both actions of a state; rounding
        # is monotone, so it can only merge a positive reward gap smaller than
        # that sum's rounding into a tie (and then pick low). Everywhere else
        # the two must agree exactly.
        low, high = self._rewards(scene, policy, cost)
        scale = np.max(np.abs(np.concatenate([low, high]))) / (1.0 - policy.mdp_discount)
        rounding = (high > low) & (high - low <= 8 * np.finfo(float).eps * scale)
        assert focus.dtype == bool
        assert np.array_equal(focus[~rounding], want[~rounding])

    def test_tie_picks_low_detail(self):
        # popularity == cost_weight * work makes both rewards exactly 0
        scene = _scene([0.5, 0.9, 0.1], [1.0, 0.5, 1.5])
        policy = RenderPolicy(variant="mdp", mdp_cost_weight=0.5)
        low, high = self._rewards(scene, policy, COST)
        assert high[0] == low[0]
        assert list(_mdp_focus(scene, policy, COST)) == [False, True, False]
        assert list(mdp_focus_value_iteration(scene, policy, COST)) == [False, True, False]

    def test_gap_below_continuation_rounding(self):
        # region 0's high-detail reward beats low by ~4e-17, below the
        # rounding of a continuation value near 10: the closed form keeps the
        # exact comparison, value iteration sees a tie and picks low
        scene = _scene([np.nextafter(0.3, 1.0), 0.99, 0.5], [0.3, 0.01, 1.0])
        policy = RenderPolicy(variant="mdp", mdp_cost_weight=1.0)
        low, high = self._rewards(scene, policy, COST)
        assert 0 < high[0] - low[0] < 1e-16
        assert list(_mdp_focus(scene, policy, COST)) == [True, True, False]
        assert list(mdp_focus_value_iteration(scene, policy, COST)) == [False, True, False]

    def test_discount_cannot_change_focus(self, workload):
        for scene in workload.scenes[:4]:
            sets = {tuple(_mdp_focus(scene, RenderPolicy(variant="mdp", mdp_discount=g), COST))
                    for g in (1e-6, 0.5, 0.95, 1 - 1e-9)}
            assert len(sets) == 1

    def test_same_focus_sets_on_workload_seeds(self):
        policy = RenderPolicy(variant="mdp")
        for seed in range(20):
            for scene in generate_workload(WCONFIG, seed=seed).scenes:
                assert np.array_equal(_mdp_focus(scene, policy, COST),
                                      mdp_focus_value_iteration(scene, policy, COST)), \
                    (seed, scene.index)

    # sha256 of the artifacts `bench-run --seed 3 --plot-data` wrote when the
    # `mdp` policy still ran value iteration
    VALUE_ITERATION_DIGESTS = {
        "default": {
            "bench_summary.json": "ff25e2587884ba42a7f40fa31b77cbf2cc77e93f41cda88094d92bf0a06c9a16",
            "metrics.csv": "2023b1af7e295746dc9c5134bcc0d59c2ce67a3a1fc2ea518abbcefd3e8b7e32",
            "plot_metrics.csv": "2e460a26a223dce6a59e348a32f4df0fb9e923f173f618559bb6b56910b0f97d",
            "plot_time_mdp.csv": "ebec12aca22d191472f700102ef4d85d3da2be58b44059e4162b5958e14f0553",
            "plot_time_none.csv": "67ee37adb5544bf84a03ba5afdbf99b22d4422adc32713a19e831ef47b3326ca",
            "plot_time_proposed.csv":
                "855d94c818fa7386b8107aedc1adf1e524919fe9e93b52fd9400b61881998d28",
            "plot_time_random_opt.csv":
                "df20733fe50e459ecd9c9fdf85e0ee21b6f057df47fcd422232cfbd1f18abb7a",
        },
        "criterion-7": {
            "bench_summary.json": "b4459958dcc47902cf4ca053bc0a240dfc40eeae6092e02341499f7f62f48906",
            "metrics.csv": "5692bb09bc41235ba85727bcff56d7de12485ad85124bc9a6fb87a11a77c9ab0",
            "plot_metrics.csv": "38d09b42e3be487f90b216ced0882c17a7514b8c3ac16514496428173aff4fb4",
            "plot_time_mdp.csv": "2c3c6544927343834665824a72750cbf36078f2c952794cf056acc28ab236406",
            "plot_time_none.csv": "ce8dc6540de0c3222b14e7f1704fd75e7c1c33380744b2585848bc98acb3dfcb",
            "plot_time_proposed.csv":
                "32dd94c251d682f39fbdc0ff775c8e4ff7f7e34f7cce4f292abe0af47563709f",
            "plot_time_random_opt.csv":
                "db7108cd774ab6eaaf7c4638ff9af321c528c13313f7e4702d1c7ea7a3ebc173",
        },
    }
    # the config of acceptance criterion 7
    CRITERION_7_CONFIG = {
        "diffusion": {"dataset_users": 48, "epochs": 3, "learning_rate": 0.003,
                      "d_model": 16, "heads": 2},
        "bench": {"scenes": 4,
                  "train": {"users": 48, "epochs": 3, "learning_rate": 0.003,
                            "batch_size": 32, "patience": 5}},
    }

    @pytest.mark.parametrize("config", ["default", "criterion-7"])
    def test_bench_run_artifacts_unchanged(self, tmp_path, config):
        argv = ["bench-run", "--seed", "3", "--plot-data", "--out-dir", str(tmp_path / "out")]
        if config == "criterion-7":
            path = tmp_path / "config.json"
            path.write_text(json.dumps(self.CRITERION_7_CONFIG))
            argv += ["--config", str(path)]
        assert main(argv) == EXIT_OK
        want = self.VALUE_ITERATION_DIGESTS[config]
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in want}
        assert got == want


class TestPolicies:
    def test_none_policy_definitions(self, workload):
        rep = run_policy(workload, RenderPolicy(variant="none"), COST)
        assert rep.recall == 1.0
        assert rep.precision == pytest.approx(0.3)
        assert rep.accuracy == pytest.approx(0.3)
        assert len(rep.scene_rows) == 20

    def test_none_upper_bounds_every_policy_per_scene(self, workload, smoke_trained):
        result, schedule, standardizer = smoke_trained
        none_rows = run_policy(workload, RenderPolicy(variant="none"), COST).scene_rows
        for variant in ("proposed", "mdp", "random_opt"):
            rep = run_policy(workload, RenderPolicy(variant=variant), COST,
                             model=result.model, schedule=schedule,
                             standardizer=standardizer)
            for row, none_row in zip(rep.scene_rows, none_rows):
                assert row["time_s"] <= none_row["time_s"] + 1e-12

    def test_ro_best_dominates_its_samples(self, workload):
        from renderopt.bench import _objective
        policy = RenderPolicy(variant="random_opt")
        scene = workload.scenes[0]
        rng = np.random.default_rng(scene.noise_seed)
        best, configs, scores = random_opt_select(scene, policy, COST, rng)
        assert len(configs) == 21
        assert _objective(best, scene, COST, policy.mdp_cost_weight) == scores.max()
        assert np.all(scores.max() >= scores)

    def test_proposed_needs_model(self, workload):
        with pytest.raises(ValueError):
            run_policy(workload, RenderPolicy(variant="proposed"), COST)

    def test_proposed_outranks_baselines_on_default_seed(self, workload, smoke_trained):
        result, schedule, standardizer = smoke_trained
        reports = {}
        for variant in ("proposed", "mdp", "random_opt", "none"):
            reports[variant] = run_policy(workload, RenderPolicy(variant=variant),
                                          COST, model=result.model, schedule=schedule,
                                          standardizer=standardizer)
        t = {k: r.mean_render_time_s for k, r in reports.items()}
        assert t["proposed"] < t["mdp"] < t["random_opt"] < t["none"]
        assert reports["proposed"].f1 > reports["mdp"].f1
        assert reports["proposed"].f1 > reports["random_opt"].f1
        assert reports["proposed"].inference_denoiser_calls == 20 * 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RenderPolicy(variant="greedy")
        with pytest.raises(ValueError):
            RenderPolicy(variant="mdp", mdp_discount=1.0)
        with pytest.raises(ValueError):
            RenderPolicy(variant="random_opt", ro_samples=0)

    def test_deterministic_reports(self, workload, smoke_trained):
        result, schedule, standardizer = smoke_trained
        pol = RenderPolicy(variant="proposed")
        a = run_policy(workload, pol, COST, model=result.model, schedule=schedule,
                       standardizer=standardizer)
        b = run_policy(workload, pol, COST, model=result.model, schedule=schedule,
                       standardizer=standardizer)
        assert a.scene_rows == b.scene_rows
        assert a.f1 == b.f1


class TestCompare:
    def _report(self, name, time_s, f1=0.5):
        return MetricsReport(policy=name, accuracy=0.5, precision=0.5, recall=0.5,
                             f1=f1, mean_render_time_s=time_s)

    def test_identical_reports_have_zero_deltas(self):
        out = compare([self._report("a", 10.0), self._report("b", 10.0)])
        assert all(abs(v) < 1e-12 for v in out["time_reduction_pct"].values())

    def test_reference_reduction_value(self):
        out = compare([self._report("fast", 18.14), self._report("slow", 39.54)])
        assert out["time_reduction_pct"]["fast_vs_slow"] == pytest.approx(54.12, abs=0.01)

    def test_table_row_count_matches_policies(self):
        reports = [self._report(n, 5.0 + i) for i, n in enumerate("abcd")]
        assert len(compare(reports)["table"]) == 4

    def test_two_reports_required(self):
        with pytest.raises(ValueError):
            compare([self._report("only", 1.0)])
