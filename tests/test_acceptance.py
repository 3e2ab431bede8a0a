"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import time

import numpy as np
import pytest

from conftest import CRITERION_7, SMOKE_TRAIN, SMOKE_WIDTH, STRIDE, T_NOISE
from oracles import nash_grid, random_instance, sweep_argmax_price, walk_steps
from renderopt.bench import CostModel, RenderPolicy, WorkloadConfig, generate_workload, run_policy
from renderopt.cli import EXIT_OK, main
from renderopt.config import WalkSettings
from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig,
                                 NoiseSchedule, interaction_probabilities,
                                 reverse_denoise, skip_step_infer, train)
from renderopt.diffusion.denoiser import analytic_gradient_check
from renderopt.diffusion.sampling import reconstruct_preferences
from renderopt.game import SolverSettings, solve_stackelberg
from renderopt.prerender import (EncodingSpec, GridWorld, TimingModel, hop_deadline,
                                 simulate_walk)
from renderopt.synthetic import PlantedConfig, build_training_set, make_population


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_game_oracle_equivalence():
    """Solver price within 1% of the dense sweep, demands within 1e-3 of the
    brute-force grid oracle, on 25 randomized instances with <= 3 nodes."""
    start = time.monotonic()
    settings = SolverSettings()
    rng = np.random.default_rng(20250808)
    worst_price, worst_demand = 0.0, 0.0
    for _ in range(25):
        cloud, nodes = random_instance(rng)
        eq = solve_stackelberg(cloud, nodes, settings)
        p_star, _ = sweep_argmax_price(cloud, nodes, settings, n_points=1000)
        worst_price = max(worst_price, abs(eq.price - p_star) / p_star)
        oracle = nash_grid(nodes, eq.price, cloud.capacity)
        worst_demand = max(worst_demand,
                           float(np.max(np.abs(np.array(eq.demands) - oracle))))
    elapsed = time.monotonic() - start
    ok = worst_price < 0.01 and worst_demand < 1e-3 and elapsed < 60.0
    _verdict(1, ok, f"25 instances: worst price dev {worst_price:.4%} (<1%), "
                    f"worst demand dev {worst_demand:.2e} (<1e-3), {elapsed:.1f}s (<60s)")


def test_criterion_2_deadline_arithmetic():
    """20 ms hop budget at 2 cm spacing and 1 m/s; a timing model whose
    per-step latency stays at or under it never misses in 10^4 steps."""
    world = GridWorld(width=20, height=20, spacing=0.02)
    timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0,
                         avatar_speed=1.0)
    deadline = hop_deadline(world, timing)
    result = simulate_walk(world, timing, 10_000, 1, EncodingSpec(),
                           WalkSettings().panorama_work)
    max_latency = max(walk_steps(result)[1])
    ok = deadline == 20.0 and max_latency <= 20.0 and result.deadline_misses == 0
    _verdict(2, ok, f"hop deadline {deadline} ms (== 20), max step latency "
                    f"{max_latency:.2f} ms, misses {result.deadline_misses}/10000")


def test_criterion_3_compression_saving():
    """Default 500-step walk transmits at most half the full-frame baseline."""
    start = time.monotonic()
    world = GridWorld(width=20, height=20, region_side=5)
    timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0)
    encoding = EncodingSpec(ratio_floor=0.1, decay=4.0)
    result = simulate_walk(world, timing, 500, 0, encoding, WalkSettings().panorama_work)
    elapsed = time.monotonic() - start
    ratio = result.bytes_transmitted / result.bytes_all_i_baseline
    ok = ratio <= 0.5 and elapsed < 5.0
    _verdict(3, ok, f"bytes ratio {ratio:.3f} (<=0.5), {elapsed:.2f}s (<5s)")


def test_criterion_4_diffusion_numerics(smoke_trained):
    """Schedule invariants, negligible terminal signal, gradient correctness,
    and exact stride-1 equivalence."""
    start = time.monotonic()
    schedule = NoiseSchedule()
    prod = 1.0
    cum = []
    for beta in schedule.betas:
        prod *= 1.0 - beta
        cum.append(prod)
    schedule_ok = (np.array_equal(schedule.alpha_bar, np.array(cum))
                   and np.all(np.diff(schedule.alpha_bar) < 0)
                   and schedule.alpha_bar[0] == 1.0 - schedule.betas[0]
                   and cum[-1] < 1e-5)

    tiny = DenoiserConfig(feature_dim=3, cond_dim=4, d_model=8, heads=2)
    model = AttentionGatedDenoiser(tiny, seed=7)
    rng = np.random.default_rng(0)
    m_t = rng.standard_normal((2, 4, 3))
    t = rng.integers(1, 700, size=2).astype(np.float64)
    s = rng.standard_normal((2, 4))
    target = rng.standard_normal(m_t.shape)
    grad_err = max(analytic_gradient_check(model, m_t, t, s, target),
                   analytic_gradient_check(model, m_t, t, np.zeros_like(s), target))

    result, full_schedule, _ = smoke_trained
    m_start = rng.standard_normal((16, 6))
    cond = rng.standard_normal(4)
    dense = reverse_denoise(result.model, m_start, cond, full_schedule)
    strided = skip_step_infer(result.model, m_start, cond, full_schedule, stride=1)
    stride_ok = np.array_equal(dense, strided)

    elapsed = time.monotonic() - start
    ok = schedule_ok and grad_err < 1e-4 and stride_ok and elapsed < 120.0
    _verdict(4, ok, f"schedule invariants {schedule_ok}, terminal signal "
                    f"{cum[-1]:.2e} (<1e-5), grad err {grad_err:.2e} (<1e-4), "
                    f"stride-1 bit-equal {stride_ok}, {elapsed:.1f}s (<120s)")


def test_criterion_5_smoke_training():
    """Fresh 256-sequence training halves the loss within 20 epochs and ranks
    held-out interest items above non-interest items for >= 18 of 20 users."""
    start = time.monotonic()
    cfg = PlantedConfig(n_users=256)
    users = make_population(cfg, seed=101)
    dataset, standardizer = build_training_set(users, cfg)
    schedule = NoiseSchedule()
    result = train(dataset, schedule, SMOKE_TRAIN,
                   model=AttentionGatedDenoiser(SMOKE_WIDTH, seed=0))
    drop_ok = result.history[-1].train_loss <= 0.5 * result.history[0].train_loss

    eval_users = make_population(PlantedConfig(n_users=20), seed=707)
    rng = np.random.default_rng(42)
    wins = 0
    for user in eval_users:
        feats = standardizer.transform(user.sequence_raw)
        noise = rng.standard_normal(feats.shape)
        m_hat = standardizer.inverse(
            reconstruct_preferences(result.model, schedule, feats, user.condition,
                                    T_NOISE, STRIDE, noise))
        idx, probs = interaction_probabilities(m_hat, user.item_features, (0, 1, 2))
        flags = user.interest_flags[idx]
        if probs[flags].mean() > probs[~flags].mean():
            wins += 1
    elapsed = time.monotonic() - start
    ok = drop_ok and wins >= 18 and elapsed < 600.0
    _verdict(5, ok, f"loss {result.history[0].train_loss:.3f} -> "
                    f"{result.history[-1].train_loss:.3f} "
                    f"(drop {1 - result.history[-1].train_loss / result.history[0].train_loss:.0%}, "
                    f"need >=50%), ranked users {wins}/20 (>=18), {elapsed:.1f}s (<600s)")


def test_criterion_6_end_to_end_ordering(smoke_trained):
    """Across 5 workload seeds: proposed < mdp < random_opt < none in mean
    render time, proposed-vs-none reduction >= 30%, and proposed F1 above
    both baselines on average."""
    start = time.monotonic()
    result, schedule, standardizer = smoke_trained
    cost = CostModel()
    wconfig = WorkloadConfig()
    per_seed = []
    f1s = {"proposed": [], "mdp": [], "random_opt": []}
    for seed in range(5):
        workload = generate_workload(wconfig, seed=seed)
        t = {}
        for variant in ("proposed", "mdp", "random_opt", "none"):
            rep = run_policy(workload, RenderPolicy(variant=variant), cost,
                             model=result.model, schedule=schedule,
                             standardizer=standardizer)
            t[variant] = rep.mean_render_time_s
            if variant in f1s:
                f1s[variant].append(rep.f1)
        ordered = t["proposed"] < t["mdp"] < t["random_opt"] < t["none"]
        reduction = 100.0 * (t["none"] - t["proposed"]) / t["none"]
        per_seed.append((ordered, reduction))
    elapsed = time.monotonic() - start
    all_ordered = all(o for o, _ in per_seed)
    min_reduction = min(r for _, r in per_seed)
    f1_ok = (np.mean(f1s["proposed"]) > np.mean(f1s["mdp"])
             and np.mean(f1s["proposed"]) > np.mean(f1s["random_opt"]))
    ok = all_ordered and min_reduction >= 30.0 and f1_ok and elapsed < 900.0
    _verdict(6, ok, f"ordering holds on 5/5 seeds: {all_ordered}, min reduction "
                    f"{min_reduction:.1f}% (>=30%), mean F1 proposed "
                    f"{np.mean(f1s['proposed']):.3f} vs mdp {np.mean(f1s['mdp']):.3f} "
                    f"/ ro {np.mean(f1s['random_opt']):.3f}, {elapsed:.1f}s (<900s)")


def test_criterion_7_determinism(tmp_path):
    """Every subcommand rerun with the same config and seed writes
    byte-identical CSV/JSON artifacts (manifest compared without timestamps)."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CRITERION_7))
    checkpoints = {}

    def run_pair(command, extra=()):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            argv = [command, "--config", str(config_path), "--out-dir", str(out),
                    "--seed", "0", *extra]
            assert main(argv) == EXIT_OK
            dirs.append(out)
        mismatches = []
        names = sorted(p.name for p in dirs[0].iterdir()
                       if p.suffix in (".csv", ".json"))
        for name in names:
            a_bytes = (dirs[0] / name).read_bytes()
            b_bytes = (dirs[1] / name).read_bytes()
            if name == "manifest.json":
                a_doc = json.loads(a_bytes)
                b_doc = json.loads(b_bytes)
                for doc in (a_doc, b_doc):
                    doc.pop("started_at")
                    doc.pop("finished_at")
                if a_doc != b_doc:
                    mismatches.append(name)
            elif a_bytes != b_bytes:
                mismatches.append(name)
        checkpoints[command] = dirs[0]
        return mismatches

    problems = []
    problems += run_pair("game-solve")
    problems += run_pair("prerender-sim")
    problems += run_pair("diffusion-train")
    ckpt = checkpoints["diffusion-train"] / "checkpoint.npz"
    problems += run_pair("diffusion-infer", ("--checkpoint", str(ckpt)))
    problems += run_pair("bench-run", ("--plot-data",))
    ok = not problems
    _verdict(7, ok, "all five subcommands rerun byte-identical"
                    + ("" if ok else f"; mismatches: {problems}"))
