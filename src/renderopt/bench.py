"""Desk-scale evaluation harness: scene workloads, rendering policies, metrics.

Each synthetic scene has a planted user, a set of regions with work costs and
ground-truth interest flags, and a population-level popularity prior. Four
policies assign a level of detail per region:

    proposed    diffusion-predicted interaction probabilities, top-q at high
    mdp         the popularity-prior MDP baseline (no personalization); see
                below for what it reduces to
    random_opt  best of a fixed number of randomly sampled LOD configurations
                under the same popularity objective
    none        everything at high detail

Prediction metrics score each policy's high-detail set against the interest
flags; simulated render time is work x LOD multiplier / throughput.

`preference_probabilities` is the one copy of the diffusion scoring pipeline,
run by `proposed` on all its scenes at once and by `diffusion-infer` one user
at a time. It lives here so that its two stages are this module's globals,
where the benchmark's tracer wraps them.

The `mdp` baseline is a region-hop MDP: one state per region, actions low and
high detail, reward popularity x quality - mdp_cost_weight x work x LOD
multiplier, and a uniform next-region distribution that is the same for both
actions. Both actions of a state therefore share one continuation value, so
the optimal policy is greedy per region: high detail exactly where the high
reward beats the low one, low on a tie. `_mdp_focus` computes that directly;
`mdp_discount` is still validated (and hashed into the config digest) but
cannot change the focus set. `value_iteration` stays as the general solver,
and `tests/oracles.py` solves the same MDP with it as the reference.
`random_opt` scores a configuration as the sum of the same per-region
rewards, each region's high or low one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion.data import INTERACTION_COLUMNS, Standardizer
from .diffusion.denoiser import AttentionGatedDenoiser
from .diffusion.elementary import logistic
from .diffusion.sampling import interaction_probabilities, reconstruct_preferences
from .errors import write_csv, write_json
from .config import POLICY_VARIANTS, CostModel, NoiseSchedule, RenderPolicy, WorkloadConfig
from .synthetic import POPULATION_MEAN, PlantedConfig, PlantedUser, make_user, top_fraction

# each region's work units are drawn uniformly from [low, high)
REGION_WORK = (0.6, 1.4)


@dataclass
class Scene:
    """One scene: its regions are the planted user's items, so region i's
    features and interest flag are `user.item_features[i]` and
    `user.interest_flags[i]`."""

    index: int
    user: PlantedUser
    region_work: np.ndarray            # (R,) work units
    popularity: np.ndarray             # (R,) population prior in (0, 1)
    noise_seed: int                    # per-scene stream for stochastic policies


@dataclass
class SceneWorkload:
    config: WorkloadConfig
    scenes: list[Scene]


@dataclass
class MetricsReport:
    policy: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    mean_render_time_s: float
    scene_rows: list[dict]
    inference_denoiser_calls: int


def generate_workload(config: WorkloadConfig, seed: int) -> SceneWorkload:
    """Planted scenes whose interest flags share factors with the user history."""
    root = np.random.SeedSequence(seed)
    children = root.spawn(config.scenes)
    pop_dir = POPULATION_MEAN / np.linalg.norm(POPULATION_MEAN)
    planted = PlantedConfig(n_users=1, seq_len=config.seq_len,
                            n_items=config.regions_per_scene,
                            interest_fraction=config.interest_fraction)
    scenes = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        user = make_user(planted, rng)
        work = rng.uniform(*REGION_WORK, config.regions_per_scene)
        pop_score = user.item_features @ pop_dir
        popularity = logistic(1.2 * pop_score)
        popularity = np.clip(popularity + 0.1 * rng.standard_normal(len(popularity)),
                             0.01, 0.99)
        scenes.append(Scene(index=i, user=user, region_work=work, popularity=popularity,
                            noise_seed=int(rng.integers(0, 2**31 - 1))))
    return SceneWorkload(config=config, scenes=scenes)


def value_iteration(transitions: np.ndarray, rewards: np.ndarray, discount: float,
                    tol: float = 1e-10, max_iters: int = 100_000):
    """Optimal values and greedy policy for a finite MDP.

    transitions: (S, A, S) row-stochastic; rewards: (S, A).
    """
    n_states = rewards.shape[0]
    values = np.zeros(n_states)
    for _ in range(max_iters):
        q = rewards + discount * np.tensordot(transitions, values, axes=([2], [0]))
        new = q.max(axis=1)
        if np.max(np.abs(new - values)) < tol:
            values = new
            break
        values = new
    q = rewards + discount * np.tensordot(transitions, values, axes=([2], [0]))
    return values, q.argmax(axis=1), q


def region_rewards(scene: Scene, policy: RenderPolicy,
                   cost: CostModel) -> tuple[np.ndarray, np.ndarray]:
    """Per region, the (low, high) detail reward: popularity x quality minus
    mdp_cost_weight x work x LOD multiplier."""
    weighted_work = policy.mdp_cost_weight * scene.region_work
    return (scene.popularity * cost.quality_low - weighted_work * cost.lod_low,
            scene.popularity * cost.quality_high - weighted_work * cost.lod_high)


def _mdp_focus(rewards: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """High-detail set of the region-hop MDP: regions whose high-detail reward
    beats the low-detail one (a tie picks low detail).

    The transitions are uniform and action-independent, so value iteration
    would add the same discounted continuation to both actions of a state and
    its greedy policy is this comparison, whatever `mdp_discount` is.
    """
    low, high = rewards
    return high > low


def random_opt_select(rewards: tuple[np.ndarray, np.ndarray], policy: RenderPolicy,
                      rng: np.random.Generator):
    """Sample LOD configurations and keep the one whose regions' rewards sum highest."""
    low, high = rewards
    configs = rng.random((policy.ro_samples, len(low))) < 0.5
    scores = np.where(configs, high, low).sum(axis=1)
    best = int(np.argmax(scores))
    return configs[best], configs, scores


def preference_probabilities(model: AttentionGatedDenoiser, schedule: NoiseSchedule,
                             standardizer: Standardizer, users: list[PlantedUser],
                             t_noise: int, stride: int,
                             rngs: list[np.random.Generator]) -> list[np.ndarray]:
    """Interaction probability of each item of each user: each history is
    standardized, perturbed to step t_noise by one noise block drawn from its
    user's generator in `rngs`, denoised back in steps of `stride`,
    unstandardized and read out by a logistic.

    The histories are stacked and denoised a chunk at a time, in as few equal
    chunks of at most `DenoiserConfig.training_rows` (one at least), so each
    reverse step is one `predict` per chunk. A row's result is the same in any chunk of two
    or more; a chunk of one takes other BLAS kernels and may differ in the last bits.
    """
    n, probs = len(users), []
    parts = -(-n // max(1, model.config.training_rows(len(users[0].sequence_raw))))
    for i in range(parts):
        rows = slice(i * n // parts, (i + 1) * n // parts)
        feats = standardizer.transform(np.array([user.sequence_raw for user in users[rows]]))
        noise = np.array([rng.standard_normal(feats.shape[1:]) for rng in rngs[rows]])
        conditions = np.array([user.condition for user in users[rows]])
        m_hat = reconstruct_preferences(model, schedule, feats, conditions, t_noise, stride,
                                        noise)
        probs += [interaction_probabilities(m, user.item_features, INTERACTION_COLUMNS)[1]
                  for m, user in zip(standardizer.inverse(m_hat), users[rows])]
    return probs


def confusion_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def run_policy(workload: SceneWorkload, policy: RenderPolicy, cost: CostModel,
               model: AttentionGatedDenoiser | None = None,
               schedule: NoiseSchedule | None = None,
               standardizer: Standardizer | None = None) -> MetricsReport:
    """Score one policy on every scene of the workload."""
    if policy.variant == "proposed" and (model is None or schedule is None
                                         or standardizer is None):
        raise ValueError("proposed policy needs a trained model, schedule, and standardizer")
    scenes = workload.scenes
    calls_before = model.call_count if model is not None else 0
    if policy.variant == "proposed":
        q = (policy.focus_quantile if policy.focus_quantile is not None
             else workload.config.interest_fraction)
        focus_sets = [top_fraction(p, q) for p in preference_probabilities(
            model, schedule, standardizer, [scene.user for scene in scenes], policy.t_noise,
            policy.stride, [np.random.default_rng(scene.noise_seed) for scene in scenes])]
    elif policy.variant == "mdp":
        focus_sets = [_mdp_focus(region_rewards(scene, policy, cost)) for scene in scenes]
    elif policy.variant == "random_opt":
        focus_sets = [random_opt_select(region_rewards(scene, policy, cost), policy,
                                        np.random.default_rng(scene.noise_seed))[0]
                      for scene in scenes]
    else:
        focus_sets = [np.ones(len(scene.region_work), dtype=bool) for scene in scenes]

    rows = []
    for scene, focus in zip(scenes, focus_sets):
        flags = scene.user.interest_flags
        mult = np.where(focus, cost.lod_high, cost.lod_low)
        rows.append({
            "scene": scene.index,
            "time_s": float(np.sum(scene.region_work * mult) / cost.throughput),
            "n_high": int(focus.sum()),
            "tp": int(np.sum(focus & flags)), "fp": int(np.sum(focus & ~flags)),
            "fn": int(np.sum(~focus & flags)), "tn": int(np.sum(~focus & ~flags)),
        })
    totals = {k: sum(row[k] for row in rows) for k in ("tp", "fp", "fn", "tn")}
    return MetricsReport(
        policy=policy.variant,
        **confusion_metrics(**totals),
        mean_render_time_s=float(np.mean([row["time_s"] for row in rows])),
        scene_rows=rows,
        # only the proposed policy calls the denoiser
        inference_denoiser_calls=model.call_count - calls_before if model is not None else 0,
    )


def _table(reports: list[MetricsReport], *dropped: str) -> list[dict]:
    """One row per report: its fields but the per-scene rows and `dropped`."""
    return [{k: v for k, v in vars(r).items() if k != "scene_rows" and k not in dropped}
            for r in reports]


def summary(reports: list[MetricsReport]) -> dict:
    """Per-policy table plus pairwise relative render-time reductions; a single
    report gets its table row and no reductions."""
    reductions = {}
    for a in reports:
        for b in reports:
            if a.policy != b.policy:
                reductions[f"{a.policy}_vs_{b.policy}"] = (
                    100.0 * (b.mean_render_time_s - a.mean_render_time_s) / b.mean_render_time_s)
    return {"table": _table(reports), "time_reduction_pct": reductions}


def write_report_csv(reports: list[MetricsReport], path: str | Path) -> None:
    columns = ("scene", "time_s", "n_high", "tp", "fp", "fn", "tn")
    write_csv(path, ("policy", *columns), ([rep.policy, *(row[c] for c in columns)]
                                           for rep in reports for row in rep.scene_rows))


def write_summary_json(reports: list[MetricsReport], path: str | Path) -> None:
    """The `summary` payload."""
    write_json(path, summary(reports))


def write_plot_data(reports: list[MetricsReport], out_dir: str | Path) -> list[Path]:
    """Per-policy series files consumable by any plotting tool."""
    out_dir = Path(out_dir)
    written = []
    for rep in reports:
        path = out_dir / f"plot_time_{rep.policy}.csv"
        write_csv(path, ("scene", "time_s"),
                  ((row["scene"], row["time_s"]) for row in rep.scene_rows))
        written.append(path)
    path = out_dir / "plot_metrics.csv"
    table = _table(reports, "inference_denoiser_calls")
    write_csv(path, table[0], (row.values() for row in table))
    written.append(path)
    return written
