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

The `mdp` baseline is a region-hop MDP: one state per region, actions low and
high detail, reward popularity x quality - mdp_cost_weight x work x LOD
multiplier, and a uniform next-region distribution that is the same for both
actions. Both actions of a state therefore share one continuation value, so
the optimal policy is greedy per region: high detail exactly where the high
reward beats the low one, low on a tie. `_mdp_focus` computes that directly;
`mdp_discount` is still validated (and hashed into the config digest) but
cannot change the focus set. `value_iteration` stays as the general solver,
and `tests/oracles.py` solves the same MDP with it as the reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffusion.data import INTERACTION_COLUMNS, Standardizer
from .diffusion.denoiser import AttentionGatedDenoiser
from .diffusion.sampling import interaction_probabilities, reconstruct_preferences
from .diffusion.schedule import NoiseSchedule
from .errors import check, json_text
from .synthetic import LATENT_DIM, POPULATION_MEAN, PlantedConfig, make_user

POLICY_VARIANTS = ("proposed", "mdp", "random_opt", "none")
# regions in a whole workload; each scene also holds a planted user (~5 KB)
MAX_REGIONS = 100_000


@dataclass(frozen=True)
class WorkloadConfig:
    scenes: int = 20
    frames_per_scene: int = 3600
    fps: int = 60
    regions_per_scene: int = 40
    interest_fraction: float = 0.3
    work_low: float = 0.6
    work_high: float = 1.4
    seq_len: int = 16

    def __post_init__(self):
        check(self.scenes >= 1, "scenes", "an integer >= 1", self.scenes)
        check(self.fps >= 1, "fps", "an integer >= 1", self.fps)
        check(self.frames_per_scene == self.fps * 60, "frames_per_scene",
              f"fps * 60 = {self.fps * 60} (scenes are one minute long)",
              self.frames_per_scene)
        check(2 <= self.regions_per_scene <= MAX_REGIONS // self.scenes, "regions_per_scene",
              f"an integer in [2, {MAX_REGIONS} // scenes ({self.scenes})]",
              self.regions_per_scene)
        check(0 < self.interest_fraction < 1, "interest_fraction", "in (0, 1)",
              self.interest_fraction)
        check(self.work_low > 0, "work_low", "a positive number", self.work_low)
        check(self.work_high > self.work_low, "work_high", f"> work_low ({self.work_low})",
              self.work_high)


@dataclass
class Scene:
    index: int
    region_work: np.ndarray            # (R,) work units
    region_features: np.ndarray        # (R, LATENT_DIM)
    interest_flags: np.ndarray         # (R,) bool
    popularity: np.ndarray             # (R,) population prior in (0, 1)
    user_sequence_raw: np.ndarray      # (L, F)
    user_condition: np.ndarray         # (4,)
    noise_seed: int                    # per-scene stream for stochastic policies


@dataclass
class SceneWorkload:
    config: WorkloadConfig
    scenes: list[Scene]
    seed: int

    def digest(self) -> str:
        import hashlib
        h = hashlib.sha256()
        for sc in self.scenes:
            for arr in (sc.region_work, sc.region_features, sc.interest_flags,
                        sc.popularity, sc.user_sequence_raw, sc.user_condition):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class RenderPolicy:
    variant: str
    mdp_discount: float = 0.95
    mdp_cost_weight: float = 0.55
    ro_samples: int = 21
    stride: int = 35
    t_noise: int = 140
    focus_quantile: float | None = None   # defaults to the workload interest fraction

    def __post_init__(self):
        check(self.variant in POLICY_VARIANTS, "variant",
              f"one of {', '.join(POLICY_VARIANTS)}", self.variant)
        check(0 < self.mdp_discount < 1, "mdp_discount", "in (0, 1)", self.mdp_discount)
        check(self.mdp_cost_weight > 0, "mdp_cost_weight", "a positive number",
              self.mdp_cost_weight)
        check(self.ro_samples >= 1, "ro_samples", "an integer >= 1", self.ro_samples)
        check(self.t_noise >= 1, "t_noise", "an integer >= 1", self.t_noise)
        check(self.stride >= 1 and self.t_noise % self.stride == 0, "stride",
              f"a positive divisor of t_noise ({self.t_noise})", self.stride)
        check(self.focus_quantile is None or 0 < self.focus_quantile < 1, "focus_quantile",
              "null or in (0, 1)", self.focus_quantile)


@dataclass(frozen=True)
class CostModel:
    lod_high: float = 1.0
    lod_low: float = 0.25
    quality_high: float = 1.0
    quality_low: float = 0.25
    throughput: float = 1.0125         # work units per second

    def __post_init__(self):
        check(self.lod_low > 0, "lod_low", "a positive number", self.lod_low)
        check(self.lod_high > self.lod_low, "lod_high", f"> lod_low ({self.lod_low})",
              self.lod_high)
        check(self.throughput > 0, "throughput", "a positive number", self.throughput)


@dataclass
class MetricsReport:
    policy: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    mean_render_time_s: float
    scene_rows: list[dict] = field(default_factory=list)
    inference_denoiser_calls: int = 0


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
        work = rng.uniform(config.work_low, config.work_high, config.regions_per_scene)
        pop_score = user.item_features @ pop_dir
        popularity = 1.0 / (1.0 + np.exp(-1.2 * pop_score))
        popularity = np.clip(popularity + 0.1 * rng.standard_normal(len(popularity)),
                             0.01, 0.99)
        scenes.append(Scene(
            index=i,
            region_work=work,
            region_features=user.item_features,
            interest_flags=user.interest_flags,
            popularity=popularity,
            user_sequence_raw=user.sequence_raw,
            user_condition=user.condition,
            noise_seed=int(rng.integers(0, 2**31 - 1)),
        ))
    return SceneWorkload(config=config, scenes=scenes, seed=seed)


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


def _objective(high: np.ndarray, scene: Scene, cost: CostModel,
               cost_weight: float) -> float:
    """Popularity-weighted quality minus weighted render cost for one config."""
    quality = np.where(high, cost.quality_high, cost.quality_low)
    mult = np.where(high, cost.lod_high, cost.lod_low)
    return float(np.sum(scene.popularity * quality - cost_weight * scene.region_work * mult))


def _mdp_focus(scene: Scene, policy: RenderPolicy, cost: CostModel) -> np.ndarray:
    """High-detail set of the region-hop MDP: regions whose high-detail reward
    beats the low-detail one (a tie picks low detail).

    The transitions are uniform and action-independent, so value iteration
    would add the same discounted continuation to both actions of a state and
    its greedy policy is this comparison, whatever `mdp_discount` is.
    """
    low = (scene.popularity * cost.quality_low
           - policy.mdp_cost_weight * scene.region_work * cost.lod_low)
    high = (scene.popularity * cost.quality_high
            - policy.mdp_cost_weight * scene.region_work * cost.lod_high)
    return high > low


def random_opt_select(scene: Scene, policy: RenderPolicy, cost: CostModel,
                      rng: np.random.Generator):
    """Sample LOD configurations and keep the best under the internal objective."""
    n = len(scene.region_work)
    configs = rng.random((policy.ro_samples, n)) < 0.5
    scores = np.array([_objective(c, scene, cost, policy.mdp_cost_weight)
                       for c in configs])
    best = int(np.argmax(scores))
    return configs[best], configs, scores


def _proposed_focus(scene: Scene, policy: RenderPolicy, cost: CostModel,
                    model: AttentionGatedDenoiser, schedule: NoiseSchedule,
                    standardizer: Standardizer, q: float,
                    rng: np.random.Generator) -> np.ndarray:
    feats = standardizer.transform(scene.user_sequence_raw)
    noise = rng.standard_normal(feats.shape)
    m_hat_std = reconstruct_preferences(model, schedule, feats, scene.user_condition,
                                        policy.t_noise, policy.stride, noise)
    m_hat = standardizer.inverse(m_hat_std)
    _, probs = interaction_probabilities(m_hat, scene.region_features, INTERACTION_COLUMNS)
    k = max(1, int(round(q * len(probs))))
    focus = np.zeros(len(probs), dtype=bool)
    focus[np.argsort(-probs)[:k]] = True
    return focus


def confusion_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def run_policy(workload: SceneWorkload, policy: RenderPolicy, cost: CostModel | None = None,
               model: AttentionGatedDenoiser | None = None,
               schedule: NoiseSchedule | None = None,
               standardizer: Standardizer | None = None) -> MetricsReport:
    """Score one policy on every scene of the workload."""
    if cost is None:
        cost = CostModel()
    if policy.variant == "proposed" and (model is None or schedule is None
                                         or standardizer is None):
        raise ValueError("proposed policy needs a trained model, schedule, and standardizer")
    q = (policy.focus_quantile if policy.focus_quantile is not None
         else workload.config.interest_fraction)

    tp = fp = fn = tn = 0
    rows = []
    times = []
    calls_before = model.call_count if model is not None else 0
    for scene in workload.scenes:
        rng = np.random.default_rng(scene.noise_seed)
        if policy.variant == "none":
            focus = np.ones(len(scene.region_work), dtype=bool)
        elif policy.variant == "mdp":
            focus = _mdp_focus(scene, policy, cost)
        elif policy.variant == "random_opt":
            focus, _, _ = random_opt_select(scene, policy, cost, rng)
        else:
            focus = _proposed_focus(scene, policy, cost, model, schedule,
                                    standardizer, q, rng)
        flags = scene.interest_flags
        s_tp = int(np.sum(focus & flags))
        s_fp = int(np.sum(focus & ~flags))
        s_fn = int(np.sum(~focus & flags))
        s_tn = int(np.sum(~focus & ~flags))
        tp, fp, fn, tn = tp + s_tp, fp + s_fp, fn + s_fn, tn + s_tn
        mult = np.where(focus, cost.lod_high, cost.lod_low)
        time_s = float(np.sum(scene.region_work * mult) / cost.throughput)
        times.append(time_s)
        rows.append({
            "scene": scene.index, "time_s": time_s, "n_high": int(focus.sum()),
            "tp": s_tp, "fp": s_fp, "fn": s_fn, "tn": s_tn,
        })
    metrics = confusion_metrics(tp, fp, fn, tn)
    calls = (model.call_count - calls_before) if model is not None else 0
    return MetricsReport(
        policy=policy.variant,
        accuracy=metrics["accuracy"],
        precision=metrics["precision"],
        recall=metrics["recall"],
        f1=metrics["f1"],
        mean_render_time_s=float(np.mean(times)),
        scene_rows=rows,
        inference_denoiser_calls=calls if policy.variant == "proposed" else 0,
    )


def _summary(reports: list[MetricsReport]) -> dict:
    table = [
        {
            "policy": r.policy,
            "accuracy": r.accuracy,
            "precision": r.precision,
            "recall": r.recall,
            "f1": r.f1,
            "mean_render_time_s": r.mean_render_time_s,
            "inference_denoiser_calls": r.inference_denoiser_calls,
        }
        for r in reports
    ]
    reductions = {}
    for a in reports:
        for b in reports:
            if a.policy == b.policy:
                continue
            if b.mean_render_time_s > 0:
                pct = 100.0 * (b.mean_render_time_s - a.mean_render_time_s) / b.mean_render_time_s
            else:
                pct = 0.0
            reductions[f"{a.policy}_vs_{b.policy}"] = pct
    return {"table": table, "time_reduction_pct": reductions}


def compare(reports: list[MetricsReport]) -> dict:
    """Per-policy table plus pairwise relative render-time reductions."""
    if len(reports) < 2:
        raise ValueError("need at least two reports to compare")
    return _summary(reports)


def write_report_csv(reports: list[MetricsReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "scene", "time_s", "n_high", "tp", "fp", "fn", "tn"])
        for rep in reports:
            for row in rep.scene_rows:
                writer.writerow([rep.policy, row["scene"], repr(row["time_s"]),
                                 row["n_high"], row["tp"], row["fp"], row["fn"], row["tn"]])


def write_summary_json(reports: list[MetricsReport], path: str | Path) -> None:
    """The `compare` payload; a single report gets its table row and no reductions."""
    Path(path).write_text(json_text(_summary(reports), Path(path).name))


def write_plot_data(reports: list[MetricsReport], out_dir: str | Path) -> list[Path]:
    """Per-policy series files consumable by any plotting tool."""
    out_dir = Path(out_dir)
    written = []
    for rep in reports:
        path = out_dir / f"plot_time_{rep.policy}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scene", "time_s"])
            for row in rep.scene_rows:
                writer.writerow([row["scene"], repr(row["time_s"])])
        written.append(path)
    path = out_dir / "plot_metrics.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "accuracy", "precision", "recall", "f1",
                         "mean_render_time_s"])
        for rep in reports:
            writer.writerow([rep.policy, repr(rep.accuracy), repr(rep.precision),
                             repr(rep.recall), repr(rep.f1),
                             repr(rep.mean_render_time_s)])
    written.append(path)
    return written
