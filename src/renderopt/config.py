"""Experiment configuration: one JSON tree, module-scoped sections.

An empty file (or missing keys) yields the documented defaults below; unknown
keys are rejected with a nearest-key suggestion. A value must have the JSON
type of its default and every number must be finite; its range is checked by
the dataclass that uses it, which `parse_config` builds once per section, so
each rule (upper bounds on sizes too) lives in one place. Errors name the full
key path. The normalized tree serializes canonically, so its digest is stable
across platforms. The tree check is `errors._merge`, shared with checkpoints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .bench import POLICY_VARIANTS, CostModel, RenderPolicy, WorkloadConfig
from .diffusion import DenoiserConfig, NoiseSchedule, TrainSettings
from .errors import ConfigError, _build, _merge, check
from .game import CloudParams, EdgeNodeParams, SolverSettings
from .prerender import EncodingSpec, GridWorld, TimingModel

DEFAULTS: dict = {
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


# training runs one forward pass over its whole split: at default settings,
# ~1.1 GB RSS for 10 000 users or ~0.6 GB for sequences of 128 steps (attention
# memory grows with its square); the longest walk keeps ~0.4 GB of steps
MAX_USERS = 10_000
MAX_SEQ_LEN = 128
MAX_WALK_STEPS = 1_000_000


def _check_unheld(tree: dict) -> None:
    """Rules for the keys that no dataclass holds."""
    pre, dif = tree["prerender"], tree["diffusion"]
    try:
        check(tree["seed"] >= 0, "seed", "a non-negative integer", tree["seed"])
        check(1 <= pre["steps"] <= MAX_WALK_STEPS, "prerender.steps",
              f"an integer in [1, {MAX_WALK_STEPS}]", pre["steps"])
        check(pre["panorama_work"] > 0, "prerender.panorama_work", "a positive number",
              pre["panorama_work"])
        check(2 <= dif["seq_len"] <= MAX_SEQ_LEN and dif["seq_len"] % 2 == 0,
              "diffusion.seq_len", f"an even integer in [2, {MAX_SEQ_LEN}]", dif["seq_len"])
        for path, users in (("diffusion.dataset_users", dif["dataset_users"]),
                            ("bench.train.users", tree["bench"]["train"]["users"])):
            check(2 <= users <= MAX_USERS, path, f"an integer in [2, {MAX_USERS}]", users)
        check(1 <= dif["infer_noise_step"] <= dif["steps"], "diffusion.infer_noise_step",
              f"in [1, diffusion.steps ({dif['steps']})]", dif["infer_noise_step"])
        check(dif["stride"] >= 1 and dif["infer_noise_step"] % dif["stride"] == 0,
              "diffusion.stride",
              f"a positive divisor of diffusion.infer_noise_step ({dif['infer_noise_step']})",
              dif["stride"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, defaults-filled configuration tree and the objects built from it.

    `data` is the tree; keys that no dataclass holds (`prerender.steps`,
    `diffusion.seq_len`, ...) are read from it through `section`.
    """

    data: dict
    nodes: tuple[EdgeNodeParams, ...]
    cloud: CloudParams
    solver: SolverSettings
    world: GridWorld
    timing: TimingModel
    encoding: EncodingSpec
    schedule: NoiseSchedule
    denoiser: DenoiserConfig
    train: TrainSettings               # diffusion-train
    workload: WorkloadConfig
    cost: CostModel
    policy: RenderPolicy               # variant is a placeholder; bench-run sets it
    bench_train: TrainSettings         # bench-run's in-process training

    def section(self, name: str) -> dict:
        return self.data[name]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def out_dir(self) -> str:
        return self.data["out_dir"]

    def serialize(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    if not text.strip():
        user: dict = {}
    else:
        try:
            user = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:   # the latter: nesting too deep
            raise ConfigError(f"config parse error: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    tree = _merge(DEFAULTS, user, "")
    game, pre, dif, bench = (tree[k] for k in ("game", "prerender", "diffusion", "bench"))
    config = ExperimentConfig(
        data=tree,
        nodes=tuple(_build(f"game.nodes[{i}]", EdgeNodeParams, node)
                    for i, node in enumerate(game["nodes"])),
        cloud=_build("game.cloud", CloudParams, game["cloud"]),
        solver=_build("game.solver", SolverSettings, game["solver"]),
        world=_build("prerender", GridWorld, pre),
        timing=_build("prerender.timing", TimingModel, pre["timing"]),
        encoding=_build("prerender.encoding", EncodingSpec, pre["encoding"]),
        schedule=_build("diffusion", NoiseSchedule, dif),
        denoiser=_build("diffusion", DenoiserConfig, dif),
        train=_build("diffusion", TrainSettings, dif),
        workload=_build("bench", WorkloadConfig, bench),
        cost=_build("bench", CostModel, bench),
        policy=_build("bench", RenderPolicy, bench, variant=POLICY_VARIANTS[0]),
        bench_train=_build("bench.train", TrainSettings, bench["train"]),
    )
    _check_unheld(tree)
    return config


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a config file; None loads the pure defaults."""
    if path is None:
        return parse_config("")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())
