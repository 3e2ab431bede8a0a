"""Experiment configuration: one JSON tree, module-scoped sections.

An empty file (or missing keys) yields the documented defaults below; unknown
keys are rejected with a nearest-key suggestion. A value must have the JSON
type of its default and every number must be finite; its range is checked by
the dataclass that uses it, which `parse_config` builds once per section, so
each rule lives in one place. Errors name the full key path. The normalized
tree serializes canonically, so its digest is stable across platforms.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .bench import POLICY_VARIANTS, CostModel, RenderPolicy, WorkloadConfig
from .diffusion import DenoiserConfig, NoiseSchedule, TrainSettings
from .errors import ConfigError, check
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


def _suggest(key: str, known) -> str:
    matches = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:          # an int too large for a float
        return False


def _leaf(default, value, path: str):
    """A leaf takes the JSON type of its default; a null default takes a number too."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str) and value != "", "a non-empty string"
    elif default is None:
        ok, kind = value is None or _finite_number(value), "null or a finite number"
    else:
        ok, kind = _finite_number(value), "a finite number"
    if not ok:
        raise ConfigError(f"{path}: must be {kind}, got {value!r}")
    return value


def _merge(defaults, user, path: str, required: bool = False):
    if isinstance(defaults, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{path or 'config'}: expected an object, got {type(user).__name__}")
        prefix = path + "." if path else ""
        for key in user:
            if key not in defaults:
                raise ConfigError(f"{prefix}{key}: unknown key{_suggest(key, defaults)}")
        out = {}
        for key, dval in defaults.items():
            if key in user:
                out[key] = _merge(dval, user[key], prefix + key)
            elif required:
                raise ConfigError(f"{prefix}{key}: missing")
            else:
                out[key] = _copy(dval)
        return out
    if isinstance(defaults, list):
        # entries follow the first default entry, with every key required
        if not isinstance(user, list) or not user:
            raise ConfigError(f"{path}: expected a non-empty list of objects, got {user!r}")
        return [_merge(defaults[0], entry, f"{path}[{i}]", required=True)
                for i, entry in enumerate(user)]
    return _leaf(defaults, user, path)


def _copy(value):
    return json.loads(json.dumps(value))


def _build(path: str, cls, section: dict, **extra):
    """cls from the section's keys that are its fields; a ValueError names the key path."""
    kwargs = {f.name: section[f.name] for f in fields(cls) if f.init and f.name in section}
    try:
        return cls(**kwargs, **extra)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _check_unheld(tree: dict) -> None:
    """Rules for the keys that no dataclass holds."""
    pre, dif = tree["prerender"], tree["diffusion"]
    try:
        check(tree["seed"] >= 0, "seed", "a non-negative integer", tree["seed"])
        check(pre["steps"] >= 1, "prerender.steps", "an integer >= 1", pre["steps"])
        check(pre["panorama_work"] > 0, "prerender.panorama_work", "a positive number",
              pre["panorama_work"])
        check(dif["seq_len"] >= 2 and dif["seq_len"] % 2 == 0, "diffusion.seq_len",
              "an even integer >= 2", dif["seq_len"])
        check(dif["dataset_users"] >= 2, "diffusion.dataset_users", "an integer >= 2",
              dif["dataset_users"])
        check(tree["bench"]["train"]["users"] >= 2, "bench.train.users", "an integer >= 2",
              tree["bench"]["train"]["users"])
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
