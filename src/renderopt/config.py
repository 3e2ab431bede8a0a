"""Experiment configuration: one JSON tree, module-scoped sections.

Each field of `ExperimentConfig` names the section of the tree it is built
from and its class. Those classes' field defaults are the only place a default
is written: `DEFAULTS`, the tree of every key's default, is built from them at
import. An empty file (or missing keys) yields those defaults; unknown keys
are rejected with a nearest-key suggestion. A value must have the JSON type of
its default and every number must be finite; its range is checked by the
dataclass that holds it, which `parse_config` builds once per section, so each
rule (upper bounds on sizes too) lives in one place. Errors name the full key
path. The normalized tree serializes canonically, so its digest is stable
across platforms. The tree check is `errors._merge`, shared with checkpoints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, _build, _merge, check
from .game import DEFAULT_NODES, CloudParams, EdgeNodeParams, SolverSettings
from .prerender import MAX_WALK_STEPS, EncodingSpec, GridWorld, TimingModel
from .settings import (CostModel, DenoiserConfig, NoiseSchedule, PlantedConfig, RenderPolicy,
                       TrainSettings, WorkloadConfig)

# each bound alone keeps a run within 2 GB
MAX_USERS = 10_000
MAX_SEQ_LEN = 128
MAX_CONFIG_BYTES = 1 << 20             # a config file is read up to this size, no further


@dataclass(frozen=True)
class RunSettings:
    """The root keys: the run's seed and output directory."""

    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        check(self.seed >= 0, "seed", "a non-negative integer", self.seed)


@dataclass(frozen=True)
class WalkSettings:
    """prerender-sim's walk: its length and the render work of one panorama."""

    steps: int = 500
    panorama_work: float = 100.0

    def __post_init__(self):
        check(1 <= self.steps <= MAX_WALK_STEPS, "steps", f"an integer in [1, {MAX_WALK_STEPS}]",
              self.steps)
        check(self.panorama_work > 0, "panorama_work", "a positive number", self.panorama_work)


@dataclass(frozen=True)
class DiffusionSettings:
    """The sequence length (bench-run's scenes too), diffusion-train's users,
    and diffusion-infer's noise step and stride, which default to bench-run's.
    The noise step must lie on the schedule: `steps` is `diffusion.steps`,
    whose default is NoiseSchedule's."""

    steps: int
    seq_len: int = PlantedConfig.seq_len
    dataset_users: int = 256
    stride: int = RenderPolicy.stride
    infer_noise_step: int = RenderPolicy.t_noise

    def __post_init__(self):
        check(2 <= self.seq_len <= MAX_SEQ_LEN and self.seq_len % 2 == 0, "seq_len",
              f"an even integer in [2, {MAX_SEQ_LEN}]", self.seq_len)
        _check_users("dataset_users", self.dataset_users)
        check(1 <= self.infer_noise_step <= self.steps, "infer_noise_step",
              f"in [1, diffusion.steps ({self.steps})]", self.infer_noise_step)
        check(self.stride >= 1 and self.infer_noise_step % self.stride == 0, "stride",
              f"a positive divisor of diffusion.infer_noise_step ({self.infer_noise_step})",
              self.stride)


@dataclass(frozen=True)
class BenchTrainSettings(TrainSettings):
    """bench-run's in-process training: a faster learning rate, and its users."""

    learning_rate: float = 0.003
    users: int = 256

    def __post_init__(self):
        super().__post_init__()
        _check_users("users", self.users)


def _check_users(name: str, users: int) -> None:
    check(2 <= users <= MAX_USERS, name, f"an integer in [2, {MAX_USERS}]", users)


def _section(path: str, cls: type, not_keys: tuple[str, ...] = (), entries: tuple = ()):
    """A field built as `cls` from the section at key path `path`, or as one `cls`
    per entry of a list section whose default entries are `entries`. Fields of
    `cls` named in `not_keys` are not config keys; they keep their class default."""
    return field(metadata={"path": path, "cls": cls, "not_keys": not_keys, "entries": entries})


_NOT_TRAIN_KEYS = ("val_fraction", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, defaults-filled configuration tree and the objects built from
    it. Every field after `data` is one row of the table of sections; no two
    classes of one section have a default for the same key."""

    data: dict
    run: RunSettings = _section("", RunSettings)
    nodes: tuple[EdgeNodeParams, ...] = _section("game.nodes", EdgeNodeParams,
                                                 entries=DEFAULT_NODES)
    cloud: CloudParams = _section("game.cloud", CloudParams)
    solver: SolverSettings = _section("game.solver", SolverSettings)
    world: GridWorld = _section("prerender", GridWorld)
    walk: WalkSettings = _section("prerender", WalkSettings)
    timing: TimingModel = _section("prerender.timing", TimingModel)
    encoding: EncodingSpec = _section("prerender.encoding", EncodingSpec)
    schedule: NoiseSchedule = _section("diffusion", NoiseSchedule)
    denoiser: DenoiserConfig = _section("diffusion", DenoiserConfig,
                                        ("feature_dim", "cond_dim", "mlp_ratio"))
    train: TrainSettings = _section("diffusion", TrainSettings, _NOT_TRAIN_KEYS)
    diffusion: DiffusionSettings = _section("diffusion", DiffusionSettings)
    # seq_len is diffusion.seq_len: bench-run scores scenes as long as its training sequences
    workload: WorkloadConfig = _section("bench", WorkloadConfig,
                                        ("work_low", "work_high", "seq_len"))
    cost: CostModel = _section("bench", CostModel, ("quality_high", "quality_low"))
    # variant is a placeholder; bench-run sets it
    policy: RenderPolicy = _section("bench", RenderPolicy, ("variant",))
    bench_train: BenchTrainSettings = _section("bench.train", BenchTrainSettings, _NOT_TRAIN_KEYS)

    def digest(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


# field name -> how it is built, in field order
SECTIONS = {f.name: f.metadata for f in fields(ExperimentConfig) if f.metadata}


def _node(tree: dict, path: str):
    """The value at the dotted key path `path` of `tree`, made an empty object if missing."""
    for key in filter(None, path.split(".")):
        tree = tree.setdefault(key, {})
    return tree


def _defaults() -> dict:
    tree: dict = {}
    for sec in SECTIONS.values():
        if sec["entries"]:
            parent, _, key = sec["path"].rpartition(".")
            _node(tree, parent)[key] = [asdict(entry) for entry in sec["entries"]]
            continue
        section = _node(tree, sec["path"])
        for f in fields(sec["cls"]):
            if f.name not in sec["not_keys"] and f.default is not MISSING:
                section[f.name] = f.default
    return tree


DEFAULTS: dict = _defaults()


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
    built = {}
    for name, sec in SECTIONS.items():
        path, cls, section = sec["path"], sec["cls"], _node(tree, sec["path"])
        built[name] = (tuple(_build(f"{path}[{i}]", cls, e) for i, e in enumerate(section))
                       if sec["entries"] else _build(path, cls, section))
    built["workload"] = replace(built["workload"], seq_len=built["diffusion"].seq_len)
    return ExperimentConfig(data=tree, **built)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a config file; None loads the pure defaults."""
    if path is None:
        return parse_config("")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"--config: config file {str(p)!r} not found")
    with p.open("rb") as fh:
        raw = fh.read(MAX_CONFIG_BYTES + 1)
    if len(raw) > MAX_CONFIG_BYTES:
        raise ConfigError(f"--config: {str(p)!r} is larger than {MAX_CONFIG_BYTES} bytes")
    return parse_config(raw.decode())
