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

The section classes of the numpy-backed modules (diffusion, synthetic, bench)
are written here, and those modules re-export them; the game's and the
pre-renderer's stay in theirs. This module loads no numpy, so `game-solve` and
`prerender-sim` never do. `NoiseSchedule` imports numpy when its arrays are
first used.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

from .errors import ConfigError, _build, _merge, check, open_regular, read_json, shown
from .game import DEFAULT_NODES, CloudParams, EdgeNodeParams, SolverSettings
from .prerender import MAX_WALK_STEPS, EncodingSpec, GridWorld, TimingModel

if TYPE_CHECKING:
    import numpy as np

POLICY_VARIANTS = ("proposed", "mdp", "random_opt", "none")
# data sizes, and the denoiser's training budget: 2 GiB less 768 MiB measured (see README)
MAX_USERS = 10_000
MAX_SEQ_LEN = 128
MEMORY_BUDGET = 1280 << 20
# regions in a whole workload; each scene also holds a planted user (~5 KB)
MAX_REGIONS = 100_000
MAX_CONFIG_BYTES = 1 << 20             # a config file is read up to this size, no further


def _check_users(name: str, users: int) -> None:
    check(2 <= users <= MAX_USERS, name, f"an integer in [2, {MAX_USERS}]", users)


def _check_strided_step(name: str, step: int, stride: int) -> None:
    """A noise step denoised in strides: at least 1, and `stride` divides it.
    A command that denoises checks it against its schedule (`NoiseSchedule.check_step`)."""
    check(step >= 1, name, "an integer >= 1", step)
    check(stride >= 1 and step % stride == 0, "stride",
          f"a positive divisor of {name} ({shown(step)})", stride)


@dataclass(frozen=True)
class DenoiserConfig:
    """Shapes of the network. d_model must be even, divisible by heads and small
    enough that six copies of the weights (192.4 MiB at 1024) fit in MEMORY_BUDGET."""

    feature_dim: int = 6
    cond_dim: int = 4
    d_model: int = 64
    heads: int = 4
    mlp_ratio: int = 2

    def __post_init__(self):
        for name in ("feature_dim", "cond_dim", "d_model", "heads", "mlp_ratio"):
            check(getattr(self, name) >= 1, name, "an integer >= 1", getattr(self, name))
        check(6 * 8 * param_count(self) <= MEMORY_BUDGET, "d_model", "small enough that six "
              f"weight copies fit in {MEMORY_BUDGET >> 20} MiB", self.d_model)
        check(self.d_model % 2 == 0, "d_model", "even", self.d_model)
        check(self.d_model % self.heads == 0, "d_model",
              f"divisible by heads ({shown(self.heads)})", self.d_model)

    @property
    def gate_dim(self) -> int:
        return max(1, self.d_model // 2)

    def row_floats(self, seq_len: int) -> int:
        """Floats a sequence of `seq_len` steps holds in a training `Workspace`
        after `loss_and_grads`: each role once, at the widest shape it takes."""
        l, h, d, mf = seq_len, self.heads, self.d_model, self.d_model * self.mlp_ratio
        full = l * (12 * d + self.gate_dim + 5 * mf + max(mf, 2 * d) + max(mf, h * l))
        return full + 2 * h * l * l + l // 2 * (7 * d + 2 * mf) + h * (l // 2) ** 2

    def training_rows(self, seq_len: int) -> int:
        """Sequences whose `row_floats` fit in MEMORY_BUDGET beside six copies of
        the weights: the weights, their gradient, Adam's m, v and scratch, and the best."""
        return (MEMORY_BUDGET // 8 - 6 * param_count(self)) // self.row_floats(seq_len)


def param_shapes(config: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor the network with this config holds, in the order
    the tensors sit in its weight vector."""
    d, f, c = config.d_model, config.feature_dim, config.cond_dim
    mf = config.d_model * config.mlp_ratio
    a = config.gate_dim
    shapes = {
        "in.w": (f, d), "in.b": (d,),
        "time.w": (d, d), "time.b": (d,),
        "cond.w": (c, d), "cond.b": (d,),
        "gate.wg": (d, a), "gate.wx": (d, a), "gate.b": (a,),
        "gate.psi": (a, 1), "gate.bpsi": (1,),
        "merge.w": (2 * d, d), "merge.b": (d,),
        "dec.ln.g": (d,), "dec.ln.b": (d,),
        "dec.mlp.w1": (d, mf), "dec.mlp.b1": (mf,),
        "dec.mlp.w2": (mf, d), "dec.mlp.b2": (d,),
        "out.w": (d, f), "out.b": (f,),
    }
    for prefix in ("enc", "bot"):
        for ln in ("ln1", "ln2"):
            shapes[f"{prefix}.{ln}.g"] = shapes[f"{prefix}.{ln}.b"] = (d,)
        shapes[f"{prefix}.attn.wqkv"], shapes[f"{prefix}.attn.wo"] = (3, d, d), (d, d)
        shapes[f"{prefix}.attn.bqkv"], shapes[f"{prefix}.attn.bo"] = (3, d), (d,)
        shapes[f"{prefix}.mlp.w1"], shapes[f"{prefix}.mlp.b1"] = (d, mf), (mf,)
        shapes[f"{prefix}.mlp.w2"], shapes[f"{prefix}.mlp.b2"] = (mf, d), (d,)
    return shapes


@lru_cache(maxsize=None)
def param_count(config: DenoiserConfig) -> int:
    """Length of the weight vector of the network with this config."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances beta_t and their signal survival products; which steps
    the schedule has (`check_step`) and the forward marginal at one (`perturb`).

    betas rise linearly from beta_start to beta_end over `steps` steps;
    alpha_bar[t-1] = prod_{s<=t} (1 - beta_s) is the remaining signal power
    after t perturbation steps. Both arrays are built on first use, so a
    schedule validated with the rest of a config costs nothing until a
    command perturbs or denoises. At most 100 000 steps keep each under 1 MB.
    """

    steps: int = 700
    beta_start: float = 0.0001
    beta_end: float = 0.04

    def __post_init__(self):
        check(1 <= self.steps <= 100_000, "steps", "an integer in [1, 100000]", self.steps)
        check(0 < self.beta_start < 1, "beta_start", "in (0, 1)", self.beta_start)
        check(self.beta_start < self.beta_end < 1, "beta_end",
              f"in (beta_start ({shown(self.beta_start)}), 1)", self.beta_end)

    @cached_property
    def betas(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.beta_start, self.beta_end, self.steps, dtype=np.float64)

    @cached_property
    def alpha_bar(self) -> np.ndarray:
        import numpy as np
        return np.cumprod(1.0 - self.betas)

    def check_step(self, name: str, t: int) -> None:
        """Refuse a step `t`, given as `name`, that this schedule has no step for."""
        if not 1 <= t <= self.steps:   # formats only on a refusal; a reverse step calls it twice
            check(False, name, f"in [1, {self.steps}] (steps of the schedule in use)", t)

    def signal_level(self, t: int) -> float:
        """alpha_bar at step t (1-indexed); t = 0 means the clean signal."""
        if t == 0:
            return 1.0
        self.check_step("t", t)
        return float(self.alpha_bar[t - 1])

    def perturb(self, features: np.ndarray, t, noise: np.ndarray) -> np.ndarray:
        """Closed-form marginal of t perturbation steps applied at once.

        Returns sqrt(alpha_bar_t) * features + sqrt(1 - alpha_bar_t) * noise. `t`
        is one step for all of `features`, or an array of per-sample steps
        indexing its leading axes (one per sequence of a (B, L, F) batch).
        """
        import numpy as np
        features = np.asarray(features, dtype=np.float64)
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != features.shape:
            raise ValueError(f"noise shape {noise.shape} != features shape {features.shape}")
        t = np.asarray(t)
        self.check_step("t", int(t.min()))
        self.check_step("t", int(t.max()))
        ab = self.alpha_bar[t - 1].reshape(t.shape + (1,) * (features.ndim - t.ndim))
        return np.sqrt(ab) * features + np.sqrt(1.0 - ab) * noise


@dataclass(frozen=True)
class TrainSettings:
    learning_rate: float = 0.0001
    batch_size: int = 32
    epochs: int = 20
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        check(self.learning_rate > 0, "learning_rate", "a positive number", self.learning_rate)
        for name in ("batch_size", "epochs", "patience"):
            check(getattr(self, name) >= 1, name, "an integer >= 1", getattr(self, name))


@dataclass(frozen=True)
class PlantedConfig:
    n_users: int = 256
    seq_len: int = 16
    n_items: int = 30
    interest_fraction: float = 0.3
    # the generator emits 6 feature columns: 3 interaction, 2 latency, 1 fluency
    n_features: ClassVar[int] = 6

    def __post_init__(self):
        check(0 < self.interest_fraction < 1, "interest_fraction", "in (0, 1)",
              self.interest_fraction)


@dataclass(frozen=True)
class WorkloadConfig:
    """bench-run's scenes. `fps` and `frames_per_scene` (fps * 60) are validated
    and hashed into the config digest, but nothing reads them."""
    scenes: int = 20
    frames_per_scene: int = 3600
    fps: int = 60
    regions_per_scene: int = 40
    interest_fraction: float = 0.3
    seq_len: int = PlantedConfig.seq_len

    def __post_init__(self):
        check(self.scenes >= 1, "scenes", "an integer >= 1", self.scenes)
        check(self.fps >= 1, "fps", "an integer >= 1", self.fps)
        check(self.frames_per_scene == self.fps * 60, "frames_per_scene",
              f"fps * 60 = {shown(self.fps * 60)} (scenes are one minute long)",
              self.frames_per_scene)
        check(2 <= self.regions_per_scene <= MAX_REGIONS // self.scenes, "regions_per_scene",
              f"an integer in [2, {MAX_REGIONS} // scenes ({shown(self.scenes)})]",
              self.regions_per_scene)
        check(0 < self.interest_fraction < 1, "interest_fraction", "in (0, 1)",
              self.interest_fraction)


@dataclass(frozen=True)
class RenderPolicy:
    variant: str = POLICY_VARIANTS[0]
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
        _check_strided_step("t_noise", self.t_noise, self.stride)
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
        check(self.lod_high > self.lod_low, "lod_high", f"> lod_low ({shown(self.lod_low)})",
              self.lod_high)
        check(self.throughput > 0, "throughput", "a positive number", self.throughput)


@dataclass(frozen=True)
class RunSettings:
    """The root keys: the run's seed and output directory."""

    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        check(self.seed >= 0, "seed", "a non-negative integer", self.seed)
        check("\0" not in self.out_dir, "out_dir", "a path without a NUL character", self.out_dir)


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
    and diffusion-infer's noise step and stride, which default to bench-run's."""

    seq_len: int = PlantedConfig.seq_len
    dataset_users: int = 256
    stride: int = RenderPolicy.stride
    infer_noise_step: int = RenderPolicy.t_noise

    def __post_init__(self):
        check(2 <= self.seq_len <= MAX_SEQ_LEN and self.seq_len % 2 == 0, "seq_len",
              f"an even integer in [2, {MAX_SEQ_LEN}]", self.seq_len)
        _check_users("dataset_users", self.dataset_users)
        _check_strided_step("infer_noise_step", self.infer_noise_step, self.stride)


@dataclass(frozen=True)
class BenchTrainSettings(TrainSettings):
    """bench-run's in-process training: a faster learning rate, and its users."""

    learning_rate: float = 0.003
    users: int = 256

    def __post_init__(self):
        super().__post_init__()
        _check_users("users", self.users)


def _section(path: str, cls: type, not_keys: tuple[str, ...] = (), entries: tuple = ()):
    """A field built as `cls` from the section at key path `path`, or as one `cls`
    per entry of a list section whose default entries are `entries`. Fields of
    `cls` named in `not_keys` are not config keys; they keep their class default."""
    return field(metadata={"path": path, "cls": cls, "not_keys": not_keys, "entries": entries})


_NOT_TRAIN_KEYS = ("seed",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, defaults-filled configuration tree and the objects built from
    it. Every field after `data` is one row of the table of sections; each key
    of a section belongs to exactly one of that section's classes."""

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
    workload: WorkloadConfig = _section("bench", WorkloadConfig, ("seq_len",))
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
            if f.name not in sec["not_keys"]:
                section[f.name] = f.default
    return tree


DEFAULTS: dict = _defaults()


def parse_config(text: str) -> ExperimentConfig:
    if not text.strip():
        user: dict = {}
    else:
        try:
            user = read_json(text, "config")
        except ConfigError:                 # a key given twice
            raise
        # a JSONDecodeError or an integer past the digit limit; or nesting too deep
        except (ValueError, RecursionError) as exc:
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
    """Load and validate a config file (None: the defaults); OSError if unreadable or too large."""
    if path is None:
        return parse_config("")
    with open_regular(path) as fh:
        raw = fh.read(MAX_CONFIG_BYTES + 1)
    if len(raw) > MAX_CONFIG_BYTES:
        raise OSError(errno.EFBIG, f"larger than {MAX_CONFIG_BYTES} bytes")
    return parse_config(raw.decode())
