"""Config sections of the numpy-backed modules, held apart from numpy.

`config.py` builds and validates every section for every command. The classes
of the diffusion, synthetic and bench sections live here, beside no numpy
code, so that loading a config imports none: `game-solve` and a trace replay
never load numpy at all. Their old modules re-export them. `NoiseSchedule`
imports numpy when its arrays are first used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:
    import numpy as np

POLICY_VARIANTS = ("proposed", "mdp", "random_opt", "none")
# regions in a whole workload; each scene also holds a planted user (~5 KB)
MAX_REGIONS = 100_000


@dataclass(frozen=True)
class DenoiserConfig:
    """Shapes of the network. d_model must be even, divisible by heads and at
    most 1024, where the weights take ~200 MB (four times that in training)."""

    feature_dim: int = 6
    cond_dim: int = 4
    d_model: int = 64
    heads: int = 4
    mlp_ratio: int = 2

    def __post_init__(self):
        for name in ("feature_dim", "cond_dim", "d_model", "heads", "mlp_ratio"):
            check(getattr(self, name) >= 1, name, "an integer >= 1", getattr(self, name))
        check(self.d_model <= 1024, "d_model", "at most 1024", self.d_model)
        check(self.d_model % 2 == 0, "d_model", "even", self.d_model)
        check(self.d_model % self.heads == 0, "d_model", f"divisible by heads ({self.heads})",
              self.d_model)

    @property
    def gate_dim(self) -> int:
        return max(1, self.d_model // 2)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances beta_t and their signal survival products.

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
              f"in (beta_start ({self.beta_start}), 1)", self.beta_end)

    @cached_property
    def betas(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.beta_start, self.beta_end, self.steps, dtype=np.float64)

    @cached_property
    def alpha_bar(self) -> np.ndarray:
        import numpy as np
        return np.cumprod(1.0 - self.betas)

    def signal_level(self, t: int) -> float:
        """alpha_bar at step t (1-indexed); t = 0 means the clean signal."""
        if t == 0:
            return 1.0
        if not 1 <= t <= self.steps:
            raise ValueError(f"step {t} outside [1, {self.steps}]")
        return float(self.alpha_bar[t - 1])


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
    n_features: int = 6
    n_items: int = 30
    interest_fraction: float = 0.3

    def __post_init__(self):
        if self.n_features != 6:
            raise ValueError("generator emits 6 feature columns (3 interaction, 2 latency, 1 fluency)")
        if not 0 < self.interest_fraction < 1:
            raise ValueError(f"interest_fraction must be in (0, 1), got {self.interest_fraction}")


@dataclass(frozen=True)
class WorkloadConfig:
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
              f"fps * 60 = {self.fps * 60} (scenes are one minute long)",
              self.frames_per_scene)
        check(2 <= self.regions_per_scene <= MAX_REGIONS // self.scenes, "regions_per_scene",
              f"an integer in [2, {MAX_REGIONS} // scenes ({self.scenes})]",
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
