"""Linear variance schedule and the forward perturbation process."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import check


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
        return np.linspace(self.beta_start, self.beta_end, self.steps, dtype=np.float64)

    @cached_property
    def alpha_bar(self) -> np.ndarray:
        return np.cumprod(1.0 - self.betas)

    def signal_level(self, t: int) -> float:
        """alpha_bar at step t (1-indexed); t = 0 means the clean signal."""
        if t == 0:
            return 1.0
        if not 1 <= t <= self.steps:
            raise ValueError(f"step {t} outside [1, {self.steps}]")
        return float(self.alpha_bar[t - 1])


def forward_diffuse(features: np.ndarray, t, schedule: NoiseSchedule,
                    noise: np.ndarray) -> np.ndarray:
    """Closed-form marginal of t perturbation steps applied at once.

    Returns sqrt(alpha_bar_t) * features + sqrt(1 - alpha_bar_t) * noise. `t`
    is one step for all of `features`, or an array of per-sample steps
    indexing its leading axes (one per sequence of a (B, L, F) batch).
    """
    features = np.asarray(features, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != features.shape:
        raise ValueError(f"noise shape {noise.shape} != features shape {features.shape}")
    t = np.asarray(t)
    if not (1 <= t.min() and t.max() <= schedule.steps):
        raise ValueError(f"step {t} outside [1, {schedule.steps}]")
    ab = schedule.alpha_bar[t - 1].reshape(t.shape + (1,) * (features.ndim - t.ndim))
    return np.sqrt(ab) * features + np.sqrt(1.0 - ab) * noise
