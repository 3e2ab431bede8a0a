"""The forward perturbation process of the linear variance schedule
(`NoiseSchedule`, which lives with the other config sections)."""

from __future__ import annotations

import numpy as np

from ..config import NoiseSchedule


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
