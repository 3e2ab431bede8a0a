"""Deterministic reverse denoising and the interaction-probability readout."""

from __future__ import annotations

import math

import numpy as np

from ..config import NoiseSchedule, _check_strided_step
from .denoiser import AttentionGatedDenoiser
from .elementary import logistic


def _reverse_step(model: AttentionGatedDenoiser, x: np.ndarray, t: int, t_next: int,
                  s: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """One zero-noise reverse update from step t down to t_next (0 = clean)."""
    eps = model.predict(x, float(t), s)
    ab_t = schedule.signal_level(t)       # a Python float: math.sqrt rounds as np.sqrt does
    x0 = (x - math.sqrt(1.0 - ab_t) * eps) / math.sqrt(ab_t)
    if t_next == 0:
        return x0
    ab_n = schedule.signal_level(t_next)
    return math.sqrt(ab_n) * x0 + math.sqrt(1.0 - ab_n) * eps


def skip_step_infer(model: AttentionGatedDenoiser, m_start: np.ndarray, s: np.ndarray,
                    schedule: NoiseSchedule, stride: int,
                    t_start: int | None = None) -> np.ndarray:
    """Strided deterministic reverse updates over {t_start, t_start - stride, ...}.

    stride must divide t_start so the sub-schedule is uniform; stride 1 is
    the dense loop over every step, stride == t_start is a single-shot
    reconstruction.
    """
    t_start = schedule.steps if t_start is None else t_start
    schedule.check_step("t_start", t_start)
    _check_strided_step("t_start", t_start, stride)
    x = np.asarray(m_start, dtype=np.float64)
    for t in range(t_start, 0, -stride):
        x = _reverse_step(model, x, t, max(t - stride, 0), s, schedule)
    return x


def reverse_denoise(model: AttentionGatedDenoiser, m_start: np.ndarray, s: np.ndarray,
                    schedule: NoiseSchedule, t_start: int | None = None) -> np.ndarray:
    """Dense reverse loop over every timestep from t_start down to 1."""
    return skip_step_infer(model, m_start, s, schedule, 1, t_start)


def reconstruct_preferences(model: AttentionGatedDenoiser, schedule: NoiseSchedule,
                            features_std: np.ndarray, condition: np.ndarray,
                            t_noise: int, stride: int, noise: np.ndarray) -> np.ndarray:
    """Perturb a standardized sequence (L, F) under its condition (C,), or a
    stack (B, L, F) under one condition a row (B, C), to step t_noise, then
    denoise it back.

    This is the online path: the perturbation explores preference shifts and
    the conditional reverse process settles them under the resource vector.
    """
    m_t = schedule.perturb(features_std, t_noise, noise)
    return skip_step_infer(model, m_t, condition, schedule, stride, t_start=t_noise)


def interaction_probabilities(m_hat: np.ndarray, item_features: np.ndarray,
                              interaction_cols: tuple[int, ...]
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Per-item interaction probabilities from a reconstructed sequence.

    Pools the interaction columns over time, takes the dot product with each
    item's feature vector, and squashes through a logistic. Returns (item
    indices, probabilities) over every item, probabilities strictly inside
    (0, 1).
    """
    m_hat = np.asarray(m_hat, dtype=np.float64)
    item_features = np.asarray(item_features, dtype=np.float64)
    if item_features.shape[1] != len(interaction_cols):
        raise ValueError(
            f"item features have {item_features.shape[1]} dims but the "
            f"interaction block has {len(interaction_cols)} columns"
        )
    pooled = m_hat[:, list(interaction_cols)].mean(axis=0)
    logits = item_features @ pooled
    with np.errstate(over="ignore"):        # exp overflows to inf: probability 0
        probs = logistic(logits)
    # keep strictly inside (0, 1) even for extreme logits
    tiny = np.finfo(np.float64).tiny
    return np.arange(item_features.shape[0]), np.clip(probs, tiny, 1.0 - 1e-16)
