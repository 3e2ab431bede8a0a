"""Planted-structure generators standing in for real user logs.

Every user has a latent taste vector; item/region features live in the same
latent space, interest flags are the user's top-scoring items, and the
behaviour sequences carry the taste vector plus channel noise. Preference
histories, resource vectors, and region workloads are all derived from the
same factors, so a model that recovers the taste vector from the history can
predict the flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion.data import Standardizer
from .config import PlantedConfig

LATENT_DIM = 3
# population-level taste drift; gives popularity priors partial signal
POPULATION_MEAN = np.array([0.5, 0.2, -0.3])
# per-step noise scale of the interaction channels, and of the latency and fluency ones
INTERACTION_NOISE, CHANNEL_NOISE = 0.5, 0.6


@dataclass
class PlantedUser:
    taste: np.ndarray                  # (LATENT_DIM,)
    sequence_raw: np.ndarray           # (L, F), unstandardized
    condition: np.ndarray              # (4,)
    item_features: np.ndarray          # (n_items, LATENT_DIM)
    interest_flags: np.ndarray         # (n_items,) bool


def top_fraction(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Mask of the round(fraction * n) highest of n scores, at least one."""
    k = max(1, int(round(fraction * len(scores))))
    mask = np.zeros(len(scores), dtype=bool)
    mask[np.argsort(-scores)[:k]] = True
    return mask


def _sequence(taste: np.ndarray, condition: np.ndarray, cfg: PlantedConfig,
              rng: np.random.Generator) -> np.ndarray:
    seq = np.empty((cfg.seq_len, cfg.n_features))
    # interaction channels: the taste vector plus per-step jitter
    seq[:, :3] = taste[None, :] + INTERACTION_NOISE * rng.standard_normal((cfg.seq_len, 3))
    # latency channels: device-driven level plus noise
    lat_level = 1.5 - 0.4 * condition[3] + 0.3 * condition[0]
    seq[:, 3] = lat_level + CHANNEL_NOISE * rng.standard_normal(cfg.seq_len)
    seq[:, 4] = 0.5 * lat_level + CHANNEL_NOISE * rng.standard_normal(cfg.seq_len)
    # fluency channel: anti-correlated with load
    seq[:, 5] = 2.0 - 0.5 * condition[1] + CHANNEL_NOISE * rng.standard_normal(cfg.seq_len)
    return seq


def make_user(cfg: PlantedConfig, rng: np.random.Generator) -> PlantedUser:
    taste = POPULATION_MEAN + rng.standard_normal(LATENT_DIM)
    condition = rng.standard_normal(4)
    items = rng.standard_normal((cfg.n_items, LATENT_DIM))
    return PlantedUser(
        taste=taste,
        sequence_raw=_sequence(taste, condition, cfg, rng),
        condition=condition,
        item_features=items,
        interest_flags=top_fraction(items @ taste, cfg.interest_fraction),
    )


def make_population(cfg: PlantedConfig, seed: int) -> list[PlantedUser]:
    rng = np.random.default_rng(seed)
    return [make_user(cfg, rng) for _ in range(cfg.n_users)]


def build_training_set(users: list[PlantedUser], cfg: PlantedConfig):
    """((standardized sequences (N, L, F), conditions (N, C)), standardizer).

    The standardizer is fitted on these users' sequences; `cfg` is the config
    they were drawn with.
    """
    raw = np.stack([u.sequence_raw for u in users])
    standardizer = Standardizer.fit(raw)
    conditions = np.stack([u.condition for u in users])
    return (standardizer.transform(raw), conditions), standardizer
