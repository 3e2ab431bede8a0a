"""Data plane for the preference model: column layout and standardization.

A training set is two arrays: standardized behaviour sequences (N, L, F),
one row per timestep, and device/network resource conditions (N, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# feature columns holding the interaction channels, which the readout pools
INTERACTION_COLUMNS = (0, 1, 2)


@dataclass(frozen=True)
class Standardizer:
    """Per-column zero-mean/unit-variance transform, frozen from a training split."""

    mean: np.ndarray                         # (F,)
    std: np.ndarray                          # (F,), every entry > 0

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        """Statistics of every row of `features` (..., F), one per column."""
        features = np.asarray(features, dtype=np.float64)
        rows = features.reshape(-1, features.shape[-1])
        return cls(mean=rows.mean(axis=0), std=np.maximum(rows.std(axis=0), 1e-9))

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def inverse(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) * self.std + self.mean
