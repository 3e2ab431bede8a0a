"""Versioned model checkpoints.

Container format: a numpy .npz archive holding one entry per weight tensor
(prefixed ``param.``), standardizer statistics, and a ``meta`` entry with a
JSON header recording the format version, network shape, schedule parameters,
and training step count. Tensors are stored as little-endian float64, so archives
load identically across platforms.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import Standardizer
from .denoiser import AttentionGatedDenoiser, DenoiserConfig
from .schedule import NoiseSchedule

FORMAT_VERSION = 1


def save_checkpoint(path: str | Path, model: AttentionGatedDenoiser,
                    schedule: NoiseSchedule, standardizer: Standardizer | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": {
            "feature_dim": model.config.feature_dim,
            "cond_dim": model.config.cond_dim,
            "d_model": model.config.d_model,
            "heads": model.config.heads,
            "mlp_ratio": model.config.mlp_ratio,
        },
        "schedule": {
            "steps": schedule.steps,
            "beta_start": schedule.beta_start,
            "beta_end": schedule.beta_end,
        },
        "step_count": model.step_count,
        "shapes": {k: list(v.shape) for k, v in model.params.items()},
    }
    arrays: dict[str, np.ndarray] = {
        f"param.{k}": np.ascontiguousarray(v, dtype="<f8")
        for k, v in model.params.items()
    }
    if standardizer is not None and standardizer.mean is not None:
        arrays["standardizer.mean"] = np.ascontiguousarray(standardizer.mean, dtype="<f8")
        arrays["standardizer.std"] = np.ascontiguousarray(standardizer.std, dtype="<f8")
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path: str | Path):
    """Returns (model, schedule, standardizer)."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format {meta['format_version']} != supported {FORMAT_VERSION}"
            )
        config = DenoiserConfig(**meta["config"])
        params = {}
        for key in archive.files:
            if key.startswith("param."):
                name = key[len("param."):]
                arr = np.asarray(archive[key], dtype=np.float64)
                expected = tuple(meta["shapes"][name])
                if arr.shape != expected:
                    raise ValueError(f"tensor {name} has shape {arr.shape}, header says {expected}")
                params[name] = arr
        model = AttentionGatedDenoiser(config, params=params)
        model.step_count = meta.get("step_count", 0)
        schedule = NoiseSchedule(**meta["schedule"])
        standardizer = None
        if "standardizer.mean" in archive.files:
            standardizer = Standardizer(
                mean=np.asarray(archive["standardizer.mean"], dtype=np.float64),
                std=np.asarray(archive["standardizer.std"], dtype=np.float64),
            )
    return model, schedule, standardizer
