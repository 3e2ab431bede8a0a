"""Versioned model checkpoints.

Container format 2: a numpy .npz archive of exactly four entries. ``meta`` is
a JSON header: format version, ``DenoiserConfig`` and ``NoiseSchedule`` fields,
training step count. ``params`` is the model's weight vector as it is (laid
out by ``param_shapes``), and it loads back unsplit as the model's weights.
``standardizer.mean`` and ``standardizer.std`` hold the training split's
statistics. Tensors are stored as little-endian float64, so archives load
identically across platforms.

Loading checks the archive against its own header before building anything:
no entry other than those four, the header through the config file's
validator (no key missing or unknown, each of its JSON type and range), a
``params`` vector exactly as long as that network's tensors, both standardizer
tensors with one entry per feature and a positive ``std``, and every stored
number finite. A failed check raises one ``ValueError`` naming the entry or
header key, e.g. ``checkpoint header config.heads: missing``.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import _build, _merge, check
from .data import Standardizer
from .denoiser import AttentionGatedDenoiser, DenoiserConfig, param_count
from .schedule import NoiseSchedule

FORMAT_VERSION = 2
ENTRIES = ("meta", "params", "standardizer.mean", "standardizer.std")

# the header's keys, each with a value of the JSON type it must hold
_HEADER = {
    "format_version": FORMAT_VERSION,
    "config": asdict(DenoiserConfig()),
    "schedule": asdict(NoiseSchedule()),
    "step_count": 0,
}


def save_checkpoint(path: str | Path, model: AttentionGatedDenoiser,
                    schedule: NoiseSchedule, standardizer: Standardizer) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "schedule": asdict(schedule),
        "step_count": model.step_count,
    }
    np.savez(path, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
             params=np.asarray(model.weights, dtype="<f8"),
             **{"standardizer.mean": np.ascontiguousarray(standardizer.mean, dtype="<f8"),
                "standardizer.std": np.ascontiguousarray(standardizer.std, dtype="<f8")})


@contextmanager
def _header_key():
    """Re-raise a ValueError or ConfigError as one ValueError about the header."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"checkpoint header {exc}") from None


def _tensor(entries: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 tensor stored at `key`, after checking its dtype, shape and values."""
    if key not in entries:
        raise ValueError(f"checkpoint tensor {key}: missing")
    arr = entries[key]
    if not isinstance(arr, np.ndarray) or arr.dtype.kind != "f":
        raise ValueError(f"checkpoint tensor {key}: not a floating-point array")
    if arr.shape != shape:
        raise ValueError(f"checkpoint tensor {key}: shape {arr.shape} does not match "
                         f"{shape} implied by the header config")
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint tensor {key}: holds non-finite values")
    return np.asarray(arr, dtype=np.float64)


def load_checkpoint(path: str | Path):
    """Returns (model, schedule, standardizer).

    Raises ValueError, naming the entry or header key, for an archive that
    does not match its own header (see the module docstring).
    """
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single array")
        with archive:
            entries = {key: archive[key] for key in archive.files}
    except (EOFError, zipfile.BadZipFile, ValueError) as exc:
        raise ValueError(f"{path}: not a readable .npz archive ({exc})") from None

    if "meta" not in entries:
        raise ValueError("checkpoint has no meta header")
    raw = entries["meta"]
    not_json = "checkpoint header: not UTF-8 JSON bytes"
    # not bytes(raw): for a 0-d integer array that allocates as many bytes as its value
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise ValueError(not_json)
    try:
        meta = json.loads(raw.tobytes().decode())
    except (ValueError, RecursionError):
        raise ValueError(not_json) from None
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint header: expected an object, got {type(meta).__name__}")
    # the version alone first: a header of another format holds other keys
    with _header_key():
        version = _merge({"format_version": FORMAT_VERSION},
                         {k: v for k, v in meta.items() if k == "format_version"},
                         "", required=True)["format_version"]
    if version != FORMAT_VERSION:
        raise ValueError(f"checkpoint format {version} != supported {FORMAT_VERSION}")
    unknown = sorted(entries.keys() - set(ENTRIES))
    if unknown:
        raise ValueError(f"checkpoint entry {unknown[0]!r}: not one of {', '.join(ENTRIES)}")
    with _header_key():
        meta = _merge(_HEADER, meta, "", required=True)
        config = _build("config", DenoiserConfig, meta["config"])
        schedule = _build("schedule", NoiseSchedule, meta["schedule"])
        check(meta["step_count"] >= 0, "step_count", "an integer >= 0", meta["step_count"])

    weights = _tensor(entries, "params", (param_count(config),))

    features = (config.feature_dim,)
    mean = _tensor(entries, "standardizer.mean", features)
    std = _tensor(entries, "standardizer.std", features)
    if not (std > 0).all():
        raise ValueError("checkpoint tensor standardizer.std: holds a value <= 0")

    model = AttentionGatedDenoiser(config, weights=weights)
    model.step_count = meta["step_count"]
    return model, schedule, Standardizer(mean=mean, std=std)
