"""Versioned model checkpoints.

Container format: a numpy .npz archive holding one entry per weight tensor
(prefixed ``param.``), the training split's standardizer statistics
(``standardizer.mean`` and ``standardizer.std``, always present), and a
``meta`` entry with a JSON header recording the format version, network shape,
schedule parameters, and training step count. Tensors are stored as little-endian float64, so archives
load identically across platforms.

Loading checks the archive against its own header before building anything:
every header key present with its JSON type, the network and schedule
settings valid, exactly the ``param.`` tensors the header's network has, each
with the shape that network implies, both standardizer tensors with one entry
per feature and a positive ``std``, and every stored number finite. A failed
check raises one ``ValueError`` naming the header key or tensor.
"""

from __future__ import annotations

import json
import math
import zipfile
from pathlib import Path

import numpy as np

from .data import Standardizer
from .denoiser import AttentionGatedDenoiser, DenoiserConfig, param_shapes
from .schedule import NoiseSchedule

FORMAT_VERSION = 1

_INT, _NUMBER = "an integer", "a finite number"
# every header key with its JSON type; nested objects are nested dicts
_HEADER = {
    "format_version": _INT,
    "config": {k: _INT for k in ("feature_dim", "cond_dim", "d_model", "heads", "mlp_ratio")},
    "schedule": {"steps": _INT, "beta_start": _NUMBER, "beta_end": _NUMBER},
    "step_count": _INT,
    "shapes": {},
}


def save_checkpoint(path: str | Path, model: AttentionGatedDenoiser,
                    schedule: NoiseSchedule, standardizer: Standardizer) -> None:
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
    arrays["standardizer.mean"] = np.ascontiguousarray(standardizer.mean, dtype="<f8")
    arrays["standardizer.std"] = np.ascontiguousarray(standardizer.std, dtype="<f8")
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _check_header(node, schema: dict, where: str = "") -> None:
    """Raise ValueError naming the first key of `schema` that `node` lacks or
    holds with the wrong JSON type (an empty schema takes any object)."""
    if not isinstance(node, dict):
        raise ValueError(f"checkpoint header {where or 'root'}: must be an object, got {node!r}")
    for key, kind in schema.items():
        path = f"{where}.{key}" if where else key
        if key not in node:
            raise ValueError(f"checkpoint header: missing key {path}")
        value = node[key]
        if isinstance(kind, dict):
            _check_header(value, kind, path)
            continue
        # JSON integers are always finite; json.loads turns NaN and Infinity into floats
        ok = (isinstance(value, int) and not isinstance(value, bool)
              or kind == _NUMBER and isinstance(value, float) and math.isfinite(value))
        if not ok:
            raise ValueError(f"checkpoint header {path}: must be {kind}, got {value!r}")


def _build(cls, fields: dict, where: str):
    """`cls(**fields)`, rejecting keys outside the header schema and prefixing
    the class's ValueError with the header key path."""
    unknown = sorted(fields.keys() - _HEADER[where].keys())
    if unknown:
        raise ValueError(f"checkpoint header {where}: unknown key {unknown[0]!r}")
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ValueError(f"checkpoint header {where}.{exc}") from None


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

    Raises ValueError, naming the header key or tensor, for an archive that
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
    try:
        meta = json.loads(bytes(entries["meta"]).decode())
    except (ValueError, RecursionError):
        raise ValueError("checkpoint header: not UTF-8 JSON") from None
    _check_header(meta, {"format_version": _INT})
    if meta["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {meta['format_version']} != supported {FORMAT_VERSION}"
        )
    _check_header(meta, _HEADER)
    config = _build(DenoiserConfig, meta["config"], "config")
    schedule = _build(NoiseSchedule, meta["schedule"], "schedule")
    if meta["step_count"] < 0:
        raise ValueError(f"checkpoint header step_count: must be an integer >= 0, "
                         f"got {meta['step_count']}")

    shapes = param_shapes(config)
    unknown = sorted(meta["shapes"].keys() - shapes.keys())
    if unknown:
        raise ValueError(f"checkpoint header shapes: unknown tensor {unknown[0]!r}")
    for name, shape in shapes.items():
        if name not in meta["shapes"]:
            raise ValueError(f"checkpoint header: missing key shapes.{name}")
        if meta["shapes"][name] != list(shape):
            raise ValueError(f"checkpoint header shapes.{name}: must be {list(shape)}, "
                             f"got {meta['shapes'][name]!r}")
    for key in sorted(entries):
        if key.startswith("param.") and key[len("param."):] not in shapes:
            raise ValueError(f"checkpoint tensor {key!r}: not a tensor of the header's network")
    params = {name: _tensor(entries, f"param.{name}", shape) for name, shape in shapes.items()}

    features = (config.feature_dim,)
    mean = _tensor(entries, "standardizer.mean", features)
    std = _tensor(entries, "standardizer.std", features)
    if not (std > 0).all():
        raise ValueError("checkpoint tensor standardizer.std: holds a value <= 0")

    model = AttentionGatedDenoiser(config, params=params)
    model.step_count = meta["step_count"]
    return model, schedule, Standardizer(mean=mean, std=std)
