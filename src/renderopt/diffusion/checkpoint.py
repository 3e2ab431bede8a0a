"""Versioned model checkpoints.

Container format 2: a numpy .npz archive of exactly four entries. ``meta`` is
a JSON header: format version, ``DenoiserConfig`` and ``NoiseSchedule`` fields,
training step count. ``params`` is every weight tensor raveled into one vector,
in the network's own layout order (``param_shapes``). ``standardizer.mean`` and
``standardizer.std`` hold the training split's statistics. Tensors are stored
as little-endian float64, so archives load identically across platforms.

Loading checks the archive against its own header before building anything:
no entry other than those four, every header key present with its JSON type,
the network and schedule settings valid, a ``params`` vector exactly as long
as that network's tensors, both standardizer tensors with one entry per
feature and a positive ``std``, and every stored number finite. A failed
check raises one ``ValueError`` naming the entry or header key.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .data import Standardizer
from .denoiser import AttentionGatedDenoiser, DenoiserConfig, param_shapes
from .schedule import NoiseSchedule

FORMAT_VERSION = 2
ENTRIES = ("meta", "params", "standardizer.mean", "standardizer.std")

_INT, _NUMBER = "an integer", "a finite number"


def _fields(cls) -> dict:
    """The JSON type of each field of a dataclass the header rebuilds."""
    return {f.name: _INT if f.type in (int, "int") else _NUMBER for f in fields(cls)}


# every header key with its JSON type; nested objects are nested dicts
_HEADER = {
    "format_version": _INT,
    "config": _fields(DenoiserConfig),
    "schedule": _fields(NoiseSchedule),
    "step_count": _INT,
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
             params=np.concatenate([np.ravel(model.params[name])
                                    for name in param_shapes(model.config)], dtype="<f8"),
             **{"standardizer.mean": np.ascontiguousarray(standardizer.mean, dtype="<f8"),
                "standardizer.std": np.ascontiguousarray(standardizer.std, dtype="<f8")})


def _check_header(node, schema: dict, where: str = "") -> None:
    """Raise ValueError naming the first key of `schema` that `node` lacks or
    holds with the wrong JSON type."""
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


def _build(cls, values: dict, where: str):
    """`cls(**values)`, rejecting keys outside the header schema and prefixing
    the class's ValueError with the header key path."""
    unknown = sorted(values.keys() - _HEADER[where].keys())
    if unknown:
        raise ValueError(f"checkpoint header {where}: unknown key {unknown[0]!r}")
    try:
        return cls(**values)
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
    _check_header(meta, {"format_version": _INT})
    if meta["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {meta['format_version']} != supported {FORMAT_VERSION}"
        )
    unknown = sorted(entries.keys() - set(ENTRIES))
    if unknown:
        raise ValueError(f"checkpoint entry {unknown[0]!r}: not one of {', '.join(ENTRIES)}")
    _check_header(meta, _HEADER)
    config = _build(DenoiserConfig, meta["config"], "config")
    schedule = _build(NoiseSchedule, meta["schedule"], "schedule")
    if meta["step_count"] < 0:
        raise ValueError(f"checkpoint header step_count: must be an integer >= 0, "
                         f"got {meta['step_count']}")

    layout = param_shapes(config)
    sizes = [math.prod(shape) for shape in layout.values()]
    flat = _tensor(entries, "params", (sum(sizes),))
    # views into `flat`, one per tensor in layout order
    params = {name: part.reshape(shape) for (name, shape), part
              in zip(layout.items(), np.split(flat, list(accumulate(sizes))[:-1]))}

    features = (config.feature_dim,)
    mean = _tensor(entries, "standardizer.mean", features)
    std = _tensor(entries, "standardizer.std", features)
    if not (std > 0).all():
        raise ValueError("checkpoint tensor standardizer.std: holds a value <= 0")

    model = AttentionGatedDenoiser(config, params=params)
    model.step_count = meta["step_count"]
    return model, schedule, Standardizer(mean=mean, std=std)
