"""Versioned model checkpoints.

Container format 3: a numpy .npz archive of exactly four entries. ``meta`` is
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
number finite. The path is opened by `errors.open_regular`, and no entry is
read that is larger than an admitted network's weights. A failed check raises
one ``ValueError`` naming what failed, e.g. ``checkpoint header config.heads:
missing``.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..config import MEMORY_BUDGET, NoiseSchedule
from ..errors import (ConfigError, _build, _merge, check, located, open_regular, read_json,
                      shown, writing)
from .data import Standardizer
from .denoiser import AttentionGatedDenoiser, DenoiserConfig, param_count

FORMAT_VERSION = 3
ENTRIES = ("meta", "params", "standardizer.mean", "standardizer.std")
# the largest entry stored: an admitted network's weights (six copies fit in
# MEMORY_BUDGET) after the longest .npy header of format 1.0
MAX_ENTRY_BYTES = MEMORY_BUDGET // 6 + 10 + 0xFFFF


def _header(config: DenoiserConfig, schedule: NoiseSchedule, step_count: int) -> dict:
    return {"format_version": FORMAT_VERSION, "config": asdict(config),
            "schedule": asdict(schedule), "step_count": step_count}


# the header's keys, each with a value of the JSON type it must hold
_HEADER = _header(DenoiserConfig(), NoiseSchedule(), 0)


def save_checkpoint(path: str | Path, model: AttentionGatedDenoiser,
                    schedule: NoiseSchedule, standardizer: Standardizer) -> None:
    meta = _header(model.config, schedule, model.step_count)
    with writing(path):
        np.savez(path, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                                          dtype=np.uint8),
                 params=np.asarray(model.weights, dtype="<f8"),
                 **{"standardizer.mean": np.ascontiguousarray(standardizer.mean, dtype="<f8"),
                    "standardizer.std": np.ascontiguousarray(standardizer.std, dtype="<f8")})


def _tensor(entries: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 tensor stored at `key`, after checking its dtype, shape and values."""
    if key not in entries:
        raise ValueError(f"checkpoint tensor {key}: missing")
    arr = entries[key]
    if arr.dtype.kind != "f":
        raise ValueError(f"checkpoint tensor {key}: not a floating-point array")
    if arr.shape != shape:
        raise ValueError(f"checkpoint tensor {key}: shape {shown(arr.shape)} does not match "
                         f"{shape} implied by the header config")
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint tensor {key}: holds non-finite values")
    return np.array(arr, dtype=np.float64)               # a writable copy


def _read_entries(file) -> dict[str, np.ndarray]:
    """Each member of the .npz archive in the open `file`, by its name less `.npy`. Each
    must be stored as `np.savez` stores it: uncompressed, unencrypted, at most
    MAX_ENTRY_BYTES by the archive's directory, a .npy file of format 1.0
    whose header declares exactly the data it holds, so neither a damaged
    shape nor a huge entry is allocated for."""
    entries = {}
    with zipfile.ZipFile(file) as archive:
        for info in archive.infolist():
            key = info.filename.removesuffix(".npy")
            if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                raise ValueError(f"entry {shown(key)}: compressed or encrypted")
            if info.file_size > MAX_ENTRY_BYTES:
                raise ValueError(f"entry {shown(key)}: larger than {MAX_ENTRY_BYTES} bytes")
            with archive.open(info) as fh:
                if np.lib.format.read_magic(fh) != (1, 0):
                    raise ValueError(f"entry {shown(key)}: not a .npy file of format 1.0")
                # every entry must be 1-D, where Fortran and C order agree
                shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
                data = fh.read()
            if math.prod(shape) * dtype.itemsize != len(data):
                raise ValueError(f"entry {shown(key)}: header declares shape {shown(shape)} "
                                 f"of {shown(dtype, str)}, but {len(data)} data bytes follow")
            entries[key] = np.frombuffer(data, dtype=dtype).reshape(shape)
    return entries


def load_checkpoint(path: str | Path):
    """Returns (model, schedule, standardizer) from the archive at `path`.

    Raises ValueError, naming the entry or header key, for an archive that
    does not match its own header. A path that cannot be opened, or is not a
    regular file, raises OSError; an OSError once it is open is damage, such
    as a directory record that sends a seek before the start.
    """
    with open_regular(path) as file:
        try:
            entries = _read_entries(file)
        # numpy's .npy header parser lets its tokenizer's error through, and
        # zipfile reports a feature it does not support as NotImplementedError;
        # their text may span lines or repeat a whole header, so one line of it is cut
        except (EOFError, OSError, zipfile.BadZipFile, ValueError, tokenize.TokenError,
                NotImplementedError) as exc:
            reason = shown(str(exc).partition("\n")[0], str)
            raise ValueError(f"{shown(str(path))}: not a readable .npz archive "
                             f"({reason})") from None

    if "meta" not in entries:
        raise ValueError("checkpoint has no meta header")
    raw = entries["meta"]
    not_json = "checkpoint header: not UTF-8 JSON bytes"
    # not bytes(raw): for a 0-d integer array that allocates as many bytes as its value
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise ValueError(not_json)
    try:
        meta = read_json(raw.tobytes().decode(), "checkpoint header")
    except ConfigError:                     # a key given twice
        raise
    except (ValueError, RecursionError):
        raise ValueError(not_json) from None
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint header: expected an object, got {type(meta).__name__}")
    # the version alone first: a header of another format holds other keys
    with located("checkpoint header "):
        version = _merge({"format_version": FORMAT_VERSION},
                         {k: v for k, v in meta.items() if k == "format_version"},
                         "", required=True)["format_version"]
    if version != FORMAT_VERSION:
        raise ValueError(f"checkpoint format {shown(version)} != supported {FORMAT_VERSION}")
    unknown = sorted(entries.keys() - set(ENTRIES))
    if unknown:
        raise ValueError(f"checkpoint entry {shown(unknown[0])}: not one of {', '.join(ENTRIES)}")
    with located("checkpoint header "):
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
