"""Shared exception and warning types, the one validator for JSON input, and
the one serializer of JSON artifacts.

The config file and a checkpoint's ``meta`` header are both checked against a
tree of defaults by `_merge` and built into dataclasses by `_build`, so each
type rule and message form is written once. This module imports no other
``renderopt`` module, so any of them can import it.
"""

import difflib
import json
import math
from dataclasses import fields


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation.

    The message names the offending key path (e.g. ``diffusion.learning_rate``).
    """


class NumericalError(RuntimeError):
    """Raised when a numerical routine produces non-finite values or diverges."""


class ConvergenceWarning(UserWarning):
    """Emitted when an inner iterative solve stops at its iteration cap."""


def json_text(payload, name: str) -> str:
    """`payload` as indented, key-sorted JSON text; a NumericalError naming the
    file `name` if it holds an infinity or a NaN, which JSON cannot carry."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError(f"{name}: non-finite value, not written as JSON") from None


def check(ok: bool, field: str, requirement: str, value) -> None:
    """Raise ``ValueError("<field>: must be <requirement>, got <value>")`` unless ok.

    Every dataclass validates its fields through this one message form, so
    `_build` can prefix the section's key path to name the offending key.
    """
    if not ok:
        raise ValueError(f"{field}: must be {requirement}, got {value!r}")


def _suggest(key: str, known) -> str:
    matches = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean {matches[0]!r}?" if matches else ""


def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:          # an int too large for a float
        return False


def _leaf(default, value, path: str):
    """A leaf takes the JSON type of its default; a null default takes a number too."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, str):
        ok, kind = isinstance(value, str) and value != "", "a non-empty string"
    elif default is None:
        ok, kind = value is None or _finite_number(value), "null or a finite number"
    else:
        ok, kind = _finite_number(value), "a finite number"
    if not ok:
        raise ConfigError(f"{path}: must be {kind}, got {value!r}")
    return value


def _merge(defaults, user, path: str, required: bool = False):
    """`user` checked against the tree `defaults`, which fills in missing keys
    unless `required`; a ConfigError names the key path."""
    if isinstance(defaults, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{path or 'config'}: expected an object, got {type(user).__name__}")
        prefix = path + "." if path else ""
        for key in user:
            if key not in defaults:
                name = key if key.isprintable() else repr(key)    # keep the message one line
                raise ConfigError(f"{prefix}{name}: unknown key{_suggest(key, defaults)}")
        out = {}
        for key, dval in defaults.items():
            if key in user:
                out[key] = _merge(dval, user[key], prefix + key, required)
            elif required:
                raise ConfigError(f"{prefix}{key}: missing")
            else:
                out[key] = _copy(dval)
        return out
    if isinstance(defaults, list):
        # entries follow the first default entry, with every key required
        if not isinstance(user, list) or not user:
            raise ConfigError(f"{path}: expected a non-empty list of objects, got {user!r}")
        return [_merge(defaults[0], entry, f"{path}[{i}]", required=True)
                for i, entry in enumerate(user)]
    return _leaf(defaults, user, path)


def _copy(value):
    return json.loads(json.dumps(value))


def _build(path: str, cls, section: dict, **extra):
    """cls from the section's keys that are its fields; a ValueError names the key path."""
    kwargs = {f.name: section[f.name] for f in fields(cls) if f.init and f.name in section}
    try:
        return cls(**kwargs, **extra)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None
