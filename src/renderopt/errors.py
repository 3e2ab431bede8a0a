"""Shared exception and warning types, the wording of every fault, the one
opener of a file a user names (`open_regular`: config, trace, checkpoint), the
one validator for JSON input, and the one writer of each artifact format: JSON,
and CSV with floats as their repr.

A fault reads ``<where>: must be <rule>, got <value>`` (`check`), each value cut
to 60 characters (`shown`); `located` prefixes where a ValueError came from, and
`writing` names the file an OSError that names none was writing. The
config file and a checkpoint's ``meta`` header are both read by `read_json`,
checked against a tree of defaults by `_merge` and built into dataclasses by
`_build`. This module imports no other ``renderopt`` module, so any of them can
import it.
"""

import csv
import difflib
import errno
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path


_ECHO_CHARS = 60                       # longest part of a user's input a message repeats


class ConfigError(ValueError):
    """Raised when a user's input fails validation; the message names where first."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine produces non-finite values or diverges."""


class ConvergenceWarning(UserWarning):
    """Emitted when an inner iterative solve stops at its iteration cap."""


def write_json(path: str | Path, payload) -> None:
    """`payload` as indented, key-sorted JSON; a NumericalError naming the file
    if it holds an infinity or a NaN, which JSON cannot carry."""
    path = Path(path)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError(f"{path.name}: non-finite value, not written as JSON") from None
    with writing(path):
        path.write_text(text)


def write_csv(path: str | Path, header, rows) -> None:
    """`header`, then each of `rows` (any iterable, consumed as written); a
    float is written as its repr, which reads back as the same float."""
    with writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def shown(value, show=repr) -> str:
    """`show` of `value`, cut to _ECHO_CHARS characters and then "..." if longer."""
    text = show(value)
    return text[:_ECHO_CHARS] + ("..." if len(text) > _ECHO_CHARS else "")


def check(ok: bool, field: str, requirement: str, value) -> None:
    """Raise ``ConfigError("<field>: must be <requirement>, got <value>")`` unless ok.

    Every dataclass validates its fields, and `cli` its options, through this one
    message form; `_build` prefixes the section's key path to name the offending key.
    """
    if not ok:
        raise ConfigError(f"{field}: must be {requirement}, got {shown(value)}")


@contextmanager
def located(where: str):
    """Re-raise a ValueError from the block as a ConfigError prefixed by `where`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None


@contextmanager
def writing(path: str | Path):
    """Give an OSError from the block that names no file, as one past a
    file-size limit does, the name of the file at `path`, so that it reads
    e.g. ``[Errno 27] File too large: 'walk_steps.csv'``."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = Path(path).name
        raise


def open_regular(path: str | Path, mode: str = "rb", **text):
    """`open(path, mode, **text)` for a file a user names, refusing anything but
    a regular file with ``OSError(EINVAL, "not a regular file")``. It opens
    without blocking, so a FIFO with no writer is refused, not waited on, and
    a device such as ``/dev/zero`` is never read."""
    file = open(path, mode, opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK),
                **text)
    if not stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        file.close()
        raise OSError(errno.EINVAL, "not a regular file", str(path))
    return file


def read_json(text: str, where: str):
    """`json.loads(text)`, refusing an object that gives one name twice, which
    RFC 8259 section 4 leaves to the reader: ``<where>: key '<name>' given
    twice``. Text that is no JSON raises json's own ValueError (or a
    RecursionError, nested too deep)."""

    def members(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{where}: key {shown(key)} given twice")
            obj[key] = value
        return obj

    return json.loads(text, object_pairs_hook=members)


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
    check(ok, path, kind, value)
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
                name = shown(key, str if key.isprintable() else repr)   # one line
                near = difflib.get_close_matches(key, list(defaults), n=1)
                hint = f"; did you mean {near[0]!r}?" if near else ""
                raise ConfigError(f"{prefix}{name}: unknown key{hint}")
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
            raise ConfigError(f"{path}: expected a non-empty list of objects, got {shown(user)}")
        return [_merge(defaults[0], entry, f"{path}[{i}]", required=True)
                for i, entry in enumerate(user)]
    return _leaf(defaults, user, path)


def _copy(value):
    return json.loads(json.dumps(value))


def _build(path: str, cls, section: dict):
    """cls from the section's keys that are its fields; a ValueError names the key path."""
    kwargs = {f.name: section[f.name] for f in fields(cls) if f.init and f.name in section}
    with located(f"{path}." if path else ""):
        return cls(**kwargs)
