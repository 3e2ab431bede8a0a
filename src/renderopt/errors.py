"""Shared exception and warning types."""


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation.

    The message names the offending key path (e.g. ``diffusion.learning_rate``).
    """


class NumericalError(RuntimeError):
    """Raised when a numerical routine produces non-finite values or diverges."""


class ConvergenceWarning(UserWarning):
    """Emitted when an inner iterative solve stops at its iteration cap."""


def check(ok: bool, field: str, requirement: str, value) -> None:
    """Raise ``ValueError("<field>: must be <requirement>, got <value>")`` unless ok.

    Every dataclass validates its fields through this one message form, so the
    config loader can prefix the section's key path to name the offending key.
    """
    if not ok:
        raise ValueError(f"{field}: must be {requirement}, got {value!r}")
