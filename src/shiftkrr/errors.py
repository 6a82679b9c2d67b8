"""The error types the CLI maps to exit codes, and the number-key and config-key checks.

``ConfigError`` (a ``ValueError``, like every refusal of input) exits 2.
Every ``NumericalFailure`` exits 3: a well-formed computation that has no
answer or could not be carried out accurately.  The numerical types keep
their builtin bases, so ``NumericalError`` is still a ``ValueError``.
"""


def whole_number(value, key: str) -> int:
    """8000 or 8000.0 as an int; 8000.9, NaN, inf or a boolean raise a ValueError naming ``key``."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"'{key}' must be a whole number")
    return int(value)


def real_number(value, key: str) -> float:
    """``value`` as a float, as ``float`` reads it; a boolean raises a ValueError naming ``key``."""
    if isinstance(value, bool):
        raise ValueError(f"'{key}' must be a number")
    return float(value)


class ConfigError(ValueError):
    """A config key or flag the CLI cannot use."""


def refuse_unread_keys(obj: dict, read: set, what: str, verb: str = "does not read") -> None:
    """Raise a ConfigError naming each key of ``obj`` outside ``read``: "{what} {verb} 'key'"."""
    unread = sorted(set(obj) - read)
    if unread:
        raise ConfigError(f"{what} {verb} {', '.join(map(repr, unread))}")


def required_key(obj: dict, key: str, what: str):
    """``obj[key]``, or a ConfigError "{what} needs 'key'" when ``obj`` lacks it."""
    if key not in obj:
        raise ConfigError(f"{what} needs '{key}'")
    return obj[key]


class NumericalFailure(RuntimeError):
    """A well-formed input whose computation failed."""


class NumericalError(ValueError, NumericalFailure):
    """A well-formed computation has no answer, such as a root search with no root on its grid."""


class TruncationExceeded(NumericalFailure):
    """An index-valued functional fell beyond the truncation point j_max."""


class FactorizationError(NumericalFailure):
    """The regularized kernel system could not be solved accurately."""


class ProjectionError(NumericalFailure):
    """The ball-constrained quadratic solve failed to meet the norm constraint."""
