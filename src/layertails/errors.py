"""Exception types shared across the toolkit, and its value rules: is_int
for counts, indices, orders and seeds, is_json_type for manifests and
check_positive for scales.

Invalid arguments raise plain ValueError; the classes here cover failure
modes that callers may want to catch and handle separately from bad input.
"""

import numpy as np


class DegenerateDistributionError(ValueError):
    """Sample set carries no usable tail information (all zero, constant,
    or the requested tail collapses to too few distinct points)."""


class MomentOverflowError(FloatingPointError):
    """A requested moment is not representable in double precision.

    Raised by covariance estimation when the (2s)-th or (2t)-th empirical
    moment overflows; the remedy is to lower the powers s, t.
    """


class ConfigFileError(ValueError):
    """A network config file is missing, unreadable, or malformed."""


def is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_json_type(value, kind) -> bool:
    """Whether value, as json.load gives it, has the JSON type kind: a
    type matches exactly (a bool is not an int), [t] is a list of t, and a
    tuple lists alternatives."""
    if isinstance(kind, tuple):
        return any(is_json_type(value, k) for k in kind)
    if isinstance(kind, list):
        return type(value) is list and all(is_json_type(e, kind[0]) for e in value)
    return type(value) is kind


def check_positive(**values) -> None:
    """Raise ValueError naming a value that is not positive and finite."""
    for name, v in values.items():
        if not 0 < v < np.inf:  # also false for NaN
            raise ValueError(f"{name} must be positive and finite, got {v}")
