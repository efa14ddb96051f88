"""Exception types shared across the toolkit, and the one JSON type rule
that every reader of a run manifest applies.

Invalid arguments raise plain ValueError; the classes here cover failure
modes that callers may want to catch and handle separately from bad input.
"""


class DegenerateDistributionError(ValueError):
    """Sample set carries no usable tail information (all zero, constant,
    or the requested tail collapses to too few distinct points)."""


class MomentOverflowError(FloatingPointError):
    """A requested moment is not representable in double precision.

    Raised by covariance estimation when the (2s)-th or (2t)-th empirical
    moment overflows; the remedy is to lower the powers s, t.
    """


class LayerOverflowError(FloatingPointError):
    """Forward propagation produced a non-finite value.

    Carries the 1-based index of the first offending layer so deep-network
    runs can report where the magnitude blew up.
    """

    def __init__(self, layer: int, message: str | None = None):
        self.layer = layer
        super().__init__(message or f"non-finite values in layer {layer}")


class ConfigFileError(ValueError):
    """A network config file is missing, unreadable, or malformed."""


def is_json_type(value, kind) -> bool:
    """Whether value, as json.load gives it, has the JSON type kind: a
    type matches exactly (a bool is not an int), [t] is a list of t, and a
    tuple lists alternatives."""
    if isinstance(kind, tuple):
        return any(is_json_type(value, k) for k in kind)
    if isinstance(kind, list):
        return type(value) is list and all(is_json_type(e, kind[0]) for e in value)
    return type(value) is kind
