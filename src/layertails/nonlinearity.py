"""Activation functions and numerical certification of the envelope property.

An activation phi has the extended envelope property when

    |phi(u)| >= c1 + d1 |u|   for all u on at least one half-line, and
    |phi(u)| <= c2 + d2 |u|   for all real u,

with c1, c2 >= 0 and d1, d2 > 0. Functions with this property pass a
symmetric distribution's moment growth through unchanged, which is what
makes the layerwise tail recursion tick. Saturating functions (tanh,
sigmoid) do not have it; they get a "bounded" verdict instead, which is
the sub-Gaussian regime.

Certification here is numerical: inequalities are checked on a finite
grid, and search_envelope_constants fits the tightest linear envelopes
over that grid. A grid certificate is exactly that; it does not prove
the inequality off the grid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

_FAMILIES = ("relu", "prelu", "elu", "selu", "tanh", "sigmoid", "identity")

# Number of parameters each family takes.
_NPARAMS = {
    "relu": 0,
    "prelu": 1,
    "elu": 1,
    "selu": 2,
    "tanh": 0,
    "sigmoid": 0,
    "identity": 0,
}

# Filled in when a parametric family is named without parameters. The selu
# pair is the standard self-normalizing choice.
_DEFAULT_PARAMS = {
    "prelu": (0.25,),
    "elu": (1.0,),
    "selu": (1.0507009873554805, 1.6732632423543772),
}

_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(([^)]*)\))?\s*$")


@dataclass(frozen=True)
class NonlinearitySpec:
    """An activation family plus its parameters, e.g. prelu(0.1)."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown nonlinearity family {self.family!r}")
        params = tuple(float(p) for p in self.params)
        if not params and self.family in _DEFAULT_PARAMS:
            params = _DEFAULT_PARAMS[self.family]
        object.__setattr__(self, "params", params)
        if len(params) != _NPARAMS[self.family]:
            raise ValueError(
                f"{self.family} takes {_NPARAMS[self.family]} parameter(s), "
                f"got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError("nonlinearity parameters must be finite")
        if self.family == "prelu" and params[0] < 0:
            raise ValueError("prelu slope must be >= 0")
        if self.family == "elu" and params[0] <= 0:
            raise ValueError("elu alpha must be > 0")
        if self.family == "selu" and (params[0] <= 0 or params[1] <= 0):
            raise ValueError("selu lambda and alpha must be > 0")

    @classmethod
    def parse(cls, text: str) -> "NonlinearitySpec":
        """Parse 'relu', 'prelu(0.1)', 'selu(1.0507,1.6733)' and friends."""
        m = _SPEC_RE.match(text)
        if m is None:
            raise ValueError(f"cannot parse nonlinearity {text!r}")
        family = m.group(1)
        args = m.group(2)
        params: tuple[float, ...] = ()
        if args is not None and args.strip():
            params = tuple(float(a) for a in args.split(","))
        return cls(family, params)

    def __str__(self) -> str:
        if self.params:
            return f"{self.family}({','.join(repr(p) for p in self.params)})"
        return self.family


def apply(spec: NonlinearitySpec, u):
    """Apply the activation elementwise. Scalars in, scalars out."""
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("apply requires finite input")
    fam = spec.family
    if fam == "identity":
        out = arr.copy()
    elif fam == "relu":
        out = np.maximum(arr, 0.0)
    elif fam == "prelu":
        alpha = spec.params[0]
        out = np.where(arr > 0, arr, alpha * arr)
    elif fam in ("elu", "selu"):
        # max(u, 0) + alpha expm1(min(u, 0)) has no per-element branch; one
        # of the two terms is always an exact zero
        alpha = spec.params[-1]
        out = np.maximum(arr, 0.0) + alpha * np.expm1(np.minimum(arr, 0.0))
        if fam == "selu":
            out *= spec.params[0]
    elif fam == "tanh":
        out = np.tanh(arr)
    elif fam == "sigmoid":
        # e^min(u,0) / (1 + e^-|u|) is the two-sided 1/(1+e^-u) without a
        # per-element branch, and overflows on neither side
        out = np.exp(np.minimum(arr, 0.0))
        out /= 1.0 + np.exp(-np.abs(arr))
    else:  # pragma: no cover
        raise AssertionError(fam)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


# Magnitudes above exp(_EXP_CAP) are treated as +infinity when a family
# saturates; below it, exp() is exact in double precision.
_EXP_CAP = 700.0


def apply_signed_log(spec: NonlinearitySpec, signs, logmags):
    """Apply the activation to values stored as (sign, log|value|) pairs.

    Returns new (sign, log-magnitude) arrays without ever forming values
    whose magnitude exceeds double-precision range. Saturating families
    use their exact asymptotes for inputs beyond exp(700).
    """
    signs = np.asarray(signs)
    lm = np.asarray(logmags, dtype=float)
    fam = spec.family

    if fam == "identity":
        return signs.copy(), lm.copy()

    if fam == "relu":
        pos = signs > 0
        out_s = np.where(pos, signs, 0).astype(np.int8)
        out_lm = np.where(pos, lm, -np.inf)
        return out_s, out_lm

    if fam == "prelu":
        alpha = spec.params[0]
        out_s = signs.copy()
        out_lm = lm.copy()
        neg = signs < 0
        if alpha == 0.0:
            out_s = np.where(neg, 0, out_s).astype(np.int8)
            out_lm = np.where(neg, -np.inf, out_lm)
        else:
            out_lm = np.where(neg, lm + math.log(alpha), out_lm)
        return out_s.astype(np.int8), out_lm

    if fam in ("elu", "selu"):
        if fam == "elu":
            lam, alpha = 1.0, spec.params[0]
        else:
            lam, alpha = spec.params
        out_s = signs.copy().astype(np.int8)
        out_lm = lm + math.log(lam)
        neg = signs < 0
        if np.any(neg):
            lneg = lm[neg]
            mag = np.exp(np.minimum(lneg, _EXP_CAP))
            # |phi(u)| = lam*alpha*(1 - e^{-|u|}); saturates at lam*alpha
            with np.errstate(divide="ignore"):
                val = np.where(
                    lneg > _EXP_CAP,
                    0.0,
                    np.log(-np.expm1(-mag), where=mag > 0, out=np.full_like(mag, -np.inf)),
                )
            out_lm[neg] = math.log(lam * alpha) + val
        return out_s, out_lm

    if fam == "tanh":
        out_s = signs.copy().astype(np.int8)
        mag = np.exp(np.minimum(lm, _EXP_CAP))
        with np.errstate(divide="ignore"):
            out_lm = np.where(lm > _EXP_CAP, 0.0, np.log(np.tanh(mag)))
        out_lm = np.where(signs == 0, -np.inf, out_lm)
        return out_s, out_lm

    if fam == "sigmoid":
        # sigmoid is positive everywhere, including at u = 0 where it is 1/2
        u = signs * np.exp(np.minimum(lm, _EXP_CAP))
        big_pos = (signs > 0) & (lm > _EXP_CAP)
        big_neg = (signs < 0) & (lm > _EXP_CAP)
        out_lm = -np.logaddexp(0.0, -u)
        out_lm = np.where(big_pos, 0.0, out_lm)
        out_lm = np.where(big_neg, -np.inf, out_lm)
        out_s = np.ones_like(signs, dtype=np.int8)
        return out_s, out_lm

    raise AssertionError(fam)  # pragma: no cover


def is_positively_homogeneous(spec: NonlinearitySpec) -> bool:
    """True when phi(c*u) = c*phi(u) for c > 0 (relu, prelu, identity)."""
    return spec.family in ("relu", "prelu", "identity")


@dataclass(frozen=True)
class EnvelopeGrid:
    """Log-spaced evaluation grid, symmetric about 0.

    Points run over [-u_max, -u_min] and [u_min, u_max] plus the origin.
    """

    u_min: float = 1e-3
    u_max: float = 1e3
    points_per_side: int = 100_000

    def __post_init__(self):
        if not (0 < self.u_min < self.u_max):
            raise ValueError("need 0 < u_min < u_max")
        if self.points_per_side < 2:
            raise ValueError("need at least 2 points per side")

    def points(self) -> np.ndarray:
        side = np.logspace(math.log10(self.u_min), math.log10(self.u_max),
                           self.points_per_side)
        return np.concatenate([-side[::-1], [0.0], side])

    def describe(self) -> str:
        return (f"log grid [{self.u_min:g}, {self.u_max:g}] x "
                f"{self.points_per_side} per side")


# Default grid for constant search: wide enough that "bounded" separates
# saturating families (sup ~ 1) from anything with linear growth.
SEARCH_GRID = EnvelopeGrid(u_min=1e-3, u_max=1e7, points_per_side=100_000)

# Slope threshold for the bounded verdict: bounded iff sup|phi| < BOUNDED_D_MIN * u_max.
BOUNDED_D_MIN = 1e-6


@dataclass(frozen=True)
class EnvelopeWitness:
    """Outcome of an envelope check.

    verdict is one of "holds", "fails", "bounded". For "holds" the
    constants certify both inequalities at every grid point; for "fails"
    the first violating point and which inequality it broke are recorded;
    "bounded" means the function saturates and no linear lower envelope
    with usable slope exists (the sub-Gaussian case).
    """

    verdict: str
    c1: float | None = None
    d1: float | None = None
    side: str | None = None
    c2: float | None = None
    d2: float | None = None
    grid: str = ""
    failure_point: float | None = None
    failure_inequality: str | None = None

    def __post_init__(self):
        if self.verdict not in ("holds", "fails", "bounded"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "holds":
            if self.c1 is None or self.c1 < 0 or self.d1 is None or self.d1 <= 0:
                raise ValueError("holds requires c1 >= 0 and d1 > 0")
            if self.c2 is None or self.c2 < 0 or self.d2 is None or self.d2 <= 0:
                raise ValueError("holds requires c2 >= 0 and d2 > 0")
            if self.side not in ("positive-axis", "negative-axis"):
                raise ValueError("holds requires a declared side")


def verify_envelope(spec: NonlinearitySpec, c1: float, d1: float, side: str,
                    c2: float, d2: float,
                    grid: EnvelopeGrid | None = None) -> EnvelopeWitness:
    """Check the two envelope inequalities for given constants on a grid.

    The lower inequality |phi(u)| >= c1 + d1|u| is checked on the declared
    side only; the upper |phi(u)| <= c2 + d2|u| on the whole grid. Failure
    is a verdict carrying the first violating point, not an exception.
    """
    if grid is None:
        grid = EnvelopeGrid()
    if grid.u_max < 100 or 2 * grid.points_per_side < 10_000:
        raise ValueError("grid must cover [-U, U] with U >= 100 and >= 1e4 points")
    if side not in ("positive-axis", "negative-axis"):
        raise ValueError(f"bad side {side!r}")
    u = grid.points()
    phi = np.abs(apply(spec, u))
    au = np.abs(u)

    upper_bad = phi > c2 + d2 * au
    if np.any(upper_bad):
        pt = float(u[np.argmax(upper_bad)])
        return EnvelopeWitness("fails", c1, d1, side, c2, d2, grid.describe(),
                               failure_point=pt, failure_inequality="upper")

    on_side = u > 0 if side == "positive-axis" else u < 0
    lower_bad = on_side & (phi < c1 + d1 * au)
    if np.any(lower_bad):
        pt = float(u[np.argmax(lower_bad)])
        return EnvelopeWitness("fails", c1, d1, side, c2, d2, grid.describe(),
                               failure_point=pt, failure_inequality="lower")

    return EnvelopeWitness("holds", c1, d1, side, c2, d2, grid.describe())


def search_envelope_constants(spec: NonlinearitySpec,
                              grid: EnvelopeGrid | None = None) -> EnvelopeWitness:
    """Find envelope constants by fitting the tightest linear bounds on a grid.

    Returns a "bounded" witness when the function saturates (sup over the
    grid below BOUNDED_D_MIN * u_max); otherwise fits c1 = c2 = 0 envelopes,
    picks the half-line with the larger lower slope, and verifies the result.
    The constants certify the search grid; points off the grid are not checked.
    """
    if grid is None:
        grid = SEARCH_GRID
    u = grid.points()
    phi = np.abs(apply(spec, u))

    if float(np.max(phi)) < BOUNDED_D_MIN * grid.u_max:
        return EnvelopeWitness("bounded", grid=grid.describe())

    au = np.abs(u)
    nz = au > 0
    ratio = np.divide(phi[nz], au[nz])
    upos = u[nz] > 0
    d1_pos = float(np.min(ratio[upos])) if np.any(upos) else 0.0
    d1_neg = float(np.min(ratio[~upos])) if np.any(~upos) else 0.0
    if d1_pos >= d1_neg:
        side, d1 = "positive-axis", d1_pos
    else:
        side, d1 = "negative-axis", d1_neg
    if d1 <= 0:
        # No half-line supports a linear lower bound; treat as saturating.
        return EnvelopeWitness("bounded", grid=grid.describe())

    c2 = float(np.abs(apply(spec, 0.0)))
    d2 = float(np.max(ratio))
    return verify_envelope(spec, 0.0, d1, side, c2, d2, grid)
