"""Activation functions and the envelope property, read from their table.

Each activation family is defined once, by its entry in _TABLE: default
parameters (their number is the parameter count) and their check, and phi's
two sides, u > 0 and u < 0. A Side is a slope c (phi(u) = c u) or a curve,
and has an in-place value form for input of its sign (elu alpha expm1(u) for
u <= 0, sigmoid one exp) and a log form, (sign, log|u|) to (sign,
log|phi(u)|). A curve that is one double c from some |u| = T on in both
forms carries (T, c) as its saturation, which the sampler reads to count
such entries instead of drawing them. A curve of a family with a slope
side also carries sup |phi(u)|/|u| over its half-line. Every caller reads
the sides: apply, apply_signed_log, the envelope verdict and the sampler.
Adding a family means its sides plus its line in the test suite's
ALL_SPECS.

An activation phi has the extended envelope property when

    |phi(u)| >= c1 + d1 |u|   for all u on at least one half-line, and
    |phi(u)| <= c2 + d2 |u|   for all real u,

with c1, c2 >= 0 and d1, d2 > 0. Functions with this property pass a
symmetric distribution's moment growth through unchanged, which is what
makes the layerwise tail recursion tick. Saturating functions (tanh,
sigmoid) do not have it; they get a "bounded" verdict instead, which is
the sub-Gaussian regime.

search_envelope_constants reads the property from the sides, so its
constants hold at every real u, not on a grid: a slope c gives |phi(u)| =
c|u|, and every curve is bounded, with |phi(u)|/|u| at most its sup_ratio
(lambda alpha for elu and selu, 1 for tanh). So the property holds iff
some side is a slope c > 0.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

# Magnitudes above exp(_EXP_CAP) are treated as +infinity when a family
# saturates; below it, exp() is exact in double precision.
_EXP_CAP = 700.0


class Side(NamedTuple):
    """One side of phi: value writes phi(u) into u, a float array of the
    side's sign; log maps (signs, log|u|) to (signs, log|phi(u)|) for such
    u, elementwise and safe on any u; slope is c if phi(u) = c u, else None.
    saturation is (T, c) for a curve whose value is the double c, bit for
    bit, and whose log form is log|c| up to rounding, at every |u| >= T
    (else None): there phi(u)^2 is c^2 whatever u, which lets the sampler
    count such entries instead of drawing them. Each T is the measured
    point (through numpy's expm1, tanh and exp) with a margin. sup_ratio
    is a double at or above sup |phi(u)|/|u| on a curve's half-line, the
    envelope's upper slope; a family without a slope side may leave it
    None, as its verdict never reads it."""

    value: Callable
    log: Callable
    slope: float | None = None
    saturation: tuple[float, float] | None = None
    sup_ratio: float | None = None


def _slope(c):
    # c u in place; log|u| + log c, or sign 0 and -inf for c = 0
    return Side(lambda u: np.multiply(u, c, out=u),
                lambda s, lm: (s, lm + math.log(c)) if c else (0, -np.inf), c)


def _elu_neg(lam, alpha):
    """lam elu_alpha for u <= 0: lam (alpha expm1(u)), in that order. Its
    log is log(lam alpha) + log(1 - e^-|u|), and log(lam alpha) past
    e^_EXP_CAP. expm1(u) is -1.0 from u = -37.43 on, so the side is
    -(lam alpha) from |u| = 40. |phi(u)|/|u| rises to lam alpha as
    u -> 0-; the product of the two doubles can round below it (the
    default selu's does), so sup_ratio is the exact product rounded up."""

    def value(u):
        # x 1.0 == x for every double, so an identity factor is skipped
        u = np.expm1(u, out=u)
        if alpha != 1.0:
            np.multiply(u, alpha, out=u)
        return u if lam == 1.0 else np.multiply(u, lam, out=u)

    def log(s, lm):
        with np.errstate(divide="ignore"):
            shape = np.log(-np.expm1(-np.exp(np.minimum(lm, _EXP_CAP))))
        c = math.log(lam * alpha)
        return s, np.where(lm > _EXP_CAP, c, c + shape)

    sup = Fraction(lam) * Fraction(alpha)
    up = float(sup)
    if up < sup:
        up = math.nextafter(up, math.inf)
    # -1.0 x alpha x lam rounds as -(lam alpha) does
    return Side(value, log, saturation=(40.0, -(lam * alpha)), sup_ratio=up)


def _tanh_log(s, lm):
    mag = np.exp(np.minimum(lm, _EXP_CAP))
    with np.errstate(divide="ignore"):
        return s, np.where(lm > _EXP_CAP, 0.0, np.log(np.tanh(mag)))


def _sigmoid_side(sign):
    """sigmoid for u of one sign: e^u / (1 + e^u) for u <= 0, 1 / (1 + e^-u)
    for u >= 0, one exp that overflows on neither side. Its log, of sign +1, is
    -log(1 + e^-u), and past e^_EXP_CAP 0 (u > 0) or -inf (u < 0).

    The positive side is 1.0 from u = 36.74 on (saturation at 40). The
    negative one has no saturation: its square underflows to 0.0 from
    u = -372.57 on, but its log form, about u, keeps falling, and a row of
    the log-domain norm reads it."""

    def value(u):
        e = np.exp(np.negative(u, out=u) if sign > 0 else u, out=u)
        return np.divide(e if sign < 0 else 1.0, 1.0 + e, out=u)

    def log(s, lm):
        u = sign * np.exp(np.minimum(lm, _EXP_CAP))
        return 1, np.where(lm > _EXP_CAP, 0.0 if sign > 0 else -np.inf,
                           -np.logaddexp(0.0, -u))

    return Side(value, log, saturation=(40.0, 1.0) if sign > 0 else None)


class _Family(NamedTuple):
    """One _TABLE entry; p is always the spec's parameter tuple."""

    sides: Callable  # (p) -> (positive, negative), each a slope or a Side
    defaults: tuple[float, ...] = ()  # their number is the parameter count
    check: tuple[Callable, str] | None = None  # (p) -> valid, and else why


_TABLE = {
    "identity": _Family(lambda p: (1.0, 1.0)),
    "relu": _Family(lambda p: (1.0, 0.0)),
    "prelu": _Family(lambda p: (1.0, p[0]), defaults=(0.25,),
                     # the sampler's norm squares a nonzero slope
                     check=(lambda p: p[0] == 0 or p[0] > 0 and (
                         np.finfo(float).tiny <= p[0] * p[0] < math.inf),
                         "prelu slope must be 0 or in about "
                         "[1.5e-154, 1.3e154]")),
    "elu": _Family(lambda p: (1.0, _elu_neg(1.0, p[0])), defaults=(1.0,),
                   check=(lambda p: p[0] > 0, "elu alpha must be > 0")),
    # the defaults are the standard self-normalizing (lambda, alpha)
    "selu": _Family(lambda p: (p[0], _elu_neg(*p)),
                    defaults=(1.0507009873554805, 1.6732632423543772),
                    # the negative side's log form takes log(lambda alpha)
                    check=(lambda p: p[0] > 0 and p[1] > 0
                           and 0 < p[0] * p[1] < math.inf,
                           "selu lambda and alpha must be > 0 with a "
                           "finite, nonzero product")),
    # tanh(u) is +-1.0 from |u| = 18.99 on, and |tanh(u)| <= |u|
    "tanh": _Family(lambda p: tuple(
        Side(lambda u: np.tanh(u, out=u), _tanh_log, saturation=(20.0, c),
             sup_ratio=1.0)
        for c in (1.0, -1.0))),
    "sigmoid": _Family(lambda p: (_sigmoid_side(1.0), _sigmoid_side(-1.0))),
}

_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(([^)]*)\))?\s*$")


@dataclass(frozen=True)
class NonlinearitySpec:
    """An activation family plus its parameters, e.g. prelu(0.1)."""

    family: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        fam = _TABLE.get(self.family)
        if fam is None:
            raise ValueError(f"unknown nonlinearity family {self.family!r}")
        # a parametric family named without parameters takes its defaults
        params = tuple(float(p) for p in self.params) or fam.defaults
        object.__setattr__(self, "params", params)
        if len(params) != len(fam.defaults):
            raise ValueError(f"{self.family} takes {len(fam.defaults)} "
                             f"parameter(s), got {len(params)}")
        if not all(math.isfinite(p) for p in params):
            raise ValueError("nonlinearity parameters must be finite")
        if fam.check is not None and not fam.check[0](params):
            raise ValueError(fam.check[1])

    @classmethod
    def parse(cls, text: str) -> "NonlinearitySpec":
        """Parse 'relu', 'prelu(0.1)', 'selu(1.0507,1.6733)' and friends."""
        m = _SPEC_RE.match(text)
        if m is None:
            raise ValueError(f"cannot parse nonlinearity {text!r}")
        args = (m.group(2) or "").strip()
        params = tuple(float(a) for a in args.split(",")) if args else ()
        return cls(m.group(1), params)

    def __str__(self) -> str:
        if self.params:
            return f"{self.family}({','.join(repr(p) for p in self.params)})"
        return self.family


def apply(spec: NonlinearitySpec, u):
    """Apply the activation elementwise, into a copy of u; scalars in,
    scalars out. u >= 0 goes through the positive side, so phi(0) is its
    value (sigmoid's 0.5), and every zero comes back as +0.0."""
    out = np.array(u, dtype=float, ndmin=1)
    if not np.all(np.isfinite(out)):
        raise ValueError("apply requires finite input")
    pos = out >= 0
    # a gather by sign evaluates each side on its own entries only
    for rows, side in zip((pos, ~pos), sides(spec)):
        out[rows] = side.value(out[rows])
    out += 0.0  # -0.0 + 0.0 is +0.0
    return float(out[0]) if np.ndim(u) == 0 else out


@functools.cache
def sides(spec: NonlinearitySpec) -> tuple[Side, Side]:
    """phi's (positive, negative) Sides; a table slope c becomes c u's.
    Built once per spec (a frozen, hashable dataclass) and shared: every
    layer step and apply_signed_log call reads them."""
    return tuple(c if isinstance(c, Side) else _slope(c)
                 for c in _TABLE[spec.family].sides(spec.params))


def apply_signed_log(spec: NonlinearitySpec, signs, logmags):
    """Apply the activation to values stored as (sign, log|value|) pairs.

    Returns new (sign, log-magnitude) arrays without ever forming values
    whose magnitude exceeds double-precision range. Each side's log form
    runs on every entry, which is cheaper than gathering its own, and an
    entry keeps its side's result, zeros the positive side's. A slope
    shifts log|u| by its log; a bounded side takes its asymptote beyond
    exp(700).
    """
    signs = np.asarray(signs)
    lm = np.asarray(logmags, dtype=float)
    (sp, lp), (sn, ln) = (side.log(signs, lm) for side in sides(spec))
    pos = signs >= 0
    return np.where(pos, sp, sn).astype(np.int8), np.where(pos, lp, ln)


@dataclass(frozen=True)
class EnvelopeWitness:
    """Outcome of the envelope decision.

    verdict is "holds" or "bounded". For "holds" the constants satisfy both
    inequalities at every real u; "bounded" means no side is a slope, so
    phi saturates and no linear lower envelope exists (the sub-Gaussian
    case).
    """

    verdict: str
    c1: float | None = None
    d1: float | None = None
    side: str | None = None
    c2: float | None = None
    d2: float | None = None

    def __post_init__(self):
        if self.verdict not in ("holds", "bounded"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "holds":
            if self.c1 is None or self.c1 < 0 or self.d1 is None or self.d1 <= 0:
                raise ValueError("holds requires c1 >= 0 and d1 > 0")
            if self.c2 is None or self.c2 < 0 or self.d2 is None or self.d2 <= 0:
                raise ValueError("holds requires c2 >= 0 and d2 > 0")
            if self.side not in ("positive-axis", "negative-axis"):
                raise ValueError("holds requires a declared side")


def search_envelope_constants(spec: NonlinearitySpec) -> EnvelopeWitness:
    """The envelope verdict and constants, read from spec's sides.

    The property holds iff some side is a slope c > 0. Then d1 is the
    largest such c, with c1 = 0 and a tie to the positive axis; c2 is
    |phi(0)|, and d2 the largest of the sides' slopes and curves'
    sup_ratio. Otherwise phi saturates and the verdict is "bounded".
    The constants bound phi exactly; apply rounds each factor apart, so
    its value may stand a few ulp (or 2^-1074) above the upper bound.
    """
    both = dict(zip(("positive-axis", "negative-axis"), sides(spec)))
    slopes = {name: s.slope for name, s in both.items() if s.slope}
    if not slopes:
        return EnvelopeWitness("bounded")
    side = max(slopes, key=slopes.get)  # the first of equals, positive
    d2 = max(s.sup_ratio if s.slope is None else s.slope
             for s in both.values())
    return EnvelopeWitness("holds", 0.0, slopes[side], side,
                           abs(apply(spec, 0.0)), d2)
