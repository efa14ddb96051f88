"""Penalty forms induced by Gaussian weight priors: weight decay on the
weights themselves and layer-indexed L^{2/l} penalties on hidden units,
plus 2-d contour data for the corresponding quasi-norm balls.

The joint-dependence (copula) contribution to the unit penalty has no
closed form here and is always excluded; breakdowns record that exclusion
explicitly. Scale constants multiplying the penalties are set to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from collections.abc import Sequence

import numpy as np

from .errors import check_positive

CONTOUR_RTOL = 1e-9


def lq_penalty(v, q: float) -> float:
    """Sum_i |v_i|^q, the q-th power of the L^q quasi-norm (any q > 0)."""
    check_positive(q=q)
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("penalty input must be finite")
    return float(np.sum(np.abs(v) ** q))


def weight_decay(weights: Sequence[np.ndarray]) -> float:
    """Sum of squares of every weight entry across all layers; weights is
    one matrix per layer."""
    return float(sum(np.sum(np.square(w)) for w in weights))


@dataclass(frozen=True)
class PenaltyBreakdown:
    layer_exponents: tuple
    layer_penalties: tuple
    total_unit_penalty: float
    copula_excluded: bool = True
    weight_penalty: float | None = None

    def __post_init__(self):
        if len(self.layer_exponents) != len(self.layer_penalties):
            raise ValueError("exponent/penalty length mismatch")
        if any(p < 0 for p in self.layer_penalties) or self.total_unit_penalty < 0:
            raise ValueError("penalty terms must be nonnegative")
        if self.weight_penalty is not None and self.weight_penalty < 0:
            raise ValueError("penalty terms must be nonnegative")
        if not self.copula_excluded:
            raise ValueError("joint-dependence term is not computable here; "
                             "copula_excluded must stay True")

    def describe(self) -> str:
        lines = ["unit penalties (joint-dependence term excluded):"]
        for i, (q, p) in enumerate(zip(self.layer_exponents, self.layer_penalties), start=1):
            lines.append(f"  layer {i}: q = {q:.6g}, sum |u|^q = {p:.10g}")
        lines.append(f"  total: {self.total_unit_penalty:.10g}")
        if self.weight_penalty is not None:
            lines.append(f"weight decay |W|_2^2: {self.weight_penalty:.10g}")
        return "\n".join(lines)


def unit_penalty(units, weights: Sequence[np.ndarray] | None = None
                 ) -> PenaltyBreakdown:
    """Layer l contributes lq_penalty(U(l), 2/l); totals exclude the
    joint-dependence term. `units` is a sequence of per-layer vectors,
    first entry = layer 1.
    """
    units = list(units)
    if len(units) < 1:
        raise ValueError("need at least one layer of units")
    qs = tuple(2.0 / layer for layer in range(1, len(units) + 1))
    per_layer = tuple(lq_penalty(u, q) for u, q in zip(units, qs))
    wp = weight_decay(weights) if weights is not None else None
    return PenaltyBreakdown(layer_exponents=qs, layer_penalties=per_layer,
                            total_unit_penalty=float(sum(per_layer)),
                            weight_penalty=wp)


def equal_coordinate(q: float, t: float) -> float:
    """Coordinate c of the point (c, c) on the contour |x|^q + |y|^q = t^q."""
    check_positive(q=q, t=t)
    return t * 2.0 ** (-1.0 / q)


@dataclass(frozen=True)
class ContourSet:
    q: float
    t: float
    phis: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_positive(q=self.q, t=self.t)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        if self.phis.shape != (self.points.shape[0],):
            raise ValueError("phis/points length mismatch")
        err = self.max_relative_error()
        if err > CONTOUR_RTOL:
            raise ValueError(f"contour point off the level set "
                             f"(relative error {err:.3e} > {CONTOUR_RTOL:.0e})")

    def max_relative_error(self) -> float:
        radius = (np.abs(self.points[:, 0]) ** self.q
                  + np.abs(self.points[:, 1]) ** self.q) ** (1.0 / self.q)
        return float(np.max(np.abs(radius - self.t)) / self.t)


def contour(q: float, t: float, n_points: int = 400) -> ContourSet:
    """Superellipse parametrization of {(x, y): (|x|^q + |y|^q)^(1/q) = t}:

        x = t sgn(cos phi) |cos phi|^(2/q),  y likewise with sin,

    over n_points equally spaced phi in [0, 2pi). Small q pinches the
    contour toward the axes (star shape), large q flattens it to a square.
    """
    check_positive(q=q, t=t)
    if n_points < 4:
        raise ValueError("need at least 4 points")
    phis = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    c, s = np.cos(phis), np.sin(phis)
    # exact zeros at the quarter-turn angles keep axis points exact
    quarter = np.arange(n_points) * 4 % n_points == 0
    if n_points % 4 == 0:
        c[quarter & (np.abs(c) < 0.5)] = 0.0
        s[quarter & (np.abs(s) < 0.5)] = 0.0
    e = 2.0 / q
    x = t * np.sign(c) * np.abs(c) ** e
    y = t * np.sign(s) * np.abs(s) ** e
    return ContourSet(q=q, t=t, phis=phis, points=np.column_stack([x, y]))
