"""Geometry of the penalties induced by Gaussian weight priors: the prior
of a layer-l unit decays like exp(-|u|^(2/l)), an L^q penalty with
q = 2/l (weight decay's circle at layer 1, the lasso's diamond at layer 2,
star shapes deeper). This module gives 2-d contour data of the quasi-norm
balls |x|^q + |y|^q = t^q, which the contours subcommand writes, and
their equal-coordinate point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_positive

CONTOUR_RTOL = 1e-9


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
