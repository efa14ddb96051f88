"""Monte-Carlo verification that same-layer hidden units have non-negative
covariance between integer powers, Cov[(h_m)^s, (h_m')^t] >= 0, with exact
independence (zero covariance) at layer 1.

The verdict convention turns the one-sided statement into something
testable: "violation" only when the estimate falls below -3 standard
errors, "zero-consistent" when within 3, "nonnegative-consistent"
otherwise. Standard errors come from batch means over 32 contiguous
batches, so they honor any dependence the estimator introduces within a
batch.

A sweep draws the pair once, at every requested layer, in a single
sampler pass from the prefix (seed, STREAM_COVARIANCE, m, m'), and scores
all its (layer, s, t) cells from those draws. Its cells are therefore not
independent of each other. No check relies on that: each verdict rests on
its own cell's batch means. estimate_unit_covariance draws from the same
prefix, so it reproduces any sweep cell exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network_model
from .errors import MomentOverflowError, is_int
from .network_model import (STREAM_COVARIANCE, NetworkConfig, _exp,
                            _finite_lanes, entropy_prefix, sample_joint_units)

_N_BATCHES = 32
_LOG_DOUBLE_MAX = 708.0
# The batch-mean standard error squares quantities on the scale of a*b, so
# the product scale must stay below half the double-precision exponent.
_LOG_SQUARE_MAX = 350.0


@dataclass(frozen=True)
class CovarianceReport:
    layer: int
    pair: tuple[int, int]
    s: int
    t: int
    estimate: float
    se: float
    n_samples: int
    verdict: str

    def __post_init__(self):
        if self.verdict == "violation" and not self.estimate < -3.0 * self.se:
            raise ValueError("violation verdict requires estimate < -3 se")


def _verdict(estimate: float, se: float) -> str:
    if estimate < -3.0 * se:
        return "violation"
    if abs(estimate) <= 3.0 * se:
        return "zero-consistent"
    return "nonnegative-consistent"


def _check_powers(s: int, t: int) -> None:
    if not (is_int(s) and is_int(t) and s >= 1 and t >= 1):
        raise ValueError("powers s, t must be integers >= 1")


def _check_request(config: NetworkConfig, x, layers, pair, n_samples: int,
                   workers: int) -> dict:
    """{layer: pair} for run_sampler, once the pair's shape, its request
    checks and n_samples >= 10^4 pass; run before any entropy prefix."""
    if np.shape(pair) != (2,):
        raise ValueError(f"pair must be two unit indices, got {pair!r}")
    needs = {layer: tuple(pair) for layer in layers}
    network_model.check_request(config, x, n_samples, needs, "post", workers)
    if n_samples < 10_000:
        raise ValueError("need n_samples >= 10^4")
    return needs


def _batch_rows(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 32 contiguous batches of n draws as (batch numbers, index rows),
    one pair per batch size: np.sum(h[rows], axis=1) / size is np.mean of
    each batch's slice, bit for bit."""
    bounds = np.linspace(0, n, _N_BATCHES + 1).astype(int)
    sizes = np.diff(bounds)
    out = []
    for size in sorted(set(sizes.tolist())):  # np.unique imports numpy.ma
        batches = np.flatnonzero(sizes == size)
        out.append((batches, bounds[batches, None] + np.arange(size)))
    return out


def _batch_means(h: np.ndarray, rows) -> np.ndarray:
    out = np.empty(_N_BATCHES)
    for batches, index in rows:
        out[batches] = np.sum(h[index], axis=1) / index.shape[1]
    return out


def _layer_cells(signs: np.ndarray, lms: np.ndarray, layer: int,
                 pair: tuple[int, int]):
    """cell(s, t) -> Cov[(h_m)^s, (h_m')^t] of one layer's joint draws,
    given as (n, 2) signs and log-magnitudes of the pair's post units.

    Each unit's power h^s, with its mean and batch means, is formed once,
    by the first cell that reads it; a cell then forms only the product.
    """
    rows = _batch_rows(signs.shape[0])
    tops = [float(np.max(lms[:, c])) for c in (0, 1)]
    finite = [_finite_lanes(lms[:, c]) for c in (0, 1)]
    powers = {}

    def power(c: int, s: int):
        if (c, s) not in powers:
            h = _exp(s * lms[:, c], finite[c])
            if s % 2:
                h = signs[:, c] * h
            powers[c, s] = h, np.mean(h), _batch_means(h, rows)
        return powers[c, s]

    def cell(s: int, t: int) -> CovarianceReport:
        _check_powers(s, t)
        # Refuse powers whose products (or their squares, formed inside the
        # batch-mean std) cannot be represented; the estimate would be
        # meaningless anyway.
        if (s * tops[0] > _LOG_DOUBLE_MAX or t * tops[1] > _LOG_DOUBLE_MAX
                or s * tops[0] + t * tops[1] > _LOG_SQUARE_MAX):
            raise MomentOverflowError(
                f"(s, t) = ({s}, {t}) at layer {layer}: moment of order "
                f"2({s}+{t}) exceeds double precision; use smaller powers")
        a, mean_a, batch_a = power(0, s)
        b, mean_b, batch_b = power(1, t)
        ab = a * b
        est = float(np.mean(ab) - mean_a * mean_b)
        batch = _batch_means(ab, rows) - batch_a * batch_b
        se = float(np.std(batch, ddof=1) / math.sqrt(_N_BATCHES))
        return CovarianceReport(layer=layer, pair=pair, s=s, t=t,
                                estimate=est, se=se,
                                n_samples=signs.shape[0],
                                verdict=_verdict(est, se))

    return cell


def estimate_unit_covariance(config: NetworkConfig, x: np.ndarray, layer: int,
                             pair: tuple[int, int], s: int, t: int,
                             n_samples: int, seed: int,
                             workers: int = 1) -> CovarianceReport:
    """Estimate Cov[(h_m)^s, (h_m')^t] over independent weight draws.

    The two units are drawn jointly (they share each draw's upstream
    layers), which is exactly the dependence the sign verdict probes. The
    draws are those of the same pair and layer in sweep, so the report
    equals the matching sweep cell exactly.
    """
    _check_request(config, x, (layer,), pair, n_samples, workers)
    signs, lms = sample_joint_units(
        config, x, layer, pair, "post", n_samples,
        entropy_prefix(seed, STREAM_COVARIANCE, *pair), workers=workers)
    return _layer_cells(signs, lms, layer, tuple(pair))(s, t)


@dataclass
class SweepResult:
    reports: list[CovarianceReport]
    errors: list[tuple[int, int, int, str]]  # (layer, s, t, message)

    def summary(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.reports:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        if self.errors:
            out["error"] = len(self.errors)
        return out

    def violations(self) -> list[CovarianceReport]:
        return [r for r in self.reports if r.verdict == "violation"]


def sweep(config: NetworkConfig, x: np.ndarray, layers, powers,
          n_samples: int, seed: int, pair: tuple[int, int] = (0, 1),
          workers: int = 1) -> SweepResult:
    """Grid of covariance reports over layers x powers.

    One sampler pass draws the pair at every requested layer, and every
    (layer, s, t) cell is scored from those draws, so each cell equals
    estimate_unit_covariance of the same arguments exactly. Cells of one
    sweep share draws, so they are not independent; each cell's batch-mean
    standard error stays valid, and no check relies on independence between
    cells. Request problems (a pair not of two distinct units, too few
    samples, no layers, units or layers not integers in range, a bad seed)
    raise ValueError before any draw; per-cell ones (moment overflow,
    invalid powers) are recorded. A repeated layer is scored once.
    """
    needs = _check_request(config, x, layers, pair, n_samples, workers)
    # looked up on the module, so a wrapped run_sampler sees this pass too
    draws = network_model.run_sampler(
        config, x, n_samples, needs,
        entropy_prefix(seed, STREAM_COVARIANCE, *pair), "post",
        workers=workers)
    reports: list[CovarianceReport] = []
    errors: list[tuple[int, int, int, str]] = []
    for layer, (signs, lms) in draws.items():
        cell = _layer_cells(signs, lms, layer, tuple(pair))
        for s, t in powers:
            try:
                reports.append(cell(s, t))
            except (MomentOverflowError, ValueError) as exc:
                errors.append((layer, s, t, str(exc)))
    return SweepResult(reports=reports, errors=errors)
