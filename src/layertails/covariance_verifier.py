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
from .network_model import (STREAM_COVARIANCE, NetworkConfig, entropy_prefix,
                            sample_joint_units)

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
    n_batches: int = _N_BATCHES

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


def _cell(signs: np.ndarray, lms: np.ndarray, layer: int,
          pair: tuple[int, int], s: int, t: int) -> CovarianceReport:
    """Cov[(h_m)^s, (h_m')^t] of one layer's joint draws, given as
    (n, 2) signs and log-magnitudes of the pair's post units."""
    _check_powers(s, t)
    n_samples = signs.shape[0]
    lm_a, lm_b = lms[:, 0], lms[:, 1]
    top_a = float(np.max(lm_a))
    top_b = float(np.max(lm_b))
    # Refuse powers whose products (or their squares, formed inside the
    # batch-mean std) cannot be represented; the estimate would be
    # meaningless anyway.
    if (s * top_a > _LOG_DOUBLE_MAX or t * top_b > _LOG_DOUBLE_MAX
            or s * top_a + t * top_b > _LOG_SQUARE_MAX):
        raise MomentOverflowError(
            f"(s, t) = ({s}, {t}) at layer {layer}: moment of order "
            f"2({s}+{t}) exceeds double precision; use smaller powers")
    a = signs[:, 0] * np.exp(s * lm_a) if s % 2 else np.exp(s * lm_a)
    b = signs[:, 1] * np.exp(t * lm_b) if t % 2 else np.exp(t * lm_b)

    est = float(np.mean(a * b) - np.mean(a) * np.mean(b))
    bounds = np.linspace(0, n_samples, _N_BATCHES + 1).astype(int)
    batch = np.empty(_N_BATCHES)
    for i in range(_N_BATCHES):
        sl = slice(bounds[i], bounds[i + 1])
        batch[i] = np.mean(a[sl] * b[sl]) - np.mean(a[sl]) * np.mean(b[sl])
    se = float(np.std(batch, ddof=1) / math.sqrt(_N_BATCHES))
    return CovarianceReport(layer=layer, pair=pair, s=s, t=t,
                            estimate=est, se=se, n_samples=n_samples,
                            verdict=_verdict(est, se))


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
    return _cell(signs, lms, layer, tuple(pair), s, t)


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
    for layer, cell in draws.items():
        for s, t in powers:
            try:
                reports.append(_cell(*cell, layer, tuple(pair), s, t))
            except (MomentOverflowError, ValueError) as exc:
                errors.append((layer, s, t, str(exc)))
    return SweepResult(reports=reports, errors=errors)
