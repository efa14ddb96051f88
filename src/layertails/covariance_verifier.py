"""Monte-Carlo verification that same-layer hidden units have non-negative
covariance between integer powers, Cov[(h_m)^s, (h_m')^t] >= 0, with exact
independence (zero covariance) at layer 1.

The verdict convention turns the one-sided statement into something
testable: "violation" only when the estimate falls below -3 standard
errors, "zero-consistent" when within 3, "nonnegative-consistent"
otherwise. Standard errors come from batch means over 32 contiguous
batches, so they honor any dependence the estimator introduces within a
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MomentOverflowError
from .network_model import STREAM_COVARIANCE, NetworkConfig, sample_joint_units

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


def estimate_unit_covariance(config: NetworkConfig, x: np.ndarray, layer: int,
                             pair: tuple[int, int], s: int, t: int,
                             n_samples: int, seed: int,
                             workers: int = 1) -> CovarianceReport:
    """Estimate Cov[(h_m)^s, (h_m')^t] over independent weight draws.

    The two units are drawn jointly (they share each draw's upstream
    layers), which is exactly the dependence the sign verdict probes.
    """
    if s < 1 or t < 1 or int(s) != s or int(t) != t:
        raise ValueError("powers s, t must be integers >= 1")
    m, mp = int(pair[0]), int(pair[1])
    if m == mp:
        raise ValueError("pair must name two distinct units")
    if n_samples < 10_000:
        raise ValueError("need n_samples >= 10^4")
    entropy = (int(seed), STREAM_COVARIANCE, layer, m, mp, int(s), int(t))
    signs, lms = sample_joint_units(config, x, layer, (m, mp), "post",
                                    n_samples, entropy, workers=workers)
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
    return CovarianceReport(layer=layer, pair=(m, mp), s=int(s), t=int(t),
                            estimate=est, se=se, n_samples=n_samples,
                            verdict=_verdict(est, se))


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

    Each cell draws its own independent sample stream; per-cell errors
    (for example moment overflow at large powers) are recorded and the
    sweep continues.
    """
    reports: list[CovarianceReport] = []
    errors: list[tuple[int, int, int, str]] = []
    for layer in layers:
        for s, t in powers:
            try:
                reports.append(estimate_unit_covariance(
                    config, x, int(layer), pair, int(s), int(t),
                    n_samples, seed, workers=workers))
            except (MomentOverflowError, ValueError) as exc:
                errors.append((int(layer), int(s), int(t), str(exc)))
    return SweepResult(reports=reports, errors=errors)
