"""Max and average pooling over unit samples, plus the tail-invariance
check: pooling a region of same-layer units does not change the optimal
tail parameter. Convolutional regions are treated as fully-connected maps
on the flattened region, so this module doubles as the convolutional case.

Pooling of sampled units runs in the (sign, log-magnitude) encoding so
deep-layer samples never leave log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network_model import (STREAM_POOLING, NetworkConfig, UnitSampleSet,
                            entropy_prefix, sample_joint_units)
from .tail_analysis import TailEstimate, estimate_theta_moments, moment_curve


@dataclass(frozen=True)
class PoolingSpec:
    kind: str
    region_size: int

    def __post_init__(self):
        if self.kind not in ("max", "average"):
            raise ValueError(f"pooling kind must be 'max' or 'average', got {self.kind!r}")
        if self.region_size < 1:
            raise ValueError("region_size must be >= 1")


def pool_signed_log(signs: np.ndarray, lms: np.ndarray, spec: PoolingSpec):
    """Row-wise pooling of (n, R) sign/log-magnitude arrays, in log domain.

    Max pooling orders by signed value (any positive beats any zero beats
    any negative); average pooling is a signed log-sum-exp divided by R.
    """
    signs = np.asarray(signs)
    lms = np.asarray(lms, dtype=float)
    if signs.shape != lms.shape or signs.ndim != 2:
        raise ValueError("expected matching (n, R) arrays")
    if signs.shape[1] != spec.region_size:
        raise ValueError(f"expected region of {spec.region_size} units")

    if spec.kind == "max":
        any_pos = np.any(signs > 0, axis=1)
        any_zero = np.any(signs == 0, axis=1)
        pos_lm = np.max(np.where(signs > 0, lms, -np.inf), axis=1)
        neg_lm = np.min(np.where(signs < 0, lms, np.inf), axis=1)
        out_s = np.where(any_pos, 1, np.where(any_zero, 0, -1)).astype(np.int8)
        out_lm = np.where(any_pos, pos_lm, np.where(any_zero, -np.inf, neg_lm))
        return out_s, out_lm

    m = np.max(lms, axis=1)
    finite = ~np.isneginf(m)
    ssum = np.zeros(signs.shape[0])
    if np.any(finite):
        shifted = np.exp(lms[finite] - m[finite, None]) * signs[finite]
        ssum[finite] = np.sum(shifted, axis=1)
    out_s = np.sign(ssum).astype(np.int8)
    with np.errstate(divide="ignore"):
        out_lm = np.where(finite & (ssum != 0),
                          m + np.log(np.abs(ssum)) - math.log(spec.region_size),
                          -np.inf)
    return out_s, out_lm


@dataclass(frozen=True)
class PoolCheck:
    before: TailEstimate
    after: TailEstimate
    passes: bool
    budget: float


def pooled_tail_check(config: NetworkConfig, x: np.ndarray, layer: int,
                      region, spec: PoolingSpec, n_samples: int, seed: int,
                      k_min: int = 2, k_max: int = 10,
                      workers: int = 1) -> PoolCheck:
    """Tail parameter before vs after pooling a region of post units.

    Both estimates use the same joint draws (the "before" unit is the
    first of the region), which correlates them and tightens the
    difference. Passes iff |theta_after - theta_before| is within the sum
    of the two standard errors plus 0.1.
    """
    region = [int(r) for r in region]
    if len(set(region)) != len(region):
        raise ValueError("region indices must be distinct")
    if len(region) != spec.region_size:
        raise ValueError("region length must equal spec.region_size")
    entropy = entropy_prefix(seed, STREAM_POOLING, layer, *region)
    signs, lms = sample_joint_units(config, x, layer, region, "post",
                                    n_samples, entropy, workers=workers)
    before_set = UnitSampleSet(layer=layer, kind="post", unit_index=region[0],
                               signs=signs[:, 0].copy(),
                               log_magnitudes=lms[:, 0].copy())
    ps, plm = pool_signed_log(signs, lms, spec)
    after_set = UnitSampleSet(layer=layer, kind=f"pooled-{spec.kind}",
                              unit_index=region[0], signs=ps,
                              log_magnitudes=plm)
    before = estimate_theta_moments(moment_curve(before_set, k_min, k_max))
    after = estimate_theta_moments(moment_curve(after_set, k_min, k_max))
    budget = before.se_theta + after.se_theta + 0.1
    passes = abs(after.theta_hat - before.theta_hat) <= budget
    return PoolCheck(before=before, after=after, passes=passes, budget=budget)
