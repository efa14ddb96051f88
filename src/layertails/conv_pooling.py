"""Max and average pooling over unit samples, plus the tail-invariance
check: pooling a region of same-layer units does not change the optimal
tail parameter. A region is units of one fully-connected layer, which
assumes independent weights at each position: given the layer below, the
region's units are then i.i.d. A convolutional region is not covered; its
positions share one filter, so they are correlated given the layer below.

Pooling of sampled units runs in the (sign, log-magnitude) encoding so
deep-layer samples never leave log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import is_int
from .network_model import (STREAM_POOLING, NetworkConfig, UnitSampleSet,
                            _exp, _finite_lanes, check_request,
                            entropy_prefix, sample_joint_units)
from .tail_analysis import TailEstimate, estimate_theta_moments, moment_curve


@dataclass(frozen=True)
class PoolingSpec:
    kind: str
    region_size: int

    def __post_init__(self):
        if self.kind not in ("max", "average"):
            raise ValueError(f"pooling kind must be 'max' or 'average', got {self.kind!r}")
        if not (is_int(self.region_size) and self.region_size >= 1):
            raise ValueError("region_size must be an integer >= 1")


def _reduce_rows(ufunc, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=1) of an (n, R) array into out, one column at a
    time, for an exact ufunc (maximum, minimum). np.max(a, axis=1) of
    10^5 x 4 doubles takes 6.6 ms row-major and 0.2 ms column-major
    (numpy 2.4); this loop 0.7 and 0.2 ms."""
    out[...] = a[:, 0]
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


# Entries per block of pool_signed_log: 2^16, 512 KiB of doubles
_POOL_BLOCK = 1 << 16


def _max_rows(s, lm, out_s, out_lm, top):
    """Max pooling of one block of rows into out_s and out_lm; top is a
    row-long scratch array of s's dtype."""
    np.sign(_reduce_rows(np.maximum, s, top), out=out_s, casting="unsafe")
    # the largest log-magnitude of a row's positive entries, which stays
    # -inf in a row that has none: the answer where out_s >= 0
    out_lm.fill(-np.inf)
    for j in range(s.shape[1]):
        np.maximum(out_lm, lm[:, j], out=out_lm, where=s[:, j] > 0)
    # a row of negative entries takes its least log-magnitude
    neg = np.flatnonzero(out_s < 0)
    if neg.size:
        out_lm[neg] = _reduce_rows(np.minimum, lm[neg], np.empty(neg.size))


def _average_rows(s, lm, out_s, out_lm, ssum):
    """Average pooling of one block of rows into out_s and out_lm; ssum is
    a row-long scratch array of doubles."""
    R = s.shape[1]
    m = _reduce_rows(np.maximum, lm, out_lm)
    finite = ~np.isneginf(m)
    # a row of exact zeros is shifted by 0: its entries stay -inf, sum to 0
    shift = np.where(finite, m, 0.0)
    if R < 8:
        ssum.fill(0.0)
        for j in range(R):
            col = np.subtract(lm[:, j], shift)
            _exp(col, _finite_lanes(col))
            col *= s[:, j]
            ssum += col
    else:
        block = np.subtract(lm, shift[:, None], order="C")
        _exp(block, _finite_lanes(block))
        np.multiply(block, s, out=block)
        np.sum(block, axis=1, out=ssum)
    np.sign(ssum, out=out_s, casting="unsafe")
    ok = finite & (ssum != 0)
    # m + log|ssum| - log R, in out_lm
    with np.errstate(divide="ignore"):
        m += np.log(np.abs(ssum, out=ssum), out=ssum)
    m -= math.log(R)
    np.copyto(m, -np.inf, where=~ok)


def pool_signed_log(signs: np.ndarray, lms: np.ndarray, spec: PoolingSpec):
    """Row-wise pooling of (n, R) sign/log-magnitude arrays, in log domain.

    Max pooling orders by signed value (any positive beats any zero beats
    any negative); average pooling is a signed log-sum-exp divided by R.
    Beside its input and its two (n,) outputs it holds the working arrays
    of one block of _POOL_BLOCK entries (_POOL_BLOCK // R rows), which it
    reduces column by column and writes straight into the outputs. Max
    pooling takes the least log-magnitude of its all-negative rows alone.
    For R < 8 the average adds a row's terms left to right from +0.0,
    which is numpy's row sum of fewer than 8 entries; from R = 8 on numpy
    sums a row pairwise, so the block is made row-major and summed by
    np.sum(axis=1). Every step is elementwise or sums within a row, so
    either layout and any block edge give the same bytes.
    """
    signs = np.asarray(signs)
    lms = np.asarray(lms, dtype=float)
    if signs.shape != lms.shape or signs.ndim != 2:
        raise ValueError("expected matching (n, R) arrays")
    n, R = signs.shape
    if R != spec.region_size:
        raise ValueError(f"expected region of {spec.region_size} units")
    out_s = np.empty(n, np.int8)
    out_lm = np.empty(n)
    step = max(1, _POOL_BLOCK // R)
    if spec.kind == "max":
        pool, work = _max_rows, np.empty(min(n, step), signs.dtype)
    else:
        pool, work = _average_rows, np.empty(min(n, step))
    for a in range(0, n, step):
        rows = slice(a, a + step)
        pool(signs[rows], lms[rows], out_s[rows], out_lm[rows],
             work[:min(step, n - a)])
    return out_s, out_lm


@dataclass(frozen=True)
class PoolCheck:
    before: TailEstimate
    after: TailEstimate
    passes: bool
    budget: float


# The last request's key -> (signs, lms, before): the max and average
# checks of one region make the same request, so the second one only pools
_kept = {}


def _draw(config, x, layer, region, n_samples, entropy):
    """The read-only joint draws of a pooling request and the "before"
    estimate of its first unit, read from views of their first column
    (contiguous: the sampler's arrays are column-major)."""
    signs, lms = sample_joint_units(config, x, layer, region, "post",
                                    n_samples, entropy)
    signs.flags.writeable = lms.flags.writeable = False
    before_set = UnitSampleSet(layer=layer, kind="post", unit_index=region[0],
                               signs=signs[:, 0], log_magnitudes=lms[:, 0])
    return signs, lms, estimate_theta_moments(moment_curve(before_set))


def pooled_tail_check(config: NetworkConfig, x: np.ndarray, layer: int,
                      region, spec: PoolingSpec, n_samples: int,
                      seed: int) -> PoolCheck:
    """Tail parameter before vs after pooling a region of post units.

    Both estimates use the same joint draws (the "before" unit is the
    first of the region), which correlates them and tightens the
    difference. Both fit moment_curve's default window, k in [2, 10], and
    the draws run on one thread. Passes iff |theta_after - theta_before|
    is within the sum of the two standard errors plus 0.1.

    Every argument is checked first, as network_model.check_request
    checks it. The module keeps the draws and "before" estimate of the
    last request, keyed on every argument but spec, so average after max
    only pools. The entry holds n_samples x len(region) int8 signs and
    float64 log-magnitudes (3.6 MB at 10^5 draws of 4 units) and is freed
    before any other request draws. Results never depend on it. Beyond
    the entry a call holds the pooled unit's two arrays and working memory
    of a chunk or a block: the sampler applies the activation a chunk at a
    time, the "before" unit is a view of the first column, pooling runs a
    block of rows at a time, and the moment curves a leaf of draws.
    """
    if len(region) != spec.region_size:
        raise ValueError("region length must equal spec.region_size")
    # checked before the lookup: 0.0 == 0 and True == 1 hash alike
    x = check_request(config, x, n_samples, {layer: region}, "post", 1)
    entropy = entropy_prefix(seed, STREAM_POOLING, layer, *region)
    key = (config, x.tobytes(), tuple(int(v) for v in entropy), int(n_samples))
    if key not in _kept:
        _kept.clear()  # free the old draws before drawing new ones
        _kept[key] = _draw(config, x, layer, region, n_samples, entropy)
    signs, lms, before = _kept[key]
    # each caller gets its own diagnostics dict
    before = replace(before, diagnostics=dict(before.diagnostics))
    ps, plm = pool_signed_log(signs, lms, spec)
    after_set = UnitSampleSet(layer=layer, kind=f"pooled-{spec.kind}",
                              unit_index=region[0], signs=ps,
                              log_magnitudes=plm)
    after = estimate_theta_moments(moment_curve(after_set))
    budget = before.se_theta + after.se_theta + 0.1
    passes = abs(after.theta_hat - before.theta_hat) <= budget
    return PoolCheck(before=before, after=after, passes=passes, budget=budget)
