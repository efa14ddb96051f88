"""Max and average pooling over unit samples, plus the tail-invariance
check: pooling a region of same-layer units does not change the optimal
tail parameter. A region is units of one fully-connected layer, which
assumes independent weights at each position: given the layer below, the
region's units are then i.i.d. A convolutional region is not covered; its
positions share one filter, so they are correlated given the layer below.

Pooling of sampled units runs in the (sign, log-magnitude) encoding so
deep-layer samples never leave log domain. The check streams its draws:
one sampler pass pools each chunk by max and by average and folds the
first unit and both pooled units into their moment curves as it goes, so
it holds one chunk and three leaves, never the draws of its request.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import is_int
from .network_model import (STREAM_POOLING, NetworkConfig, _exp,
                            _finite_lanes, check_request, entropy_prefix,
                            sample_chunks)
from .tail_analysis import CurveFold, TailEstimate, estimate_theta_moments
# pooled_tail_check folds a sampler pass and calls neither of these; they
# stay bound because perfbench/tracer.py wraps them here by name
from .network_model import sample_joint_units  # noqa: F401
from .tail_analysis import moment_curve  # noqa: F401


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


# The last request's key -> {"before": ..., "max": ..., "average": ...}:
# the first unit's TailEstimate and each pooled unit's, or the error its
# fit raised. The max and average checks of one region make the same
# request, and one pass folds all three, so the second check draws nothing
_kept = {}


def _fit(fold: CurveFold):
    """fold's moment-slope estimate, or the ValueError the fit raised
    (every error of moment_curve and estimate_theta_moments is one): it
    belongs to the calls that ask for this unit, not to the pass."""
    try:
        return estimate_theta_moments(fold.curve())
    except ValueError as err:
        # without its traceback, whose frames would keep the pass's
        # buffers alive as long as the entry
        return err.with_traceback(None)


def _fits(config, x, layer, region, n_samples, entropy) -> dict:
    """One sampler pass of a pooling request, folded as it is drawn: each
    chunk's first column into the "before" fold, and the chunk pooled by
    each kind into that kind's fold. The chunks are column-major, so the
    first column is contiguous and pooling reduces whole columns."""
    specs = [PoolingSpec(kind, len(region)) for kind in ("max", "average")]
    source = f"layer={layer} kind={{}} unit={region[0]}"
    folds = {"before": CurveFold(n_samples, 2, 10, source.format("post"))}
    for spec in specs:
        folds[spec.kind] = CurveFold(n_samples, 2, 10,
                                     source.format(f"pooled-{spec.kind}"))
    for cols in sample_chunks(config, x, n_samples, {layer: region}, entropy,
                              "post", 1):
        signs, lms = cols[layer]
        folds["before"].add(lms[:, 0])
        for spec in specs:
            folds[spec.kind].add(pool_signed_log(signs, lms, spec)[1])
    for fold in folds.values():
        fold.finish()
    return {name: _fit(fold) for name, fold in folds.items()}


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
    checks it. One sampler pass folds the "before" unit and the region
    pooled by max and by average (_fits), and the module keeps the three
    results of the last request, keyed on every argument but spec, so
    average after max draws nothing. The entry holds no draws: three
    estimates, or the errors their fits raised; a fit's error is raised
    by the calls that need that estimate alone. The results never depend
    on the entry. A pass holds one chunk of draws and its two pooled
    units, and three leaf buffers of 256 KiB (CurveFold), whatever
    n_samples: moment_curve and estimate_theta_moments on the held arrays,
    bit for bit.
    """
    if len(region) != spec.region_size:
        raise ValueError("region length must equal spec.region_size")
    # checked before the lookup: 0.0 == 0 and True == 1 hash alike
    x = check_request(config, x, n_samples, {layer: region}, "post", 1)
    entropy = entropy_prefix(seed, STREAM_POOLING, layer, *region)
    key = (config, x.tobytes(), tuple(int(v) for v in entropy), int(n_samples))
    if key not in _kept:
        _kept.clear()
        _kept[key] = _fits(config, x, layer, region, n_samples, entropy)
    fits = _kept[key]
    before, after = fits["before"], fits[spec.kind]
    for fit in (before, after):
        if isinstance(fit, ValueError):
            # a copy, so the kept error holds no frames of this call
            raise copy.copy(fit)
    # each caller gets its own diagnostics dicts
    before, after = (replace(e, diagnostics=dict(e.diagnostics))
                     for e in (before, after))
    budget = before.se_theta + after.se_theta + 0.1
    passes = abs(after.theta_hat - before.theta_hat) <= budget
    return PoolCheck(before=before, after=after, passes=passes, budget=budget)
