"""Max and average pooling over unit samples, plus the tail-invariance
check: pooling a region of same-layer units does not change the optimal
tail parameter. Convolutional regions are treated as fully-connected maps
on the flattened region, so this module doubles as the convolutional case.

Pooling of sampled units runs in the (sign, log-magnitude) encoding so
deep-layer samples never leave log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import is_int
from .network_model import (DEFAULT_CHUNK, STREAM_POOLING, NetworkConfig,
                            UnitSampleSet, _exp, _finite_lanes,
                            check_request, entropy_prefix,
                            sample_joint_units)
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


def _reduce_rows(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=1) of an (n, R) array, one column at a time, for
    an exact ufunc (maximum, minimum). np.max(a, axis=1) of 10^5 x 4
    doubles takes 6.6 ms row-major and 0.2 ms column-major (numpy 2.4);
    this loop 0.7 and 0.2 ms."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def pool_signed_log(signs: np.ndarray, lms: np.ndarray, spec: PoolingSpec):
    """Row-wise pooling of (n, R) sign/log-magnitude arrays, in log domain.

    Max pooling orders by signed value (any positive beats any zero beats
    any negative); average pooling is a signed log-sum-exp divided by R.
    Beside its input it holds a few (n,) arrays, plus, for the average, one
    row-major block of DEFAULT_CHUNK rows, where that block's row sums run
    (numpy sums a row pairwise from R = 8 on). Every step is elementwise or
    sums within a row, so either layout and any block edge give the same
    bytes.
    """
    signs = np.asarray(signs)
    lms = np.asarray(lms, dtype=float)
    if signs.shape != lms.shape or signs.ndim != 2:
        raise ValueError("expected matching (n, R) arrays")
    if signs.shape[1] != spec.region_size:
        raise ValueError(f"expected region of {spec.region_size} units")

    if spec.kind == "max":
        out_s = np.sign(_reduce_rows(np.maximum, signs)).astype(np.int8)
        # the largest log-magnitude of a row's positive entries, which
        # stays -inf in a row that has none: the answer where out_s >= 0
        out_lm = np.full(signs.shape[0], -np.inf)
        for j in range(signs.shape[1]):
            np.maximum(out_lm, lms[:, j], out=out_lm, where=signs[:, j] > 0)
        # a row of negative entries takes its least log-magnitude
        np.copyto(out_lm, _reduce_rows(np.minimum, lms), where=out_s < 0)
        return out_s, out_lm

    m = _reduce_rows(np.maximum, lms)
    finite = ~np.isneginf(m)
    # a row of exact zeros is shifted by 0: its entries stay -inf, sum to 0
    shift = np.where(finite, m, 0.0)
    ssum = np.empty(signs.shape[0])
    for a in range(0, ssum.size, DEFAULT_CHUNK):
        rows = slice(a, a + DEFAULT_CHUNK)
        block = np.subtract(lms[rows], shift[rows, None], order="C")
        _exp(block, _finite_lanes(block))
        np.multiply(block, signs[rows], out=block)
        np.sum(block, axis=1, out=ssum[rows])
    out_s = np.sign(ssum).astype(np.int8)
    ok = finite & (ssum != 0)
    # m + log|ssum| - log R, in m's array
    with np.errstate(divide="ignore"):
        m += np.log(np.abs(ssum, out=ssum), out=ssum)
    m -= math.log(spec.region_size)
    np.copyto(m, -np.inf, where=~ok)
    return out_s, m


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
    the entry a call holds O(n_samples) working memory: the sampler applies
    the activation a chunk at a time, the "before" unit is a view of the
    first column, and pooling runs a column or a block of rows at a time.
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
