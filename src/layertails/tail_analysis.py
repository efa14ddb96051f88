"""Tail-parameter estimation from Monte-Carlo unit samples.

A random variable X is sub-Weibull with tail parameter theta when
P(|X| >= x) <= a exp(-x^(1/theta)); the optimal (smallest) theta is
characterized by the moment growth ||X||_k ~ k^theta, where
||X||_k = (E|X|^k)^(1/k). Two estimators are implemented:

moment-slope: regress log||X||_k on log k over integer k in a window.
The k^theta law is asymptotic; over desk-scale windows (k <= 10 or so)
the next-order Stirling terms are not negligible. For the Weibull(theta)
family itself, log E|X|^k = log Gamma(1 + theta k) =
theta k log k + b k + c log k + d + O(1/k), so the per-k log-norm is

    log||X||_k = theta log k + b + c (log k)/k + d/k + O(1/k^2).

Fitting that four-term model recovers the asymptotic slope from small k
(Gaussian 0.51, Exponential 0.99, Weibull(2) 0.48 on exact curves over
k in [2,10], against true values 0.5, 1.0, 0.5); the plain two-term fit
underestimates badly (0.42, 0.66, 0.29), so the four-term model is the
only one fitted.

survival-slope: a Weibull plot. On the top tail_fraction order
statistics regress log(-log S(x)) on log x; the slope estimates 1/theta.

All moment arithmetic runs in log domain (log-sum-exp), so samples whose
k-th powers overflow double precision are handled exactly.

The exact references (log-Gamma ratios, the Gaussian log-survival and
binomial tails of grid counts) use numpy and the standard library's math
only; the tests check each one against scipy over its whole domain of use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import DegenerateDistributionError, check_positive, is_int
from .network_model import (STREAM_SYNTHETIC, UnitSampleSet, _exp,
                            _finite_lanes, _generator, entropy_prefix)

# Additive slack in recursion_check, per estimator.
METHOD_TOLERANCE = {"moment-slope": 0.15, "survival-slope": 0.2}

# The fewest draws, moment orders k and tail draws the estimators accept.
MIN_SAMPLES = 100
MIN_ORDERS = 4
MIN_TAIL = 200

# IQR of the standard normal, 2 * Phi^{-1}(3/4).
_NORMAL_IQR = 2.0 * NormalDist().inv_cdf(0.75)

# The two-sided 3-sigma rate 2 Phi_bar(3).
_THREE_SIGMA_RATE = math.erfc(3.0 / math.sqrt(2.0))

# Points of the shared survival grid.
_SURVIVAL_GRID = 400

# Entries per block of the moment and tail passes: 2^15 doubles, 256 KiB,
# which stays in a core's L2 cache. The bytes do not depend on it (see
# _block_sums and _largest), only the working memory and the speed.
_LEAF = 1 << 15


def as_sample_set(obj) -> UnitSampleSet:
    """Coerce a raw value array into a UnitSampleSet (layer 0, synthetic)."""
    if isinstance(obj, UnitSampleSet):
        return obj
    v = np.asarray(obj, dtype=float)
    if v.ndim != 1:
        raise ValueError("sample values must be a 1-d array")
    if not np.all(np.isfinite(v)):
        raise ValueError("sample values must be finite")
    with np.errstate(divide="ignore"):
        lm = np.log(np.abs(v))
    return UnitSampleSet(layer=0, kind="pre", unit_index=0,
                         signs=np.sign(v).astype(np.int8), log_magnitudes=lm)


def synthetic_values(family: str, n: int, seed: int, sigma: float = 1.0,
                     shape: float = 1.0) -> UnitSampleSet:
    """Reference draws for estimator calibration, as a layer-0 sample set.

    family "gaussian": N(0, sigma^2); "exponential": Exp(1) (sub-Weibull
    theta = 1); "weibull": survival exp(-x^shape) (theta = 1/shape).
    """
    codes = {"gaussian": 0, "exponential": 1, "weibull": 2}
    if family not in codes:
        raise ValueError(f"unknown synthetic family {family!r}")
    if not (is_int(n) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    rng = _generator(entropy_prefix(seed, STREAM_SYNTHETIC, codes[family]))
    if family == "gaussian":
        v = sigma * rng.standard_normal(n)
    elif family == "exponential":
        v = rng.standard_exponential(n)
    else:
        v = rng.weibull(shape, n)
    return as_sample_set(v)


@dataclass(frozen=True)
class MomentCurve:
    """(k, log||X||_k, se) triples for integer k."""

    ks: np.ndarray
    log_norms: np.ndarray
    ses: np.ndarray
    n_samples: int
    source_id: str = ""

    def __post_init__(self):
        if not (len(self.ks) == len(self.log_norms) == len(self.ses)):
            raise ValueError("curve arrays must have equal length")
        if np.any(np.diff(self.ks) <= 0):
            raise ValueError("k must be strictly increasing")


@dataclass(frozen=True)
class TailEstimate:
    theta_hat: float
    se_theta: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.theta_hat) and self.theta_hat > 0):
            raise ValueError("theta_hat must be positive and finite")
        if self.se_theta < 0:
            raise ValueError("se_theta must be >= 0")


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    if m == -np.inf:
        return -np.inf
    return m + math.log(float(np.sum(np.exp(a - m))))


def _log_norms(s: UnitSampleSet, ks) -> list[tuple[float, float]]:
    """(log||X||_k, se) for each integer k in ks; see empirical_log_norm.

    Every moment is a log-sum-exp with the operations of _logsumexp in the
    same order (its exp through _exp), so the values equal it bit for bit;
    an order shared by k and some other 2k is taken once. Rounding is
    monotone, so max(order * lm) = order * max(lm), read once.

    The draws are read in blocks of at most _LEAF entries: one buffer and
    one _finite_lanes mask of that size are the working memory, whatever
    n. Each block is scaled, shifted, exponentiated and summed for every
    order while it is in cache, and the block sums are added in numpy's
    pairwise order (_block_sums), so each sum is np.sum's over the whole
    buffer, bit for bit.
    """
    lm = s.log_magnitudes
    n = lm.shape[0]
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    top = float(np.max(lm))
    if top == -np.inf:
        raise DegenerateDistributionError("all samples are zero")
    orders = sorted({*ks, *(2 * k for k in ks)})
    shifts = [order * top for order in orders]
    buf = np.empty(min(n, _LEAF))

    def leaf(block: np.ndarray) -> np.ndarray:
        finite = _finite_lanes(block)
        b = buf[:block.size]
        out = np.empty(len(orders))
        for j, (order, m) in enumerate(zip(orders, shifts)):
            np.multiply(block, order, out=b)
            np.subtract(b, m, out=b)
            _exp(b, finite)
            out[j] = np.sum(b)
        return out

    logs = {order: m + math.log(float(t)) - math.log(n)
            for order, m, t in zip(orders, shifts, _block_sums(lm, leaf))}
    out = []
    for k in ks:
        log_mk, log_m2k = logs[k], logs[2 * k]
        delta = min(log_m2k - 2.0 * log_mk, math.log(n))
        se = math.sqrt(math.expm1(max(delta, 0.0))) / (k * math.sqrt(n))
        out.append((log_mk / k, se))
    return out


def _block_sums(a, leaf) -> np.ndarray:
    """leaf(a) for a block of at most _LEAF entries; a longer a is split
    where numpy's pairwise summation splits it, at n2 = n//2 - (n//2) % 8,
    and the halves' results are added. a is an array, or a range whose
    slices leaf reads as the positions of a block.

    When leaf returns np.sum of some elementwise function of its block,
    the result is np.sum of that function over all of a, bit for bit.
    This rests on how numpy sums a float64 array: pairwise (since numpy
    1.9), splitting every node of more than 128 entries at n2 and summing
    smaller ones in a fixed 8-way loop. A node of at most _LEAF entries
    summed by np.sum is then the same node summed inside np.sum of the
    whole; the tests check it against the installed numpy.
    """
    n = len(a)
    if n <= _LEAF:
        return leaf(a)
    n2 = n // 2 - (n // 2) % 8
    return _block_sums(a[:n2], leaf) + _block_sums(a[n2:], leaf)


def empirical_log_norm(samples, k: int) -> tuple[float, float]:
    """log||X||_k and its delta-method standard error, fully in log domain.

    se(log||X||_k) = sqrt(m_2k/m_k^2 - 1) / (k sqrt(n)) computed as
    sqrt(expm1(log m_2k - 2 log m_k)) / (k sqrt(n)); the bracketed
    difference never exceeds log n for empirical moments, so the result
    is finite even when the 2k-th moment is dominated by one sample.
    """
    s = as_sample_set(samples)
    if not (is_int(k) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return _log_norms(s, [k])[0]


def gaussian_norm_oracle(sigma: float, k: int) -> float:
    """Exact ||X||_k for X ~ N(0, sigma^2).

    E|X|^k = sigma^k 2^(k/2) Gamma((k+1)/2) / sqrt(pi), evaluated through
    log-Gamma and exponentiated after the k-th root.
    """
    check_positive(sigma=sigma)
    if not (is_int(k) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    log_moment = 0.5 * k * math.log(2.0) + math.lgamma((k + 1) / 2.0) \
        - 0.5 * math.log(math.pi)
    return sigma * math.exp(log_moment / k)


def relu_norm_oracle(widths, layer: int, k: int, scale: float = 1.0) -> float:
    """Exact ||g_l||_k of a pre-nonlinearity unit of a bias-free relu network.

    widths are the layer widths H_1, H_2, ...; layer-1 units are
    N(0, scale^2) and later weights have std 1 (a weight std sigma_i at
    layer i >= 2 multiplies the result by sigma_i; fold it into scale).
    Given the layers below, g_l = r_l Z with Z ~ N(0, 1) and
    r_l^2 = scale^2 prod_{i<l} S_i, where S_i = chi2 with N_i ~ Bin(H_i, 1/2)
    degrees of freedom, all independent. Hence

        E|g_l|^k = scale^k E|Z|^k prod_{i<l} E[S_i^(k/2)],
        E[S^(k/2)] = sum_N P(N) 2^(k/2) Gamma((N+k)/2) / Gamma(N/2),

    a finite sum in which the N = 0 term vanishes. Evaluated in log domain,
    so k in the thousands is fine. log P(N) sums the ratios
    C(H, N) / C(H, N - 1) = (H - N + 1) / N.
    """
    widths = tuple(widths)
    if not all(is_int(w) and w >= 1 for w in widths):
        raise ValueError(f"widths must be integers >= 1, got {widths!r}")
    if not (is_int(layer) and 1 <= layer <= len(widths)):
        raise ValueError(f"layer {layer!r} out of range 1..{len(widths)}")
    check_positive(scale=scale)
    # gaussian_norm_oracle checks k before any use
    log_moment = k * math.log(gaussian_norm_oracle(scale, k))
    for H in widths[:layer - 1]:
        n = np.arange(1, H + 1)
        log_pmf = np.cumsum(np.log((H - n + 1) / n)) - H * math.log(2.0)
        log_moment += _logsumexp(log_pmf + 0.5 * k * math.log(2.0)
                                 + _log_gamma_ratios(H, k))
    return math.exp(log_moment / k)


def _log_gamma_ratios(H: int, k: int) -> np.ndarray:
    """log Gamma((N + k) / 2) - log Gamma(N / 2) for N = 1..H.

    Four lgamma calls give N = 1 and 2; from N to N + 2 the difference
    grows by log((N + k) / N), since Gamma(x + 1) = x Gamma(x). The two
    chains are the columns of one running sum.
    """
    terms = np.empty(H + H % 2)
    terms[0] = math.lgamma((1 + k) / 2.0) - math.lgamma(0.5)
    terms[1] = math.lgamma((2 + k) / 2.0) - math.lgamma(1.0)
    n = np.arange(1.0, H + H % 2 - 1)
    terms[2:] = np.log((n + k) / n)
    return np.cumsum(terms.reshape(-1, 2), axis=0).ravel()[:H]


def moment_curve(samples, k_min: int = 2, k_max: int = 10) -> MomentCurve:
    if not (is_int(k_min) and is_int(k_max) and 1 <= k_min < k_max):
        raise ValueError(f"need integers 1 <= k_min < k_max, got {k_min!r}, {k_max!r}")
    s = as_sample_set(samples)
    ks = range(k_min, k_max + 1)
    pairs = _log_norms(s, ks)
    src = f"layer={s.layer} kind={s.kind} unit={s.unit_index}"
    return MomentCurve(ks=np.array(ks),
                       log_norms=np.array([p[0] for p in pairs]),
                       ses=np.array([p[1] for p in pairs]),
                       n_samples=s.n_samples,
                       source_id=src)


def _wls(X, y, w):
    """Weighted least squares in plain floats, no LAPACK or BLAS call:
    (beta, var, rss), var the diagonal of (X' W X)^-1 and rss the weighted
    residual sum of squares. X is a list of K rows of p entries.

    A Householder QR of the weighted design sqrt(W) X: the reflections
    that zero each column below the diagonal also act on sqrt(W) y, so
    R beta is its first p entries and rss the sum of squares of the rest,
    and var is read from the rows of R^-1. X' W X, whose condition number
    is the square of the design's, is never formed. A design is
    rank-deficient when a diagonal entry of R is at most max(K, p) eps
    times the largest, the tolerance of numpy's lstsq.
    """
    sw = [math.sqrt(v) for v in w]
    cols = [[row[c] * s for row, s in zip(X, sw)] for c in range(len(X[0]))]
    b = [v * s for v, s in zip(y, sw)]
    p = len(cols)
    for j, c in enumerate(cols):
        # H = v v' / (alpha v_0) - I maps c[j:] to (alpha, 0, ..., 0)
        alpha = -math.copysign(math.hypot(*c[j:]), c[j])
        v = [c[j] - alpha, *c[j + 1:]]
        c[j] = alpha
        if alpha == 0.0:
            continue  # a zero column; the rank check below raises
        for d in cols[j + 1:] + [b]:
            f = math.fsum(vi * di for vi, di in zip(v, d[j:])) / (alpha * v[0])
            d[j:] = [di + f * vi for vi, di in zip(v, d[j:])]
    # R[i][j] is cols[j][i] for i <= j
    diag = [abs(c[j]) for j, c in enumerate(cols)]
    if min(diag) <= max(len(b), p) * sys.float_info.epsilon * max(diag):
        raise ValueError("singular fit: design matrix is rank-deficient")
    beta = [0.0] * p
    for i in reversed(range(p)):
        beta[i] = (b[i] - math.fsum(cols[j][i] * beta[j]
                                    for j in range(i + 1, p))) / cols[i][i]
    var = [0.0] * p
    for k in range(p):  # column k of R^-1, by back substitution
        z = [0.0] * (k + 1)
        z[k] = 1.0 / cols[k][k]
        for i in reversed(range(k)):
            z[i] = -math.fsum(cols[j][i] * z[j]
                              for j in range(i + 1, k + 1)) / cols[i][i]
        for i in range(k + 1):
            var[i] += z[i] * z[i]
    return beta, var, math.fsum(r * r for r in b[p:])


def estimate_theta_moments(curve: MomentCurve) -> TailEstimate:
    """Tail parameter from the moment curve's slope in log k.

    Weighted least squares with weights 1/se^2 and an intercept (the
    asymptotic equivalence fixes the slope, not the constant), plus
    (log k)/k and 1/k regressors that absorb the Stirling-order bias of
    small-k windows; see the module docstring. The fit runs in plain
    floats (_wls), so its result does not depend on the BLAS build or its
    thread count.
    """
    if len(curve.ks) < MIN_ORDERS:
        raise ValueError(f"curve needs at least {MIN_ORDERS} entries")
    X = [[1.0, math.log(k), math.log(k) / k, 1.0 / k]
         for k in curve.ks.astype(float).tolist()]
    w = [1.0 / (s * s) for s in np.maximum(curve.ses, 1e-12).tolist()]
    beta, var, rss = _wls(X, curve.log_norms.tolist(), w)
    theta = beta[1]
    se = math.sqrt(var[1])
    if not (math.isfinite(theta) and theta > 0):
        raise DegenerateDistributionError(
            f"fitted moment slope {theta!r} is not a positive tail parameter")
    return TailEstimate(theta_hat=theta, se_theta=se, method="moment-slope",
                        diagnostics={"weighted_rss": rss,
                                     "n_samples": curve.n_samples})


def _tail_size(n: int, tail_fraction: float) -> int:
    """The number of top order statistics a survival-slope fit uses."""
    if not (0.0 < tail_fraction < 0.5):
        raise ValueError("tail_fraction must be in (0, 0.5)")
    m = int(tail_fraction * n)
    if m < MIN_TAIL:
        raise ValueError(f"tail_fraction * n_samples must be >= {MIN_TAIL}")
    return m


def check_tail_request(n_samples: int, k_min: int, k_max: int,
                       tail_fraction: float) -> None:
    """Raise ValueError for a tail-sweep request that fails on any draws:
    too few samples, k_min, k_max not integers with 1 <= k_min and at
    least MIN_ORDERS orders in [k_min, k_max], or a bad tail fraction."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if not (is_int(k_min) and is_int(k_max)):
        raise ValueError(f"k_min and k_max must be integers, got {k_min!r}, "
                         f"{k_max!r}")
    if k_min < 1 or k_max - k_min + 1 < MIN_ORDERS:
        raise ValueError(f"need 1 <= k_min and at least {MIN_ORDERS} orders "
                         f"in [k_min, k_max], got [{k_min}, {k_max}]")
    _tail_size(n_samples, tail_fraction)


def _largest(lm: np.ndarray, m: int) -> np.ndarray:
    """The m largest entries of lm, sorted descending: a reversed view of
    one buffer of m + _LEAF doubles. Beside it the working memory is one
    block's mask and its gathered entries, at most _LEAF of each.

    The buffer's last m entries hold the m largest values of those kept so
    far; thr is the least of them. Entries of a block above thr are
    gathered into the free front, and when the next block's would not fit
    one partition keeps the m largest of the lot. An entry at or below thr
    cannot change the multiset of the m largest, and that multiset is
    unique, so the sorted result is np.sort(np.partition(lm, n - m)[n -
    m:])[::-1] entry for entry.
    """
    buf = np.empty(m + _LEAF)
    keep = buf[_LEAF:]
    keep[:] = lm[:m]
    thr = np.min(keep)
    free = _LEAF  # buf[free:_LEAF] holds the gathered entries

    def settle():
        nonlocal free, thr
        buf[free:].partition(_LEAF - free)
        free, thr = _LEAF, keep[0]

    for lo in range(m, lm.shape[0], _LEAF):
        block = lm[lo:lo + _LEAF]
        above = block > thr
        c = int(np.count_nonzero(above))
        if c > free:
            settle()
            above = block > thr
            c = int(np.count_nonzero(above))
        # a boolean index, not np.compress(out=), which copies out as well
        buf[free - c:free] = block[above]
        free -= c
    if free < _LEAF:
        settle()
    keep.sort()
    return keep[::-1]


def estimate_theta_survival(samples, tail_fraction: float = 0.1) -> TailEstimate:
    """Weibull-plot estimator on the top tail_fraction order statistics.

    Empirical survival uses Hazen plotting positions (j - 1/2)/n for the
    j-th largest magnitude; theta_hat is the reciprocal slope of
    log(-log S) on log x. The least-squares slope and its standard error
    come from centered sums (plain numpy reductions, no BLAS call), so
    the result does not depend on the BLAS thread count.

    Working memory is _largest's m + _LEAF buffer, m = int(tail_fraction
    * n), and two leaf-sized arrays: the plotting positions and the
    centered sums are formed a leaf at a time, in the order of the plain
    expressions (y - (ym + slope * xc) and so on), and summed by
    _block_sums, so each sum is np.sum's over all m entries bit for bit.
    """
    s = as_sample_set(samples)
    n = s.n_samples
    m = _tail_size(n, tail_fraction)
    top = _largest(s.log_magnitudes, m)
    if top[-1] == -np.inf:
        raise DegenerateDistributionError("tail contains exact zeros")
    if np.count_nonzero(top[1:] != top[:-1]) + 1 < 10:
        raise DegenerateDistributionError("tail collapses to fewer than 10 "
                                          "distinct points")
    xc = np.empty(min(m, _LEAF))

    def y_of(r: range) -> np.ndarray:
        # y = log(-log S) at the Hazen positions r
        y = np.arange(r.start + 0.5, r.stop)
        y /= n
        for f in (np.log, np.negative, np.log):
            f(y, out=y)
        return y

    def centered(r: range) -> np.ndarray:
        return np.subtract(top[r.start:r.stop], xm, out=xc[:len(r)])

    def means(r: range) -> np.ndarray:
        return np.array([np.sum(y_of(r)), np.sum(top[r.start:r.stop])])

    def moments(r: range) -> np.ndarray:
        x, t = centered(r), y_of(r)
        t -= ym
        t *= x
        sxy = np.sum(t)
        return np.array([np.sum(np.multiply(x, x, out=t)), sxy])

    def residuals(r: range) -> np.ndarray:
        x, t = centered(r), y_of(r)
        x *= slope
        x += ym
        np.subtract(t, x, out=t)
        t *= t
        return np.sum(t)

    ym, xm = _block_sums(range(m), means) / m
    sxx, sxy = _block_sums(range(m), moments).tolist()
    if not sxx > 0:
        raise DegenerateDistributionError("survival regression is singular")
    slope = sxy / sxx
    rss = float(_block_sums(range(m), residuals))
    se_slope = math.sqrt(rss / (m - 2) / sxx)
    if slope <= 0:
        raise DegenerateDistributionError("survival slope is not positive")
    theta = 1.0 / slope
    se_theta = se_slope / slope ** 2
    return TailEstimate(theta_hat=theta, se_theta=se_theta,
                        method="survival-slope",
                        diagnostics={"n_tail": m, "rss": rss})


@dataclass(frozen=True)
class RecursionVerdict:
    passes: bool
    difference: float
    tolerance: float


def recursion_check(est_prev: TailEstimate, est_next: TailEstimate) -> RecursionVerdict:
    """Does theta grow by 1/2 from one layer to the next?

    Passes iff |theta_next - theta_prev - 1/2| <= 2 (se_prev + se_next)
    plus a per-method tolerance.
    """
    if est_prev.method != est_next.method:
        raise ValueError("recursion_check requires estimates from the same method")
    tol = 2.0 * (est_prev.se_theta + est_next.se_theta) \
        + METHOD_TOLERANCE[est_prev.method]
    diff = est_next.theta_hat - est_prev.theta_hat
    return RecursionVerdict(passes=bool(abs(diff - 0.5) <= tol),
                            difference=diff, tolerance=tol)


def _rank(p: float, n: int) -> int:
    """The one rank rule: entry ceil(p n) - 1 of n, clipped to 0..n - 1."""
    return min(n - 1, max(0, math.ceil(p * n) - 1))


def _signed_quantile(neg: np.ndarray, n_zero: int, pos: np.ndarray, p: float):
    """Order statistic at probability p of -e^neg, n_zero zeros and e^pos
    (neg, pos: log-magnitudes sorted ascending), as a (sign, log-magnitude)
    pair so no exponentiation is needed."""
    i = _rank(p, neg.size + n_zero + pos.size)
    if i < neg.size:
        return -1, float(neg[neg.size - 1 - i])  # most negative first
    if i < neg.size + n_zero:
        return 0, -np.inf
    return 1, float(pos[i - neg.size - n_zero])


def _log_iqr(neg: np.ndarray, n_zero: int, pos: np.ndarray) -> float:
    """log(q75 - q25) of the values -e^neg, n_zero zeros and e^pos, both
    quartiles read from the sorted blocks neg and pos (_signed_quantile)."""
    s75, l75 = _signed_quantile(neg, n_zero, pos, 0.75)
    s25, l25 = _signed_quantile(neg, n_zero, pos, 0.25)
    # IQR = q75 - q25 as a log-magnitude: |q75| + |q25| when the quartiles
    # straddle 0 (a zero's -inf adds nothing), else a difference
    if s75 >= 0 >= s25:
        liqr = float(np.logaddexp(l75, l25))
    else:
        hi, lo = (l75, l25) if s75 > 0 else (l25, l75)
        liqr = hi + math.log1p(-math.exp(lo - hi)) if hi > lo else -math.inf
    if liqr == -math.inf:
        raise DegenerateDistributionError("interquartile range is zero")
    return liqr


def _binomial_tails_reach(c: np.ndarray, n: int, log_q: np.ndarray,
                          floor: float) -> bool:
    """Whether min(P(X <= c_i), P(X >= c_i)) >= floor at every point i,
    for X ~ Bin(n, q_i), q_i = e^log_q_i and 0 < c_i < n.

    A tail is at least its own term P(X = c_i), so only points whose term
    is below floor can fail. Only those are summed, rarest term first, and
    the first tail below floor decides. The sum runs over the side away
    from the mean, outward from c_i, each term the last times the ratio of
    neighbouring terms; the other side is 1 - that sum + P(X = c_i).
    """
    log_p = np.log1p(-np.exp(log_q))  # log(1 - q)
    lgamma = math.lgamma
    log_pmf = (lgamma(n + 1) + c * log_q + (n - c) * log_p
               - np.array([lgamma(k + 1) + lgamma(n - k + 1)
                           for k in c.tolist()]))
    log_floor = math.log(floor)
    for i in np.argsort(log_pmf):
        if log_pmf[i] >= log_floor + 1e-9:  # slack for the lgamma rounding
            break
        k, lq, lp = int(c[i]), float(log_q[i]), float(log_p[i])
        if k < n * math.exp(lq):  # P(X <= k): j -> j - 1 for j = k..1
            j = np.arange(k, 0, -1)
            steps = np.log(j / (n - j + 1)) + (lp - lq)
        else:  # P(X >= k): j -> j + 1 for j = k..n - 1
            j = np.arange(k, n)
            steps = np.log((n - j) / (j + 1)) + (lq - lp)
        side = log_pmf[i] + _logsumexp(np.r_[0.0, np.cumsum(steps)])
        other = math.log1p(math.exp(log_pmf[i]) - math.exp(side))
        if min(side, other) < log_floor:
            return False
    return True


def _log_gaussian_sf(u: np.ndarray) -> np.ndarray:
    """log Phi_bar(u) = log P(Z > u) for u >= 0, elementwise.

    log(erfc(u / sqrt 2) / 2) up to u = 20; beyond, where erfc heads for
    underflow, the asymptotic series Phi_bar(u) = phi(u) / u
    * (1 - 1/u^2 + 3/u^4 - ...) cut after twelve terms (the first one
    left out is below 1e-20 at u = 20). -inf once u^2 / 2 overflows.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    near = u <= 20.0
    t = (u[near] / math.sqrt(2.0)).tolist()
    out[near] = np.log(0.5 * np.array([math.erfc(v) for v in t]))
    far = u[~near]
    with np.errstate(over="ignore"):
        w = 1.0 / (far * far)
        term, series = np.ones_like(far), np.zeros_like(far)
        for i in range(1, 13):
            term = -(2 * i - 1) * w * term
            series += term
        out[~near] = (-0.5 * far * far - np.log(far)
                      - 0.5 * math.log(2.0 * math.pi) + np.log1p(series))
    return out


@dataclass
class SurvivalCurves:
    """Per-layer empirical log-survival of positive pre-nonlinearity
    samples on a common (optionally IQR-standardized) grid."""

    layers: list[int]
    grid_log: np.ndarray
    log_survival: dict[int, np.ndarray]
    counts: dict[int, np.ndarray]
    se_log_survival: dict[int, np.ndarray]
    p999_index: dict[int, int]
    n_positive: dict[int, int]
    log_iqr: dict[int, float]
    standardized: bool
    gaussian_log_survival: np.ndarray | None = None

    def ordering(self) -> list[tuple[int, int, float, float, bool]]:
        """Consecutive-pair comparisons at the shallower curve's 99.9th
        percentile grid point: (shallow, deep, logS_shallow, logS_deep, ok)."""
        out = []
        for a, b in zip(self.layers, self.layers[1:]):
            j = self.p999_index[a]
            la = float(self.log_survival[a][j])
            lb = float(self.log_survival[b][j])
            ok = math.isfinite(la) and math.isfinite(lb) and lb > la
            out.append((a, b, la, lb, ok))
        return out

    def gaussian_match(self, layer: int):
        """Compare one curve to the Gaussian reference up to its own 99.9th
        percentile grid point; returns (max |z|, ok).

        max |z| is the largest gap in se_log_survival units, for display.
        The verdict is familywise: each compared grid count gets an exact
        two-sided binomial p-value against the reference survival, and the
        curve matches when the smallest one, times the number of points
        (Bonferroni), is at least 2 Phi_bar(3). On reference draws the
        whole curve is thus rejected at most as often as one 3-sigma
        Gaussian test (0.27%); a pointwise 3-se limit on max |z|
        would reject 7% of exactly Gaussian 3e4-draw curves. The price is
        power against small departures: at 3e4 draws a 2% scale error is
        rejected on 21% of seeds and a 3% one on 74%. With standardized
        curves the reference is placed by the estimated IQR, so the rate
        there is approximate.
        """
        if self.gaussian_log_survival is None:
            raise ValueError("curves were built without a Gaussian reference")
        if layer not in self.p999_index:
            raise ValueError(f"layer {layer!r} has no curve; the curves' "
                             f"layers are {self.layers}")
        j = self.p999_index[layer]
        ls = self.log_survival[layer][: j + 1]
        ref = self.gaussian_log_survival[: j + 1]
        se = self.se_log_survival[layer][: j + 1]
        c = self.counts[layer][: j + 1]
        n = self.n_positive[layer]
        good = (c > 0) & (c < n)
        z = np.abs((ls[good] - ref[good]) / se[good])
        zmax = float(np.max(z))
        # Bonferroni: 2 * tail * (number of points) >= 2 Phi_bar(3)
        floor = _THREE_SIGMA_RATE / (2.0 * int(np.count_nonzero(good)))
        return zmax, _binomial_tails_reach(c[good], n, ref[good], floor)


def survival_curves(sample_sets: dict[int, UnitSampleSet],
                    standardize: bool = True,
                    gaussian_sigma: float | None = None) -> SurvivalCurves:
    """Build comparable per-layer survival curves from pre-unit samples.

    Uses only the positive half of each (symmetric) sample. With
    standardize=True each layer is divided by its empirical interquartile
    range, computed in log domain so deep layers cannot overflow. Each
    layer's positive log-magnitudes are selected and sorted once, its
    negative ones once only when standardizing; the quartiles, median,
    99.9th and 99.95th percentiles are read from those sorted blocks. The
    Gaussian reference is the exact positive-half log-survival, log 2 +
    log Phi_bar(1.34898 u) standardized or log 2 + log Phi_bar(u / sigma)
    when gaussian_sigma is given (unstandardized only): finite where
    2 Phi_bar(u) underflows. u / sigma is formed as e^(log u - log sigma),
    so no scale overflows it.
    """
    layers = sorted(sample_sets)
    if not layers:
        raise ValueError("no sample sets given")
    if gaussian_sigma is not None:
        if standardize:
            raise ValueError("gaussian_sigma is for unstandardized curves")
        check_positive(gaussian_sigma=gaussian_sigma)
    std_logs = {}
    log_iqrs = {}
    for l in layers:
        s = sample_sets[l]
        # np.compress is a boolean index, about 4x faster (numpy 2.4); as
        # rounding is monotone, sort-then-subtract gives the reverse's bytes
        pos = np.sort(np.compress(s.signs > 0, s.log_magnitudes))
        if pos.size < 1000:
            raise DegenerateDistributionError(f"layer {l}: too few positive samples")
        liqr = 0.0
        if standardize:
            neg = np.sort(np.compress(s.signs < 0, s.log_magnitudes))
            liqr = _log_iqr(neg, s.signs.size - neg.size - pos.size, pos)
        std_logs[l] = pos - liqr
        log_iqrs[l] = liqr

    hi = max(float(v[_rank(0.9995, v.size)])
             for v in std_logs.values()) + math.log(1.05)
    # np.median of each sorted block, bit for bit: its middle entry or pair
    lo = min(float(np.mean(v[(v.size - 1) // 2:v.size // 2 + 1]))
             for v in std_logs.values()) - math.log(4.0)
    grid_log = np.linspace(lo, hi, _SURVIVAL_GRID)

    log_surv, counts, ses, p999, n_pos = {}, {}, {}, {}, {}
    for l in layers:
        v = std_logs[l]
        n = v.size
        c = n - np.searchsorted(v, grid_log, side="right")
        with np.errstate(divide="ignore"):
            log_surv[l] = np.log(c) - math.log(n)
        with np.errstate(divide="ignore"):
            ses[l] = np.sqrt(np.maximum(n - c, 0) / (n * np.maximum(c, 1)))
        counts[l] = c
        n_pos[l] = n
        x999 = float(v[_rank(0.999, n)])
        p999[l] = max(0, int(np.searchsorted(grid_log, x999, side="right")) - 1)

    ref = None
    if standardize:
        ref = math.log(2.0) + _log_gaussian_sf(_NORMAL_IQR * np.exp(grid_log))
    elif gaussian_sigma is not None:
        ref = math.log(2.0) + _log_gaussian_sf(
            np.exp(grid_log - math.log(gaussian_sigma)))

    return SurvivalCurves(layers=layers, grid_log=grid_log,
                          log_survival=log_surv, counts=counts,
                          se_log_survival=ses, p999_index=p999,
                          n_positive=n_pos, log_iqr=log_iqrs,
                          standardized=standardize,
                          gaussian_log_survival=ref)
