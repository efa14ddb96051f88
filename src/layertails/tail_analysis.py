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
underestimates badly (0.42, 0.66, 0.29). The corrected fit is the
default; correction="none" gives the plain one.

survival-slope: a Weibull plot. On the top tail_fraction order
statistics regress log(-log S(x)) on log x; the slope estimates 1/theta.

All moment arithmetic runs in log domain (log-sum-exp), so samples whose
k-th powers overflow double precision are handled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import bdtr, bdtrc, gammaln, kolmogorov, ndtr, ndtri

from .errors import DegenerateDistributionError
from .network_model import STREAM_SYNTHETIC, UnitSampleSet, entropy_prefix

# Additive slack in recursion_check, per estimator.
METHOD_TOLERANCE = {"moment-slope": 0.15, "survival-slope": 0.2}

# IQR of the standard normal, 2 * Phi^{-1}(3/4).
_NORMAL_IQR = 2.0 * float(ndtri(0.75))


def as_sample_set(obj, kind: str = "pre") -> UnitSampleSet:
    """Coerce a raw value array into a UnitSampleSet (layer 0, synthetic)."""
    if isinstance(obj, UnitSampleSet):
        return obj
    v = np.asarray(obj, dtype=float)
    if v.ndim != 1:
        raise ValueError("sample values must be a 1-d array")
    with np.errstate(divide="ignore"):
        lm = np.log(np.abs(v))
    return UnitSampleSet(layer=0, kind=kind, unit_index=0,
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy_prefix(seed, STREAM_SYNTHETIC, codes[family]))))
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

    def lyapunov_ok(self, slack_se: float = 2.0) -> bool:
        """||X||_k is non-decreasing in k; allow slack_se * se wiggle."""
        d = np.diff(self.log_norms)
        allow = slack_se * (self.ses[:-1] + self.ses[1:])
        return bool(np.all(d >= -allow))


@dataclass(frozen=True)
class TailEstimate:
    theta_hat: float
    se_theta: float
    method: str
    k_range: tuple[int, int] | None = None
    tail_fraction: float | None = None
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

    Every moment is a log-sum-exp taken in one reused buffer, with the
    operations of _logsumexp in the same order, so the values equal it
    bit for bit.
    """
    lm = s.log_magnitudes
    n = lm.shape[0]
    if n < 100:
        raise ValueError("need at least 100 samples")
    if np.all(np.isneginf(lm)):
        raise DegenerateDistributionError("all samples are zero")
    buf = np.empty(n)

    def log_moment(order: int) -> float:
        np.multiply(lm, order, out=buf)
        m = float(np.max(buf))
        if m == -np.inf:
            return -np.inf
        np.subtract(buf, m, out=buf)
        np.exp(buf, out=buf)
        return m + math.log(float(np.sum(buf))) - math.log(n)

    out = []
    for k in ks:
        log_mk = log_moment(k)
        log_m2k = log_moment(2 * k)
        delta = min(log_m2k - 2.0 * log_mk, math.log(n))
        se = math.sqrt(math.expm1(max(delta, 0.0))) / (k * math.sqrt(n))
        out.append((log_mk / k, se))
    return out


def empirical_log_norm(samples, k: int) -> tuple[float, float]:
    """log||X||_k and its delta-method standard error, fully in log domain.

    se(log||X||_k) = sqrt(m_2k/m_k^2 - 1) / (k sqrt(n)) computed as
    sqrt(expm1(log m_2k - 2 log m_k)) / (k sqrt(n)); the bracketed
    difference never exceeds log n for empirical moments, so the result
    is finite even when the 2k-th moment is dominated by one sample.
    """
    s = as_sample_set(samples)
    if int(k) != k or k < 1:
        raise ValueError("k must be an integer >= 1")
    return _log_norms(s, [int(k)])[0]


def gaussian_norm_oracle(sigma: float, k: int) -> float:
    """Exact ||X||_k for X ~ N(0, sigma^2).

    E|X|^k = sigma^k 2^(k/2) Gamma((k+1)/2) / sqrt(pi), evaluated through
    log-Gamma and exponentiated after the k-th root.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if int(k) != k or k < 1:
        raise ValueError("k must be an integer >= 1")
    k = int(k)
    log_moment = 0.5 * k * math.log(2.0) + float(gammaln((k + 1) / 2.0)) \
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
    so k in the thousands is fine.
    """
    widths = tuple(int(w) for w in widths)
    if not 1 <= layer <= len(widths):
        raise ValueError(f"layer {layer} out of range 1..{len(widths)}")
    if int(k) != k or k < 1:
        raise ValueError("k must be an integer >= 1")
    k = int(k)
    log_moment = k * math.log(gaussian_norm_oracle(scale, k))
    for H in widths[:layer - 1]:
        n = np.arange(1, H + 1)
        log_pmf = (gammaln(H + 1) - gammaln(n + 1) - gammaln(H - n + 1)
                   - H * math.log(2.0))
        log_moment += _logsumexp(log_pmf + 0.5 * k * math.log(2.0)
                                 + gammaln((n + k) / 2.0) - gammaln(n / 2.0))
    return math.exp(log_moment / k)


def moment_curve(samples, k_min: int = 2, k_max: int = 10) -> MomentCurve:
    if not (1 <= k_min < k_max):
        raise ValueError("need 1 <= k_min < k_max")
    s = as_sample_set(samples)
    ks = np.arange(int(k_min), int(k_max) + 1)
    pairs = _log_norms(s, [int(k) for k in ks])
    src = f"layer={s.layer} kind={s.kind} unit={s.unit_index}"
    return MomentCurve(ks=ks,
                       log_norms=np.array([p[0] for p in pairs]),
                       ses=np.array([p[1] for p in pairs]),
                       n_samples=s.n_samples,
                       source_id=src)


def _wls(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    sw = np.sqrt(w)
    Xw = X * sw[:, None]
    yw = y * sw
    beta, _, rank, _ = np.linalg.lstsq(Xw, yw, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("singular fit: design matrix is rank-deficient")
    cov = np.linalg.inv(Xw.T @ Xw)
    resid = yw - Xw @ beta
    return beta, cov, float(resid @ resid)


def estimate_theta_moments(curve: MomentCurve,
                           correction: str = "finite-k") -> TailEstimate:
    """Tail parameter from the moment curve's slope in log k.

    Weighted least squares with weights 1/se^2 and an intercept (the
    asymptotic equivalence fixes the slope, not the constant). The
    default "finite-k" correction adds (log k)/k and 1/k regressors that
    absorb the Stirling-order bias of small-k windows; see the module
    docstring. correction="none" fits the plain two-term model.
    """
    if len(curve.ks) < 4:
        raise ValueError("curve needs at least 4 entries")
    if correction not in ("finite-k", "none"):
        raise ValueError(f"unknown correction {correction!r}")
    k = curve.ks.astype(float)
    lk = np.log(k)
    if correction == "finite-k":
        X = np.column_stack([np.ones_like(lk), lk, lk / k, 1.0 / k])
    else:
        X = np.column_stack([np.ones_like(lk), lk])
    w = 1.0 / np.maximum(curve.ses, 1e-12) ** 2
    beta, cov, rss = _wls(X, curve.log_norms, w)
    theta = float(beta[1])
    se = float(np.sqrt(cov[1, 1]))
    if not (math.isfinite(theta) and theta > 0):
        raise DegenerateDistributionError(
            f"fitted moment slope {theta!r} is not a positive tail parameter")
    return TailEstimate(theta_hat=theta, se_theta=se, method="moment-slope",
                        k_range=(int(curve.ks[0]), int(curve.ks[-1])),
                        diagnostics={"weighted_rss": rss,
                                     "n_samples": curve.n_samples,
                                     "correction": correction})


def estimate_theta_survival(samples, tail_fraction: float = 0.1) -> TailEstimate:
    """Weibull-plot estimator on the top tail_fraction order statistics.

    Empirical survival uses Hazen plotting positions (j - 1/2)/n for the
    j-th largest magnitude; theta_hat is the reciprocal slope of
    log(-log S) on log x.
    """
    s = as_sample_set(samples)
    if not (0.0 < tail_fraction < 0.5):
        raise ValueError("tail_fraction must be in (0, 0.5)")
    n = s.n_samples
    m = int(tail_fraction * n)
    if m < 200:
        raise ValueError("tail_fraction * n_samples must be >= 200")
    top = np.sort(s.log_magnitudes)[::-1][:m]
    if np.isneginf(top).any():
        raise DegenerateDistributionError("tail contains exact zeros")
    if np.unique(top).size < 10:
        raise DegenerateDistributionError("tail collapses to fewer than 10 "
                                          "distinct points")
    surv = (np.arange(1, m + 1) - 0.5) / n
    y = np.log(-np.log(surv))
    X = np.column_stack([np.ones(m), top])
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 2:
        raise DegenerateDistributionError("survival regression is singular")
    resid = y - X @ beta
    dof = m - 2
    sigma2 = float(resid @ resid) / dof
    xc = top - top.mean()
    se_slope = math.sqrt(sigma2 / float(xc @ xc))
    slope = float(beta[1])
    if slope <= 0:
        raise DegenerateDistributionError("survival slope is not positive")
    theta = 1.0 / slope
    se_theta = se_slope / slope ** 2
    return TailEstimate(theta_hat=theta, se_theta=se_theta,
                        method="survival-slope", tail_fraction=tail_fraction,
                        diagnostics={"n_tail": m, "rss": float(resid @ resid)})


@dataclass(frozen=True)
class RecursionVerdict:
    passes: bool
    difference: float
    tolerance: float
    expected: float = 0.5


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


def ks_gaussian_test(samples, sigma: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic against N(0, sigma^2),
    with the asymptotic p-value kolmogorov(sqrt(n) D)."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    s = as_sample_set(samples)
    n = s.n_samples
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    v = np.sort(s.decode())
    if not np.all(np.isfinite(v)):
        raise ValueError("samples exceed double-precision range; "
                         "KS needs linear-domain values")
    F = ndtr(v / sigma)
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - F))
    d_minus = float(np.max(F - (i - 1) / n))
    D = max(d_plus, d_minus)
    return D, float(kolmogorov(math.sqrt(n) * D))


def _signed_quantile(signs: np.ndarray, lms: np.ndarray, p: float):
    """Order statistic of sign*exp(lm) values at probability p, returned
    as a (sign, log-magnitude) pair so no exponentiation is needed."""
    n = lms.shape[0]
    i = min(n - 1, max(0, math.ceil(p * n) - 1))
    neg = signs < 0
    zero = signs == 0
    c_neg = int(np.count_nonzero(neg))
    c_zero = int(np.count_nonzero(zero))
    if i < c_neg:
        block = np.sort(lms[neg])[::-1]  # most negative value first
        return -1, float(block[i])
    if i < c_neg + c_zero:
        return 0, -np.inf
    block = np.sort(lms[signs > 0])
    return 1, float(block[i - c_neg - c_zero])


def _log_iqr(signs: np.ndarray, lms: np.ndarray) -> float:
    s75, l75 = _signed_quantile(signs, lms, 0.75)
    s25, l25 = _signed_quantile(signs, lms, 0.25)
    # IQR = q75 - q25 as a log-magnitude; handles any sign combination.
    if s75 == 0 and s25 == 0:
        raise DegenerateDistributionError("interquartile range is zero")
    if s75 > 0 and s25 < 0:
        return float(np.logaddexp(l75, l25))
    if s25 == 0:
        return l75
    if s75 == 0:
        return l25
    hi, lo = (l75, l25) if s75 > 0 else (l25, l75)
    if hi <= lo:
        raise DegenerateDistributionError("interquartile range is zero")
    return hi + math.log1p(-math.exp(lo - hi))


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

    @property
    def grid(self) -> np.ndarray:
        return np.exp(self.grid_log)

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

    def gaussian_match(self, layer: int, n_se: float = 3.0):
        """Compare one curve to the Gaussian reference up to its own 99.9th
        percentile grid point; returns (max |z|, ok).

        max |z| is the largest gap in se_log_survival units, for display.
        The verdict is familywise: each compared grid count gets an exact
        two-sided binomial p-value against the reference survival, and the
        curve matches when the smallest one, times the number of points
        (Bonferroni), is at least 2 Phi_bar(n_se). On reference draws the
        whole curve is thus rejected at most as often as one n_se-sigma
        Gaussian test (0.27% at 3); a pointwise n_se limit on max |z|
        would reject 7% of exactly Gaussian 3e4-draw curves. The price is
        power against small departures: at 3e4 draws a 2% scale error is
        rejected on 21% of seeds and a 3% one on 74%. With standardized
        curves the reference is placed by the estimated IQR, so the rate
        there is approximate.
        """
        if self.gaussian_log_survival is None:
            raise ValueError("curves were built without a Gaussian reference")
        j = self.p999_index[layer]
        ls = self.log_survival[layer][: j + 1]
        ref = self.gaussian_log_survival[: j + 1]
        se = self.se_log_survival[layer][: j + 1]
        c = self.counts[layer][: j + 1]
        n = self.n_positive[layer]
        good = (c > 0) & (c < n)
        z = np.abs((ls[good] - ref[good]) / se[good])
        zmax = float(np.max(z))
        c, q = c[good], np.exp(ref[good])
        tail = np.minimum(bdtr(c, n, q), bdtrc(c - 1, n, q))
        p_adj = min(1.0, 2.0 * float(np.min(tail)) * c.size)
        return zmax, bool(p_adj >= 2.0 * float(ndtr(-n_se)))


def survival_curves(sample_sets: dict[int, UnitSampleSet],
                    standardize: bool = True, n_grid: int = 400,
                    gaussian_sigma: float | None = None) -> SurvivalCurves:
    """Build comparable per-layer survival curves from pre-unit samples.

    Uses only the positive half of each (symmetric) sample. With
    standardize=True each layer is divided by its empirical interquartile
    range, computed in log domain so deep layers cannot overflow. The
    Gaussian reference curve is the exact standardized positive-half
    survival 2 Phi_bar(1.34898 u) (or 2 Phi_bar(u / sigma) unstandardized
    when gaussian_sigma is given).
    """
    layers = sorted(sample_sets)
    if not layers:
        raise ValueError("no sample sets given")
    std_logs = {}
    log_iqrs = {}
    for l in layers:
        s = sample_sets[l]
        pos = s.signs > 0
        if int(np.count_nonzero(pos)) < 1000:
            raise DegenerateDistributionError(f"layer {l}: too few positive samples")
        liqr = _log_iqr(s.signs, s.log_magnitudes) if standardize else 0.0
        std_logs[l] = np.sort(s.log_magnitudes[pos] - liqr)
        log_iqrs[l] = liqr

    hi = max(float(v[min(v.size - 1, math.ceil(0.9995 * v.size) - 1)])
             for v in std_logs.values()) + math.log(1.05)
    lo = min(float(np.median(v)) for v in std_logs.values()) - math.log(4.0)
    grid_log = np.linspace(lo, hi, n_grid)

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
        x999 = float(v[min(n - 1, math.ceil(0.999 * n) - 1)])
        p999[l] = max(0, int(np.searchsorted(grid_log, x999, side="right")) - 1)

    ref = None
    if standardize:
        ref = np.log(2.0 * ndtr(-_NORMAL_IQR * np.exp(grid_log)))
    elif gaussian_sigma is not None:
        ref = np.log(2.0 * ndtr(-np.exp(grid_log) / gaussian_sigma))

    return SurvivalCurves(layers=layers, grid_log=grid_log,
                          log_survival=log_surv, counts=counts,
                          se_log_survival=ses, p999_index=p999,
                          n_positive=n_pos, log_iqr=log_iqrs,
                          standardized=standardize,
                          gaussian_log_survival=ref)
