import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import bdtr, bdtrc, gamma, gammaln, log_ndtr, ndtr

from layertails.errors import DegenerateDistributionError
from layertails.network_model import UnitSampleSet
from layertails.tail_analysis import (_LEAF, MomentCurve, TailEstimate,
                                      _block_sums, _largest, _wls,
                                      _log_gaussian_sf, _log_iqr,
                                      _log_norms,
                                      _signed_quantile, check_tail_request,
                                      empirical_log_norm,
                                      estimate_theta_moments,
                                      estimate_theta_survival,
                                      gaussian_norm_oracle, moment_curve,
                                      recursion_check, relu_norm_oracle,
                                      survival_curves, synthetic_values)


def encode(values, layer=0, kind="pre"):
    values = np.asarray(values, dtype=float)
    signs = np.sign(values).astype(np.int8)
    with np.errstate(divide="ignore"):
        lm = np.where(values == 0.0, -np.inf, np.log(np.abs(values)))
    return UnitSampleSet(layer=layer, kind=kind, unit_index=0, signs=signs,
                         log_magnitudes=lm)


class TestLogNorm:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=5000)
        for k in (1, 2, 3, 6):
            want = math.log(np.mean(np.abs(v) ** k) ** (1.0 / k))
            got, _ = empirical_log_norm(v, k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_survives_huge_log_magnitudes(self):
        # values around e^5000 per sample: impossible in linear domain
        lm = np.linspace(4999.0, 5001.0, 1000)
        s = UnitSampleSet(layer=0, kind="pre", unit_index=0,
                          signs=np.ones(1000, dtype=np.int8),
                          log_magnitudes=lm)
        got, se = empirical_log_norm(s, 8)
        assert 4999.0 < got < 5001.0
        assert np.isfinite(se)

    def test_se_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        _, se_small = empirical_log_norm(rng.normal(size=1000), 4)
        _, se_big = empirical_log_norm(rng.normal(size=100_000), 4)
        assert se_big < se_small / 5

    def test_rejects_tiny_samples_and_zeros(self):
        with pytest.raises(ValueError):
            empirical_log_norm(np.ones(50), 2)
        with pytest.raises(DegenerateDistributionError):
            empirical_log_norm(np.zeros(500), 2)
        with pytest.raises(DegenerateDistributionError):
            moment_curve(np.zeros(500), 2, 5)

    @pytest.mark.pin
    def test_curve_equals_per_order_log_sum_exp(self):
        # the reference takes each moment with fresh temporaries; the
        # shared buffer must give the same doubles bit for bit
        def reference(lm, k):
            def log_moment(a):
                m = float(np.max(a))
                return m + math.log(float(np.sum(np.exp(a - m)))) \
                    - math.log(lm.shape[0])
            log_mk, log_m2k = log_moment(k * lm), log_moment(2 * k * lm)
            delta = min(log_m2k - 2.0 * log_mk, math.log(lm.shape[0]))
            se = math.sqrt(math.expm1(max(delta, 0.0))) / (
                k * math.sqrt(lm.shape[0]))
            return log_mk / k, se

        rng = np.random.default_rng(5)
        v = rng.standard_t(3, size=20_000) * np.exp(rng.normal(size=20_000))
        v[:50] = 0.0
        s = encode(v)
        curve = moment_curve(s, 1, 12)
        want = [reference(s.log_magnitudes, k) for k in range(1, 13)]
        assert list(zip(curve.log_norms, curve.ses)) == want
        assert [empirical_log_norm(s, k) for k in (1, 7, 12)] == \
            [want[0], want[6], want[11]]

    @given(st.floats(min_value=1e-8, max_value=1e8))
    @settings(max_examples=60, deadline=None)
    def test_scaling_shifts_log_norm_exactly(self, c):
        rng = np.random.default_rng(2)
        v = rng.normal(size=500)
        base, _ = empirical_log_norm(v, 3)
        scaled, _ = empirical_log_norm(c * v, 3)
        assert scaled == pytest.approx(base + math.log(c), abs=1e-9)


class TestGaussianOracle:
    def test_known_closed_forms(self):
        # ||X||_2 = sigma and ||X||_4 = 3^(1/4) sigma
        assert gaussian_norm_oracle(1.0, 2) == pytest.approx(1.0, rel=1e-12)
        assert gaussian_norm_oracle(2.0, 2) == pytest.approx(2.0, rel=1e-12)
        assert gaussian_norm_oracle(1.0, 4) == pytest.approx(3 ** 0.25, rel=1e-12)
        assert gaussian_norm_oracle(1.0, 1) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-12)

    def test_matches_gamma_formula_at_odd_k(self):
        for k in (3, 5, 7):
            moment = 2 ** (k / 2) * gamma((k + 1) / 2) / math.sqrt(math.pi)
            assert gaussian_norm_oracle(1.0, k) == pytest.approx(
                moment ** (1.0 / k), rel=1e-12)

    def test_scale_equivariance(self):
        assert gaussian_norm_oracle(3.0, 6) == pytest.approx(
            3.0 * gaussian_norm_oracle(1.0, 6), rel=1e-12)


class TestTailRequest:
    def test_smallest_request_passes(self):
        # 2000 draws at 0.1 give 200 tail points; [1, 4] holds 4 orders
        check_tail_request(2000, 1, 4, 0.1)

    @pytest.mark.parametrize("request_", [(99, 1, 4, 0.49), (1999, 1, 4, 0.1),
                                          (2000, 0, 4, 0.1), (2000, 2, 4, 0.1),
                                          (2000, 1, 4, 0.5),
                                          (2000, 1, 4, math.nan)],
                             ids=str)
    def test_one_step_past_a_limit_fails(self, request_):
        with pytest.raises(ValueError):
            check_tail_request(*request_)

    def test_limits_match_the_estimators(self):
        # the estimators reject the same requests with their own checks
        v = synthetic_values("gaussian", 1999, 4)
        with pytest.raises(ValueError, match=">= 200"):
            estimate_theta_survival(v, 0.1)
        with pytest.raises(ValueError, match="at least 4"):
            estimate_theta_moments(moment_curve(v, 2, 4))


class TestMomentCurve:
    def test_shape(self):
        v = synthetic_values("gaussian", 50_000, 4)
        curve = moment_curve(v, 2, 10)
        assert list(curve.ks) == list(range(2, 11))

    def test_rejects_bad_k_range(self):
        v = synthetic_values("gaussian", 1000, 4)
        with pytest.raises(ValueError):
            moment_curve(v, 5, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("estimator", [
    lambda v: empirical_log_norm(v, 2), moment_curve,
    lambda v: estimate_theta_survival(v, 0.3)],
    ids=["empirical_log_norm", "moment_curve", "estimate_theta_survival"])
def test_non_finite_raw_samples_rejected(estimator, bad):
    v = np.random.default_rng(0).standard_normal(1000)
    v[17] = bad
    with pytest.raises(ValueError, match="must be finite"):
        estimator(v)


def exact_gaussian_curve(k_min=2, k_max=10, sigma=1.0, se=1e-4):
    ks = np.arange(k_min, k_max + 1)
    logs = np.array([math.log(gaussian_norm_oracle(sigma, int(k))) for k in ks])
    return MomentCurve(ks=ks, log_norms=logs, ses=np.full(ks.shape, se),
                       n_samples=10 ** 9, source_id="exact gaussian")


class TestThetaFromMoments:
    def test_noiseless_line_recovered_exactly(self):
        ks = np.arange(2, 11)
        curve = MomentCurve(ks=ks, log_norms=0.5 * np.log(ks) + 0.3,
                            ses=np.full(9, 1e-6), n_samples=1000,
                            source_id="synthetic line")
        est = estimate_theta_moments(curve)
        assert est.theta_hat == pytest.approx(0.5, abs=1e-9)

    def test_exact_gaussian_curve_needs_the_correction(self):
        curve = exact_gaussian_curve()
        corrected = estimate_theta_moments(curve)
        # np.polyfit weights the residuals, not their squares, by w
        plain, _ = np.polyfit(np.log(curve.ks), curve.log_norms, 1,
                              w=1 / curve.ses)
        assert corrected.theta_hat == pytest.approx(0.5, abs=0.02)
        # the plain 2-term fit of the same exact curve is biased low
        assert plain < 0.45

    def test_scale_invariance_is_exact(self):
        v = synthetic_values("exponential", 100_000, 9)
        a = estimate_theta_moments(moment_curve(v))
        b = estimate_theta_moments(moment_curve(encode(1e6 * v.decode())))
        assert b.theta_hat == pytest.approx(a.theta_hat, abs=1e-9)

    def test_exponential_and_weibull_windows(self):
        exp_est = estimate_theta_moments(moment_curve(
            synthetic_values("exponential", 1_000_000, 5)))
        wei_est = estimate_theta_moments(moment_curve(
            synthetic_values("weibull", 1_000_000, 5, shape=2.0)))
        assert abs(exp_est.theta_hat - 1.0) <= 0.15
        assert abs(wei_est.theta_hat - 0.5) <= 0.1


class TestThetaFromSurvival:
    def test_weibull_families_sit_near_their_theta(self):
        for shape, theta in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
            v = synthetic_values("weibull", 400_000, 8, shape=shape)
            est = estimate_theta_survival(v, 0.1)
            assert est.theta_hat == pytest.approx(theta, rel=0.12), shape

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_fit_matches_a_least_squares_oracle(self, shape):
        # the Weibull-plot regression by lstsq on the design [1, log x],
        # with the slope's se from sigma^2 (X'X)^-1
        v = synthetic_values("weibull", 100_000, 9, shape=shape)
        est = estimate_theta_survival(v, 0.1)
        n, m = v.n_samples, est.diagnostics["n_tail"]
        top = np.sort(v.log_magnitudes)[::-1][:m]
        y = np.log(-np.log((np.arange(1, m + 1) - 0.5) / n))
        X = np.column_stack([np.ones(m), top])
        beta, rss, _, _ = np.linalg.lstsq(X, y, rcond=None)
        se_slope = math.sqrt(rss[0] / (m - 2) * np.linalg.inv(X.T @ X)[1, 1])
        assert est.theta_hat == pytest.approx(1.0 / beta[1], rel=1e-12)
        assert est.se_theta == pytest.approx(se_slope / beta[1] ** 2,
                                             rel=1e-12)
        assert est.diagnostics["rss"] == pytest.approx(rss[0], rel=1e-12)

    def test_scale_invariance(self):
        v = synthetic_values("weibull", 100_000, 8, shape=1.0)
        a = estimate_theta_survival(v)
        b = estimate_theta_survival(encode(123.0 * v.decode()))
        assert b.theta_hat == pytest.approx(a.theta_hat, rel=1e-6)

    def test_needs_enough_tail_points(self):
        v = synthetic_values("gaussian", 1000, 8)
        with pytest.raises(ValueError):
            estimate_theta_survival(v, 0.1)

    def test_degenerate_tail_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            estimate_theta_survival(encode(np.ones(10_000)), 0.1)

    @pytest.mark.parametrize("distinct", [9, 10])
    def test_tail_needs_ten_distinct_points(self, distinct):
        # the top 200 of 2000 draws take `distinct` values, all above the rest
        top = 100.0 + np.arange(200) % distinct
        v = encode(np.concatenate([top, np.linspace(1.0, 50.0, 1800)]))
        if distinct < 10:
            with pytest.raises(DegenerateDistributionError,
                               match="fewer than 10 distinct"):
                estimate_theta_survival(v, 0.1)
        else:
            assert estimate_theta_survival(v, 0.1).diagnostics["n_tail"] == 200

    def test_tail_fraction_bounds(self):
        v = synthetic_values("gaussian", 10_000, 8)
        with pytest.raises(ValueError):
            estimate_theta_survival(v, 0.7)


class TestRecursion:
    def _est(self, theta, se=0.01, method="moment-slope"):
        return TailEstimate(theta_hat=theta, se_theta=se, method=method)

    def test_half_step_passes(self):
        v = recursion_check(self._est(0.5), self._est(1.02))
        assert v.passes and v.difference == pytest.approx(0.52)

    def test_flat_step_fails(self):
        assert not recursion_check(self._est(1.0), self._est(1.05)).passes

    def test_tolerance_grows_with_se(self):
        loose = recursion_check(self._est(0.5, se=0.2), self._est(1.4, se=0.2))
        assert loose.passes  # 0.4 off but the ses allow it

    def test_methods_must_match(self):
        with pytest.raises(ValueError):
            recursion_check(self._est(0.5),
                            self._est(1.0, method="survival-slope"))


def exact_relu_curve(widths, layer, k_min=2, k_max=10, se=1e-4):
    ks = np.arange(k_min, k_max + 1)
    logs = np.array([math.log(relu_norm_oracle(widths, layer, int(k)))
                     for k in ks])
    return MomentCurve(ks=ks, log_norms=logs, ses=np.full(ks.shape, se),
                       n_samples=10 ** 9, source_id=f"exact relu {widths}")


class TestReluNormOracle:
    def test_layer1_is_gaussian(self):
        for k in (1, 2, 5):
            assert relu_norm_oracle((4, 7), 1, k, scale=2.0) == pytest.approx(
                gaussian_norm_oracle(2.0, k), rel=1e-12)

    def test_second_moment_closed_form(self):
        # E g_l^2 = scale^2 prod_{i<l} E chi2_{N_i} = scale^2 prod H_i / 2
        got = relu_norm_oracle((4, 6, 3), 3, 2, scale=1.5) ** 2
        assert got == pytest.approx(1.5 ** 2 * 2.0 * 3.0, rel=1e-12)

    def test_width_one_fourth_moment(self):
        # H = 1: S = Z^2 with probability 1/2, else 0, so E S^2 = 3/2
        got = relu_norm_oracle((1, 1), 2, 4) ** 4
        assert got == pytest.approx(3.0 * 1.5, rel=1e-12)

    def test_rejects(self):
        with pytest.raises(ValueError):
            relu_norm_oracle((3, 3), 3, 2)
        with pytest.raises(ValueError):
            relu_norm_oracle((3, 3), 2, 0)
        with pytest.raises(ValueError):
            relu_norm_oracle((3, 3), 2, 2, scale=0.0)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_scale_by_its_name(self, scale):
        with pytest.raises(ValueError, match="^scale must be positive"):
            relu_norm_oracle((100,), 1, 2, scale=scale)


def test_depth_progression_visible_at_narrow_width():
    # At width 3 the conditional scale of a deep unit fluctuates enough for
    # the depth/2 growth to show inside k <= 10. Read on the exact moment
    # curves: a 10^6-draw Monte Carlo reading of the layer-3 step scatters
    # from -0.5 to +1.1 across seeds.
    ests = [estimate_theta_moments(exact_relu_curve((3, 3, 3), layer))
            for layer in (1, 2, 3)]
    t1, t2, t3 = (e.theta_hat for e in ests)
    assert 0.4 <= t1 <= 0.6
    assert t2 - t1 >= 0.25
    assert t3 - t2 >= 0.25
    assert t2 - t1 > ests[0].se_theta + ests[1].se_theta
    assert t3 - t2 > ests[1].se_theta + ests[2].se_theta
    assert (t1, t2, t3) == pytest.approx((0.507, 0.976, 1.445), abs=1e-3)


def test_width_100_exact_slopes_explain_the_deep_layer_xfails():
    # The strict xfails of acceptance criterion 2 read about 0.6 and 0.7 at
    # layers 2 and 3 of a (100, 100, 100) relu net. The exact curves read
    # the same over k in [2, 10], and the depth/2 values only far out in k:
    # the gap comes from the k window relative to the width, not from noise.
    widths = (100, 100, 100)
    small_k = [estimate_theta_moments(exact_relu_curve(widths, layer)).theta_hat
               for layer in (2, 3)]
    assert small_k == pytest.approx([0.607, 0.707], abs=1e-3)
    assert not 0.85 <= small_k[0] <= 1.15
    assert not 1.3 <= small_k[1] <= 1.7
    large_k = [estimate_theta_moments(
        exact_relu_curve(widths, layer, 1000, 10_000)).theta_hat
        for layer in (2, 3)]
    assert large_k == pytest.approx([1.0, 1.5], abs=0.01)


def sorted_blocks(s):
    """The (negative, zero count, positive) blocks of a sample set, each
    sign's log-magnitudes sorted ascending."""
    lm = s.log_magnitudes
    return (np.sort(lm[s.signs < 0]), int(np.count_nonzero(s.signs == 0)),
            np.sort(lm[s.signs > 0]))


class TestSignedQuantiles:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=8, max_size=200),
           st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_order_statistic(self, values, p):
        v = np.asarray(values)
        s = encode(v)
        sign, lm = _signed_quantile(*sorted_blocks(s), p)
        got = sign * math.exp(lm) if sign != 0 else 0.0
        i = min(len(v) - 1, max(0, math.ceil(p * len(v)) - 1))
        want = np.sort(v)[i]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=16, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_log_iqr_matches_linear_iqr(self, values):
        v = np.asarray(values)
        i75 = math.ceil(0.75 * len(v)) - 1
        i25 = math.ceil(0.25 * len(v)) - 1
        want = float(np.sort(v)[i75] - np.sort(v)[i25])
        s = encode(v)
        if want <= 0:
            with pytest.raises(DegenerateDistributionError):
                _log_iqr(*sorted_blocks(s))
        else:
            got = _log_iqr(*sorted_blocks(s))
            assert got == pytest.approx(math.log(want), abs=1e-9)


@pytest.fixture(scope="module")
def gaussian_sets():
    return {1: synthetic_values("gaussian", 50_000, 30, sigma=1.0),
            2: synthetic_values("gaussian", 50_000, 31, sigma=50.0)}


class TestSurvivalCurves:
    def test_standardization_aligns_scales(self, gaussian_sets):
        curves = survival_curves(gaussian_sets, standardize=True)
        # same law after IQR division: curves nearly coincide at the median
        j = curves.p999_index[1]
        a = curves.log_survival[1][j // 2]
        b = curves.log_survival[2][j // 2]
        assert a == pytest.approx(b, abs=0.1)

    def test_gaussian_matches_reference(self, gaussian_sets):
        curves = survival_curves(gaussian_sets, standardize=True)
        zmax, ok = curves.gaussian_match(1)
        assert ok, f"max z = {zmax}"

    def test_gaussian_match_familywise_false_alarm_rate(self):
        # exact Gaussian draws at the CLI test's size: the largest |z| over
        # the grid passes 3 on several percent of seeds, so a pointwise
        # 3-se limit would fail them; the familywise verdict allows 0.27%
        zs, fails = [], 0
        for seed in range(300):
            v = np.random.default_rng(seed).normal(0.0, 2.0, 30_000)
            curves = survival_curves({1: encode(v)}, standardize=False,
                                     gaussian_sigma=2.0)
            zmax, ok = curves.gaussian_match(1)
            zs.append(zmax)
            fails += not ok
        assert sum(z > 3.0 for z in zs) >= 5
        assert fails <= 2

    def test_gaussian_match_detects_wrong_scale(self):
        v = np.random.default_rng(0).normal(0.0, 2.1, 30_000)
        curves = survival_curves({1: encode(v)}, standardize=False,
                                 gaussian_sigma=2.0)
        assert not curves.gaussian_match(1)[1]

    def test_heavier_family_orders_above(self):
        sets = {1: synthetic_values("gaussian", 60_000, 32),
                2: synthetic_values("exponential", 60_000, 33)}
        curves = survival_curves(sets, standardize=True)
        checks = curves.ordering()
        assert len(checks) == 1
        assert checks[0][-1], checks

    def test_reference_is_finite_where_its_survival_underflows(
            self, gaussian_sets):
        # place the last grid point at u = 38, where ndtr(-u) underflows to
        # 0; log 2 + log_ndtr(-38) = -725.864
        grid = survival_curves(gaussian_sets, standardize=False).grid_log
        ref = survival_curves(gaussian_sets, standardize=False,
                              gaussian_sigma=math.exp(grid[-1]) / 38.0
                              ).gaussian_log_survival
        assert np.all(np.isfinite(ref))
        assert ref[-1] == pytest.approx(-725.86, abs=0.005)

    def test_unstandardized_needs_sigma_for_reference(self, gaussian_sets):
        curves = survival_curves(gaussian_sets, standardize=False)
        assert curves.gaussian_log_survival is None
        with pytest.raises(ValueError):
            curves.gaussian_match(1)

    def test_standardized_refuses_sigma(self, gaussian_sets):
        # the IQR places a standardized reference, so a sigma has no use there
        with pytest.raises(ValueError, match="gaussian_sigma"):
            survival_curves(gaussian_sets, standardize=True,
                            gaussian_sigma=5.0)

    @pytest.mark.parametrize("std", [True, False])
    def test_gaussian_match_names_a_missing_layer(self, gaussian_sets, std):
        curves = survival_curves(gaussian_sets, standardize=std,
                                 gaussian_sigma=None if std else 1.0)
        with pytest.raises(ValueError,
                           match=r"layer 3 has no curve.*\[1, 2\]"):
            curves.gaussian_match(3)

    def test_log_survival_values_are_counts(self, gaussian_sets):
        curves = survival_curves(gaussian_sets, standardize=True)
        l = curves.layers[0]
        c = curves.counts[l]
        n = curves.n_positive[l]
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(curves.log_survival[l],
                                       np.log(c / n), rtol=1e-12)


def _relu_post_sets():
    # relu of Gaussian draws: about half the entries are exact zeros, so the
    # 25% quantile falls in the zero block
    return {l: encode(np.maximum(synthetic_values("gaussian", 50_000, seed,
                                                  sigma=sigma).decode(), 0.0),
                      layer=l, kind="post")
            for l, seed, sigma in ((1, 40, 1.0), (2, 41, 50.0))}


def _sha(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _curves_digest(curves):
    arrays = [curves.grid_log]
    for l in curves.layers:
        arrays += [curves.log_survival[l], curves.counts[l],
                   curves.se_log_survival[l],
                   np.array([curves.log_iqr[l]]),
                   np.array([curves.p999_index[l], curves.n_positive[l]])]
    if curves.gaussian_log_survival is not None:
        arrays.append(curves.gaussian_log_survival)
    return _sha(*arrays)


def _theta_digest(sets):
    return _sha(*(np.array([e.theta_hat, e.se_theta]) for e in
                  (estimate_theta_survival(sets[l]) for l in sorted(sets))))


def _moments_digest(sets):
    arrays = []
    for l in sorted(sets):
        c = moment_curve(sets[l])
        arrays += [c.ks, c.log_norms, c.ses]
    return _sha(*arrays)


PIN_OUTPUTS = {
    "curves-standardized": lambda sets: _curves_digest(
        survival_curves(sets, standardize=True)),
    "curves-sigma": lambda sets: _curves_digest(
        survival_curves(sets, standardize=False, gaussian_sigma=1.0)),
    "theta-survival": _theta_digest,
    "moment-curve": _moments_digest,
}

# sha256 of each output's bytes (every SurvivalCurves array, log_iqr,
# p999_index and n_positive; theta_hat and se_theta; the moment curves'
# ks, log-norms and ses), layer by layer
PINNED_OUTPUTS = {
    ("gaussian", "curves-sigma"):
        "aab3acc09a1d1e7885b0821f6b360e0925e2ab38e98b895c3fcac175631efdcf",
    ("gaussian", "curves-standardized"):
        "eefd70ca60a7c5bfdc421597c9842a21efa5360e5a232668af048bd8687462c5",
    ("gaussian", "moment-curve"):
        "718efb13db303640a2fa138e94cf044b8100f282c05d95cf9d6602b787330880",
    ("gaussian", "theta-survival"):
        "4a615e8c8acf644ade5fb86931c8ba5cc84ff2f71d0f509dc03868df3e5cd026",
    ("relu-post", "curves-sigma"):
        "b693395d260ad39670649b440dadd98850612a8e3feae426ed53d5e619d7fe68",
    ("relu-post", "curves-standardized"):
        "477db07323f8b2b8864d474aa6374308515a8836ac3ac40690eb92060fd2b1dc",
    ("relu-post", "moment-curve"):
        "07046ab107e3d59d548399456f4a82f87af3f80af8c91438f23ddb50910521d1",
    ("relu-post", "theta-survival"):
        "2b50ce6ddc0d160d5ad01b974b919faddeea8f0e5bbe4102eb36c8b0cfb05c6a",
}


@pytest.mark.pin
@pytest.mark.parametrize("data,output", sorted(PINNED_OUTPUTS))
def test_outputs_are_pinned_bit_for_bit(gaussian_sets, data, output):
    sets = gaussian_sets if data == "gaussian" else _relu_post_sets()
    assert PIN_OUTPUTS[output](sets) == PINNED_OUTPUTS[data, output]


SCALE_CASES = {
    "oracle-nan": lambda sets: gaussian_norm_oracle(math.nan, 2),
    "oracle-inf": lambda sets: gaussian_norm_oracle(math.inf, 2),
    "oracle-zero": lambda sets: gaussian_norm_oracle(0.0, 2),
    "survival-negative": lambda sets: survival_curves(
        sets, standardize=False, gaussian_sigma=-1.0),
    "survival-zero": lambda sets: survival_curves(
        sets, standardize=False, gaussian_sigma=0.0),
    "survival-nan": lambda sets: survival_curves(
        sets, standardize=False, gaussian_sigma=math.nan),
}


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
def test_scale_must_be_positive_and_finite(gaussian_sets, case):
    # a NaN, infinite or non-positive scale once gave a NaN result or a
    # reference curve above log 1 that gaussian_match then passed
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        SCALE_CASES[case](gaussian_sets)


class TestAgainstScipy:
    """Each standard-library form against the scipy function it replaced,
    over its whole domain of use."""

    def test_log_gaussian_sf_matches_log_ndtr(self):
        # the survival grid's u runs from about e^-2 up past 1.9e154, where
        # u^2 / 2 overflows and both give -inf; dense around the switch to
        # the asymptotic series at u = 20
        u = np.concatenate([np.geomspace(1e-8, 1e160, 20_001),
                            np.linspace(19.0, 21.0, 2001)])
        got, want = _log_gaussian_sf(u), log_ndtr(-u)
        fin = np.isfinite(want)
        assert np.count_nonzero(~fin) > 100
        assert np.array_equal(np.isneginf(got), ~fin)
        np.testing.assert_allclose(got[fin], want[fin], rtol=1e-14, atol=0)

    @staticmethod
    def log_gaussian_moment(k):
        return (0.5 * k * math.log(2.0) + gammaln((k + 1) / 2.0)
                - 0.5 * math.log(math.pi))

    def test_gaussian_norm_oracle_matches_its_gammaln_form(self):
        for k in [*range(1, 40), 100, 1000, 10_000]:
            want = math.exp(self.log_gaussian_moment(k) / k)
            assert gaussian_norm_oracle(1.0, k) == pytest.approx(want,
                                                                 rel=1e-13)

    @pytest.mark.parametrize("H", [1, 2, 3, 4, 7, 10, 30, 100])
    def test_relu_norm_oracle_matches_its_gammaln_form(self, H):
        # widths up to 100, where the exact slopes are read; at H = 1000
        # the gammaln form itself is off by 1e-12 at k = 1 (40-digit check)
        n = np.arange(1, H + 1)
        log_pmf = (gammaln(H + 1) - gammaln(n + 1) - gammaln(H - n + 1)
                   - H * math.log(2.0))
        for k in (1, 2, 3, 5, 10, 33, 100, 1000, 10_000):
            log_s = float(np.logaddexp.reduce(
                log_pmf + 0.5 * k * math.log(2.0) + gammaln((n + k) / 2.0)
                - gammaln(n / 2.0)))
            for layer in (2, 3):
                want = math.exp((self.log_gaussian_moment(k)
                                 + (layer - 1) * log_s) / k)
                assert relu_norm_oracle((H, H, H), layer, k) == \
                    pytest.approx(want, rel=1e-13), (layer, k)


def _bdtr_verdict(curves, layer):
    """gaussian_match's verdict in its scipy form: every compared point's
    two-sided binomial tail, Bonferroni over the points, against 3 sigma."""
    j = curves.p999_index[layer]
    c = curves.counts[layer][: j + 1]
    q = np.exp(curves.gaussian_log_survival[: j + 1])
    n = curves.n_positive[layer]
    good = (c > 0) & (c < n)
    c, q = c[good], q[good]
    tail = np.minimum(bdtr(c, n, q), bdtrc(c - 1, n, q))
    return min(1.0, 2.0 * float(np.min(tail)) * c.size) >= 2.0 * ndtr(-3.0)


def test_gaussian_match_verdict_equals_the_bdtr_form_on_a_census():
    # 1800 curves of 3e4 draws: seeds 0-299, scale 2, 2.04 and 2.06 against
    # a reference of scale 2, standardized and not; normal(0, s) draws are
    # s times normal(0, 1) draws, bit for bit
    same = failed = 0
    for seed in range(300):
        z = np.random.default_rng(seed).normal(0.0, 1.0, 30_000)
        for scale in (2.0, 2.04, 2.06):
            sets = {1: encode(scale * z)}
            for std in (True, False):
                curves = survival_curves(sets, standardize=std,
                                         gaussian_sigma=None if std else 2.0)
                ok = curves.gaussian_match(1)[1]
                same += ok == _bdtr_verdict(curves, 1)
                failed += not ok
    assert (same, failed) == (1800, 295)


# ---------------------------------------------------------------------------
# blocked passes: the bytes of the whole-array forms, in leaf-sized memory

BLOCK_SIZES = [_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 7, 10**5 + 7, 5 * 10**5]


def _whole_buffer_log_norms(lm, ks):
    """_log_norms as one n-long buffer per order, summed by one np.sum."""
    n = lm.shape[0]
    top = float(np.max(lm))
    buf = np.empty(n)
    logs = {}
    for order in {*ks, *(2 * k for k in ks)}:
        m = order * top
        np.multiply(lm, order, out=buf)
        np.subtract(buf, m, out=buf)
        np.exp(buf, out=buf)
        logs[order] = m + math.log(float(np.sum(buf))) - math.log(n)
    out = []
    for k in ks:
        delta = min(logs[2 * k] - 2.0 * logs[k], math.log(n))
        out.append((logs[k] / k, math.sqrt(math.expm1(max(delta, 0.0)))
                    / (k * math.sqrt(n))))
    return out


@pytest.mark.pin
@pytest.mark.parametrize("zeros", [False, True], ids=["finite", "zeros"])
@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_log_norms_equal_the_whole_buffer_bit_for_bit(n, zeros):
    rng = np.random.default_rng(n)
    v = rng.standard_t(3, size=n) * np.exp(rng.normal(size=n))
    if zeros:
        v[rng.random(n) < 0.2] = 0.0
    s = encode(v)
    ks = range(1, 13)
    assert _log_norms(s, ks) == _whole_buffer_log_norms(s.log_magnitudes, ks)


@pytest.mark.pin
def test_block_sums_follow_numpys_pairwise_order():
    # np.sum of each leaf, added up the split tree, is np.sum of the
    # whole: around the leaf size, at powers of two and at random sizes
    rng = np.random.default_rng(11)
    sizes = sorted({*range(1, 300, 7), *(k * _LEAF + d for k in (1, 2, 3, 8)
                                         for d in (-9, -8, -1, 0, 1, 7, 8)),
                    *(2**e for e in range(8, 21)),
                    *rng.integers(300, 1_200_000, 40).tolist()})
    for n in sizes:
        a = np.exp(3.0 * rng.standard_normal(n))
        a[rng.random(n) < 0.25] = 0.0
        assert _block_sums(a, np.sum) == np.sum(a), n


def _partition_top(x, m):
    n = x.shape[0]
    return np.sort(np.partition(x, n - m)[n - m:])[::-1]


@pytest.mark.pin
@pytest.mark.parametrize("order", ["random", "ascending", "descending"])
@pytest.mark.parametrize("n,m", [(1000, 200), (_LEAF + 1, 300),
                                 (5 * 10**5, 5 * 10**4),
                                 (3 * _LEAF + 5, 2 * _LEAF + 3)])
def test_largest_is_the_sorted_partition_tail(n, m, order):
    # integer values give ties across blocks; a tenth of them are -inf
    rng = np.random.default_rng(m)
    x = rng.integers(0, 60, n).astype(float)
    x[rng.random(n) < 0.1] = -np.inf
    if order != "random":
        x.sort()
        x = x if order == "ascending" else x[::-1].copy()
    want = _partition_top(x, m)
    got = _largest(x, m)
    assert got.tobytes() == want.tobytes()
    # an all -inf tail, and a tail that is one repeated value
    for fill in (-np.inf, 5.0):
        y = np.full(n, fill)
        assert _largest(y, m).tobytes() == _partition_top(y, m).tobytes()


def test_estimators_hold_no_copy_the_size_of_their_draws():
    """The moment curve and the survival fit read the draws in leaf-sized
    blocks, so neither allocates an n-long array. The survival fit's own
    regression arrays are m = tail_fraction * n long; a 1% fraction keeps
    them small beside the quarter-size bound."""
    n = 4 * 10**5
    s = synthetic_values("exponential", n, 8)
    for estimate in (lambda: moment_curve(s),
                     lambda: estimate_theta_survival(s, 0.01)):
        tracemalloc.start()
        try:
            estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8 / 4


# ---------------------------------------------------------------------------
# the moment-slope fit against an exact rational solve

def _moment_design(curve):
    """The moment-slope fit's rows [1, log k, (log k)/k, 1/k], weights
    1/se^2 (se floored at 1e-12) and log-norms, as floats."""
    X = [[1.0, math.log(k), math.log(k) / k, 1.0 / k]
         for k in curve.ks.astype(float).tolist()]
    w = [1.0 / (s * s) for s in np.maximum(curve.ses, 1e-12).tolist()]
    return X, curve.log_norms.tolist(), w


def _exact_moment_fit(curve):
    """theta_hat and se of the moment-slope fit, with the design, weights
    and log-norms taken as exact rationals: the normal equations
    X'WX beta = X'Wy solved by Gauss-Jordan elimination over Fractions,
    se = sqrt of entry (1, 1) of (X'WX)^-1."""
    X, y, w = ([[Fraction(v) for v in row] for row in X_] if i == 0 else
               [Fraction(v) for v in X_]
               for i, X_ in enumerate(_moment_design(curve)))
    p = 4
    # [X'WX | X'Wy | I], reduced to [I | beta | (X'WX)^-1]
    M = [[sum(wi * r[a] * r[b] for wi, r in zip(w, X)) for b in range(p)]
         + [sum(wi * r[a] * yi for wi, r, yi in zip(w, X, y))]
         + [Fraction(int(a == b)) for b in range(p)] for a in range(p)]
    for i in range(p):
        M[i] = [v / M[i][i] for v in M[i]]
        for r in range(p):
            if r != i:
                M[r] = [u - M[r][i] * v for u, v in zip(M[r], M[i])]
    return float(M[1][p]), math.sqrt(M[1][p + 2])


def _oracle_curves():
    """Moment curves of synthetic Gaussian, Exp(1) and Weibull(0.5) draws,
    of a (100, 100, 100) relu net's layers 1-3 and of max- and
    average-pooled relu units, 2e4 draws each, over four k windows."""
    from layertails.conv_pooling import PoolingSpec, pool_signed_log
    from layertails.network_model import (NetworkConfig, sample_input,
                                          sample_joint_units,
                                          sample_layer_units)
    from layertails.nonlinearity import NonlinearitySpec

    n = 20_000
    sets = [synthetic_values(family, n, seed, **kw)
            for family, kw in (("gaussian", {}), ("exponential", {}),
                               ("weibull", {"shape": 0.5}))
            for seed in range(20)]
    net = NetworkConfig(input_dim=100, layer_widths=(100, 100, 100),
                        nonlinearity=NonlinearitySpec("relu"))
    x = sample_input(100, 3)
    sets += sample_layer_units(net, x, [1, 2, 3], "pre", n, 3).values()
    signs, lms = sample_joint_units(net, x, 2, (0, 1, 2, 3), "post", n, (3,))
    for kind in ("max", "average"):
        ps, plm = pool_signed_log(signs, lms, PoolingSpec(kind, 4))
        sets.append(UnitSampleSet(layer=2, kind=f"pooled-{kind}",
                                  unit_index=0, signs=ps, log_magnitudes=plm))
    return [moment_curve(s, k_min, k_max) for s in sets
            for k_min, k_max in ((2, 10), (1, 20), (2, 40), (5, 8))]


def test_moment_fit_matches_an_exact_rational_solve():
    # the QR fit in plain floats against the exact solve of the same
    # problem; the normal equations in floats are off by up to 1e-8 in se
    for curve in _oracle_curves():
        theta, se = _exact_moment_fit(curve)
        beta, var, _ = _wls(*_moment_design(curve))
        assert beta[1] == pytest.approx(theta, rel=1e-11, abs=0), curve.source_id
        assert math.sqrt(var[1]) == pytest.approx(se, rel=1e-11, abs=0)
        if theta > 0:
            est = estimate_theta_moments(curve)
            assert (est.theta_hat, est.se_theta) == (beta[1],
                                                     math.sqrt(var[1]))
        else:
            with pytest.raises(DegenerateDistributionError,
                               match="not a positive tail parameter"):
                estimate_theta_moments(curve)


def test_rank_deficient_moment_fit_raises():
    # an se of 1e200 squares to inf, so six of the nine rows weigh 0 and
    # three rows are left for four coefficients
    ks = np.arange(2, 11)
    curve = MomentCurve(ks=ks, log_norms=0.5 * np.log(ks),
                        ses=np.array([1e-3] * 3 + [1e200] * 6),
                        n_samples=1000)
    with pytest.raises(ValueError, match="singular fit"):
        estimate_theta_moments(curve)


def test_moment_fit_makes_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    est = estimate_theta_moments(moment_curve(synthetic_values(
        "gaussian", 10_000, 1)))
    assert 0.4 < est.theta_hat < 0.6


@pytest.mark.parametrize("tail_fraction", [0.1, 0.4])
def test_survival_fit_holds_its_tail_buffer_and_leaves(tail_fraction):
    """At 5e5 draws the survival fit holds _largest's m + _LEAF buffer and
    at most three leaf-sized arrays: its plotting positions and centered
    sums are formed a leaf at a time (m-long arrays held 1.2 MB more at
    a 0.1 fraction)."""
    n = 5 * 10**5
    s = synthetic_values("exponential", n, 8)
    m = int(tail_fraction * n)
    tracemalloc.start()
    try:
        estimate_theta_survival(s, tail_fraction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m > 3 * _LEAF // 2
    assert peak <= (m + _LEAF) * 8 + 3 * _LEAF * 8


def _whole_array_survival(lm, m):
    """estimate_theta_survival's (theta, se, rss) from m-long arrays: the
    plotting positions, centered sums and residuals each one whole array,
    summed by one np.sum or np.mean."""
    n = lm.shape[0]
    top = np.sort(lm)[::-1][:m]
    y = np.log(-np.log(np.arange(0.5, m) / n))
    ym = np.mean(y)
    xc = top - np.mean(top)
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum((y - ym) * xc)) / sxx
    rss = float(np.sum((y - (xc * slope + ym)) ** 2))
    se_slope = math.sqrt(rss / (m - 2) / sxx)
    return 1.0 / slope, se_slope / slope ** 2, rss


@pytest.mark.pin
@pytest.mark.parametrize("n,tail_fraction", [
    (10**4, 0.1), (10 * _LEAF, 0.1), (10 * _LEAF + 80, 0.1),
    (5 * 10**5, 0.1), (5 * 10**5, 0.4)])
def test_blocked_survival_fit_equals_the_whole_arrays_bit_for_bit(
        n, tail_fraction):
    # m = tail_fraction * n: one leaf, exactly one leaf, one leaf and 8
    # entries, and trees of several leaves
    s = synthetic_values("weibull", n, 2, shape=0.7)
    est = estimate_theta_survival(s, tail_fraction)
    want = _whole_array_survival(s.log_magnitudes, int(tail_fraction * n))
    assert (est.theta_hat, est.se_theta, est.diagnostics["rss"]) == want
