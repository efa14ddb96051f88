import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from layertails.errors import DegenerateDistributionError
from layertails.network_model import UnitSampleSet
from layertails.tail_analysis import (MomentCurve, TailEstimate,
                                      _log_iqr, _signed_quantile,
                                      empirical_log_norm,
                                      estimate_theta_moments,
                                      estimate_theta_survival,
                                      gaussian_norm_oracle, ks_gaussian_test,
                                      moment_curve, recursion_check,
                                      relu_norm_oracle, survival_curves,
                                      synthetic_values)


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


class TestMomentCurve:
    def test_shape_and_monotone_norms(self):
        v = synthetic_values("gaussian", 50_000, 4)
        curve = moment_curve(v, 2, 10)
        assert list(curve.ks) == list(range(2, 11))
        assert curve.lyapunov_ok()

    def test_rejects_bad_k_range(self):
        v = synthetic_values("gaussian", 1000, 4)
        with pytest.raises(ValueError):
            moment_curve(v, 5, 5)


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
        for correction in ("finite-k", "none"):
            est = estimate_theta_moments(curve, correction=correction)
            assert est.theta_hat == pytest.approx(0.5, abs=1e-9)

    def test_exact_gaussian_curve_needs_the_correction(self):
        curve = exact_gaussian_curve()
        corrected = estimate_theta_moments(curve)
        plain = estimate_theta_moments(curve, correction="none")
        assert corrected.theta_hat == pytest.approx(0.5, abs=0.02)
        # the plain 2-term fit of the same exact curve is biased low
        assert plain.theta_hat < 0.45

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

    def test_unknown_correction_rejected(self):
        with pytest.raises(ValueError):
            estimate_theta_moments(exact_gaussian_curve(), correction="stirling")


class TestThetaFromSurvival:
    def test_weibull_families_sit_near_their_theta(self):
        for shape, theta in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
            v = synthetic_values("weibull", 400_000, 8, shape=shape)
            est = estimate_theta_survival(v, 0.1)
            assert est.theta_hat == pytest.approx(theta, rel=0.12), shape

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


class TestKSTest:
    def test_gaussian_sample_passes(self):
        v = synthetic_values("gaussian", 20_000, 12, sigma=2.0)
        d, p = ks_gaussian_test(v, 2.0)
        assert p > 0.01

    def test_wrong_scale_fails(self):
        v = synthetic_values("gaussian", 20_000, 12, sigma=2.0)
        _, p = ks_gaussian_test(v, 1.0)
        assert p < 1e-6

    def test_non_gaussian_fails(self):
        v = synthetic_values("exponential", 20_000, 12)
        _, p = ks_gaussian_test(v, 1.0)
        assert p < 1e-6


class TestSignedQuantiles:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=8, max_size=200),
           st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_order_statistic(self, values, p):
        v = np.asarray(values)
        s = encode(v)
        sign, lm = _signed_quantile(s.signs, s.log_magnitudes, p)
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
                _log_iqr(s.signs, s.log_magnitudes)
        else:
            got = _log_iqr(s.signs, s.log_magnitudes)
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

    def test_unstandardized_needs_sigma_for_reference(self, gaussian_sets):
        curves = survival_curves(gaussian_sets, standardize=False)
        assert curves.gaussian_log_survival is None
        with pytest.raises(ValueError):
            curves.gaussian_match(1)

    def test_log_survival_values_are_counts(self, gaussian_sets):
        curves = survival_curves(gaussian_sets, standardize=True)
        l = curves.layers[0]
        c = curves.counts[l]
        n = curves.n_positive[l]
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(curves.log_survival[l],
                                       np.log(c / n), rtol=1e-12)
