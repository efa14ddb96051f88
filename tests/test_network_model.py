import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from layertails import network_model
from layertails.errors import ConfigFileError, LayerOverflowError
from layertails.network_model import (STREAM_DIRECT, STREAM_UNITS,
                                      NetworkConfig, UnitSampleSet,
                                      parse_config_file, run_sampler,
                                      sample_input, sample_joint_units,
                                      sample_layer_units, sample_units,
                                      worker_threads, write_config_file)
from layertails.nonlinearity import NonlinearitySpec, apply
from layertails.tail_analysis import relu_norm_oracle

RELU = NonlinearitySpec("relu")
TANH = NonlinearitySpec("tanh")
ELU = NonlinearitySpec("elu", (1.0,))
SELU = NonlinearitySpec("selu")
SIGMOID = NonlinearitySpec("sigmoid")


def small_config(**kw):
    defaults = dict(input_dim=8, layer_widths=(6, 5, 4), nonlinearity=RELU,
                    weight_std=1.0)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestNetworkConfig:
    def test_scalar_std_broadcasts(self):
        cfg = small_config(weight_std=0.7)
        assert cfg.weight_std_for(1) == cfg.weight_std_for(3) == 0.7

    def test_per_layer_std(self):
        cfg = small_config(weight_std=(1.0, 2.0, 3.0))
        assert cfg.weight_std_for(2) == 2.0

    @pytest.mark.parametrize("kw", [
        dict(input_dim=0),
        dict(layer_widths=()),
        dict(layer_widths=(4, 0)),
        dict(weight_std=0.0),
        dict(weight_std=(1.0, 1.0)),  # wrong length for 3 layers
        dict(weight_std=float("inf")),
        dict(seed=-1),
        dict(seed=2**32),
        dict(input_dim=2.5),
        dict(include_bias="no"),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)

    def test_hash_tracks_content(self):
        a = small_config()
        b = small_config()
        assert a.config_hash() == b.config_hash()
        others = [small_config(weight_std=1.5),
                  small_config(weight_std=(1.0, 1.0, 1.0)),
                  small_config(include_bias=True), small_config(seed=1),
                  small_config(nonlinearity=TANH),
                  small_config(layer_widths=(6, 5, 5)),
                  small_config(input_dim=9)]
        hashes = {c.config_hash() for c in [a] + others}
        assert len(hashes) == 1 + len(others)

    def test_config_file_round_trip(self, tmp_path):
        cfg = NetworkConfig(input_dim=12, layer_widths=(3, 9),
                            nonlinearity=NonlinearitySpec.parse("prelu(0.3)"),
                            weight_std=(0.5, 1.25), include_bias=True, seed=42)
        path = tmp_path / "net.ini"
        write_config_file(path, cfg)
        assert parse_config_file(path) == cfg

    # The dict form is what run manifests record as params.network, and the
    # INI text is what earlier builds wrote; both are pinned so that old
    # manifests and config files still load and replay.
    PRELU_DICT = {"input_dim": 12, "layer_widths": [3, 9],
                  "nonlinearity": "prelu(0.3)", "weight_std": [0.5, 1.25],
                  "include_bias": True, "seed": 42}
    PRELU_INI = ("[network]\ninput_dim = 12\nlayer_widths = 3,9\n"
                 "nonlinearity = prelu(0.3)\nweight_std = 0.5,1.25\n"
                 "include_bias = true\nseed = 42\n\n")
    SCALAR_INI = ("[network]\ninput_dim = 8\nlayer_widths = 6,5,4\n"
                  "nonlinearity = relu\nweight_std = 1.0\n"
                  "include_bias = false\nseed = 0\n\n")

    def test_dict_form_is_the_manifest_form(self):
        cfg = NetworkConfig.from_dict(self.PRELU_DICT)
        assert cfg.to_dict() == self.PRELU_DICT
        assert cfg == NetworkConfig(
            input_dim=12, layer_widths=(3, 9),
            nonlinearity=NonlinearitySpec.parse("prelu(0.3)"),
            weight_std=(0.5, 1.25), include_bias=True, seed=42)
        scalar = small_config(weight_std=2, seed=7)
        assert scalar.to_dict()["weight_std"] == 2.0
        for c in (cfg, scalar, small_config(nonlinearity=ELU)):
            assert NetworkConfig.from_dict(c.to_dict()) == c

    def test_config_file_text_is_unchanged(self, tmp_path):
        path = tmp_path / "net.ini"
        write_config_file(path, NetworkConfig.from_dict(self.PRELU_DICT))
        assert path.read_text() == self.PRELU_INI
        write_config_file(path, small_config())
        assert path.read_text() == self.SCALAR_INI

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigFileError):
            parse_config_file(tmp_path / "nope.ini")

    def test_missing_section_is_config_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[other]\nx = 1\n")
        with pytest.raises(ConfigFileError):
            parse_config_file(p)

    def test_garbage_value_is_config_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[network]\ninput_dim = many\nlayer_widths = 4\n")
        with pytest.raises(ConfigFileError):
            parse_config_file(p)


class TestInputsAndWeights:
    def test_sample_input_is_deterministic(self):
        a = sample_input(16, 3)
        b = sample_input(16, 3)
        c = sample_input(16, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seeds_from_2_to_the_32_are_rejected(self, cfg20, x20):
        # SeedSequence reads 2^32 as the words (0, 1) and drops trailing
        # zero words, so seed 2^32's chunk 0 would be seed 0's chunk 1
        with pytest.raises(ValueError, match="2\\^32"):
            sample_units(cfg20, x20, 2, 0, "pre", 8192, 2**32)
        with pytest.raises(ValueError):
            sample_layer_units(cfg20, x20, (1, 2), "pre", 100, 2**32)
        with pytest.raises(ValueError):
            sample_input(4, 2**32)
        with pytest.raises(ValueError):
            sample_input(4, -1)
        top = sample_units(cfg20, x20, 2, 0, "pre", 100, 2**32 - 1)
        assert np.all(np.isfinite(top.log_magnitudes))

    @pytest.mark.parametrize("method", ["conditional", "direct"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, cfg20, method, bad):
        x = np.ones(cfg20.input_dim)
        x[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sample_units(cfg20, x, 2, 0, "pre", 100, 0, method=method)


class TestUnitSampleSet:
    def _make(self):
        return UnitSampleSet(
            layer=2, kind="pre", unit_index=0,
            signs=np.array([1, -1, 0, 1], dtype=np.int8),
            log_magnitudes=np.array([0.0, math.log(2.0), -np.inf, 800.0]))

    def test_decode(self):
        got = self._make().decode()
        assert got[0] == 1.0 and got[1] == -2.0 and got[2] == 0.0
        assert np.isinf(got[3])  # beyond double range by design

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            UnitSampleSet(layer=1, kind="mid", unit_index=0,
                          signs=np.zeros(2, dtype=np.int8),
                          log_magnitudes=np.zeros(2))


@pytest.fixture(scope="module")
def cfg20():
    return NetworkConfig(input_dim=20, layer_widths=(20, 20),
                         nonlinearity=RELU, weight_std=1.0)


@pytest.fixture(scope="module")
def x20(cfg20):
    return sample_input(cfg20.input_dim, 11)


class TestSamplerDeterminism:
    def test_same_arguments_same_samples(self, cfg20, x20):
        a = sample_units(cfg20, x20, 2, 0, "pre", 3000, 11)
        b = sample_units(cfg20, x20, 2, 0, "pre", 3000, 11)
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(a.log_magnitudes, b.log_magnitudes)

    def test_worker_count_does_not_change_the_stream(self, cfg20, x20):
        a = sample_units(cfg20, x20, 2, 0, "pre", 10_000, 11, workers=1)
        b = sample_units(cfg20, x20, 2, 0, "pre", 10_000, 11, workers=4)
        np.testing.assert_array_equal(a.log_magnitudes, b.log_magnitudes)

    def test_unit_stream_is_request_shape_invariant(self, cfg20, x20):
        # drawing unit 0 alone, with a sibling, or with deeper layers in the
        # same pass must yield the identical stream
        alone = sample_units(cfg20, x20, 2, 0, "pre", 2000, 11)
        joint_s, joint_lm = sample_joint_units(cfg20, x20, 2, (0, 1), "pre",
                                               2000, (11, STREAM_UNITS))
        multi = sample_layer_units(cfg20, x20, (1, 2), "pre", 2000, 11)
        np.testing.assert_array_equal(alone.log_magnitudes, joint_lm[:, 0])
        np.testing.assert_array_equal(alone.log_magnitudes,
                                      multi[2].log_magnitudes)

    def test_post_is_the_transformed_pre(self, cfg20, x20):
        from layertails.nonlinearity import apply_signed_log
        pre = sample_units(cfg20, x20, 2, 0, "pre", 2000, 11)
        post = sample_units(cfg20, x20, 2, 0, "post", 2000, 11)
        s, lm = apply_signed_log(cfg20.nonlinearity, pre.signs,
                                 pre.log_magnitudes)
        np.testing.assert_array_equal(post.signs, s)
        np.testing.assert_array_equal(post.log_magnitudes, lm)

    def test_seeds_are_not_shared_across_methods(self, cfg20, x20):
        a = sample_units(cfg20, x20, 1, 0, "pre", 2000, 11, method="conditional")
        b = sample_units(cfg20, x20, 1, 0, "pre", 2000, 11, method="direct")
        assert not np.array_equal(a.log_magnitudes, b.log_magnitudes)

    def test_out_of_range_requests_rejected(self, cfg20, x20):
        with pytest.raises(ValueError):
            sample_units(cfg20, x20, 3, 0, "pre", 1000, 0)
        with pytest.raises(ValueError):
            sample_units(cfg20, x20, 2, 20, "pre", 1000, 0)
        with pytest.raises(ValueError):
            sample_layer_units(cfg20, x20, (0, 1), "pre", 1000, 0)
        with pytest.raises(ValueError):
            sample_joint_units(cfg20, x20, 2, (0, 0), "pre", 1000, (0,))


def _direct_weights(cfg, n, seed):
    """The weight matrices of the direct sampler's one chunk of n draws,
    regenerated from its stream: one (n, width, fan_in) array per layer."""
    rng = network_model._generator((seed, STREAM_DIRECT, 0))
    weights, cols = [], cfg.input_dim + cfg.include_bias
    for layer, width in enumerate(cfg.layer_widths, start=1):
        weights.append(cfg.weight_std_for(layer)
                       * rng.standard_normal((n, width, cols)))
        cols = width + cfg.include_bias
    return weights


class TestForward:
    """Per-draw literal propagation through the direct oracle's weights."""

    def test_matches_manual_propagation(self):
        n, seed = 20, 5
        cfg = small_config(nonlinearity=TANH)
        x = sample_input(8, seed)
        weights = _direct_weights(cfg, n, seed)
        needs = {layer: list(range(width))
                 for layer, width in enumerate(cfg.layer_widths, start=1)}
        got = run_sampler(cfg, x, n, needs, (seed, STREAM_DIRECT),
                          method="direct")
        post = [sample_units(cfg, x, layer, 0, "post", n, seed,
                             method="direct").decode()
                for layer in range(1, cfg.depth + 1)]
        for i in range(n):
            h = x
            for layer, W in enumerate(weights, start=1):
                g = W[i] @ h
                signs, lms = got[layer]
                np.testing.assert_allclose(signs[i] * np.exp(lms[i]), g,
                                           rtol=1e-12)
                h = np.tanh(g)
                assert post[layer - 1][i] == pytest.approx(h[0], rel=1e-12)

    def test_bias_column_is_appended(self):
        n, seed = 20, 5
        cfg = small_config(include_bias=True)
        x = sample_input(8, seed)
        W1 = _direct_weights(cfg, n, seed)[0]
        assert W1.shape == (n, 6, 9)
        signs, lms = run_sampler(cfg, x, n, {1: list(range(6))},
                                 (seed, STREAM_DIRECT),
                                 method="direct")[1]
        g1 = W1 @ np.concatenate([x, [1.0]])
        np.testing.assert_allclose(signs * np.exp(lms), g1, rtol=1e-12)


class TestSamplerLaw:
    """Distributional checks tying the fast conditional sampler to ground
    truth. The conditional path never materializes weight matrices, so
    agreement with the direct path is the key correctness evidence."""

    def test_layer1_matches_gaussian_exactly_in_law(self, cfg20, x20):
        s = sample_units(cfg20, x20, 1, 0, "pre", 50_000, 3)
        sigma = math.sqrt(float(x20 @ x20))
        d, p = stats.kstest(s.decode(), "norm", args=(0, sigma))
        assert p > 0.01

    def test_conditional_agrees_with_direct_at_depth(self, cfg20, x20):
        n = 30_000
        cond = sample_units(cfg20, x20, 2, 0, "pre", n, 3, method="conditional")
        direct = sample_units(cfg20, x20, 2, 0, "pre", n, 3, method="direct")
        d, p = stats.ks_2samp(cond.decode(), direct.decode())
        assert p > 0.001

    def test_bias_enters_the_variance(self):
        # with a bias column, layer-1 variance is sigma_w^2 (|x|^2 + 1)
        cfg = NetworkConfig(input_dim=5, layer_widths=(5,), nonlinearity=RELU,
                            weight_std=1.0, include_bias=True)
        x = sample_input(5, 21)
        s = sample_units(cfg, x, 1, 0, "pre", 200_000, 21)
        want = float(x @ x) + 1.0
        assert np.var(s.decode()) == pytest.approx(want, rel=0.02)

    def test_direct_matches_forward_exactly(self, cfg20):
        # the direct sampler is a batched literal forward pass: regenerate
        # the weights of its one chunk and propagate each draw on its own
        n, seed = 40, 13
        x = sample_input(8, seed)
        for bias in (False, True):
            cfg = small_config(nonlinearity=cfg20.nonlinearity,
                               weight_std=(0.7, 1.5, 1.0), include_bias=bias)
            got = run_sampler(cfg, x, n, {1: list(range(6)),
                                          2: list(range(5)),
                                          3: list(range(4))},
                              (seed, STREAM_DIRECT), method="direct")
            weights = _direct_weights(cfg, n, seed)
            for i in range(n):
                h = x
                for layer, W in enumerate(weights, start=1):
                    g = W[i] @ (np.append(h, 1.0) if bias else h)
                    signs, lms = got[layer]
                    np.testing.assert_allclose(signs[i] * np.exp(lms[i]), g,
                                               rtol=1e-12, atol=1e-12)
                    h = apply(cfg.nonlinearity, g)
            unit = sample_units(cfg, x, 3, 1, "pre", n, seed, method="direct")
            np.testing.assert_array_equal(unit.log_magnitudes, got[3][1][:, 1])


class TestDirectOracle:
    def test_overflow_names_the_layer(self):
        cfg = NetworkConfig(input_dim=4, layer_widths=(4, 4, 4),
                            nonlinearity=RELU, weight_std=1e200)
        with pytest.raises(LayerOverflowError) as ei:
            sample_units(cfg, sample_input(4, 0), 3, 0, "pre", 10, 0,
                         method="direct")
        assert ei.value.layer in (2, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sample_units(small_config(), np.zeros(9), 1, 0, "pre", 10, 0,
                         method="direct")


class TestZeroInput:
    """A zero input without bias makes every layer-1 unit exactly zero; the
    sampler starts from log r = -inf rather than failing on log 0."""

    WIDTHS = (20, 20, 20)

    def _cfg(self, nonlinearity, std=1.0):
        return NetworkConfig(input_dim=5, layer_widths=self.WIDTHS,
                             nonlinearity=nonlinearity, weight_std=std)

    @pytest.mark.parametrize("nonlinearity", [RELU, TANH, ELU, SIGMOID],
                             ids=lambda spec: spec.family)
    def test_layer1_is_zero(self, nonlinearity):
        sets = sample_layer_units(self._cfg(nonlinearity), np.zeros(5),
                                  (1, 2, 3), "pre", 5000, 3)
        assert np.all(sets[1].signs == 0)
        assert np.all(np.isneginf(sets[1].log_magnitudes))

    @pytest.mark.parametrize("nonlinearity", [RELU, TANH, ELU],
                             ids=lambda spec: spec.family)
    def test_zero_at_every_layer_when_phi_of_zero_is_zero(self, nonlinearity):
        sets = sample_layer_units(self._cfg(nonlinearity), np.zeros(5),
                                  (1, 2, 3), "post", 5000, 3)
        for s in sets.values():
            assert np.all(s.signs == 0)
            assert np.all(np.isneginf(s.log_magnitudes))

    def test_underflowing_input_is_not_zero(self):
        # x.x underflows to 0 here, but the units are not zero: a bias-free
        # relu net is positively homogeneous, so scaling x by c scales
        # every unit by c
        cfg = self._cfg(RELU)
        x = sample_input(5, 3)
        base = sample_layer_units(cfg, x, (1, 2, 3), "pre", 3000, 3)
        tiny = sample_layer_units(cfg, 1e-170 * x, (1, 2, 3), "pre", 3000, 3)
        for layer in (1, 2, 3):
            np.testing.assert_array_equal(tiny[layer].signs, base[layer].signs)
            np.testing.assert_allclose(
                tiny[layer].log_magnitudes,
                base[layer].log_magnitudes + math.log(1e-170), rtol=1e-12)

    def test_sigmoid_layer2_is_exactly_gaussian(self):
        # h(1) = sigmoid(0) = 1/2 in every unit, so g(2) ~ N(0, s^2 H_1 / 4)
        cfg = self._cfg(SIGMOID, std=(1.0, 1.3, 1.0))
        n = 20_000
        x = np.zeros(5)
        cond = sample_units(cfg, x, 2, 0, "pre", n, 3)
        direct = sample_units(cfg, x, 2, 0, "pre", n, 3, method="direct")
        sigma = 1.3 * math.sqrt(self.WIDTHS[0] / 4)
        assert stats.kstest(cond.decode(), "norm", args=(0, sigma)).pvalue > 0.01
        assert stats.ks_2samp(cond.decode(), direct.decode()).pvalue > 0.001


class _EluNet:
    """Reruns a class's cfg20 tests on an elu net, whose negative units the
    conditional step draws as |Z| and whose norm it sums in plain doubles.
    Subclasses may name another activation; tanh and sigmoid draw both
    sign groups as |Z|."""

    nonlinearity = ELU

    @pytest.fixture(scope="class")
    def cfg20(self):
        return NetworkConfig(input_dim=20, layer_widths=(20, 20),
                             nonlinearity=self.nonlinearity, weight_std=1.0)

    @pytest.fixture(scope="class")
    def x20(self, cfg20):
        return sample_input(cfg20.input_dim, 11)


class TestMatrixPathDeterminism(_EluNet, TestSamplerDeterminism):
    pass


class TestMatrixPathLaw(_EluNet, TestSamplerLaw):
    pass


class TestTanhPathDeterminism(_EluNet, TestSamplerDeterminism):
    nonlinearity = TANH


class TestTanhPathLaw(_EluNet, TestSamplerLaw):
    nonlinearity = TANH


class TestSigmoidPathLaw(_EluNet, TestSamplerLaw):
    nonlinearity = SIGMOID


MATRIX_FAMILIES = [ELU, SELU, TANH, SIGMOID]


def _all_rows_log_domain(monkeypatch):
    # no |log r| is below 0, so every row takes the log-domain norm
    monkeypatch.setattr(network_model, "_LINEAR_LOG_R", 0.0)


class TestMatrixStepFallback:
    """For activations not linear on both sides (elu, selu, tanh, sigmoid)
    the conditional step sums each row's norm in plain doubles and hands
    rows out of double range to the log-domain reduction; both must give
    the same draws up to rounding."""

    @pytest.mark.parametrize("nonlinearity", MATRIX_FAMILIES,
                             ids=lambda spec: spec.family)
    def test_log_domain_rows_agree_with_linear_rows(self, nonlinearity,
                                                    monkeypatch):
        cfg = NetworkConfig(input_dim=20, layer_widths=(20, 20, 20),
                            nonlinearity=nonlinearity,
                            weight_std=(0.7, 1.5, 1.0), include_bias=True)
        x = sample_input(20, 4)
        linear = sample_layer_units(cfg, x, (2, 3), "pre", 5000, 4)
        _all_rows_log_domain(monkeypatch)
        logdom = sample_layer_units(cfg, x, (2, 3), "pre", 5000, 4)
        for layer in (2, 3):
            np.testing.assert_array_equal(linear[layer].signs,
                                          logdom[layer].signs)
            np.testing.assert_allclose(linear[layer].log_magnitudes,
                                       logdom[layer].log_magnitudes,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nonlinearity,std", [(ELU, 100.0), (TANH, 1e-2)],
                             ids=["elu", "tanh"])
    def test_depth_200_leaves_double_range(self, nonlinearity, std,
                                           monkeypatch):
        # elu grows and tanh shrinks |g| past e^709 and e^-709; rows cross
        # |log r| = _LINEAR_LOG_R at different layers, so some chunks mix
        # linear and log-domain rows
        cfg = NetworkConfig(input_dim=10, layer_widths=(10,) * 200,
                            nonlinearity=nonlinearity, weight_std=std)
        x = sample_input(10, 2)
        s = sample_units(cfg, x, 200, 0, "pre", 2000, 2)
        lm = s.log_magnitudes
        assert np.all(np.isfinite(lm))
        assert np.all(s.signs != 0)
        assert np.max(np.abs(lm)) > 709.0
        _all_rows_log_domain(monkeypatch)
        logdom = sample_units(cfg, x, 200, 0, "pre", 2000, 2)
        np.testing.assert_array_equal(s.signs, logdom.signs)
        np.testing.assert_allclose(lm, logdom.log_magnitudes, rtol=1e-12)

    @pytest.mark.parametrize("nonlinearity,std", [
        (ELU, 1e200), (TANH, 1e-200)], ids=["elu_overflow", "tanh_underflow"])
    def test_unrepresentable_linear_sums_take_the_log_domain(
            self, nonlinearity, std, monkeypatch):
        # with no range limit, elu(1e200)^2 overflows and tanh(1e-200)^2
        # underflows; the sum check alone must send those rows on
        cfg = NetworkConfig(input_dim=4, layer_widths=(3, 3),
                            nonlinearity=nonlinearity, weight_std=std)
        x = sample_input(4, 6)
        monkeypatch.setattr(network_model, "_LINEAR_LOG_R", np.inf)
        unlimited = sample_units(cfg, x, 2, 0, "pre", 3000, 6)
        _all_rows_log_domain(monkeypatch)
        logdom = sample_units(cfg, x, 2, 0, "pre", 3000, 6)
        assert np.all(np.isfinite(unlimited.log_magnitudes))
        np.testing.assert_array_equal(unlimited.signs, logdom.signs)
        np.testing.assert_allclose(unlimited.log_magnitudes,
                                   logdom.log_magnitudes, rtol=0, atol=1e-12)


class TestWorkerThreads:
    def test_capped_by_workers_cores_and_chunks(self, monkeypatch):
        monkeypatch.setattr(network_model.os, "cpu_count", lambda: 4)
        assert worker_threads(1, 10) == 1
        assert worker_threads(2, 10) == 2
        assert worker_threads(1000, 24_000) == 4
        assert worker_threads(8, 3) == 3

    def test_unknown_core_count_means_one(self, monkeypatch):
        monkeypatch.setattr(network_model.os, "cpu_count", lambda: None)
        assert worker_threads(8, 10) == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one(self, workers):
        with pytest.raises(ValueError):
            worker_threads(workers, 10)


PRELU = NonlinearitySpec("prelu", (0.25,))


class TestExactSampler:
    """The conditional step for every family (chi-square sums for relu,
    prelu and identity; |Z| groups for elu, selu, tanh and sigmoid) against
    the direct forward pass, the relu moment oracle, and the stream
    contracts."""

    @pytest.mark.parametrize("nonlinearity,bias,std", [
        (RELU, False, 1.0),
        (PRELU, True, (0.8, 1.5, 1.2)),
        (NonlinearitySpec("identity"), False, 1.0),
        (ELU, True, (0.8, 1.5, 1.2)),
        (SELU, True, (1.2, 0.7, 1.0)),
        (TANH, True, (0.8, 1.5, 1.2)),
        (SIGMOID, True, (1.2, 0.7, 1.0)),
    ])
    def test_agrees_with_direct_at_depth_3(self, nonlinearity, bias, std):
        cfg = NetworkConfig(input_dim=20, layer_widths=(20, 20, 20),
                            nonlinearity=nonlinearity, weight_std=std,
                            include_bias=bias)
        x = sample_input(20, 5)
        n = 20_000
        exact = sample_units(cfg, x, 3, 0, "pre", n, 5)
        direct = sample_units(cfg, x, 3, 0, "pre", n, 5, method="direct")
        d, p = stats.ks_2samp(exact.decode(), direct.decode())
        assert p > 0.001

    def test_width_one_relu_dies_half_the_time(self):
        # g2 = 0 exactly when the single layer-1 unit is not positive
        cfg = NetworkConfig(input_dim=4, layer_widths=(1, 1),
                            nonlinearity=RELU)
        n = 40_000
        s = sample_units(cfg, sample_input(4, 7), 2, 0, "pre", n, 7)
        dead = s.signs == 0
        assert abs(dead.mean() - 0.5) <= 4 * 0.5 / math.sqrt(n)
        assert np.all(np.isneginf(s.log_magnitudes[dead]))
        assert np.all(np.isfinite(s.log_magnitudes[~dead]))
        assert not np.any(np.isnan(s.log_magnitudes))

    def test_depth_200_stays_finite_in_log_domain(self):
        cfg = NetworkConfig(input_dim=10, layer_widths=(10,) * 200,
                            nonlinearity=RELU, weight_std=100.0)
        s = sample_units(cfg, sample_input(10, 2), 200, 0, "pre", 2000, 2)
        live = s.signs != 0
        assert not np.any(np.isnan(s.log_magnitudes))
        assert np.all(np.isfinite(s.log_magnitudes[live]))
        assert np.all(np.isneginf(s.log_magnitudes[~live]))
        # far beyond double range, where a linear forward pass overflows
        assert np.max(s.log_magnitudes[live]) > 709.0

    @pytest.mark.parametrize("layer", [2, 3])
    def test_second_moment_matches_relu_oracle(self, layer):
        cfg = NetworkConfig(input_dim=5, layer_widths=(5, 5, 5),
                            nonlinearity=RELU)
        x = sample_input(5, 17)
        n = 200_000
        g2 = sample_units(cfg, x, layer, 0, "pre", n, 17).decode() ** 2
        want = relu_norm_oracle(cfg.layer_widths, layer, 2,
                                scale=math.sqrt(float(x @ x))) ** 2
        se = np.std(g2) / math.sqrt(n)
        assert abs(np.mean(g2) - want) <= 4 * se

    def test_prelu_stream_is_request_shape_and_worker_invariant(self):
        _assert_request_shape_and_worker_invariant(NetworkConfig(
            input_dim=20, layer_widths=(20, 20, 20), nonlinearity=PRELU))

    @pytest.mark.parametrize("nonlinearity", [ELU, SELU, TANH, SIGMOID],
                             ids=lambda spec: spec.family)
    def test_half_step_stream_is_request_shape_and_worker_invariant(
            self, nonlinearity):
        _assert_request_shape_and_worker_invariant(NetworkConfig(
            input_dim=20, layer_widths=(20, 20, 20), nonlinearity=nonlinearity,
            weight_std=(0.8, 1.5, 1.2), include_bias=True))


def _assert_request_shape_and_worker_invariant(cfg):
    x = sample_input(20, 11)
    n = 10_000
    alone = sample_units(cfg, x, 2, 0, "pre", n, 11)
    joint_s, joint_lm = sample_joint_units(cfg, x, 2, (0, 1, 2), "pre", n,
                                           (11, STREAM_UNITS))
    multi = sample_layer_units(cfg, x, (1, 2, 3), "pre", n, 11, workers=3)
    np.testing.assert_array_equal(alone.signs, joint_s[:, 0])
    np.testing.assert_array_equal(alone.log_magnitudes, joint_lm[:, 0])
    np.testing.assert_array_equal(alone.signs, multi[2].signs)
    np.testing.assert_array_equal(alone.log_magnitudes, multi[2].log_magnitudes)


@pytest.mark.parametrize("families", [
    [ELU, NonlinearitySpec("elu", (0.3,)), SELU],
    [RELU, NonlinearitySpec("prelu", (0.3,)), NonlinearitySpec("identity")],
    [TANH, SIGMOID],
], ids=["half-step", "exact-step", "matrix-step"])
def test_returned_units_carry_the_norm_that_scales_the_next_layer(families):
    # given every unit g1 of layer 1, g2 = s2 sqrt(||phi(g1)||^2 + 1) Z with
    # Z from draws that depend on neither phi nor the scale; so g2 over that
    # factor is one array for all families of one step and every weight_std,
    # unless the returned units disagree with the norm the step carried on
    x = sample_input(4, 9)
    ts = []
    for phi in families:
        for std in (1.0, (0.6, 1.7)):
            cfg = NetworkConfig(input_dim=4, layer_widths=(3, 3),
                                nonlinearity=phi, weight_std=std,
                                include_bias=True)
            got = run_sampler(cfg, x, 5000, {1: [0, 1, 2], 2: [0]},
                              (9, STREAM_UNITS))
            g1 = got[1][0] * np.exp(got[1][1])
            g2 = got[2][0][:, 0] * np.exp(got[2][1][:, 0])
            scale = cfg.weight_std_for(2) * np.sqrt(
                np.sum(apply(phi, g1) ** 2, axis=1) + 1.0)
            ts.append(g2 / scale)
    for t in ts[1:]:
        np.testing.assert_allclose(t, ts[0], rtol=1e-12)


PIN_CONFIGS = {
    "bias-depth3": dict(input_dim=20, layer_widths=(20, 20, 20),
                        weight_std=(0.7, 1.5, 1.0), include_bias=True),
    # elu and selu rows pass |log r| = _LINEAR_LOG_R near layer 53, so their
    # deep layers mix plain-double and log-domain norms
    "depth60-std100": dict(input_dim=10, layer_widths=(10,) * 60,
                           weight_std=100.0),
}

# sha256 of run_sampler's (signs, log-magnitudes) bytes, layer by layer;
# relu to selu are sampler version 5's, tanh and sigmoid version 6's
PINNED_STREAMS = {
    ("relu", "bias-depth3"):
        "880710078e1bec911974ac7d4f310355a45b7e53b6f22e28a38dd501e9c2cfb4",
    ("relu", "depth60-std100"):
        "6b5fb97e0ca35a20b89923bb1c909763ce175844dc6723ad37ec2de522ad5396",
    ("prelu(0.3)", "bias-depth3"):
        "110da19e91ce1220c4c1537eb415d557d482931eee6485952fd675cc58929ceb",
    ("prelu(0.3)", "depth60-std100"):
        "2ff146caa45c59ac164235405cab1cc5a9b8ae3988a10ca15eac65e1d3f9ad0c",
    ("identity", "bias-depth3"):
        "09d475c33c2ff79b6efd8efd410a43d2c0620e5a4cda893242aa9ee6d7597ebd",
    ("identity", "depth60-std100"):
        "2772cd701b7fff502b565f8e4ee85449a7cbacf667b2b40a0024572c17a97580",
    ("elu(1.0)", "bias-depth3"):
        "700d47151e4bfa9bf113a06cb935512b168a1ab6a9ee1f903cc5ea54d9958c2b",
    ("elu(1.0)", "depth60-std100"):
        "398ef2d63af90b77e15c81887100f19020de5c998785c4f4315bedf87c7df5b4",
    ("selu", "bias-depth3"):
        "8ee88c5e402057fbddae11b24fea08dcf92f71ee2e98dcd56e3bb7f562a88819",
    ("selu", "depth60-std100"):
        "6fce2c8bc38c759c2138d3e10ab7c71004a67b0db9d27dc43f30c35cdf46a3f4",
    ("tanh", "bias-depth3"):
        "e01951fd67c91a3b31a7f25693b66aab1b83709478d727f9488a184ffa7c3fa3",
    ("tanh", "depth60-std100"):
        "0a24004bd8c8237dd4d05f2ce9f1d55c005cd03b8621ed528beed882621193d9",
    ("sigmoid", "bias-depth3"):
        "c49c035521bdf0de1ce4fd1f7f0db651abea4366f8df424825693401d987304b",
    ("sigmoid", "depth60-std100"):
        "9d59b7771b7f4a33f529a2e0d65fc4e552380b047565ef29f84eba34c9c79d91",
}


@pytest.mark.parametrize("family,config", sorted(PINNED_STREAMS))
def test_conditional_stream_is_pinned_bit_for_bit(family, config):
    # the seed -> output-bytes contract: a change here is a new
    # SAMPLER_VERSION, not a new digest
    cfg = NetworkConfig(nonlinearity=NonlinearitySpec.parse(family),
                        **PIN_CONFIGS[config])
    got = run_sampler(cfg, sample_input(cfg.input_dim, 13), 3000,
                      {1: [0], 2: [0, 1, 2], cfg.depth: [0, 4]},
                      (13, STREAM_UNITS))
    digest = hashlib.sha256()
    for layer in sorted(got):
        digest.update(got[layer][0].tobytes())
        digest.update(got[layer][1].tobytes())
    assert digest.hexdigest() == PINNED_STREAMS[family, config]
