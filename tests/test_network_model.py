import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from layertails import network_model
from layertails.errors import ConfigFileError
from layertails.network_model import (STREAM_UNITS, NetworkConfig,
                                      UnitSampleSet, parse_config_file,
                                      run_sampler, sample_input,
                                      sample_joint_units, sample_layer_units,
                                      worker_threads)
from layertails.nonlinearity import (NonlinearitySpec, apply,
                                     apply_signed_log, sides)
from layertails.tail_analysis import relu_norm_oracle

from conftest import write_ini

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
        dict(input_dim=True),
        dict(layer_widths=(4, True, 4)),
        dict(input_dim=2.5),
        dict(include_bias="no"),
        dict(layer_widths=(2.5, 3.9, 4)),
        dict(weight_std=(1.0, float("nan"), 1.0)),
        dict(weight_std=True),
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
                  small_config(include_bias=True),
                  small_config(nonlinearity=TANH),
                  small_config(layer_widths=(6, 5, 5)),
                  small_config(input_dim=9)]
        hashes = {c.config_hash() for c in [a] + others}
        assert len(hashes) == 1 + len(others)

    def test_config_file_round_trip(self, tmp_path):
        cfg = NetworkConfig(input_dim=12, layer_widths=(3, 9),
                            nonlinearity=NonlinearitySpec.parse("prelu(0.3)"),
                            weight_std=(0.5, 1.25), include_bias=True)
        path = tmp_path / "net.ini"
        write_ini(path, cfg)
        assert parse_config_file(path) == cfg

    # The dict form is what run manifests record as params.network, and the
    # INI text is what the test helper write_ini writes; both are pinned so
    # that a change to either is a deliberate format change.
    PRELU_DICT = {"input_dim": 12, "layer_widths": [3, 9],
                  "nonlinearity": "prelu(0.3)", "weight_std": [0.5, 1.25],
                  "include_bias": True}
    PRELU_INI = ("[network]\ninput_dim = 12\nlayer_widths = 3,9\n"
                 "nonlinearity = prelu(0.3)\nweight_std = 0.5,1.25\n"
                 "include_bias = true\n\n")
    SCALAR_INI = ("[network]\ninput_dim = 8\nlayer_widths = 6,5,4\n"
                  "nonlinearity = relu\nweight_std = 1.0\n"
                  "include_bias = false\n\n")

    def test_dict_form_is_the_manifest_form(self):
        cfg = NetworkConfig.from_dict(self.PRELU_DICT)
        assert cfg.to_dict() == self.PRELU_DICT
        assert cfg == NetworkConfig(
            input_dim=12, layer_widths=(3, 9),
            nonlinearity=NonlinearitySpec.parse("prelu(0.3)"),
            weight_std=(0.5, 1.25), include_bias=True)
        scalar = small_config(weight_std=2)
        assert scalar.to_dict()["weight_std"] == 2.0
        for c in (cfg, scalar, small_config(nonlinearity=ELU)):
            assert NetworkConfig.from_dict(c.to_dict()) == c

    def test_dict_form_names_unknown_fields(self):
        # manifests of earlier builds carry a network seed that selected no
        # draw; loading one names the field instead of dropping it
        with pytest.raises(ValueError,
                           match=r"network fields unknown: \['seed'\]"):
            NetworkConfig.from_dict(dict(self.PRELU_DICT, seed=42))

    def test_config_file_ignores_keys_it_does_not_read(self, tmp_path):
        # INI files of earlier builds carry a seed key; it is ignored
        with_seed, without = tmp_path / "a.ini", tmp_path / "b.ini"
        with_seed.write_text(self.PRELU_INI.replace("\n\n", "\nseed = 5\n"))
        without.write_text(self.PRELU_INI)
        assert parse_config_file(with_seed) == parse_config_file(without) \
            == NetworkConfig.from_dict(self.PRELU_DICT)

    def test_config_file_text_is_unchanged(self, tmp_path):
        path = tmp_path / "net.ini"
        write_ini(path, NetworkConfig.from_dict(self.PRELU_DICT))
        assert path.read_text() == self.PRELU_INI
        write_ini(path, small_config())
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
            sample_layer_units(cfg20, x20, [2], "pre", 8192, 2**32)
        with pytest.raises(ValueError):
            sample_layer_units(cfg20, x20, (1, 2), "pre", 100, 2**32)
        with pytest.raises(ValueError):
            sample_input(4, 2**32)
        with pytest.raises(ValueError):
            sample_input(4, -1)
        top = sample_layer_units(cfg20, x20, [2], "pre", 100, 2**32 - 1)[2]
        assert np.all(np.isfinite(top.log_magnitudes))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, cfg20, bad):
        x = np.ones(cfg20.input_dim)
        x[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sample_layer_units(cfg20, x, [2], "pre", 100, 0)


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
        a = sample_layer_units(cfg20, x20, [2], "pre", 3000, 11)[2]
        b = sample_layer_units(cfg20, x20, [2], "pre", 3000, 11)[2]
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(a.log_magnitudes, b.log_magnitudes)

    def test_worker_count_does_not_change_the_stream(self, cfg20, x20):
        a = sample_layer_units(cfg20, x20, [2], "pre", 10_000, 11, workers=1)
        b = sample_layer_units(cfg20, x20, [2], "pre", 10_000, 11, workers=4)
        np.testing.assert_array_equal(a[2].log_magnitudes, b[2].log_magnitudes)

    def test_unit_stream_is_request_shape_invariant(self, cfg20, x20):
        # drawing unit 0 alone, with a sibling, or with deeper layers in the
        # same pass must yield the identical stream
        alone = sample_layer_units(cfg20, x20, [2], "pre", 2000, 11)[2]
        joint_s, joint_lm = sample_joint_units(cfg20, x20, 2, (0, 1), "pre",
                                               2000, (11, STREAM_UNITS))
        multi = sample_layer_units(cfg20, x20, (1, 2), "pre", 2000, 11)
        np.testing.assert_array_equal(alone.log_magnitudes, joint_lm[:, 0])
        np.testing.assert_array_equal(alone.log_magnitudes,
                                      multi[2].log_magnitudes)

    def test_post_is_the_transformed_pre(self, cfg20, x20):
        pre = sample_layer_units(cfg20, x20, [2], "pre", 2000, 11)[2]
        post = sample_layer_units(cfg20, x20, [2], "post", 2000, 11)[2]
        s, lm = apply_signed_log(cfg20.nonlinearity, pre.signs,
                                 pre.log_magnitudes)
        np.testing.assert_array_equal(post.signs, s)
        np.testing.assert_array_equal(post.log_magnitudes, lm)

    def test_seeds_are_not_shared_across_methods(self, cfg20, x20):
        a = sample_layer_units(cfg20, x20, [1], "pre", 2000, 11)[1]
        b = direct_oracle(cfg20, x20, 2000, {1: [0]}, 11)[1][1]
        assert not np.array_equal(a.log_magnitudes, b[:, 0])

    def test_out_of_range_requests_rejected(self, cfg20, x20):
        with pytest.raises(ValueError):
            sample_layer_units(cfg20, x20, [3], "pre", 1000, 0)
        with pytest.raises(ValueError):
            sample_joint_units(cfg20, x20, 2, (20,), "pre", 1000, (0,))
        with pytest.raises(ValueError):
            sample_layer_units(cfg20, x20, (0, 1), "pre", 1000, 0)
        with pytest.raises(ValueError):
            sample_joint_units(cfg20, x20, 2, (0, 0), "pre", 1000, (0,))
        with pytest.raises(ValueError, match="layer 2"):
            sample_joint_units(cfg20, x20, 2, (), "pre", 1000, (0,))
        with pytest.raises(ValueError, match="layer 2"):
            run_sampler(cfg20, x20, 1000, {1: [0], 2: []}, (0,))
        with pytest.raises(ValueError, match="kind must be 'pre' or 'post'"):
            run_sampler(cfg20, x20, 1000, {1: [0]}, (0,), "mid")


# The direct oracle: a fresh weight matrix per layer per draw and a literal
# forward pass in linear arithmetic, O(H_l H_{l-1}) normals per layer per
# draw. It is the ground truth for the package's sampler, which never draws
# a weight. Chunk c of its draws comes from the stream (seed, ORACLE_STREAM,
# c), a tag that no sampling operation of the package uses.
ORACLE_STREAM = 7
ORACLE_CHUNK = 256


def _direct_weights(cfg, seed, c, b, top):
    """One (b, width, fan_in) weight array per layer 1..top: the weights
    of the oracle's chunk c of b draws, in the order its stream yields."""
    rng = network_model._generator((seed, ORACLE_STREAM, c))
    weights, cols = [], cfg.input_dim + cfg.include_bias
    for layer in range(1, top + 1):
        width = cfg.layer_widths[layer - 1]
        weights.append(cfg.weight_std_for(layer)
                       * rng.standard_normal((b, width, cols)))
        cols = width + cfg.include_bias
    return weights


def direct_oracle(cfg, x, n, needs, seed, kind="pre"):
    """run_sampler's request ({layer: units}) and return form ({layer:
    (signs, log_magnitudes)}), drawn by the literal forward pass."""
    top = max(needs)
    cols = {layer: [] for layer in needs}
    for c, start in enumerate(range(0, n, ORACLE_CHUNK)):
        b = min(ORACLE_CHUNK, n - start)
        h = np.broadcast_to(x, (b, x.shape[0]))
        for layer, W in enumerate(_direct_weights(cfg, seed, c, b, top),
                                  start=1):
            if cfg.include_bias:
                h = np.concatenate([h, np.ones((b, 1))], axis=1)
            g = np.einsum("bij,bj->bi", W, h)
            assert np.all(np.isfinite(g)), f"layer {layer} overflows"
            if layer in needs:
                cols[layer].append(g[:, needs[layer]])
            if layer < top:
                h = apply(cfg.nonlinearity, g)
    out = {}
    for layer, parts in cols.items():
        g = np.concatenate(parts)
        with np.errstate(divide="ignore"):
            signs, lms = np.sign(g).astype(np.int8), np.log(np.abs(g))
        if kind == "post":
            signs, lms = apply_signed_log(cfg.nonlinearity, signs, lms)
        out[layer] = (signs, lms)
    return out


def _direct_unit0(cfg, x, layer, n, seed):
    """The oracle's draws of g(layer)_0, decoded."""
    signs, lms = direct_oracle(cfg, x, n, {layer: [0]}, seed)[layer]
    return signs[:, 0] * np.exp(lms[:, 0])


class TestForward:
    """Per-draw literal propagation through the direct oracle's weights."""

    def test_matches_manual_propagation(self):
        n, seed = 20, 5
        cfg = small_config(nonlinearity=TANH)
        x = sample_input(8, seed)
        weights = _direct_weights(cfg, seed, 0, n, cfg.depth)
        needs = {layer: list(range(width))
                 for layer, width in enumerate(cfg.layer_widths, start=1)}
        got = direct_oracle(cfg, x, n, needs, seed)
        post = [direct_oracle(cfg, x, n, {layer: [0]}, seed, "post")[layer]
                for layer in range(1, cfg.depth + 1)]
        for i in range(n):
            h = x
            for layer, W in enumerate(weights, start=1):
                g = W[i] @ h
                signs, lms = got[layer]
                np.testing.assert_allclose(signs[i] * np.exp(lms[i]), g,
                                           rtol=1e-12)
                h = np.tanh(g)
                signs, lms = post[layer - 1]
                assert signs[i, 0] * np.exp(lms[i, 0]) == pytest.approx(
                    h[0], rel=1e-12)

    def test_bias_column_is_appended(self):
        n, seed = 20, 5
        cfg = small_config(include_bias=True)
        x = sample_input(8, seed)
        W1 = _direct_weights(cfg, seed, 0, n, 1)[0]
        assert W1.shape == (n, 6, 9)
        signs, lms = direct_oracle(cfg, x, n, {1: list(range(6))}, seed)[1]
        g1 = W1 @ np.concatenate([x, [1.0]])
        np.testing.assert_allclose(signs * np.exp(lms), g1, rtol=1e-12)


class TestSamplerLaw:
    """Distributional checks tying the conditional sampler to ground
    truth. The sampler never materializes weight matrices, so agreement
    with the direct oracle is the key correctness evidence."""

    def test_layer1_matches_gaussian_exactly_in_law(self, cfg20, x20):
        s = sample_layer_units(cfg20, x20, [1], "pre", 50_000, 3)[1]
        sigma = math.sqrt(float(x20 @ x20))
        d, p = stats.kstest(s.decode(), "norm", args=(0, sigma))
        assert p > 0.01

    def test_conditional_agrees_with_direct_at_depth(self, cfg20, x20):
        n = 30_000
        cond = sample_layer_units(cfg20, x20, [2], "pre", n, 3)[2]
        direct = _direct_unit0(cfg20, x20, 2, n, 3)
        d, p = stats.ks_2samp(cond.decode(), direct)
        assert p > 0.001

    def test_bias_enters_the_variance(self):
        # with a bias column, layer-1 variance is sigma_w^2 (|x|^2 + 1)
        cfg = NetworkConfig(input_dim=5, layer_widths=(5,), nonlinearity=RELU,
                            weight_std=1.0, include_bias=True)
        x = sample_input(5, 21)
        s = sample_layer_units(cfg, x, [1], "pre", 200_000, 21)[1]
        want = float(x @ x) + 1.0
        assert np.var(s.decode()) == pytest.approx(want, rel=0.02)

    def test_direct_matches_forward_exactly(self, cfg20):
        # the oracle is a batched literal forward pass: regenerate the
        # weights of its one chunk and propagate each draw on its own
        n, seed = 40, 13
        x = sample_input(8, seed)
        for bias in (False, True):
            cfg = small_config(nonlinearity=cfg20.nonlinearity,
                               weight_std=(0.7, 1.5, 1.0), include_bias=bias)
            got = direct_oracle(cfg, x, n, {1: list(range(6)),
                                            2: list(range(5)),
                                            3: list(range(4))}, seed)
            weights = _direct_weights(cfg, seed, 0, n, cfg.depth)
            for i in range(n):
                h = x
                for layer, W in enumerate(weights, start=1):
                    g = W[i] @ (np.append(h, 1.0) if bias else h)
                    signs, lms = got[layer]
                    np.testing.assert_allclose(signs[i] * np.exp(lms[i]), g,
                                               rtol=1e-12, atol=1e-12)
                    h = apply(cfg.nonlinearity, g)
            unit = direct_oracle(cfg, x, n, {3: [1]}, seed)[3]
            np.testing.assert_array_equal(unit[1][:, 0], got[3][1][:, 1])


# sha256 of the oracle's (signs, log-magnitudes) bytes, as PINNED_STREAMS,
# on a biased, per-layer-std net; generated by run_sampler(...,
# method="direct") before the oracle moved into the tests, so the KS tests
# compare against the draws they always did
ORACLE_STREAMS = {
    ("elu(1.0)", "pre"):
        "6c9e9dd1de920c7d4cea04996af8eb1a2008b0e6f6b1c50a895029a07c06ea48",
    ("tanh", "post"):
        "766a0831653877177940ab20147790b1ece1995f63f5dbe0d06937f9520216bf",
}


class TestDirectOracle:
    @pytest.mark.parametrize("family,kind", sorted(ORACLE_STREAMS))
    def test_stream_is_pinned_bit_for_bit(self, family, kind):
        cfg = NetworkConfig(nonlinearity=NonlinearitySpec.parse(family),
                            **PIN_CONFIGS["bias-depth3"])
        got = direct_oracle(cfg, sample_input(20, 13), 3000,
                            {1: [0], 2: [0, 1, 2], 3: [0, 4]}, 13, kind)
        assert _stream_digest(got) == ORACLE_STREAMS[family, kind]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sample_layer_units(small_config(), np.zeros(9), [1], "pre", 10, 0)


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
        cond = sample_layer_units(cfg, x, [2], "pre", n, 3)[2]
        direct = _direct_unit0(cfg, x, 2, n, 3)
        sigma = 1.3 * math.sqrt(self.WIDTHS[0] / 4)
        assert stats.kstest(cond.decode(), "norm", args=(0, sigma)).pvalue > 0.01
        assert stats.ks_2samp(cond.decode(), direct).pvalue > 0.001


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

    @pytest.mark.parametrize("nonlinearity", MATRIX_FAMILIES,
                             ids=lambda spec: spec.family)
    def test_split_groups_agree_in_log_domain(self, nonlinearity,
                                              monkeypatch):
        # the groups of layers 1 and 2 split; a log-domain row counts its
        # saturated entries as one term, log(count) + 2 log|c|
        cfg = NetworkConfig(input_dim=20, layer_widths=(20, 20, 20),
                            nonlinearity=nonlinearity,
                            weight_std=(30.0, 1000.0, 1.0), include_bias=True)
        x = sample_input(20, 4)
        splits = _splits(monkeypatch)
        linear = sample_layer_units(cfg, x, (2, 3), "pre", 5000, 4)
        assert all(splits)
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
        s = sample_layer_units(cfg, x, [200], "pre", 2000, 2)[200]
        lm = s.log_magnitudes
        assert np.all(np.isfinite(lm))
        assert np.all(s.signs != 0)
        assert np.max(np.abs(lm)) > 709.0
        _all_rows_log_domain(monkeypatch)
        logdom = sample_layer_units(cfg, x, [200], "pre", 2000, 2)[200]
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
        unlimited = sample_layer_units(cfg, x, [2], "pre", 3000, 6)[2]
        _all_rows_log_domain(monkeypatch)
        logdom = sample_layer_units(cfg, x, [2], "pre", 3000, 6)[2]
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


def _exact_pmf(n):
    """C(n, k) / 2^n for k = 0..n, each correctly rounded."""
    total, c, pmf = 1 << n, 1, []
    for k in range(n + 1):
        pmf.append(c / total)
        c = c * (n - k) // (k + 1)
    return np.array(pmf)


class _AlmostOne:
    """A generator stand-in whose uniforms are all 1 - 2^-53."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class TestFairCount:
    """The alias table behind every layer's sign count N' ~ Bin(n, 1/2)."""

    @pytest.mark.parametrize("n", [1, 2, 9, 63, 64, 99, 999, 1600, 9999])
    def test_table_holds_the_exact_pmf(self, n):
        lo, prob, alias = network_model._fair_table(n)
        m = prob.size
        assert m == n + 1 - 2 * lo
        mass = np.array(prob, dtype=float)
        np.add.at(mass, alias, 1.0 - prob)
        mass /= m
        pmf = _exact_pmf(n)
        np.testing.assert_allclose(mass, pmf[lo:n + 1 - lo], rtol=1e-12,
                                   atol=1e-300)
        # the counts without a column carry no double's worth of mass
        assert np.all(pmf[:lo] == 0.0) and np.all(pmf[n + 1 - lo:] == 0.0)

    def test_table_is_cached_and_read_only(self):
        lo, prob, alias = network_model._fair_table(99)
        assert network_model._fair_table(99)[1] is prob
        with pytest.raises(ValueError):
            prob[0] = 0.5
        with pytest.raises(ValueError):
            alias[0] = 1

    @pytest.mark.parametrize("n", [1, 63, 64, 99, 999])
    def test_draws_fit_the_exact_pmf(self, n):
        draws = network_model._fair_count(np.random.default_rng(n), n,
                                          1_000_000)
        observed = np.bincount(draws, minlength=n + 1)
        assert observed.size == n + 1
        expected = _exact_pmf(n) * draws.size
        # pool each tail into one cell of 5 or more expected draws
        keep = np.flatnonzero(expected >= 5.0)
        a, b = keep[0], keep[-1]
        cells_obs = np.r_[observed[:a + 1].sum(), observed[a + 1:b],
                          observed[b:].sum()]
        cells_exp = np.r_[expected[:a + 1].sum(), expected[a + 1:b],
                          expected[b:].sum()]
        assert stats.chisquare(cells_obs, cells_exp).pvalue > 1e-3

    def test_width_one_layer_counts_zero_and_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert np.all(network_model._fair_count(rng, 0, 100) == 0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 99, 999, 9999])
    def test_uniform_next_to_one_stays_in_range(self, n):
        lo = network_model._fair_table(n)[0]
        got = network_model._fair_count(_AlmostOne(), n, 3)
        assert np.all((lo <= got) & (got <= n - lo))


def nonlinearity_saturation(phi):
    """The smallest saturation point T of phi's curved sides."""
    return min(side.saturation[0] for side in sides(phi)
               if side.saturation is not None)


class TestSplitDraws:
    """The two draws of a split |Z| group against their exact laws."""

    @pytest.mark.parametrize("p", [0.2, 1e-3], ids=["binomial", "gaps"])
    def test_below_counts_are_binomial(self, p):
        # rows of 0, 7 and 50 entries; p sum(n) is above the row count at
        # p = 0.2 (a binomial per row) and below it at 1e-3 (gaps)
        n = np.tile([0, 7, 50], 1366)
        assert (p * n.sum() >= n.size) == (p == 0.2)
        rng = network_model._generator((5, 99))
        got = np.concatenate([network_model._below_counts(rng, n, p)
                              for _ in range(30)])
        every = np.tile(n, 30)
        assert np.all(got[every == 0] == 0)
        for m in (7, 50):
            counts = got[every == m]
            pmf = stats.binom(m, p).pmf(np.arange(m + 1))
            keep = pmf * counts.size >= 5  # merge the sparse tail
            expected = np.append(pmf[keep], 1.0 - pmf[keep].sum())
            observed = np.append(np.bincount(counts, minlength=m + 1)[keep],
                                 np.sum(~keep[counts]))
            if expected[-1] * counts.size < 1e-9:
                expected, observed = expected[:-1], observed[:-1]
            chi2 = stats.chisquare(observed, expected * counts.size)
            assert chi2.pvalue > 0.001

    @pytest.mark.parametrize("t", [0.3, 1e-3])
    def test_below_is_the_truncated_half_normal(self, t):
        e = network_model._below(t, network_model._generator((6, 99)),
                                 np.empty(20_000))
        assert np.all((0 <= e) & (e < t))
        assert stats.kstest(e, stats.truncnorm(0.0, t).cdf).pvalue > 0.001

    @pytest.mark.parametrize("p", [1e-300, 0.0])
    def test_counts_at_a_vanishing_p_are_zero(self, p):
        # numpy's geometric saturates at 2^63 - 1 below p = 1e-19; p = 0.0
        # is an erf that underflowed, at log r above about 710
        n = np.full(4096, 99)
        got = network_model._below_counts(network_model._generator((8, 99)),
                                          n, p)
        assert got.shape == n.shape and not np.any(got)

    def test_no_split_without_saturation_or_past_the_cutoff(self):
        elu_neg = sides(ELU)[1]
        assert network_model._split(sides(SIGMOID)[1], 50.0) is None
        assert network_model._split(elu_neg, -math.inf) is None
        # p = 1/4 at t = 0.3186
        assert network_model._split(elu_neg, math.log(40.0 / 0.32)) is None
        t, p = network_model._split(elu_neg, math.log(40.0 / 0.318))
        assert t == pytest.approx(0.318) and p == pytest.approx(0.2496,
                                                                abs=1e-4)


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
        exact = sample_layer_units(cfg, x, [3], "pre", n, 5)[3]
        direct = _direct_unit0(cfg, x, 3, n, 5)
        d, p = stats.ks_2samp(exact.decode(), direct)
        assert p > 0.001

    @pytest.mark.parametrize("layer", [2, 3])
    @pytest.mark.parametrize("nonlinearity", [ELU, SELU, TANH, SIGMOID],
                             ids=lambda spec: spec.family)
    def test_split_agrees_with_direct(self, nonlinearity, layer,
                                      monkeypatch):
        # r_1 = sigma_1 |x| puts every layer-1 group at p = 0.24, just
        # inside the cutoff (per-row counts by binomials); sigma_2 = 10^4
        # puts layer 2's at p of 10^-5 to 10^-2 (counts by geometric gaps)
        x = sample_input(20, 5)
        t = nonlinearity_saturation(nonlinearity)
        std1 = t / (0.306 * math.sqrt(float(x @ x)))
        cfg = NetworkConfig(input_dim=20, layer_widths=(20, 20, 20),
                            nonlinearity=nonlinearity,
                            weight_std=(std1, 1e4, 1.0))
        n = 20_000
        splits = _splits(monkeypatch)
        exact = sample_layer_units(cfg, x, [layer], "pre", n, 5)[layer]
        assert max(p for p in splits if p) > 0.23
        if layer == 3:
            assert min(p for p in splits if p) < 0.01
        direct = _direct_unit0(cfg, x, layer, n, 5)
        assert stats.ks_2samp(exact.decode(), direct).pvalue > 0.001

    @pytest.mark.parametrize("nonlinearity", [ELU, SELU, TANH, SIGMOID],
                             ids=lambda spec: spec.family)
    def test_split_layer_1_units_are_exactly_gaussian(self, nonlinearity,
                                                      monkeypatch):
        # layer 1 is N(0, r_1^2) in every unit; units 0..3 are drawn as
        # plain normals before the other 16 units' groups, which split at
        # p = 0.24 and carry the norm to layer 2
        x = sample_input(20, 8)
        r1 = nonlinearity_saturation(nonlinearity) / 0.306
        cfg = NetworkConfig(input_dim=20, layer_widths=(20, 20),
                            nonlinearity=nonlinearity,
                            weight_std=r1 / math.sqrt(float(x @ x)))
        splits = _splits(monkeypatch)
        signs, lms = run_sampler(cfg, x, 20_000, {1: [1, 3], 2: [0]},
                                 (8, STREAM_UNITS))[1]
        assert splits and min(p for p in splits if p) > 0.23
        for col in range(2):
            g = signs[:, col] * np.exp(lms[:, col])
            assert stats.kstest(g, "norm", args=(0, r1)).pvalue > 0.001

    @pytest.mark.parametrize("family", ["relu", "split-elu", "tanh"])
    def test_joint_request_agrees_with_direct(self, family, monkeypatch):
        # units past unit 0 and a joint statistic of two units, from one
        # request, against the forward pass asked the same units; the
        # split elu is test_split_agrees_with_direct's net, whose layer-1
        # groups split at p = 0.24 and layer-2 ones below 0.01
        x = sample_input(20, 5)
        phi = ELU if family == "split-elu" else NonlinearitySpec(family)
        std = 1.0
        if family == "split-elu":
            std = (nonlinearity_saturation(ELU)
                   / (0.306 * math.sqrt(float(x @ x))), 1e4, 1.0)
        cfg = NetworkConfig(input_dim=20, layer_widths=(20, 20, 20),
                            nonlinearity=phi, weight_std=std)
        needs = {1: [0, 1, 2], 2: [0, 1], 3: [0]}
        n = 20_000
        splits = _splits(monkeypatch)
        exact = run_sampler(cfg, x, n, needs, (5, STREAM_UNITS))
        assert any(splits) == (family == "split-elu")
        direct = direct_oracle(cfg, x, n, needs, 5)

        def statistics(got):
            g = {layer: s * np.exp(lm) for layer, (s, lm) in got.items()}
            return g[1][:, 2], g[2][:, 1], g[3][:, 0], np.max(g[2], axis=1)

        for a, b in zip(statistics(exact), statistics(direct)):
            assert stats.ks_2samp(a, b).pvalue > 0.001

    def test_width_one_relu_dies_half_the_time(self):
        # g2 = 0 exactly when the single layer-1 unit is not positive
        cfg = NetworkConfig(input_dim=4, layer_widths=(1, 1),
                            nonlinearity=RELU)
        n = 40_000
        s = sample_layer_units(cfg, sample_input(4, 7), [2], "pre", n, 7)[2]
        dead = s.signs == 0
        assert abs(dead.mean() - 0.5) <= 4 * 0.5 / math.sqrt(n)
        assert np.all(np.isneginf(s.log_magnitudes[dead]))
        assert np.all(np.isfinite(s.log_magnitudes[~dead]))
        assert not np.any(np.isnan(s.log_magnitudes))

    @pytest.mark.parametrize("slope", [1e150, 1e-150])
    def test_prelu_slopes_near_the_square_limits_sample(self, slope):
        # width 1: g2 = r2 Z with r2 = |h1|, slope |g1| where g1 < 0, so
        # log|g2| - log|h1| is log|Z| on every draw, of median log 0.6745
        cfg = NetworkConfig(input_dim=3, layer_widths=(1, 1),
                            nonlinearity=NonlinearitySpec("prelu", (slope,)))
        got = run_sampler(cfg, sample_input(3, 5), 20_000, {1: [0], 2: [0]},
                          (5, STREAM_UNITS))
        (s1, lm1), (s2, lm2) = got[1], got[2]
        assert np.all(s2 != 0) and np.all(np.isfinite(lm2))
        log_z = lm2[:, 0] - lm1[:, 0] - np.where(s1[:, 0] < 0,
                                                 math.log(slope), 0.0)
        assert abs(np.exp(np.median(log_z)) - 0.6745) < 0.03

    def test_depth_200_stays_finite_in_log_domain(self):
        cfg = NetworkConfig(input_dim=10, layer_widths=(10,) * 200,
                            nonlinearity=RELU, weight_std=100.0)
        s = sample_layer_units(cfg, sample_input(10, 2), [200], "pre", 2000,
                               2)[200]
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
        g2 = sample_layer_units(cfg, x, [layer], "pre", n, 17)[layer].decode()
        g2 = g2 ** 2
        want = relu_norm_oracle(cfg.layer_widths, layer, 2,
                                scale=math.sqrt(float(x @ x))) ** 2
        se = np.std(g2) / math.sqrt(n)
        assert abs(np.mean(g2) - want) <= 4 * se

    @pytest.mark.parametrize("k", [2, 4])
    def test_wide_relu_moments_match_oracle_at_layer_3(self, k):
        cfg = NetworkConfig(input_dim=100, layer_widths=(100, 100, 100),
                            nonlinearity=RELU)
        x = sample_input(100, 19)
        n = 200_000
        g = sample_layer_units(cfg, x, [3], "pre", n, 19)[3].decode()
        gk = np.abs(g) ** k
        want = relu_norm_oracle(cfg.layer_widths, 3, k,
                                scale=math.sqrt(float(x @ x))) ** k
        se = np.std(gk) / math.sqrt(n)
        assert abs(np.mean(gk) - want) <= 4 * se

    @pytest.mark.parametrize("needs", [{1: [0]}, {1: [0, 1, 2], 3: [0]}],
                             ids=["alone", "with-others"])
    @pytest.mark.parametrize("phi", [RELU, TANH], ids=["relu", "tanh"])
    def test_unit_0_is_the_first_normal_of_its_layer_stream(self, phi, needs):
        # g(1)_0 = sigma_1 |x| Z bit for bit, Z the first standard_normal(b)
        # of each chunk's layer-1 stream, whatever else is requested
        cfg = NetworkConfig(input_dim=5, layer_widths=(8, 8, 8),
                            nonlinearity=phi, weight_std=(0.7, 1.3, 1.0))
        x = sample_input(5, 4)
        n = network_model.DEFAULT_CHUNK + 900
        signs, lms = run_sampler(cfg, x, n, needs, (4, STREAM_UNITS))[1]
        z = np.concatenate([
            network_model._generator((4, STREAM_UNITS, c), spawn_key=(1,))
            .standard_normal(b)
            for c, b in enumerate((network_model.DEFAULT_CHUNK, 900))])
        log_r = math.log(0.7) + 0.5 * math.log(math.fsum(x * x))
        np.testing.assert_array_equal(lms[:, 0], log_r + np.log(np.abs(z)))
        np.testing.assert_array_equal(signs[:, 0], np.sign(z))

    @pytest.mark.parametrize("family", ["relu", "prelu(0.3)", "identity",
                                        "elu(1.0)", "selu", "tanh",
                                        "sigmoid"])
    def test_a_lower_layer_reaches_the_next_only_through_its_last_unit(
            self, family, monkeypatch):
        # layer 1's request enters layer 2's draws only through k_1 = 1 +
        # the largest unit asked of it: no unit and unit 0 alone both give
        # k_1 = 1, unit 2 alone and units 0..2 both give k_1 = 3. The
        # curved families' layer-1 groups split (r_1 = 100 |(x, 1)|)
        phi = NonlinearitySpec.parse(family)
        curved = any(side.slope is None for side in sides(phi))
        cfg = NetworkConfig(input_dim=6, layer_widths=(6, 6),
                            nonlinearity=phi,
                            weight_std=(100.0 if curved else 0.8, 1.3),
                            include_bias=True)
        x = sample_input(6, 12)
        n = network_model.DEFAULT_CHUNK + 300
        splits = _splits(monkeypatch)

        def draw(needs):
            return run_sampler(cfg, x, n, needs, (12, STREAM_UNITS))

        alone = draw({2: [0]})
        with_unit_0 = draw({1: [0], 2: [0]})
        with_unit_2 = draw({1: [2], 2: [0]})
        with_units_0_to_2 = draw({1: [0, 1, 2], 2: [0]})
        for a, b in zip(alone[2], with_unit_0[2]):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(with_unit_2[2], with_units_0_to_2[2]):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(with_unit_2[1], with_units_0_to_2[1]):
            np.testing.assert_array_equal(a[:, 0], b[:, 2])
        assert all(splits) and bool(splits) == curved

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

    @pytest.mark.parametrize("nonlinearity", [ELU, SELU, TANH, SIGMOID],
                             ids=lambda spec: spec.family)
    def test_split_stream_is_request_shape_and_worker_invariant(
            self, nonlinearity, monkeypatch):
        # r_1 = 30 |(x, 1)| is about 140: every layer-1 group splits, near
        # the cutoff for elu, selu and sigmoid (p = 0.22) and at p = 0.11
        # for tanh
        splits = _splits(monkeypatch)
        _assert_request_shape_and_worker_invariant(NetworkConfig(
            input_dim=20, layer_widths=(20, 20, 20), nonlinearity=nonlinearity,
            weight_std=(30.0, 30.0, 1.0), include_bias=True))
        assert max(p for p in splits if p) > 0.1

    @pytest.mark.parametrize("nonlinearity,std", [
        (ELU, 100.0), (SELU, 100.0), (TANH, 100.0), (SIGMOID, 1000.0)],
        ids=["elu", "selu", "tanh", "sigmoid"])
    def test_split_layer_units_are_the_same_on_top_and_below(
            self, nonlinearity, std, monkeypatch):
        # layer 2's groups split in every chunk (the bias keeps r_2 >= std,
        # where a sigmoid row whose layer-1 units are all negative would
        # otherwise have r_2 near 0); its units 1 and 2 must not depend on
        # whether the layer also carries the norm to layer 3
        cfg = NetworkConfig(input_dim=10, layer_widths=(10, 10, 10),
                            nonlinearity=nonlinearity, weight_std=std,
                            include_bias=True)
        x = sample_input(10, 13)
        n = 2 * network_model.DEFAULT_CHUNK + 77
        splits = _splits(monkeypatch)
        top = run_sampler(cfg, x, n, {2: [0, 1, 2]}, (13, STREAM_UNITS))
        below = run_sampler(cfg, x, n, {2: [0, 1, 2], 3: [0]},
                            (13, STREAM_UNITS))
        assert splits and all(splits)
        np.testing.assert_array_equal(top[2][0], below[2][0])
        np.testing.assert_array_equal(top[2][1], below[2][1])

    @pytest.mark.parametrize("nonlinearity", [ELU, TANH],
                             ids=lambda spec: spec.family)
    def test_dead_rows_never_split(self, nonlinearity, monkeypatch):
        # a zero input at a weight_std where a live one splits every layer:
        # phi(0 Z) = 0 is not the saturation constant, so no group splits
        cfg = NetworkConfig(input_dim=5, layer_widths=(20, 20, 20),
                            nonlinearity=nonlinearity, weight_std=100.0)
        splits = _splits(monkeypatch)
        sets = sample_layer_units(cfg, np.zeros(5), (1, 2, 3), "post", 5000,
                                  3)
        for s in sets.values():
            assert np.all(s.signs == 0)
            assert np.all(np.isneginf(s.log_magnitudes))
        assert splits and not any(splits)
        sample_layer_units(cfg, sample_input(5, 3), (1, 2, 3), "post", 5000,
                           3)
        assert all(splits[len(splits) // 2:])


def _splits(monkeypatch):
    """A list to which each call of network_model._split on a side with a
    saturation point appends p where the group splits, else None."""
    calls = []
    split = network_model._split

    def spy(side, lo):
        got = split(side, lo)
        if side.saturation is not None:
            calls.append(None if got is None else got[1])
        return got

    monkeypatch.setattr(network_model, "_split", spy)
    return calls


def _assert_request_shape_and_worker_invariant(cfg):
    x = sample_input(20, 11)
    n = 10_000
    alone = sample_layer_units(cfg, x, [2], "pre", n, 11)[2]
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
def test_returned_units_carry_the_norm_that_scales_the_next_layer(
        families, monkeypatch):
    # given every unit g1 of layer 1, g2 = s2 sqrt(||phi(g1)||^2 + 1) Z with
    # Z from draws that depend on neither phi nor the scale; so g2 over that
    # factor is one array for all families of one step and every weight_std,
    # unless the returned units disagree with the norm the step carried on.
    # All three layer-1 units are asked for, so they are drawn as plain
    # normals and the sign groups of the other units are empty; at
    # weight_std 100 a curved side's empty group still splits, and most
    # returned units sit past its saturation point
    x = sample_input(4, 9)
    ts = []
    splits = _splits(monkeypatch)
    for phi in families:
        for std in (1.0, (0.6, 1.7), (100.0, 1.7)):
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
    assert any(splits) == any(side.slope is None for phi in families
                              for side in sides(phi))


PIN_CONFIGS = {
    "bias-depth3": dict(input_dim=20, layer_widths=(20, 20, 20),
                        weight_std=(0.7, 1.5, 1.0), include_bias=True),
    # elu and selu rows pass |log r| = _LINEAR_LOG_R near layer 53, so their
    # deep layers mix plain-double and log-domain norms
    "depth60-std100": dict(input_dim=10, layer_widths=(10,) * 60,
                           weight_std=100.0),
    # elu's negative units of a width-100 net fill many row blocks of a
    # chunk, and the last of 3 chunks is short
    "width100-workers1": dict(input_dim=100, layer_widths=(100,) * 3),
    "width100-workers2": dict(input_dim=100, layer_widths=(100,) * 3),
}

# (draws, units, workers) of a PIN_CONFIGS entry whose request is not the
# default (3000, {1: [0], 2: [0, 1, 2], depth: [0, 4]}, 1)
PIN_REQUESTS = {
    "width100-workers1": (10_007, {1: [0], 3: [0, 1, 2]}, 1),
    "width100-workers2": (10_007, {1: [0], 3: [0, 1, 2]}, 2),
}

# sha256 of run_sampler's (signs, log-magnitudes) bytes, layer by layer;
# generated at sampler version 11. The curved groups of the depth60-std100
# rows split below the top layer (elu, selu and tanh in every chunk,
# sigmoid in one); the top layer, which carries no norm, draws no groups
PINNED_STREAMS = {
    ("relu", "bias-depth3"):
        "1e1b931a205aa2000763aeb61ca60b2a97153ab5ab7ce97a92567160c2a8c67f",
    ("relu", "depth60-std100"):
        "e02d7d9446f475964c9dc979a9710243418a0252ea66cdb48090f0a0f97d3d70",
    ("prelu(0.3)", "bias-depth3"):
        "c80a701bcab06ad147024ad27e0b7d469e8aac61f29c3da8d69a65040f34fc70",
    ("prelu(0.3)", "depth60-std100"):
        "973ebed256e37bda554066482d1746ece1a76157b54ef342124f28781c5ecd50",
    ("identity", "bias-depth3"):
        "1e07d67a60b1d9e046b24b9f00af3d7439eb92037d23e87c73b2bc9c2473f480",
    ("identity", "depth60-std100"):
        "0bf33d7c96b9111bed3310a44b6451ce21a964b86907f87b7417007ba7aec1e5",
    ("elu(1.0)", "bias-depth3"):
        "9ca2a95f92589b431eed6605f25a8b96242d967ad8d4fcfc02a47cbfc0975086",
    ("elu(1.0)", "depth60-std100"):
        "be61d90859e46df029769107294e75716a99d4d43b16cd732f12b6ef0e91adae",
    ("elu(1.0)", "width100-workers1"):
        "16f03bafa5db68f2db9f32571a43bbb78bea1e3579b8fdb2659cd168b48eab4a",
    ("elu(1.0)", "width100-workers2"):
        "16f03bafa5db68f2db9f32571a43bbb78bea1e3579b8fdb2659cd168b48eab4a",
    ("selu", "bias-depth3"):
        "932b56d953b12668e3a7577cf285bd38b368c85e35497c0a93b1c03e0200a21f",
    ("selu", "depth60-std100"):
        "5c12d9ff3f6173c6d016dfeee90fc3bb184aacd811125470e1f36cc5970fb182",
    ("tanh", "bias-depth3"):
        "4048351ad999d51dd292af035298658a93be07608236cde03ae84b5c48b56f9a",
    ("tanh", "depth60-std100"):
        "6e04e1042aa6b22ff5d69ac498009d61b33db10d208363c211a8353252d2395d",
    ("sigmoid", "bias-depth3"):
        "e39b224a380e013c365dbbba8a1354c9b8e4e6db5953d12c9c1395f6f9072d9e",
    ("sigmoid", "depth60-std100"):
        "1bb10cac9e22448dd5c95a3f4404a6dbe5e618464af2f2f93274ee765486c7da",
}


@pytest.mark.parametrize("family,config", sorted(PINNED_STREAMS))
def test_conditional_stream_is_pinned_bit_for_bit(family, config):
    # the seed -> output-bytes contract: a change here is a new
    # SAMPLER_VERSION, not a new digest
    cfg = NetworkConfig(nonlinearity=NonlinearitySpec.parse(family),
                        **PIN_CONFIGS[config])
    n, needs, workers = PIN_REQUESTS.get(
        config, (3000, {1: [0], 2: [0, 1, 2], cfg.depth: [0, 4]}, 1))
    got = run_sampler(cfg, sample_input(cfg.input_dim, 13), n, needs,
                      (13, STREAM_UNITS), workers=workers)
    digest = hashlib.sha256()
    for layer in sorted(got):
        digest.update(got[layer][0].tobytes())
        digest.update(got[layer][1].tobytes())
    assert digest.hexdigest() == PINNED_STREAMS[family, config]


# sha256 of each request's bytes, as PINNED_STREAMS; generated at sampler
# version 7. A width-1 net has no unit but unit 0, so both sign groups of
# the other H - 1 units are empty at every layer below the top, and one
# of unit 0's own; a one-row chunk (all of n = 1, the last chunk of
# n = 4097) has one row of each
EMPTY_GROUP_STREAMS = {
    ("elu(1.0)", 1):
        "1a38c8e8cb0c1eb9d01e051620a92d99f546720ad92eed8274f1a03fbbc05658",
    ("elu(1.0)", 4097):
        "a21ee3eb349699a1f6954ad204c5e925f028874d419d62a4cde9191f89e4a968",
    ("tanh", 1):
        "fb01e30e0474f1c2fd4fc22986f2ad4f738d2d22901a1f0179c020ed078d3e6a",
    ("tanh", 4097):
        "133b63b77b8c2b452f7146a7de866df1d76f2bb169497cbbe014f5ab5f50fade",
}


def _stream_digest(got):
    digest = hashlib.sha256()
    for layer in sorted(got):
        digest.update(got[layer][0].tobytes())
        digest.update(got[layer][1].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("family,n", sorted(EMPTY_GROUP_STREAMS))
def test_width_one_stream_with_empty_sign_groups_is_pinned(family, n):
    cfg = NetworkConfig(input_dim=3, layer_widths=(1, 1, 1),
                        nonlinearity=NonlinearitySpec.parse(family))
    got = run_sampler(cfg, sample_input(3, 13), n, {1: [0], 2: [0], 3: [0]},
                      (13, STREAM_UNITS))
    assert _stream_digest(got) == EMPTY_GROUP_STREAMS[family, n]


def test_benchmark_elu_stream_is_pinned_bit_for_bit():
    # the stream shape of perfbench's elu_survival workload at 3000 draws:
    # a bias-free width-100 elu(1.0) net of depth 10, unit 0 of layers
    # 1, 2, 3 and 10 from one pass; generated at sampler version 10
    cfg = NetworkConfig(input_dim=100, layer_widths=(100,) * 10,
                        nonlinearity=NonlinearitySpec.parse("elu(1.0)"))
    got = sample_layer_units(cfg, sample_input(100, 3), (1, 2, 3, 10), "pre",
                             3000, 3)
    assert _stream_digest({l: (s.signs, s.log_magnitudes)
                           for l, s in got.items()}) == \
        "7c0fd355a8bd33e39b47414ffbee22ed9a89008ef68716928b0521ae6c0ddce4"


# prints the digest of a relu request at input dimension 10001, where
# OpenBLAS threads a dot product of x with itself
_WIDE_INPUT_CHILD = """
import hashlib
from layertails.network_model import (STREAM_UNITS, NetworkConfig,
                                      run_sampler, sample_input)
from layertails.nonlinearity import NonlinearitySpec
cfg = NetworkConfig(input_dim=10001, layer_widths=(5, 5),
                    nonlinearity=NonlinearitySpec("relu"))
got = run_sampler(cfg, sample_input(10001, 3), 1000, {1: [0], 2: [0, 1]},
                  (3, STREAM_UNITS))
digest = hashlib.sha256()
for layer in sorted(got):
    digest.update(got[layer][0].tobytes())
    digest.update(got[layer][1].tobytes())
print(digest.hexdigest())
"""


def test_wide_input_draws_do_not_depend_on_blas_threads():
    """run_sampler at input_dim 10001 gives the same bytes at 1 and 2
    OpenBLAS threads; np.dot(x, x) at that size differed in its last bit.

    OPENBLAS_NUM_THREADS is set for the two child processes only. OpenBLAS
    caps its threads at the CPU count, so on a 1-CPU machine both children
    run one thread and this test cannot fail there.
    """
    src = str(Path(network_model.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _WIDE_INPUT_CHILD],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]

# Configurations whose rows reach the log-domain norm: tanh and sigmoid
# shrink |g| below e^-300 at once (weight_std 1e-200) or tanh over about
# 90 layers (1e-2); elu(0.3) grows past e^300 near layer 53 (100); selu
# starts there (1e200). tanh at depth 40 stays in plain doubles. The
# width-10 elu(1e308) and selu(1e-160, 1.0) rows keep |log r| small but
# their plain-double sums are not normal doubles: elu(1e308)^2 overflows,
# and a square near 1e-320 is subnormal.
LOG_DOMAIN_CONFIGS = {
    "tanh-std1e-200": ("tanh", dict(input_dim=3, layer_widths=(3, 3, 3),
                                    weight_std=1e-200)),
    "sigmoid-std1e-200": ("sigmoid", dict(input_dim=3, layer_widths=(3, 3, 3),
                                          weight_std=1e-200)),
    "tanh-depth40-std1e-2": ("tanh", dict(input_dim=10,
                                          layer_widths=(10,) * 40,
                                          weight_std=1e-2)),
    "tanh-depth100-std1e-2": ("tanh", dict(input_dim=10,
                                           layer_widths=(10,) * 100,
                                           weight_std=1e-2)),
    "elu(0.3)-depth60-std100": ("elu(0.3)", dict(input_dim=10,
                                                 layer_widths=(10,) * 60,
                                                 weight_std=100.0)),
    "selu-std1e200-bias": ("selu", dict(input_dim=20, layer_widths=(20, 20),
                                        weight_std=1e200, include_bias=True)),
    "elu(1e308)-width10-depth3": ("elu(1e308)", dict(
        input_dim=10, layer_widths=(10, 10, 10))),
    "selu(1e-160,1.0)-width10-depth3": ("selu(1e-160,1.0)", dict(
        input_dim=10, layer_widths=(10, 10, 10))),
}

# sha256 of run_sampler's bytes, as PINNED_STREAMS, for units
# {1: [0], 2: [0, 1], depth: [0, 2]} (at depth 2 the last entry wins);
# generated at sampler version 11, but sigmoid-std1e-200's post row at
# version 9 (every post unit is sigmoid(0) to the last bit). The groups of
# elu(0.3) and selu-std1e200 split below the top layer
LOG_DOMAIN_STREAMS = {
    ("elu(0.3)-depth60-std100", "post"):
        "dda3142a8d6f119da47267992856433208cb7d34714e04f0c16dfc5d4fdc6b1b",
    ("elu(0.3)-depth60-std100", "pre"):
        "431b57807150da6039402b633fb4accbfc62111c4f65ea60623c6540367623f0",
    ("elu(1e308)-width10-depth3", "post"):
        "e906fe678a08ea843afbb6191cc00c33cd91873bb77f3bac183fa60297c5e9e9",
    ("elu(1e308)-width10-depth3", "pre"):
        "5cabed8bc31e4126d13839a55fb338788e3d33595819a51f97daeabf5001c541",
    ("selu(1e-160,1.0)-width10-depth3", "post"):
        "555434b7a026dcefa53f0f8ca701f612e37a1e70fd871deed509c95b81118482",
    ("selu(1e-160,1.0)-width10-depth3", "pre"):
        "fc77e57951073bc4990b8de4953ad438ec963bbe7970c5a554c1d6fb054a89ec",
    ("selu-std1e200-bias", "post"):
        "a6046c89491c48e8b36adf9a65a206975ea396630c650fbb87c61ebb5f3dc24e",
    ("selu-std1e200-bias", "pre"):
        "4a6bf5a85ba10c6eab459d639f2c893ce4be50220102e29a86e84f2cd9d6f9b8",
    ("sigmoid-std1e-200", "post"):
        "44bb076c266a34403b00638e5e751a9bebdf74c7b703bc9acc4382b8d866adad",
    ("sigmoid-std1e-200", "pre"):
        "f37740dc9cba77fc84d730a2fdde6621b1921b237f43971248d87eb6afdd3b0d",
    ("tanh-depth100-std1e-2", "post"):
        "26962794c2f13af49ce62e42eb1b43a88e2ad104f0c58d3315796607f80fd06e",
    ("tanh-depth100-std1e-2", "pre"):
        "3ee94f30e19c99c5a92efa6e0bbf4673df180dbba3472551a733ed103f630907",
    ("tanh-depth40-std1e-2", "post"):
        "baf60c3e01f995449e02f96d477669bd19cbfe90be8ceefd6b27afb4d1108902",
    ("tanh-depth40-std1e-2", "pre"):
        "5eec95f8a7710848e09e8686c0a16d2b5f16659456c64a6987f34e9e21a1f1fc",
    ("tanh-std1e-200", "post"):
        "d577f88c5b94bfc940b9ae25fa08ebcd3c1a9cbeb892d89b0f59772c5f276461",
    ("tanh-std1e-200", "pre"):
        "64af4a133e9adae6f5c340e58c0cedf9fa114896cb9c9fc3224ddbe18494220d",
}


@pytest.mark.parametrize("name,kind", sorted(LOG_DOMAIN_STREAMS))
def test_log_domain_stream_is_pinned_bit_for_bit(name, kind):
    family, kw = LOG_DOMAIN_CONFIGS[name]
    cfg = NetworkConfig(nonlinearity=NonlinearitySpec.parse(family), **kw)
    got = run_sampler(cfg, sample_input(cfg.input_dim, 13), 3000,
                      {1: [0], 2: [0, 1], cfg.depth: [0, 2]},
                      (13, STREAM_UNITS), kind)
    assert _stream_digest(got) == LOG_DOMAIN_STREAMS[name, kind]


# sha256 of the PINNED_STREAMS request on bias-depth3 with kind "post";
# generated at sampler version 11
POST_STREAMS = {
    "elu(1.0)":
        "5580327bd5879ead0870be64e19208e52b9d2b8feaa7ba7b6b6fa85bd3dd60fa",
    "identity":
        "1e07d67a60b1d9e046b24b9f00af3d7439eb92037d23e87c73b2bc9c2473f480",
    "prelu(0.3)":
        "300b2f59f70b2b4d829e5bc67f8dca3257773fcf985cad52ca347c8541a07db3",
    "relu":
        "77644eebdc95b741f4fa1b8049dddf43720ed1f6df49a864470d4947071dd07a",
    "selu":
        "8178222a94ce6b964e3483f8199f9e7684d52f4423e161b9b1bea8e7b0ad0e8c",
    "sigmoid":
        "811ed52a30f5ca8b6153d81e1bcd6b3429fc0ab3e6b2cb31ec0ca7644eaaef9b",
    "tanh":
        "1a1cf3c877548ba62bc9e0b188a4800f5f20ae60811e39e6ebe548417a713f30",
}


@pytest.mark.parametrize("family", sorted(POST_STREAMS))
def test_post_stream_is_pinned_bit_for_bit(family):
    cfg = NetworkConfig(nonlinearity=NonlinearitySpec.parse(family),
                        **PIN_CONFIGS["bias-depth3"])
    got = run_sampler(cfg, sample_input(cfg.input_dim, 13), 3000,
                      {1: [0], 2: [0, 1, 2], cfg.depth: [0, 4]},
                      (13, STREAM_UNITS), "post")
    assert _stream_digest(got) == POST_STREAMS[family]


# prints how far run_sampler raises the peak RSS, over the bytes it
# returns, on perfbench relu_sweep's request. The peak is the VmHWM line of
# /proc/self/status, in kB: an exec'd child's ru_maxrss starts at the peak
# of the process that forked it, here the test runner's.
_MEMORY_CHILD = """
import sys
from layertails.network_model import NetworkConfig, run_sampler, sample_input
from layertails.nonlinearity import NonlinearitySpec

def peak():
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))

cfg = NetworkConfig(input_dim=100, layer_widths=(100, 100, 100),
                    nonlinearity=NonlinearitySpec("relu"))
x = sample_input(100, 3)
before = peak()
got = run_sampler(cfg, x, 500_000, {1: [0], 2: [0], 3: [0]}, (3, 1),
                  workers=int(sys.argv[1]))
grown = (peak() - before) * 1024
print(grown / sum(s.nbytes + m.nbytes for s, m in got.values()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
@pytest.mark.parametrize("workers", [1, 2])
def test_sampler_pass_holds_little_beyond_its_result(workers):
    """Each chunk writes its rows into the request's arrays, so the pass
    holds no copy of the whole result; the bound leaves room for a chunk's
    own arrays and the allocator."""
    src = str(Path(network_model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _MEMORY_CHILD, str(workers)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 1.5


# prints how far a 2-worker pass of 2 * 10^4 draws on a width-1000 net
# raises the peak RSS, in MB (VmHWM, as _MEMORY_CHILD)
_WIDE_MEMORY_CHILD = """
import sys
from layertails.network_model import NetworkConfig, run_sampler, sample_input
from layertails.nonlinearity import NonlinearitySpec

def peak():
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))

cfg = NetworkConfig(input_dim=1000, layer_widths=(1000, 1000, 1000),
                    nonlinearity=NonlinearitySpec.parse(sys.argv[1]))
x = sample_input(1000, 3)
before = peak()
run_sampler(cfg, x, 20_000, {1: [0], 2: [0], 3: [0]}, (3, 1), workers=2)
print((peak() - before) / 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
@pytest.mark.parametrize("family", ["elu(1.0)", "tanh"])
def test_wide_curved_pass_holds_no_chunk_by_width_array(family):
    """A |Z| group is drawn and summed in blocks of rows through one
    buffer, so a width-1000 pass holds no chunk x width array: one such
    array of doubles is 33 MB per worker, and the pass returns 0.5 MB."""
    src = str(Path(network_model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _WIDE_MEMORY_CHILD, family],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 32.0


@pytest.mark.parametrize("workers", [1, 2])
def test_module_lookups_that_a_tracer_wraps(workers, monkeypatch):
    """run_sampler reaches _conditional_chunk and apply_signed_log through
    the module, the first once per chunk and the second once per chunk per
    requested layer, so wrappers set on the module see every call and
    change no byte."""
    cfg = small_config()
    x = sample_input(cfg.input_dim, 3)
    needs = {1: [0], 3: [2, 0]}
    n = 2 * network_model.DEFAULT_CHUNK + 5
    want = run_sampler(cfg, x, n, needs, (3, STREAM_UNITS), "post")
    calls = []

    def counting(name):
        fn = getattr(network_model, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(network_model, name, wrapper)

    counting("_conditional_chunk")
    counting("apply_signed_log")
    got = run_sampler(cfg, x, n, needs, (3, STREAM_UNITS), "post",
                      workers=workers)
    assert sorted(calls) == ["_conditional_chunk"] * 3 + ["apply_signed_log"] * 6
    assert _stream_digest(got) == _stream_digest(want)


def test_more_threads_than_cores_write_every_row(monkeypatch):
    """Chunks write disjoint rows of the shared result arrays; eight threads
    on any core count, switching every microsecond, give the serial bytes."""
    cfg = small_config(nonlinearity=ELU)
    x = sample_input(cfg.input_dim, 3)
    needs = {1: [0], 2: [1, 0], 3: [3]}
    n = 12 * network_model.DEFAULT_CHUNK + 7
    want = run_sampler(cfg, x, n, needs, (3, STREAM_UNITS), "post")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_sampler(cfg, x, n, needs, (3, STREAM_UNITS), "post",
                          workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert _stream_digest(got) == _stream_digest(want)
