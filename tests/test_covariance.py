"""Tests of the covariance verifier: batch-means standard errors, the
sign verdicts, one-pass sweeps and their input checks.

The sha256 pins of the sweeps (PINNED_SWEEPS) were made on an AVX512
machine (numpy dispatch X86_V3, X86_V4, AVX512_ICL, AVX512_SPR). numpy's
exp, log and expm1 kernels of other dispatch targets may differ from them
by an ulp; see ROADMAP item 16.
"""

import hashlib

import numpy as np
import pytest

from layertails import network_model
from layertails.covariance_verifier import (CovarianceReport, _verdict,
                                            estimate_unit_covariance, sweep)
from layertails.errors import MomentOverflowError
from layertails.network_model import NetworkConfig, sample_input
from layertails.nonlinearity import NonlinearitySpec

RELU = NonlinearitySpec("relu")
ELU = NonlinearitySpec("elu", (1.0,))
POWERS = [(s, t) for s in (1, 2, 3) for t in (1, 2, 3)]


@pytest.fixture(scope="module")
def cfg():
    return NetworkConfig(input_dim=20, layer_widths=(20, 20),
                         nonlinearity=RELU, weight_std=1.0)


@pytest.fixture(scope="module")
def x(cfg):
    return sample_input(cfg.input_dim, 17)


class TestVerdictRule:
    def test_classification(self):
        assert _verdict(-1.0, 0.1) == "violation"
        assert _verdict(-0.2, 0.1) == "zero-consistent"
        assert _verdict(0.25, 0.1) == "zero-consistent"
        assert _verdict(0.5, 0.1) == "nonnegative-consistent"

    def test_report_rejects_inconsistent_violation(self):
        with pytest.raises(ValueError):
            CovarianceReport(layer=1, pair=(0, 1), s=1, t=1, estimate=0.5,
                             se=0.1, n_samples=10_000, verdict="violation")


class TestEstimate:
    def test_layer1_units_are_independent(self, cfg, x):
        # rows of the first weight matrix are independent, so any pair of
        # layer-1 units has exactly zero covariance at every power
        r = estimate_unit_covariance(cfg, x, 1, (0, 1), 2, 2, 50_000, 23)
        assert r.verdict == "zero-consistent"
        assert abs(r.estimate) <= 3 * r.se

    def test_matches_plain_covariance_of_decoded_samples(self, cfg, x):
        from layertails.network_model import STREAM_COVARIANCE, run_sampler
        r = estimate_unit_covariance(cfg, x, 2, (0, 1), 1, 1, 20_000, 23)
        # the pair is drawn at every layer up to the scored one
        entropy = (23, STREAM_COVARIANCE, 0, 1)
        signs, lms = run_sampler(cfg, x, 20_000, {1: [0, 1], 2: [0, 1]},
                                 entropy, "post")[2]
        a = signs[:, 0] * np.exp(lms[:, 0])
        b = signs[:, 1] * np.exp(lms[:, 1])
        want = float(np.mean(a * b) - np.mean(a) * np.mean(b))
        assert r.estimate == pytest.approx(want, rel=1e-12)

    def test_squared_units_covary_positively(self, cfg, x):
        # layer-2 units share the magnitude of the layer-1 vector, which
        # correlates their squares; the typical positive-dependence case
        r = estimate_unit_covariance(cfg, x, 2, (0, 1), 2, 2, 200_000, 23)
        assert r.verdict == "nonnegative-consistent"
        assert r.estimate > 0

    def test_overflow_guard(self, x):
        deep = NetworkConfig(input_dim=20, layer_widths=(20,) * 30,
                             nonlinearity=RELU, weight_std=4.0)
        with pytest.raises(MomentOverflowError):
            estimate_unit_covariance(deep, x, 30, (0, 1), 3, 3, 10_000, 23)

    @pytest.mark.parametrize("kw", [
        dict(s=0, t=1), dict(s=1, t=-1), dict(pair=(1, 1)),
        dict(n_samples=100),
    ])
    def test_rejects(self, cfg, x, kw):
        args = dict(layer=1, pair=(0, 1), s=1, t=1, n_samples=10_000, seed=0)
        args.update(kw)
        with pytest.raises(ValueError):
            estimate_unit_covariance(cfg, x, args["layer"], args["pair"],
                                     args["s"], args["t"], args["n_samples"],
                                     args["seed"])

    @pytest.mark.parametrize("pair", [(0, 1, 2), (1,)], ids=str)
    def test_pair_of_other_length_is_named(self, cfg, x, pair):
        with pytest.raises(ValueError, match="pair must be two unit indices"):
            estimate_unit_covariance(cfg, x, 1, pair, 1, 1, 10_000, 0)
        with pytest.raises(ValueError, match="pair must be two unit indices"):
            sweep(cfg, x, (1, 2), POWERS, 10_000, 0, pair=pair)

    def test_deterministic_per_cell(self, cfg, x):
        a = estimate_unit_covariance(cfg, x, 2, (0, 1), 1, 2, 20_000, 5)
        b = estimate_unit_covariance(cfg, x, 2, (0, 1), 1, 2, 20_000, 5,
                                     workers=3)
        assert a.estimate == b.estimate and a.se == b.se


class TestSweep:
    def test_full_grid_reports_every_cell(self, cfg, x):
        powers = [(s, t) for s in (1, 2) for t in (1, 2)]
        res = sweep(cfg, x, (1, 2), powers, 20_000, 23)
        assert len(res.reports) == 8
        assert not res.errors
        assert sum(res.summary().values()) == 8

    def test_errors_are_recorded_not_raised(self, x):
        deep = NetworkConfig(input_dim=20, layer_widths=(20,) * 30,
                             nonlinearity=RELU, weight_std=4.0)
        res = sweep(deep, x, (1, 30), [(3, 3)], 10_000, 23)
        assert len(res.reports) == 1  # layer 1 is fine
        assert len(res.errors) == 1
        layer, s, t, msg = res.errors[0]
        assert (layer, s, t) == (30, 3, 3)
        assert "exceeds double precision" in msg

    def test_no_violations_on_relu_net(self, cfg, x):
        powers = [(s, t) for s in (1, 2) for t in (1, 2)]
        res = sweep(cfg, x, (1, 2), powers, 30_000, 23)
        assert res.violations() == []

    def test_invalid_powers_are_recorded_per_cell(self, cfg, x):
        res = sweep(cfg, x, (1,), [(0, 1), (1, 1)], 10_000, 23)
        assert [(r.s, r.t) for r in res.reports] == [(1, 1)]
        assert [e[:3] for e in res.errors] == [(1, 0, 1)]
        assert res.summary() == {"zero-consistent": 1, "error": 1}

    @pytest.mark.parametrize("kw", [
        dict(pair=(1, 1)), dict(pair=(0, 20)), dict(n_samples=100),
        dict(layers=(1, 3)), dict(seed=2**32), dict(n_samples="10000"),
        dict(n_samples=None), dict(pair=5),
    ])
    def test_request_errors_raise_before_any_draw(self, cfg, x, kw,
                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(network_model, "_conditional_chunk",
                            lambda *a, **k: calls.append(a))
        args = dict(layers=(1, 2), n_samples=10_000, seed=23, pair=(0, 1))
        args.update(kw)
        with pytest.raises(ValueError):
            sweep(cfg, x, args["layers"], POWERS, args["n_samples"],
                  args["seed"], pair=args["pair"])
        assert calls == []


class TestOnePassSweep:
    """A sweep draws every layer in one pass from the prefix that
    estimate_unit_covariance uses, so each cell must equal it exactly."""

    @pytest.mark.parametrize("nonlinearity", [RELU, ELU], ids=str)
    def test_cells_equal_single_cell_estimates(self, nonlinearity):
        net = NetworkConfig(input_dim=10, layer_widths=(12, 12, 12),
                            nonlinearity=nonlinearity)
        x = sample_input(10, 4)
        res = sweep(net, x, (1, 2, 3), POWERS, 10_000, 31, pair=(2, 0))
        assert res.errors == []
        want = [estimate_unit_covariance(net, x, layer, (2, 0), s, t,
                                         10_000, 31)
                for layer in (1, 2, 3) for s, t in POWERS]
        assert len(res.reports) == 27
        assert res.reports == want

    @pytest.mark.parametrize("nonlinearity", [RELU, ELU], ids=str)
    def test_a_layer_is_scored_alike_whichever_layers_come_with_it(
            self, nonlinearity):
        net = NetworkConfig(input_dim=10, layer_widths=(12, 12, 12),
                            nonlinearity=nonlinearity)
        x = sample_input(10, 4)
        alone = sweep(net, x, (3,), POWERS, 10_000, 31, pair=(2, 0))
        every = sweep(net, x, (1, 2, 3), POWERS, 10_000, 31, pair=(2, 0))
        assert len(alone.reports) == 9
        assert alone.reports == [r for r in every.reports if r.layer == 3]

    def test_a_lower_layer_narrower_than_the_pair_is_not_checked(self):
        # layer 1 holds units 0 and 1 only; unit 2 is asked of layers 2, 3
        net = NetworkConfig(input_dim=10, layer_widths=(2, 12, 12),
                            nonlinearity=RELU)
        x = sample_input(10, 4)
        res = sweep(net, x, (2, 3), POWERS, 10_000, 31, pair=(2, 0))
        assert res.errors == [] and len(res.reports) == 18
        assert res.reports[-1] == estimate_unit_covariance(
            net, x, 3, (2, 0), 3, 3, 10_000, 31)

    @pytest.mark.parametrize("nonlinearity", [RELU, ELU], ids=str)
    def test_worker_count_does_not_change_the_reports(self, nonlinearity):
        net = NetworkConfig(input_dim=10, layer_widths=(12, 12, 12),
                            nonlinearity=nonlinearity)
        x = sample_input(10, 4)
        one = sweep(net, x, (1, 2, 3), POWERS, 10_000, 31)
        two = sweep(net, x, (1, 2, 3), POWERS, 10_000, 31, workers=2)
        assert one.reports == two.reports


TANH = NonlinearitySpec("tanh")

# sha256 of every sweep report's estimate, se and verdict, cell by cell:
# (10; 12, 12, 12) nets, layers 1-3, pair (2, 0), seed 31; n = 10_007
# leaves batches of 312 and 313 draws in another order than n = 10^4
PINNED_SWEEPS = {
    ("relu", 10_000):
        "7d281f3040f77b1a602ffdc1d686b623575352bb5e55b7320316d9a78b1fc6a0",
    ("relu", 10_007):
        "5aebf1344c9b73c8e701628e3b2fc063672792b042f5471d47c2eeb5bbe8d08f",
    ("elu(1.0)", 10_000):
        "c1dbf33d9fabd797d38bee9bc681b699c4eceaafbb478ca6fc2ab74b4060e861",
    ("elu(1.0)", 10_007):
        "34a0d506e8f59c6aa290d1dd4f50677e45b05f503d9a14d3306eb72dc5180f17",
    ("tanh-bias", 10_000):
        "5eb6c576e83f8b2f25814f24463a0ee38c098efb4ce27c3e60298c164bb0e0a2",
    ("tanh-bias", 10_007):
        "15a75a823d4787c82424eeb8f572c18bfe7bc63e9ddfa12d5f9043649e67dd8c",
}


def _sweep_digest(res):
    digest = hashlib.sha256()
    for r in res.reports:
        digest.update(np.array([r.estimate, r.se]).tobytes())
        digest.update(r.verdict.encode())
    return digest.hexdigest()


@pytest.mark.pin
@pytest.mark.parametrize("net,n", sorted(PINNED_SWEEPS))
def test_sweep_reports_are_pinned_bit_for_bit(net, n):
    spec = {"relu": RELU, "elu(1.0)": ELU, "tanh-bias": TANH}[net]
    cfg = NetworkConfig(input_dim=10, layer_widths=(12, 12, 12),
                        nonlinearity=spec, include_bias=net == "tanh-bias")
    res = sweep(cfg, sample_input(10, 4), (1, 2, 3), POWERS, n, 31,
                pair=(2, 0))
    assert len(res.reports) == 27 and res.errors == []
    assert _sweep_digest(res) == PINNED_SWEEPS[net, n]
