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
        from layertails.network_model import (STREAM_COVARIANCE,
                                              sample_joint_units)
        r = estimate_unit_covariance(cfg, x, 2, (0, 1), 1, 1, 20_000, 23)
        entropy = (23, STREAM_COVARIANCE, 0, 1)
        signs, lms = sample_joint_units(cfg, x, 2, (0, 1), "post", 20_000,
                                        entropy)
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

    @pytest.mark.parametrize("kw", [
        dict(pair=(1, 1)), dict(pair=(0, 20)), dict(n_samples=100),
        dict(layers=(1, 3)), dict(seed=2**32),
    ])
    def test_request_errors_raise_before_any_draw(self, cfg, x, kw,
                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(network_model, "run_sampler",
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
    def test_worker_count_does_not_change_the_reports(self, nonlinearity):
        net = NetworkConfig(input_dim=10, layer_widths=(12, 12, 12),
                            nonlinearity=nonlinearity)
        x = sample_input(10, 4)
        one = sweep(net, x, (1, 2, 3), POWERS, 10_000, 31)
        two = sweep(net, x, (1, 2, 3), POWERS, 10_000, 31, workers=2)
        assert one.reports == two.reports
