import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertails import conv_pooling, network_model
from layertails.conv_pooling import (PoolCheck, PoolingSpec, pool_signed_log,
                                     pooled_tail_check)
from layertails.network_model import NetworkConfig, sample_input
from layertails.nonlinearity import NonlinearitySpec

RELU = NonlinearitySpec("relu")
MAX4 = PoolingSpec("max", 4)
AVG4 = PoolingSpec("average", 4)


def encode(values):
    v = np.asarray(values, dtype=float)
    signs = np.sign(v).astype(np.int8)
    with np.errstate(divide="ignore"):
        lm = np.where(v == 0.0, -np.inf, np.log(np.abs(v)))
    return signs, lm


class TestPoolingSpec:
    def test_rejects_unknown_kind_and_empty_region(self):
        with pytest.raises(ValueError):
            PoolingSpec("median", 3)
        with pytest.raises(ValueError):
            PoolingSpec("max", 0)


class TestPoolSignedLog:
    @given(st.lists(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                       allow_nan=False),
                             min_size=4, max_size=4),
                    min_size=1, max_size=40),
           st.sampled_from(["max", "average"]))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_linear_pooling(self, rows, kind):
        v = np.asarray(rows)
        spec = PoolingSpec(kind, 4)
        signs, lm = encode(v)
        out_s, out_lm = pool_signed_log(signs, lm, spec)
        want = np.max(v, axis=1) if kind == "max" else np.mean(v, axis=1)
        got = np.where(out_s == 0, 0.0, out_s * np.exp(out_lm))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_max_prefers_zero_over_negative(self):
        signs, lm = encode([[-3.0, 0.0, -1.0, -2.0]])
        out_s, out_lm = pool_signed_log(signs, lm, MAX4)
        assert out_s[0] == 0 and out_lm[0] == -np.inf

    def test_max_of_all_negative_is_least_negative(self):
        signs, lm = encode([[-3.0, -0.25, -1.0, -2.0]])
        out_s, out_lm = pool_signed_log(signs, lm, MAX4)
        assert out_s[0] == -1
        assert out_lm[0] == pytest.approx(np.log(0.25))

    def test_average_cancellation_yields_zero(self):
        signs, lm = encode([[1.0, -1.0, 2.0, -2.0]])
        out_s, out_lm = pool_signed_log(signs, lm, AVG4)
        assert out_s[0] == 0 and out_lm[0] == -np.inf

    def test_huge_log_magnitudes_stay_in_log_domain(self):
        signs = np.array([[1, 1, -1, 1]], dtype=np.int8)
        lm = np.array([[5000.0, 4999.0, 5001.0, 4998.0]])
        for spec in (MAX4, AVG4):
            out_s, out_lm = pool_signed_log(signs, lm, spec)
            assert np.isfinite(out_lm).all()
            assert 4990.0 < out_lm[0] < 5002.0

    def test_region_one_is_identity(self):
        signs, lm = encode([[2.5], [-0.5], [0.0]])
        for kind in ("max", "average"):
            out_s, out_lm = pool_signed_log(signs, lm, PoolingSpec(kind, 1))
            np.testing.assert_array_equal(out_s, signs[:, 0])
            np.testing.assert_array_equal(out_lm, lm[:, 0])

    def test_shape_mismatch_rejected(self):
        signs, lm = encode([[1.0, 2.0]])
        with pytest.raises(ValueError):
            pool_signed_log(signs, lm, MAX4)


@pytest.fixture(scope="module")
def cfg():
    return NetworkConfig(input_dim=50, layer_widths=(50, 50),
                         nonlinearity=RELU, weight_std=1.0)


@pytest.fixture(scope="module")
def x(cfg):
    return sample_input(cfg.input_dim, 29)


class TestPooledTailCheck:
    def test_region_of_one_is_exactly_invariant(self, cfg, x):
        chk = pooled_tail_check(cfg, x, 2, (3,), PoolingSpec("max", 1),
                                30_000, 29)
        assert chk.passes
        assert chk.after.theta_hat == chk.before.theta_hat

    @pytest.mark.parametrize("kind", ["max", "average"])
    def test_pooling_preserves_theta(self, cfg, x, kind):
        chk = pooled_tail_check(cfg, x, 2, (0, 1, 2, 3), PoolingSpec(kind, 4),
                                100_000, 29)
        assert isinstance(chk, PoolCheck)
        assert chk.passes, (chk.before.theta_hat, chk.after.theta_hat,
                            chk.budget)

    def test_region_must_match_spec(self, cfg, x):
        with pytest.raises(ValueError):
            pooled_tail_check(cfg, x, 2, (0, 1), MAX4, 10_000, 29)
        with pytest.raises(ValueError):
            pooled_tail_check(cfg, x, 2, (0, 0, 1, 2), MAX4, 10_000, 29)


MAX2 = PoolingSpec("max", 2)
AVG2 = PoolingSpec("average", 2)


@pytest.fixture
def draws(monkeypatch):
    """Empties the module's last-request entry and counts the sampler
    passes pooled_tail_check makes through its module global."""
    monkeypatch.setattr(conv_pooling, "_kept", {})
    calls = []
    real = conv_pooling.sample_joint_units

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(conv_pooling, "sample_joint_units", counted)
    return calls


def _numbers(chk):
    return (chk.before.theta_hat, chk.before.se_theta, chk.after.theta_hat,
            chk.after.se_theta, chk.budget, chk.passes)


class TestLastRequest:
    # each bad value compares and hashes equal to the good one
    @pytest.mark.parametrize("name,good,bad", [
        ("region", (0, 1), (0.0, 1.0)), ("n_samples", 10_000, 10_000.0),
        ("layer", 1, 1.0), ("seed", 1, True)],
        ids=["region", "n_samples", "layer", "seed"])
    def test_repeated_request_still_validates(self, cfg, x, draws, name,
                                              good, bad):
        args = dict(config=cfg, x=x, layer=2, region=(0, 1), spec=MAX2,
                    n_samples=10_000, seed=29)
        pooled_tail_check(**{**args, name: good})
        with pytest.raises(ValueError):
            pooled_tail_check(**{**args, name: bad})
        assert len(draws) == 1

    def test_warm_calls_equal_cold_calls(self, cfg, x, draws):
        cold = {}
        for spec in (MAX2, AVG2):
            conv_pooling._kept.clear()
            cold[spec.kind] = _numbers(
                pooled_tail_check(cfg, x, 2, (0, 1), spec, 20_000, 29))
        assert len(draws) == 2
        conv_pooling._kept.clear()
        first = pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 20_000, 29)
        first.before.diagnostics["n_samples"] = -1  # a caller's own copy
        warm = {"max": _numbers(first),
                "average": _numbers(
                    pooled_tail_check(cfg, x, 2, (0, 1), AVG2, 20_000, 29))}
        assert len(draws) == 3
        assert warm == cold
        assert warm["max"][:2] == warm["average"][:2]
        again = pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 20_000, 29)
        assert again.before.diagnostics["n_samples"] == 20_000

    def test_input_changed_in_place_draws_again(self, cfg, x, draws):
        x = x.copy()
        pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 10_000, 29)
        x[0] += 1.0
        changed = _numbers(pooled_tail_check(cfg, x, 2, (0, 1), MAX2,
                                             10_000, 29))
        assert len(draws) == 2
        conv_pooling._kept.clear()
        assert _numbers(pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 10_000,
                                          29)) == changed

    def test_one_request_is_kept(self, cfg, x, draws):
        pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 10_000, 29)
        pooled_tail_check(cfg, x, 2, (0, 1), AVG2, 10_000, 29)
        assert len(draws) == 1
        pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 10_000, 30)
        pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 10_000, 29)
        assert len(draws) == 3

    def test_kept_arrays_are_read_only(self, cfg, x, draws):
        pooled_tail_check(cfg, x, 2, (0, 1), MAX2, 10_000, 29)
        [(signs, lms, _)] = conv_pooling._kept.values()
        assert signs.shape == lms.shape == (10_000, 2)
        for a in (signs, lms):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0


class TestRequestChecks:
    # each request is bad in one argument of the (50; 50, 50) net
    @pytest.mark.parametrize("bad", [
        dict(x=np.ones(49)), dict(x=np.r_[np.nan, np.ones(49)]),
        dict(n_samples=0), dict(layer=3), dict(region=(0, 50)),
        dict(layer=2.0), dict(region=(0, 1.0))],
        ids=["x-shape", "x-nan", "n_samples", "layer", "unit",
             "layer-float", "unit-float"])
    def test_raises_the_samplers_message_before_drawing(self, cfg, x, draws,
                                                         bad):
        req = {"x": x, "layer": 2, "region": (0, 1), "n_samples": 10_000,
               **bad}
        with pytest.raises(ValueError) as want:
            network_model.run_sampler(
                cfg, req["x"], req["n_samples"], {req["layer"]: req["region"]},
                (29,), "post", 1)
        with pytest.raises(ValueError) as got:
            pooled_tail_check(cfg, req["x"], req["layer"], req["region"],
                              MAX2, req["n_samples"], 29)
        assert str(got.value) == str(want.value)
        assert draws == []


def _digest(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def region_draws():
    """Joint relu post draws of units 0..15 of layer 2 of a (20; 20, 20)
    net, column-major as the sampler returns them, with rows 0, 777 and
    the last set to exact zeros."""
    net = NetworkConfig(input_dim=20, layer_widths=(20, 20),
                        nonlinearity=RELU)
    signs, lms = network_model.sample_joint_units(
        net, sample_input(20, 5), 2, tuple(range(16)), "post", 3001, (5, 77))
    signs, lms = signs.copy(order="F"), lms.copy(order="F")
    signs[[0, 777, -1]] = 0
    lms[[0, 777, -1]] = -np.inf
    return signs, lms


# sha256 of pool_signed_log's (signs, log-magnitudes) on the first R
# columns of region_draws. From R = 8 on, numpy sums a row of 8 or more
# entries pairwise, and np.sum(axis=1) gives other bits on a column-major
# block than on a row-major one: both layouts must give these
PINNED_POOLS = {
    ("average", 1):
        "9aed704c9d0686f7736785f39c070becbe7606bce5a6671d40440242e3ed19d7",
    ("average", 4):
        "d2eff67a2073c7c0091c0117f8611efb63e1d6facf6aeaaca7935b48ed433da7",
    ("average", 8):
        "6f7bb16d75f9d4e47c842e8e64fb88008eec1c764dc66533118e2438b0ad5b58",
    ("average", 16):
        "d5740f97cfbfd60b489e0295d39caac087931e9708bee31008465e9d19ae9f00",
    ("max", 1):
        "9aed704c9d0686f7736785f39c070becbe7606bce5a6671d40440242e3ed19d7",
    ("max", 4):
        "ced39946925b3f92eba16cf5634faeea13fb5be114c35f6e75241a63c07cd90b",
    ("max", 8):
        "cf94ae13ba7ff675d68b0516e79087629b7d4f24c7e8930a11ce5e88689ef9e0",
    ("max", 16):
        "06f10e18f498fb74ffe938e709ed7fff2b7b56182b8e2ff9996c5d3a2b081b41",
}


@pytest.mark.pin
@pytest.mark.parametrize("kind,R", sorted(PINNED_POOLS))
@pytest.mark.parametrize("order", ["F", "C"])
def test_pooled_outputs_are_pinned_for_either_layout(region_draws, kind, R,
                                                     order):
    signs, lms = (np.array(a[:, :R], order=order) for a in region_draws)
    assert np.all(signs[[0, 777, -1]] == 0)
    out = pool_signed_log(signs, lms, PoolingSpec(kind, R))
    assert _digest(*out) == PINNED_POOLS[kind, R]


# sha256 of theta_hat and se_theta before and after, and the budget, of a
# seeded relu request, max then average from the kept draws
PINNED_CHECKS = {
    "max": "489f1c1f4805aa3db5dac6aff86a04ca470551e260a837561d6de52a690aa129",
    "average":
        "436729325247a3c09bbe3e1e48ccf6a9833dffe1c949be1b616068e8235bc4a0",
}


@pytest.mark.pin
def test_pooled_tail_checks_are_pinned(cfg, x, monkeypatch):
    monkeypatch.setattr(conv_pooling, "_kept", {})
    for kind in ("max", "average"):
        chk = pooled_tail_check(cfg, x, 2, (0, 1, 2, 3), PoolingSpec(kind, 4),
                                30_000, 29)
        assert _digest(np.array(_numbers(chk)[:5])) == PINNED_CHECKS[kind]


def _whole_array_pool(signs, lms, kind):
    """pool_signed_log as one pass over whole (n, R) arrays, the formula
    its columns and row blocks must reproduce bit for bit."""
    if kind == "max":
        out_s = np.sign(np.max(signs, axis=1)).astype(np.int8)
        pos_lm = np.max(np.where(signs > 0, lms, -np.inf), axis=1)
        neg_lm = np.min(lms, axis=1)
        return out_s, np.where(out_s > 0, pos_lm,
                               np.where(out_s == 0, -np.inf, neg_lm))
    m = np.max(lms, axis=1)
    finite = ~np.isneginf(m)
    shifted = np.subtract(lms, np.where(finite, m, 0.0)[:, None], order="C")
    ssum = np.sum(np.exp(shifted) * signs, axis=1)
    with np.errstate(divide="ignore"):
        out_lm = np.where(finite & (ssum != 0),
                          m + np.log(np.abs(ssum)) - np.log(signs.shape[1]),
                          -np.inf)
    return np.sign(ssum).astype(np.int8), out_lm


@pytest.mark.pin
@pytest.mark.parametrize("n", [4095, 3 * network_model.DEFAULT_CHUNK + 1])
@pytest.mark.parametrize("R", [1, 4, 7, 8, 16])
@pytest.mark.parametrize("kind", ["max", "average"])
@pytest.mark.parametrize("order", ["F", "C"])
def test_row_blocks_give_the_whole_array_bytes(n, R, kind, order,
                                               monkeypatch):
    """Across block edges (one short block, and three full blocks plus a
    one-row block), with exact zeros, all-zero and all-negative rows.
    Blocks of DEFAULT_CHUNK rows put those edges at these n for every R;
    R = 7 and 8 sit on either side of the average's left-to-right sum."""
    monkeypatch.setattr(conv_pooling, "_POOL_BLOCK",
                        R * network_model.DEFAULT_CHUNK)
    rng = np.random.default_rng(n * R)
    v = rng.standard_normal((n, R)) * np.exp(rng.normal(0.0, 20.0, (n, 1)))
    v[rng.random((n, R)) < 0.3] = 0.0
    v[rng.random(n) < 0.05] = 0.0
    neg = rng.random(n) < 0.05
    v[neg] = -np.abs(v[neg])
    signs, lms = (np.array(a, order=order) for a in encode(v))
    got = pool_signed_log(signs, lms, PoolingSpec(kind, R))
    want = _whole_array_pool(signs, lms, kind)
    assert _digest(*got) == _digest(*want)


def _traced_peak(fn):
    """fn's result and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        got = fn()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 5 * 10^4 joint relu post draws of units 0..15 of layer 2
MEMORY_NET = NetworkConfig(input_dim=20, layer_widths=(20, 20),
                           nonlinearity=RELU)
MEMORY_REGION = tuple(range(16))


def test_post_request_holds_one_copy_of_its_draws():
    """The activation is applied a chunk at a time, so a post request's
    peak is its result plus one chunk's working arrays."""
    x = sample_input(20, 5)
    (signs, lms), peak = _traced_peak(lambda: network_model.sample_joint_units(
        MEMORY_NET, x, 2, MEMORY_REGION, "post", 50_000, (5, 77)))
    assert peak < 1.5 * (signs.nbytes + lms.nbytes)


def test_pooling_checks_hold_one_copy_of_their_draws(monkeypatch):
    """Max then average on one request: the kept draws, a view of their
    first column for "before", and pooling by columns and row blocks."""
    monkeypatch.setattr(conv_pooling, "_kept", {})
    x = sample_input(20, 5)
    _, peak = _traced_peak(lambda: [
        pooled_tail_check(MEMORY_NET, x, 2, MEMORY_REGION,
                          PoolingSpec(kind, 16), 50_000, 5)
        for kind in ("max", "average")])
    (signs, lms, _), = conv_pooling._kept.values()
    assert peak < 1.5 * (signs.nbytes + lms.nbytes)


@pytest.mark.parametrize("kind", ["max", "average"])
@pytest.mark.parametrize("order", ["F", "C"])
def test_pooling_holds_its_outputs_and_one_block(kind, order):
    """Beside its input, pool_signed_log of 10^5 x 4 holds its two outputs
    and at most six doubles per row of one block: no n-long working array
    (the whole-array form held 0.9 MB more for max, 2.6 MB for average)."""
    rng = np.random.default_rng(4)
    v = rng.standard_normal((10**5, 4))
    v[rng.random(v.shape) < 0.3] = 0.0
    signs, lms = (np.array(a, order=order) for a in encode(v))
    (out_s, out_lm), peak = _traced_peak(
        lambda: pool_signed_log(signs, lms, PoolingSpec(kind, 4)))
    rows = 1 << 14  # a block of 2^16 entries at R = 4
    assert peak <= out_s.nbytes + out_lm.nbytes + 6 * 8 * rows
