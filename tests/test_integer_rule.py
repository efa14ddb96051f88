"""One integer rule for the library: every count, index, moment order and
seed is a Python or numpy integer (errors.is_int), checked where it enters
and used as given. A float or a bool raises ValueError naming what was
wrong, never a truncated draw; a numpy integer draws the same bytes as the
Python integer of the same value.
"""

import numpy as np
import pytest

from layertails.conv_pooling import PoolingSpec, pooled_tail_check
from layertails.covariance_verifier import estimate_unit_covariance, sweep
from layertails.errors import is_int
from layertails.network_model import (STREAM_COVARIANCE, NetworkConfig,
                                      entropy_prefix, run_sampler,
                                      sample_input, sample_joint_units,
                                      sample_layer_units, worker_threads)
from layertails.nonlinearity import NonlinearitySpec
from layertails.tail_analysis import (empirical_log_norm, gaussian_norm_oracle,
                                      moment_curve, relu_norm_oracle,
                                      synthetic_values)

CFG = NetworkConfig(input_dim=4, layer_widths=(3, 3),
                    nonlinearity=NonlinearitySpec("relu"))
X = sample_input(4, 0)
V = synthetic_values("gaussian", 1000, 0)
N = 10_000
E = (0,)

# (call, pattern its ValueError must match); every call returned a
# truncated or degenerate result, or a TypeError, before the rule
BAD = {
    "joint-float-unit": (
        lambda: sample_joint_units(CFG, X, 2, (1.7,), "pre", N, E),
        r"unit indices \(1\.7,\)"),
    "sampler-bool-n": (
        lambda: run_sampler(CFG, X, True, {1: [0]}, E), "n_samples"),
    "sampler-float-n": (
        lambda: run_sampler(CFG, X, 2.5, {1: [0]}, E), "n_samples"),
    "layers-empty": (
        lambda: sample_layer_units(CFG, X, (), "pre", N, 0),
        "no layers requested"),
    "layers-float": (
        lambda: sample_layer_units(CFG, X, (1.9,), "pre", N, 0),
        r"layer 1\.9"),
    "layers-bool": (
        lambda: sample_layer_units(CFG, X, (True,), "pre", N, 0),
        "layer True"),
    "input-float-seed": (lambda: sample_input(4, 2.7), "seed"),
    "input-float-dim": (lambda: sample_input(4.0, 0), "dim"),
    "prefix-float-field": (
        lambda: entropy_prefix(0, STREAM_COVARIANCE, 0.5, 1),
        "entropy fields"),
    "workers-float": (lambda: worker_threads(2.0, 10), "workers"),
    "covariance-float-pair": (
        lambda: estimate_unit_covariance(CFG, X, 1, (0.5, 1.2), 1, 1, N, 0),
        r"unit indices \(0\.5, 1\.2\) out of range"),
    "covariance-float-power": (
        lambda: estimate_unit_covariance(CFG, X, 1, (0, 1), 2.0, 1, N, 0),
        "powers"),
    "sweep-empty-layers": (
        lambda: sweep(CFG, X, (), [(1, 1)], N, 0), "no layers requested"),
    "pooling-float-size": (lambda: PoolingSpec("max", 2.0), "region_size"),
    "pooling-float-region": (
        lambda: pooled_tail_check(CFG, X, 1, (0.0, 1.0),
                                  PoolingSpec("max", 2), N, 0),
        r"unit indices \(0\.0, 1\.0\) out of range"),
    "moments-float-kmin": (lambda: moment_curve(V, 2.5, 10), "k_min"),
    "norm-float-k": (lambda: empirical_log_norm(V, 2.0), "k must"),
    "gaussian-oracle-float-k": (
        lambda: gaussian_norm_oracle(1.0, 2.0), "k must"),
    "relu-oracle-float-width": (
        lambda: relu_norm_oracle((3.5, 4), 2, 2), "widths"),
    "relu-oracle-float-k": (
        lambda: relu_norm_oracle((3, 4), 2, 2.0), "k must"),
    "relu-oracle-float-layer": (
        lambda: relu_norm_oracle((3, 4), 1.5, 2), r"layer 1\.5"),
    "synthetic-float-n": (
        lambda: synthetic_values("gaussian", 1000.0, 0), "n must"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_non_integer_raises_value_error(case):
    call, pattern = BAD[case]
    with pytest.raises(ValueError, match=pattern):
        call()


@pytest.mark.parametrize("v,want", [
    (3, True), (np.int64(3), True), (np.uint8(3), True), (3.0, False),
    (np.float64(3.0), False), (True, False), (np.bool_(True), False),
    ("3", False),
], ids=["int", "int64", "uint8", "float", "float64", "bool", "bool_", "str"])
def test_is_int(v, want):
    assert is_int(v) is want


def test_numpy_integers_draw_the_bytes_of_python_integers():
    # 5000 draws span two chunks, so chunk sizes are computed from the
    # numpy count as well
    i64 = np.int64
    py = sample_layer_units(CFG, X, (1, 2), "post", 5000, 7)
    np_ = sample_layer_units(CFG, X, (i64(1), i64(2)), "post", i64(5000),
                             i64(7))
    assert sorted(np_) == [1, 2]
    for layer in (1, 2):
        assert np_[layer].signs.tobytes() == py[layer].signs.tobytes()
        assert (np_[layer].log_magnitudes.tobytes()
                == py[layer].log_magnitudes.tobytes())
    py = sample_joint_units(CFG, X, 2, (2, 0), "pre", 5000,
                            entropy_prefix(7, STREAM_COVARIANCE, 2, 0))
    np_ = sample_joint_units(CFG, X, i64(2), (i64(2), i64(0)), "pre",
                             i64(5000),
                             entropy_prefix(i64(7), STREAM_COVARIANCE,
                                            i64(2), i64(0)))
    for a, b in zip(np_, py):
        assert a.tobytes() == b.tobytes()
    py = estimate_unit_covariance(CFG, X, 2, (0, 1), 2, 1, N, 7)
    np_ = estimate_unit_covariance(CFG, X, i64(2), (i64(0), i64(1)), i64(2),
                                   i64(1), i64(N), i64(7))
    assert np_ == py
