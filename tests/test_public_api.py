"""The names other code relies on: the package's exports, and the module
attributes that the benchmark harness in perfbench/ wraps or calls. The
list is written out here rather than imported from perfbench, so deleting
or renaming one of them fails this test instead of a traced benchmark run.
"""

import inspect
from collections import Counter

import pytest

import layertails
from layertails import (cli, conv_pooling, covariance_verifier, manifest,
                        network_model, nonlinearity)

# perfbench/tracer.py wraps these module attributes
TRACED = [
    (cli, "main"), (cli, "sample_layer_units"), (cli, "sweep"),
    (cli, "build_manifest"), (cli, "moment_curve"),
    (cli, "estimate_theta_moments"), (cli, "estimate_theta_survival"),
    (cli, "survival_curves"),
    (network_model, "run_sampler"), (network_model, "_conditional_chunk"),
    (network_model, "apply_signed_log"),
    (nonlinearity, "apply_signed_log"),
    (covariance_verifier, "sample_joint_units"),
    (covariance_verifier, "estimate_unit_covariance"),
    (conv_pooling, "pooled_tail_check"), (conv_pooling, "sample_joint_units"),
    (conv_pooling, "pool_signed_log"), (conv_pooling, "moment_curve"),
    (conv_pooling, "estimate_theta_moments"),
    (manifest, "sha256_file"),
]

# perfbench/child.py calls these
CALLED = [
    (layertails, "PoolingSpec"), (layertails, "NonlinearitySpec"),
    (cli, "main"), (conv_pooling, "pooled_tail_check"),
    (network_model, "NetworkConfig"), (network_model, "parse_config_file"),
    (network_model, "sample_input"), (network_model, "sample_layer_units"),
]


def test_all_names_resolve_once():
    counts = Counter(layertails.__all__)
    assert [n for n, c in counts.items() if c > 1] == []
    assert [n for n in counts if not hasattr(layertails, n)] == []


@pytest.mark.parametrize("module,attr", TRACED + CALLED,
                         ids=lambda v: getattr(v, "__name__", v))
def test_harness_attribute_exists(module, attr):
    assert callable(getattr(module, attr))


# perfbench/child.py makes these calls, positionally as here
CALLS = [
    (network_model.sample_layer_units,
     ("config", "x", (1, 2, 3), "pre", "n", "seed")),
    (conv_pooling.pooled_tail_check,
     ("config", "x", "layer", "region", "spec", "n", "seed")),
    (layertails.PoolingSpec, ("kind", "size")),
    (network_model.sample_input, ("dim", "seed")),
    (network_model.parse_config_file, ("path",)),
]


@pytest.mark.parametrize("fn,args", CALLS,
                         ids=[fn.__name__ for fn, _ in CALLS])
def test_harness_calls_bind(fn, args):
    # a signature slip fails here, not in a benchmark run
    inspect.signature(fn).bind(*args)


def test_traced_arguments_bind_by_name():
    # the tracer's run_sampler counter reads these arguments by name, and
    # groups spans by the config's hash
    params = inspect.signature(network_model.run_sampler).parameters
    assert {"config", "n_samples", "needs"} <= set(params)
    assert callable(network_model.NetworkConfig.config_hash)
