"""perfbench's tracer wraps module attributes of the package by name; a
name that the package drops makes its traced runs fail at start-up."""

import importlib.util
from pathlib import Path

from layertails import (cli, conv_pooling, covariance_verifier, manifest,
                        network_model, nonlinearity)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (cli, conv_pooling, covariance_verifier, manifest, network_model,
           nonlinearity)


def test_every_name_the_tracer_wraps_exists_and_is_restored():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = [dict(vars(m)) for m in MODULES]
    # install() reads each name with getattr, so a missing one raises here
    tracer = tracer_module.install()
    try:
        wrapped = [(old, name) for m, old in zip(MODULES, before)
                   for name, value in vars(m).items()
                   if old.get(name) is not value]
    finally:
        tracer.uninstall()
    assert wrapped and all(name in old for old, name in wrapped)
    for m, old in zip(MODULES, before):
        assert vars(m).keys() == old.keys()
        assert all(vars(m)[name] is value for name, value in old.items())
