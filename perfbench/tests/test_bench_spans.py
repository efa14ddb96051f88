"""Self-time arithmetic and useful_layer_ratio."""

import pytest

import spans
import tracer


def span(id, parent, name, t0, t1, **extra):
    return {"id": id, "parent": parent, "name": name, "t0": t0, "t1": t1,
            "error": False, **extra}


def test_self_time_subtracts_union_of_overlapping_children():
    trace = [span(1, None, "cli.main", 0.0, 10.0),
             # two worker-thread children overlapping on [2, 3]
             span(2, 1, "network_model._conditional_chunk", 1.0, 3.0),
             span(3, 1, "network_model._conditional_chunk", 2.0, 5.0),
             # a grandchild is subtracted from its parent only
             span(4, 3, "nonlinearity.apply_signed_log", 2.5, 4.5)]
    st = spans.self_times(trace)
    assert st[1] == pytest.approx(10.0 - 4.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0 - 2.0)
    assert st[4] == pytest.approx(2.0)


def test_child_outside_parent_interval_is_clipped():
    trace = [span(1, None, "a.f", 0.0, 10.0), span(2, 1, "a.g", 9.0, 12.0)]
    assert spans.self_times(trace)[1] == pytest.approx(9.0)


def test_busy_time_sums_overlapping_threads():
    trace = [span(1, None, "network_model.run_sampler", 0.0, 4.0),
             span(2, 1, "network_model._conditional_chunk", 0.0, 4.0),
             span(3, 1, "network_model._conditional_chunk", 0.0, 4.0),
             span(4, 2, "nonlinearity.apply_signed_log", 1.0, 2.0)]
    m = spans.layer_metrics(trace, bytes_written=0)
    # 4 s of wall time, two busy threads: 3 + 4 s sampling, 1 s nonlinearity
    assert m["network_model.sample_s"] == pytest.approx(7.0)
    assert m["nonlinearity.signed_log_s"] == pytest.approx(1.0)
    assert m["nonlinearity.signed_log_calls"] == 1


def sampler_span(id, parent, n, deepest, group="g"):
    return span(id, parent, "network_model.run_sampler", 0.0, 1.0,
                counts={"n_samples": n, "deepest_layer": deepest,
                        "group": group, "result_bytes": 0})


def test_useful_layer_ratio_counts_repropagation():
    # covariance-like: cells at layers 1, 2, 3 under one root
    trace = [span(1, None, "covariance_verifier.sweep", 0.0, 1.0)]
    trace += [sampler_span(10 + i, 1, 100, layer)
              for i, layer in enumerate((1, 2, 3) * 2)]
    assert spans.useful_layer_ratio(trace) == pytest.approx(3 / 12)
    # a different root or draw count is a separate pass
    trace.append(sampler_span(30, None, 50, 2))
    assert spans.useful_layer_ratio(trace) == pytest.approx((300 + 100) / 1300)


def test_useful_layer_ratio_on_tiny_covariance_sweep():
    from layertails import NetworkConfig, NonlinearitySpec, sample_input
    from layertails import cli, covariance_verifier, network_model

    cfg = NetworkConfig(input_dim=3, layer_widths=(3, 3),
                        nonlinearity=NonlinearitySpec("relu"))
    x = sample_input(3, 0)
    t = tracer.install()
    try:
        result = cli.sweep(cfg, x, (1, 2), [(1, 1), (2, 2)], 10_000, 0)
    finally:
        t.uninstall()
    assert covariance_verifier.sample_joint_units is network_model.sample_joint_units
    assert len(result.reports) == 4
    # one pass to layer 2 would do 2n propagations; four cells do n(1+1+2+2)
    assert spans.useful_layer_ratio(t.spans) == pytest.approx(2 / 6)
    m = spans.layer_metrics(t.spans, bytes_written=0)
    assert m["covariance_verifier.cells"] == 4
    assert m["network_model.calls"] == 4
    assert m["network_model.layer_draws"] == 60_000


def test_single_pass_workload_ratio_is_one():
    from layertails import NetworkConfig, NonlinearitySpec, sample_input
    from layertails import cli

    cfg = NetworkConfig(input_dim=3, layer_widths=(3, 3, 3),
                        nonlinearity=NonlinearitySpec("relu"))
    t = tracer.install()
    try:
        cli.sample_layer_units(cfg, sample_input(3, 0), (1, 2, 3), "pre",
                               5_000, 0, workers=2)
    finally:
        t.uninstall()
    assert spans.useful_layer_ratio(t.spans) == 1.0
    chunks = [s for s in t.spans if s["name"] == "network_model._conditional_chunk"]
    sampler = next(s for s in t.spans if s["name"] == "network_model.run_sampler")
    # chunks on pool threads hang under the sampler call that started them
    assert len(chunks) == 2 and all(c["parent"] == sampler["id"] for c in chunks)
