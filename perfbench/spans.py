"""Span arithmetic: self time, busy time and per-layer metrics.

A span is a dict with ``id``, ``parent`` (an id or None), ``name``
(``<module>.<function>``), ``t0``, ``t1``, ``error`` and optional
``counts``. A span's self time is its duration minus the part of its
interval that its child spans cover; children may run on other threads
and overlap each other, so the covered part is the length of the union of
their intervals. A layer's busy time is the sum of its spans' self times
across all threads, so on the two-worker workload it can exceed wall time.

Pure Python: the parent process and the tests use it without numpy.
"""

from __future__ import annotations

SAMPLER = ("network_model.run_sampler", "network_model._conditional_chunk",
           "network_model.sample_layer_units",
           "network_model.sample_joint_units")
SIGNED_LOG = "nonlinearity.apply_signed_log"


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        t0, t1 = s["t0"], s["t1"]
        covered = _union_length((max(c["t0"], t0), min(c["t1"], t1))
                                for c in children.get(s["id"], ())
                                if c["t1"] > t0 and c["t0"] < t1)
        out[s["id"]] = (t1 - t0) - covered
    return out


def _root_name(span, by_id) -> str:
    while span["parent"] is not None and span["parent"] in by_id:
        span = by_id[span["parent"]]
    return span["name"]


def useful_layer_ratio(spans) -> float:
    """Layer propagations a single joint pass would need over those done.

    Sampler calls under the same outermost entry point, for the same
    network and draw count, could share one pass up to their deepest
    layer; every call beyond that re-propagates upstream layers.
    """
    by_id = {s["id"]: s for s in spans}
    needed: dict[tuple, int] = {}
    done = 0
    for s in spans:
        if s["name"] != "network_model.run_sampler" or "counts" not in s:
            continue
        c = s["counts"]
        key = (_root_name(s, by_id), c["group"], c["n_samples"])
        needed[key] = max(needed.get(key, 0),
                          c["n_samples"] * c["deepest_layer"])
        done += c["n_samples"] * c["deepest_layer"]
    return sum(needed.values()) / done if done else 1.0


def layer_metrics(spans, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload execution."""
    st = self_times(spans)

    def busy(*names):
        return sum((st[s["id"]] for s in spans if s["name"] in names), 0.0)

    def count(name, error=None):
        return sum(1 for s in spans if s["name"] == name
                   and (error is None or s["error"] == error))

    def total(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in spans
                   if s["name"] == name)

    sample_s = busy(*SAMPLER)
    signed_log_s = busy(SIGNED_LOG)
    layer_draws = sum(
        s["counts"]["n_samples"] * s["counts"]["deepest_layer"]
        for s in spans
        if s["name"] == "network_model.run_sampler" and "counts" in s)
    return {
        "network_model.sample_s": sample_s,
        "network_model.calls": count("network_model.run_sampler"),
        "network_model.layer_draws": layer_draws,
        "network_model.s_per_mdraw_layer":
            (sample_s + signed_log_s) / layer_draws * 1e6 if layer_draws else 0.0,
        "network_model.result_bytes":
            total("network_model.run_sampler", "result_bytes"),
        "network_model.useful_layer_ratio": useful_layer_ratio(spans),
        "nonlinearity.signed_log_s": signed_log_s,
        "nonlinearity.signed_log_calls": count(SIGNED_LOG),
        "tail_analysis.moment_curve_s": busy("tail_analysis.moment_curve"),
        "tail_analysis.theta_moments_s":
            busy("tail_analysis.estimate_theta_moments"),
        "tail_analysis.theta_survival_s":
            busy("tail_analysis.estimate_theta_survival"),
        "tail_analysis.survival_curves_s": busy("tail_analysis.survival_curves"),
        "covariance_verifier.self_s":
            busy("covariance_verifier.sweep",
                 "covariance_verifier.estimate_unit_covariance"),
        "covariance_verifier.cells":
            count("covariance_verifier.estimate_unit_covariance"),
        "covariance_verifier.cell_errors":
            count("covariance_verifier.estimate_unit_covariance", error=True),
        "conv_pooling.pool_s": busy("conv_pooling.pool_signed_log"),
        "conv_pooling.self_s": busy("conv_pooling.pooled_tail_check"),
        "manifest.hash_s": busy("manifest.build_manifest",
                                "manifest.sha256_file"),
        "manifest.bytes_hashed": total("manifest.sha256_file", "bytes"),
        "cli.self_s": busy("cli.main"),
        "cli.bytes_written": bytes_written,
    }
