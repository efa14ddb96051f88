"""Span recording by wrapping module attributes from outside the program.

The program has no tracing of its own, so the traced run replaces chosen
module attributes (for example ``layertails.cli.sample_layer_units`` or
``layertails.network_model.run_sampler``) with wrappers that record a span
per call. Callers look these names up at call time, so nested calls appear
as child spans. Spans stay in memory; the child process writes them out
once, after the workload has finished.

A span opened on a worker thread whose own stack is empty (a sampler chunk
run by the thread pool) takes the main thread's innermost open span as its
parent, so the pool's work is subtracted from the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time

from layertails import (cli, conv_pooling, covariance_verifier, manifest,
                        network_model, nonlinearity)


def _run_sampler_counts(bound, result) -> dict:
    a = bound.arguments
    return {"n_samples": int(a["n_samples"]),
            "deepest_layer": max(a["needs"]),
            "group": a["config"].config_hash(),
            "result_bytes": sum(s.nbytes + m.nbytes for s, m in result.values())}


def _sha256_file_counts(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# Per-function counters, keyed by span name; each reads the call's bound
# arguments and its return value.
COUNTERS = {
    "network_model.run_sampler": _run_sampler_counts,
    "manifest.sha256_file": _sha256_file_counts,
}


class Tracer:
    """Wraps module attributes and collects one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is \
                threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = {"id": next(self._ids), "parent": parent, "name": name,
                    "thread": threading.get_ident(), "error": False}
            stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                span["counts"] = counter(signature.bind(*args, **kwargs),
                                         result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def install() -> Tracer:
    """Wrap every traced entry point of the layertails package."""
    tracer = Tracer()
    for module, attrs in (
            (cli, ("main", "sample_layer_units", "sweep", "build_manifest",
                   "moment_curve", "estimate_theta_moments",
                   "estimate_theta_survival", "survival_curves")),
            (network_model, ("run_sampler", "_conditional_chunk",
                             "apply_signed_log")),
            (nonlinearity, ("apply_signed_log",)),
            (covariance_verifier, ("sample_joint_units",
                                   "estimate_unit_covariance")),
            (conv_pooling, ("pooled_tail_check", "sample_joint_units",
                            "pool_signed_log", "moment_curve",
                            "estimate_theta_moments")),
            (manifest, ("sha256_file",))):
        for attr in attrs:
            tracer.wrap(module, attr)
    return tracer
