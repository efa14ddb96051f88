"""One workload execution in a fresh process.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the workload, seed, mode and working directory. Modes:
  setup   set up, then stop before the first workload call
  run     set up, then run the workload once untraced
  trace   set up, wrap the program's entry points and run the workload
          once; with "probe" set, then run the width probe untraced
The result (timings, exit code, pooling verdicts, spans) is written as JSON
to the spec's "result" path. Set-up is everything before the first workload
call: interpreter start, imports, writing and parsing the INI config and
drawing the input vector. PYTHONPATH must point at the program's src/.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layertails
from layertails import cli, conv_pooling, network_model

from tracer import install
from workloads import (POOLING_LAYER, POOLING_REGION, POOLING_SAMPLES,
                       WORKLOADS)

PROBE_WIDTHS = (10, 100, 1000)
PROBE_LAYER_DRAWS = 6_000_000  # draws x layers x width per probe call
PROBE_REPEATS = 3


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _pooling(workload, config, x, seed) -> list[dict]:
    if workload.name != "joint_verify":
        return []
    out = []
    for kind in ("max", "average"):
        spec = layertails.PoolingSpec(kind, len(POOLING_REGION))
        try:
            c = conv_pooling.pooled_tail_check(config, x, POOLING_LAYER,
                                               POOLING_REGION, spec,
                                               POOLING_SAMPLES, seed)
        except Exception:  # recorded as a failed operation by the parent
            out.append({"kind": kind, "error": traceback.format_exc(limit=3)})
            continue
        out.append({"kind": kind, "passes": bool(c.passes),
                    "theta_before": repr(c.before.theta_hat),
                    "theta_after": repr(c.after.theta_hat),
                    "budget": repr(c.budget)})
    return out


def width_probe(seed: int) -> dict[str, float]:
    """Seconds per 10^6 draws per layer of sample_layer_units at width H."""
    out = {}
    for h in PROBE_WIDTHS:
        config = network_model.NetworkConfig(
            input_dim=h, layer_widths=(h, h, h),
            nonlinearity=layertails.NonlinearitySpec("relu"))
        x = network_model.sample_input(h, seed)
        n = PROBE_LAYER_DRAWS // (3 * h)
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            network_model.sample_layer_units(config, x, (1, 2, 3), "pre", n,
                                             seed)
            times.append(time.perf_counter() - t0)
        out[f"h{h}"] = statistics.median(times) / (3 * n) * 1e6
    return out


def main(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    seed = spec["seed"]
    work = Path(spec["dir"])
    ini = work / "net.ini"
    ini.write_text(workload.ini_text(seed))
    config = network_model.parse_config_file(ini)
    x = network_model.sample_input(config.input_dim, seed)
    tracer = install() if spec["mode"] == "trace" else None
    t_first = time.monotonic()
    result = {"t_first": t_first}
    if spec["mode"] == "setup":
        return result

    argv = workload.cli_argv(str(ini), str(work / "out"), seed)
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    try:
        result["exit_code"] = cli.main(argv)
    except Exception:
        result["exit_code"] = None
        result["error"] = traceback.format_exc(limit=5)
    result["pooling"] = _pooling(workload, config, x, seed)
    result["wall_s"] = time.perf_counter() - w0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        if spec.get("probe"):
            result["width_probe"] = width_probe(seed)
    return result


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    out = main(spec)
    Path(spec["result"]).write_text(json.dumps(out))
