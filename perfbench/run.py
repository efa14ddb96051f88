"""layertails benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload relu_sweep --seed 0 --seconds 20 --trace 0

Each repetition runs the workload once in a fresh Python process
(child.py) against the checkout's src/, until --seconds have passed.
Every repetition's outputs are checked; then one repetition is replayed
with `layertails rerun` at another worker count, outside the timed loop.

--trace 0 prints the end-to-end metrics: medians over the repetitions.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics from the traced ones, the tracing overhead and the
width probe. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Run details, the output
digest and the spans go to .perfbench_out/ in the checkout.

The workloads, metrics and their links are described in DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 12

END_TO_END_UNITS = {"wall_s": "s", "draws_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "network_model.sample_s": "s", "network_model.calls": "count",
    "network_model.layer_draws": "count",
    "network_model.s_per_mdraw_layer": "s/Mdraw",
    "network_model.s_per_mdraw_layer.h10": "s/Mdraw",
    "network_model.s_per_mdraw_layer.h100": "s/Mdraw",
    "network_model.s_per_mdraw_layer.h1000": "s/Mdraw",
    "network_model.result_bytes": "bytes",
    "network_model.useful_layer_ratio": "ratio",
    "nonlinearity.signed_log_s": "s", "nonlinearity.signed_log_calls": "count",
    "tail_analysis.moment_curve_s": "s", "tail_analysis.theta_moments_s": "s",
    "tail_analysis.theta_survival_s": "s",
    "tail_analysis.survival_curves_s": "s",
    "covariance_verifier.self_s": "s", "covariance_verifier.cells": "count",
    "covariance_verifier.cell_errors": "count",
    "conv_pooling.pool_s": "s", "conv_pooling.self_s": "s",
    "manifest.hash_s": "s", "manifest.bytes_hashed": "bytes",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "bench.trace_overhead_s": "s",
}

OUTPUT_CHECKS = {"relu_sweep": checks.tail_sweep_checks,
                 "joint_verify": checks.covariance_checks,
                 "elu_survival": checks.survival_checks}
# survival-curves runs with --assert; exit 1 is its failed-verdict signal,
# recorded as data (see checks.py), while 2 or an exception is a failure.
ACCEPTED_EXIT = {"relu_sweep": (0,), "joint_verify": (0,),
                 "elu_survival": (0, 1)}


class Runner:
    """Starts child processes for one workload and checks what they write."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0
        self.digest = None
        self.verdict_data: dict = {}

    def child(self, mode: str, probe: bool = False):
        """Run child.py once; returns (result or None, rep dir, log tail)."""
        self.count += 1
        rep = self.work / f"rep{self.count:03d}"
        rep.mkdir()
        spec = {"workload": self.workload.name, "seed": self.seed,
                "mode": mode, "probe": probe, "dir": str(rep),
                "result": str(rep / "result.json")}
        (rep / "spec.json").write_text(json.dumps(spec))
        t_spawn = time.monotonic()
        with open(rep / "child.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"),
                     str(rep / "spec.json")],
                    env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not (rep / "result.json").is_file():
            tail = (rep / "child.log").read_text().strip().splitlines()[-3:]
            return None, rep, f"child exited {code}: {' | '.join(tail)}"
        res = json.loads((rep / "result.json").read_text())
        res["setup_s"] = res["t_first"] - t_spawn
        return res, rep, ""

    def evaluate(self, res, rep: Path, log_tail: str) -> list[dict]:
        """Operation records for one repetition."""
        name = self.workload.cli_command
        if res is None:
            return [{"op": name, "problems": [log_tail]}]
        problems = []
        out = rep / "out"
        if "error" in res:
            problems.append(f"raised: {res['error'].strip().splitlines()[-1]}")
        elif res["exit_code"] not in ACCEPTED_EXIT[self.workload.name]:
            problems.append(f"exit code {res['exit_code']}")
        else:
            problems += checks.manifest_problems(out)
        if not problems:
            found, data = OUTPUT_CHECKS[self.workload.name](out)
            problems += found
            data["exit_code"] = res["exit_code"]
            for p in res["pooling"]:
                data[f"pooling_{p['kind']}"] = p.get("passes", "error")
            self.verdict_data = data
            digest = checks.output_digest(out, res["pooling"])
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("outputs differ from the first repetition")
        ops = [{"op": name, "problems": problems}]
        ops += [{"op": f"pooled_tail_check {p['kind']}",
                 "problems": checks.pooling_problems(p)} for p in res["pooling"]]
        return ops

    def replay(self, rep: Path) -> dict:
        """Replay a repetition's manifest at another worker count."""
        workers = self.workload.replay_workers
        cmd = [sys.executable, "-m", "layertails.cli", "rerun",
               str(rep / "out" / "manifest.json"), "--workers", str(workers),
               "--out", str(rep / "replay")]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"op": f"rerun --workers {workers}", "problems": ["timeout"]}
        problems = []
        if proc.returncode != 0:
            last = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
            problems.append(f"rerun exit {proc.returncode}: {' '.join(last)}")
        return {"op": f"rerun --workers {workers}", "problems": problems}


def _bytes_written(out: Path) -> int:
    """Bytes of the CSVs a run wrote. manifest.json is left out: its
    duration and timestamp fields change length from run to run."""
    files = json.loads((out / "manifest.json").read_text())["files"]
    return sum((out / name).stat().st_size for name in files)


def _metric(name: str, value, units: dict) -> tuple[str, dict]:
    return name, {"value": value, "unit": units[name]}


def end_to_end(workload, runs, setup_samples) -> dict:
    walls = [r["wall_s"] for r in runs]
    values = {
        "wall_s": statistics.median(walls),
        "draws_per_s": statistics.median(workload.delivered_draws / w
                                         for w in walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setup_samples),
    }
    return dict(_metric(k, v, END_TO_END_UNITS) for k, v in values.items())


def per_layer(runs, traced) -> dict:
    per_rep = [spans.layer_metrics(r["spans"], _bytes_written(rep / "out"))
               for r, rep in traced]
    values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    values["bench.trace_overhead_s"] = (
        statistics.median(r["wall_s"] for r, _ in traced)
        - statistics.median(r["wall_s"] for r in runs))
    probe = next(r["width_probe"] for r, _ in traced if "width_probe" in r)
    for key, v in probe.items():
        values[f"network_model.s_per_mdraw_layer.{key}"] = v
    return dict(_metric(k, v, PER_LAYER_UNITS) for k, v in values.items())


def run(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, work)
    operations, runs, traced, setup_samples = [], [], [], []
    last_ok = None
    start = time.monotonic()
    while True:
        is_traced = bool(args.trace) and len(traced) < len(runs)
        res, rep, tail = runner.child("trace" if is_traced else "run",
                                      probe=is_traced and not traced)
        ops = runner.evaluate(res, rep, tail)
        operations += ops
        timed = res is not None and "wall_s" in res
        if timed:
            if is_traced:
                traced.append((res, rep))
            else:
                runs.append(res)
            setup_samples.append(res["setup_s"])
            if not ops[0]["problems"]:
                last_ok = rep
        print(f"{'trace' if is_traced else 'run'} {runner.count}: "
              + (f"wall {res['wall_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
                 f"rss {res['peak_rss_mb']:.1f} MB, setup {res['setup_s']:.3f} s"
                 if timed else "no timing")
              + "".join(f"; {op['op']}: {p}" for op in ops
                        for p in op["problems"]))
        enough = runs and (traced or not args.trace)
        if time.monotonic() - start >= args.seconds and (
                enough or runner.count >= 4):
            break

    if not args.trace:
        while len(setup_samples) < MIN_SETUP_SAMPLES:
            res, _, tail = runner.child("setup")
            if res is None:
                operations.append({"op": "setup", "problems": [tail]})
                break
            setup_samples.append(res["setup_s"])

    if last_ok is not None:
        replay = runner.replay(last_ok)
        operations.append(replay)
        print(f"replay at {workload.replay_workers} worker(s): "
              + ("; ".join(replay["problems"]) or "byte-identical"))

    if not runs or (args.trace and not traced):
        print("error: no repetition produced timings", file=sys.stderr)
        return 1
    attempted, failed = checks.fail_counts(operations)
    metrics = per_layer(runs, traced) if args.trace else \
        end_to_end(workload, runs, setup_samples)
    print(f"output_digest {workload.name} seed={args.seed} {runner.digest}")
    print(f"verdict data: {json.dumps(runner.verdict_data, sort_keys=True)}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    report = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "output_digest": runner.digest,
              "verdict_data": runner.verdict_data, "operations": operations,
              "setup_samples": setup_samples, "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k != "pooling"}
                       for r in runs],
              "spans": [r["spans"] for r, _ in traced]}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        parser.error("--seed must be in [0, 2^63) and --seconds >= 1")
    if not (SRC / "layertails" / "__init__.py").is_file():
        print(f"error: no layertails sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
