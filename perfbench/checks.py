"""Correctness checks on a workload's outputs, and failure counting.

An operation is one workload call (a CLI invocation, one pooled-tail
check) or one replay. It fails when it exits with an unexpected code,
raises, writes an error row, fails a check below, or writes outputs whose
bytes differ from the manifest or from the run's first repetition.

The program's own verdicts at three standard errors (covariance signs,
survival ordering, the layer-1 Gaussian match, recursion steps) are
fixed-level tests: each fails on some share of seeds at any sample size.
They are recorded as data, not counted. Where a check rests on such a
verdict, it uses a five-standard-error limit instead, which chance does
not reach in the tens of seeded runs a benchmark evaluation makes.

Pure Python: reads the CSVs and the manifest written by the program.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

SE_LIMIT = 5.0


def read_rows(path: Path) -> list[dict]:
    """Rows of a layertails CSV (comment lines start with '#')."""
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_problems(out_dir: Path) -> list[str]:
    """Every file the manifest lists exists and hashes to its digest."""
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    files = json.loads(path.read_text())["files"]
    problems = []
    for name, digest in files.items():
        f = out_dir / name
        if not f.is_file():
            problems.append(f"{name} listed in manifest but missing")
        elif _sha256(f) != digest:
            problems.append(f"{name} does not match its manifest hash")
    return problems


def output_digest(out_dir: Path, extra=None) -> str:
    """Digest of the manifest's file hashes plus any in-process results."""
    files = json.loads((out_dir / "manifest.json").read_text())["files"]
    payload = json.dumps({"files": files, "extra": extra}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def tail_sweep_checks(out_dir: Path) -> tuple[list[str], dict]:
    rows = read_rows(out_dir / "theta_summary.csv")
    problems = [f"error row: layer {r['layer']} {r['method']}: {r['error']}"
                for r in rows if r["error"]]
    theta = {(int(r["layer"]), r["method"]): float(r["theta_hat"])
             for r in rows if not r["error"]}
    if len(theta) != 6:
        problems.append(f"{len(theta)} of 6 estimates present")
        return problems, {}
    m1 = theta[(1, "moment-slope")]
    if not 0.4 <= m1 <= 0.6:
        problems.append(f"layer-1 moment slope {m1:.4f} outside [0.4, 0.6]")
    for layer in (1, 2):
        gap = abs(theta[(layer, "survival-slope")] - theta[(layer, "moment-slope")])
        if gap > 0.2:
            problems.append(f"layer {layer} |survival - moment| = {gap:.4f} > 0.2")
    verdicts = [r["verdict"] for r in read_rows(out_dir / "recursion.csv")]
    return problems, {"recursion_pass": verdicts.count("pass"),
                      "recursion_fail": verdicts.count("fail")}


def covariance_checks(out_dir: Path) -> tuple[list[str], dict]:
    rows = read_rows(out_dir / "covariance.csv")
    problems = [f"error cell: layer {r['layer']} (s, t) = ({r['s']}, {r['t']}): "
                f"{r['message']}" for r in rows if r["verdict"] == "error"]
    cells = [r for r in rows if r["verdict"] != "error"]
    if len(cells) != 27:
        problems.append(f"{len(cells)} of 27 cells reported")
    for r in cells:
        est, se = float(r["estimate"]), float(r["se"])
        if est < -SE_LIMIT * se:
            problems.append(f"layer {r['layer']} (s, t) = ({r['s']}, {r['t']}) "
                            f"below -{SE_LIMIT:g} se")
        if r["layer"] == "1" and abs(est) > SE_LIMIT * se:
            problems.append(f"layer-1 cell (s, t) = ({r['s']}, {r['t']}) "
                            f"beyond {SE_LIMIT:g} se of zero")
    tally: dict[str, int] = {}
    for r in rows:
        tally[r["verdict"]] = tally.get(r["verdict"], 0) + 1
    return problems, tally


def survival_checks(out_dir: Path) -> tuple[list[str], dict]:
    rows = read_rows(out_dir / "ordering.csv")
    problems = []
    if len(rows) != 3:
        problems.append(f"{len(rows)} of 3 ordering rows")
    deepest = [r for r in rows if r["deep_layer"] == "10"]
    if not deepest or deepest[0]["verdict"] != "pass":
        problems.append("layer 10 is not heavier-tailed than layer 3")
    return problems, {f"order_{r['shallow_layer']}_{r['deep_layer']}":
                      r["verdict"] for r in rows}


def pooling_problems(result: dict) -> list[str]:
    if "error" in result:
        return [f"{result['kind']} pooling raised {result['error']}"]
    if not result["passes"]:
        return [f"{result['kind']} pooling changed theta beyond its budget"]
    return []


def fail_counts(operations) -> tuple[int, int]:
    """(attempted, failed) over operation records with a 'problems' list."""
    attempted = len(operations)
    failed = sum(1 for op in operations if op["problems"])
    return attempted, failed
