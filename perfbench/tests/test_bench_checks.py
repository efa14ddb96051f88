"""Failure counting, output checks and the manifest's metric tables."""

import json
from pathlib import Path

import checks
import run
from workloads import WORKLOADS

HEADER = "layer,kind,method,theta_hat,se_theta,error"


def write_sweep(out: Path, rows, recursion=("pass", "fail")):
    out.mkdir(parents=True, exist_ok=True)
    (out / "theta_summary.csv").write_text(
        "# tail estimates\n" + HEADER + "\n"
        + "".join(",".join(map(str, r)) + "\n" for r in rows))
    (out / "recursion.csv").write_text(
        "layer_prev,layer_next,method,theta_prev,theta_next,difference,"
        "tolerance,verdict\n"
        + "".join(f"1,2,m,0.5,0.6,0.1,0.2,{v}\n" for v in recursion))
    files = {n: checks._sha256(out / n)
             for n in ("theta_summary.csv", "recursion.csv")}
    (out / "manifest.json").write_text(json.dumps({"files": files}))


def good_rows():
    return [(l, "pre", m, t, 0.01, "")
            for l, m, t in ((1, "moment-slope", 0.5), (1, "survival-slope", 0.63),
                            (2, "moment-slope", 0.6), (2, "survival-slope", 0.7),
                            (3, "moment-slope", 0.7), (3, "survival-slope", 0.8))]


def test_fail_counts():
    ops = [{"op": "a", "problems": []}, {"op": "b", "problems": ["x", "y"]},
           {"op": "c", "problems": []}]
    assert checks.fail_counts(ops) == (3, 1)


def test_recursion_verdicts_are_data_not_failures(tmp_path):
    write_sweep(tmp_path, good_rows(), recursion=("fail", "fail"))
    problems, data = checks.tail_sweep_checks(tmp_path)
    assert problems == []
    assert data == {"recursion_pass": 0, "recursion_fail": 2}


def test_sweep_checks_flag_window_and_error_rows(tmp_path):
    rows = good_rows()
    rows[0] = (1, "pre", "moment-slope", 0.65, 0.01, "")
    rows[3] = (2, "pre", "survival-slope", None, None, "degenerate")
    write_sweep(tmp_path, rows)
    problems, _ = checks.tail_sweep_checks(tmp_path)
    assert any("error row" in p for p in problems)
    assert any("5 of 6" in p for p in problems)


def test_evaluate_counts_each_failed_operation_once(tmp_path):
    runner = run.Runner(WORKLOADS["relu_sweep"], 0, tmp_path)
    rep = tmp_path / "rep"
    rows = good_rows()
    rows[1] = (1, "pre", "survival-slope", 0.75, 0.01, "")  # gap 0.25 > 0.2
    write_sweep(rep / "out", rows)
    ok_rep = tmp_path / "ok"
    write_sweep(ok_rep / "out", good_rows())
    ops = (runner.evaluate({"exit_code": 0, "pooling": []}, ok_rep, "")
           + runner.evaluate({"exit_code": 0, "pooling": []}, rep, "")
           + runner.evaluate({"exit_code": 2, "pooling": []}, rep, "")
           + runner.evaluate(None, rep, "child exited 1"))
    assert checks.fail_counts(ops) == (4, 3)
    # the second repetition also differs from the first one's outputs
    assert any("differ" in p for p in ops[1]["problems"])


def test_pooling_failures_are_separate_operations(tmp_path):
    runner = run.Runner(WORKLOADS["relu_sweep"], 0, tmp_path)
    write_sweep(tmp_path / "out", good_rows())
    pooling = [{"kind": "max", "passes": True},
               {"kind": "average", "passes": False}]
    ops = runner.evaluate({"exit_code": 0, "pooling": pooling}, tmp_path, "")
    assert checks.fail_counts(ops) == (3, 1)


def test_manifest_problems_detect_changed_bytes(tmp_path):
    write_sweep(tmp_path, good_rows())
    assert checks.manifest_problems(tmp_path) == []
    (tmp_path / "recursion.csv").write_text("changed\n")
    assert checks.manifest_problems(tmp_path) == [
        "recursion.csv does not match its manifest hash"]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
