import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr

from layertails.cli import main
from layertails.manifest import RunManifest, sha256_file
from layertails.network_model import (SAMPLER_VERSION, NetworkConfig,
                                      sample_input, write_config_file)
from layertails.nonlinearity import NonlinearitySpec


def _network_edit(drop=None, **fields):
    """A manifest edit that makes a survival-curves manifest whose
    params.network is a valid (4; 3) relu network with fields replaced,
    and the field named by drop removed."""
    net = NetworkConfig(input_dim=4, layer_widths=(3,),
                        nonlinearity=NonlinearitySpec("relu")).to_dict()
    net = {k: v for k, v in dict(net, **fields).items() if k != drop}
    params = {"seed": 0, "workers": 1, "network": net,
              "layers": [1], "samples": 20000, "standardize": True}
    return lambda m: dict(m, command="survival-curves", params=params)


@pytest.fixture()
def net_ini(tmp_path):
    cfg = NetworkConfig(input_dim=30, layer_widths=(40, 40),
                        nonlinearity=NonlinearitySpec("relu"), weight_std=1.0)
    path = tmp_path / "net.ini"
    write_config_file(path, cfg)
    return path


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestEnvelopeCommand:
    def test_default_families_split_into_holds_and_bounded(self, tmp_path):
        out = tmp_path / "env"
        assert main(["envelope", "--out", str(out)]) == 0
        rows = read_rows(out / "envelope.csv")
        verdicts = {r["nonlinearity"]: r["verdict"] for r in rows}
        assert sum(v == "holds" for v in verdicts.values()) == 4
        assert verdicts["tanh"] == verdicts["sigmoid"] == "bounded"

    def test_explicit_family_list(self, tmp_path):
        out = tmp_path / "env"
        assert main(["envelope", "relu", "tanh", "--out", str(out)]) == 0
        rows = read_rows(out / "envelope.csv")
        assert [r["nonlinearity"] for r in rows] == ["relu", "tanh"]

    def test_unknown_family_is_a_usage_error(self, tmp_path):
        assert main(["envelope", "softplus", "--out", str(tmp_path / "e")]) == 2


class TestContoursCommand:
    def test_default_exponents(self, tmp_path):
        out = tmp_path / "con"
        assert main(["contours", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"contour_q2.csv", "contour_q1.csv",
                         "contour_q0.666667.csv", "contour_q0.2.csv",
                         "manifest.json"}

    def test_manifest_hashes_every_file(self, tmp_path):
        out = tmp_path / "con"
        main(["contours", "0.5", "--out", str(out)])
        man = RunManifest.load(out / "manifest.json")
        assert man.command == "contours"
        assert set(man.files) == {"contour_q0.5.csv"}
        assert man.files["contour_q0.5.csv"] == sha256_file(
            out / "contour_q0.5.csv")

    def test_repeated_file_name_exits_2_before_writing(self, tmp_path,
                                                       capsys):
        # 0.5 and 0.5000001 agree to the six digits a file name keeps
        out = tmp_path / "con"
        code = main(["contours", "0.5", "0.5000001", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: output file name repeated: contour_q0.5.csv"]
        assert not out.exists()
        assert main(["contours", "0.5", "1", "--out", str(out)]) == 0
        man = RunManifest.load(out / "manifest.json")
        assert set(man.files) == {"contour_q0.5.csv", "contour_q1.csv"}


class TestOracleCommand:
    def test_small_run_passes_assert(self, tmp_path):
        out = tmp_path / "oracle"
        code = main(["oracle-check", "--samples", "100000", "--out", str(out),
                     "--assert"])
        assert code == 0
        rows = read_rows(out / "oracle.csv")
        assert [int(r["k"]) for r in rows] == list(range(1, 9))
        assert all(float(r["relative_error"]) < 0.02 for r in rows)


class TestTailSweepCommand:
    def test_writes_curves_summary_and_recursion(self, net_ini, tmp_path):
        out = tmp_path / "sweep"
        code = main(["tail-sweep", "--config", str(net_ini), "--samples",
                     "30000", "--out", str(out), "--seed", "7"])
        assert code == 0
        assert (out / "moments_layer1.csv").exists()
        assert (out / "moments_layer2.csv").exists()
        summary = read_rows(out / "theta_summary.csv")
        # both estimators for both layers
        assert len(summary) == 4
        assert {r["method"] for r in summary} == {"moment-slope",
                                                  "survival-slope"}
        assert all(float(r["theta_hat"]) > 0 for r in summary)
        rec = read_rows(out / "recursion.csv")
        assert {r["method"] for r in rec} == {"moment-slope", "survival-slope"}

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["tail-sweep", "--config", str(tmp_path / "no.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_layers_exit_2(self, net_ini, tmp_path, capsys):
        code = main(["tail-sweep", "--config", str(net_ini), "--layers", "5",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: layer 5 out of range 1..2"]
        assert not (tmp_path / "o").exists()

    def test_assert_mode_fails_on_flat_recursion(self, net_ini, tmp_path):
        # at width 40 the deep-layer tail step stays far below 0.5 for the
        # survival estimator, so the recursion verdict must fail
        code = main(["tail-sweep", "--config", str(net_ini), "--samples",
                     "30000", "--out", str(tmp_path / "o"), "--seed", "7",
                     "--assert"])
        assert code == 1

    def test_estimator_errors_are_rows(self, tmp_path):
        # in a (1, 1, 1, 1) relu net about 1/16 of the layer-4 post draws
        # are non-zero, fewer than the top 10% the survival slope fits
        ini = tmp_path / "tiny.ini"
        write_config_file(ini, NetworkConfig(
            input_dim=1, layer_widths=(1, 1, 1, 1),
            nonlinearity=NonlinearitySpec("relu")))
        args = ["tail-sweep", "--config", str(ini), "--kind", "post",
                "--layers", "3,4", "--samples", "20000"]
        out = tmp_path / "o"
        assert main(args + ["--out", str(out)]) == 0
        row = next(r for r in read_rows(out / "theta_summary.csv")
                   if r["layer"] == "4" and r["method"] == "survival-slope")
        assert row["theta_hat"] == ""
        assert row["error"] == "tail contains exact zeros"
        assert (out / "moments_layer4.csv").exists()
        assert main(args + ["--out", str(tmp_path / "a"), "--assert"]) == 1


class TestSurvivalCurvesCommand:
    def test_outputs_curves_reference_and_ordering(self, net_ini, tmp_path):
        out = tmp_path / "curves"
        code = main(["survival-curves", "--config", str(net_ini), "--samples",
                     "30000", "--out", str(out)])
        assert code == 0
        assert (out / "survival_layer1.csv").exists()
        assert (out / "survival_layer2.csv").exists()
        assert (out / "gaussian_reference.csv").exists()
        rows = read_rows(out / "ordering.csv")
        assert len(rows) == 1
        assert rows[0]["verdict"] in ("pass", "fail")

    def test_unstandardized_run_uses_exact_layer1_scale(self, net_ini,
                                                        tmp_path):
        # without IQR standardization the reference is the exact layer-1
        # Gaussian, whose scale is known in closed form
        out = tmp_path / "curves"
        code = main(["survival-curves", "--config", str(net_ini), "--samples",
                     "30000", "--standardize", "false", "--out", str(out),
                     "--assert"])
        assert code == 0
        assert (out / "gaussian_reference.csv").exists()
        x = sample_input(30, 0)
        sigma1 = math.sqrt(float(x @ x))
        rows = read_rows(out / "gaussian_reference.csv")
        log_x = np.array([float(r["log_x"]) for r in rows])
        got = np.array([float(r["log_survival"]) for r in rows])
        want = math.log(2.0) + log_ndtr(-np.exp(log_x) / sigma1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_unstandardized_reference_is_finite_in_the_far_tail(self,
                                                                 tmp_path):
        # deeper elu layers stretch the grid to hundreds of layer-1 scales,
        # where 2 Phi_bar underflows to 0 but its log stays finite
        cfg = NetworkConfig(input_dim=40, layer_widths=(40, 40, 40),
                            nonlinearity=NonlinearitySpec("elu", (1.0,)))
        write_config_file(tmp_path / "elu.ini", cfg)
        out = tmp_path / "curves"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["survival-curves", "--config", str(tmp_path / "elu.ini"),
                         "--standardize", "false", "--samples", "30000",
                         "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "gaussian_reference.csv")
        got = np.array([float(r["log_survival"]) for r in rows])
        assert np.all(np.isfinite(got))
        assert np.min(got) < -745.0  # below log of the least positive double

    def test_grid_is_shared_across_layers(self, net_ini, tmp_path):
        out = tmp_path / "curves"
        main(["survival-curves", "--config", str(net_ini), "--samples",
              "30000", "--out", str(out)])
        g1 = [r["log_x"] for r in read_rows(out / "survival_layer1.csv")]
        g2 = [r["log_x"] for r in read_rows(out / "survival_layer2.csv")]
        assert g1 == g2


    def test_rejected_run_creates_no_out_dir(self, net_ini, tmp_path, capsys):
        out = tmp_path / "s1"
        code = main(["survival-curves", "--config", str(net_ini),
                     "--samples", "50", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: layer 1: too few positive samples"]
        assert not out.exists()


class TestCovarianceCommand:
    def test_nine_cells_per_layer(self, net_ini, tmp_path):
        out = tmp_path / "cov"
        code = main(["covariance", "--config", str(net_ini), "--layers", "1",
                     "--samples", "10000", "--out", str(out), "--assert"])
        assert code == 0
        rows = read_rows(out / "covariance.csv")
        assert len(rows) == 9
        assert all(r["verdict"] != "violation" for r in rows)

    def test_too_few_samples_exit_2(self, net_ini, tmp_path, capsys):
        out = tmp_path / "cov"
        code = main(["covariance", "--config", str(net_ini), "--samples",
                     "100", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: need n_samples >= 10^4"]
        assert not (out / "covariance.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["tail-sweep", "--samples", "50"], "need at least 100 samples"),
    (["tail-sweep", "--k-min", "5", "--k-max", "3"],
     "need 1 <= k_min and at least 4 orders in [k_min, k_max], got [5, 3]"),
    (["tail-sweep", "--k-min", "2", "--k-max", "4"],
     "need 1 <= k_min and at least 4 orders in [k_min, k_max], got [2, 4]"),
    (["tail-sweep", "--samples", "1000"],
     "tail_fraction * n_samples must be >= 200"),
    (["tail-sweep", "--tail-fraction", "0.7"],
     "tail_fraction must be in (0, 0.5)"),
    (["contours", "nan"], "q must be positive and finite, got nan"),
    (["oracle-check", "--k-max", "0"], "need k_max >= 1, got 0"),
], ids=["samples", "k-order", "k-count", "tail-count", "tail-fraction",
        "contour-nan", "oracle-k-max"])
def test_bad_request_exits_2_before_writing(args, message, net_ini, tmp_path,
                                            capsys):
    # a request no data could satisfy is a usage error, not an error row
    if args[0] == "tail-sweep":
        args = args + ["--config", str(net_ini)]
    out = tmp_path / "o"
    code = main(args + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: {message}"]
    assert not list(out.glob("*.csv"))


def test_seed_of_2_to_the_32_exits_2(net_ini, tmp_path, capsys):
    code = main(["tail-sweep", "--config", str(net_ini), "--samples", "1000",
                 "--seed", "4294967296", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: seed must be in [0, 2^32), "
                                "got 4294967296"]


class TestRerun:
    def test_byte_identical_replay_with_different_workers(self, net_ini,
                                                          tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["tail-sweep", "--config", str(net_ini), "--samples", "20000",
              "--out", str(out), "--seed", "3"])
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay"), "--workers", "4"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in printed

    def test_tampered_output_is_detected(self, tmp_path, capsys):
        out = tmp_path / "con"
        main(["contours", "--out", str(out)])
        path = out / "contour_q1.csv"
        path.write_text(path.read_text().replace("0.5", "0.51"))
        # hand the mismatch checker the original manifest but tampered files
        man = json.loads((out / "manifest.json").read_text())
        man["files"]["contour_q1.csv"] = sha256_file(path)
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in printed
        assert "sampler version differs" not in printed

    def test_older_sampler_version_is_named(self, net_ini, tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["tail-sweep", "--config", str(net_ini), "--samples", "20000",
              "--out", str(out), "--seed", "3"])
        # a version-1 manifest: no sampler field, and digests standing in
        # for the files the version-1 sampler wrote
        man = json.loads((out / "manifest.json").read_text())
        del man["sampler"]
        man["files"] = {name: "0" * 64 for name in man["files"]}
        (out / "manifest.json").write_text(json.dumps(man))
        assert RunManifest.load(out / "manifest.json").sampler == 1
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert ("sampler version differs (manifest 1, this build "
                f"{SAMPLER_VERSION})") in printed

    def test_version_3_covariance_manifest_is_named(self, net_ini, tmp_path,
                                                   capsys):
        # version 4 draws a covariance sweep in one pass, so a version-3
        # covariance run cannot replay byte for byte
        out = tmp_path / "cov"
        main(["covariance", "--config", str(net_ini), "--layers", "1,2",
              "--samples", "10000", "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        man["sampler"] = 3
        man["files"] = {name: "0" * 64 for name in man["files"]}
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert "covariance.csv: MISMATCH" in printed
        assert ("sampler version differs (manifest 3, this build "
                f"{SAMPLER_VERSION})") in printed

    @pytest.mark.parametrize("family,version", [("elu", 4), ("tanh", 5)],
                             ids=["elu-4", "tanh-5"])
    def test_version_4_elu_manifest_is_named(self, family, version, tmp_path,
                                             capsys):
        # version 5 changed the elu and selu streams and version 6 the tanh
        # and sigmoid ones, so runs of the version before cannot replay
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec(family))
        write_config_file(tmp_path / "net.ini", cfg)
        out = tmp_path / "curves"
        main(["survival-curves", "--config", str(tmp_path / "net.ini"),
              "--samples", "20000", "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        man["sampler"] = version
        man["files"] = {name: "0" * 64 for name in man["files"]}
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert "survival_layer2.csv: MISMATCH" in printed
        assert (f"sampler version differs (manifest {version}, this build "
                f"{SAMPLER_VERSION})") in printed

    @pytest.mark.parametrize("edit,message", [
        (lambda m: dict(m, extra=1), "unknown field 'extra'"),
        (lambda m: {k: v for k, v in m.items() if k != "params"},
         "missing field 'params'"),
        (lambda m: [m], "is not a JSON object"),
        (lambda m: dict(m, params={k: v for k, v in m["params"].items()
                                   if k != "qs"}),
         "manifest params lack 'qs'"),
        (lambda m: dict(m, params=3), "field 'params' is not a JSON dict"),
        (lambda m: dict(m, params=dict(m["params"], qs="ab")),
         "manifest params of the wrong type: ['qs']"),
        (_network_edit(weight_std={}),
         "network fields of the wrong type: ['weight_std']"),
        (_network_edit(seed=None),
         "network fields of the wrong type: ['seed']"),
        (_network_edit(layer_widths=4),
         "network fields of the wrong type: ['layer_widths']"),
        (_network_edit(nonlinearity=3),
         "network fields of the wrong type: ['nonlinearity']"),
        (_network_edit(include_bias="yes"),
         "network fields of the wrong type: ['include_bias']"),
        (_network_edit(input_dim=2.5),
         "network fields of the wrong type: ['input_dim']"),
        (lambda m: dict(m, params=dict(m["params"], seed=True)),
         "manifest params of the wrong type: ['seed']"),
        (lambda m: dict(m, params=dict(m["params"], workers=True)),
         "manifest params of the wrong type: ['workers']"),
        (lambda m: dict(m, sampler=True), "field 'sampler' is not a JSON int"),
        (_network_edit(drop="seed"), "network fields missing: ['seed']"),
    ], ids=["extra-field", "no-params", "list", "no-qs", "int-params",
            "string-qs", "dict-std", "null-seed", "int-widths", "int-phi",
            "string-bias", "float-dim", "bool-seed", "bool-workers",
            "bool-sampler", "network-without-seed"])
    def test_malformed_manifest_exits_2(self, edit, message, tmp_path,
                                        capsys):
        out = tmp_path / "con"
        main(["contours", "0.5", "--out", str(out)])
        path = out / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        capsys.readouterr()
        code = main(["rerun", str(path), "--out", str(tmp_path / "replay")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize("args", [
        ["tail-sweep", "--samples", "2000", "--layers", "2"],
        ["survival-curves", "--samples", "20000"],
        ["covariance", "--samples", "10000", "--layers", "1"],
        ["envelope", "relu", "elu(1.0)"],
        ["contours", "0.5", "2"],
        ["oracle-check", "--samples", "1000", "--k-max", "3"],
    ], ids=lambda args: args[0])
    def test_every_subcommand_replays_byte_identical(self, args, net_ini,
                                                     tmp_path, capsys):
        # a run passes its runner only the params of the subcommand's
        # table row, and rerun replays from those alone
        if args[0] in ("tail-sweep", "survival-curves", "covariance"):
            args = args + ["--config", str(net_ini)]
        out, replay = tmp_path / "run", tmp_path / "replay"
        assert main(args + ["--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out", str(replay)])
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out
        files = RunManifest.load(out / "manifest.json").files
        assert files
        for name in files:
            assert (replay / name).read_bytes() == (out / name).read_bytes()

    def test_rerun_is_self_contained(self, net_ini, tmp_path):
        # the manifest embeds the network; the original config can vanish
        out = tmp_path / "sweep"
        main(["tail-sweep", "--config", str(net_ini), "--samples", "20000",
              "--out", str(out)])
        net_ini.unlink()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        assert code == 0

    def test_identical_manifest_params_across_runs(self, net_ini, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["tail-sweep", "--config", str(net_ini), "--samples",
                  "20000", "--out", str(out)])
        ma = RunManifest.load(a / "manifest.json")
        mb = RunManifest.load(b / "manifest.json")
        assert ma.params == mb.params
        assert ma.files == mb.files


@pytest.mark.parametrize("command", [
    ["tail-sweep", "--config", "net.ini"], ["envelope"], ["rerun", "m.json"]])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(command, workers, tmp_path, capsys):
    code = main(command + ["--workers", workers, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: --workers must be >= 1, got {workers}"]
    assert not (tmp_path / "o").exists()


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "layertails.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tail-sweep" in proc.stdout
