import argparse
import ast
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_ndtr

import layertails
from layertails.cli import _COMMANDS, build_parser, main
from layertails.manifest import RunManifest, _numpy_dispatch, sha256_file
from layertails.network_model import (SAMPLER_VERSION, NetworkConfig,
                                      sample_input)
from layertails.nonlinearity import NonlinearitySpec

from conftest import write_ini


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


def _covariance_without_layers(m):
    """A manifest edit that makes a covariance manifest of the same
    network whose layers list is empty."""
    params = dict(_network_edit()(m)["params"], layers=[])
    del params["standardize"]
    return dict(m, command="covariance", params=params)


@pytest.fixture()
def net_ini(tmp_path):
    cfg = NetworkConfig(input_dim=30, layer_widths=(40, 40),
                        nonlinearity=NonlinearitySpec("relu"), weight_std=1.0)
    path = tmp_path / "net.ini"
    write_ini(path, cfg)
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

    def test_overflowing_bounds_warn_nothing(self, tmp_path, capsys):
        # elu(1e308)'s d2 is alpha, so d2 |u| overflows for |u| > 1.8;
        # the verdict holds and nothing is printed
        out = tmp_path / "e"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["envelope", "elu(1e308)", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_rows(out / "envelope.csv")[0]["verdict"] == "holds"

    # sha256 of envelope.csv for the default families and for edge specs:
    # a zero slope, bounds that overflow, a subnormal alpha; elu(1e308)'s
    # row certifies the positive axis with d1 = 1.0, not its saturating
    # negative one, and d2 = 1e308; selu's d1 is lambda and its d2 lambda
    # alpha rounded up
    @pytest.mark.pin
    @pytest.mark.parametrize("families,digest", [
        ([], "b761d423ba4e7e6f74c716c2a823fd10b520674258b59b8dd041686f79fc3278"),
        (["relu", "prelu(0.0)", "elu(1e308)", "elu(1e-320)", "identity"],
         "16ea1fb40a903c2139e8c2423d6f61dfe75886133a3cadf175d877c51ce72172")],
        ids=["defaults", "edges"])
    def test_envelope_csv_is_pinned(self, families, digest, tmp_path):
        out = tmp_path / "env"
        assert main(["envelope", *families, "--out", str(out)]) == 0
        assert sha256_file(out / "envelope.csv") == digest


# sha256 of each contour file for the default exponents and for 0.5 2 3 1e6
PINNED_CONTOURS = {
    "contour_q0.2.csv":
        "d0ac66e4a9b69bc5797beb80b34c3ddee2cab8342417faebbb3cc2c3aa77d3fd",
    "contour_q0.666667.csv":
        "a70cd197a55f5a9c4b65baaf58de98e88bd11057af146fe35e783beb38027e7b",
    "contour_q1.csv":
        "e4f9b7481c0062054a03e747e07849b18abc44165bfc5fd7421401c6b1c9a5e0",
    "contour_q2.csv":
        "990b8dffaba0bac0cea5589e4f0ec281a866e1e2591077719bb0f807d8c6059b",
    "contour_q0.5.csv":
        "c017f572624402f0e244dba6f6f04078ed9e6f88746030a847aec65bf75e15f8",
    "contour_q3.csv":
        "8a9095021f8d4c4137e363a949ba78d8453ae8ea521e6c447773f483c2cf20e9",
    "contour_q1e+06.csv":
        "5920d7fb0e564be8efd4f0ea6f3efe12d804bafd891a82ee498e2c735b26ca2b",
}


class TestContoursCommand:
    @pytest.mark.pin
    @pytest.mark.parametrize("qs", [[], ["0.5", "2", "3", "1e6"]],
                             ids=["defaults", "0.5-2-3-1e6"])
    def test_contour_files_are_pinned(self, qs, tmp_path):
        out = tmp_path / "con"
        assert main(["contours", *qs, "--out", str(out)]) == 0
        man = RunManifest.load(out / "manifest.json")
        assert len(man.files) == 4
        for name in man.files:
            assert sha256_file(out / name) == PINNED_CONTOURS[name]

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

    def test_subnormal_coordinates_exit_2_before_writing(self, tmp_path,
                                                         capsys):
        # at q = 0.01 the 400-point contour's |cos phi|^(2/q) go subnormal
        # and its points leave the level set by more than CONTOUR_RTOL
        out = tmp_path / "con"
        code = main(["contours", "0.01", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: contour point off the level set (relative error "
            "2.437e-02 > 1e-09)"]
        assert not out.exists()


def _parser_dests(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_run_parameter_has_a_flag(command):
    # a parameter no flag sets could only be changed by editing a manifest;
    # network is resolved from --config
    names = set(_COMMANDS[command][1]) - {"network"}
    assert names <= _parser_dests(command)


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
        # both estimators for both layers, each with its own diagnostic
        assert list(summary[0]) == ["layer", "kind", "method", "theta_hat",
                                    "se_theta", "weighted_rss", "n_tail",
                                    "error"]
        assert len(summary) == 4
        assert {r["method"] for r in summary} == {"moment-slope",
                                                  "survival-slope"}
        assert all(float(r["theta_hat"]) > 0 for r in summary)
        for r in summary:
            if r["method"] == "moment-slope":
                assert float(r["weighted_rss"]) > 0 and r["n_tail"] == ""
            else:
                assert r["weighted_rss"] == "" and r["n_tail"] == "3000"
        rec = read_rows(out / "recursion.csv")
        assert {r["method"] for r in rec} == {"moment-slope", "survival-slope"}

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["tail-sweep", "--config", str(tmp_path / "no.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text,message", [
        ("[network\ninput_dim = 3\n", "malformed config file"),
        ("[network]\ninput_dim = 3\nlayer_widths = 4,4\n"
         "nonlinearity = prelu(1e308)\n",
         "prelu slope must be 0 or in about [1.5e-154, 1.3e154]"),
    ], ids=["unclosed-section", "prelu-slope-square-overflows"])
    def test_bad_config_file_exits_2(self, text, message, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        code = main(["tail-sweep", "--config", str(ini), "--out",
                     str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        assert not (tmp_path / "o").exists()

    def test_unadjacent_layers_get_no_recursion_rows(self, tmp_path):
        ini = tmp_path / "deep.ini"
        write_ini(ini, NetworkConfig(input_dim=10, layer_widths=(12, 12, 12),
                                     nonlinearity=NonlinearitySpec("relu")))
        out = tmp_path / "o"
        assert main(["tail-sweep", "--config", str(ini), "--layers", "1,3",
                     "--samples", "2000", "--out", str(out)]) == 0
        assert len(read_rows(out / "theta_summary.csv")) == 4
        assert read_rows(out / "recursion.csv") == []

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
        write_ini(ini, NetworkConfig(
            input_dim=1, layer_widths=(1, 1, 1, 1),
            nonlinearity=NonlinearitySpec("relu")))
        args = ["tail-sweep", "--config", str(ini), "--kind", "post",
                "--layers", "3,4", "--samples", "20000"]
        out = tmp_path / "o"
        assert main(args + ["--out", str(out)]) == 0
        row = next(r for r in read_rows(out / "theta_summary.csv")
                   if r["layer"] == "4" and r["method"] == "survival-slope")
        assert row["theta_hat"] == row["weighted_rss"] == row["n_tail"] == ""
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
        write_ini(tmp_path / "elu.ini", cfg)
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

    @pytest.mark.parametrize("std", [1e200, [1e305, 1.0]],
                             ids=["1e200", "1e305-then-1"])
    def test_unstandardized_reference_divides_in_log_domain(self, std,
                                                            tmp_path):
        # the grid reaches e^925 at weight_std 1e200 (layer 2) and e^706 at
        # (1e305, 1), past what exp can return, while u = e^x / sigma1 stays
        # below e^464; log 2 Phi_bar(u) is then a double wherever -u^2 / 2
        # is, that is for log u below about 354 (all of the second grid)
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec("relu"),
                            weight_std=std)
        write_ini(tmp_path / "net.ini", cfg)
        out = tmp_path / "curves"
        code = main(["survival-curves", "--config", str(tmp_path / "net.ini"),
                     "--standardize", "false", "--samples", "20000",
                     "--out", str(out)])
        assert code == 0
        x = sample_input(10, 0)
        sigma1 = cfg.weight_std_for(1) * math.sqrt(float(x @ x))
        rows = read_rows(out / "gaussian_reference.csv")
        log_u = np.array([float(r["log_x"]) for r in rows]) - math.log(sigma1)
        got = np.array([float(r["log_survival"]) for r in rows])
        assert np.max(log_u) + math.log(sigma1) > 700.0
        assert np.all(np.isfinite(got[log_u < 354.0]))
        assert np.all(np.isneginf(got[log_u > 355.0]))

    def test_overflowing_layer1_scale_names_weight_std_and_x(self, tmp_path,
                                                              capsys):
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec("relu"),
                            weight_std=1e308)
        write_ini(tmp_path / "net.ini", cfg)
        out = tmp_path / "curves"
        code = main(["survival-curves", "--config", str(tmp_path / "net.ini"),
                     "--standardize", "false", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error: the layer-1 scale weight_std * |x| "
                                 "= inf is not a positive finite double "
                                 "(weight_std = 1e+308, |x| = ")
        assert not out.exists()

    def test_standardize_true_is_the_default(self, net_ini, tmp_path):
        args = ["survival-curves", "--config", str(net_ini), "--samples",
                "20000"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--standardize", "true", "--out", str(b)]) == 0
        for name in RunManifest.load(a / "manifest.json").files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

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
    # an empty --layers is no request; only an omitted one means all layers
    (["covariance", "--layers", ","], "no layers requested"),
], ids=["samples", "k-order", "k-count", "tail-count", "tail-fraction",
        "contour-nan", "oracle-k-max", "empty-layers"])
def test_bad_request_exits_2_before_writing(args, message, net_ini, tmp_path,
                                            capsys):
    # a request no data could satisfy is a usage error, not an error row
    if args[0] in ("tail-sweep", "covariance"):
        args = args + ["--config", str(net_ini)]
    out = tmp_path / "o"
    code = main(args + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["survival-curves", "--standardize", "maybe"],
     "argument --standardize: expected true/false, got 'maybe'"),
    (["tail-sweep", "--layers", "1,a"],
     "argument --layers: expected comma-separated integers, got '1,a'"),
], ids=["standardize-maybe", "layers-not-integers"])
def test_unparsable_value_exits_2_through_argparse(args, message, net_ini,
                                                   tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--config", str(net_ini), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    assert not out.exists()


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

    @pytest.mark.parametrize("family,version",
                             [("elu", 4), ("tanh", 5), ("relu", 6),
                              ("relu", 7)],
                             ids=["elu-4", "tanh-5", "relu-6", "relu-7"])
    def test_version_4_elu_manifest_is_named(self, family, version, tmp_path,
                                             capsys):
        # version 5 changed the elu and selu streams, version 6 the tanh
        # and sigmoid ones, version 7 every one and version 8 the rounding
        # of |x|^2, so runs of the version before cannot replay
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec(family))
        write_ini(tmp_path / "net.ini", cfg)
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

    def test_version_8_relu_manifest_is_named(self, tmp_path, capsys):
        # version 9 draws each sign count from an alias table, not
        # rng.binomial; these are the files a version-8 build wrote for
        # this run
        v8_files = {
            "gaussian_reference.csv": "f12f64bf5b7e94cd87874aad09bcd494"
                                      "9ee3247a7b3f41fd13a3523734c90670",
            "ordering.csv": "f6d4bc6a7783786977bfcb1813b833d5"
                            "a16077073ca5fff9e94f58449070a574",
            "survival_layer1.csv": "b415413a1021dad120e08945bb8de369"
                                   "00c9b121939e736baa12c96d5ce8e881",
            "survival_layer2.csv": "5ab43f7e4144779924a78b3a4dcce0ee"
                                   "a641721507058f88d75f504978318b61",
        }
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec("relu"))
        write_ini(tmp_path / "net.ini", cfg)
        out = tmp_path / "curves"
        main(["survival-curves", "--config", str(tmp_path / "net.ini"),
              "--samples", "20000", "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert sorted(man["files"]) == sorted(v8_files)
        man["sampler"] = 8
        man["files"] = v8_files
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert "survival_layer2.csv: MISMATCH" in printed
        assert ("sampler version differs (manifest 8, this build "
                f"{SAMPLER_VERSION})") in printed
        assert "numpy version differs" not in printed

    def test_version_9_elu_manifest_is_named(self, tmp_path, capsys):
        # version 10 draws only the half-normals of a split curved group
        # that fall below its saturation point; at weight_std 33 every
        # layer-1 group splits at p = 0.24. These are the files a version-9
        # build wrote for this run
        v9_files = {
            "gaussian_reference.csv": "8c2a881a9bf3129c1b0448aceafd954c"
                                      "3b54b26fea4c0a213a47a43057e7d5af",
            "ordering.csv": "410987c0bad224f1e3b7618afa794b50"
                            "6465d9803674b46a5ac76544326308eb",
            "survival_layer1.csv": "6c9658199f5dee3a7ef5fe31fd13f477"
                                   "b629a40a5d4c67bde98433d6211b9299",
            "survival_layer2.csv": "ee4115a873f42a078f3f5c6336ff60c6"
                                   "82acdc8619807dd8e3b51a46117f4e51",
        }
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec("elu", (1.0,)),
                            weight_std=33.0)
        write_ini(tmp_path / "net.ini", cfg)
        out = tmp_path / "curves"
        main(["survival-curves", "--config", str(tmp_path / "net.ini"),
              "--samples", "20000", "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert sorted(man["files"]) == sorted(v9_files)
        man["sampler"] = 9
        man["files"] = v9_files
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert "survival_layer2.csv: MISMATCH" in printed
        assert "sampler version differs (manifest 9, this build 11)" in printed
        assert "numpy version differs" not in printed

    def test_contours_manifest_with_t_and_n_points_replays(self, tmp_path,
                                                          capsys):
        # a contours run written when the manifest recorded t = 1.0 and
        # n_points = 400, with the digests of its files
        src = Path(__file__).parent / "data" / "contours_manifest.json"
        params = RunManifest.load(src).params
        assert (params["t"], params["n_points"]) == (1.0, 400)
        code = main(["rerun", str(src), "--out", str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 0
        assert "rerun of contours: all 4 file(s) byte-identical" in printed

    @pytest.mark.parametrize("command,changed,format1_files", [
        ("survival-curves", "gaussian_reference.csv", {
            "gaussian_reference.csv": "80dc44d4a7ef1c911eb71cf7a5aa6a26"
                                      "535ca9d38e53f18ec50e6c4813d0c1b1",
            "ordering.csv": "410987c0bad224f1e3b7618afa794b50"
                            "6465d9803674b46a5ac76544326308eb",
            "survival_layer1.csv": "07aec9e50524b7659ecea4a63656aea2"
                                   "747f7209f756e8dc0e7269fc0f580043",
            "survival_layer2.csv": "945c18e089e8e409e5acb260ad15daa4"
                                   "8e09445ab4fd0d4735faff0181bb3740"}),
        ("oracle-check", "oracle.csv", {
            "oracle.csv": "9c8e4bd9302f77c1dcb82b0d43142485"
                          "ef7871339046268c2410df6f8d69d1b8"})],
        ids=["survival-curves", "oracle-check"])
    def test_format_1_manifest_is_named(self, command, changed,
                                        format1_files, tmp_path, capsys):
        # format 2 takes the Gaussian reference and the exact norms from
        # the standard library, not scipy; the draws are unchanged, so only
        # gaussian_reference.csv and oracle.csv differ from the files a
        # format-1 build wrote for these runs
        cfg = NetworkConfig(input_dim=10, layer_widths=(20, 20),
                            nonlinearity=NonlinearitySpec("relu"))
        write_ini(tmp_path / "net.ini", cfg)
        out = tmp_path / "run"
        args = [command, "--samples", "20000", "--out", str(out)]
        if command == "survival-curves":
            args += ["--config", str(tmp_path / "net.ini")]
        assert main(args) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert (man["sampler"], man["format"]) == (SAMPLER_VERSION, 4)
        assert sorted(man["files"]) == sorted(format1_files)
        del man["format"]
        man["files"] = format1_files
        (out / "manifest.json").write_text(json.dumps(man))
        assert RunManifest.load(out / "manifest.json").format == 1
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert [l for l in printed.splitlines() if "MISMATCH" in l] == [
            f"{changed}: MISMATCH"]
        assert "output format differs (manifest 1, this build 4)" in printed
        assert "sampler version differs" not in printed

    def test_format_2_envelope_manifest_is_named(self, tmp_path, capsys):
        # format 3 reads envelope.csv from the activation table: the
        # failure columns go and selu's d1 and d2 move. This is the file a
        # format-2 build wrote for the default families
        out = tmp_path / "env"
        assert main(["envelope", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["format"] == 4
        man["format"] = 2
        man["files"] = {"envelope.csv": "75d66814388539e58a9cd7f291b88b4b"
                                        "e7d9222c7d163d13e53d615981957fed"}
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert "envelope.csv: MISMATCH" in printed
        assert "output format differs (manifest 2, this build 4)" in printed
        assert "sampler version differs" not in printed

    def test_format_3_tail_sweep_manifest_is_named(self, net_ini, tmp_path,
                                                   capsys):
        # format 4 fits the moment slope by QR in plain floats and adds two
        # columns to theta_summary.csv; the draws are unchanged, so only
        # the summary and the recursion rows differ from the files a
        # format-3 build wrote for this run
        out = tmp_path / "sweep"
        assert main(["tail-sweep", "--config", str(net_ini), "--samples",
                     "20000", "--seed", "3", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["format"] == 4
        man["format"] = 3
        man["files"].update({
            "recursion.csv": "708c400c6a41bf747736705d6b34b865"
                             "c5d3aad449556901ae852d2461ed76bc",
            "theta_summary.csv": "ccee0d0802ee0f6c1c07c47db046559b"
                                 "05b6705d8bbfd2cbb1b93f4ebde58501"})
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        code = main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")])
        printed = capsys.readouterr().out
        assert code == 1
        assert [l for l in printed.splitlines() if "MISMATCH" in l] == [
            "recursion.csv: MISMATCH", "theta_summary.csv: MISMATCH"]
        assert "output format differs (manifest 3, this build 4)" in printed
        assert "sampler version differs" not in printed

    def test_manifest_records_versions_that_rerun_never_compares(
            self, net_ini, tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["tail-sweep", "--config", str(net_ini), "--samples", "20000",
              "--out", str(out), "--seed", "3"])
        man = json.loads((out / "manifest.json").read_text())
        assert man["versions"] == {"layertails": layertails.__version__,
                                   "numpy": np.__version__,
                                   "numpy_dispatch": _numpy_dispatch(),
                                   "python": platform.python_version()}
        # another build's versions: the bytes still match, so rerun passes
        man["versions"] = dict(man["versions"], numpy="1.26.4",
                               python="3.9.0")
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        assert main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "same")]) == 0
        assert "version differs" not in capsys.readouterr().out
        # when the bytes differ, a numpy change is named beside the sampler
        man["files"] = {name: "0" * 64 for name in man["files"]}
        (out / "manifest.json").write_text(json.dumps(man))
        assert main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "differ")]) == 1
        printed = capsys.readouterr().out
        assert (f"numpy version differs (manifest 1.26.4, this build "
                f"{np.__version__})") in printed
        assert "sampler version differs" not in printed

    def test_numpy_dispatch_is_named_when_files_differ(self, net_ini,
                                                       tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["tail-sweep", "--config", str(net_ini), "--samples", "20000",
              "--out", str(out), "--seed", "3"])
        man = json.loads((out / "manifest.json").read_text())
        this = man["versions"]["numpy_dispatch"]
        assert this == _numpy_dispatch()
        # a machine without the AVX512 kernels: the same bytes still pass
        man["versions"]["numpy_dispatch"] = "X86_V3"
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        assert main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "same")]) == 0
        assert "dispatch differs" not in capsys.readouterr().out
        man["files"] = {name: "0" * 64 for name in man["files"]}
        (out / "manifest.json").write_text(json.dumps(man))
        assert main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "differ")]) == 1
        printed = capsys.readouterr().out
        if this != "X86_V3":
            assert (f"numpy dispatch differs (manifest X86_V3, this build "
                    f"{this})") in printed
        assert "numpy version differs" not in printed

    def test_manifest_without_versions_loads_and_replays(self, net_ini,
                                                         tmp_path, capsys):
        out = tmp_path / "sweep"
        main(["tail-sweep", "--config", str(net_ini), "--samples", "20000",
              "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        del man["versions"]
        (out / "manifest.json").write_text(json.dumps(man))
        assert RunManifest.load(out / "manifest.json").versions == {}
        assert main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "replay")]) == 0
        man["files"] = {name: "0" * 64 for name in man["files"]}
        (out / "manifest.json").write_text(json.dumps(man))
        capsys.readouterr()
        assert main(["rerun", str(out / "manifest.json"), "--out",
                     str(tmp_path / "differ")]) == 1
        assert "numpy version differs" not in capsys.readouterr().out

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
        (_network_edit(seed=0), "network fields unknown: ['seed']"),
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
        (_network_edit(drop="include_bias"),
         "network fields missing: ['include_bias']"),
        (_covariance_without_layers, "error: no layers requested"),
        (lambda m: dict(m, command="bogus"),
         "manifest names unknown command 'bogus'"),
    ], ids=["extra-field", "no-params", "list", "no-qs", "int-params",
            "string-qs", "dict-std", "network-with-seed", "int-widths",
            "int-phi", "string-bias", "float-dim", "bool-seed",
            "bool-workers", "bool-sampler", "network-without-bias",
            "no-layers", "unknown-command"])
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


# Runs every subcommand at a tiny size with scipy made unimportable before
# layertails is imported, and prints "exit <command> <code>" for each.
_NO_SCIPY_CHILD = """
import sys
sys.modules["scipy"] = None  # importing scipy or a submodule now fails
from layertails.cli import main
out, ini = sys.argv[1:]
network = ["--config", ini, "--samples", "10000"]
runs = {"tail-sweep": network, "survival-curves": network,
        "covariance": network, "envelope": ["relu", "tanh"],
        "contours": ["1"], "oracle-check": ["--samples", "4000"]}
for name, args in runs.items():
    print("exit", name, main([name, *args, "--out", f"{out}/{name}"]))
print("exit rerun", main(["rerun", f"{out}/tail-sweep/manifest.json"]))
"""


def test_runtime_needs_no_scipy(net_ini, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(layertails.__file__).resolve().parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, layertails, layertails.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path), str(net_ini)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    codes = dict(line.split()[1:] for line in proc.stdout.splitlines()
                 if line.startswith("exit "))
    assert sorted(codes) == sorted(["tail-sweep", "survival-curves",
                                    "covariance", "envelope", "contours",
                                    "oracle-check", "rerun"])
    assert set(codes.values()) <= {"0", "1"}, proc.stdout


def test_sources_import_only_numpy_and_the_standard_library():
    """Every absolute import in the package names numpy or a standard
    library module; relative imports are the package itself."""
    sources = sorted(Path(layertails.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}")


def test_tail_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    """tail-sweep writes the same CSV bytes at 1 and 2 OpenBLAS threads.

    2e5 draws give the survival fit 2e4 rows. A BLAS least-squares solve of
    that size runs threaded, and at seed 3 its se values differed in their
    last digits between 1 and 2 threads. OPENBLAS_NUM_THREADS is set for
    the two child processes only. OpenBLAS caps its threads at the CPU
    count, so on a 1-CPU machine both children run one thread and this
    test cannot fail there.
    """
    cfg = NetworkConfig(input_dim=100, layer_widths=(100, 100, 100),
                        nonlinearity=NonlinearitySpec("relu"))
    write_ini(tmp_path / "net.ini", cfg)
    src = str(Path(layertails.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "layertails.cli", "tail-sweep", "--config",
             str(tmp_path / "net.ini"), "--samples", "200000", "--seed", "3",
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert "theta_summary.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
            name


_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif("X86_V4" not in _numpy_dispatch().split(),
                    reason="numpy does not dispatch X86_V4 on this machine, "
                           "so disabling it changes no kernel")
def test_rerun_names_a_numpy_dispatch_change(net_ini, tmp_path, capsys):
    """A tail-sweep run with numpy's X86_V4 and AVX512 kernels disabled
    either replays byte for byte here, or its rerun names the dispatch.

    NPY_DISABLE_CPU_FEATURES is set for the child process only; there
    numpy dispatches X86_V3 alone, and its exp and log may return other
    last bits, which reach theta_summary.csv.
    """
    out = tmp_path / "v3"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_AVX512,
               PYTHONPATH=os.pathsep.join(
                   [str(Path(layertails.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "layertails.cli", "tail-sweep", "--config",
         str(net_ini), "--samples", "20000", "--seed", "3", "--out",
         str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    then = RunManifest.load(out / "manifest.json").versions["numpy_dispatch"]
    assert "X86_V4" not in then.split()
    capsys.readouterr()
    code = main(["rerun", str(out / "manifest.json"), "--out",
                 str(tmp_path / "replay")])
    printed = capsys.readouterr().out
    assert code == 0 or (f"numpy dispatch differs (manifest {then}, this "
                         f"build {_numpy_dispatch()})") in printed, printed
