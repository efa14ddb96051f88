"""Command-line surface tying the modules into reproducible experiments.

Every subcommand computes first, then writes its CSVs and a manifest.json
into --out from a single writer: each runner returns its tables, and
_execute creates --out and writes them. Statistical verdicts are data in
the CSVs, not exit codes; --assert turns failed verdicts into exit code 1.
Config and I/O problems exit 2, as do requests that no draws could
satisfy and runs whose tables share a file name; such a run creates no
--out directory.

Each subcommand's row in _COMMANDS gives its runner and the JSON type of
every parameter the runner reads. A run takes those parameters from the
parsed arguments and records them as the manifest's params; rerun checks
a manifest's params against the same row, with exact JSON types (a bool
is not a number), and exits 2 before any work if one is missing or wrong.

Subcommands:
  tail-sweep       moment curves, tail estimates (both estimators), recursion verdicts
  survival-curves  per-layer log-survival of pre-nonlinearity units on a shared grid
  covariance       sign verdicts for Cov[h_m^s, h_m'^t] over layers x powers
  envelope         linear envelope verdicts for the built-in nonlinearities
  contours         superellipse contour data for L^q balls
  oracle-check     moment estimator against exact Gaussian norms
  rerun            replay a manifest and verify byte-identical outputs;
                   names a sampler version, output format, numpy version
                   or numpy dispatch change when files differ
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .covariance_verifier import sweep
from .errors import ConfigFileError, is_json_type
from .manifest import RunManifest, build_manifest
from .network_model import (STREAM_UNITS, NetworkConfig, entropy_prefix,
                            layer1_sq_norm, parse_config_file, sample_chunks,
                            sample_input, sample_layer_units)
from .nonlinearity import NonlinearitySpec, search_envelope_constants
from .penalty_geometry import contour
from .tail_analysis import (TailFold, check_tail_request, empirical_log_norm,
                            estimate_theta_moments, gaussian_norm_oracle,
                            recursion_check, survival_curves,
                            synthetic_values)
# tail-sweep folds its draws in a TailFold and calls neither of these;
# they stay bound because perfbench/tracer.py wraps them here by name
from .tail_analysis import estimate_theta_survival, moment_curve  # noqa: F401

DEFAULT_FAMILIES = ("relu", "prelu(0.25)", "elu(1.0)", "selu", "tanh", "sigmoid")
DEFAULT_QS = (2.0, 1.0, 2.0 / 3.0, 0.2)


def _fmt(v) -> str:
    """CSV cell: repr for floats (lossless round trip), empty for None."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def _sanitize(msg: str) -> str:
    return str(msg).replace(",", ";").replace("\n", " ")


def _write_rows(path: Path, comments: list[str], header: str, rows) -> None:
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# runners: params dict -> (tables, assert-ok, report lines), where each table
# is (file name, comment lines, header, rows); _execute writes them


def _run_tail_sweep(params: dict):
    config = NetworkConfig.from_dict(params["network"])
    seed = params["seed"]
    x = sample_input(config.input_dim, seed)  # checks the seed first
    n, kind = params["samples"], params["kind"]
    check_tail_request(n, params["k_min"], params["k_max"],
                       params["tail_fraction"])
    layers = params["layers"]
    # unit 0 of each layer, as sample_layer_units draws it; each chunk is
    # folded into its layer's estimators as it comes, so no layer's draws
    # are ever held whole
    chunks = sample_chunks(config, x, n, {l: [0] for l in sorted(set(layers))},
                           entropy_prefix(seed, STREAM_UNITS), kind,
                           params["workers"])
    folds = {l: TailFold(n, params["k_min"], params["k_max"],
                         params["tail_fraction"],
                         f"layer={l} kind={kind} unit=0") for l in layers}
    for got in chunks:
        for l, (_, lms) in got.items():
            folds[l].add(lms[:, 0])
    for fold in folds.values():
        fold.finish()
    tables, lines = [], []
    summary_rows, recursion_rows = [], []
    ests = {"moment-slope": {}, "survival-slope": {}}
    for l in layers:
        per_layer = {}
        try:
            curve = folds[l].curve()
            tables.append((f"moments_layer{l}.csv",
                           [f"{curve.source_id}, n_samples = {curve.n_samples}"],
                           "k,log_norm,se,top_share",
                           [(int(k), float(ln), float(se), float(share))
                            for k, ln, se, share
                            in zip(curve.ks, curve.log_norms, curve.ses,
                                   curve.top_shares)]))
            per_layer["moment-slope"] = estimate_theta_moments(curve)
        except ValueError as exc:
            summary_rows.append((l, params["kind"], "moment-slope", None, None,
                                 None, None, _sanitize(exc)))
        try:
            per_layer["survival-slope"] = folds[l].survival()
        except ValueError as exc:
            summary_rows.append((l, params["kind"], "survival-slope", None, None,
                                 None, None, _sanitize(exc)))
        parts = []
        for method, est in per_layer.items():
            ests[method][l] = est
            summary_rows.append((l, params["kind"], method,
                                 est.theta_hat, est.se_theta,
                                 est.diagnostics.get("weighted_rss"),
                                 est.diagnostics.get("n_tail"), ""))
            parts.append(f"{method} {est.theta_hat:.4f} +/- {est.se_theta:.4f}")
        lines.append(f"layer {l} ({params['kind']}): "
                     + ("; ".join(parts) if parts else "no estimate"))

    for prev, nxt in zip(layers, layers[1:]):
        if nxt - prev != 1:
            continue
        for method in ("moment-slope", "survival-slope"):
            if prev not in ests[method] or nxt not in ests[method]:
                continue
            v = recursion_check(ests[method][prev], ests[method][nxt])
            recursion_rows.append((prev, nxt, method,
                                   ests[method][prev].theta_hat,
                                   ests[method][nxt].theta_hat,
                                   v.difference, v.tolerance,
                                   "pass" if v.passes else "fail"))
            lines.append(f"recursion {prev} -> {nxt} ({method}): "
                         f"step {v.difference:+.4f} vs 0.5, "
                         f"tolerance {v.tolerance:.4f}, "
                         f"{'PASS' if v.passes else 'FAIL'}")

    tables.append(("theta_summary.csv",
                   [f"tail estimates, kind = {params['kind']}, "
                    f"n_samples = {params['samples']}",
                    f"moment-slope over k in [{params['k_min']}, {params['k_max']}]; "
                    f"survival-slope on the top {params['tail_fraction']} fraction"],
                   "layer,kind,method,theta_hat,se_theta,weighted_rss,n_tail,"
                   "error", summary_rows))
    tables.append(("recursion.csv",
                   ["theta step between consecutive layers, expected 0.5"],
                   "layer_prev,layer_next,method,theta_prev,theta_next,"
                   "difference,tolerance,verdict", recursion_rows))
    # an estimator error leaves its row without a theta_hat
    ok = (all(row[3] is not None for row in summary_rows)
          and all(row[-1] == "pass" for row in recursion_rows))
    return tables, ok, lines


def _run_survival_curves(params: dict):
    config = NetworkConfig.from_dict(params["network"])
    seed = params["seed"]
    x = sample_input(config.input_dim, seed)
    layers = params["layers"]
    sigma1 = None
    if not params["standardize"]:
        # the sampler's own reduction, so the reference has its exact scale
        q0 = layer1_sq_norm(config, x)
        sigma1 = config.weight_std_for(1) * math.sqrt(q0)
        if not 0.0 < sigma1 < math.inf:
            x_norm = "|(x, 1)|" if config.include_bias else "|x|"
            raise ValueError(
                f"the layer-1 scale weight_std * {x_norm} = {sigma1} is not a "
                f"positive finite double (weight_std = "
                f"{config.weight_std_for(1)}, {x_norm} = {math.sqrt(q0)}); "
                "use --standardize true")
    sets = sample_layer_units(config, x, layers, "pre", params["samples"],
                              seed, workers=params["workers"])
    curves = survival_curves(sets, standardize=params["standardize"],
                             gaussian_sigma=sigma1)
    tables, lines = [], []
    for l in layers:
        rows = zip(curves.grid_log, curves.log_survival[l], curves.counts[l],
                   curves.se_log_survival[l])
        tables.append((f"survival_layer{l}.csv",
                       [f"layer {l} pre, positive half, n_positive = "
                        f"{curves.n_positive[l]}, log_iqr = {curves.log_iqr[l]!r}, "
                        f"standardized = {str(curves.standardized).lower()}"],
                       "log_x,log_survival,count,se_log_survival",
                       [(float(a), float(b), int(c), float(d))
                        for a, b, c, d in rows]))
    if curves.gaussian_log_survival is not None:
        tables.append(("gaussian_reference.csv",
                       ["exact Gaussian log-survival of the positive half on "
                        "the same grid"],
                       "log_x,log_survival",
                       [(float(a), float(b)) for a, b
                        in zip(curves.grid_log, curves.gaussian_log_survival)]))

    ok = True
    order_rows = []
    for a, b, la, lb, good in curves.ordering():
        order_rows.append((a, b, la, lb, "pass" if good else "fail"))
        ok &= good
        lines.append(f"layers {a} vs {b}: log-survival {la:.3f} vs {lb:.3f} "
                     f"at layer {a}'s p99.9 point, "
                     f"{'deeper is heavier' if good else 'ORDER VIOLATED'}")
    tables.append(("ordering.csv",
                   ["consecutive-pair comparison at the shallower layer's "
                    "99.9th percentile grid point; deeper should be heavier"],
                   "shallow_layer,deep_layer,log_survival_shallow,"
                   "log_survival_deep,verdict", order_rows))
    if 1 in layers and curves.gaussian_log_survival is not None:
        zmax, good = curves.gaussian_match(1)
        ok &= good
        lines.append(f"layer 1 vs Gaussian reference: max |z| = {zmax:.2f}, "
                     f"{'matches' if good else 'DOES NOT MATCH'} at the "
                     f"familywise 3-se rate")
    return tables, ok, lines


def _run_covariance(params: dict):
    config = NetworkConfig.from_dict(params["network"])
    seed = params["seed"]
    x = sample_input(config.input_dim, seed)
    powers = [(s, t) for s in (1, 2, 3) for t in (1, 2, 3)]
    res = sweep(config, x, params["layers"], powers, params["samples"], seed,
                workers=params["workers"])
    rows = [(r.layer, r.pair[0], r.pair[1], r.s, r.t, r.estimate, r.se,
             r.verdict, "") for r in res.reports]
    rows += [(l, None, None, s, t, None, None, "error", _sanitize(msg))
             for l, s, t, msg in res.errors]
    table = ("covariance.csv",
             ["Cov[h_m^s, h_m'^t] over weight draws, units (0, 1), "
              f"n_samples = {params['samples']} per cell",
              "verdicts at 3 batch-mean standard errors"],
             "layer,unit_a,unit_b,s,t,estimate,se,verdict,message", rows)
    counts = res.summary()
    lines = ["covariance cells: "
             + ", ".join(f"{k} = {v}" for k, v in sorted(counts.items()))]
    for r in res.violations():
        lines.append(f"VIOLATION layer {r.layer} (s, t) = ({r.s}, {r.t}): "
                     f"estimate {r.estimate:.4g}, se {r.se:.4g}")
    ok = not res.violations() and not res.errors
    return [table], ok, lines


def _run_envelope(params: dict):
    rows, lines = [], []
    for text in params["families"]:
        wit = search_envelope_constants(NonlinearitySpec.parse(text))
        rows.append((text, wit.verdict, wit.side, wit.c1, wit.d1, wit.c2,
                     wit.d2))
        if wit.verdict == "holds":
            lines.append(f"{text}: holds on the {wit.side} "
                         f"(d1 = {wit.d1:.6g}, d2 = {wit.d2:.6g})")
        else:
            lines.append(f"{text}: {wit.verdict}")
    table = ("envelope.csv",
             ["linear envelope verdicts read from the activation table, "
              "exact at every real u"],
             "nonlinearity,verdict,side,c1,d1,c2,d2", rows)
    return [table], True, lines


def _run_contours(params: dict):
    tables, lines = [], []
    for q in params["qs"]:
        cs = contour(q, 1.0)
        tables.append((f"contour_q{q:g}.csv", [f"q = {cs.q!r}, t = {cs.t!r}"],
                       "phi,x,y",
                       [(float(phi), float(x), float(y))
                        for phi, (x, y) in zip(cs.phis, cs.points)]))
        lines.append(f"q = {q:g}: {len(cs.phis)} points, "
                     f"max relative error {cs.max_relative_error():.2e}")
    return tables, True, lines


def _run_oracle_check(params: dict):
    if params["k_max"] < 1:
        raise ValueError(f"need k_max >= 1, got {params['k_max']}")
    vals = synthetic_values("gaussian", params["samples"], params["seed"],
                            sigma=1.0)
    rows = []
    for k in range(1, params["k_max"] + 1):
        ln, se = empirical_log_norm(vals, k)
        exact = math.log(gaussian_norm_oracle(1.0, k))
        rows.append((k, ln, exact, abs(math.expm1(ln - exact)), se))
    worst = max(row[3] for row in rows)
    table = ("oracle.csv",
             [f"empirical log-norms of N(0,1), n = {params['samples']}, "
              "vs the exact Gaussian k-norm"],
             "k,log_norm_hat,log_norm_exact,relative_error,se_log_norm", rows)
    lines = [f"max relative norm error over k <= {params['k_max']}: {worst:.4%}"]
    return [table], worst <= 0.02, lines


# subcommand -> (runner, {parameter: JSON type, as errors.is_json_type reads it})
_COMMON = {"seed": int, "workers": int}
_NETWORK = {**_COMMON, "network": dict, "layers": [int], "samples": int}
_COMMANDS = {
    "tail-sweep": (_run_tail_sweep, {**_NETWORK, "kind": str, "k_min": int,
                                     "k_max": int, "tail_fraction": float}),
    "survival-curves": (_run_survival_curves,
                        {**_NETWORK, "standardize": bool}),
    "covariance": (_run_covariance, _NETWORK),
    "envelope": (_run_envelope, {**_COMMON, "families": [str]}),
    "contours": (_run_contours, {**_COMMON, "qs": [float]}),
    "oracle-check": (_run_oracle_check, {**_COMMON, "samples": int,
                                         "k_max": int}),
}


# ---------------------------------------------------------------------------
# argument parsing


def _layers_arg(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _bool_arg(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads, at most one per core (results are "
                        "worker-count invariant)")
    p.add_argument("--assert", dest="assert_mode", action="store_true",
                   help="exit 1 when any verdict fails or a cell errors")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layertails",
        description="Tail behaviour of wide networks under Gaussian weight "
                    "priors: simulation, estimation, and geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    ts = sub.add_parser("tail-sweep",
                        help="moment curves and tail estimates per layer")
    ts.add_argument("--config", required=True, help="network config file")
    ts.add_argument("--layers", type=_layers_arg, default=None,
                    help="comma-separated 1-based layers (default: all)")
    ts.add_argument("--kind", choices=("pre", "post"), default="pre",
                    help="sample units before or after the nonlinearity")
    ts.add_argument("--samples", type=int, default=1_000_000)
    ts.add_argument("--k-min", type=int, default=2)
    ts.add_argument("--k-max", type=int, default=10)
    ts.add_argument("--tail-fraction", type=float, default=0.1)
    _add_common(ts)

    sc = sub.add_parser("survival-curves",
                        help="log-survival of pre-nonlinearity units per layer")
    sc.add_argument("--config", required=True)
    sc.add_argument("--layers", type=_layers_arg, default=None)
    sc.add_argument("--samples", type=int, default=100_000)
    sc.add_argument("--standardize", type=_bool_arg, default=True,
                    metavar="BOOL",
                    help="divide each layer by its interquartile range "
                         "(default true)")
    _add_common(sc)

    cv = sub.add_parser("covariance",
                        help="covariance sign verdicts over layers x powers")
    cv.add_argument("--config", required=True)
    cv.add_argument("--layers", type=_layers_arg, default=None)
    cv.add_argument("--samples", type=int, default=100_000,
                    help="weight draws per (layer, s, t) cell")
    _add_common(cv)

    en = sub.add_parser("envelope", help="linear envelope verdicts")
    en.add_argument("families", nargs="*", default=list(DEFAULT_FAMILIES),
                    help="nonlinearity specs, e.g. relu prelu(0.3) tanh")
    _add_common(en)

    co = sub.add_parser("contours", help="L^q ball contour data")
    co.add_argument("qs", nargs="*", type=float, default=list(DEFAULT_QS),
                    help="contour exponents (default: 2 1 2/3 0.2)")
    _add_common(co)

    oc = sub.add_parser("oracle-check",
                        help="moment estimator vs exact Gaussian norms")
    oc.add_argument("--samples", type=int, default=1_000_000)
    oc.add_argument("--k-max", type=int, default=8)
    _add_common(oc)

    rr = sub.add_parser("rerun",
                        help="replay a manifest, verify byte-identical files")
    rr.add_argument("manifest", help="path to a manifest.json")
    rr.add_argument("--out", default=None,
                    help="directory for the replayed outputs "
                         "(default: <manifest dir>/rerun)")
    rr.add_argument("--workers", type=int, default=None,
                    help="override the recorded worker count")
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    names = _COMMANDS[args.command][1]
    if "network" in names:
        config = parse_config_file(args.config)
        args.network = config.to_dict()
        # all layers when --layers is omitted; run_sampler rejects an
        # empty list and a layer out of range
        every = range(1, config.depth + 1)
        args.layers = sorted(set(every if args.layers is None else args.layers))
    return {name: getattr(args, name) for name in names}


def _execute(command: str, params: dict, out_dir: Path) -> tuple[RunManifest, bool, list[str]]:
    t0 = time.monotonic()
    tables, ok, lines = _COMMANDS[command][0](params)
    names = [table[0] for table in tables]
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"output file name repeated: {', '.join(repeated)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, comments, header, rows in tables:
        _write_rows(out_dir / name, comments, header, rows)
    man = build_manifest(command, params, params["seed"],
                         {n: out_dir / n for n in names}, time.monotonic() - t0)
    man.write(out_dir / "manifest.json")
    return man, ok, lines


def _cmd_rerun(args: argparse.Namespace) -> int:
    src = Path(args.manifest)
    old = RunManifest.load(src)
    if old.command not in _COMMANDS:
        raise ConfigFileError(f"manifest names unknown command {old.command!r}")
    types = _COMMANDS[old.command][1]
    params = dict(old.params)
    missing = ", ".join(repr(k) for k in types if k not in params)
    if missing:
        raise ConfigFileError(f"manifest params lack {missing}")
    bad = [k for k, t in types.items() if not is_json_type(params[k], t)]
    if bad:
        raise ConfigFileError(f"manifest params of the wrong type: {bad}")
    if args.workers is not None:
        params["workers"] = args.workers
    out_dir = Path(args.out) if args.out else src.parent / "rerun"
    new, _, _ = _execute(old.command, params, out_dir)
    mismatched = []
    for name in sorted(set(old.files) | set(new.files)):
        want = old.files.get(name)
        have = new.files.get(name)
        if want == have:
            status = "match"
        else:
            status = "MISMATCH" if want and have else "MISSING"
            mismatched.append(name)
        print(f"{name}: {status}")
    if mismatched:
        if old.sampler != new.sampler:
            print(f"sampler version differs (manifest {old.sampler}, "
                  f"this build {new.sampler})")
        if old.format != new.format:
            print(f"output format differs (manifest {old.format}, "
                  f"this build {new.format})")
        for key, what in (("numpy", "numpy version"),
                          ("numpy_dispatch", "numpy dispatch")):
            then = old.versions.get(key)
            if then is not None and then != new.versions[key]:
                print(f"{what} differs (manifest {then}, "
                      f"this build {new.versions[key]})")
        print(f"rerun of {old.command}: {len(mismatched)} file(s) differ")
        return 1
    print(f"rerun of {old.command}: all {len(old.files)} file(s) byte-identical")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers is not None and args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        if args.command == "rerun":
            return _cmd_rerun(args)
        params = _params_from_args(args)
        man, ok, lines = _execute(args.command, params, Path(args.out))
        for line in lines:
            print(line)
        print(f"wrote {len(man.files)} file(s) + manifest.json to {args.out} "
              f"in {man.duration_s:.1f}s")
        if args.assert_mode and not ok:
            print("assert: FAILED", file=sys.stderr)
            return 1
        return 0
    except (ValueError, OSError) as exc:
        # ConfigFileError is a ValueError; bad CLI values land here too.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
