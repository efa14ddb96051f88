"""Workload definitions: the INI configs, argv and sizes each workload runs.

Everything here is derived from the benchmark seed alone, so the same seed
gives the same inputs. The program only ever sees the generated INI file,
the argv list and (for pooling) the parsed config and input vector.

This module imports nothing beyond the standard library: the parent
process uses it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

RELU_NET = {"input_dim": 100, "layer_widths": (100, 100, 100),
            "nonlinearity": "relu"}
ELU_NET = {"input_dim": 100, "layer_widths": (100,) * 10,
           "nonlinearity": "elu(1.0)"}

# Sizes. relu_sweep's statistical checks (layer-1 slope window, estimator
# agreement) sit 3.7 standard deviations or more inside their limits at
# 5e5 draws; covariance runs at the verifier's minimum of 1e4 per cell;
# pooling at 1e5 keeps every |diff| under 0.65 of its budget in probes.
TAIL_SWEEP_SAMPLES = 500_000
COVARIANCE_SAMPLES = 10_000
POOLING_SAMPLES = 100_000
POOLING_LAYER = 2
POOLING_REGION = (0, 1, 2, 3)
SURVIVAL_SAMPLES = 50_000
SURVIVAL_LAYERS = (1, 2, 3, 10)
COVARIANCE_POWERS = 9  # (s, t) in {1, 2, 3}^2, fixed by the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    net: dict
    cli_command: str
    workers: int
    replay_workers: int
    delivered_draws: int  # requested samples of a layer or of a cell

    def ini_text(self, seed: int) -> str:
        net = self.net
        return ("[network]\n"
                f"input_dim = {net['input_dim']}\n"
                f"layer_widths = {','.join(str(w) for w in net['layer_widths'])}\n"
                f"nonlinearity = {net['nonlinearity']}\n"
                "weight_std = 1.0\n"
                "include_bias = false\n"
                f"seed = {seed}\n")

    def cli_argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        common = ["--config", config_path, "--seed", str(seed),
                  "--workers", str(self.workers), "--out", out_dir]
        if self.name == "relu_sweep":
            return ["tail-sweep", "--layers", "1,2,3", "--kind", "pre",
                    "--samples", str(TAIL_SWEEP_SAMPLES)] + common
        if self.name == "joint_verify":
            return ["covariance", "--layers", "1,2,3",
                    "--samples", str(COVARIANCE_SAMPLES)] + common
        return ["survival-curves",
                "--layers", ",".join(str(l) for l in SURVIVAL_LAYERS),
                "--samples", str(SURVIVAL_SAMPLES), "--assert"] + common


WORKLOADS = {w.name: w for w in (
    Workload("relu_sweep", RELU_NET, "tail-sweep", workers=1, replay_workers=2,
             delivered_draws=TAIL_SWEEP_SAMPLES * 3),
    Workload("joint_verify", RELU_NET, "covariance", workers=1,
             replay_workers=2,
             delivered_draws=(COVARIANCE_SAMPLES * 3 * COVARIANCE_POWERS
                              + POOLING_SAMPLES * 2)),
    Workload("elu_survival", ELU_NET, "survival-curves", workers=2,
             replay_workers=1,
             delivered_draws=SURVIVAL_SAMPLES * len(SURVIVAL_LAYERS)),
)}

