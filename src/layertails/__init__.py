"""Tail behaviour of wide feedforward networks under Gaussian weight
priors: prior simulation, tail-parameter estimation, covariance sign
checks, pooling invariance, and contours of the L^(2/l) penalty balls
the priors induce.
"""

from .conv_pooling import (PoolCheck, PoolingSpec, pool_signed_log,
                           pooled_tail_check)
from .covariance_verifier import (CovarianceReport, SweepResult,
                                  estimate_unit_covariance, sweep)
from .errors import (ConfigFileError, DegenerateDistributionError,
                     MomentOverflowError)
from .manifest import RunManifest, build_manifest, sha256_file
from .network_model import (NetworkConfig, UnitSampleSet, parse_config_file,
                            sample_input, sample_joint_units,
                            sample_layer_units)
from .nonlinearity import (EnvelopeWitness, NonlinearitySpec, apply,
                           apply_signed_log, search_envelope_constants)
from .penalty_geometry import ContourSet, contour, equal_coordinate
from .tail_analysis import (MomentCurve, RecursionVerdict, SurvivalCurves,
                            TailEstimate, empirical_log_norm,
                            estimate_theta_moments, estimate_theta_survival,
                            gaussian_norm_oracle, moment_curve,
                            recursion_check, relu_norm_oracle,
                            survival_curves, synthetic_values)

__version__ = "0.1.0"

__all__ = [
    "ConfigFileError", "ContourSet", "CovarianceReport",
    "DegenerateDistributionError", "EnvelopeWitness",
    "MomentCurve", "MomentOverflowError", "NetworkConfig", "NonlinearitySpec",
    "PoolCheck", "PoolingSpec", "RecursionVerdict", "RunManifest",
    "SurvivalCurves", "SweepResult", "TailEstimate",
    "UnitSampleSet", "apply", "apply_signed_log",
    "build_manifest", "contour", "empirical_log_norm",
    "equal_coordinate", "estimate_theta_moments", "estimate_theta_survival",
    "estimate_unit_covariance", "gaussian_norm_oracle",
    "moment_curve", "parse_config_file",
    "pool_signed_log", "pooled_tail_check", "recursion_check",
    "relu_norm_oracle",
    "sample_input", "sample_joint_units", "sample_layer_units",
    "search_envelope_constants",
    "sha256_file", "survival_curves", "sweep", "synthetic_values",
]
