"""Tail behaviour of wide feedforward networks under Gaussian weight
priors: prior simulation, tail-parameter estimation, covariance sign
checks, pooling invariance, and the induced penalty geometry.
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
                            sample_layer_units, write_config_file)
from .nonlinearity import (SEARCH_GRID, EnvelopeGrid, EnvelopeWitness,
                           NonlinearitySpec, apply, apply_signed_log,
                           is_positively_homogeneous,
                           search_envelope_constants, verify_envelope)
from .penalty_geometry import (ContourSet, PenaltyBreakdown, contour,
                               equal_coordinate, lq_penalty, unit_penalty,
                               weight_decay)
from .tail_analysis import (MomentCurve, RecursionVerdict, SurvivalCurves,
                            TailEstimate, empirical_log_norm,
                            estimate_theta_moments, estimate_theta_survival,
                            gaussian_norm_oracle, ks_gaussian_test,
                            moment_curve, recursion_check, relu_norm_oracle,
                            survival_curves, synthetic_values)

__version__ = "0.1.0"

__all__ = [
    "ConfigFileError", "ContourSet", "CovarianceReport",
    "DegenerateDistributionError", "EnvelopeGrid", "EnvelopeWitness",
    "MomentCurve", "MomentOverflowError", "NetworkConfig", "NonlinearitySpec",
    "PoolCheck", "PoolingSpec", "PenaltyBreakdown", "RecursionVerdict",
    "RunManifest",
    "SEARCH_GRID", "SurvivalCurves", "SweepResult", "TailEstimate",
    "UnitSampleSet", "apply", "apply_signed_log",
    "build_manifest", "contour", "empirical_log_norm",
    "equal_coordinate", "estimate_theta_moments", "estimate_theta_survival",
    "estimate_unit_covariance", "gaussian_norm_oracle",
    "is_positively_homogeneous", "ks_gaussian_test",
    "lq_penalty", "moment_curve", "parse_config_file",
    "pool_signed_log", "pooled_tail_check", "recursion_check",
    "relu_norm_oracle",
    "sample_input", "sample_joint_units", "sample_layer_units",
    "search_envelope_constants",
    "sha256_file", "survival_curves", "sweep", "synthetic_values",
    "unit_penalty", "verify_envelope", "weight_decay", "write_config_file",
]
