"""Variability-aware fingerprint maps and iterative weighted positioning."""

from rfmloc.builder import BuilderConfig, Neighborhood, build, estimate_std, kernel_smooth, neighborhood, spatial_median_filter
from rfmloc.dissim import WeightVector, feature_distance, mji, softmax_weights, weighted_cdm
from rfmloc.evaluate import circular_error, compare_report, ecdf, loop_diameters, opt_errors, radial_errors, tf_stats
from rfmloc.model import (ExtendedRfm, FeatureId, Fingerprint, Location,
                          PositionEstimate, PositioningConfig, RawRfm, Rect,
                          RfmEntry, Termination)
from rfmloc.positioner import (detect_termination, iterate_locate, knn_locate,
                               locate_batch, mcd_center, resolve_state)
from rfmloc.synth import (AccessPoint, SurveyPlan, SyntheticEnvironment,
                          expected_rss, generate_dataset, make_environment,
                          sample_fingerprint)

__version__ = "0.1.0"

__all__ = [
    "AccessPoint", "BuilderConfig", "ExtendedRfm", "FeatureId", "Fingerprint",
    "Location", "Neighborhood", "PositionEstimate", "PositioningConfig",
    "RawRfm", "Rect", "RfmEntry", "SurveyPlan", "SyntheticEnvironment",
    "Termination", "WeightVector", "build", "circular_error",
    "compare_report", "detect_termination", "ecdf", "estimate_std",
    "expected_rss", "feature_distance", "generate_dataset",
    "iterate_locate", "kernel_smooth", "knn_locate", "locate_batch",
    "loop_diameters", "make_environment", "mcd_center", "mji", "neighborhood",
    "opt_errors", "radial_errors", "resolve_state",
    "sample_fingerprint", "softmax_weights", "spatial_median_filter",
    "tf_stats", "weighted_cdm",
]
