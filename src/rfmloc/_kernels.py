"""The batch dissimilarity kernel.

``ref`` is the reference value matrix (n_points, n_features) with NaN
marking absent features, ``obs`` the observation vector aligned to the
same feature order (NaN absent), ``weights`` the per-feature weight
vector with the minimum weight already substituted for features the
weighting could not cover, and ``base`` a constant added to every row
(the contribution of observed features outside the map's feature
universe).
"""

from __future__ import annotations

import numpy as np

# rfmbench stamps this into its records and compares only records that agree on it
BACKEND = "numpy"


def _minkowski(diff: np.ndarray, p: float) -> np.ndarray:
    if p == 2.0:
        return diff * diff
    if p == 1.0:
        return np.abs(diff)
    return np.abs(diff) ** p


def cdm_batch(ref: np.ndarray, obs: np.ndarray, weights: np.ndarray,
              alpha1: float, alpha2: float, missing_value: float,
              p: float, base: float) -> np.ndarray:
    """Weighted compound dissimilarity of one observation against every row."""
    ref_present = np.isfinite(ref)
    obs_present = np.isfinite(obs)
    shared = ref_present & obs_present
    obs_only = ~ref_present & obs_present
    ref_only = ref_present & ~obs_present

    shared_diff = np.where(shared, obs - ref, 0.0)
    obs_diff = np.where(obs_only, obs - missing_value, 0.0)
    ref_diff = np.where(ref_only, missing_value - ref, 0.0)

    out = (weights * _minkowski(shared_diff, p)).sum(axis=1)
    out += alpha1 * (weights * _minkowski(obs_diff, p)).sum(axis=1)
    out += alpha2 * (weights * _minkowski(ref_diff, p)).sum(axis=1)
    out += base
    return out
