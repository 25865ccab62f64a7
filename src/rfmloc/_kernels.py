"""The batch dissimilarity kernel: weight-free cells, then one product.

``ref`` is the reference value matrix (n_points, n_features) with NaN
marking absent features, ``obs`` the observation vector aligned to the
same feature order (NaN absent), ``weights`` the per-feature weight
vector with the minimum weight already substituted for features the
weighting could not cover, and ``base`` a constant added to every row
(the contribution of observed features outside the map's feature
universe).

Unshared features are scored by substitution: an absent value reads as
``missing_value``, and the term is scaled by ``alpha2`` where only the
reference has the feature and by ``alpha1`` otherwise. A cell absent on
both sides then compares ``missing_value`` with itself and adds 0.

The cells depend on the observation in only one way: whether and what
each feature was observed. ``cdm_constants`` computes the rest once per
map and scale setting: the reference layer with absent cells read as
``missing_value``, and the scale of each cell for an observed column. An
unobserved column differs only where the reference has the feature,
which scales by ``alpha2`` instead of 1; its other cells are 0 under any
scale. ``cdm_cells`` then compares one observation with them in a single
subtract, power and scale, and scales its unobserved columns by
``alpha2``. ``cdm_reduce`` applies one weight vector to the cells as a
matrix-vector product. The iterative search changes only the weights,
so it reduces the same cells once per iteration.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from rfmloc.dissim import feature_distance

# rfmbench stamps this into its records and compares only records that agree on it
BACKEND = "numpy"


class CdmConstants(NamedTuple):
    """The observation-independent parts of the kernel for one scale setting."""

    filled: np.ndarray  # the reference values, ``missing_value`` where absent
    observed: np.ndarray  # the scale of a cell whose column the observation has
    alpha2: float  # the further scale of the columns it lacks


def cdm_constants(ref: np.ndarray, alpha1: float, alpha2: float,
                  missing_value: float) -> CdmConstants:
    """The kernel's constants for one scale setting: ``ref`` with its NaN
    cells read as ``missing_value``, the observed-column scale (``alpha1``
    where ``ref`` lacks the feature, 1 where it has it), and ``alpha2``."""
    present = np.isfinite(ref)
    return CdmConstants(np.where(present, ref, missing_value),
                        np.where(present, 1.0, alpha1), alpha2)


def cdm_cells(constants: CdmConstants, obs: np.ndarray, missing_value: float,
              p: float) -> np.ndarray:
    """Per-cell scale times |obs - ref| ** p, with absent values read as
    ``missing_value``, in a new array shaped like the map."""
    obs_present = np.isfinite(obs)
    cells = feature_distance(np.where(obs_present, obs, missing_value), constants.filled, p)
    np.multiply(cells, constants.observed, out=cells)
    if not obs_present.all():
        # (t * 1) * alpha2 rounds as t * alpha2; a cell absent on both sides stays 0
        np.multiply(cells, np.where(obs_present, 1.0, constants.alpha2), out=cells)
    return cells


def cdm_reduce(cells: np.ndarray, weights: np.ndarray, base: float) -> np.ndarray:
    """Weighted row sums of ``cdm_cells``' cells, plus ``base``."""
    return cells @ weights + base


def cdm_batch(ref: np.ndarray, obs: np.ndarray, weights: np.ndarray,
              alpha1: float, alpha2: float, missing_value: float,
              p: float, base: float) -> np.ndarray:
    """Weighted compound dissimilarity of one observation against every row."""
    constants = cdm_constants(ref, alpha1, alpha2, missing_value)
    return cdm_reduce(cdm_cells(constants, obs, missing_value, p), weights, base)
