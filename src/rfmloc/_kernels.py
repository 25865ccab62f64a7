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

``cdm_cells`` compares one observation with ``ref`` itself: one subtract
and power over the map, NaN in its absent cells, and a scale of the
columns the observation lacks by ``alpha2``. The only fact about the map
it needs beyond the values is where they are absent, given as the flat
indices of those cells and their columns, which a map computes once. An
absent cell compares ``missing_value`` with the observation's value in
its column, so it takes ``alpha1`` times that column's term, written in
by flat index. ``cdm_reduce`` applies one weight vector to the cells as a
matrix-vector product. The iterative search changes only the weights, so
it reduces the same cells once per iteration.
"""

from __future__ import annotations

import numpy as np

from rfmloc.dissim import feature_distance

# rfmbench stamps this into its records and compares only records that agree on it
BACKEND = "numpy"


def cdm_cells(ref: np.ndarray, absent: np.ndarray, columns: np.ndarray, obs: np.ndarray,
              alpha1: float, alpha2: float, missing_value: float, p: float) -> np.ndarray:
    """Per-cell scale times |obs - ref| ** p, with absent values read as
    ``missing_value``, in a new array shaped like the map. ``ref`` is
    C-ordered, as a map's layers are; ``absent`` holds the flat indices of
    its NaN cells and ``columns`` their columns."""
    obs_present = np.isfinite(obs)
    filled = np.where(obs_present, obs, missing_value)
    cells = feature_distance(filled, ref, p)
    if not obs_present.all():
        np.multiply(cells, np.where(obs_present, 1.0, alpha2), out=cells)
    # an unobserved column compares missing_value with itself: 0 under any scale;
    # cells is a new array laid out as ref, so reshape is a view of it
    cells.reshape(-1)[absent] = (alpha1 * feature_distance(filled, missing_value, p))[columns]
    return cells


def cdm_reduce(cells: np.ndarray, weights: np.ndarray, base: float) -> np.ndarray:
    """Weighted row sums of ``cdm_cells``' cells, plus ``base``."""
    return cells @ weights + base


def cdm_batch(ref: np.ndarray, obs: np.ndarray, weights: np.ndarray,
              alpha1: float, alpha2: float, missing_value: float,
              p: float, base: float) -> np.ndarray:
    """Weighted compound dissimilarity of one observation against every row."""
    ref = np.ascontiguousarray(ref)
    absent = np.flatnonzero(~np.isfinite(ref))
    cells = cdm_cells(ref, absent, absent % ref.shape[1], obs, alpha1, alpha2,
                      missing_value, p)
    return cdm_reduce(cells, weights, base)
