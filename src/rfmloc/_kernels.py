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

``cdm_terms`` computes the weight-free cells, scale times Minkowski
term, once per observation; ``cdm_reduce`` applies one weight vector to
them as a matrix-vector product. The iterative search changes only the
weights, so it reduces the same cells once per iteration.

``cdm_terms`` takes ``out``: two C-ordered float arrays shaped like
``ref`` to compute in, the first of which it returns, so a caller that
keeps them allocates no array of that size per call. Allocated and freed
once per search, arrays that large were handed back to the operating
system and page-faulted in again each time, most of all on worker
threads.
"""

from __future__ import annotations

import numpy as np

from rfmloc.dissim import feature_distance

# rfmbench stamps this into its records and compares only records that agree on it
BACKEND = "numpy"


def cdm_terms(ref: np.ndarray, obs: np.ndarray, alpha1: float, alpha2: float,
              missing_value: float, p: float,
              out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Per-cell scale (1, ``alpha1`` or ``alpha2``) times |obs - ref| ** p,
    shaped like ``ref``; computed in the pair ``out`` when given and
    returned in its first array."""
    ref_present = np.isfinite(ref)
    obs_present = np.isfinite(obs)
    scale, terms = (np.empty(ref.shape), np.empty(ref.shape)) if out is None else out
    # putmask repeats a short value array over the cells in row-major order:
    # one value per column
    scale[...] = alpha1
    np.putmask(scale, ref_present, np.where(obs_present, 1.0, alpha2))
    terms[...] = missing_value
    np.putmask(terms, ref_present, ref)
    feature_distance(np.where(obs_present, obs, missing_value), terms, p, out=terms)
    return np.multiply(scale, terms, out=scale)


def cdm_reduce(cells: np.ndarray, weights: np.ndarray, base: float) -> np.ndarray:
    """Weighted row sums of ``cdm_terms``' cells, plus ``base``."""
    return cells @ weights + base


def cdm_batch(ref: np.ndarray, obs: np.ndarray, weights: np.ndarray,
              alpha1: float, alpha2: float, missing_value: float,
              p: float, base: float,
              out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Weighted compound dissimilarity of one observation against every row;
    ``out`` holds ``cdm_terms``' two work arrays."""
    return cdm_reduce(cdm_terms(ref, obs, alpha1, alpha2, missing_value, p, out),
                      weights, base)
