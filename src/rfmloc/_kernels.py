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

At p = 2 the cells need not be formed at all. With ``c`` a constant per
column, ``P`` the presence mask and ``R = P * (ref - c)`` (0 where
absent), an observation ``f`` (``missing_value`` where unmeasured, less
``c``: ``o``), its column scale ``s`` (1 where observed, else ``alpha2``)
and its absent-cell term ``a = alpha1 * (f - missing_value) ** 2`` give,
under weights ``w`` and with ``u = w * s``,

    d = P @ (u * o**2 - w * a) - 2 * R @ (u * o) + (R * R) @ u + w . a + base,

since a present cell is ``s * (o - R) ** 2`` and an absent one ``a``.
``expansion`` builds the map's side ``[P | R | R * R]`` once, and
``expanded_cdm`` scores a block of observations against it with one
matrix product, called in slices of the map's rows.

A lookup ranks by k passes of argmin, so ties go to the lower index:
``ranked`` ranks one search's values, and ``ranked_block`` a block's
from ``expanded_cdm``, certified to rank as each search's own values.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from rfmloc.dissim import feature_distance

# rfmbench stamps this into its records and compares only records that agree on it
BACKEND = "numpy"
# multiply-adds in one product call of expanded_cdm: OpenBLAS runs a call of
# at most 2**18 on the calling thread, while a threaded call leaves its
# workers spinning for about 0.1 s after the last one, a core taken from
# whatever the caller runs next
_BLAS_CALL = 1 << 18
_UNIT_ROUNDOFF = 2.0 ** -53
# at least the absolute error an underflowing product can make, 2**-1075
_UNDERFLOW = 2.0 ** -1022


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


class Expansion(NamedTuple):
    """The map's side of the p = 2 expansion."""

    layers: np.ndarray  # [P | R | R * R], n_points x 3 n_features
    center: np.ndarray  # c, the midrange of each column's present values (0 if none)
    spread: np.ndarray  # the largest R * R of each column
    reach: float  # the largest |R|


def expansion(ref: np.ndarray) -> Expansion:
    """The expansion layers of the value layer ``ref`` (NaN absent). A
    value too large for the expansion leaves a non-finite ``spread``."""
    present = np.isfinite(ref)
    lo = np.fmin.reduce(ref, axis=0)  # NaN only for a column with no value
    center = np.where(present.any(axis=0), lo / 2 + np.fmax.reduce(ref, axis=0) / 2, 0.0)
    centered = np.where(present, ref - center, 0.0)
    squared = centered * centered
    layers = np.concatenate([present.astype(float), centered, squared], axis=1)
    return Expansion(layers, center, squared.max(axis=0, initial=0.0),
                     float(np.abs(centered).max(initial=0.0)))


def expanded_cdm(exp: Expansion, obs: np.ndarray, weights: np.ndarray, alpha1: float,
                 alpha2: float, missing_value: float, base: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p = 2 dissimilarities of a block of observations (the rows of
    ``obs``, NaN unmeasured) under their own weight rows (each weight at
    most 1) and constants, one row of values per observation; and per
    observation its magnitude ``M`` and its reach, the largest of its |o|
    and the map's |R|.

    ``M`` is a sum over columns that bounds, in every row of the map, the
    sum of the absolute values of the terms of both this computation and
    :func:`cdm_reduce` over :func:`cdm_cells`. A present cell's terms sum
    in magnitude to at most ``u (|o| + |R|)**2 + w a <= 2 u (o**2 + R**2)
    + w a``, its weighted cell is ``u (o - R)**2`` under the same bound,
    and ``R**2`` is at most its column's ``spread``; an absent cell is
    ``w a``. So ``M = sum(2 u (o**2 + spread) + 2 w a) + base`` holds for
    every row: every term is non-negative but the cross term, whose
    magnitude is counted.

    ``M`` is inf where a cell could overflow before it is weighted, which
    ``M`` does not see where weights or scales are small: the
    same argument bounds each unweighted cell, its square and each
    factor of the expansion by ``max(1, s) 2 (o**2 + spread)`` or
    ``max(1, alpha1) (f - missing_value)**2``, and their sum must be finite.
    """
    present = np.isfinite(obs)
    filled = np.where(present, obs, missing_value)
    scaled = weights * np.where(present, 1.0, alpha2)
    to_missing = feature_distance(filled, missing_value, 2.0)
    absent = weights * (alpha1 * to_missing)
    o = filled - exp.center
    oo = o * o
    x = np.concatenate([scaled * oo - absent, -2.0 * (scaled * o), scaled], axis=1)
    values = np.empty((len(x), len(exp.layers)))
    rows = max(1, _BLAS_CALL // max(1, x.size))
    for i in range(0, len(exp.layers), rows):
        np.matmul(x, exp.layers[i:i + rows].T, out=values[:, i:i + rows])
    values += (absent.sum(axis=1) + base)[:, None]
    magnitude = 2.0 * (scaled * (oo + exp.spread) + absent).sum(axis=1) + base
    cells = (2.0 * np.where(present, 1.0, max(1.0, alpha2)) * (oo + exp.spread)
             + max(1.0, alpha1) * to_missing).sum(axis=1)
    magnitude[~np.isfinite(2.0 * cells)] = np.inf
    return values, magnitude, np.maximum(np.abs(o).max(axis=1, initial=0.0), exp.reach)


def ranked(d: np.ndarray, k: int) -> list[int]:
    """The indices of the k smallest values of ``d`` (all, for k beyond its
    size) in rank order: exactly ``np.argsort(d, kind="stable")[:k]`` if
    they are finite, else ``OverflowError``. Each of the k argmin passes
    first writes +inf over the value the last one took, so ``d`` is spent.
    ``d`` holds no NaN: see the ``positioner`` module docstring."""
    best = [d.argmin()]
    for _ in range(min(k, d.size) - 1):
        d[best[-1]] = np.inf
        best.append(d.argmin())
    if not math.isfinite(d[best[-1]]):
        raise OverflowError("a dissimilarity overflows: one of the k smallest is not finite")
    return best


def _k_smallest(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ranked`'s passes over each row of ``values`` (searches x
    points) at once, without its check: the indices of each row's k
    smallest values in rank order, and those values. ``values`` is spent."""
    k = min(k, values.shape[1])
    top = np.empty((len(values), k), dtype=np.intp)
    ranks = np.empty((len(values), k))
    every = np.arange(len(values))
    for t in range(k):  # no n x B index array
        top[:, t] = values.argmin(axis=1)
        ranks[:, t] = values[every, top[:, t]]
        values[every, top[:, t]] = np.inf
    return top, ranks


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the relative error bound of n roundings."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _certified_rows(values: np.ndarray, magnitude: np.ndarray, reach: np.ndarray,
                    n_features: int, k: int, alpha1: float, alpha2: float
                    ) -> list[np.ndarray | None]:
    """For each row of :func:`expanded_cdm`'s values, the rows that
    :func:`ranked` returns for the same lookup through the search's own
    cells (:func:`cdm_cells` and :func:`cdm_reduce`), or None where the
    values cannot tell.

    Both computations approximate the same exact sum of terms, and each
    term of either is a product of computed factors, each a few roundings
    off its exact value, summed in some order. By the inner-product bound
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, section 3.1), which holds for any summation order and so for
    any BLAS thread count, the expanded value is within gamma(3F + 7) M of
    the exact one: up to 6 roundings form a term's factors (the layers,
    ``o``, ``u`` and the block's columns), 3F go to the product and 1 to
    adding the block's constant, itself formed by a sum over F. The
    cells' value is within gamma(F + 5) M: 4 roundings form a cell, F go to the
    matrix-vector product and 1 to adding ``base``. M is the kernel's
    ``magnitude``. An underflowing product adds at most ``_UNDERFLOW``,
    later multiplied by at most three factors no larger than
    max(2, alpha1, alpha2, ``reach``); a row forms at most 15F + 8
    products. So the two values of a row lie within ``err`` of each other,
    and ``err`` is doubled here, which covers the roundings of M, of
    ``err`` and of the gaps below.

    The certificate: rank the k + 1 smallest expanded values. If each
    consecutive gap exceeds 2 ``err``, the cells' values rank the same k rows
    in the same order, strictly, and every other row above them, so the
    ties by index of :func:`ranked` never come into play; rows tied in
    the exact values are never certified.

    Overflow: M bounds every weighted cell, every term, every partial sum
    and every value of both computations within a factor of 1 + gamma,
    and the kernel makes M inf where an unweighted cell could overflow.
    So when 2M is finite nothing overflows, and at a search's first
    lookup, whose weights are 1, every value of its own is finite. Within a
    column the largest cell lies at the smallest or largest map value,
    which is what the column's ``spread`` records: the check reads F
    column extremes instead of n x F cells. A search whose 2M is not
    finite is not certified, and its own cells are checked in full.
    ``values`` is spent.
    """
    top, ranks = _k_smallest(values, k + 1)
    lever = np.maximum(reach, max(2.0, alpha1, alpha2))
    err = 2.0 * ((_gamma(3 * n_features + 7) + _gamma(n_features + 5)) * magnitude
                 + (15 * n_features + 8) * lever ** 3 * _UNDERFLOW)
    apart = (np.diff(ranks, axis=1) > 2.0 * err[:, None]).all(axis=1)
    sure = np.isfinite(2.0 * magnitude) & apart
    return [rows[:k] if ok else None for rows, ok in zip(top, sure)]


def ranked_block(exp: Expansion, obs: np.ndarray, weights: np.ndarray, alpha1: float,
                 alpha2: float, missing_value: float, base: np.ndarray, k: int
                 ) -> list[np.ndarray | None]:
    """Per observation of a block, as :func:`expanded_cdm` takes them, the
    rows of its k smallest values where :func:`_certified_rows` certifies
    them, else None."""
    values, magnitude, reach = expanded_cdm(exp, obs, weights, alpha1, alpha2, missing_value,
                                            base)
    return _certified_rows(values, magnitude, reach, obs.shape[1], k, alpha1, alpha2)
