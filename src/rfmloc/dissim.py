"""Dissimilarity and weighting primitives for fingerprint matching.

The compound dissimilarity between an observation and a reference
fingerprint sums three groups of per-feature Minkowski distances (without
the final root): features both sides measured, observation-only features
compared against the missing-value indicator and scaled by ``alpha1``,
and reference-only features likewise scaled by ``alpha2``. Per-feature
weights come from a softmax over the reference map's spread layer at an
assumed location; features the weighting could not cover fall back to the
smallest computed weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from rfmloc.model import FeatureId, Fingerprint, PositioningConfig, RfmEntry


class EmptyComparison(ValueError):
    """Neither side of a comparison measured any feature."""


class UndefinedSimilarity(ValueError):
    """Set similarity is undefined for an empty observation."""


class WeightOverflow(OverflowError):
    """A softmax exponent beta / sigma^2 is too large for a float."""


@dataclass(frozen=True)
class WeightVector:
    """Per-feature weights plus the fallback for features outside the map."""

    weights: Mapping[FeatureId, float]
    min_weight: float

    def get(self, feature: FeatureId) -> float:
        return self.weights.get(feature, self.min_weight)


def feature_distance(v1: float, v2: float, p: float = 2.0) -> float:
    """Single-feature Minkowski contribution |v1 - v2| ** p, no root;
    elementwise, in a new array, when an operand is an array."""
    if p < 1:
        raise ValueError("the Minkowski order must be at least 1")
    if p == 2.0:
        d = v1 - v2
        return d * d
    return abs(v1 - v2) ** p


def softmax_row(sigmas: np.ndarray, features: np.ndarray, n_features: int, beta: float,
                form: str = "precision_softmax") -> tuple[np.ndarray, float]:
    """Softmax over spread values, aligned with a feature universe.

    ``sigmas[i]`` is the spread of feature ``features[i]`` among
    ``n_features``. Returns the weight row, which holds the smallest
    computed weight in the slots of features without a spread value, and
    that smallest weight; with no spread values at all every weight is 1.
    ``precision_softmax`` uses exponents +beta / sigma^2, concentrating
    weight on features with a stable signal. ``paper_verbatim`` flips the
    exponent sign, reproducing the published formula, which instead favors
    the features with the largest spread. Exponents are shifted by their
    maximum before exponentiation; the weights are invariant under any
    such constant shift. An exponent too large for a float raises
    :class:`WeightOverflow`, so every weight returned is finite.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if form not in ("precision_softmax", "paper_verbatim"):
        raise ValueError(f"unknown weight form {form!r}")
    if not sigmas.size:
        return np.ones(n_features), 1.0
    low = float(sigmas.min())
    if low <= 0:
        raise ValueError("spread values must be positive")
    # the largest exponent, bit for bit: each operation below rounds monotonically
    if low * low == 0 or not math.isfinite(beta / (low * low)):
        raise WeightOverflow(f"a softmax weight exponent beta / sigma^2 overflows at "
                             f"beta = {beta!r}")
    exponents = beta / (sigmas * sigmas)
    if form == "paper_verbatim":
        exponents = -exponents
    w = np.exp(exponents - exponents.max())
    w /= w.sum()
    low = float(w.min())
    row = np.full(n_features, low)
    row[features] = w
    return row, low


def softmax_weights(entries: Sequence[RfmEntry], beta: float,
                    form: str = "precision_softmax") -> WeightVector:
    """:func:`softmax_row` over the spread values of an entry list, keyed
    by feature id; features outside the list fall back to the minimum."""
    n = len(entries)
    row, low = softmax_row(np.array([e.sigma for e in entries], dtype=float),
                           np.arange(n), n, beta, form)
    return WeightVector({e.feature: w for e, w in zip(entries, row.tolist())}, low)


def weighted_cdm(obs: Fingerprint, ref_entries: Sequence[RfmEntry],
                 wv: WeightVector | None, cfg: PositioningConfig) -> float:
    """Weighted compound dissimilarity of an observation against one entry list.

    Reference implementation over explicit feature sets; the positioner
    evaluates the same quantity against all reference points at once
    through the batch kernel. ``wv=None`` means unit weights.
    """
    if wv is None:
        wv = WeightVector({}, 1.0)
    ref = {e.feature: e.value for e in ref_entries}
    if not obs.features and not ref:
        raise EmptyComparison("both fingerprints are featureless")
    p = cfg.minkowski_p
    total = 0.0
    for a, v in obs.features.items():
        if a in ref:
            total += wv.get(a) * feature_distance(v, ref[a], p)
        else:
            total += cfg.alpha1 * wv.get(a) * feature_distance(v, cfg.missing_value, p)
    for a, v in ref.items():
        if a not in obs.features:
            total += cfg.alpha2 * wv.get(a) * feature_distance(cfg.missing_value, v, p)
    return total


def mji(obs_attrs: AbstractSet[FeatureId], ref_attrs: AbstractSet[FeatureId]) -> float:
    """Modified Jaccard index: mean of the Jaccard index and the overlap
    fraction relative to the observation."""
    if not obs_attrs:
        raise UndefinedSimilarity("the observation measured no features")
    inter = len(obs_attrs & ref_attrs)
    union = len(obs_attrs | ref_attrs)
    return 0.5 * (inter / union + inter / len(obs_attrs))
