"""Construction of the extended reference map from survey records.

The pipeline has three stages. A spatial median filter replaces each
record's features with the per-feature median over its neighborhood (the
nearest records within a radius, capped in number), knocking out isolated
outliers. Gaussian kernel smoothing of the filtered layer then yields the
expected value at every record location. Finally the spread layer is
estimated robustly per location: the median of absolute residuals between
the raw values in the neighborhood and the smoothed layer at each
record's own position, scaled to be consistent with a normal standard
deviation and clamped below.

Each neighbour search is one sweep over the records sorted by x: the
filter supports within ``radius``, and the smoothing candidates within
three bandwidths (:func:`rfmloc.model.in_range`). Only the records in a
center's x window are measured, with the arithmetic of a full scan, so
every distance and every tie is the one a scan per record finds.

The filter and the spread stage both reduce over the same supports. Every
record's support is gathered once into a padded index matrix, and both
stages run over (records, support, features) blocks of it, a bounded
number of records at a time, so memory stays flat however large
``max_neighbors`` is. The smoothing runs the same way, one call of
:func:`rfmloc.model.nearest_carriers_nw` per block of records.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from rfmloc.model import (BuilderConfig, ExtendedRfm, FeatureId, Fingerprint, Location,
                          RawRfm, gaussian_nw, in_range, nearest_carriers_nw, x_order,
                          x_window)


# Values per gathered block, 64 KB of float64: (records, support,
# features) for the median and spread stages, (candidates, features) for
# the smoothing. The number of records per block follows from it. A block
# stays below the allocator's 128 KB mmap threshold, so its temporaries are
# reused from the heap: at 256 KB, a build of a 906-record survey took
# 10,000 fresh page faults, at 64 KB 270.
_BLOCK_VALUES = 1 << 13


class EmptyNeighborhood(ValueError):
    """No record lies within the filter radius of the requested center."""


@dataclass(frozen=True)
class Neighborhood:
    """The spatial filter support set around a center location."""

    center: Location
    members: tuple[tuple[Location, Fingerprint], ...]


def _record_layers(raw: RawRfm):
    """Dense views over the records: ids, coordinates, sorted feature
    universe, and the (n, features) raw value matrix with NaN for absent."""
    ids = np.array([rec.id for rec in raw.records], dtype=np.int64)
    locs = np.array([[rec.location.x, rec.location.y] for rec in raw.records], dtype=float)
    feature_ids = sorted({a for rec in raw.records for a in rec.features})
    index = {fid: f for f, fid in enumerate(feature_ids)}
    matrix = np.full((len(raw.records), len(feature_ids)), np.nan)
    for j, rec in enumerate(raw.records):
        for a, v in rec.features.items():
            matrix[j, index[a]] = v
    return ids, locs, feature_ids, matrix


def _blocks(bounds: np.ndarray, budget: int):
    """Runs ``(start, stop)`` of consecutive rows that cover every row in
    order, where row j holds items ``bounds[j]`` to ``bounds[j + 1]``: each
    run holds at most ``budget`` items, or is one row that alone holds
    more."""
    start, n = 0, bounds.size - 1
    while start < n:
        stop = int(np.searchsorted(bounds, bounds[start] + budget, "right")) - 1
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _pairs_in_range(locs: np.ndarray, centers: np.ndarray, cutoff: float):
    """:func:`in_range` of every center against the records, over blocks of
    centers whose x windows hold at most ``_BLOCK_VALUES`` records in all.
    Returns the center (row), record index and distance of every pair
    within ``cutoff``, rows ascending."""
    by_x, xs, ys = x_order(locs)
    lo, hi = x_window(xs, centers[:, 0], cutoff)
    parts = []
    for start, stop in _blocks(np.concatenate(([0], np.cumsum(hi - lo))), _BLOCK_VALUES):
        rows, points, d = in_range(by_x, xs, ys, centers[start:stop], cutoff)
        parts.append((rows + start, points, d))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _supports(ids: np.ndarray, locs: np.ndarray, centers: np.ndarray,
              cfg: BuilderConfig) -> np.ndarray:
    """The filter support of every center as one (centers, S) index matrix:
    the up-to-``max_neighbors`` nearest records within ``radius``, ordered
    by distance with ties broken by ascending record id. S is the largest
    support; shorter rows are padded with index n, which
    :func:`_over_supports` points at an all-NaN row."""
    rows, points, d = _pairs_in_range(locs, centers, cfg.radius)
    order = np.lexsort((ids[points], d, rows))
    points = points[order]
    firsts = np.searchsorted(rows, np.arange(len(centers) + 1))
    rank = np.arange(rows.size) - firsts[rows]
    keep = rank < cfg.max_neighbors
    width = min(int(np.diff(firsts).max(initial=0)), cfg.max_neighbors)
    supports = np.full((len(centers), width), len(locs), dtype=np.intp)
    supports[rows[keep], rank[keep]] = points[keep]
    return supports


def neighborhood(raw: RawRfm, center: Location, cfg: BuilderConfig) -> Neighborhood:
    """The filter support set at ``center``: nearest records within the
    radius, at most ``max_neighbors`` of them, deterministic under ties."""
    ids, locs, _, _ = _record_layers(raw)
    (sel,) = _supports(ids, locs, np.array([[center.x, center.y]]), cfg)
    if sel.size == 0:
        raise EmptyNeighborhood(f"no record within {cfg.radius} m of ({center.x}, {center.y})")
    members = tuple((raw.records[i].location, raw.records[i]) for i in sel)
    return Neighborhood(center, members)


def _over_supports(reduce, matrix: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Row j of the result is ``reduce`` of the (support, features) block
    ``matrix[supports[j]]``, padding rows reading NaN. ``reduce`` takes a
    (records, support, features) block and reduces over axis 1; it sees at
    most ``_BLOCK_VALUES`` values at once, or one record's block when that
    alone is larger."""
    n, n_features = matrix.shape
    padded = np.vstack([matrix, np.full((1, n_features), np.nan)])
    rows = max(1, _BLOCK_VALUES // (supports.shape[1] * max(n_features, 1)))
    return np.concatenate([reduce(padded[supports[start:start + rows]])
                           for start in range(0, supports.shape[0], rows)])


def _median(block: np.ndarray) -> np.ndarray:
    """Median over axis -2, ignoring NaN, NaN where a column has no value.

    The arithmetic of ``np.nanmedian``: sort (NaN last), then sum the two
    middle order statistics, which coincide for an odd count, and halve.
    The results are equal bit for bit, signed zeros included."""
    ordered = np.sort(block, axis=-2)
    count = np.count_nonzero(~np.isnan(ordered), axis=-2)
    middle = np.stack([np.maximum(count - 1, 0) // 2, count // 2], axis=-2)
    halved = np.take_along_axis(ordered, middle, axis=-2).sum(axis=-2) / 2
    return np.where(count > 0, halved, np.nan)


def spatial_median_filter(raw: RawRfm, cfg: BuilderConfig) -> RawRfm:
    """Replace every record's features by neighborhood medians.

    A feature appears in the output at a location iff at least one
    neighborhood member observed it, so coverage can only grow.
    """
    ids, locs, feature_ids, matrix = _record_layers(raw)
    filtered = _over_supports(_median, matrix, _supports(ids, locs, locs, cfg))
    records = []
    for j, rec in enumerate(raw.records):
        present = np.nonzero(np.isfinite(filtered[j]))[0]
        feats = {feature_ids[f]: float(filtered[j, f]) for f in present}
        records.append(Fingerprint(rec.id, rec.location, feats))
    return RawRfm(tuple(records), raw.roi)


def kernel_smooth(filtered: RawRfm, loc: Location,
                  cfg: BuilderConfig) -> list[tuple[FeatureId, float]]:
    """Gaussian kernel estimate of every feature at one location.

    Support per feature: the nearest carriers within three bandwidths,
    capped at ``ks_neighbors``. Features without any carrier in range are
    omitted from the result.
    """
    _, locs, feature_ids, matrix = _record_layers(filtered)
    return _kernel_smooth(locs, feature_ids, matrix, loc, cfg)


def _kernel_smooth(locs: np.ndarray, feature_ids, matrix: np.ndarray, loc: Location,
                   cfg: BuilderConfig) -> list[tuple[FeatureId, float]]:
    """:func:`kernel_smooth` over the dense layers :func:`_record_layers`
    gives, so that a walk over many locations builds them once."""
    d = np.hypot(locs[:, 0] - loc.x, locs[:, 1] - loc.y)
    order = np.argsort(d, kind="stable")
    cutoff = 3.0 * cfg.bandwidth
    out: list[tuple[FeatureId, float]] = []
    for f, fid in enumerate(feature_ids):
        carriers = order[np.isfinite(matrix[order, f])]
        carriers = carriers[d[carriers] <= cutoff][: cfg.ks_neighbors]
        if carriers.size == 0:
            continue
        out.append((fid, gaussian_nw(matrix[carriers, f], d[carriers], cfg.bandwidth)))
    return out


def _smooth_matrix(locs, filtered, cfg) -> np.ndarray:
    """Kernel-smoothed value at every record location, per feature, over the
    filtered layer. Only positions where the filtered layer carries the
    feature are filled; those are exactly the positions a map entry needs.

    Every record's points within three bandwidths are found at once and
    sorted by distance, ties by index; the smoothing then runs over blocks
    of records whose candidates hold at most ``_BLOCK_VALUES`` (candidate,
    feature) values, or one record that alone holds more."""
    present = np.isfinite(filtered)
    n, n_features = filtered.shape
    rows, points, d = _pairs_in_range(locs, locs, 3.0 * cfg.bandwidth)
    order = np.lexsort((points, d, rows))
    points, d = points[order], d[order]
    firsts = np.searchsorted(rows, np.arange(n + 1))
    smoothed = np.empty_like(filtered)
    for start, stop in _blocks(firsts, _BLOCK_VALUES // max(n_features, 1)):
        bounds = firsts[start:stop + 1]
        run = slice(bounds[0], bounds[-1])
        smoothed[start:stop] = nearest_carriers_nw(bounds - bounds[0], points[run], d[run],
                                                   present, (filtered,), cfg.ks_neighbors,
                                                   cfg.bandwidth)[0]
    return np.where(present, smoothed, np.nan)


def _spread(residuals: np.ndarray, cfg: BuilderConfig, estimator: str) -> np.ndarray:
    """Per-feature spread over the members axis (-2) of a residual block,
    (members, features) or (records, members, features), with NaN where a
    member has no residual: ``mad_scale`` times the median absolute
    residual ("mad") or the sample standard deviation ("std"), clamped at
    ``sigma_floor``. Features with fewer than two residuals get the floor."""
    if estimator == "mad":
        spread = cfg.mad_scale * _median(np.abs(residuals))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # features with < 2 residuals
            spread = np.nanstd(residuals, axis=-2, ddof=1)
    enough = np.count_nonzero(np.isfinite(residuals), axis=-2) >= 2
    return np.where(enough, np.maximum(spread, cfg.sigma_floor), cfg.sigma_floor)


def estimate_std(raw: RawRfm, smoothed_at: Callable[[Location], object],
                 center: Location, cfg: BuilderConfig) -> list[tuple[FeatureId, float]]:
    """Robust spread per feature at ``center``.

    Residuals are the raw values observed within the filter support set
    minus the smoothed value at each record's own location (queried
    through ``smoothed_at``, which may return a mapping or a list of
    (feature, value) pairs). The spread is ``mad_scale`` times the median
    absolute residual, clamped at ``sigma_floor``; features with fewer
    than two residuals get the floor.
    """
    nb = neighborhood(raw, center, cfg)
    features = sorted({a for _, rec in nb.members for a in rec.features})
    residuals = np.full((len(nb.members), len(features)), np.nan)
    for m, (loc, rec) in enumerate(nb.members):
        smoothed = smoothed_at(loc)
        if not isinstance(smoothed, Mapping):
            smoothed = dict(smoothed)
        for f, a in enumerate(features):
            if a in rec.features and a in smoothed:
                residuals[m, f] = rec.features[a] - float(smoothed[a])
    sigmas = _spread(residuals, cfg, "mad")
    return [(a, float(sigma)) for a, sigma in zip(features, sigmas)]


def build(raw: RawRfm, cfg: BuilderConfig | None = None, *,
          std_estimator: str = "mad") -> ExtendedRfm:
    """Run the full pipeline and assemble the extended map.

    Reference points are the raw record locations. Each carries an entry
    per feature observed anywhere in its filter neighborhood, holding the
    smoothed expected value and the spread estimate. ``std_estimator``
    selects the spread statistic: "mad" (default) or "std", a plain sample
    standard deviation useful for comparing robustness.
    """
    if std_estimator not in ("mad", "std"):
        raise ValueError(f"unknown std_estimator {std_estimator!r}")
    if cfg is None:
        cfg = BuilderConfig()
    ids, locs, feature_ids, matrix = _record_layers(raw)
    supports = _supports(ids, locs, locs, cfg)
    filtered = _over_supports(_median, matrix, supports)
    smoothed = _smooth_matrix(locs, filtered, cfg)

    # residual of every raw observation against the smoothed layer at its
    # own location; raw presence implies filtered presence there, so the
    # smoothed value always exists
    residual = np.where(np.isfinite(matrix), matrix - smoothed, np.nan)

    sigmas = _over_supports(lambda block: _spread(block, cfg, std_estimator), residual,
                            supports)
    sigmas[~np.isfinite(filtered)] = np.nan
    return ExtendedRfm(locs, feature_ids, smoothed, sigmas, cfg)

