"""Positioning against an extended reference map.

``knn_locate`` ranks every reference point by the weighted compound
dissimilarity and averages the best k locations. ``iterate_locate`` runs
the same weighted lookup as a fixed point search: the spread layer at the
previous estimate yields fresh softmax weights for the next lookup, until
the estimate converges, revisits an earlier one (a loop), or the iteration
budget runs out. A search compares its observation with the map's value
layer once, into weight-free dissimilarity cells, and only re-weights
them, for its kNN estimate and each iteration. The weights at a location
come from the map's memo of weight rows, which every search shares. Tight
loops resolve to a robust center of the cycle; everything else falls back
to the search's unweighted kNN estimate, the start of a kNN-initialized
search.

A lookup ranks finite values only, and raises ``OverflowError`` rather
than rank what overflowed. A feature distance too large for a float (a
large Minkowski order, or a huge value) leaves a non-finite value in the
unweighted dissimilarities, which every search checks in full. After that
every cell is finite and non-negative, and so is every softmax weight
(``softmax_row`` raises ``WeightOverflow`` on an exponent that is not), so
a weighting yields no NaN: it can overflow only to +inf in a sum of finite
terms, which is caught when it is among the k smallest values; above them
it ranks last, where its true value belongs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from rfmloc import _kernels
# softmax_weights is not called here: rfmbench's tracer wraps it in this
# module's namespace
from rfmloc.dissim import (EmptyComparison, WeightVector, feature_distance, softmax_row,
                           softmax_weights)
from rfmloc.model import (ExtendedRfm, FeatureId, Fingerprint, Location,
                          PositionEstimate, PositioningConfig, Termination)


def _cells(obs_vec: np.ndarray, rfm: ExtendedRfm, cfg: PositioningConfig) -> np.ndarray:
    """The weight-free cells of ``obs_vec`` against ``rfm``, in a new array
    that belongs to the caller."""
    return _kernels.cdm_cells(rfm.values, rfm.absent_cells, rfm.absent_columns, obs_vec,
                              cfg.alpha1, cfg.alpha2, cfg.missing_value, cfg.minkowski_p)


class InsufficientPoints(ValueError):
    """Too few points for a covariance-based center estimate."""


class _WeightRow(NamedTuple):
    """Softmax weights at one location, aligned with the map's features."""

    weights: np.ndarray  # ``min_weight`` where the location has no entry
    min_weight: float


def _weight_row(rfm: ExtendedRfm, loc: Location, cfg: PositioningConfig) -> _WeightRow:
    """The softmax weights of the spread layer at ``loc``: from the map's
    memo, else smoothed here."""
    def compute() -> _WeightRow:
        features, _, sigmas = rfm.query_arrays(loc)
        weights, low = softmax_row(sigmas, features, len(rfm.feature_ids), cfg.beta,
                                   cfg.weight_form)
        return _WeightRow(weights, low)

    return rfm.remembered_row((loc, cfg.beta, cfg.weight_form), compute)


def _aligned(obs: Fingerprint, rfm: ExtendedRfm, cfg: PositioningConfig
             ) -> tuple[np.ndarray, list[tuple[FeatureId, float]]]:
    """``obs`` aligned with the map's feature universe (NaN for unmeasured
    features), and the distances of the observed features the map has
    never seen."""
    if not obs.features and (rfm.entry_counts == 0).any():
        raise EmptyComparison(f"query {obs.id} has no features and the map has "
                              "reference points without any")
    obs_vec = np.full(len(rfm.feature_ids), np.nan)
    outside: list[tuple[FeatureId, float]] = []
    index = rfm.feature_index
    for a, v in obs.features.items():
        f = index.get(a)
        if f is None:
            outside.append((a, feature_distance(v, cfg.missing_value, cfg.minkowski_p)))
        else:
            obs_vec[f] = v
    return obs_vec, outside


def _outside_constant(outside: Sequence[tuple[FeatureId, float]],
                      weight: Callable[[FeatureId], float], alpha1: float) -> float:
    """The weighted contribution of the features outside the universe: the
    same for every reference point, added so that the batch values match
    the per-pair definition exactly."""
    base = 0.0
    for a, d in outside:
        base += alpha1 * weight(a) * d
    return base


def dissimilarities(obs: Fingerprint, rfm: ExtendedRfm, cfg: PositioningConfig,
                    wv: WeightVector | None = None) -> np.ndarray:
    """Weighted compound dissimilarity of ``obs`` against every reference point."""
    obs_vec, outside = _aligned(obs, rfm, cfg)
    if wv is None:
        weights, weight = np.ones(len(rfm.feature_ids)), (lambda _: 1.0)
    else:
        weights = np.array([wv.get(f) for f in rfm.feature_ids], dtype=float)
        weight = wv.get
    return _kernels.cdm_reduce(_cells(obs_vec, rfm, cfg), weights,
                               _outside_constant(outside, weight, cfg.alpha1))


def _k_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest values, ties by lower index: exactly
    ``np.argsort(d, kind="stable")[:k]``, for 1 <= k <= len(d).

    Only the values not above the k-th smallest are sorted. They are taken
    in index order, so the stable sort keeps their ties by index. k = 1,
    the default, is one argmin, also the fastest answer on one thread.
    ``d`` holds no NaN: see the module docstring.
    """
    if k == 1:
        return np.array([d.argmin()])
    kth = d[np.argpartition(d, k - 1)[k - 1]]
    candidates = np.flatnonzero(d <= kth)
    return candidates[np.argsort(d[candidates], kind="stable")[:k]]


def _finite(d: np.ndarray) -> np.ndarray:
    """``d``, if every value is finite."""
    if not np.isfinite(d).all():
        raise OverflowError("a dissimilarity overflows: not every value is finite")
    return d


def _nearest(d: np.ndarray, rfm: ExtendedRfm, k: int) -> Location:
    best = _k_smallest(d, min(k, rfm.n_points))
    if not math.isfinite(d[best[-1]]):  # the largest of the k
        raise OverflowError("a dissimilarity overflows: one of the k smallest is not finite")
    if best.size == 1:  # the mean of one point, without a numpy call
        return rfm.location_at(int(best[0]))
    x, y = rfm.locations[best].mean(axis=0)
    return Location(float(x), float(y))


def knn_locate(obs: Fingerprint, rfm: ExtendedRfm, cfg: PositioningConfig,
               wv: WeightVector | None = None) -> Location:
    """Average of the k reference locations with the smallest dissimilarity.

    Without a weight vector every feature weighs 1. Ties rank by lower
    reference index.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected, not warned about
        d = dissimilarities(obs, rfm, cfg, wv)
    return _nearest(_finite(d), rfm, cfg.k)


def _random_start(obs: Fingerprint, rfm: ExtendedRfm, cfg: PositioningConfig) -> Location:
    """A reference location drawn uniformly from a stream seeded by
    (init_seed, query id), so it depends on neither batch order nor
    thread count."""
    rng = np.random.default_rng([cfg.init_seed & 0x7FFFFFFF, abs(obs.id)])
    return rfm.location_at(int(rng.integers(rfm.n_points)))


def detect_termination(estimates: Sequence[Location],
                       cfg: PositioningConfig) -> Termination | None:
    """Classify the state after the latest iteration estimate.

    ``estimates`` holds the per-iteration estimates in order, excluding
    the initialization. Converging: the latest pair lies within the
    tolerance. Looping: the latest estimate returns within tolerance of
    any earlier one other than its immediate predecessor. Max: the
    iteration budget is spent. None means continue. Converging is checked
    before looping.
    """
    t = len(estimates)
    current = estimates[-1]
    if t >= 2 and current.distance_to(estimates[-2]) < cfg.converge_tol:
        return Termination.CONVERGING
    if t >= 3 and any(current.distance_to(e) < cfg.converge_tol
                      for e in estimates[:-2]):
        return Termination.LOOPING
    if t >= cfg.max_iterations:
        return Termination.MAX
    return None


def _extract_loop(estimates: Sequence[Location]) -> tuple[Location, ...]:
    """The cycle the iteration fell into: from the matched earlier estimate
    up to, and excluding, the revisit that closed it."""
    current = estimates[-1]
    gaps = [current.distance_to(e) for e in estimates[:-2]]
    matched = int(np.argmin(gaps))
    return tuple(estimates[matched:-1])


def loop_diameter(points: Sequence[Location]) -> float:
    """Greatest pairwise distance among ``points``; 0 for fewer than two."""
    return max((a.distance_to(b) for a, b in combinations(points, 2)), default=0.0)


def mcd_center(points: Sequence[Location]) -> Location:
    """Mean of the minimum covariance determinant subset.

    The subset holds ceil((n + 3) / 2) points, at most n. Up to n = 12
    every subset is scored; beyond that, concentration steps refine 50
    random starts drawn with seed 0, keeping the determinant
    non-increasing. Degenerate inputs (all points collinear or coincident)
    fall back to the coordinate-wise median.
    """
    pts = np.array([[p.x, p.y] for p in points], dtype=float)
    n = len(pts)
    if n < 2:
        raise InsufficientPoints("a covariance-based center needs at least 2 points")
    h = min((n + 4) // 2, n)  # ceil((n + 3) / 2)

    if _rank_deficient(pts):
        return Location(float(np.median(pts[:, 0])), float(np.median(pts[:, 1])))

    if n <= 12:
        best_det = math.inf
        best_mean = None
        for subset in combinations(range(n), h):
            sub = pts[list(subset)]
            det = _cov_det(sub)
            if det < best_det:
                best_det = det
                best_mean = sub.mean(axis=0)
        return Location(float(best_mean[0]), float(best_mean[1]))

    rng = np.random.default_rng(0)
    best_det = math.inf
    best_subset = None
    for _ in range(50):
        subset = np.sort(rng.choice(n, size=h, replace=False))
        for _ in range(30):
            refined = _concentration_step(pts, subset, h)
            if np.array_equal(refined, subset):
                break
            subset = refined
        det = _cov_det(pts[subset])
        if det < best_det:
            best_det = det
            best_subset = subset
    center = pts[best_subset].mean(axis=0)
    return Location(float(center[0]), float(center[1]))


def _cov(points: np.ndarray) -> np.ndarray:
    """The 2 x 2 sample covariance of at least 2 points."""
    centered = points - points.mean(axis=0)
    return centered.T @ centered / (len(points) - 1)


def _cov_det(sub: np.ndarray) -> float:
    cov = _cov(sub)
    return float(cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0])


def _rank_deficient(pts: np.ndarray) -> bool:
    eigvals = np.linalg.eigvalsh(_cov(pts))
    return bool(eigvals[0] <= 1e-12 * max(eigvals[1], 1e-300))


def _concentration_step(pts: np.ndarray, subset: np.ndarray, h: int) -> np.ndarray:
    sub = pts[subset]
    cov = _cov(sub)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    diff = pts - sub.mean(axis=0)
    if det <= 1e-300:
        dist = (diff * diff).sum(axis=1)  # singular scatter, rank by plain distance
    else:
        inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
        dist = ((diff @ inv) * diff).sum(axis=1)
    return np.sort(np.argsort(dist, kind="stable")[:h])


def resolve_state(state: Termination, path: Sequence[Location],
                  loop_points: Sequence[Location] | None, fallback: Location,
                  query_id: int, cfg: PositioningConfig) -> PositionEstimate:
    """Turn a terminated search into the final estimate.

    Converging keeps the last estimate. A loop that is both long enough
    and tight enough resolves to the robust center of its points; any
    other loop, and the exhausted-budget state, resolve to ``fallback``,
    the search's unweighted kNN estimate, reported with the max-budget
    flag.
    """
    path = tuple(path)
    iterations = len(path) - 1
    if state is Termination.CONVERGING:
        return PositionEstimate(path[-1], Termination.CONVERGING, iterations, path,
                                None, query_id)
    kept_loop = tuple(loop_points) if loop_points else None
    if (state is Termination.LOOPING and kept_loop is not None
            and len(kept_loop) >= cfg.loop_min_points
            and loop_diameter(kept_loop) <= cfg.loop_max_diameter):
        center = mcd_center(kept_loop)
        return PositionEstimate(center, Termination.LOOPING, iterations, path,
                                kept_loop, query_id)
    return PositionEstimate(fallback, Termination.MAX, iterations, path, kept_loop, query_id)


def iterate_locate(obs: Fingerprint, rfm: ExtendedRfm,
                   cfg: PositioningConfig) -> PositionEstimate:
    """Iterative weighted positioning with guaranteed termination.

    The observation's weight-free cells are computed once, and the kNN
    estimate and every round re-weight them. Each round takes the softmax
    weights of the spread layer at the previous estimate and repeats the
    lookup under them. Termination is total: converging, looping, or the
    iteration budget, whichever comes first. The spread layer is smoothed
    only at searched locations whose weights the map does not remember.
    """
    obs_vec, outside = _aligned(obs, rfm, cfg)

    def weighted(weights: np.ndarray, min_weight: float) -> np.ndarray:
        # a weight row gives every feature outside the universe its min weight
        base = _outside_constant(outside, lambda _: min_weight, cfg.alpha1)
        return _kernels.cdm_reduce(cells, weights, base)

    with np.errstate(over="ignore", invalid="ignore"):  # rejected, not warned about
        cells = _cells(obs_vec, rfm, cfg)
        # every cell and outside distance adds to these with weight 1, so an
        # overflowed one leaves inf or NaN here
        unweighted = _finite(weighted(np.ones(len(rfm.feature_ids)), 1.0))
        nearest = _nearest(unweighted, rfm, cfg.k)
        start = nearest if cfg.init_mode == "knn" else _random_start(obs, rfm, cfg)
        path: list[Location] = [start]
        estimates: list[Location] = []
        state: Termination | None = None
        for _ in range(cfg.max_iterations):
            row = _weight_row(rfm, path[-1], cfg)
            nxt = _nearest(weighted(row.weights, row.min_weight), rfm, cfg.k)
            estimates.append(nxt)
            path.append(nxt)
            state = detect_termination(estimates, cfg)
            if state is not None:
                break
    loop_points = _extract_loop(estimates) if state is Termination.LOOPING else None
    return resolve_state(state, path, loop_points, nearest, obs.id, cfg)


def locate_batch(observations: Sequence[Fingerprint], rfm: ExtendedRfm,
                 cfg: PositioningConfig, method: str = "iterative",
                 threads: int = 1) -> list[PositionEstimate]:
    """Position a batch of observations with one of the three methods.

    ``knn`` is the plain baseline: unweighted, with both unshared-feature
    scales forced to 1 (missing values simply imputed). ``cdm`` keeps the
    configured scales but stays unweighted and single-shot. ``iterative``
    runs the full scheme. Single-shot estimates report zero iterations and
    the converging flag. Results are independent of ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if method == "knn":
        run_cfg = replace(cfg, alpha1=1.0, alpha2=1.0)
    elif method in ("cdm", "iterative"):
        run_cfg = cfg
    else:
        raise ValueError(f"unknown method {method!r}")

    if method == "iterative":
        def solve(obs: Fingerprint) -> PositionEstimate:
            return iterate_locate(obs, rfm, run_cfg)
    else:
        def solve(obs: Fingerprint) -> PositionEstimate:
            loc = knn_locate(obs, rfm, run_cfg)
            return PositionEstimate(loc, Termination.CONVERGING, 0, (loc,), None, obs.id)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, observations))
    return [solve(obs) for obs in observations]
