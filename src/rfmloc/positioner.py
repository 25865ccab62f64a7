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

``locate_batch`` advances the searches of a block in lockstep, one lookup
at a time. At p = 2 a lookup of two or more live searches is one product
ranked by ``_kernels.ranked_block``; a search it leaves undecided takes
its own cells, so every estimate is the one the search computes alone.

A lookup ranks finite values only, and raises ``OverflowError`` rather
than rank what overflowed. A feature distance too large for a float (a
large Minkowski order, or a huge value) leaves a non-finite value in the
unweighted dissimilarities, which every search checks in full, or
certifies finite from its columns' extremes. After that
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
from functools import lru_cache
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
        features, sigmas = rfm.spread_arrays(loc)
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


def _finite(d: np.ndarray) -> np.ndarray:
    """``d``, if every value is finite."""
    if not np.isfinite(d).all():
        raise OverflowError("a dissimilarity overflows: not every value is finite")
    return d


def _mean_location(rfm: ExtendedRfm, best: Sequence[int]) -> Location:
    """The mean location of the reference points ``best``, in their order."""
    if len(best) == 1:  # the mean of one point, without a numpy call
        return rfm.location_at(int(best[0]))
    x, y = rfm.locations[best].sum(axis=0) / len(best)  # .mean(axis=0), without its checks
    return Location(float(x), float(y))


def knn_locate(obs: Fingerprint, rfm: ExtendedRfm, cfg: PositioningConfig,
               wv: WeightVector | None = None) -> Location:
    """Average of the k reference locations with the smallest dissimilarity.

    Without a weight vector every feature weighs 1. Ties rank by lower
    reference index.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected, not warned about
        d = dissimilarities(obs, rfm, cfg, wv)
    return _mean_location(rfm, _kernels.ranked(_finite(d), cfg.k))


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


# the n x B values of one product, 8 bytes per reference point and search,
# are held to about this: each worker thread's allocator keeps what it
# frees, and larger products ran no faster on 906 reference points
_PRODUCT_BYTES = 1 << 18
# but a product takes this many searches at least, since each product reads
# the layers once, and at 6654 x 100 they are 16 MB
_PRODUCT_SEARCHES = 16


class _Search:
    """One observation's search: the weights of its next lookup, its path,
    and its cells once it looks up alone. Bad input (``EmptyComparison``,
    ``OverflowError``, ``WeightOverflow``) ends it with the exception as
    its result, which the batch raises in input order."""

    __slots__ = ("obs", "rfm", "cfg", "iterative", "vec", "outside", "cells", "weights",
                 "base", "nearest", "path", "estimates", "result")

    def __init__(self, obs: Fingerprint, rfm: ExtendedRfm, cfg: PositioningConfig,
                 iterative: bool):
        self.obs, self.rfm, self.cfg, self.iterative = obs, rfm, cfg, iterative
        self.cells: np.ndarray | None = None
        self.nearest: Location | None = None  # the unweighted kNN estimate
        self.path: list[Location] = []
        self.estimates: list[Location] = []
        self.result: PositionEstimate | Exception | None = None
        try:
            self.vec, self.outside = _aligned(obs, rfm, cfg)
        except (EmptyComparison, OverflowError) as exc:
            self.result = exc
            return
        self.weights = np.ones(len(rfm.feature_ids))
        self.base = _outside_constant(self.outside, lambda _: 1.0, cfg.alpha1)

    def step(self, best: Sequence[int] | None, keep: bool) -> None:
        """One lookup: take the certified rows ``best``, or else rank the
        search's own cells, kept for its next lookup if ``keep``; then end
        the search or weigh its next lookup."""
        rfm, cfg = self.rfm, self.cfg
        try:
            if best is None:
                cells = _cells(self.vec, rfm, cfg) if self.cells is None else self.cells
                if keep:
                    self.cells = cells
                d = _kernels.cdm_reduce(cells, self.weights, self.base)
                if self.nearest is None:
                    # every cell and outside distance adds to these with weight 1, so
                    # an overflowed one leaves inf or NaN here
                    _finite(d)
                best = _kernels.ranked(d, cfg.k)
            loc = _mean_location(rfm, best)
            if self.nearest is None:
                self.nearest = loc
                if not self.iterative:
                    self.result = PositionEstimate(loc, Termination.CONVERGING, 0, (loc,), None,
                                                   self.obs.id)
                    return
                self.path.append(loc if cfg.init_mode == "knn"
                                 else _random_start(self.obs, rfm, cfg))
            else:
                self.estimates.append(loc)
                self.path.append(loc)
                state = detect_termination(self.estimates, cfg)
                if state is not None:
                    loop_points = (_extract_loop(self.estimates)
                                   if state is Termination.LOOPING else None)
                    self.result = resolve_state(state, self.path, loop_points, self.nearest,
                                                self.obs.id, cfg)
                    return
            row = _weight_row(rfm, self.path[-1], cfg)
            self.weights = row.weights
            # a weight row gives every feature outside the universe its min weight
            self.base = _outside_constant(self.outside, lambda _: row.min_weight, cfg.alpha1)
        except (ValueError, OverflowError) as exc:
            self.result = exc


def _locate_block(observations: Sequence[Fingerprint], rfm: ExtendedRfm,
                  cfg: PositioningConfig, iterative: bool,
                  exp: _kernels.Expansion | None) -> list[PositionEstimate | Exception]:
    """Advance the searches of ``observations`` together, one lookup at a
    time, to an estimate or the exception each raised.

    While two or more searches are live, their lookups are products of
    the expansion ``exp`` with their weighted observations, ranked by
    ``_kernels.ranked_block``, in parts of near equal size, each of at most
    ``_PRODUCT_BYTES`` of values or ``_PRODUCT_SEARCHES`` searches,
    whichever is more; each part's searches step before the next part's
    product, so the Python that holds the interpreter lock runs in
    stretches of one part. A search the certificate leaves undecided looks up
    through its own cells. The search left last, and without ``exp``
    each search in turn, runs alone on its own cells, which it keeps.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected, not warned about
        searches = [_Search(obs, rfm, cfg, iterative) for obs in observations]
        live = [s for s in searches if s.result is None]
        while exp is not None and len(live) > 1:
            cap = max(_PRODUCT_SEARCHES, _PRODUCT_BYTES // (8 * rfm.n_points))
            size = -(-len(live) // -(-len(live) // cap))  # the fewest parts within cap
            for i in range(0, len(live), size):
                part = live[i:i + size]
                for s, best in zip(part, _kernels.ranked_block(
                        exp, np.stack([s.vec for s in part]), np.stack([s.weights for s in part]),
                        cfg.alpha1, cfg.alpha2, cfg.missing_value,
                        np.array([s.base for s in part]), cfg.k)):
                    s.step(best, keep=False)
            live = [s for s in live if s.result is None]
        for s in live:
            while s.result is None:
                s.step(None, keep=True)
    return [s.result for s in searches]


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
    (outcome,) = _locate_block([obs], rfm, cfg, True, None)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@lru_cache(maxsize=16)
def _unit_scales(cfg: PositioningConfig) -> PositioningConfig:
    """``cfg`` with both unshared-feature scales at 1, the kNN baseline's
    setting, derived once per configuration."""
    return replace(cfg, alpha1=1.0, alpha2=1.0)


def locate_batch(observations: Sequence[Fingerprint], rfm: ExtendedRfm,
                 cfg: PositioningConfig, method: str = "iterative",
                 threads: int = 1) -> list[PositionEstimate]:
    """Position a batch of observations with one of the three methods.

    ``knn`` is the plain baseline: unweighted, with both unshared-feature
    scales forced to 1 (missing values simply imputed). ``cdm`` keeps the
    configured scales but stays unweighted and single-shot. ``iterative``
    runs the full scheme. Single-shot estimates report zero iterations and
    the converging flag; they are searches that end after their first,
    unweighted lookup.

    The batch runs in ``threads`` blocks of near equal size, one per
    thread, the calling one included, whose searches advance in lockstep
    (:func:`_locate_block`). At p = 2 the expansion layers are built once
    per call with two or more observations. Results are independent of
    ``threads`` and of the blocking, and the batch raises the exception
    of the first failing observation in input order.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if method == "knn":
        run_cfg = _unit_scales(cfg)
    elif method in ("cdm", "iterative"):
        run_cfg = cfg
    else:
        raise ValueError(f"unknown method {method!r}")

    exp = None
    if run_cfg.minkowski_p == 2.0 and len(observations) > 1:
        with np.errstate(over="ignore", invalid="ignore"):  # a value too large is not certified
            exp = _kernels.expansion(rfm.values)

    def run(block: Sequence[Fingerprint]) -> list[PositionEstimate | Exception]:
        return _locate_block(block, rfm, run_cfg, method == "iterative", exp)

    if threads == 1 or len(observations) < 2:
        outcomes = run(observations)
    else:
        size = -(-len(observations) // threads)
        blocks = [observations[i:i + size] for i in range(0, len(observations), size)]
        # the calling thread takes the first block
        with ThreadPoolExecutor(max_workers=len(blocks) - 1) as pool:
            rest = pool.map(run, blocks[1:])
            outcomes = run(blocks[0]) + [outcome for block in rest for outcome in block]
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
