"""Core domain types and the on-disk formats shared by every pipeline stage.

Fingerprint records travel as JSON lines, one object per line::

    {"id": 3, "x": 1.5, "y": 0.25, "features": {"9c:50:ee:09:5f:30": -61.0}}

``x`` and ``y`` are null for records without a ground-truth location. An
extended reference map is a single JSON document in format 3: the builder
configuration snapshot, the feature ids once, and the reference locations
and both layers as base64 of their little-endian float64 bytes, absent
cells NaN; see :meth:`ExtendedRfm.to_json`. A reader who wants to inspect
a map decodes its value layer with numpy, and ``sigma`` and the (n, 2)
``locations`` alike::

    obj = json.load(open("map.json"))
    n, f = len(base64.b64decode(obj["locations"])) // 16, len(obj["features"])
    v = np.frombuffer(base64.b64decode(obj["v"]), "<f8").reshape(n, f)

Maps in format 2, which listed per point the indices, values and sigmas
of the features it carries, and in format 1, which listed one ``{"id",
"v", "sigma"}`` object per entry, are still read, into the same layers,
by one walk over their points that checks each in document order and
names the first fault. ``ExtendedRfm.load(path).save(path)`` rewrites
such a map in format 3, which loads without that walk.
"""

from __future__ import annotations

import base64
import json
import math
import operator
import threading
from collections import abc
from dataclasses import asdict, dataclass, fields
from enum import IntEnum
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

FeatureId = str

# The Python type of each config dataclass field, by its annotation.
_FIELD_TYPES = {"int": int, "float": float, "str": str}
# The JSON value types a field of each type accepts; a bool is never a number.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


class DataError(ValueError):
    """Malformed input data. Carries the offending source path and line."""

    def __init__(self, message: str, *, source=None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(prefix + message)


class Termination(IntEnum):
    """Why the iterative positioner stopped."""

    CONVERGING = 0
    LOOPING = 1
    MAX = 2


@dataclass(frozen=True, slots=True)
class Location:
    """Planar metric coordinates, meters, shared frame with the reference map."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("location coordinates must be finite")

    def distance_to(self, other: "Location") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned region of interest."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax))):
            raise ValueError("rect bounds must be finite")
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise ValueError("rect must have non-negative extent")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, loc: Location, eps: float = 0.0) -> bool:
        return (self.xmin - eps <= loc.x <= self.xmax + eps
                and self.ymin - eps <= loc.y <= self.ymax + eps)

    def to_dict(self) -> dict:
        return {"xmin": self.xmin, "ymin": self.ymin, "xmax": self.xmax, "ymax": self.ymax}

    @classmethod
    def from_dict(cls, obj: Mapping) -> "Rect":
        return cls(*(_json_value(obj[key], float, key)
                     for key in ("xmin", "ymin", "xmax", "ymax")))


@dataclass(frozen=True)
class Fingerprint:
    """One observation vector: measured feature values in dBm, keyed by the
    feature's opaque identifier (typically a MAC address).

    ``location`` is the ground-truth position where the record was taken,
    or None for queries. Instances are treated as immutable; the features
    mapping must not be mutated after construction.
    """

    id: int
    location: Location | None
    features: Mapping[FeatureId, float]

    def __post_init__(self):
        features = self.features
        # C-level passes over the whole record; only a record that fails
        # one is walked to name its first bad feature
        if (set(map(type, features)) <= {str} and "" not in features
                and all(map(math.isfinite, features.values()))):
            return
        for key, value in features.items():
            if not isinstance(key, str) or not key:
                raise ValueError("feature ids must be non-empty strings")
            if not math.isfinite(value):
                raise ValueError(f"feature {key!r} has a non-finite value")


@dataclass(frozen=True)
class RawRfm:
    """Georeferenced survey records prior to any filtering or smoothing."""

    records: tuple[Fingerprint, ...]
    roi: Rect

    def __post_init__(self):
        if not self.records:
            raise ValueError("a raw reference map needs at least one record")
        for rec in self.records:
            if rec.location is None:
                raise ValueError(f"record {rec.id} has no location")
            if not self.roi.contains(rec.location, eps=1e-9):
                raise ValueError(f"record {rec.id} lies outside the region of interest")

    @classmethod
    def from_records(cls, records: Sequence[Fingerprint], roi: Rect | None = None) -> "RawRfm":
        records = tuple(records)
        if roi is None:
            located = [r.location for r in records if r.location is not None]
            if not located:
                raise ValueError("cannot infer a region of interest without located records")
            roi = Rect(min(p.x for p in located), min(p.y for p in located),
                       max(p.x for p in located), max(p.y for p in located))
        return cls(records, roi)


@dataclass(frozen=True, slots=True)
class RfmEntry:
    """Per-feature layer sample at one map position: expected value and spread."""

    feature: FeatureId
    value: float
    sigma: float


def field_types(cls) -> dict[str, type]:
    """The type of each field of the config dataclass ``cls``, in field order."""
    return {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}


def _json_value(value, kind: type, name: str):
    """``value`` as ``kind`` when JSON gave it as one: an int for an int, an
    int or a float for a float, a string for a string; anything else, bools
    included, raises ValueError naming ``name``."""
    if type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    return kind(value)


def _require_finite(config) -> None:
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BuilderConfig:
    """Parameters of the map construction pipeline.

    ``max_neighbors`` and ``radius`` bound the spatial filter support;
    ``ks_neighbors`` and ``bandwidth`` control the kernel smoothing, whose
    support is additionally restricted to three bandwidths. ``mad_scale``
    converts a median absolute residual into a normal-consistent standard
    deviation and ``sigma_floor`` is the smallest spread the map will
    report. The map stores a snapshot of it, see :meth:`ExtendedRfm.to_json`.
    """

    max_neighbors: int = 20
    radius: float = 2.0
    ks_neighbors: int = 20
    bandwidth: float = 1.0
    mad_scale: float = 1.4826
    sigma_floor: float = 0.5

    def __post_init__(self):
        _require_finite(self)
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be at least 1")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.ks_neighbors < 1:
            raise ValueError("ks_neighbors must be at least 1")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.mad_scale <= 0:
            raise ValueError("mad_scale must be positive")
        if self.sigma_floor <= 0:
            raise ValueError("sigma_floor must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "BuilderConfig":
        return cls(**{name: _json_value(obj[name], kind, name)
                      for name, kind in field_types(cls).items()})


@dataclass(frozen=True)
class PositioningConfig:
    """Hyperparameters of the dissimilarity and iterative positioning scheme.

    ``alpha1`` and ``alpha2`` scale the contribution of features only one
    side measured (observation-only and reference-only respectively);
    ``missing_value`` is the stand-in value those features are compared
    against. ``weight_form`` picks how the spread layer maps to softmax
    weights: ``precision_softmax`` (default) concentrates weight on the
    most stable features, ``paper_verbatim`` applies the opposite sign as
    published. Random initialization derives a per-query stream from
    ``init_seed`` and the query id, so batch order and threading never
    change results.

    At the defaults (``k = 1``, ``loop_max_diameter = 0.01``) the loop
    rule and ``mcd_center`` never act unless two reference points lie
    within 0.01 m of each other: at k = 1 every iterate is a reference
    location, the points of a loop are distinct iterates (a revisit ends
    the search first), and a loop resolves to its center only if its
    diameter is at most ``loop_max_diameter``. Every other loop resolves
    to the search's kNN estimate.
    """

    alpha1: float = 3.0
    alpha2: float = 3.0
    missing_value: float = -110.0
    beta: float = 2.0
    k: int = 1
    converge_tol: float = 1e-3
    max_iterations: int = 100
    loop_min_points: int = 4
    loop_max_diameter: float = 0.01
    minkowski_p: float = 2.0
    weight_form: str = "precision_softmax"
    init_mode: str = "knn"
    init_seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("alpha1 and alpha2 must be non-negative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.converge_tol <= 0:
            raise ValueError("converge_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.loop_min_points < 2:
            raise ValueError("loop_min_points must be at least 2")
        if self.loop_max_diameter < 0:
            raise ValueError("loop_max_diameter must be non-negative")
        if self.minkowski_p < 1:
            raise ValueError("minkowski_p must be at least 1")
        if self.weight_form not in ("precision_softmax", "paper_verbatim"):
            raise ValueError(f"unknown weight_form {self.weight_form!r}")
        if self.init_mode not in ("knn", "random"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


@dataclass(frozen=True)
class PositionEstimate:
    """Outcome of positioning one observation.

    ``path`` lists every searched location in order, starting with the
    initialization. ``loop_points`` holds the detected cycle when the
    iteration terminated by revisiting an earlier estimate, whichever way
    the cycle was then resolved.
    """

    location: Location
    tf: Termination
    iterations: int
    path: tuple[Location, ...]
    loop_points: tuple[Location, ...] | None = None
    query_id: int | None = None


def gaussian_nw(values, distances, bandwidth: float) -> float:
    """Nadaraya-Watson estimate with a Gaussian kernel K(u) = exp(-u^2 / 2).

    Kernel weights are computed relative to the largest one, which leaves
    the estimate unchanged and avoids underflow for distant supports.
    """
    v = np.asarray(values, dtype=float)
    u = np.asarray(distances, dtype=float) / bandwidth
    logw = -0.5 * u * u
    w = np.exp(logw - logw.max())
    return float((w * v).sum() / w.sum())


# Largest relative rounding step of a float64, 2**-52.
_EPS = float(np.finfo(float).eps)


def x_order(locations: np.ndarray):
    """The stable argsort of the (n, 2) ``locations`` by x, and their x and
    y coordinates in that order: the sorted points :func:`x_window` and
    :func:`in_range` search."""
    by_x = np.argsort(locations[:, 0], kind="stable")
    xs, ys = locations[by_x].T.copy()
    return by_x, xs, ys


def x_window(xs: np.ndarray, cx, cutoff: float):
    """Bounds ``lo, hi`` in the ascending x coordinates ``xs`` of every
    point that can lie within ``cutoff`` of a center at x = ``cx``, a float
    or an array of them.

    The exact test is ``np.hypot(px - cx, py - cy) <= cutoff``, which no
    point with ``abs(fl(px - cx)) > cutoff`` passes. The window reaches four
    rounding steps of ``abs(cx) + cutoff`` past ``cx ± cutoff``, more than
    the roundings of that subtraction and of the window's own ends can
    move a point, so it never drops a point the test keeps. A ``cutoff`` of
    ``math.inf`` spans every point.
    """
    reach = cutoff + 4 * _EPS * (abs(cx) + cutoff)
    return xs.searchsorted(cx - reach, "left"), xs.searchsorted(cx + reach, "right")


def in_range(by_x: np.ndarray, xs: np.ndarray, ys: np.ndarray, centers: np.ndarray,
             cutoff: float):
    """Every pair of a center and a point at most ``cutoff`` apart.

    ``by_x``, ``xs`` and ``ys`` are the points' :func:`x_order`;
    ``centers`` is (m, 2).
    Only the points of each center's :func:`x_window` are measured, with
    the arithmetic of a full scan, ``np.hypot(px - cx, py - cy)``, so every
    distance has the bits the full scan gives it. Returns the center (row)
    and point index and the distance of every pair in range, rows
    ascending and each row's points in x order.
    """
    cx, cy = centers[:, 0], centers[:, 1]
    lo, hi = x_window(xs, cx, cutoff)
    lengths = hi - lo
    rows = np.repeat(np.arange(centers.shape[0]), lengths)
    at = np.arange(rows.size) + np.repeat(lo + lengths - lengths.cumsum(), lengths)
    d = np.hypot(xs[at] - cx[rows], ys[at] - cy[rows])
    keep = (d <= cutoff).nonzero()[0]
    return rows[keep], by_x[at[keep]], d[keep]


def nearest_carriers_nw(bounds: np.ndarray, points: np.ndarray, d: np.ndarray,
                        present: np.ndarray, layers: Sequence[np.ndarray], ks: int,
                        bandwidth: float) -> np.ndarray:
    """Gaussian kernel smoothing of every feature at a block of locations.

    The candidates of location i are ``points[bounds[i]:bounds[i + 1]]``,
    at distances ``d`` over the same slice, nearest first: the pairs
    :func:`in_range` finds, sorted. ``present`` is the (n, features)
    carrier mask and ``layers`` are (n, features) arrays that share it. Per
    (location, feature) the support is the location's nearest ``ks``
    carriers of the feature. Returns a (len(layers), locations, features)
    array holding :func:`gaussian_nw` of each layer over that support, NaN
    where a feature has no carrier.

    The result equals the per-feature :func:`gaussian_nw` bit for bit:
    supports are evaluated in groups of equal size, so each row sum has
    the length of the scalar call and numpy's pairwise summation adds in
    the same order. A block of one location, a lookup's, skips the
    bookkeeping of which location each candidate belongs to.
    """
    m = bounds.size - 1
    n = points.size
    # every carrier among the candidates, feature-major: one run per
    # (feature, location) pair, nearest first, pairs numbered feature * m
    # + location in the order of their runs
    flat = present.T[:, points].ravel().nonzero()[0]
    feats = flat // n
    at = flat - feats * n
    if m == 1:
        pair = feats
    else:
        pair = feats * m + np.repeat(np.arange(m), bounds[1:] - bounds[:-1])[at]
    counts = np.bincount(pair, minlength=present.shape[1] * m)
    if n > ks and counts.max(initial=0) > ks:
        # keep the first ks of every run
        kept = (np.arange(pair.size) - (counts.cumsum() - counts)[pair] < ks).nonzero()[0]
        at, feats, pair = at[kept], feats[kept], pair[kept]
        counts = np.minimum(counts, ks)
    sizes = np.bincount(counts).tolist()
    if sum(map(bool, sizes[1:])) > 1:
        # runs grouped by size; stable, so each run stays whole and in order
        by_size = counts[pair].astype(np.min_scalar_type(ks)).argsort(kind="stable")
        at, feats, pair = at[by_size], feats[by_size], pair[by_size]
    u = d / bandwidth
    logw = (-0.5 * u * u)[at]
    carriers = points[at]
    values = [layer[carriers, feats] for layer in layers]
    estimates = np.full((len(layers), counts.size), np.nan)
    end = 0
    for size, pairs in enumerate(sizes):
        start, end = end, end + size * pairs
        if not size or not pairs:
            continue
        group = logw[start:end].reshape(pairs, size)
        # column 0 holds each run's nearest carrier, its largest log-weight
        w = np.exp(group - group[:, :1])
        wsum = w.sum(axis=1)
        where = pair[start:end:size]
        for out, value in zip(estimates, values):
            out[where] = (w * value[start:end].reshape(pairs, size)).sum(axis=1) / wsum
    return estimates.reshape(len(layers), -1, m).transpose(0, 2, 1)


def smooth_at(by_x: np.ndarray, xs: np.ndarray, ys: np.ndarray, present: np.ndarray,
              layers: Sequence[np.ndarray], loc: Location, ks: int, bandwidth: float,
              cutoff: float):
    """Gaussian kernel smoothing of every feature at one location, over
    the points within ``cutoff`` of it: the indices of the features with a
    carrier there, ascending, and the (len(layers), features) estimates.

    ``by_x``, ``xs`` and ``ys`` are the points' :func:`x_order`; the rest
    is as for :func:`nearest_carriers_nw`. The location's :func:`x_window`
    is a slice of the x order, measured by the exact test and ranked by
    (distance, index), without the gathers of :func:`in_range`, which would
    cost a lookup about 14 µs more (906 points, 2-vCPU host).
    """
    lo, hi = x_window(xs, loc.x, cutoff)
    d = np.hypot(xs[lo:hi] - loc.x, ys[lo:hi] - loc.y)
    keep = (d <= cutoff).nonzero()[0]
    points, d = by_x[lo:hi][keep], d[keep]
    order = np.lexsort((points, d))
    estimates = nearest_carriers_nw(np.array([0, order.size]), points[order], d[order],
                                    present, layers, ks, bandwidth)[:, 0]
    features = np.isfinite(estimates[0]).nonzero()[0]
    return features, estimates[:, features]


class ExtendedRfm:
    """Reference map extended with a per-feature spread layer.

    Each reference point stores, per feature, the smoothed expected value
    and a robust spread estimate. Between reference points the layers are
    represented continuously by Gaussian kernel smoothing, so any location
    in the region can be queried. The layers are immutable; the backing
    arrays are marked read-only so they can be shared across threads, as
    are the indices of the absent cells and the imputed value layer, which
    the dissimilarity kernel reads.

    Two parts are mutable, and neither changes a result. One is a bounded
    memo of rows derived from the layers at searched locations
    (:meth:`remembered_row`), at most ``n_points`` of them. Every search
    shares it, and no search keeps a copy. It keeps each row for the life
    of the map. The other is the slot of :meth:`imputed_values`, one
    read-only layer for the last missing value asked for; a thread that
    finds it empty or keyed to another value builds the layer and
    replaces the slot whole.
    """

    def __init__(self, locations, feature_ids: Sequence[FeatureId], values, sigmas,
                 builder_config: BuilderConfig):
        locations = np.ascontiguousarray(locations, dtype=float)
        values = np.ascontiguousarray(values, dtype=float)
        sigmas = np.ascontiguousarray(sigmas, dtype=float)
        if locations.ndim != 2 or locations.shape[1] != 2:
            raise ValueError("locations must be an (n, 2) array")
        n = locations.shape[0]
        if n == 0:
            raise ValueError("the map has no reference points")
        f = len(feature_ids)
        if values.shape != (n, f) or sigmas.shape != (n, f):
            raise ValueError("layer shapes must match (n_points, n_features)")
        if not np.isfinite(locations).all():
            raise ValueError("reference locations must be finite")
        present = np.isfinite(values)
        if (present != np.isfinite(sigmas)).any():
            raise ValueError("value and sigma layers must cover the same entries")
        # the check above leaves every present sigma finite
        bad = np.argwhere(sigmas <= 0)
        if bad.size:
            j, f = bad[0]
            raise ValueError(f"sigma of feature {feature_ids[f]!r} at reference point {j} "
                             f"is {float(sigmas[j, f])!r}; every sigma must be finite and > 0")
        entry_counts = present.sum(axis=1)
        absent = np.flatnonzero(~present)
        by_x, xs, ys = x_order(locations)
        for arr in (locations, values, sigmas, present, entry_counts, absent, by_x, xs, ys):
            arr.setflags(write=False)
        self._locations = locations
        # the points in x order, for the candidate search of a lookup
        self._by_x, self._xs, self._ys = by_x, xs, ys
        self._feature_ids = tuple(feature_ids)
        self._index = {fid: i for i, fid in enumerate(self._feature_ids)}
        if len(self._index) != f:
            raise ValueError("duplicate feature ids")
        self._values = values
        self._sigmas = sigmas
        self._present = present
        self._entry_counts = entry_counts
        self._absent = absent
        self._imputed: tuple[float, np.ndarray] | None = None
        self._config = builder_config
        self._rows: dict = {}
        self._memo_lock = threading.Lock()

    @property
    def n_points(self) -> int:
        return self._locations.shape[0]

    @property
    def feature_ids(self) -> tuple[FeatureId, ...]:
        return self._feature_ids

    @property
    def feature_index(self) -> Mapping[FeatureId, int]:
        return self._index

    @property
    def locations(self) -> np.ndarray:
        """Reference point coordinates, shape (n, 2), read-only."""
        return self._locations

    @property
    def values(self) -> np.ndarray:
        """Expected value layer, shape (n, features), NaN where absent."""
        return self._values

    @property
    def sigmas(self) -> np.ndarray:
        """Spread layer, same shape and presence pattern as ``values``."""
        return self._sigmas

    @property
    def entry_counts(self) -> np.ndarray:
        return self._entry_counts

    @property
    def absent_cells(self) -> np.ndarray:
        """Flat indices of the value layer's NaN cells, ascending, read-only."""
        return self._absent

    def imputed_values(self, missing_value: float) -> np.ndarray:
        """The value layer with ``missing_value`` in its absent cells,
        read-only: built on first use and kept until another
        ``missing_value`` is asked for."""
        slot = self._imputed
        if slot is None or slot[0] != missing_value:
            layer = np.where(self._present, self._values, missing_value)
            layer.setflags(write=False)
            slot = self._imputed = (missing_value, layer)
        return slot[1]

    @property
    def builder_config(self) -> BuilderConfig:
        return self._config

    @property
    def bbox(self) -> Rect:
        xs = self._locations[:, 0]
        ys = self._locations[:, 1]
        return Rect(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))

    def location_at(self, index: int) -> Location:
        x, y = self._locations[index]
        return Location(float(x), float(y))

    def entries_at(self, index: int) -> list[RfmEntry]:
        """The stored entry list of one reference point, ordered by feature id."""
        out = []
        for f, fid in enumerate(self._feature_ids):
            if self._present[index, f]:
                out.append(RfmEntry(fid, float(self._values[index, f]),
                                    float(self._sigmas[index, f])))
        return out

    def query_arrays(self, loc: Location) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Continuous lookup of both layers at an arbitrary location.

        Returns the indices of the features with an estimate, ascending,
        and their smoothed values and sigmas. Per feature, the estimate is
        a Gaussian kernel average over the nearest reference points
        carrying that feature, capped at ``ks_neighbors`` and restricted to
        three bandwidths; features with no carrier in range are omitted. If
        the restriction would leave no entries at all, it is dropped so the
        query stays answerable anywhere in the region.

        The map keeps its points in x order, and each restriction is one
        call of :func:`smooth_at`.
        """
        features, (values, sigmas) = self._smoothed(loc, (self._values, self._sigmas))
        return features, values, sigmas

    def spread_arrays(self, loc: Location) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`query_arrays` of the spread layer alone: the indices of the
        features with an estimate and their smoothed sigmas."""
        features, (sigmas,) = self._smoothed(loc, (self._sigmas,))
        return features, sigmas

    def _smoothed(self, loc: Location, layers: tuple[np.ndarray, ...]):
        """The features with an estimate at ``loc``, ascending, and the
        (len(layers), features) estimates: :func:`smooth_at` within three
        bandwidths, else unrestricted."""
        h = self._config.bandwidth
        for cutoff in (3.0 * h, math.inf):
            features, estimates = smooth_at(self._by_x, self._xs, self._ys, self._present,
                                            layers, loc, self._config.ks_neighbors, h, cutoff)
            if features.size:
                break
        return features, estimates

    def query(self, loc: Location) -> list[RfmEntry]:
        """:meth:`query_arrays` as an entry list, ordered by feature id."""
        features, values, sigmas = self.query_arrays(loc)
        fids = self._feature_ids
        return [RfmEntry(fids[f], v, s)
                for f, v, s in zip(features.tolist(), values.tolist(), sigmas.tolist())]

    def remembered_row(self, key: Hashable, compute: Callable[[], tuple]) -> tuple:
        """The row remembered under ``key``, else the row ``compute()`` returns.

        A computed row is remembered while the map holds fewer than
        ``n_points`` rows; after that, rows are computed and not kept, so
        a caller that asks for one twice computes it twice.
        ``compute`` must depend on ``key`` and the map alone, and its
        arrays are made read-only, since every later caller shares them.
        """
        row = self._rows.get(key)
        if row is None:
            row = compute()
            for part in row:
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            with self._memo_lock:
                if key in self._rows or len(self._rows) < self.n_points:
                    row = self._rows.setdefault(key, row)
        return row

    def to_json(self) -> str:
        """The map as a format-3 document::

            {"format": 3, "config": {...}, "features": [ids],
             "locations": "<base64>", "v": "<base64>", "sigma": "<base64>"}

        ``features`` lists every feature id once, in strictly ascending
        order. ``locations`` is the (n, 2) array of reference coordinates,
        ``v`` and ``sigma`` the (n, features) value and spread layers, their
        columns in the order of ``features``; each is written row by row as
        the base64 of its little-endian float64 bytes. An absent cell is NaN
        in both layers, always the quiet NaN 0x7FF8000000000000, so the
        bytes do not depend on how the arithmetic produced it. Every float
        is kept bit for bit, signed zeros included. See the module
        docstring for a numpy decode.

        :meth:`from_json` still reads format 2, whose points list the
        indices of the features they carry with their values and sigmas,
        and format 1, the document without ``"format"`` whose points hold
        ``"entries"``, one ``{"id", "v", "sigma"}`` object per stored value.
        Writing such a map back out converts it to format 3.
        """
        fids = self._feature_ids
        order = sorted(range(len(fids)), key=fids.__getitem__)
        present = self._present[:, order]
        return json.dumps({"format": 3, "config": self._config.to_dict(),
                           "features": [fids[f] for f in order],
                           "locations": _packed(self._locations),
                           "v": _packed(np.where(present, self._values[:, order], _ABSENT)),
                           "sigma": _packed(np.where(present, self._sigmas[:, order], _ABSENT))})

    @classmethod
    def from_json(cls, text: str) -> "ExtendedRfm":
        """A map from a format-3 document (see :meth:`to_json`), or a format-2
        or format-1 one. Both older formats are read by one walk that checks
        each point's coordinates and then each of its entries, in document
        order, so the first fault in the document is the one named."""
        obj = json.loads(text)
        if "format" not in obj:
            decode = _format1_layers
        elif type(obj["format"]) is int and obj["format"] in _READERS:
            decode = _READERS[obj["format"]]
        else:
            raise ValueError(f"unknown map format {obj['format']!r}")
        config = BuilderConfig.from_dict(obj["config"])
        return cls(*decode(obj), config)

    def save(self, path) -> None:
        write_lines(path, [self.to_json()])

    @classmethod
    def load(cls, path) -> "ExtendedRfm":
        return read_document(path, cls.from_json, "reference map")


# The JSON value types of a number; a bool is never one.
_NUMBER = frozenset(_JSON_TYPES[float])


def _finite_number(c) -> bool:
    """Whether ``c`` is a JSON number with a finite float value; an int too
    large for a float has none."""
    try:
        return type(c) in _NUMBER and math.isfinite(c)
    except OverflowError:
        return False


def _check_coordinates(j: int, x, y) -> None:
    if not (_finite_number(x) and _finite_number(y)):
        raise ValueError(f"reference point {j} has x={x!r}, y={y!r}; "
                         f"coordinates must be finite numbers")


def _check_entry(j: int, fid, v, sigma) -> None:
    if not (type(fid) is str and fid and _finite_number(v) and _finite_number(sigma)):
        raise ValueError(f"feature {fid!r} at reference point {j} has v={v!r}, "
                         f"sigma={sigma!r}; feature ids must be non-empty "
                         f"strings and both values finite numbers")


def _format1_layers(obj: Mapping):
    """The reference locations, feature ids, value layer and sigma layer of
    a format-1 map, whose points list one ``{"id", "v", "sigma"}`` object
    per entry."""
    return _walked_layers(obj["points"], None, lambda j, pt: (
        (e["id"], e["v"], e["sigma"]) for e in pt["entries"]))


def _checked_features(features) -> list:
    """``features`` if it is a list of non-empty strings in strictly
    ascending order, the rule of formats 2 and 3."""
    if not (type(features) is list and set(map(type, features)) <= {str} and all(features)
            and all(map(operator.lt, features, features[1:]))):
        raise ValueError("features must be a list of non-empty strings in strictly "
                         "ascending order")
    return features


def _format2_layers(obj: Mapping):
    """:func:`_format1_layers` for a format-2 map, whose points list the
    indices, values and sigmas of their entries as ``f``, ``v`` and
    ``sigma``: lists of equal length, each index an int in [0, features)."""
    features = _checked_features(obj["features"])
    n = len(features)

    def entries(j: int, pt: Mapping):
        f, v, sigma = pt["f"], pt["v"], pt["sigma"]
        if not (type(f) is type(v) is type(sigma) is list and len(f) == len(v) == len(sigma)):
            raise ValueError(f"reference point {j} does not hold f, v and sigma as lists "
                             f"of equal length")
        for i, value, s in zip(f, v, sigma):
            if type(i) is not int or not 0 <= i < n:
                raise ValueError(f"feature index {i!r} at reference point {j} is not an "
                                 f"int in [0, {n})")
            yield features[i], value, s

    return _walked_layers(obj["points"], features, entries)


def _walked_layers(points: Iterable, feature_ids: Sequence[FeatureId] | None, entries):
    """The layers of a format-1 or format-2 map, its points checked one by
    one in document order: a point's coordinates, then each of the
    ``(feature id, v, sigma)`` entries ``entries(j, point)`` yields, so the
    first fault in the document is the one named. ``feature_ids`` are the
    map's columns, or None for the sorted ids its entries name."""
    coords, rows, fids, values, sigmas = [], [], [], [], []
    for j, pt in enumerate(points):
        x, y = pt["x"], pt["y"]
        _check_coordinates(j, x, y)
        coords.append((x, y))
        for fid, v, sigma in entries(j, pt):
            _check_entry(j, fid, v, sigma)
            rows.append(j)
            fids.append(fid)
            values.append(v)
            sigmas.append(sigma)
    if feature_ids is None:
        feature_ids = sorted(set(fids))
    index = {fid: i for i, fid in enumerate(feature_ids)}
    locations = np.array(coords, dtype=float).reshape(len(coords), 2)
    return _dense(locations, feature_ids, rows, [index[fid] for fid in fids], values, sigmas)


def _dense(locations: np.ndarray, feature_ids: Sequence[FeatureId], rows, cols, values,
           sigmas):
    """The locations, feature ids and (n, features) value and sigma layers
    holding the listed cells, NaN elsewhere; a cell listed twice raises."""
    n = len(locations)
    value_layer = np.full((n, len(feature_ids)), np.nan)
    sigma_layer = np.full((n, len(feature_ids)), np.nan)
    value_layer[rows, cols] = values
    sigma_layer[rows, cols] = sigmas
    # every listed value is finite: a cell listed twice leaves fewer finite cells
    if np.count_nonzero(np.isfinite(value_layer)) != len(values):
        raise _listed_twice(feature_ids, rows, cols)
    return locations, feature_ids, value_layer, sigma_layer


def _listed_twice(feature_ids: Sequence[FeatureId], rows, cols) -> ValueError:
    """The error naming the first entry, in document order, whose cell an
    earlier entry already lists."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    cells = rows * len(feature_ids) + cols
    order = np.argsort(cells, kind="stable")
    first = order[1:][cells[order[1:]] == cells[order[:-1]]].min()
    return ValueError(f"feature {feature_ids[cols[first]]!r} is listed twice at "
                      f"reference point {rows[first]}")


# The NaN an absent cell is written as, whatever NaN the layers hold there.
_ABSENT = np.uint64(0x7FF8000000000000).view(np.float64)


def _packed(layer: np.ndarray) -> str:
    """The base64 of ``layer``'s little-endian float64 bytes, row by row."""
    return base64.b64encode(np.ascontiguousarray(layer, "<f8").tobytes()).decode("ascii")


def _unpacked(obj: Mapping, key: str) -> np.ndarray:
    """The float64 array whose bytes :func:`_packed` wrote to ``obj[key]``,
    flat and read-only; anything but strict base64 of whole floats raises."""
    text = obj[key]
    if type(text) is not str:
        raise ValueError(f"{key} must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{key} is not base64: {exc}") from None
    if len(data) % 8:
        raise ValueError(f"{key} holds {len(data)} bytes, not whole float64s")
    return np.frombuffer(data, "<f8")


def _format3_layers(obj: Mapping):
    """The reference locations, feature ids, value layer and sigma layer of
    a format-3 map. Coordinates must be finite; per cell, ``v`` and
    ``sigma`` must both be finite or both NaN (absent)."""
    features = _checked_features(obj["features"])
    locations = _unpacked(obj, "locations")
    if not locations.size:
        raise ValueError("the map has no reference points")
    if locations.size % 2:
        raise ValueError(f"locations holds {8 * locations.size} bytes, not a multiple of 16")
    n = locations.size // 2
    locations = locations.reshape(n, 2)
    layers = []
    for key in ("v", "sigma"):
        layer = _unpacked(obj, key)
        if layer.size != n * len(features):
            raise ValueError(f"{key} holds {8 * layer.size} bytes, not 8 x {n} points x "
                             f"{len(features)} features")
        layers.append(layer.reshape(n, len(features)))
    values, sigmas = layers
    bad = ~np.isfinite(locations).all(axis=1)
    if bad.any():
        j = int(bad.argmax())
        _check_coordinates(j, *locations[j].tolist())
    bad = np.isinf(values) | np.isinf(sigmas) | (np.isnan(values) != np.isnan(sigmas))
    if bad.any():
        j, f = np.argwhere(bad)[0].tolist()
        _check_entry(j, features[f], float(values[j, f]), float(sigmas[j, f]))
    return locations, features, values, sigmas


_READERS = {2: _format2_layers, 3: _format3_layers}


# What a parser raises on malformed input, too deeply nested JSON included;
# readers turn it into a DataError.
_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def read_lines(path, parse, *, numbered: bool = False) -> list:
    """The items ``parse`` returns for the stripped non-blank lines of a UTF-8
    file, None results left out, each as a (line number, item) pair when
    ``numbered``; a line that is not UTF-8 or that ``parse`` rejects raises
    :class:`DataError` naming the file and line."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                item = parse(line) if line else None
            except _PARSE_ERRORS as exc:
                raise DataError(str(exc), source=path, line=lineno) from None
            if item is not None:
                out.append((lineno, item) if numbered else item)
    return out


def read_document(path, parse, what: str):
    """Parse a whole UTF-8 document with ``parse(text)``; malformed input
    raises :class:`DataError` naming the file and ``what`` it should hold."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        del data  # the text alone is kept while ``parse`` runs
        return parse(text)
    except _PARSE_ERRORS as exc:
        raise DataError(f"invalid {what}: {exc}", source=path) from exc


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each string as one line of a UTF-8 text file."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _json_line(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None


def _json_location(x, y) -> Location:
    return Location(_json_value(x, float, "x"), _json_value(y, float, "y"))


def fingerprint_to_obj(fp: Fingerprint) -> dict:
    x = fp.location.x if fp.location is not None else None
    y = fp.location.y if fp.location is not None else None
    return {"id": fp.id, "x": x, "y": y,
            "features": {k: fp.features[k] for k in sorted(fp.features)}}


def fingerprint_from_obj(obj: Mapping, *, missing_value: float | None = -110.0) -> Fingerprint:
    if not isinstance(obj, abc.Mapping):
        raise ValueError("each record must be a JSON object")
    try:
        rec_id = obj["id"]
        features = obj["features"]
    except KeyError as exc:
        raise ValueError(f"record is missing the {exc.args[0]!r} field") from None
    rec_id = _json_value(rec_id, int, "record id")
    x, y = obj.get("x"), obj.get("y")
    if (x is None) != (y is None):
        raise ValueError("x and y must be both present or both null")
    location = None
    if x is not None:
        location = _json_location(x, y)
    if not isinstance(features, abc.Mapping):
        raise ValueError("features must be an object of feature id to value")
    values = features.values()
    # a record of finite floats at or above the floor passes three C-level
    # passes (with every value finite, min is the smallest); any other is
    # walked feature by feature, so its first bad feature is named
    if set(map(type, values)) == {float} and all(map(math.isfinite, values)) and (
            missing_value is None or min(values) >= missing_value):
        return Fingerprint(rec_id, location, dict(features))
    parsed: dict[FeatureId, float] = {}
    number = _JSON_TYPES[float]  # _json_value's rule, inlined: this runs for every feature
    for key, value in features.items():
        if type(value) not in number:
            raise ValueError(f"feature {key!r} must be a JSON float, got {value!r}")
        value = float(value)
        if missing_value is not None and value < missing_value:
            raise ValueError(
                f"feature {key!r} is below the missing-value indicator ({missing_value})")
        parsed[key] = value
    return Fingerprint(rec_id, location, parsed)


def read_fingerprints(path, *, require_location: bool = False,
                      missing_value: float | None = -110.0) -> list[Fingerprint]:
    """Load fingerprint records from a JSON-lines file.

    Raises :class:`DataError` naming the file and line on any malformed
    record, including feature values below the missing-value indicator.
    """
    def parse(line: str) -> Fingerprint:
        fp = fingerprint_from_obj(_json_line(line), missing_value=missing_value)
        if require_location and fp.location is None:
            raise ValueError("record has no ground-truth location")
        return fp

    records = read_lines(path, parse)
    if not records:
        raise DataError("no records found", source=path)
    return records


def write_fingerprints(path, fingerprints: Iterable[Fingerprint]) -> None:
    write_lines(path, (json.dumps(fingerprint_to_obj(fp)) for fp in fingerprints))


def estimate_to_obj(est: PositionEstimate) -> dict:
    return {
        "id": est.query_id,
        "x": est.location.x,
        "y": est.location.y,
        "tf": int(est.tf),
        "iterations": est.iterations,
        "path": [[p.x, p.y] for p in est.path],
        "loop_points": None if est.loop_points is None
        else [[p.x, p.y] for p in est.loop_points],
    }


def estimate_from_obj(obj: Mapping) -> PositionEstimate:
    try:
        location = _json_location(obj["x"], obj["y"])
        tf = Termination(_json_value(obj["tf"], int, "tf"))
        iterations = _json_value(obj["iterations"], int, "iterations")
        path = tuple(_json_location(x, y) for x, y in obj["path"])
        if not path:
            raise ValueError("path is empty; it starts with the initialization")
        loops = obj.get("loop_points")
        loop_points = None if loops is None else tuple(
            _json_location(x, y) for x, y in loops)
        query_id = None if obj.get("id") is None else _json_value(obj["id"], int, "id")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed estimate: {exc}") from None
    return PositionEstimate(location, tf, iterations, path, loop_points, query_id)


def read_estimates(path, *, numbered: bool = False) -> list:
    """Position estimates from a JSON-lines file, as :func:`read_lines` gives them."""
    out = read_lines(path, lambda line: estimate_from_obj(_json_line(line)),
                     numbered=numbered)
    if not out:
        raise DataError("no estimates found", source=path)
    return out


def write_estimates(path, estimates: Iterable[PositionEstimate]) -> None:
    write_lines(path, (json.dumps(estimate_to_obj(est)) for est in estimates))
