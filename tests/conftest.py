"""Shared helpers: direct construction of small extended maps and raw
surveys without running the builder pipeline, a test-side writer of the
older map format 2, and an editor of format-3 layers."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from rfmloc.builder import BuilderConfig
from rfmloc.model import ExtendedRfm, Fingerprint, Location, RawRfm, Rect


def make_rfm(locations, features, values, sigmas=None,
             config: BuilderConfig | None = None) -> ExtendedRfm:
    """Assemble an extended map directly from dense per-point layers.

    ``values`` is (n_points, n_features) with NaN for absent entries;
    ``sigmas`` defaults to a constant 0.5 wherever a value is present.
    """
    values = np.asarray(values, dtype=float)
    if sigmas is None:
        sigmas = np.where(np.isfinite(values), 0.5, np.nan)
    else:
        sigmas = np.asarray(sigmas, dtype=float)
    return ExtendedRfm(np.asarray(locations, dtype=float), list(features),
                       values, sigmas, config or BuilderConfig())


def per_entry_format_2(rfm: ExtendedRfm) -> str:
    """The map as a format-2 document, written entry by entry: the format
    the map writer used before format 3, kept so tests can hand its reader
    documents, edited or not."""
    features = sorted(rfm.feature_ids)
    index = {fid: i for i, fid in enumerate(features)}
    points = []
    for j in range(rfm.n_points):
        x, y = rfm.locations[j]
        entries = sorted(rfm.entries_at(j), key=lambda e: index[e.feature])
        points.append({"x": float(x), "y": float(y),
                       "f": [index[e.feature] for e in entries],
                       "v": [e.value for e in entries],
                       "sigma": [e.sigma for e in entries]})
    return json.dumps({"format": 2, "config": rfm.builder_config.to_dict(),
                       "features": features, "points": points})


def edit_layer(obj: dict, key: str, edit) -> dict:
    """``obj``, a format-3 map document, with ``edit`` applied to a writable
    (points, columns) float64 copy of its layer ``key``; when ``edit``
    returns bytes, they replace the layer's bytes instead."""
    width = 2 if key == "locations" else len(obj["features"])
    layer = np.frombuffer(base64.b64decode(obj[key]), "<f8").reshape(-1, width).copy()
    data = edit(layer)
    obj[key] = base64.b64encode(layer.tobytes() if data is None else data).decode("ascii")
    return obj


def random_rfm(rng: np.random.Generator, n_points: int, n_features: int,
               extent: float = 30.0, density: float = 1.0,
               sigma_range: tuple[float, float] = (0.5, 0.5),
               config: BuilderConfig | None = None) -> ExtendedRfm:
    """A random map: uniform locations, random presence mask (every point
    keeps at least one feature), values in a plausible dBm range."""
    locations = rng.uniform(0.0, extent, size=(n_points, 2))
    values = rng.uniform(-100.0, -40.0, size=(n_points, n_features))
    if density < 1.0:
        absent = rng.random((n_points, n_features)) >= density
        for j in range(n_points):  # keep every point observable
            if absent[j].all():
                absent[j, rng.integers(n_features)] = False
        values[absent] = np.nan
    lo, hi = sigma_range
    sigmas = np.where(np.isfinite(values), rng.uniform(lo, hi, values.shape), np.nan)
    features = [f"02:00:00:00:00:{i:02x}" for i in range(n_features)]
    return make_rfm(locations, features, values, sigmas, config)


# x coordinates on y = 0 whose distances round onto a cutoff beyond the
# rounded window x ± cutoff: fl(2.1 - (-0.9)) is 3, but fl(2.1 - 3) lies
# above -0.9. Likewise -2.1 and 0.9 at 3, ±1.1 and ∓0.9 at 2, and ±0.9
# and ∓0.1 at 1.
ROUNDING_XS = (-2.1, -1.1, -0.9, -0.1, 0.1, 0.9, 1.1, 2.1)


def awkward_locations() -> np.ndarray:
    """Locations a candidate search must treat exactly: the rounding pairs
    of ``ROUNDING_XS`` on the x axis, a grid whose columns share x and
    whose nodes lie exactly 0.5 and 1 apart, and duplicates. They are
    listed by descending x, so distance ties fall in a different order by
    index than by x."""
    axis = [(x, 0.0) for x in ROUNDING_XS]
    grid = [(x, y) for x in (4.0, 5.0, 6.0) for y in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    duplicates = [(2.1, 0.0), (5.0, 0.0), (5.0, 0.0)]
    return np.array(sorted(axis + grid + duplicates, reverse=True))


def make_fp(features: dict, fp_id: int = 0, location: Location | None = None) -> Fingerprint:
    return Fingerprint(fp_id, location, features)


def grid_raw(values_by_location: dict[tuple[float, float], dict[str, float]],
             start_id: int = 0) -> RawRfm:
    """Raw survey from an explicit {(x, y): {feature: value}} mapping."""
    records = []
    for i, ((x, y), feats) in enumerate(values_by_location.items()):
        records.append(Fingerprint(start_id + i, Location(x, y), dict(feats)))
    return RawRfm.from_records(records)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)
