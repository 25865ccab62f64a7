"""Synthetic survey generator with a known ground-truth noise field.

Signal strength follows a log-distance path loss model per access point,
with heteroscedastic Gaussian noise whose standard deviation varies
smoothly over the region (a base level plus random Gaussian bumps,
clipped to a physical range). Values below the sensitivity threshold are
dropped from the fingerprint, censoring coverage exactly the way a real
receiver would. Surveys walk random waypoint legs across the region and
sample at a fixed spacing; a held-out share of the samples becomes the
test set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from rfmloc.model import (FeatureId, Fingerprint, Location, RawRfm, Rect, _json_location,
                          _json_value, read_document, write_lines)

_LEGS_PER_PASS = 10
_TEST_SHARE = 0.2
_SIGMA_RANGE = (0.5, 8.0)


@dataclass(frozen=True)
class AccessPoint:
    """A transmitter: feature id, position, reference power at 1 m (dBm),
    and path loss exponent."""

    feature_id: FeatureId
    location: Location
    tx_power: float
    exponent: float


@dataclass(frozen=True)
class BumpField:
    """Smooth positive scalar field: base level plus Gaussian bumps, clipped."""

    base: float
    bumps: tuple[tuple[float, float, float, float], ...]  # (x, y, amplitude, width)
    lo: float = _SIGMA_RANGE[0]
    hi: float = _SIGMA_RANGE[1]

    def value(self, loc: Location) -> float:
        total = self.base
        for x, y, amp, width in self.bumps:
            d2 = (loc.x - x) ** 2 + (loc.y - y) ** 2
            total += amp * math.exp(-d2 / (2.0 * width * width))
        return min(max(total, self.lo), self.hi)


@dataclass(frozen=True)
class SyntheticEnvironment:
    """Everything needed to sample fingerprints reproducibly."""

    seed: int
    roi: Rect
    aps: tuple[AccessPoint, ...]
    noise_fields: tuple[BumpField, ...]
    sensitivity: float = -110.0
    contamination: float = 0.0

    def __post_init__(self):
        if len(self.aps) != len(self.noise_fields):
            raise ValueError("each access point needs its own noise field")
        if not 0.0 <= self.contamination < 1.0:
            raise ValueError("contamination must be a fraction below 1")

    def sigma_true(self, ap_index: int, loc: Location) -> float:
        """Ground-truth noise standard deviation of one feature at a location."""
        return self.noise_fields[ap_index].value(loc)

    def to_json(self) -> str:
        aps = []
        for ap, nf in zip(self.aps, self.noise_fields):
            aps.append({
                "id": ap.feature_id,
                "x": ap.location.x, "y": ap.location.y,
                "tx_power": ap.tx_power, "exponent": ap.exponent,
                "noise": {"base": nf.base, "lo": nf.lo, "hi": nf.hi,
                          "bumps": [list(b) for b in nf.bumps]},
            })
        return json.dumps({"seed": self.seed, "roi": self.roi.to_dict(),
                           "sensitivity": self.sensitivity,
                           "contamination": self.contamination, "aps": aps})

    @classmethod
    def from_json(cls, text: str) -> "SyntheticEnvironment":
        obj = json.loads(text)
        aps = []
        fields = []
        for entry in obj["aps"]:
            aps.append(AccessPoint(_json_value(entry["id"], str, "id"),
                                   _json_location(entry["x"], entry["y"]),
                                   _json_value(entry["tx_power"], float, "tx_power"),
                                   _json_value(entry["exponent"], float, "exponent")))
            noise = entry["noise"]
            fields.append(BumpField(
                _json_value(noise["base"], float, "base"),
                tuple(tuple(_json_value(v, float, "bump") for v in b) for b in noise["bumps"]),
                _json_value(noise["lo"], float, "lo"), _json_value(noise["hi"], float, "hi")))
        return cls(_json_value(obj["seed"], int, "seed"), Rect.from_dict(obj["roi"]),
                   tuple(aps), tuple(fields),
                   _json_value(obj["sensitivity"], float, "sensitivity"),
                   _json_value(obj["contamination"], float, "contamination"))

    def save(self, path) -> None:
        write_lines(path, [self.to_json()])

    @classmethod
    def load(cls, path) -> "SyntheticEnvironment":
        return read_document(path, cls.from_json, "environment")


@dataclass(frozen=True)
class SurveyPlan:
    """Survey walk parameters."""

    seed: int
    n_passes: int = 3
    sample_spacing: float = 1.0

    def __post_init__(self):
        if self.n_passes < 1:
            raise ValueError("n_passes must be at least 1")
        if self.sample_spacing <= 0:
            raise ValueError("sample_spacing must be positive")


def make_environment(seed: int, *, width: float = 50.0, height: float = 30.0,
                     n_aps: int = 12, contamination: float = 0.0,
                     sensitivity: float = -110.0) -> SyntheticEnvironment:
    """Draw a random environment: access point layout, powers, noise fields."""
    if n_aps < 1:
        raise ValueError(f"n_aps must be at least 1, got {n_aps}")
    rng = np.random.default_rng([seed, 0xE17])
    roi = Rect(0.0, 0.0, width, height)
    aps = []
    fields = []
    for i in range(n_aps):
        loc = Location(float(rng.uniform(0, width)), float(rng.uniform(0, height)))
        aps.append(AccessPoint(
            feature_id=f"02:00:00:00:{i // 256:02x}:{i % 256:02x}",
            location=loc,
            tx_power=float(rng.uniform(-45.0, -30.0)),
            exponent=float(rng.uniform(2.0, 4.0)),
        ))
        n_bumps = int(rng.integers(2, 6))
        bumps = tuple(
            (float(rng.uniform(0, width)), float(rng.uniform(0, height)),
             float(rng.uniform(0.8, 5.5)), float(rng.uniform(2.5, 9.0)))
            for _ in range(n_bumps))
        fields.append(BumpField(base=float(rng.uniform(0.7, 1.8)), bumps=bumps))
    return SyntheticEnvironment(seed, roi, tuple(aps), tuple(fields),
                                sensitivity, contamination)


def expected_rss(env: SyntheticEnvironment, ap: AccessPoint, loc: Location) -> float:
    """Log-distance path loss; distances are clamped below at 1 m."""
    d = max(ap.location.distance_to(loc), 1.0)
    return ap.tx_power - 10.0 * ap.exponent * math.log10(d)


def sample_fingerprint(env: SyntheticEnvironment, loc: Location,
                       rng: np.random.Generator, record_id: int = 0) -> Fingerprint:
    """One noisy measurement at ``loc``; sub-sensitivity features are dropped.

    With contamination enabled, each feature value independently receives a
    uniform positive offset of 10 to 30 dBm with the configured probability.
    """
    features: dict[FeatureId, float] = {}
    for i, ap in enumerate(env.aps):
        value = expected_rss(env, ap, loc) + env.sigma_true(i, loc) * rng.standard_normal()
        if env.contamination > 0.0 and rng.random() < env.contamination:
            value += rng.uniform(10.0, 30.0)
        if value >= env.sensitivity:
            features[ap.feature_id] = float(value)
    return Fingerprint(record_id, loc, features)


def _pass_points(env: SyntheticEnvironment, plan: SurveyPlan, index: int) -> list[Location]:
    rng = np.random.default_rng([env.seed & 0x7FFFFFFF, plan.seed & 0x7FFFFFFF, 101 + index])
    roi = env.roi

    def waypoint() -> np.ndarray:
        return np.array([rng.uniform(roi.xmin, roi.xmax), rng.uniform(roi.ymin, roi.ymax)])

    pos = waypoint()
    points = [Location(float(pos[0]), float(pos[1]))]
    for _ in range(_LEGS_PER_PASS):
        target = waypoint()
        leg = target - pos
        length = float(np.hypot(*leg))
        steps = int(length / plan.sample_spacing)
        for s in range(1, steps + 1):
            p = pos + leg * (s * plan.sample_spacing / length)
            points.append(Location(float(p[0]), float(p[1])))
        pos = target
    return points


def generate_dataset(env: SyntheticEnvironment,
                     plan: SurveyPlan) -> tuple[RawRfm, list[Fingerprint]]:
    """Simulate the survey and split off the held-out test set.

    Returns the raw reference map (80% of the samples) and the test
    fingerprints (20%, ground truth retained). The two location sets are
    disjoint. Fully deterministic in (env.seed, plan.seed).
    """
    points: list[Location] = []
    for index in range(plan.n_passes):
        points.extend(_pass_points(env, plan, index))

    rng = np.random.default_rng([env.seed & 0x7FFFFFFF, plan.seed & 0x7FFFFFFF, 7])
    records = [sample_fingerprint(env, loc, rng, record_id=i)
               for i, loc in enumerate(points)]

    split_rng = np.random.default_rng([env.seed & 0x7FFFFFFF, plan.seed & 0x7FFFFFFF, 13])
    n_test = int(round(_TEST_SHARE * len(records)))
    test_idx = set(map(int, split_rng.choice(len(records), size=n_test, replace=False)))
    train = [rec for i, rec in enumerate(records) if i not in test_idx]
    test = [records[i] for i in sorted(test_idx)]
    return RawRfm.from_records(train, env.roi), test
