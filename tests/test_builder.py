"""Reference map construction: filtering, smoothing, deviation layers."""

import math
import warnings

import numpy as np
import pytest

from rfmloc import builder
from rfmloc.builder import (BuilderConfig, EmptyNeighborhood, build,
                            estimate_std, kernel_smooth, neighborhood,
                            spatial_median_filter)
from rfmloc.model import Fingerprint, Location, RawRfm
from tests.conftest import awkward_locations, grid_raw, make_fp

CFG = BuilderConfig()


class TestBuilderConfig:
    def test_defaults(self):
        assert CFG.max_neighbors == 20
        assert CFG.radius == 2.0
        assert CFG.ks_neighbors == 20
        assert CFG.bandwidth == 1.0
        assert CFG.mad_scale == pytest.approx(1.4826)
        assert CFG.sigma_floor == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"max_neighbors": 0}, {"radius": 0.0}, {"bandwidth": -1.0},
        {"sigma_floor": -0.1}, {"mad_scale": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BuilderConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = BuilderConfig(radius=3.5, ks_neighbors=7)
        assert BuilderConfig.from_dict(cfg.to_dict()) == cfg


class TestNeighborhood:
    def test_radius_excludes_far_records(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0},
                        (1.0, 0.0): {"a": -61.0},
                        (5.0, 0.0): {"a": -62.0}})
        nb = neighborhood(raw, Location(0.0, 0.0), CFG)
        assert {m[0].x for m in nb.members} == {0.0, 1.0}

    def test_cap_keeps_nearest(self):
        records = {(float(i) * 0.1, 0.0): {"a": -60.0 - i} for i in range(10)}
        raw = grid_raw(records)
        nb = neighborhood(raw, Location(0.0, 0.0), BuilderConfig(max_neighbors=4))
        xs = sorted(m[0].x for m in nb.members)
        assert xs == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_distance_ties_broken_by_record_id(self):
        recs = [Fingerprint(5, Location(1.0, 0.0), {"a": -60.0}),
                Fingerprint(2, Location(-1.0, 0.0), {"a": -61.0}),
                Fingerprint(9, Location(0.0, 1.0), {"a": -62.0}),
                Fingerprint(1, Location(0.0, -1.0), {"a": -63.0})]
        raw = RawRfm.from_records(recs)
        nb = neighborhood(raw, Location(0.0, 0.0), BuilderConfig(max_neighbors=2))
        assert [m[1].id for m in nb.members] == [1, 2]

    def test_empty_raises(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0}, (9.0, 9.0): {"a": -61.0}})
        with pytest.raises(EmptyNeighborhood):
            neighborhood(raw, Location(5.0, 0.0), BuilderConfig(radius=1.0))


class TestSpatialMedianFilter:
    def test_odd_count_takes_middle(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0},
                        (0.5, 0.0): {"a": -62.0},
                        (1.0, 0.0): {"a": -100.0}})
        out = spatial_median_filter(raw, CFG)
        by_loc = {(r.location.x, r.location.y): r.features for r in out.records}
        assert by_loc[(0.5, 0.0)]["a"] == -62.0

    def test_even_count_averages_middle_pair(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0},
                        (1.0, 0.0): {"a": -64.0}})
        out = spatial_median_filter(raw, CFG)
        for r in out.records:
            assert r.features["a"] == -62.0

    def test_feature_absent_everywhere_nearby_stays_absent(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0},
                        (30.0, 0.0): {"b": -70.0}})
        out = spatial_median_filter(raw, CFG)
        by_loc = {(r.location.x, r.location.y): r.features for r in out.records}
        assert "b" not in by_loc[(0.0, 0.0)]
        assert "a" not in by_loc[(30.0, 0.0)]

    def test_median_ignores_records_missing_the_feature(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0, "b": -80.0},
                        (0.5, 0.0): {"a": -62.0},
                        (1.0, 0.0): {"a": -100.0, "b": -82.0}})
        out = spatial_median_filter(raw, CFG)
        by_loc = {(r.location.x, r.location.y): r.features for r in out.records}
        # b has two carriers in range: mean of the pair
        assert by_loc[(0.5, 0.0)]["b"] == -81.0

    def test_suppresses_isolated_outlier(self):
        pts = {(float(i), 0.0): {"a": -60.0} for i in range(5)}
        pts[(2.0, 0.0)] = {"a": -20.0}
        out = spatial_median_filter(grid_raw(pts), CFG)
        by_loc = {(r.location.x, r.location.y): r.features for r in out.records}
        assert by_loc[(2.0, 0.0)]["a"] == -60.0

    def test_preserves_roi_and_ids(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0}, (3.0, 4.0): {"a": -61.0}})
        out = spatial_median_filter(raw, CFG)
        assert out.roi == raw.roi
        assert [r.id for r in out.records] == [r.id for r in raw.records]


class TestKernelSmooth:
    def test_two_point_hand_oracle(self):
        # carriers at distance 1 and 2, bandwidth 1:
        # weights exp(-0.5), exp(-2); value is their weighted mean
        raw = grid_raw({(1.0, 0.0): {"a": -60.0}, (2.0, 0.0): {"a": -66.0}})
        got = kernel_smooth(raw, Location(0.0, 0.0), CFG)
        w1, w2 = math.exp(-0.5), math.exp(-2.0)
        expected = (w1 * -60.0 + w2 * -66.0) / (w1 + w2)
        assert got == [("a", pytest.approx(expected, rel=1e-12))]

    def test_exact_at_carrier_with_single_record(self):
        raw = grid_raw({(1.0, 1.0): {"a": -55.0}})
        assert kernel_smooth(raw, Location(1.0, 1.0), CFG) == [("a", -55.0)]

    def test_nearest_cap_applies(self):
        pts = {(float(i) * 0.2, 0.0): {"a": -50.0 - i} for i in range(1, 8)}
        cfg = BuilderConfig(ks_neighbors=2)
        got = dict(kernel_smooth(grid_raw(pts), Location(0.0, 0.0), cfg))
        # only the two nearest carriers (-51, -52) participate
        w1, w2 = math.exp(-0.5 * 0.2 ** 2), math.exp(-0.5 * 0.4 ** 2)
        expected = (w1 * -51.0 + w2 * -52.0) / (w1 + w2)
        assert got["a"] == pytest.approx(expected, rel=1e-12)

    def test_constant_field_property(self, rng):
        n = 30
        pts = {(float(x), float(y)): {"a": -64.0}
               for x, y in rng.uniform(0, 15, size=(n, 2))}
        raw = grid_raw(pts)
        for _ in range(200):
            at = Location(float(rng.uniform(0, 15)), float(rng.uniform(0, 15)))
            got = dict(kernel_smooth(raw, at, CFG))
            if "a" in got:
                assert got["a"] == pytest.approx(-64.0, abs=1e-9)

    def test_range_cutoff(self):
        raw = grid_raw({(10.0, 0.0): {"a": -60.0}})
        assert kernel_smooth(raw, Location(0.0, 0.0), CFG) == []


class TestEstimateStd:
    def _smoother(self, value):
        return lambda loc: {"a": value}

    def _raw_at_center(self, values):
        pts = {}
        for i, v in enumerate(values):
            pts[(0.01 * i, 0.0)] = {"a": v}
        return grid_raw(pts)

    def test_mad_hand_oracle_with_outlier(self):
        # residuals {-2,-1,0,1,97}: |res| sorted {0,1,1,2,97}, median 1
        raw = self._raw_at_center([-62.0, -61.0, -60.0, -59.0, 37.0])
        got = dict(estimate_std(raw, self._smoother(-60.0), Location(0.0, 0.0), CFG))
        assert got["a"] == pytest.approx(1.4826, rel=1e-12)

    def test_mad_two_residuals(self):
        # residuals {-3, 3}: median |res| = 3, sigma = 4.4478
        raw = self._raw_at_center([-63.0, -57.0])
        got = dict(estimate_std(raw, self._smoother(-60.0), Location(0.0, 0.0), CFG))
        assert got["a"] == pytest.approx(3 * 1.4826, rel=1e-12)

    def test_zero_spread_hits_floor(self):
        raw = self._raw_at_center([-60.0] * 6)
        got = dict(estimate_std(raw, self._smoother(-60.0), Location(0.0, 0.0), CFG))
        assert got["a"] == CFG.sigma_floor

    def test_single_residual_hits_floor(self):
        raw = self._raw_at_center([-40.0])
        got = dict(estimate_std(raw, self._smoother(-60.0), Location(0.0, 0.0), CFG))
        assert got["a"] == CFG.sigma_floor

    def test_translation_invariance(self, rng):
        for _ in range(200):
            vals = list(rng.uniform(-90, -50, size=int(rng.integers(2, 15))))
            shift = float(rng.uniform(-20, 20))
            raw_a = self._raw_at_center(vals)
            raw_b = self._raw_at_center([v + shift for v in vals])
            a = dict(estimate_std(raw_a, self._smoother(-60.0), Location(0.0, 0.0), CFG))
            b = dict(estimate_std(raw_b, self._smoother(-60.0 + shift),
                                  Location(0.0, 0.0), CFG))
            assert b["a"] == pytest.approx(a["a"], rel=1e-9, abs=1e-9)

    def test_never_below_floor_property(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 12))
            vals = list(rng.uniform(-100, -40, size=n))
            raw = self._raw_at_center(vals)
            center = float(np.median(vals))
            got = dict(estimate_std(raw, self._smoother(center), Location(0.0, 0.0), CFG))
            assert got["a"] >= CFG.sigma_floor


class TestBuild:
    def test_reference_points_follow_survey(self):
        raw = grid_raw({(0.0, 0.0): {"a": -60.0}, (2.0, 0.0): {"a": -62.0}})
        rfm = build(raw)
        assert rfm.n_points == 2
        assert rfm.feature_ids == ("a",)

    def test_outlier_smoothed_in_value_layer(self):
        pts = {(float(i) * 0.5, 0.0): {"a": -60.0} for i in range(9)}
        pts[(2.0, 0.0)] = {"a": -10.0}
        rfm = build(grid_raw(pts))
        idx = [i for i in range(rfm.n_points)
               if rfm.location_at(i) == Location(2.0, 0.0)][0]
        entry = rfm.entries_at(idx)[0]
        assert abs(entry.value - -60.0) < 2.0

    def test_sigma_layer_reflects_local_noise(self):
        rng = np.random.default_rng(7)
        quiet = {(float(x) * 0.4, 0.0): {"a": -60.0 + float(rng.normal(0, 0.3))}
                 for x in range(25)}
        noisy = {(float(x) * 0.4, 20.0): {"a": -60.0 + float(rng.normal(0, 5.0))}
                 for x in range(25)}
        rfm = build(RawRfm.from_records(
            [r for r in grid_raw({**quiet, **noisy}).records]))
        quiet_sigma = [rfm.entries_at(i)[0].sigma for i in range(rfm.n_points)
                       if rfm.location_at(i).y == 0.0]
        noisy_sigma = [rfm.entries_at(i)[0].sigma for i in range(rfm.n_points)
                       if rfm.location_at(i).y == 20.0]
        assert np.median(noisy_sigma) > 2 * np.median(quiet_sigma)

    def test_std_estimator_variant(self):
        pts = {(float(i) * 0.3, 0.0): {"a": -60.0 + (i % 3 - 1) * 2.0}
               for i in range(12)}
        raw = grid_raw(pts)
        mad_rfm = build(raw, std_estimator="mad")
        std_rfm = build(raw, std_estimator="std")
        assert mad_rfm.n_points == std_rfm.n_points
        with pytest.raises(ValueError):
            build(raw, std_estimator="iqr")

    def test_deterministic_bytes(self, rng):
        pts = {(float(x), float(y)): {"a": float(v), "b": float(v) - 10}
               for (x, y), v in zip(rng.uniform(0, 10, size=(40, 2)),
                                    rng.uniform(-90, -50, size=40))}
        raw = grid_raw(pts)
        assert build(raw).to_json() == build(raw).to_json()

    def test_mad_resists_contamination_better_than_std(self, rng):
        # a ~20% contaminated neighborhood should barely move the MAD sigma
        base = {(float(i) * 0.25, 0.0): {"a": -60.0 + float(rng.normal(0, 1.0))}
                for i in range(20)}
        spiked = dict(base)
        for i in (3, 9, 15, 18):
            x = float(i) * 0.25
            spiked[(x, 0.0)] = {"a": base[(x, 0.0)]["a"] + 25.0}
        cfg = BuilderConfig(radius=50.0, max_neighbors=100, ks_neighbors=100)
        sig = {}
        for name, pts in (("clean", base), ("dirty", spiked)):
            for kind in ("mad", "std"):
                rfm = build(grid_raw(pts), cfg, std_estimator=kind)
                sig[(name, kind)] = float(np.median(rfm.sigmas[rfm.sigmas == rfm.sigmas]))
        mad_ratio = sig[("dirty", "mad")] / sig[("clean", "mad")]
        std_ratio = sig[("dirty", "std")] / sig[("clean", "std")]
        assert mad_ratio < std_ratio

    @pytest.mark.parametrize("ks, bandwidth", [(1, 1.0), (3, 0.5), (20, 1.0), (20, 2.5)])
    def test_value_layer_equals_per_record_kernel_smooth(self, rng, ks, bandwidth):
        # oracle: the scalar smoother over the filtered layer at every record
        pts = {}
        for x, y in rng.uniform(0, 12, size=(70, 2)):
            pts[(float(x), float(y))] = {f: float(rng.uniform(-95, -45))
                                         for f in "abcdef" if rng.random() < 0.55}
        pts[(0.0, 0.0)] = {}  # a record that heard nothing
        raw = grid_raw(pts)
        cfg = BuilderConfig(ks_neighbors=ks, bandwidth=bandwidth, radius=1.0)
        rfm = build(raw, cfg)
        filtered = spatial_median_filter(raw, cfg)
        _, locs, feature_ids, matrix = builder._record_layers(filtered)
        for j, rec in enumerate(filtered.records):
            expected = dict(builder._kernel_smooth(locs, feature_ids, matrix, rec.location, cfg))
            for f, fid in enumerate(rfm.feature_ids):
                if fid in rec.features:
                    assert rfm.values[j, f] == expected[fid]
                else:
                    assert np.isnan(rfm.values[j, f])


# ------------------------------------------------------------ layer oracles
# Per-record and per-(record, feature) copies of the filter and spread
# rules, kept as references for the column-wise builder.

def _dense_survey(raw):
    feature_ids = sorted({a for rec in raw.records for a in rec.features})
    matrix = np.array([[rec.features.get(a, np.nan) for a in feature_ids]
                       for rec in raw.records], dtype=float)
    return feature_ids, matrix.reshape(len(raw.records), len(feature_ids))


def _oracle_supports(raw, cfg):
    ids = np.array([rec.id for rec in raw.records])
    locs = np.array([[rec.location.x, rec.location.y] for rec in raw.records])
    supports = []
    for x, y in locs:
        d = np.hypot(locs[:, 0] - x, locs[:, 1] - y)
        within = np.nonzero(d <= cfg.radius)[0]
        supports.append(within[np.lexsort((ids[within], d[within]))][:cfg.max_neighbors])
    return supports


def _oracle_median_filter(matrix, supports):
    filtered = np.full_like(matrix, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for j, sel in enumerate(supports):
            block = matrix[sel]
            observed = np.isfinite(block).any(axis=0)
            med = np.nanmedian(block, axis=0)
            filtered[j, observed] = med[observed]
    return filtered


def _oracle_sigmas(matrix, filtered, smoothed, supports, cfg, std_estimator):
    residual = np.where(np.isfinite(matrix), matrix - smoothed, np.nan)
    sigmas = np.full_like(matrix, np.nan)
    for j, sel in enumerate(supports):
        block = residual[sel]
        for f in np.nonzero(np.isfinite(filtered[j]))[0]:
            res = block[:, f]
            res = res[np.isfinite(res)]
            if res.size >= 2:
                if std_estimator == "mad":
                    spread = cfg.mad_scale * float(np.median(np.abs(res)))
                else:
                    spread = float(np.std(res, ddof=1))
                sigmas[j, f] = max(spread, cfg.sigma_floor)
            else:
                sigmas[j, f] = cfg.sigma_floor
    return sigmas


def _oracle_survey(seed, n, extent):
    """Random survey plus a record that heard nothing and a feature "z"
    heard by one record only, so every support holding that record has
    exactly one "z" residual."""
    rng = np.random.default_rng(seed)
    pts = {}
    for x, y in rng.uniform(0, extent, size=(n, 2)):
        pts[(float(x), float(y))] = {f: float(rng.uniform(-95, -45))
                                     for f in "abcdef" if rng.random() < 0.6}
    pts[(0.0, 0.0)] = {}
    pts[(extent / 2, extent / 2)] = {"a": -70.0, "z": -80.0}
    return grid_raw(pts)


# (records, extent, radius, max_neighbors); the last case puts all 652
# records in every support, past the 600-element size at which numpy's
# nanmedian changes algorithm
ORACLE_CASES = [(80, 12.0, 1.0, 4), (80, 12.0, 2.0, 20), (80, 12.0, 3.0, 20),
                (650, 3.0, 10.0, 700)]


class TestLayerOracles:
    @pytest.mark.parametrize("n, extent, radius, cap", ORACLE_CASES)
    def test_filter_and_spread_equal_per_record_loops(self, n, extent, radius, cap):
        raw = _oracle_survey(11, n, extent)
        cfg = BuilderConfig(radius=radius, max_neighbors=cap)
        feature_ids, matrix = _dense_survey(raw)
        supports = _oracle_supports(raw, cfg)
        filtered = _oracle_median_filter(matrix, supports)

        out = spatial_median_filter(raw, cfg)
        for j, rec in enumerate(out.records):
            present = np.nonzero(np.isfinite(filtered[j]))[0]
            assert rec.features == {feature_ids[f]: filtered[j, f] for f in present}

        mad = build(raw, cfg)
        assert list(mad.feature_ids) == feature_ids
        np.testing.assert_array_equal(
            mad.sigmas, _oracle_sigmas(matrix, filtered, mad.values, supports, cfg, "mad"))

        std = build(raw, cfg, std_estimator="std")
        expected = _oracle_sigmas(matrix, filtered, std.values, supports, cfg, "std")
        np.testing.assert_array_equal(np.isnan(std.sigmas), np.isnan(expected))
        np.testing.assert_allclose(std.sigmas, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, extent, radius, cap", ORACLE_CASES[:3])
    def test_estimate_std_equals_build_sigmas(self, n, extent, radius, cap):
        raw = _oracle_survey(12, n, extent)
        cfg = BuilderConfig(radius=radius, max_neighbors=cap)
        rfm = build(raw, cfg)
        filtered = spatial_median_filter(raw, cfg)
        _, locs, feature_ids, matrix = builder._record_layers(filtered)
        smoothed = {}

        def smoothed_at(loc):
            if loc not in smoothed:
                smoothed[loc] = dict(builder._kernel_smooth(locs, feature_ids, matrix, loc, cfg))
            return smoothed[loc]

        for j, rec in enumerate(raw.records):
            present = np.nonzero(np.isfinite(rfm.sigmas[j]))[0]
            expected = {rfm.feature_ids[f]: rfm.sigmas[j, f] for f in present}
            assert dict(estimate_std(raw, smoothed_at, rec.location, cfg)) == expected

    @pytest.mark.parametrize("block_values", [None, 997, 50])
    def test_chunked_build_equals_oracles(self, monkeypatch, block_values):
        # a survey spanning several blocks, its record count no multiple of
        # the records per block; 50 values leave one record per block
        if block_values is not None:
            monkeypatch.setattr(builder, "_BLOCK_VALUES", block_values)
        raw = _oracle_survey(13, 599, 18.0)
        cfg = BuilderConfig(radius=2.0, max_neighbors=20)
        feature_ids, matrix = _dense_survey(raw)
        supports = _oracle_supports(raw, cfg)
        width = max(sel.size for sel in supports)
        rows = max(1, builder._BLOCK_VALUES // (width * len(feature_ids)))
        assert len(raw.records) > rows and (rows == 1 or len(raw.records) % rows)

        filtered = _oracle_median_filter(matrix, supports)
        mad = build(raw, cfg)
        np.testing.assert_array_equal(np.isnan(mad.values), np.isnan(filtered))
        np.testing.assert_array_equal(
            mad.sigmas, _oracle_sigmas(matrix, filtered, mad.values, supports, cfg, "mad"))
        std = build(raw, cfg, std_estimator="std")
        expected = _oracle_sigmas(matrix, filtered, std.values, supports, cfg, "std")
        np.testing.assert_array_equal(np.isnan(std.sigmas), np.isnan(expected))
        np.testing.assert_allclose(std.sigmas, expected, rtol=1e-12, atol=0.0)

    def test_survey_without_features(self):
        raw = grid_raw({(float(i), 0.0): {} for i in range(5)})
        rfm = build(raw)
        assert (rfm.n_points, rfm.feature_ids) == (5, ())
        assert rfm.values.shape == rfm.sigmas.shape == (5, 0)
        assert all(not rec.features for rec in spatial_median_filter(raw, CFG).records)


def _awkward_survey(rng):
    """Records at :func:`awkward_locations`, their ids shuffled so that id
    order, index order and x order all differ, each carrying feature "a"
    and some of "b" to "d"."""
    locations = awkward_locations()
    ids = rng.permutation(len(locations)) * 3 + 1
    records = []
    for rid, (x, y) in zip(ids.tolist(), locations.tolist()):
        feats = {f: float(rng.uniform(-95, -45)) for f in "bcd" if rng.random() < 0.6}
        feats["a"] = float(rng.uniform(-95, -45))
        records.append(Fingerprint(rid, Location(x, y), feats))
    return RawRfm.from_records(records)


class TestNeighborSearch:
    """The builder's one candidate search against full scans per record, on
    locations whose distances tie or round onto the cutoff."""

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("cap", [1, 2, 3, 20])
    def test_filter_supports_equal_full_scan(self, rng, radius, cap):
        raw = _awkward_survey(rng)
        cfg = BuilderConfig(radius=radius, max_neighbors=cap)
        ids, locs, _, _ = builder._record_layers(raw)
        supports = builder._supports(ids, locs, locs, cfg)
        oracle = _oracle_supports(raw, cfg)
        assert supports.shape[1] == max(sel.size for sel in oracle)
        for row, sel in zip(supports, oracle):
            assert row[row < len(locs)].tolist() == sel.tolist()
        for center in (Location(0.1, 0.0), Location(5.0, 0.25), Location(2.1, 0.0)):
            d = np.hypot(locs[:, 0] - center.x, locs[:, 1] - center.y)
            within = np.flatnonzero(d <= radius)
            expected = ids[within[np.lexsort((ids[within], d[within]))][:cap]]
            nb = neighborhood(raw, center, cfg)
            assert [rec.id for _, rec in nb.members] == expected.tolist()

    @pytest.mark.parametrize("ks", [1, 2, 3, 20])
    @pytest.mark.parametrize("bandwidth", [1.0 / 3.0, 2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("block_values", [None, 30])
    def test_value_layer_equals_kernel_smooth(self, rng, monkeypatch, ks, bandwidth,
                                              block_values):
        # three bandwidths are 1, 2 and 3 exactly, the cutoffs of the
        # rounding pairs; a small filter radius keeps most records' own values
        if block_values is not None:
            monkeypatch.setattr(builder, "_BLOCK_VALUES", block_values)
        raw = _awkward_survey(rng)
        cfg = BuilderConfig(ks_neighbors=ks, bandwidth=bandwidth, radius=0.25)
        rfm = build(raw, cfg)
        filtered = spatial_median_filter(raw, cfg)
        _, locs, feature_ids, matrix = builder._record_layers(filtered)
        for j, rec in enumerate(filtered.records):
            expected = dict(builder._kernel_smooth(locs, feature_ids, matrix, rec.location, cfg))
            for f, fid in enumerate(rfm.feature_ids):
                if fid in rec.features:
                    assert rfm.values[j, f] == expected[fid]
                else:
                    assert np.isnan(rfm.values[j, f])


class TestBlockMedian:
    """``builder._median`` against ``np.nanmedian`` over the same axis."""

    @staticmethod
    def _expected(block):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            return np.nanmedian(block, axis=-2)

    @staticmethod
    def _assert_same(got, expected):
        np.testing.assert_array_equal(got, expected)  # NaN in the same places
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    # support widths on both sides of 600, where nanmedian changes algorithm
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 20, 599, 600, 601, 700])
    def test_equals_nanmedian(self, rng, width):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            # few distinct values, so columns repeat values and mix 0.0 with -0.0
            pool = np.array([-0.0, 0.0, -60.0, -61.5, -72.25, 3.0, 1e-300])
            block = rng.choice(pool, size=(6, width, 5))
            block[rng.random(block.shape) >= density] = np.nan
            block[0, :, 0] = np.nan  # an all-NaN column
            block[1, :, 1] = np.nan
            block[1, width // 2, 1] = -0.0  # one finite value
            self._assert_same(builder._median(block), self._expected(block))
            for j in range(block.shape[0]):  # one 2-D (members, features) block
                self._assert_same(builder._median(block[j]), self._expected(block[j]))

    def test_even_and_odd_counts(self, rng):
        for count in range(1, 12):
            block = np.full((3, 12, 4), np.nan)
            block[:, :count] = rng.uniform(-90.0, -40.0, size=(3, count, 4))
            block = rng.permuted(block, axis=1)
            got = builder._median(block)
            np.testing.assert_array_equal(got, self._expected(block))
            assert np.isfinite(got).all()

    def test_no_features(self):
        assert builder._median(np.empty((3, 5, 0))).shape == (3, 0)
