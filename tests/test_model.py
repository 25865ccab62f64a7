"""Domain types and wire formats."""

import base64
import json
import math
import re
import struct

import numpy as np
import pytest

from rfmloc.builder import BuilderConfig
from rfmloc.model import (DataError, ExtendedRfm, Fingerprint, Location,
                          PositioningConfig, RawRfm, Rect, RfmEntry, Termination,
                          estimate_from_obj, estimate_to_obj, fingerprint_from_obj,
                          fingerprint_to_obj, gaussian_nw, in_range, nearest_carriers_nw,
                          read_fingerprints, write_fingerprints, x_order)
from tests.conftest import (ROUNDING_XS, awkward_locations, edit_layer, make_fp, make_rfm,
                            per_entry_format_2, random_rfm)


def reference_query(rfm: ExtendedRfm, loc: Location) -> list[RfmEntry]:
    """The per-feature loop the vectorised query replaced, kept as its oracle."""
    if rfm.n_points == 0:
        return []
    cfg = rfm.builder_config
    d = np.hypot(rfm.locations[:, 0] - loc.x, rfm.locations[:, 1] - loc.y)
    order = np.argsort(d, kind="stable")
    present = np.isfinite(rfm.values)

    def along(cutoff):
        out = []
        for f, fid in enumerate(rfm.feature_ids):
            carriers = order[present[order, f]]
            if cutoff is not None:
                carriers = carriers[d[carriers] <= cutoff]
            sel = carriers[:cfg.ks_neighbors]
            if sel.size == 0:
                continue
            out.append(RfmEntry(fid, gaussian_nw(rfm.values[sel, f], d[sel], cfg.bandwidth),
                                gaussian_nw(rfm.sigmas[sel, f], d[sel], cfg.bandwidth)))
        return out

    return along(3.0 * cfg.bandwidth) or along(None)


class TestFingerprintValidation:
    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            make_fp({"a": float("nan")})

    def test_rejects_empty_feature_id(self):
        with pytest.raises(ValueError):
            make_fp({"": -60.0})

    def test_rejects_value_below_missing_indicator_on_parse(self):
        with pytest.raises(ValueError):
            fingerprint_from_obj({"id": 0, "x": None, "y": None,
                                  "features": {"a": -120.0}})

    def test_parse_respects_custom_indicator(self):
        fp = fingerprint_from_obj({"id": 0, "x": None, "y": None,
                                   "features": {"a": -120.0}}, missing_value=-130.0)
        assert fp.features["a"] == -120.0


class TestLocationAndRect:
    def test_distance(self):
        assert Location(0.0, 0.0).distance_to(Location(3.0, 4.0)) == 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Location(float("inf"), 0.0)

    def test_rect_contains(self):
        r = Rect(0.0, 0.0, 10.0, 5.0)
        assert r.contains(Location(10.0, 5.0))
        assert not r.contains(Location(10.1, 5.0))
        assert r.diagonal == pytest.approx(math.hypot(10, 5))

    def test_rect_rejects_inverted(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)


class TestRawRfm:
    def test_requires_locations(self):
        with pytest.raises(ValueError):
            RawRfm.from_records([make_fp({"a": -60.0})])

    def test_requires_records_inside_roi(self):
        rec = Fingerprint(0, Location(5.0, 5.0), {"a": -60.0})
        with pytest.raises(ValueError):
            RawRfm((rec,), Rect(0.0, 0.0, 1.0, 1.0))

    def test_bbox_roi_inferred(self):
        recs = [Fingerprint(0, Location(1.0, 2.0), {"a": -60.0}),
                Fingerprint(1, Location(4.0, 8.0), {"a": -61.0})]
        raw = RawRfm.from_records(recs)
        assert raw.roi == Rect(1.0, 2.0, 4.0, 8.0)


class TestFingerprintJsonLines:
    def test_round_trip_values_bit_exact(self, tmp_path):
        # canonical serialization is a fixed point: re-reading and re-writing
        # reproduces the same decimal strings
        fps = [Fingerprint(0, Location(1.5, 0.25), {"9c:50:ee:09:5f:30": -61.0}),
               Fingerprint(1, None, {"a": -60.123456789012345, "b": -109.99999999999999})]
        path = tmp_path / "fp.jsonl"
        write_fingerprints(path, fps)
        first = path.read_text()
        again = tmp_path / "fp2.jsonl"
        write_fingerprints(again, read_fingerprints(path))
        assert again.read_text() == first
        back = read_fingerprints(again)
        assert back[1].features["a"] == fps[1].features["a"]
        assert json.dumps(fingerprint_to_obj(back[1])) == json.dumps(fingerprint_to_obj(fps[1]))

    def test_null_coordinates_for_queries(self, tmp_path):
        path = tmp_path / "fp.jsonl"
        write_fingerprints(path, [Fingerprint(3, None, {"a": -60.0})])
        assert '"x": null' in path.read_text()
        assert read_fingerprints(path)[0].location is None

    def test_data_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "x": null, "y": null, "features": {"a": -60.0}}\n'
                        '{"id": "oops"}\n')
        with pytest.raises(DataError) as exc:
            read_fingerprints(path)
        assert exc.value.line == 2
        assert str(path) in str(exc.value)

    def test_mismatched_coordinates_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 0, "x": 1.0, "y": null, "features": {"a": -60.0}}\n')
        with pytest.raises(DataError):
            read_fingerprints(path)

    @pytest.mark.parametrize("edit", [{"x": True, "y": False}, {"x": "1.5"}, {"id": 2.0},
                                      {"id": True}, {"features": {"a": "-60"}}])
    def test_fields_must_be_json_numbers(self, edit):
        obj = {"id": 0, "x": 1.0, "y": 2.0, "features": {"a": -60.0}, **edit}
        with pytest.raises(ValueError, match="must be a JSON"):
            fingerprint_from_obj(obj)


class TestExtendedRfmSerialization:
    def test_round_trip_preserves_entries(self):
        rfm = make_rfm([[0.0, 0.0], [3.0, 4.0]], ["a", "b"],
                       [[-60.0, np.nan], [-70.0, -80.0]],
                       [[1.0, np.nan], [2.0, 0.5]])
        back = ExtendedRfm.from_json(rfm.to_json())
        assert back.to_json() == rfm.to_json()
        assert back.entries_at(1) == [RfmEntry("a", -70.0, 2.0), RfmEntry("b", -80.0, 0.5)]

    def test_save_load_round_trip(self, rng, tmp_path):
        rfm = random_rfm(rng, 30, 5, density=0.6, sigma_range=(0.5, 6.0),
                         config=BuilderConfig(radius=3.5, ks_neighbors=7))
        path = tmp_path / "map.json"
        rfm.save(path)
        assert path.read_text().startswith('{"format": 3, ')
        back = ExtendedRfm.load(path)
        assert back.feature_ids == rfm.feature_ids
        assert back.builder_config == rfm.builder_config
        for layer in ("locations", "values", "sigmas"):
            assert getattr(back, layer).tobytes() == getattr(rfm, layer).tobytes()

    def test_format_3_bytes(self):
        # 3 x 3, sparse, feature ids out of order: the file lists them
        # ascending; absent cells holding other NaNs are written as the quiet NaN
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(float)
        rfm = make_rfm([[0.0, 1.5], [-0.0, 2.0], [3.25, 1e-300]], ["b", "a", "c"],
                       [[-60.0, nans[1], -70.5], [nans[2], np.nan, -0.0], [-61.0, -62.0, np.nan]],
                       [[1.0, nans[2], 0.5], [np.nan, nans[1], 2.5], [0.75, 3.0, np.nan]])
        config = json.dumps(BuilderConfig().to_dict())

        def packed(*floats):
            raw = b"".join(b"\x00\x00\x00\x00\x00\x00\xf8\x7f" if f is None
                           else struct.pack("<d", f) for f in floats)
            return base64.b64encode(raw).decode()

        assert rfm.to_json() == (
            '{"format": 3, "config": ' + config + ', "features": ["a", "b", "c"], '
            '"locations": "' + packed(0.0, 1.5, -0.0, 2.0, 3.25, 1e-300) + '", '
            '"v": "' + packed(None, -60.0, -70.5, None, None, -0.0, -62.0, -61.0, None) + '", '
            '"sigma": "' + packed(None, 1.0, 0.5, None, None, 2.5, 3.0, 0.75, None) + '"}')

    @staticmethod
    def _reference_to_json(rfm):
        """The format-1 serializer, one object per entry, kept as the oracle
        of the documents that format-1 maps hold."""
        points = []
        for j in range(rfm.n_points):
            x, y = rfm.locations[j]
            entries = [{"id": e.feature, "v": e.value, "sigma": e.sigma}
                       for e in rfm.entries_at(j)]
            points.append({"x": float(x), "y": float(y), "entries": entries})
        return json.dumps({"config": rfm.builder_config.to_dict(), "points": points})

    @staticmethod
    def _per_cell_format_3(rfm):
        """A format-3 serializer that packs cell by cell with ``struct``,
        kept as the oracle of ``to_json``."""
        features = sorted(rfm.feature_ids)
        columns = [rfm.feature_index[fid] for fid in features]

        def packed(cells):
            return base64.b64encode(b"".join(
                struct.pack("<d", c) if math.isfinite(c) else struct.pack("<Q", 0x7FF8 << 48)
                for c in cells)).decode("ascii")

        layers = {key: packed(float(layer[j, f]) for j in range(rfm.n_points) for f in columns)
                  for key, layer in (("v", rfm.values), ("sigma", rfm.sigmas))}
        return json.dumps({"format": 3, "config": rfm.builder_config.to_dict(),
                           "features": features,
                           "locations": packed(map(float, rfm.locations.ravel())), **layers})

    @staticmethod
    def _awkward_map(rng, density):
        """A random map with escaped and unsorted feature ids, signed zeros
        and extreme coordinates."""
        rfm = random_rfm(rng, 40, 6, density=density)
        ids = ['a"quote', "back\\slash", "new\nline", "caf\u00e9", "\u2603", "tab\t"]
        locations = rfm.locations.copy()
        locations[:3] = [[-0.0, 0.0], [0.0, -0.0], [1e-300, 123456789.123]]
        values = rfm.values.copy()
        values[np.isfinite(values) & (rng.random(values.shape) < 0.1)] = -0.0
        values[0, 0], values[1, 1] = -0.0, 0.0
        sigmas = np.where(np.isfinite(values), rng.uniform(0.5, 9.0, values.shape), np.nan)
        return make_rfm(locations, ids, values, sigmas)

    @pytest.mark.parametrize("density", [0.3, 0.8, 1.0])
    def test_to_json_equals_per_cell_serializer(self, rng, density):
        rfm = self._awkward_map(rng, density)
        assert rfm.to_json() == self._per_cell_format_3(rfm)

    @pytest.mark.parametrize("density", [0.3, 0.8, 1.0])
    def test_format_1_and_2_documents_load_to_the_same_map(self, rng, density):
        rfm = self._awkward_map(rng, density)
        maps = [ExtendedRfm.from_json(text) for text in
                (self._reference_to_json(rfm), per_entry_format_2(rfm), rfm.to_json())]
        for back in maps:
            assert back.feature_ids == tuple(sorted(rfm.feature_ids))
            assert back.builder_config == rfm.builder_config
            for layer in ("locations", "values", "sigmas"):
                assert getattr(back, layer).tobytes() == getattr(maps[-1], layer).tobytes()
            assert back.to_json() == rfm.to_json()
        assert np.signbit(maps[-1].locations[:2]).any() and np.signbit(maps[-1].values).any()

    @pytest.mark.parametrize("fmt", [1, 4, "2", "3", 2.0, True, None])
    def test_unknown_format_rejected(self, fmt):
        obj = json.loads(make_rfm([[0.0, 0.0]], ["a"], [[-60.0]]).to_json())
        obj["format"] = fmt
        with pytest.raises(ValueError, match=f"unknown map format {fmt!r}"):
            ExtendedRfm.from_json(json.dumps(obj))

    @staticmethod
    def _edited(key, edit):
        """The format-3 document of a 5 x 3 map with ``edit`` applied to the
        (points, columns) float64 array of ``key``; an ``edit`` that returns
        bytes replaces the layer's bytes with them."""
        rfm = make_rfm([[float(j), 0.0] for j in range(5)], ["a", "b", "c"],
                       [[-60.0 - j, np.nan if j % 2 else -70.0, -80.0] for j in range(5)])
        return json.dumps(edit_layer(json.loads(rfm.to_json()), key, edit))

    @pytest.mark.parametrize("key, edit, message", [
        ("locations", lambda a: b"", "the map has no reference points"),
        ("locations", lambda a: a.tobytes()[:-8], "locations holds 72 bytes, not a multiple "
                                                  "of 16"),
        ("locations", lambda a: a.tobytes()[:-3], "locations holds 77 bytes, not whole"),
        ("locations", lambda a: a.__setitem__((3, 1), np.nan),
         "reference point 3 has x=3.0, y=nan; coordinates must be finite"),
        ("locations", lambda a: a.__setitem__((2, 0), -np.inf), "reference point 2 has x=-inf"),
        ("v", lambda a: a.tobytes()[:-8], "v holds 112 bytes, not 8 x 5 points x 3 features"),
        ("sigma", lambda a: a.tobytes() + bytes(8), "sigma holds 128 bytes"),
        ("v", lambda a: a.__setitem__((3, 2), np.inf),
         "feature 'c' at reference point 3 has v=inf, sigma=0.5;"),
        ("sigma", lambda a: a.__setitem__((4, 0), -np.inf),
         "feature 'a' at reference point 4 has v=-64.0, sigma=-inf;"),
        ("v", lambda a: a.__setitem__((2, 0), np.nan),
         "feature 'a' at reference point 2 has v=nan, sigma=0.5;"),
        ("sigma", lambda a: a.__setitem__((1, 1), 0.5),
         "feature 'b' at reference point 1 has v=nan, sigma=0.5;"),
        ("v", lambda a: a.__setitem__((1, 1), -70.0),
         "feature 'b' at reference point 1 has v=-70.0, sigma=nan;"),
        ("sigma", lambda a: a.__setitem__((3, 0), 0.0),
         "sigma of feature 'a' at reference point 3 is 0.0;"),
        ("sigma", lambda a: a.__setitem__((3, 0), -0.0),
         "sigma of feature 'a' at reference point 3 is -0.0;"),
    ])
    def test_format_3_faults_name_the_cell(self, key, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExtendedRfm.from_json(self._edited(key, edit))

    @pytest.mark.parametrize("key, value, message", [
        ("v", "AAAA!AAAAAAA", "v is not base64"),
        ("v", "AAAAAAAAAAA", "v is not base64"),
        ("sigma", "AAAA AAAAAAA", "sigma is not base64"),
        ("locations", "caf\u00e9", "locations is not base64"),
        ("locations", [0.0, 1.0], "locations must be a base64 string"),
        ("v", None, "v must be a base64 string"),
    ])
    def test_format_3_layers_must_be_strict_base64(self, key, value, message):
        obj = json.loads(make_rfm([[0.0, 0.0]], ["a"], [[-60.0]]).to_json())
        obj[key] = value
        with pytest.raises(ValueError, match=message):
            ExtendedRfm.from_json(json.dumps(obj))

    def test_format_3_reads_any_nan_as_absent(self):
        rfm = make_rfm([[0.0, 0.0], [1.0, 0.0]], ["a", "b"], [[-60.0, np.nan], [-61.0, -62.0]])
        payload = np.array([0xFFF0000000000123], dtype=np.uint64).view(float)[0]
        obj = json.loads(rfm.to_json())
        for key in ("v", "sigma"):
            layer = np.frombuffer(base64.b64decode(obj[key]), "<f8").copy()
            layer[np.isnan(layer)] = payload
            obj[key] = base64.b64encode(layer.tobytes()).decode()
        assert ExtendedRfm.from_json(json.dumps(obj)).to_json() == rfm.to_json()

    def test_loads_map_with_dropped_config_key(self):
        # maps written before the builder's grid export knob was removed
        # carry its key; it is ignored on load and dropped on save
        rfm = make_rfm([[0.0, 0.0], [3.0, 4.0]], ["a"], [[-60.0], [-70.0]])
        obj = json.loads(rfm.to_json())
        legacy = {"grid_resolution": 0.5}
        obj["config"].update(legacy)
        back = ExtendedRfm.from_json(json.dumps(obj))
        assert back.builder_config == BuilderConfig()
        assert back.to_json() == rfm.to_json()
        assert legacy.keys().isdisjoint(json.loads(back.to_json())["config"])

    @pytest.mark.parametrize("key, value", [("radius", "2.0"), ("radius", True),
                                            ("max_neighbors", 20.0), ("ks_neighbors", "20")])
    def test_config_block_values_must_be_json_numbers(self, key, value):
        rfm = make_rfm([[0.0, 0.0], [3.0, 4.0]], ["a"], [[-60.0], [-70.0]])
        obj = json.loads(rfm.to_json())
        obj["config"][key] = value
        with pytest.raises(ValueError, match=f"{key} must be a JSON"):
            ExtendedRfm.from_json(json.dumps(obj))

    def test_builder_config_lives_with_the_map_format(self):
        import rfmloc.builder
        import rfmloc.model
        assert rfmloc.builder.BuilderConfig is rfmloc.model.BuilderConfig

    def test_layers_must_align(self):
        with pytest.raises(ValueError):
            make_rfm([[0.0, 0.0]], ["a"], [[-60.0]], [[np.nan]])

    def test_arrays_read_only(self):
        rfm = make_rfm([[0.0, 0.0]], ["a"], [[-60.0]])
        with pytest.raises(ValueError):
            rfm.values[0, 0] = 0.0

    def test_load_error_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            ExtendedRfm.load(path)


class TestContinuousQuery:
    def test_query_at_reference_point_matches_kernel_smoothing(self):
        # oracle: direct Nadaraya-Watson over the stored sigma layer
        locs = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        sigmas = np.array([[1.0], [2.0], [4.0]])
        rfm = make_rfm(locs, ["a"], [[-60.0], [-65.0], [-70.0]], sigmas)
        h = rfm.builder_config.bandwidth
        at = Location(1.0, 0.0)
        d = np.hypot(locs[:, 0] - at.x, locs[:, 1] - at.y)
        keep = d <= 3 * h
        expected = gaussian_nw(sigmas[keep, 0], d[keep], h)
        got = rfm.query(at)
        assert len(got) == 1
        assert got[0].sigma == pytest.approx(expected, rel=1e-12)

    def test_far_feature_omitted_within_reach_of_another(self):
        # feature b only carried far away: omitted; feature a stays
        rfm = make_rfm([[0.0, 0.0], [100.0, 0.0]], ["a", "b"],
                       [[-60.0, np.nan], [np.nan, -80.0]])
        entries = rfm.query(Location(0.5, 0.0))
        assert [e.feature for e in entries] == ["a"]

    def test_query_never_empty_while_map_has_entries(self):
        # all carriers beyond three bandwidths: the range cap is dropped
        rfm = make_rfm([[0.0, 0.0]], ["a"], [[-60.0]])
        entries = rfm.query(Location(50.0, 50.0))
        assert [e.feature for e in entries] == ["a"]
        assert entries[0].value == -60.0

    def test_constant_field_reproduced(self, rng):
        n = 40
        locs = rng.uniform(0, 20, size=(n, 2))
        values = np.full((n, 1), -67.25)
        rfm = make_rfm(locs, ["a"], values)
        for _ in range(25):
            at = Location(float(rng.uniform(0, 20)), float(rng.uniform(0, 20)))
            got = rfm.query(at)
            assert got[0].value == pytest.approx(-67.25, abs=1e-9)


class TestQueryOracle:
    """The vectorised query equals the per-feature loop exactly."""

    @pytest.mark.parametrize("ks", [1, 2, 3, 20])
    def test_random_maps(self, rng, ks):
        for _ in range(30):
            cfg = BuilderConfig(ks_neighbors=ks, bandwidth=float(rng.uniform(0.5, 3.0)))
            rfm = random_rfm(rng, n_points=int(rng.integers(1, 60)),
                             n_features=int(rng.integers(1, 9)), extent=15.0,
                             density=float(rng.uniform(0.3, 1.0)),
                             sigma_range=(0.5, 6.0), config=cfg)
            for _ in range(10):
                at = Location(*map(float, rng.uniform(-2.0, 17.0, size=2)))
                assert rfm.query(at) == reference_query(rfm, at)
            at = rfm.location_at(int(rng.integers(rfm.n_points)))
            assert rfm.query(at) == reference_query(rfm, at)

    @pytest.mark.parametrize("ks", [1, 2, 3, 20])
    def test_grid_with_distance_ties(self, rng, ks):
        # unit grid: grid nodes, edge midpoints and cell centres sit at equal
        # distances from two or four carriers
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))
        locations = np.column_stack([xs.ravel(), ys.ravel()])
        values = rng.uniform(-100.0, -40.0, size=(len(locations), 5))
        values[rng.random(values.shape) >= 0.6] = np.nan
        sigmas = np.where(np.isfinite(values), rng.uniform(0.5, 6.0, values.shape), np.nan)
        rfm = make_rfm(locations, list("abcde"), values, sigmas,
                       BuilderConfig(ks_neighbors=ks, bandwidth=0.5))
        for x in np.arange(-0.5, 8.0, 0.5):
            for y in np.arange(-0.5, 6.0, 0.5):
                at = Location(float(x), float(y))
                assert rfm.query(at) == reference_query(rfm, at)

    @pytest.mark.parametrize("ks", [1, 3, 20])
    def test_far_points_take_the_fallback(self, rng, ks):
        rfm = random_rfm(rng, n_points=40, n_features=6, extent=10.0, density=0.5,
                         sigma_range=(0.5, 6.0), config=BuilderConfig(ks_neighbors=ks))
        for at in (Location(100.0, 100.0), Location(-50.0, 5.0), Location(5.0, 40.0)):
            got = rfm.query(at)
            assert got == reference_query(rfm, at)
            assert len(got) == len(rfm.feature_ids)

    def test_layers_in_either_memory_order(self, rng):
        rfm = random_rfm(rng, n_points=50, n_features=7, extent=10.0, density=0.6,
                         sigma_range=(0.5, 6.0))
        present = np.isfinite(rfm.values)
        bounds = np.array([0, 1, 20, 20, 50])  # four locations, one without candidates
        for _ in range(10):
            points = rng.permutation(rfm.n_points)
            d = np.sort(rng.uniform(0.0, 8.0, size=rfm.n_points))  # each run nearest first
            want = nearest_carriers_nw(bounds, points, d, present, (rfm.values, rfm.sigmas),
                                       3, 1.0)
            got = nearest_carriers_nw(bounds, points, d, present,
                                      tuple(map(np.asfortranarray, (rfm.values, rfm.sigmas))),
                                      3, 1.0)
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_no_point_in_range(self, rng, n_layers):
        rfm = random_rfm(rng, n_points=20, n_features=5, extent=10.0, density=0.6,
                         sigma_range=(0.5, 6.0))
        layers = (rfm.values, rfm.sigmas)[:n_layers]
        none = np.empty(0, dtype=np.intp)
        for m in (1, 3):
            estimates = nearest_carriers_nw(np.zeros(m + 1, dtype=np.intp), none, np.empty(0),
                                            np.isfinite(rfm.values), layers, 3, 1.0)
            assert estimates.dtype == np.float64 and estimates.shape == (n_layers, m, 5)
            assert np.isnan(estimates).all()


def full_scan(locations: np.ndarray, centers: np.ndarray, cutoff: float) -> list:
    """(center, point, distance bits) of every pair within ``cutoff``, by a
    full scan per center: the candidate search's oracle."""
    pairs = []
    for row, (cx, cy) in enumerate(centers):
        d = np.hypot(locations[:, 0] - cx, locations[:, 1] - cy)
        within = np.flatnonzero(d <= cutoff)
        pairs += zip([row] * within.size, within.tolist(), d[within].view(np.uint64).tolist())
    return sorted(pairs)


class TestCandidateSearch:
    """``in_range`` against a full scan per center, bit for bit."""

    @pytest.mark.parametrize("cutoff", [0.5, 1.0, 2.0, 3.0, math.inf])
    def test_awkward_locations(self, cutoff):
        locations = awkward_locations()
        # the points themselves, the centre of the x axis, and centers
        # without any point in range
        centers = np.vstack([locations, [[0.1, 0.0], [40.0, 0.0], [5.0, 30.0], [-40.0, 0.0]]])
        rows, points, d = in_range(*x_order(locations), centers, cutoff)
        assert np.all(np.diff(rows) >= 0)
        got = sorted(zip(rows.tolist(), points.tolist(), d.view(np.uint64).tolist()))
        assert got == full_scan(locations, centers, cutoff)

    def test_random_blocks(self, rng):
        for _ in range(30):
            locations = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 80)), 2))
            locations[rng.random(len(locations)) < 0.3, 0] = 1.5  # a column of equal x
            centers = rng.uniform(-14.0, 14.0, size=(int(rng.integers(1, 20)), 2))
            cutoff = float(rng.uniform(0.5, 6.0))
            rows, points, d = in_range(*x_order(locations), centers, cutoff)
            got = sorted(zip(rows.tolist(), points.tolist(), d.view(np.uint64).tolist()))
            assert got == full_scan(locations, centers, cutoff)

    def test_rounding_pairs_fall_outside_the_plain_window(self):
        # the premise of the widened window: each pair is within its cutoff
        # by the exact test, and outside the window x ± cutoff
        for x0, x1, cutoff in ((2.1, -0.9, 3.0), (-2.1, 0.9, 3.0), (1.1, -0.9, 2.0),
                               (-1.1, 0.9, 2.0), (0.9, -0.1, 1.0), (-0.9, 0.1, 1.0)):
            assert np.hypot(x1 - x0, 0.0) <= cutoff
            assert not x0 - cutoff <= x1 <= x0 + cutoff
            assert {x0, x1} <= set(ROUNDING_XS)


def reference_block(rfm: ExtendedRfm, centers: np.ndarray, cutoff: float) -> np.ndarray:
    """The (2, centers, features) layers of :func:`reference_query` within
    ``cutoff`` and without its fallback, NaN where a feature has no carrier."""
    cfg = rfm.builder_config
    present = np.isfinite(rfm.values)
    out = np.full((2, len(centers), len(rfm.feature_ids)), np.nan)
    for i, (cx, cy) in enumerate(centers):
        d = np.hypot(rfm.locations[:, 0] - cx, rfm.locations[:, 1] - cy)
        order = np.argsort(d, kind="stable")
        for f in range(len(rfm.feature_ids)):
            carriers = order[present[order, f]]
            sel = carriers[d[carriers] <= cutoff][:cfg.ks_neighbors]
            if sel.size:
                out[0, i, f] = gaussian_nw(rfm.values[sel, f], d[sel], cfg.bandwidth)
                out[1, i, f] = gaussian_nw(rfm.sigmas[sel, f], d[sel], cfg.bandwidth)
    return out


def awkward_rfm(rng, ks: int, bandwidth: float) -> ExtendedRfm:
    locations = awkward_locations()
    values = rng.uniform(-100.0, -40.0, size=(len(locations), 4))
    values[rng.random(values.shape) >= 0.6] = np.nan
    values[:, 0] = rng.uniform(-100.0, -40.0, size=len(locations))  # every point carries one
    sigmas = np.where(np.isfinite(values), rng.uniform(0.5, 6.0, values.shape), np.nan)
    return make_rfm(locations, list("abcd"), values, sigmas,
                    BuilderConfig(ks_neighbors=ks, bandwidth=bandwidth))


# 3 * bandwidth is 1.0, 2.0 and 3.0 exactly: the cutoffs of the rounding pairs
BANDWIDTHS = [1.0 / 3.0, 2.0 / 3.0, 1.0]


class TestBlockSmoothing:
    """``nearest_carriers_nw`` over a block of locations, and the lookups of
    one location, against the per-location oracles."""

    @pytest.mark.parametrize("ks", [1, 2, 3, 20])
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_block_equals_per_location_oracle(self, rng, ks, bandwidth):
        rfm = awkward_rfm(rng, ks, bandwidth)
        cutoff = 3.0 * bandwidth
        # every point, and centers without any point in range among them
        centers = np.vstack([rfm.locations, [[40.0, 0.0], [0.1, 0.0], [5.0, 30.0]]])
        centers = centers[rng.permutation(len(centers))]
        rows, points, d = in_range(*x_order(rfm.locations), centers, cutoff)
        order = np.lexsort((points, d, rows))
        bounds = np.searchsorted(rows[order], np.arange(len(centers) + 1))
        got = nearest_carriers_nw(bounds, points[order], d[order], np.isfinite(rfm.values),
                                  (rfm.values, rfm.sigmas), ks, bandwidth)
        want = reference_block(rfm, centers, cutoff)
        assert np.isnan(want).any(axis=2).any()  # some location lacks a feature
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("ks", [1, 2, 3, 20])
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_lookups_equal_reference_query(self, rng, ks, bandwidth):
        rfm = awkward_rfm(rng, ks, bandwidth)
        ats = [rfm.location_at(j) for j in range(rfm.n_points)]
        ats += [Location(0.1, 0.0), Location(5.0, 0.25), Location(40.0, 0.0)]  # last: fallback
        for at in ats:
            assert rfm.query(at) == reference_query(rfm, at)
            features, _, sigmas = rfm.query_arrays(at)
            spread_features, spread = rfm.spread_arrays(at)
            assert np.array_equal(spread_features, features)
            assert spread.tobytes() == sigmas.tobytes()


class TestExtendedRfmValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.5])
    def test_rejects_non_positive_sigma(self, bad):
        with pytest.raises(ValueError) as err:
            make_rfm([[0.0, 0.0], [1.0, 0.0]], ["a", "b"],
                     [[-60.0, -61.0], [-62.0, np.nan]], [[0.5, 1.0], [bad, np.nan]])
        # the value reads as a plain float, not as a numpy repr
        assert f"feature 'a' at reference point 1 is {bad}; every sigma" in str(err.value)

    def test_from_json_rejects_empty_points(self):
        config = BuilderConfig().to_dict()
        for doc in ({"config": config, "points": []},
                    {"format": 2, "config": config, "features": ["a"], "points": []},
                    {"format": 3, "config": config, "features": ["a"], "locations": "",
                     "v": "", "sigma": ""}):
            with pytest.raises(ValueError, match="no reference points"):
                ExtendedRfm.from_json(json.dumps(doc))

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError, match="no reference points"):
            ExtendedRfm(np.empty((0, 2)), ["a"], np.empty((0, 1)), np.empty((0, 1)),
                        BuilderConfig())


class TestPositioningConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha1": -0.1}, {"beta": 0.0}, {"k": 0}, {"converge_tol": 0.0},
        {"max_iterations": 0}, {"minkowski_p": 0.5},
        {"weight_form": "mystery"}, {"init_mode": "teleport"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PositioningConfig(**kwargs)

    def test_defaults(self):
        cfg = PositioningConfig()
        assert (cfg.alpha1, cfg.alpha2) == (3.0, 3.0)
        assert cfg.missing_value == -110.0
        assert cfg.beta == 2.0
        assert cfg.k == 1
        assert cfg.converge_tol == 1e-3
        assert cfg.max_iterations == 100
        assert cfg.loop_min_points == 4
        assert cfg.loop_max_diameter == 0.01
        assert cfg.minkowski_p == 2.0
        assert cfg.weight_form == "precision_softmax"


class TestEstimateWire:
    def test_round_trip(self):
        from rfmloc.model import PositionEstimate
        est = PositionEstimate(Location(1.0, 2.0), Termination.LOOPING, 7,
                               (Location(0.0, 0.0), Location(1.0, 2.0)),
                               (Location(1.0, 2.0), Location(1.0, 2.1)), 11)
        back = estimate_from_obj(json.loads(json.dumps(estimate_to_obj(est))))
        assert back == est

    def test_null_loop_points(self):
        from rfmloc.model import PositionEstimate
        est = PositionEstimate(Location(1.0, 2.0), Termination.CONVERGING, 2,
                               (Location(1.0, 2.0),), None, 0)
        obj = estimate_to_obj(est)
        assert obj["loop_points"] is None
        assert estimate_from_obj(obj).loop_points is None

    @pytest.mark.parametrize("edit", [{"x": "1.5"}, {"y": None}, {"tf": True}, {"tf": 1.0},
                                      {"iterations": 2.7}, {"iterations": "2"}, {"id": True},
                                      {"id": 1.0}, {"path": []}, {"path": [["1.0", 2.0]]},
                                      {"loop_points": [[1.0, True]]}])
    def test_rejects_what_the_writer_never_writes(self, edit):
        from rfmloc.model import PositionEstimate
        est = PositionEstimate(Location(1.0, 2.0), Termination.LOOPING, 3,
                               (Location(0.0, 0.0), Location(1.0, 2.0)),
                               (Location(1.0, 2.0), Location(1.0, 2.1)), 1)
        obj = {**estimate_to_obj(est), **edit}
        with pytest.raises(ValueError, match="malformed estimate"):
            estimate_from_obj(obj)
