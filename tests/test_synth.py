"""Synthetic environments: propagation, noise fields, survey simulation."""

import json
import math

import numpy as np
import pytest

from rfmloc.model import DataError, Location, Rect
from rfmloc.synth import (AccessPoint, BumpField, SurveyPlan,
                          SyntheticEnvironment, expected_rss, generate_dataset,
                          make_environment, sample_fingerprint)


def flat_env(tx_power=-30.0, exponent=2.0, sigma=1.0, **kwargs):
    ap = AccessPoint("ap0", Location(0.0, 0.0), tx_power, exponent)
    field = BumpField(base=sigma, bumps=(), lo=sigma, hi=sigma)
    roi = Rect(-20.0, -20.0, 20.0, 20.0)
    return SyntheticEnvironment(0, roi, (ap,), (field,), **kwargs)


class TestExpectedRss:
    def test_log_distance_oracle(self):
        # tx -30 dBm, exponent 2, distance 10 m: -30 - 20*log10(10) = -50
        env = flat_env(tx_power=-30.0, exponent=2.0)
        got = expected_rss(env, env.aps[0], Location(10.0, 0.0))
        assert got == -50.0

    def test_distance_clamped_at_one_meter(self):
        env = flat_env(tx_power=-30.0)
        at_ap = expected_rss(env, env.aps[0], Location(0.0, 0.0))
        at_half = expected_rss(env, env.aps[0], Location(0.5, 0.0))
        assert at_ap == at_half == -30.0

    def test_monotone_decay(self):
        env = flat_env(exponent=3.0)
        values = [expected_rss(env, env.aps[0], Location(float(d), 0.0))
                  for d in (1, 2, 5, 10, 19)]
        assert values == sorted(values, reverse=True)


class TestBumpField:
    def test_base_far_from_bumps(self):
        f = BumpField(base=1.2, bumps=((100.0, 100.0, 5.0, 1.0),))
        assert f.value(Location(0.0, 0.0)) == pytest.approx(1.2, abs=1e-12)

    def test_bump_peak_adds_amplitude(self):
        f = BumpField(base=1.0, bumps=((3.0, 4.0, 2.5, 2.0),))
        assert f.value(Location(3.0, 4.0)) == pytest.approx(3.5)

    def test_clipped_to_range(self):
        f = BumpField(base=1.0, bumps=((0.0, 0.0, 50.0, 5.0),))
        assert f.value(Location(0.0, 0.0)) == f.hi
        g = BumpField(base=0.0, bumps=())
        assert g.value(Location(0.0, 0.0)) == g.lo


class TestSampleFingerprint:
    def test_sensitivity_censors_weak_features(self):
        # expected RSS at 19 m with exponent 4: -45 - 40*log10(19) = -96.2;
        # set sensitivity just above it so nearly every draw is dropped
        env = flat_env(tx_power=-45.0, exponent=4.0, sigma=0.1,
                       sensitivity=-90.0)
        rng = np.random.default_rng(0)
        dropped = sum(1 for _ in range(200)
                      if not sample_fingerprint(env, Location(19.0, 0.0), rng).features)
        assert dropped == 200

    def test_sample_mean_tracks_expected_rss(self):
        env = flat_env(sigma=2.0, sensitivity=-300.0)
        rng = np.random.default_rng(1)
        at = Location(7.0, 0.0)
        truth = expected_rss(env, env.aps[0], at)
        draws = [sample_fingerprint(env, at, rng).features["ap0"]
                 for _ in range(1000)]
        assert np.mean(draws) == pytest.approx(truth, abs=4 * 2.0 / math.sqrt(1000))

    def test_sample_spread_tracks_sigma_field(self):
        env = flat_env(sigma=3.0, sensitivity=-300.0)
        rng = np.random.default_rng(2)
        at = Location(5.0, 0.0)
        draws = [sample_fingerprint(env, at, rng).features["ap0"]
                 for _ in range(1000)]
        assert np.std(draws) == pytest.approx(3.0, rel=0.1)

    def test_contamination_shifts_upward_only(self):
        env = flat_env(sigma=0.5, sensitivity=-300.0, contamination=0.5)
        at = Location(5.0, 0.0)
        truth = expected_rss(env, env.aps[0], at)
        rng = np.random.default_rng(3)
        draws = np.array([sample_fingerprint(env, at, rng).features["ap0"]
                          for _ in range(1000)])
        # offsets of 10 to 30 dBm sit far above the 0.5 dBm noise: values
        # more than 5 dBm over truth are the contaminated ones
        high = draws > truth + 5.0
        assert 0.4 < high.mean() < 0.6
        assert draws[high].min() > truth + 10.0 - 3.0
        assert draws[high].max() < truth + 30.0 + 3.0
        assert draws[~high].std() == pytest.approx(0.5, rel=0.15)

    def test_record_id_passed_through(self):
        env = flat_env(sensitivity=-300.0)
        fp = sample_fingerprint(env, Location(1.0, 1.0),
                                np.random.default_rng(0), record_id=42)
        assert fp.id == 42


class TestMakeEnvironment:
    def test_deterministic(self):
        assert make_environment(11).to_json() == make_environment(11).to_json()

    def test_seeds_differ(self):
        assert make_environment(11).to_json() != make_environment(12).to_json()

    def test_shape(self):
        env = make_environment(5, width=40.0, height=25.0, n_aps=9)
        assert env.roi == Rect(0.0, 0.0, 40.0, 25.0)
        assert len(env.aps) == 9
        assert len(env.noise_fields) == 9
        assert len({ap.feature_id for ap in env.aps}) == 9
        for ap in env.aps:
            assert env.roi.contains(ap.location)
            assert -45.0 <= ap.tx_power <= -30.0
            assert 2.0 <= ap.exponent <= 4.0

    def test_sigma_field_within_bounds(self):
        env = make_environment(5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            loc = Location(float(rng.uniform(0, 50)), float(rng.uniform(0, 30)))
            for i in range(len(env.aps)):
                assert 0.5 <= env.sigma_true(i, loc) <= 8.0

    def test_json_round_trip(self, tmp_path):
        env = make_environment(3, contamination=0.1)
        path = tmp_path / "env.json"
        env.save(path)
        assert SyntheticEnvironment.load(path) == env

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(seed=2.7),
        lambda obj: obj["aps"][0].update(x="1.5"),
        lambda obj: obj.update(sensitivity=True),
        lambda obj: obj["roi"].update(xmax="50"),
    ], ids=["seed-float", "ap-x-string", "sensitivity-true", "roi-xmax-string"])
    def test_load_applies_the_json_number_rule(self, tmp_path, edit):
        obj = json.loads(make_environment(3).to_json())
        edit(obj)
        path = tmp_path / "env.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="must be a JSON"):
            SyntheticEnvironment.load(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{"seed": 1}')
        with pytest.raises(DataError):
            SyntheticEnvironment.load(path)


class TestGenerateDataset:
    def test_deterministic_across_calls(self):
        env = make_environment(4)
        plan = SurveyPlan(seed=9)
        raw1, test1 = generate_dataset(env, plan)
        raw2, test2 = generate_dataset(env, plan)
        assert raw1.records == raw2.records
        assert test1 == test2

    def test_split_is_disjoint_and_sized(self):
        env = make_environment(4)
        raw, test = generate_dataset(env, SurveyPlan(seed=9))
        total = len(raw.records) + len(test)
        assert len(test) == round(0.2 * total)
        train_ids = {r.id for r in raw.records}
        assert train_ids.isdisjoint({r.id for r in test})

    def test_survey_covers_many_locations(self):
        env = make_environment(4)
        raw, test = generate_dataset(env, SurveyPlan(seed=9, n_passes=3))
        # each pass walks 10 legs across a 50 x 30 region at 1 m spacing
        assert len(raw.records) + len(test) > 300
        xs = {r.location.x for r in raw.records}
        assert len(xs) > 100

    def test_records_inside_roi(self):
        env = make_environment(4)
        raw, test = generate_dataset(env, SurveyPlan(seed=2))
        for rec in list(raw.records) + test:
            assert env.roi.contains(rec.location)

    def test_test_records_keep_ground_truth(self):
        env = make_environment(4)
        _, test = generate_dataset(env, SurveyPlan(seed=2))
        assert all(rec.location is not None for rec in test)

    def test_plan_seed_changes_data(self):
        env = make_environment(4)
        raw1, _ = generate_dataset(env, SurveyPlan(seed=1))
        raw2, _ = generate_dataset(env, SurveyPlan(seed=2))
        assert raw1.records != raw2.records

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SurveyPlan(seed=0, n_passes=0)
        with pytest.raises(ValueError):
            SurveyPlan(seed=0, sample_spacing=0.0)

    def test_observability_decays_with_distance(self):
        # with a realistic sensitivity, the share of records seeing an AP
        # is higher near it than far away
        env = make_environment(8, sensitivity=-85.0)
        raw, _ = generate_dataset(env, SurveyPlan(seed=3))
        ap = env.aps[0]
        near = [r for r in raw.records if r.location.distance_to(ap.location) < 8]
        far = [r for r in raw.records if r.location.distance_to(ap.location) > 25]
        if near and far:
            near_rate = np.mean([ap.feature_id in r.features for r in near])
            far_rate = np.mean([ap.feature_id in r.features for r in far])
            assert near_rate >= far_rate
