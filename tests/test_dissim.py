"""Compound dissimilarity, softmax weighting, joint-inclusion similarity."""

import math
import re

import numpy as np
import pytest

from rfmloc.dissim import (EmptyComparison, WeightOverflow, WeightVector, feature_distance,
                           mji, softmax_row, softmax_weights, weighted_cdm)
from rfmloc.model import Location, PositioningConfig, RfmEntry
from tests.conftest import make_fp, random_rfm

CFG = PositioningConfig()


def entries(sigmas):
    return [RfmEntry(f"f{i}", -60.0, s) for i, s in enumerate(sigmas)]


class TestFeatureDistance:
    def test_squared_by_default(self):
        assert feature_distance(-60.0, -64.0) == 16.0

    def test_absolute(self):
        assert feature_distance(-60.0, -64.0, p=1.0) == 4.0

    def test_fractional_power(self):
        assert feature_distance(-60.0, -64.0, p=3.0) == pytest.approx(64.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            feature_distance(0.0, 1.0, p=0.5)


class TestWeightedCdm:
    def test_hand_oracle_with_all_three_terms(self):
        # shared a: 0.6 * (-60 - -62)^2            = 2.4
        # obs-only b: 3 * 0.4 * (-90 - -110)^2     = 480.0
        obs = make_fp({"a": -60.0, "b": -90.0})
        ref = [RfmEntry("a", -62.0, 1.0)]
        wv = WeightVector({"a": 0.6, "b": 0.4}, min_weight=0.4)
        assert weighted_cdm(obs, ref, wv, CFG) == pytest.approx(482.4, rel=1e-12)

    def test_ref_only_term(self):
        # ref-only a: alpha2 * w * (gamma - r)^2 = 3 * 1 * (-110 - -70)^2 = 4800
        obs = make_fp({})
        ref = [RfmEntry("a", -70.0, 1.0)]
        wv = WeightVector({"a": 1.0}, min_weight=1.0)
        assert weighted_cdm(obs, ref, wv, CFG) == pytest.approx(4800.0, rel=1e-12)

    def test_identical_fingerprints_give_zero(self):
        obs = make_fp({"a": -60.0, "b": -70.0})
        ref = [RfmEntry("a", -60.0, 1.0), RfmEntry("b", -70.0, 1.0)]
        wv = WeightVector({"a": 0.5, "b": 0.5}, min_weight=0.5)
        assert weighted_cdm(obs, ref, wv, CFG) == 0.0

    def test_min_weight_covers_unlisted_features(self):
        obs = make_fp({"z": -80.0})
        ref = [RfmEntry("a", -60.0, 1.0)]
        wv = WeightVector({"a": 1.0}, min_weight=0.25)
        # obs-only z at fallback weight + ref-only a at listed weight
        expected = 3 * 0.25 * (-80 + 110) ** 2 + 3 * 1.0 * (-60 + 110) ** 2
        assert weighted_cdm(obs, ref, wv, CFG) == pytest.approx(expected, rel=1e-12)

    def test_empty_both_sides_raises(self):
        with pytest.raises(EmptyComparison):
            weighted_cdm(make_fp({}), [], WeightVector({}, 1.0), CFG)

    def test_non_negative_property(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            fids = [f"f{i}" for i in range(n)]
            obs_feats = {f: float(rng.uniform(-105, -40)) for f in fids
                         if rng.random() < 0.7}
            ref = [RfmEntry(f, float(rng.uniform(-105, -40)), 1.0) for f in fids
                   if rng.random() < 0.7]
            if not obs_feats and not ref:
                continue
            wv = WeightVector({f: float(rng.uniform(0.01, 1)) for f in fids}, 0.01)
            d = weighted_cdm(make_fp(obs_feats), ref, wv, CFG)
            assert d >= 0.0
            assert math.isfinite(d)

    def test_zero_iff_identical_when_alphas_positive(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            feats = {f"f{i}": float(rng.uniform(-100, -40)) for i in range(n)}
            ref = [RfmEntry(f, v, 1.0) for f, v in feats.items()]
            wv = WeightVector({f: float(rng.uniform(0.1, 1)) for f in feats}, 0.1)
            assert weighted_cdm(make_fp(feats), ref, wv, CFG) == 0.0
            # perturb one shared value: strictly positive
            victim = list(feats)[0]
            bumped = dict(feats)
            bumped[victim] += 1.0
            assert weighted_cdm(make_fp(bumped), ref, wv, CFG) > 0.0

    def test_scaling_all_weights_scales_result(self, rng):
        for _ in range(200):
            feats = {f"f{i}": float(rng.uniform(-100, -40)) for i in range(4)}
            ref = [RfmEntry(f, float(rng.uniform(-100, -40)), 1.0)
                   for f in list(feats)[:3]]
            w = {f: float(rng.uniform(0.1, 1)) for f in feats}
            c = float(rng.uniform(0.5, 4))
            d1 = weighted_cdm(make_fp(feats), ref, WeightVector(w, 0.1), CFG)
            d2 = weighted_cdm(make_fp(feats), ref,
                              WeightVector({f: c * v for f, v in w.items()}, c * 0.1), CFG)
            assert d2 == pytest.approx(c * d1, rel=1e-9)


class TestSoftmaxWeights:
    def test_two_sigma_ratio_oracle(self):
        # beta=2, sigmas {1, 2}: exponents 2 and 0.5, ratio exp(1.5)
        wv = softmax_weights(entries([1.0, 2.0]), beta=2.0)
        assert wv.weights["f0"] / wv.weights["f1"] == pytest.approx(math.exp(1.5), rel=1e-12)
        assert sum(wv.weights.values()) == pytest.approx(1.0, rel=1e-12)

    def test_default_form_favors_stable_features(self):
        wv = softmax_weights(entries([0.5, 3.0]), beta=2.0)
        assert wv.weights["f0"] > wv.weights["f1"]

    def test_verbatim_form_inverts_preference(self):
        wv = softmax_weights(entries([0.5, 3.0]), beta=2.0, form="paper_verbatim")
        assert wv.weights["f0"] < wv.weights["f1"]

    def test_equal_sigmas_give_uniform(self):
        wv = softmax_weights(entries([2.0] * 5), beta=2.0)
        for w in wv.weights.values():
            assert w == pytest.approx(0.2, rel=1e-12)

    def test_extreme_precision_does_not_overflow(self):
        wv = softmax_weights(entries([1e-4, 5.0]), beta=2.0)
        assert wv.weights["f0"] == pytest.approx(1.0)
        assert all(math.isfinite(w) for w in wv.weights.values())

    def test_min_weight_is_smallest_weight(self):
        wv = softmax_weights(entries([0.7, 1.3, 2.9]), beta=2.0)
        assert wv.min_weight == min(wv.weights.values())

    def test_empty_entries(self):
        wv = softmax_weights([], beta=2.0)
        assert wv.weights == {}
        assert wv.min_weight == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            softmax_weights(entries([1.0]), beta=0.0)
        with pytest.raises(ValueError):
            softmax_weights(entries([0.0]), beta=2.0)
        with pytest.raises(ValueError):
            softmax_weights(entries([1.0]), beta=2.0, form="banana")

    def test_normalization_property(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 30))
            sig = [float(rng.uniform(0.2, 8)) for _ in range(n)]
            beta = float(rng.uniform(0.1, 5))
            form = "precision_softmax" if rng.random() < 0.5 else "paper_verbatim"
            wv = softmax_weights(entries(sig), beta=beta, form=form)
            assert sum(wv.weights.values()) == pytest.approx(1.0, rel=1e-9)
            assert all(w > 0 for w in wv.weights.values())

    def test_monotone_in_sigma_property(self, rng):
        # default form: lower sigma never gets the smaller weight
        for _ in range(200):
            n = int(rng.integers(2, 12))
            sig = sorted(float(rng.uniform(0.2, 8)) for _ in range(n))
            wv = softmax_weights(entries(sig), beta=float(rng.uniform(0.1, 4)))
            ordered = [wv.weights[f"f{i}"] for i in range(n)]
            assert all(a >= b - 1e-15 for a, b in zip(ordered, ordered[1:]))

    def test_shift_invariance_of_exponents_is_exact(self, rng):
        # stabilization subtracts the max exponent: adding a common constant
        # to every exponent cannot change the weights at all, and the identity
        # sigma -> sigma yields bitwise equal output on repeat calls
        for _ in range(50):
            sig = [float(rng.uniform(0.3, 6)) for _ in range(int(rng.integers(1, 9)))]
            a = softmax_weights(entries(sig), beta=1.7)
            b = softmax_weights(entries(sig), beta=1.7)
            assert a.weights == b.weights


def dict_softmax(entries, beta, form):
    """The softmax as a dict over an entry list, written out on its own."""
    if not entries:
        return WeightVector({}, 1.0)
    sigma = np.array([e.sigma for e in entries], dtype=float)
    exponents = beta / (sigma * sigma)
    if form == "paper_verbatim":
        exponents = -exponents
    w = np.exp(exponents - exponents.max())
    w /= w.sum()
    return WeightVector({e.feature: float(wi) for e, wi in zip(entries, w)}, float(w.min()))


class TestSoftmaxRow:
    @pytest.mark.parametrize("form", ["precision_softmax", "paper_verbatim"])
    def test_is_the_aligned_softmax_bit_for_bit(self, rng, form):
        absent = 0
        for _ in range(60):
            rfm = random_rfm(rng, n_points=int(rng.integers(2, 30)),
                             n_features=int(rng.integers(1, 9)), density=0.5,
                             sigma_range=(0.2, 8.0))
            loc = Location(*map(float, rng.uniform(-5.0, 35.0, size=2)))
            beta = float(rng.uniform(0.1, 5.0))
            features, _, sigmas = rfm.query_arrays(loc)
            row, low = softmax_row(sigmas, features, len(rfm.feature_ids), beta, form)
            entries = rfm.query(loc)
            for wv in (softmax_weights(entries, beta, form), dict_softmax(entries, beta, form)):
                aligned = np.array([wv.get(f) for f in rfm.feature_ids])
                assert row.tobytes() == aligned.tobytes()
                assert low == wv.min_weight
            absent += len(entries) < len(rfm.feature_ids)
        assert absent > 0  # features the location has no entry for hold the minimum

    @pytest.mark.parametrize("form", ["precision_softmax", "paper_verbatim"])
    def test_no_entries_give_a_unit_row(self, form):
        row, low = softmax_row(np.empty(0), np.empty(0, dtype=np.intp), 4, 2.0, form)
        assert row.tolist() == [1.0] * 4
        assert low == 1.0
        assert softmax_weights([], 2.0, form) == WeightVector({}, low)

    def test_rejects_bad_inputs(self):
        one = np.array([0])
        with pytest.raises(ValueError):
            softmax_row(np.array([1.0]), one, 1, 0.0)
        with pytest.raises(ValueError):
            softmax_row(np.array([0.0]), one, 1, 2.0)
        with pytest.raises(ValueError):
            softmax_row(np.array([1.0]), one, 1, 2.0, "banana")

    @pytest.mark.parametrize("form", ["precision_softmax", "paper_verbatim"])
    @pytest.mark.parametrize("sigmas, beta", [([1.0, 0.5], 1e308), ([1.0, 1e-200], 2.0)])
    def test_an_exponent_too_large_for_a_float_raises(self, form, sigmas, beta):
        # beta / sigma^2 overflows, or sigma^2 underflows to 0: the row would hold NaN
        with pytest.raises(WeightOverflow, match=re.escape(f"at beta = {beta!r}")):
            softmax_row(np.array(sigmas), np.arange(2), 2, beta, form)


class TestMji:
    def test_hand_oracle(self):
        # |obs|=3, |ref|=4, shared 2: 0.5*(2/5 + 2/3) = 8/15
        obs = frozenset({"a", "b", "c"})
        ref = frozenset({"b", "c", "d", "e"})
        assert mji(obs, ref) == pytest.approx(0.5 * (2 / 5 + 2 / 3), rel=1e-12)

    def test_identical_sets_give_one(self):
        s = frozenset({"a", "b"})
        assert mji(s, s) == 1.0

    def test_disjoint_sets_give_zero(self):
        assert mji(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_empty_observation_raises(self):
        from rfmloc.dissim import UndefinedSimilarity
        with pytest.raises(UndefinedSimilarity):
            mji(frozenset(), frozenset({"a"}))

    def test_bounds_property(self, rng):
        universe = [f"f{i}" for i in range(12)]
        for _ in range(200):
            obs = frozenset(u for u in universe if rng.random() < 0.5)
            ref = frozenset(u for u in universe if rng.random() < 0.5)
            if not obs:
                continue
            v = mji(obs, ref)
            assert 0.0 <= v <= 1.0

    def test_monotone_in_shared_property(self, rng):
        # growing the reference set with observed features never lowers it...
        # as long as union growth is offset; use subset chains instead
        for _ in range(200):
            n = int(rng.integers(2, 10))
            obs = frozenset(f"f{i}" for i in range(n))
            k1 = int(rng.integers(1, n + 1))
            k2 = int(rng.integers(k1, n + 1))
            ref1 = frozenset(f"f{i}" for i in range(k1))
            ref2 = frozenset(f"f{i}" for i in range(k2))
            assert mji(obs, ref2) >= mji(obs, ref1) - 1e-15
