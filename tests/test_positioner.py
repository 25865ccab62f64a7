"""Lookup, iteration, termination handling, robust loop center."""

import itertools
import json
import math
import sys
import threading
import time
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rfmloc import positioner
from rfmloc.dissim import (EmptyComparison, WeightOverflow, WeightVector, softmax_weights,
                           weighted_cdm)
from rfmloc.model import (ExtendedRfm, Fingerprint, Location, PositionEstimate,
                          PositioningConfig, RfmEntry, Termination, estimate_to_obj)
from rfmloc import _kernels
from rfmloc._kernels import _certified_rows, _k_smallest, ranked
from rfmloc.positioner import (InsufficientPoints, _aligned, _cells, _extract_loop,
                               _outside_constant, _random_start, _weight_row,
                               detect_termination, dissimilarities, iterate_locate, knn_locate,
                               locate_batch, mcd_center, resolve_state)
from tests.conftest import make_fp, make_rfm, random_rfm

CFG = PositioningConfig()


def locs(*pairs):
    return [Location(float(x), float(y)) for x, y in pairs]


class TestDissimilarities:
    def test_matches_scalar_reference(self, rng):
        # the batched kernel against the per-point scalar implementation
        for _ in range(40):
            rfm = random_rfm(rng, n_points=int(rng.integers(2, 12)),
                             n_features=int(rng.integers(1, 6)),
                             density=0.7)
            fids = rfm.feature_ids
            obs = make_fp({f: float(rng.uniform(-100, -40)) for f in fids
                           if rng.random() < 0.6})
            wv = softmax_weights(rfm.query(Location(1.0, 1.0)), CFG.beta)
            d = dissimilarities(obs, rfm, CFG, wv)
            for j in range(rfm.n_points):
                expected = weighted_cdm(obs, rfm.entries_at(j), wv, CFG)
                assert d[j] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_observation_feature_outside_universe(self):
        rfm = make_rfm([[0.0, 0.0]], ["a"], [[-60.0]])
        obs = make_fp({"a": -60.0, "zz": -70.0})
        wv = WeightVector({"a": 0.9}, min_weight=0.1)
        d = dissimilarities(obs, rfm, CFG, wv)
        # zz measured against the missing indicator at fallback weight
        assert d[0] == pytest.approx(3 * 0.1 * (-70 + 110) ** 2, rel=1e-12)

    def test_outside_feature_with_its_own_weight(self):
        # a weight vector may weigh a feature the map has never seen: the
        # constant then takes that weight, not the min weight
        rfm = make_rfm([[0.0, 0.0], [5.0, 0.0]], ["a", "b"], [[-60.0, np.nan], [-75.0, -50.0]])
        obs = make_fp({"a": -62.0, "zz": -70.0, "yy": -95.0})
        wv = WeightVector({"a": 0.6, "zz": 0.3}, min_weight=0.05)
        d = dissimilarities(obs, rfm, CFG, wv)
        for j in range(rfm.n_points):
            assert d[j] == pytest.approx(weighted_cdm(obs, rfm.entries_at(j), wv, CFG),
                                         rel=1e-12)
        assert d[0] == pytest.approx(0.6 * 4.0 + 3 * (0.3 * 40.0 ** 2 + 0.05 * 15.0 ** 2),
                                     rel=1e-12)

    def test_unweighted_defaults_to_unit_weights(self):
        rfm = make_rfm([[0.0, 0.0]], ["a", "b"], [[-60.0, -70.0]])
        obs = make_fp({"a": -64.0})
        d = dissimilarities(obs, rfm, CFG)
        assert d[0] == pytest.approx(16.0 + 3 * (-70 + 110) ** 2, rel=1e-12)


class TestKnnLocate:
    def test_single_nearest(self):
        rfm = make_rfm([[0.0, 0.0], [10.0, 0.0]], ["a"], [[-60.0], [-80.0]])
        got = knn_locate(make_fp({"a": -61.0}), rfm, CFG)
        assert got == Location(0.0, 0.0)

    def test_k3_centroid(self):
        rfm = make_rfm([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [40.0, 40.0]],
                       ["a"], [[-60.0], [-61.0], [-62.0], [-100.0]])
        cfg = PositioningConfig(k=3)
        got = knn_locate(make_fp({"a": -61.0}), rfm, cfg)
        assert (got.x, got.y) == pytest.approx((1.0, 1.0))

    def test_brute_force_oracle(self, rng):
        for _ in range(40):
            rfm = random_rfm(rng, n_points=int(rng.integers(3, 15)),
                             n_features=int(rng.integers(1, 5)), density=0.8)
            k = int(rng.integers(1, 4))
            cfg = PositioningConfig(k=k)
            obs = make_fp({f: float(rng.uniform(-100, -40))
                           for f in rfm.feature_ids if rng.random() < 0.7})
            d = [weighted_cdm(obs, rfm.entries_at(j), None, cfg)
                 for j in range(rfm.n_points)]
            order = sorted(range(len(d)), key=lambda j: (d[j], j))[:min(k, len(d))]
            ex = np.array([[rfm.location_at(j).x, rfm.location_at(j).y]
                           for j in order]).mean(axis=0)
            got = knn_locate(obs, rfm, cfg)
            assert (got.x, got.y) == pytest.approx(tuple(ex), rel=1e-9, abs=1e-9)

    def test_tie_prefers_lower_index(self):
        rfm = make_rfm([[0.0, 0.0], [5.0, 5.0]], ["a"], [[-60.0], [-60.0]])
        got = knn_locate(make_fp({"a": -60.0}), rfm, CFG)
        assert got == Location(0.0, 0.0)

    def test_k_larger_than_map(self):
        rfm = make_rfm([[0.0, 0.0], [2.0, 0.0]], ["a"], [[-60.0], [-62.0]])
        got = knn_locate(make_fp({"a": -61.0}), rfm, PositioningConfig(k=10))
        assert (got.x, got.y) == pytest.approx((1.0, 0.0))


class TestDetectTermination:
    def test_converging_pair(self):
        assert detect_termination(locs((3, 3), (3, 3)), CFG) is Termination.CONVERGING

    def test_converging_needs_two(self):
        assert detect_termination(locs((3, 3)), CFG) is None

    def test_loop_revisit_of_first_estimate(self):
        got = detect_termination(locs((0, 0), (5, 0), (0, 0)), CFG)
        assert got is Termination.LOOPING

    def test_immediate_predecessor_is_not_a_loop(self):
        got = detect_termination(locs((0, 0), (5, 0), (5, 0)), CFG)
        assert got is Termination.CONVERGING

    def test_converging_wins_over_looping(self):
        # last two equal AND an earlier revisit: classified converging
        got = detect_termination(locs((0, 0), (5, 0), (0, 0), (0, 0)), CFG)
        assert got is Termination.CONVERGING

    def test_budget_exhaustion(self):
        cfg = PositioningConfig(max_iterations=3)
        pts = locs((0, 0), (5, 0), (9, 0))
        assert detect_termination(pts, cfg) is Termination.MAX

    def test_none_means_continue(self):
        assert detect_termination(locs((0, 0), (5, 0), (9, 0)), CFG) is None

    def test_tolerance_is_strict(self):
        cfg = PositioningConfig(converge_tol=1e-3)
        exact = locs((0, 0), (1e-3, 0))
        inside = locs((0, 0), (0.9e-3, 0))
        assert detect_termination(exact, cfg) is None
        assert detect_termination(inside, cfg) is Termination.CONVERGING


class TestMcdCenter:
    def test_square_corners_give_center(self):
        got = mcd_center(locs((0, 0), (2, 0), (0, 2), (2, 2)))
        assert (got.x, got.y) == pytest.approx((1.0, 1.0))

    def test_identical_points(self):
        got = mcd_center(locs((3, 4), (3, 4), (3, 4)))
        assert (got.x, got.y) == (3.0, 4.0)

    def test_collinear_falls_back_to_median(self):
        got = mcd_center(locs((0, 0), (1, 0), (2, 0), (9, 0)))
        assert (got.x, got.y) == pytest.approx((1.5, 0.0))

    def test_outlier_rejected_small_n(self):
        # 5 near-coincident cluster points + 1 far outlier, h = 5 of 6
        pts = locs((0, 0), (0.01, 0), (0, 0.01), (0.01, 0.01), (0.005, 0.02),
                   (50, 50))
        got = mcd_center(pts)
        assert math.hypot(got.x, got.y) < 0.05

    def test_exhaustive_oracle(self, rng):
        # brute force over all h-subsets must agree with the small-n path
        for _ in range(20):
            n = int(rng.integers(4, 9))
            pts = [Location(float(x), float(y))
                   for x, y in rng.uniform(0, 10, size=(n, 2))]
            h = (n + 4) // 2
            best = None
            best_det = math.inf
            for subset in itertools.combinations(range(n), h):
                arr = np.array([[pts[i].x, pts[i].y] for i in subset])
                c = arr - arr.mean(axis=0)
                cov = c.T @ c / (h - 1)
                det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
                if det < best_det:
                    best_det = det
                    best = arr.mean(axis=0)
            got = mcd_center(pts)
            assert (got.x, got.y) == pytest.approx(tuple(best), rel=1e-12)

    def test_large_n_rejects_outliers(self, rng):
        cluster = [Location(float(x), float(y))
                   for x, y in rng.normal(0, 0.01, size=(11, 2))]
        outliers = locs((50, 50), (60, -40), (-70, 30))
        got = mcd_center(cluster + outliers)
        assert math.hypot(got.x, got.y) < 0.05

    def test_large_n_deterministic(self, rng):
        pts = [Location(float(x), float(y))
               for x, y in rng.uniform(0, 5, size=(20, 2))]
        a = mcd_center(pts)
        b = mcd_center(pts)
        assert (a.x, a.y) == (b.x, b.y)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            mcd_center(locs((0, 0)))


class TestResolveState:
    FALLBACK = Location(7.0, 7.0)

    def resolve(self, state, path, loop):
        return resolve_state(state, path, loop, self.FALLBACK, 4, CFG)

    def test_converging_keeps_last(self):
        path = locs((0, 0), (1, 1), (1, 1))
        est = self.resolve(Termination.CONVERGING, path, None)
        assert est.location == Location(1.0, 1.0)
        assert est.tf is Termination.CONVERGING
        assert est.iterations == 2
        assert est.loop_points is None
        assert est.query_id == 4

    def test_tight_long_loop_resolves_to_robust_center(self):
        loop = locs((1, 1), (1.002, 1), (1, 1.002), (1.002, 1.002))
        path = locs((0, 0)) + loop + locs((1, 1))
        est = self.resolve(Termination.LOOPING, path, loop)
        assert est.tf is Termination.LOOPING
        assert est.loop_points == tuple(loop)
        assert est.location.x == pytest.approx(1.001, abs=1e-9)

    def test_short_loop_resolves_to_the_fallback(self):
        loop = locs((1, 1), (2, 2))
        path = locs((0, 0)) + loop + locs((1, 1))
        est = self.resolve(Termination.LOOPING, path, loop)
        assert est.location == self.FALLBACK
        assert est.tf is Termination.MAX
        assert est.loop_points == tuple(loop)  # recorded for diagnostics

    def test_wide_loop_falls_back(self):
        loop = locs((0, 0), (3, 0), (0, 3), (3, 3))  # 4 points but diameter >> cap
        path = locs((9, 9)) + loop + locs((0, 0))
        est = self.resolve(Termination.LOOPING, path, loop)
        assert est.location == self.FALLBACK
        assert est.tf is Termination.MAX

    def test_max_resolves_to_the_fallback(self):
        path = locs((2, 2), (3, 3), (4, 4))
        est = self.resolve(Termination.MAX, path, None)
        assert est.location == self.FALLBACK  # not a path point
        assert est.tf is Termination.MAX
        assert est.iterations == 2
        assert est.path == tuple(path)
        assert est.loop_points is None
        assert est.query_id == 4


class TestIterateLocate:
    def test_constant_sigma_converges_fast_and_matches_single_shot(self, rng):
        for _ in range(25):
            rfm = random_rfm(rng, n_points=int(rng.integers(4, 20)),
                             n_features=int(rng.integers(2, 6)),
                             density=0.8, sigma_range=(1.7, 1.7))
            obs = make_fp({f: float(rng.uniform(-100, -40))
                           for f in rfm.feature_ids if rng.random() < 0.8})
            est = iterate_locate(obs, rfm, CFG)
            single = knn_locate(obs, rfm, CFG)
            assert est.tf is Termination.CONVERGING
            assert est.iterations <= 2
            assert (est.location.x, est.location.y) == (single.x, single.y)

    def test_termination_is_total(self, rng):
        for _ in range(60):
            rfm = random_rfm(rng, n_points=int(rng.integers(2, 25)),
                             n_features=int(rng.integers(1, 7)),
                             density=0.5, sigma_range=(0.5, 6.0))
            obs = make_fp({f: float(rng.uniform(-105, -40))
                           for f in rfm.feature_ids if rng.random() < 0.6})
            est = iterate_locate(obs, rfm, CFG)
            assert est.tf in (Termination.CONVERGING, Termination.LOOPING,
                              Termination.MAX)
            assert est.iterations <= CFG.max_iterations
            assert len(est.path) == est.iterations + 1

    def test_path_starts_at_initialization(self):
        rfm = make_rfm([[0.0, 0.0], [4.0, 0.0]], ["a"], [[-60.0], [-70.0]])
        est = iterate_locate(make_fp({"a": -60.0}), rfm, CFG)
        start = knn_locate(make_fp({"a": -60.0}), rfm, CFG)
        assert est.path[0] == start

    def test_random_init_is_query_keyed(self, rng):
        rfm = random_rfm(rng, n_points=30, n_features=3, density=0.9)
        cfg = PositioningConfig(init_mode="random", init_seed=5)

        def start(i):  # the path starts at the initialization
            return iterate_locate(make_fp({rfm.feature_ids[0]: -60.0}, fp_id=i), rfm,
                                  cfg).path[0]

        starts = {start(i) for i in range(40)}
        # repeatable per id, varied across ids
        assert start(7) == start(7)
        assert len(starts) > 5
        assert starts <= {rfm.location_at(j) for j in range(rfm.n_points)}


def same_map(rfm):
    """A fresh copy of ``rfm``, with an empty memo of weight rows."""
    return ExtendedRfm(rfm.locations, rfm.feature_ids, rfm.values, rfm.sigmas,
                       rfm.builder_config)


def fill_memo(rfm):
    """Fill ``rfm``'s memo with rows no search asks for."""
    for i in range(rfm.n_points):
        rfm.remembered_row(("filler", i), lambda: (np.zeros(1),))


def smoothed_by(estimates):
    """The locations a batch's searches need the spread layer at: every
    weighted path point, which is each path but its last point."""
    return {p for est in estimates for p in est.path[:-1]}


class TestQueryReuse:
    def test_each_searched_location_queried_once(self, rng, monkeypatch):
        asked = []
        spread_arrays = ExtendedRfm.spread_arrays

        def counting_query(self, loc):
            asked.append(loc)
            return spread_arrays(self, loc)

        monkeypatch.setattr(ExtendedRfm, "spread_arrays", counting_query)
        # k = 1: every searched location is a reference point, so a cold memo never fills
        cfg = PositioningConfig(max_iterations=4)
        unresolved = 0
        for _ in range(40):
            rfm = random_rfm(rng, n_points=int(rng.integers(2, 25)),
                             n_features=int(rng.integers(1, 7)),
                             density=0.5, sigma_range=(0.5, 6.0))
            queries = [make_fp({f: float(rng.uniform(-105, -40))
                                for f in rfm.feature_ids if rng.random() < 0.6}, fp_id=i)
                       for i in range(5)]
            asked.clear()
            cold = locate_batch(queries, rfm, cfg)
            needed = smoothed_by(cold)
            assert len(asked) == len(set(asked))  # each once across the whole batch
            assert set(asked) == needed
            unresolved += sum(e.tf is Termination.MAX for e in cold)
            full = same_map(rfm)
            fill_memo(full)
            asked.clear()
            assert locate_batch(queries, full, cfg) == cold
            assert set(asked) == needed  # a full memo smooths path points, and only those
            asked.clear()
            assert locate_batch(queries, rfm, cfg) == cold
            assert asked == []  # warm: the cold batch left every row it needed
        assert unresolved > 0


class TestWeightMemo:
    def test_cold_and_warm_searches_agree(self, rng):
        for k in (1, 3):
            cfg = PositioningConfig(k=k, max_iterations=12)
            rfm = random_rfm(rng, n_points=30, n_features=6, density=0.6,
                             sigma_range=(0.5, 6.0))
            queries = [make_fp({f: float(rng.uniform(-105, -40))
                                for f in rfm.feature_ids if rng.random() < 0.7}, fp_id=i)
                       for i in range(40)]
            cold = locate_batch(queries, rfm, cfg)
            assert locate_batch(queries, rfm, cfg) == cold
            assert locate_batch(queries, rfm, cfg, threads=3) == cold
            full = same_map(rfm)
            fill_memo(full)
            assert locate_batch(queries, full, cfg) == cold
            for beta, form in ((0.5, "precision_softmax"), (2.0, "paper_verbatim")):
                other = replace(cfg, beta=beta, weight_form=form)
                assert locate_batch(queries, rfm, other) == locate_batch(queries, same_map(rfm),
                                                                         other)

    def test_holds_at_most_n_points_rows(self, rng, monkeypatch):
        asked = set()
        spread_arrays = ExtendedRfm.spread_arrays

        def recording_query(self, loc):
            asked.add(loc)
            return spread_arrays(self, loc)

        monkeypatch.setattr(ExtendedRfm, "spread_arrays", recording_query)
        rfm = random_rfm(rng, n_points=8, n_features=5, density=0.6, sigma_range=(0.5, 6.0))
        queries = [make_fp({f: float(rng.uniform(-105, -40))
                            for f in rfm.feature_ids if rng.random() < 0.7}, fp_id=i)
                   for i in range(60)]
        cfg = PositioningConfig(k=3, max_iterations=12)
        estimates = locate_batch(queries, rfm, cfg)
        assert len(asked) > 2 * rfm.n_points  # k = 3 iterates fall between points
        assert len(rfm._rows) == rfm.n_points
        assert estimates == locate_batch(queries, same_map(rfm), cfg)

    def test_cap_and_rows_hold_under_racing_threads(self, rng):
        rfm = random_rfm(rng, n_points=5, n_features=3, density=0.7, sigma_range=(0.5, 6.0))
        threads = 8
        start = threading.Barrier(threads)

        def row(i):
            time.sleep(1e-4)  # let the other threads run between lookup and insert
            return (np.full(3, float(i)),)

        def insert(_):
            start.wait(timeout=10)
            return {i: rfm.remembered_row(("race", i), lambda: row(i))
                    for i in itertools.chain(range(12), reversed(range(12)))}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = [f.result(timeout=60)
                           for f in [pool.submit(insert, t) for t in range(threads)]]
        finally:
            sys.setswitchinterval(interval)
        assert len(rfm._rows) == rfm.n_points
        for got in results:
            for i, row in got.items():
                assert row[0].tolist() == [float(i)] * 3
                kept = rfm._rows.get(("race", i))
                assert kept is None or row is kept  # every caller shares a kept row

    def test_a_row_kept_meanwhile_is_the_one_returned(self, rng):
        rfm = random_rfm(rng, n_points=3, n_features=2)

        def overtaken():
            # another caller keeps this key, then fills the memo, while this one computes
            rfm.remembered_row("key", lambda: (np.zeros(1),))
            fill_memo(rfm)
            return (np.ones(1),)

        row = rfm.remembered_row("key", overtaken)
        assert row is rfm._rows["key"]
        assert row[0].tolist() == [0.0]

    def test_rows_are_read_only(self, rng):
        rfm = random_rfm(rng, n_points=12, n_features=4, density=0.7, sigma_range=(0.5, 6.0))
        obs = make_fp({f: -60.0 for f in rfm.feature_ids[:3]})
        iterate_locate(obs, rfm, CFG)
        assert rfm._rows
        for row in rfm._rows.values():
            assert not row.weights.flags.writeable
            with pytest.raises(ValueError):
                row.weights[0] = row.weights[0]


class TestKernelConstants:
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_each_comparison_owns_its_cells(self, rng, p):
        rfm = random_rfm(rng, n_points=15, n_features=5, density=0.6, sigma_range=(0.5, 6.0))
        cfg = replace(CFG, minkowski_p=p)
        first_obs, second_obs = rng.uniform(-105, -40, size=(2, len(rfm.feature_ids)))
        first_obs[1] = second_obs[3] = np.nan
        first = _cells(first_obs, rfm, cfg)
        kept = first.copy()
        second = _cells(second_obs, rfm, cfg)  # the same thread, map and scales
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()
        assert second.tobytes() != kept.tobytes()

    def test_alternating_methods_on_one_map_match_a_map_per_method(self, rng):
        rfm = random_rfm(rng, n_points=25, n_features=6, density=0.6, sigma_range=(0.5, 6.0))
        queries = [make_fp({f: float(rng.uniform(-105, -40))
                            for f in rfm.feature_ids if rng.random() < 0.7}, fp_id=i)
                   for i in range(20)]
        methods = ("knn", "iterative", "cdm")

        def lines(estimates):
            return [json.dumps(estimate_to_obj(e)) for e in estimates]

        alone = {m: lines(locate_batch(queries, same_map(rfm), CFG, method=m)) for m in methods}
        mixed = {m: [] for m in methods}
        for q in queries:
            for m in methods:
                mixed[m] += lines(locate_batch([q], rfm, CFG, method=m))
        assert mixed == alone


def sparse_search_cases(rng, count):
    """Random sparse maps, each with an observation that also holds a
    feature outside the map's universe, for k = 1 and 3 and both starts."""
    for i in range(count):
        rfm = random_rfm(rng, n_points=int(rng.integers(4, 30)),
                         n_features=int(rng.integers(2, 8)),
                         density=0.5, sigma_range=(0.5, 6.0))
        features = {f: float(rng.uniform(-105, -40))
                    for f in rfm.feature_ids if rng.random() < 0.6}
        features["02:ff:00:00:00:00"] = float(rng.uniform(-105, -40))
        cfg = PositioningConfig(k=(1, 3)[i % 2], init_mode=("knn", "random")[i // 2 % 2],
                                max_iterations=12)
        yield make_fp(features, fp_id=i), rfm, cfg


def reference_start(obs, rfm, cfg):
    """The search's start: the unweighted lookup, or the query-keyed draw."""
    return knn_locate(obs, rfm, cfg) if cfg.init_mode == "knn" else _random_start(obs, rfm, cfg)


def reference_search(obs, rfm, cfg):
    """The iteration spelled out with the public one-shot lookups."""
    path = [reference_start(obs, rfm, cfg)]
    estimates = []
    state = None
    for _ in range(cfg.max_iterations):
        wv = softmax_weights(rfm.query(path[-1]), cfg.beta, cfg.weight_form)
        estimates.append(knn_locate(obs, rfm, cfg, wv))
        path.append(estimates[-1])
        state = detect_termination(estimates, cfg)
        if state is not None:
            break
    loop = _extract_loop(estimates) if state is Termination.LOOPING else None
    return resolve_state(state, path, loop, knn_locate(obs, rfm, cfg), obs.id, cfg)


class TestSearchSteps:
    def test_each_step_is_the_weighted_lookup(self, rng):
        seen = set()
        for obs, rfm, cfg in sparse_search_cases(rng, 80):
            est = iterate_locate(obs, rfm, cfg)
            assert est.path[0] == reference_start(obs, rfm, cfg)
            for here, nxt in zip(est.path, est.path[1:]):
                wv = softmax_weights(rfm.query(here), cfg.beta, cfg.weight_form)
                assert nxt == knn_locate(obs, rfm, cfg, wv)
            assert est == reference_search(obs, rfm, cfg)
            seen.add((est.tf, est.iterations > 2))
        # searches that converge and that fall back, some of them past two steps
        assert {(Termination.CONVERGING, True), (Termination.MAX, True)} <= seen

    def test_an_unresolved_search_ends_at_its_knn_estimate(self, rng):
        ended = {"knn": 0, "random": 0}
        off_path = 0
        for obs, rfm, cfg in sparse_search_cases(rng, 120):
            est = iterate_locate(obs, rfm, cfg)
            if est.tf is not Termination.MAX:
                continue
            nearest = knn_locate(obs, rfm, cfg)
            assert est.location == nearest
            if cfg.init_mode == "knn":
                assert nearest == est.path[0]
            else:
                off_path += nearest not in est.path  # no choice among path points finds it
            ended[cfg.init_mode] += 1
        assert min(ended.values()) > 0 and off_path > 0

    def test_each_weighting_is_the_public_dissimilarity(self, rng):
        # bit for bit, the constant of the feature outside the map included
        for obs, rfm, cfg in sparse_search_cases(rng, 40):
            obs_vec, outside = _aligned(obs, rfm, cfg)
            cells = _cells(obs_vec, rfm, cfg)
            for here in iterate_locate(obs, rfm, cfg).path:
                row = _weight_row(rfm, here, cfg)
                base = _outside_constant(outside, lambda _: row.min_weight, cfg.alpha1)
                got = _kernels.cdm_reduce(cells, row.weights, base)
                wv = softmax_weights(rfm.query(here), cfg.beta, cfg.weight_form)
                assert got.tobytes() == dissimilarities(obs, rfm, cfg, wv).tobytes()

    def test_one_comparison_per_search(self, rng, monkeypatch):
        calls = []
        cells = _kernels.cdm_cells

        def counting_cells(*args, **kwargs):
            calls.append(args)
            return cells(*args, **kwargs)

        monkeypatch.setattr(_kernels, "cdm_cells", counting_cells)
        iterations = set()
        for obs, rfm, cfg in sparse_search_cases(rng, 40):
            calls.clear()
            est = iterate_locate(obs, rfm, cfg)
            assert len(calls) == 1
            iterations.add(est.iterations)
        assert max(iterations) > 2


class TestKSmallest:
    # k in {1, 3, 10, n, n + 2} wherever it applies: k beyond n ranks every value
    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_equals_the_stable_argsort(self, rng, n):
        for _ in range(20):
            d = rng.integers(0, max(n // 4, 2), size=n).astype(float)  # many ties
            order = np.argsort(d, kind="stable")
            for k in range(1, n + 3):
                assert np.array_equal(ranked(d.copy(), k), order[:k])

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_a_block_ranks_each_row_as_alone(self, rng, n):
        for _ in range(20):
            block = rng.integers(0, max(n // 4, 2), size=(7, n)).astype(float)
            order = np.argsort(block, axis=1, kind="stable")
            for k in sorted({1, 3, 10, n, n + 2}):
                top, values = _k_smallest(block.copy(), k)
                assert np.array_equal(top, order[:, :k])
                assert np.array_equal(values, np.take_along_axis(block, top, axis=1))
                for row, want in zip(block, top):
                    assert np.array_equal(ranked(row.copy(), k), want)

    def test_an_inf_among_the_k_smallest_raises(self, rng):
        for _ in range(20):
            d = rng.integers(0, 5, size=12).astype(float)
            d[rng.choice(12, size=3, replace=False)] = np.inf
            with pytest.raises(OverflowError):
                ranked(d.copy(), 10)  # the tenth smallest is inf
            # above the k smallest an inf ranks last, where it belongs
            assert np.array_equal(ranked(d.copy(), 9), np.argsort(d, kind="stable")[:9])
        with pytest.raises(OverflowError):
            ranked(np.full(4, np.inf), 1)


class TestLocateBatch:
    def _instance(self, rng):
        rfm = random_rfm(rng, n_points=15, n_features=4, density=0.8,
                         sigma_range=(0.5, 4.0))
        queries = [make_fp({f: float(rng.uniform(-100, -40))
                            for f in rfm.feature_ids if rng.random() < 0.7},
                           fp_id=i)
                   for i in range(12)]
        return rfm, queries

    def test_methods_produce_expected_shapes(self, rng):
        rfm, queries = self._instance(rng)
        for method in ("knn", "cdm", "iterative"):
            out = locate_batch(queries, rfm, CFG, method=method)
            assert len(out) == len(queries)
            assert [e.query_id for e in out] == list(range(12))

    def test_single_shot_methods_report_zero_iterations(self, rng):
        rfm, queries = self._instance(rng)
        for method in ("knn", "cdm"):
            for est in locate_batch(queries, rfm, CFG, method=method):
                assert est.iterations == 0
                assert est.tf is Termination.CONVERGING
                assert est.path == (est.location,)

    def test_knn_ignores_alpha_scaling(self, rng):
        rfm, queries = self._instance(rng)
        a = locate_batch(queries, rfm, CFG, method="knn")
        b = locate_batch(queries, rfm, PositioningConfig(alpha1=9.0, alpha2=7.0),
                         method="knn")
        assert [e.location for e in a] == [e.location for e in b]

    def test_knn_config_is_derived_once(self, rng):
        # the unit-scale config of each configuration is built once, and a
        # knn run equals cdm at unit scales
        rfm, queries = self._instance(rng)
        cfg = PositioningConfig(alpha1=9.0, alpha2=7.0, k=2)
        unit = positioner._unit_scales(cfg)
        assert unit == replace(cfg, alpha1=1.0, alpha2=1.0)
        assert positioner._unit_scales(PositioningConfig(alpha1=9.0, alpha2=7.0, k=2)) is unit
        assert (locate_batch(queries, rfm, cfg, method="knn")
                == locate_batch(queries, rfm, unit, method="cdm"))

    def test_cdm_respects_alpha_scaling(self, rng):
        # with alpha = 1 the cdm method coincides with knn
        rfm, queries = self._instance(rng)
        knn_out = locate_batch(queries, rfm, CFG, method="knn")
        cdm_out = locate_batch(queries, rfm,
                               PositioningConfig(alpha1=1.0, alpha2=1.0),
                               method="cdm")
        assert [e.location for e in knn_out] == [e.location for e in cdm_out]

    def test_threads_do_not_change_results(self, rng):
        rfm, queries = self._instance(rng)
        seq = locate_batch(queries, rfm, CFG, method="iterative", threads=1)
        par = locate_batch(queries, rfm, CFG, method="iterative", threads=4)
        assert seq == par

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, rng, threads):
        rfm, queries = self._instance(rng)
        with pytest.raises(ValueError, match="threads"):
            locate_batch(queries, rfm, CFG, threads=threads)

    def test_unknown_method_rejected(self, rng):
        rfm, queries = self._instance(rng)
        with pytest.raises(ValueError):
            locate_batch(queries, rfm, CFG, method="triangulate")


def single_shot(obs, rfm, cfg, method):
    """A kNN or CDM estimate spelled out with the public one-shot lookup."""
    if method == "knn":
        cfg = replace(cfg, alpha1=1.0, alpha2=1.0)
    loc = knn_locate(obs, rfm, cfg)
    return PositionEstimate(loc, Termination.CONVERGING, 0, (loc,), None, obs.id)


def one_by_one(queries, rfm, cfg, method):
    """Each query's estimate on its own, through the public lookups."""
    if method == "iterative":
        return [reference_search(q, rfm, cfg) for q in queries]
    return [single_shot(q, rfm, cfg, method) for q in queries]


def tie_heavy_case(rng, n_points=24, n_features=4):
    """An integer-valued map whose points repeat a few value rows, so many
    dissimilarities tie exactly, and integer queries on the same grid."""
    rows = rng.integers(-9, -3, size=(14, n_features)).astype(float) * 10.0
    values = rows[rng.integers(0, len(rows), size=n_points)]
    values[:, 0][rng.random(n_points) < 0.3] = np.nan  # some points lack the first feature
    sigmas = np.where(np.isfinite(values), rng.choice([0.5, 1.0, 2.0], size=values.shape),
                      np.nan)
    rfm = make_rfm(rng.uniform(0.0, 30.0, size=(n_points, 2)),
                   [f"02:00:00:00:00:{i:02x}" for i in range(n_features)], values, sigmas)
    queries = [make_fp({f: float(rng.integers(-9, -4) * 10) for f in rfm.feature_ids
                        if rng.random() < 0.8}, fp_id=i)
               for i in range(10)]
    return rfm, queries


@pytest.fixture
def lookups(monkeypatch):
    """Counts of the lookups a batch decides by the certificate and of those
    it leaves to the search's own cells."""
    counts = {"certified": 0, "undecided": 0, "products": 0}
    certify = _kernels._certified_rows

    def counting(*args):
        rows = certify(*args)
        counts["products"] += 1
        counts["undecided"] += sum(r is None for r in rows)
        counts["certified"] += sum(r is not None for r in rows)
        return rows

    monkeypatch.setattr(_kernels, "_certified_rows", counting)
    return counts


def small_products(monkeypatch, rfm, size):
    """Products of ``size`` searches on ``rfm``, so a lookup takes several."""
    monkeypatch.setattr(positioner, "_PRODUCT_BYTES", 8 * rfm.n_points * size)
    monkeypatch.setattr(positioner, "_PRODUCT_SEARCHES", size)


class TestLockstep:
    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_tied_lookups_fall_back_to_each_search_alone(self, rng, monkeypatch, lookups,
                                                         method, k, threads):
        cfg = PositioningConfig(k=k, max_iterations=12)
        for _ in range(6):
            rfm, queries = tie_heavy_case(rng)
            small_products(monkeypatch, rfm, 4)
            batch = locate_batch(queries, rfm, cfg, method, threads=threads)
            assert batch == one_by_one(queries, rfm, cfg, method)
        # exact ties forced the fallback, and the rest were certified
        assert lookups["undecided"] > 0 and lookups["certified"] > 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_batch_of_float_maps_is_certified_and_equals_each_search(self, rng, lookups, k):
        for obs, rfm, cfg in sparse_search_cases(rng, 20):
            cfg = replace(cfg, k=k)
            queries = [obs] + [make_fp({f: float(rng.uniform(-105, -40))
                                        for f in rfm.feature_ids if rng.random() < 0.6},
                                       fp_id=i)
                               for i in range(1, 12)]
            for method in ("iterative", "knn", "cdm"):
                assert locate_batch(queries, rfm, cfg, method) == one_by_one(queries, rfm, cfg,
                                                                               method)
        assert lookups["undecided"] == 0 and lookups["certified"] > 0

    def test_other_minkowski_orders_take_the_path_of_each_search(self, rng, monkeypatch,
                                                                 lookups):
        built = []
        expansion = _kernels.expansion

        def counting(ref):
            built.append(ref.shape)
            return expansion(ref)

        monkeypatch.setattr(_kernels, "expansion", counting)
        for obs, rfm, cfg in sparse_search_cases(rng, 8):
            queries = [obs, make_fp({rfm.feature_ids[0]: -70.0}, fp_id=1),
                       make_fp({f: -55.0 for f in rfm.feature_ids}, fp_id=2)]
            for p, products in ((1.5, 0), (2.0, None)):
                lookups["products"] = 0
                pcfg = replace(cfg, minkowski_p=p)
                for method in ("iterative", "knn", "cdm"):
                    assert (locate_batch(queries, rfm, pcfg, method)
                            == one_by_one(queries, rfm, pcfg, method))
                assert lookups["products"] > 0 if products is None else lookups["products"] == 0
        assert built  # p = 2 only
        # a batch of one never builds the expansion
        built.clear()
        locate_batch([obs], rfm, cfg)
        assert built == []

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("tied", [False, True], ids=["float", "tied"])
    def test_certified_rows_are_the_ranked_rows_of_the_cells(self, rng, k, tied):
        certified = undecided = 0
        for _ in range(40):
            if tied:
                rfm, _ = tie_heavy_case(rng, n_points=int(rng.integers(2, 40)))
            else:
                rfm = random_rfm(rng, n_points=int(rng.integers(2, 60)),
                                 n_features=int(rng.integers(1, 9)),
                                 density=float(rng.uniform(0.3, 1.0)), sigma_range=(0.5, 6.0))
            cfg = PositioningConfig(k=k, alpha1=float(rng.uniform(0, 4)),
                                    alpha2=float(rng.uniform(0, 4)))
            exp = _kernels.expansion(rfm.values)
            vecs, weights, bases, reference = [], [], [], []
            for i in range(8):
                if tied:
                    value = lambda: float(rng.integers(-9, -3) * 10)  # noqa: E731
                else:
                    value = lambda: float(rng.uniform(-105, -40))  # noqa: E731
                obs = make_fp({f: value() for f in rfm.feature_ids
                               if rng.random() < 0.6} | {"zz": -80.0}, fp_id=i)
                vec, outside = _aligned(obs, rfm, cfg)
                here = Location(*rng.uniform(0.0, 30.0, size=2))
                row = _weight_row(rfm, here, cfg) if i % 2 else None
                w = np.ones(len(rfm.feature_ids)) if row is None else row.weights
                low = 1.0 if row is None else row.min_weight
                base = _outside_constant(outside, lambda _: low, cfg.alpha1)
                d = _kernels.cdm_reduce(_cells(vec, rfm, cfg), w, base)
                vecs.append(vec), weights.append(w), bases.append(base)
                reference.append(ranked(d, k))
            for got, want in zip(_kernels.ranked_block(
                    exp, np.stack(vecs), np.stack(weights), cfg.alpha1, cfg.alpha2,
                    cfg.missing_value, np.array(bases), k), reference):
                if got is None:
                    undecided += 1
                else:
                    certified += 1
                    assert got.tolist() == want
        if tied:
            assert undecided > 0 and certified > 0
        else:
            assert certified > 0.95 * (certified + undecided)


    def test_every_gap_among_the_k_and_past_them_must_exceed_the_bound(self):
        # magnitude 1e4 over 2 features: the bound is about 1e-11
        values = np.array([[1.0, 3.0, 3.0 + 1e-12, 9.0],  # the order of rows 1 and 2 is open
                           [1.0, 3.0, 3.0 + 1e-8, 9.0],
                           [4.0, 3.0, 3.0, 9.0],  # an exact tie first
                           [1.0, 3.0, 5.0, 5.0 + 1e-12],  # the third place is open
                           [1.0, 3.0, 5.0, 9.0]])
        magnitude = np.array([1e4, 1e4, 1e4, 1e4, np.inf])
        reach = np.full(5, 10.0)
        got = {k: _certified_rows(values.copy(), magnitude, reach, 2, k, CFG.alpha1, CFG.alpha2)
               for k in (1, 2, 3, 4, 5)}
        as_lists = {k: [None if r is None else r.tolist() for r in rows]
                    for k, rows in got.items()}
        assert as_lists[1] == [[0], [0], None, [0], None]
        assert as_lists[2] == [None, [0, 1], None, [0, 1], None]
        assert as_lists[3] == [None, [0, 1, 2], None, None, None]
        assert as_lists[4] == [None, [0, 1, 2, 3], None, None, None]
        assert as_lists[5] == as_lists[4]  # k beyond the map ranks every row


class TestBatchErrors:
    def _queries(self, rng, rfm, n=9):
        return [make_fp({f: float(rng.uniform(-100, -40)) for f in rfm.feature_ids
                         if rng.random() < 0.8}, fp_id=i)
                for i in range(n)]

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_the_first_failing_query_in_input_order_raises(self, rng, monkeypatch, threads,
                                                           method):
        rfm = random_rfm(rng, n_points=12, n_features=4, density=0.8, sigma_range=(0.5, 4.0))
        holey = make_rfm(rfm.locations, rfm.feature_ids,
                         np.vstack([np.full((1, 4), np.nan), rfm.values[1:]]),
                         np.vstack([np.full((1, 4), np.nan), rfm.sigmas[1:]]))
        small_products(monkeypatch, holey, 2)
        empty = make_fp({}, fp_id=100)  # no features, against a point without any
        huge = make_fp({"zz": 1e200}, fp_id=101)  # its outside distance overflows
        for empty_at, huge_at in ((1, 6), (6, 1), (0, 8), (8, 0), (3, 4)):
            queries = self._queries(rng, holey)
            queries[empty_at], queries[huge_at] = empty, huge
            first = EmptyComparison if empty_at < huge_at else OverflowError
            with pytest.raises(first) as raised:
                locate_batch(queries, holey, CFG, method, threads=threads)
            assert type(raised.value) is first
            if first is EmptyComparison:
                assert "query 100 " in str(raised.value)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_an_overflow_while_aligning_raises_in_input_order(self, rng, threads, method):
        # at order 3 the outside distance of 1e200 overflows in _aligned,
        # while the batch sets up its searches
        rfm = random_rfm(rng, n_points=12, n_features=4, density=0.8, sigma_range=(0.5, 4.0))
        holey = make_rfm(rfm.locations, rfm.feature_ids,
                         np.vstack([np.full((1, 4), np.nan), rfm.values[1:]]),
                         np.vstack([np.full((1, 4), np.nan), rfm.sigmas[1:]]))
        cfg = PositioningConfig(minkowski_p=3.0)
        empty, huge = make_fp({}, fp_id=0), make_fp({"zz": 1e200}, fp_id=1)
        with pytest.raises(OverflowError):
            _aligned(huge, holey, cfg)
        for queries, first in (([empty, huge], EmptyComparison), ([huge, empty], OverflowError)):
            with pytest.raises(first) as raised:
                locate_batch(queries + self._queries(rng, holey, 3), holey, cfg, method,
                             threads=threads)
            assert type(raised.value) is first

    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_weight_overflow_raises_in_input_order(self, rng, monkeypatch, threads):
        rfm = random_rfm(rng, n_points=12, n_features=4, density=0.8, sigma_range=(0.5, 4.0))
        small_products(monkeypatch, rfm, 3)
        cfg = PositioningConfig(beta=1e308)
        huge = make_fp({"zz": 1e200}, fp_id=101)
        for huge_at, first in ((0, OverflowError), (5, WeightOverflow)):
            queries = self._queries(rng, rfm)
            queries[huge_at] = huge
            with pytest.raises(first) as raised:
                locate_batch(queries, rfm, cfg, "iterative", threads=threads)
            assert type(raised.value) is first
        # no weighting in the single-shot methods
        assert len(locate_batch(self._queries(rng, rfm), rfm, cfg, "cdm")) == 9

    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_the_column_extreme_check_keeps_every_overflow(self, rng, method):
        # a column spanning +-7e153: a query at one end overflows against the other
        # end, 1.4e154 ** 2 > 1.8e308; a query in the middle, or without the
        # feature, stays finite, and a column spanning +-1e153 is certified
        for span, certifiable in ((7e153, False), (1e153, True)):
            rfm = random_rfm(rng, n_points=16, n_features=3, density=1.0,
                             sigma_range=(0.5, 4.0))
            values = rfm.values.copy()
            values[:, 0] = np.linspace(-span, span, 16)
            rfm = make_rfm(rfm.locations, rfm.feature_ids, values, rfm.sigmas)
            fid = rfm.feature_ids[0]
            queries = [make_fp({fid: v, rfm.feature_ids[1]: -60.0}, fp_id=i)
                       for i, v in enumerate([-60.0, span / 3, -span / 2])]
            queries.append(make_fp({rfm.feature_ids[2]: -70.0}, fp_id=3))
            outcomes = []
            for q in queries:
                try:
                    outcomes.append(one_by_one([q], rfm, CFG, method)[0])
                except OverflowError as exc:
                    outcomes.append(type(exc))
            exp = _kernels.expansion(rfm.values)
            assert np.isfinite(exp.spread).all()
            ok = [e for e in outcomes if e is not OverflowError]
            assert locate_batch([q for q, e in zip(queries, outcomes) if e is not OverflowError],
                                rfm, CFG, method) == ok
            for extreme in (span, -span):
                edge = make_fp({fid: extreme}, fp_id=9)
                batch = queries + [edge]
                if certifiable:
                    assert locate_batch(batch, rfm, CFG, method) == one_by_one(batch, rfm, CFG,
                                                                               method)
                else:
                    with pytest.raises(OverflowError):
                        one_by_one([edge], rfm, CFG, method)
                    with pytest.raises(OverflowError):
                        locate_batch(batch, rfm, CFG, method)

    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_a_zero_scale_hides_no_overflow(self, rng, method):
        # (-110 - 1.35e154)**2 overflows before alpha2 = 0 scales it: NaN, rejected;
        # the column's spread and its distance to -110 stay finite
        rfm = random_rfm(rng, n_points=8, n_features=2, density=1.0, sigma_range=(0.5, 4.0))
        values = rfm.values.copy()
        values[:, 0] = np.linspace(1.2e154, 1.35e154, 8)
        rfm = make_rfm(rfm.locations, rfm.feature_ids, values, rfm.sigmas)
        queries = [make_fp({rfm.feature_ids[1]: -60.0 - i}, fp_id=i) for i in range(4)]
        cfg = replace(CFG, alpha2=0.0)
        with pytest.raises(OverflowError):
            one_by_one(queries[:1], rfm, cfg, method)
        with pytest.raises(OverflowError):
            locate_batch(queries, rfm, cfg, method)
