"""Batch dissimilarity kernel against a scalar oracle."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rfmloc import _kernels
from rfmloc._kernels import _gamma
from rfmloc.dissim import feature_distance
from rfmloc.model import ExtendedRfm, PositioningConfig
from rfmloc.positioner import locate_batch
from tests.conftest import make_fp, random_rfm

GAMMA = -110.0


def random_case(rng, p=2.0):
    n = int(rng.integers(1, 20))
    m = int(rng.integers(1, 10))
    ref = rng.uniform(-105, -40, size=(n, m))
    ref[rng.random(size=(n, m)) < 0.4] = np.nan
    obs = rng.uniform(-105, -40, size=m)
    obs[rng.random(size=m) < 0.4] = np.nan
    weights = rng.uniform(0.01, 1.0, size=m)
    a1 = float(rng.uniform(0.5, 5))
    a2 = float(rng.uniform(0.5, 5))
    base = float(rng.uniform(0, 100))
    return (np.ascontiguousarray(ref), np.ascontiguousarray(obs),
            np.ascontiguousarray(weights), a1, a2, GAMMA, p, base)


def scalar_oracle(ref, obs, weights, a1, a2, gamma, p, base):
    n, m = ref.shape
    out = np.empty(n)
    for i in range(n):
        total = base
        for j in range(m):
            o, r, w = obs[j], ref[i, j], weights[j]
            if np.isnan(o) and np.isnan(r):
                continue
            if np.isnan(o):
                total += a2 * w * abs(gamma - r) ** p
            elif np.isnan(r):
                total += a1 * w * abs(o - gamma) ** p
            else:
                total += w * abs(o - r) ** p
        out[i] = total
    return out


class TestNumpyBackend:
    @pytest.mark.parametrize("p, corner", [
        pytest.param(1.0, None, id="1.0"),
        pytest.param(2.0, None, id="2.0"),
        pytest.param(3.0, None, id="3.0"),
        pytest.param(1.5, None, id="1.5"),
        pytest.param(2.0, "zero-alphas", id="zero-alphas"),
        pytest.param(2.0, "featureless-obs", id="featureless-obs"),
    ])
    def test_matches_scalar_oracle(self, rng, p, corner):
        for _ in range(80):
            ref, obs, weights, a1, a2, gamma, p, base = random_case(rng, p=p)
            if corner == "zero-alphas":
                a1 = a2 = 0.0
            elif corner == "featureless-obs":
                obs[:] = np.nan
            case = (ref, obs, weights, a1, a2, gamma, p, base)
            got = _kernels.cdm_batch(*case)
            assert got == pytest.approx(scalar_oracle(*case), rel=1e-12, abs=1e-12)

    def test_all_missing_row_is_base_plus_obs_terms(self, rng):
        ref = np.full((1, 3), np.nan)
        obs = np.array([-60.0, np.nan, -70.0])
        w = np.ones(3)
        got = _kernels.cdm_batch(ref, obs, w, 3.0, 3.0, GAMMA, 2.0, 5.0)
        expected = 5.0 + 3 * (50.0 ** 2) + 3 * (40.0 ** 2)
        assert got[0] == pytest.approx(expected, rel=1e-12)


def cells_of(ref, obs, a1, a2, gamma, p):
    """The weight-free cells, with the imputed layer and absent cells of
    ``ref`` found for this call."""
    absent = np.isnan(ref)
    return _kernels.cdm_cells(np.where(absent, gamma, ref), np.flatnonzero(absent), obs,
                              a1, a2, gamma, p)


def one_pass(ref, obs, weights, a1, a2, gamma, p, base):
    """The kernel as a single expression, as it was before the split."""
    ref_present = np.isfinite(ref)
    obs_present = np.isfinite(obs)
    scale = np.where(ref_present, np.where(obs_present, 1.0, a2), a1)
    terms = feature_distance(np.where(obs_present, obs, gamma),
                             np.where(ref_present, ref, gamma), p)
    return (weights * scale * terms).sum(axis=1) + base


class TestStages:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("featureless", [False, True], ids=["obs", "featureless-obs"])
    def test_reduce_of_terms_is_the_batch_bit_for_bit(self, rng, p, featureless):
        for _ in range(80):
            ref, obs, weights, a1, a2, gamma, p, base = random_case(rng, p=p)
            if featureless:
                obs[:] = np.nan
            case = (ref, obs, weights, a1, a2, gamma, p, base)
            cells = cells_of(ref, obs, a1, a2, gamma, p)
            staged = _kernels.cdm_reduce(cells, weights, base)
            assert np.array_equal(staged, _kernels.cdm_batch(*case))
            # the product sums w * (s * t) in BLAS order, not (w * s) * t pairwise
            assert staged == pytest.approx(one_pass(*case), rel=1e-12, abs=1e-12)
            # the cells do not depend on the weights: re-weighting them is a fresh batch
            other = rng.uniform(0.01, 1.0, size=weights.shape)
            reweighted = _kernels.cdm_reduce(cells, other, base)
            assert np.array_equal(reweighted,
                                  _kernels.cdm_batch(ref, obs, other, a1, a2, gamma, p, base))
            assert reweighted == pytest.approx(one_pass(ref, obs, other, a1, a2, gamma, p, base),
                                               rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("shape", [(7, 3), (906, 24), (1849, 40)])
    def test_reduce_ignores_alignment_and_thread(self, rng, shape):
        # threaded batches must equal per-query runs, whichever buffer a
        # thread's cells sit in and whichever thread sums them
        n, m = shape
        for _ in range(5):
            cells = rng.uniform(0.0, 4e3, size=shape)
            cells[rng.random(size=shape) < 0.2] = 0.0
            weights = rng.uniform(1e-6, 1.0, size=m)
            base = float(rng.uniform(0, 100))
            want = _kernels.cdm_reduce(cells, weights, base)
            shifted = np.empty(n * m + 1)[1:].reshape(shape)  # one float off the allocation
            shifted[...] = cells
            assert shifted.ctypes.data % 16 != cells.ctypes.data % 16
            assert np.array_equal(_kernels.cdm_reduce(shifted, weights, base), want)
            loose = np.empty(m + 1)[1:]
            loose[...] = weights
            assert np.array_equal(_kernels.cdm_reduce(cells, loose, base), want)
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert np.array_equal(pool.submit(_kernels.cdm_reduce, cells, weights,
                                                  base).result(), want)


def per_call_terms(ref, obs, a1, a2, gamma, p):
    """The weight-free cells as they were computed before the per-map
    constants were split out: presence, fill and scale rebuilt per call."""
    ref_present = np.isfinite(ref)
    obs_present = np.isfinite(obs)
    scale, terms = np.empty(ref.shape), np.empty(ref.shape)
    scale[...] = a1
    np.putmask(scale, ref_present, np.where(obs_present, 1.0, a2))
    terms[...] = gamma
    np.putmask(terms, ref_present, ref)
    terms = feature_distance(np.where(obs_present, obs, gamma), terms, p)
    return np.multiply(scale, terms, out=scale)


# (alpha1, alpha2): the defaults, kNN's, each scale at 1 alone, whose pass
# the kernel skips, and each scale at 0, where a cell absent on both sides
# must still read +0
SCALES = [(3.0, 3.0), (1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (3.0, 0.0), (0.0, 3.0), (0.0, 0.0)]


class TestConstants:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("corner", [None, "all-observed", "zero-alphas", "featureless-obs",
                                        "alpha2-zero", "alpha1-zero"])
    def test_cells_are_the_per_call_expression_bit_for_bit(self, rng, p, corner):
        # maps with NaN cells, against observations that have and lack those columns
        pinned = {"zero-alphas": [(0.0, 0.0)], "alpha2-zero": [(3.0, 0.0)],
                  "alpha1-zero": [(0.0, 3.0)]}
        for _ in range(60):
            ref, obs, _, a1, a2, gamma, p, _ = random_case(rng, p=p)
            if corner == "all-observed":
                obs = rng.uniform(-105, -40, size=obs.shape)
            elif corner == "featureless-obs":
                obs[:] = np.nan
            imputed = np.where(np.isnan(ref), gamma, ref)
            absent = np.flatnonzero(np.isnan(ref))
            for arr in (ref, imputed, absent):
                arr.setflags(write=False)  # a map's layers are never written
            for a1, a2 in pinned.get(corner, [(a1, a2), *SCALES]):
                want = per_call_terms(ref, obs, a1, a2, gamma, p).tobytes()
                got = _kernels.cdm_cells(imputed, absent, obs, a1, a2, gamma, p)
                assert got.tobytes() == want

    def test_map_keeps_its_absent_cells_read_only(self, rng):
        for density in (1.0, 0.6, 0.2):
            rfm = random_rfm(rng, n_points=15, n_features=6, density=density)
            present = np.isfinite(rfm.values)
            assert np.array_equal(rfm.absent_cells, np.flatnonzero(~present))
            for gamma in (GAMMA, -100.0):
                layer = rfm.imputed_values(gamma)
                assert layer.tobytes() == np.where(present, rfm.values, gamma).tobytes()
            for arr in (rfm.absent_cells, layer):
                assert not arr.flags.writeable
                if arr.size:
                    with pytest.raises(ValueError):
                        arr.flat[0] = arr.flat[0]

    def test_imputed_layer_is_built_once_per_missing_value(self, rng):
        rfm = random_rfm(rng, n_points=15, n_features=6, density=0.6)
        first = rfm.imputed_values(GAMMA)
        assert rfm.imputed_values(GAMMA) is first
        other = rfm.imputed_values(-100.0)
        assert other is not first and rfm.imputed_values(-100.0) is other
        assert np.array_equal(other == -100.0, ~np.isfinite(rfm.values))
        rebuilt = rfm.imputed_values(GAMMA)
        assert rebuilt is not first and rebuilt.tobytes() == first.tobytes()

    def test_threads_switching_missing_values_each_get_their_own_layer(self, rng):
        # the slot is replaced whole, so no thread reads a layer keyed to
        # another thread's missing value
        rfm = random_rfm(rng, n_points=200, n_features=12, density=0.6)
        want = {g: np.where(np.isfinite(rfm.values), rfm.values, g).tobytes()
                for g in (GAMMA, -100.0, -90.0)}

        def switch(start: int) -> bool:
            keys = list(want)
            return all(rfm.imputed_values(keys[(start + i) % 3]).tobytes()
                       == want[keys[(start + i) % 3]] for i in range(300))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                done = [pool.submit(switch, t) for t in range(6)]
                assert all(f.result(timeout=60) for f in done)
        finally:
            sys.setswitchinterval(interval)

    def test_estimates_do_not_depend_on_the_layer_kept(self, rng):
        # a map that switches missing values between batches estimates as
        # a fresh map per missing value
        rfm = random_rfm(rng, n_points=25, n_features=6, density=0.6, sigma_range=(0.5, 6.0))
        queries = [make_fp({f: float(rng.uniform(-100, -40))
                            for f in rfm.feature_ids if rng.random() < 0.7}, fp_id=i)
                   for i in range(8)]
        configs = [PositioningConfig(missing_value=gamma, k=k)
                   for gamma in (GAMMA, -100.0) for k in (1, 3)]
        for method in ("iterative", "knn", "cdm"):
            for cfg in configs + configs[::-1]:
                fresh = ExtendedRfm(rfm.locations, rfm.feature_ids, rfm.values, rfm.sigmas,
                                    rfm.builder_config)
                for q in queries:
                    assert (locate_batch([q], rfm, cfg, method)
                            == locate_batch([q], fresh, cfg, method)), (method, cfg)


class TestSelection:
    def test_module_exposes_backend_name(self):
        assert _kernels.BACKEND == "numpy"


def expansion_case(rng, n_obs=6, scale=1.0):
    """A sparse p = 2 case for a block of observations, each with its own
    weights and constant, values multiplied by ``scale``."""
    ref, _, _, a1, a2, gamma, _, _ = random_case(rng)
    ref = ref * scale
    m = ref.shape[1]
    obs = rng.uniform(-105, -40, size=(n_obs, m)) * scale
    obs[rng.random(size=obs.shape) < 0.4] = np.nan
    weights = rng.uniform(0.0, 1.0, size=(n_obs, m))
    weights[0] = 1.0  # unit weights, as a search's first lookup
    base = rng.uniform(0, 100, size=n_obs)
    return ref, obs, weights, a1, a2, gamma, base


def alone(ref, obs, weights, a1, a2, gamma, base):
    """Each observation's values as a search computes them alone, from its
    own cells."""
    rows = []
    for o, w, b in zip(obs, weights, base):
        rows.append(_kernels.cdm_reduce(cells_of(ref, o, a1, a2, gamma, 2.0), w, b))
    return np.array(rows)


class TestExpansion:
    def test_values_lie_within_the_bound_of_each_search_alone(self, rng):
        gaps = []
        for _ in range(200):
            ref, obs, weights, a1, a2, gamma, base = expansion_case(rng)
            f = ref.shape[1]
            exp = _kernels.expansion(ref)
            values, magnitude, reach = _kernels.expanded_cdm(exp, obs, weights, a1, a2, gamma,
                                                             base)
            want = alone(ref, obs, weights, a1, a2, gamma, base)
            assert values.shape == want.shape
            # the values alone are sums of non-negative terms, each bounded by M
            assert (want <= magnitude[:, None]).all()
            err = (_gamma(3 * f + 7) + _gamma(f + 5)) * magnitude
            assert (np.abs(values - want) <= err[:, None]).all()
            o = np.where(np.isfinite(obs), obs, gamma) - exp.center
            assert (reach == np.maximum(np.abs(o).max(axis=1), exp.reach)).all()
            gaps.append(np.abs(values - want).max() / err.max())
        assert max(gaps) > 0  # the two computations do differ

    def test_the_largest_cell_of_a_column_lies_at_its_extremes(self, rng):
        for _ in range(200):
            ref, obs, _, a1, a2, gamma, _ = expansion_case(rng, n_obs=1)
            cells = cells_of(ref, obs[0], a1, a2, gamma, 2.0)
            exp = _kernels.expansion(ref)
            for j in range(ref.shape[1]):
                present = np.flatnonzero(np.isfinite(ref[:, j]))
                if not present.size:
                    assert exp.spread[j] == 0.0
                    continue
                column = ref[present, j]
                extremes = {column.min(), column.max()}
                assert column[cells[present, j].argmax()] in extremes or np.ptp(
                    cells[present, j]) == 0
                centered = column - exp.center[j]
                assert exp.spread[j] == (centered * centered).max()

    def test_a_finite_magnitude_means_each_search_alone_is_finite(self, rng):
        finite = overflowed = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(400):
                scale = 10.0 ** rng.uniform(150, 154)
                ref, obs, weights, a1, a2, gamma, base = expansion_case(rng, scale=scale)
                # a scale of 0 or below 1 hides an unweighted cell that overflowed
                a1, a2 = rng.choice([0.0, 1e-3, a1]), rng.choice([0.0, 1e-3, a2])
                case = (ref, obs, weights, a1, a2, gamma, base)
                _, magnitude, _ = _kernels.expanded_cdm(_kernels.expansion(case[0]), *case[1:])
                want = alone(*case)
                for row, m in zip(want, magnitude):
                    if np.isfinite(2 * m):
                        assert np.isfinite(row).all()
                        finite += 1
                    if not np.isfinite(row).all():
                        assert not np.isfinite(2 * m)
                        overflowed += 1
        assert finite > 100 and overflowed > 100
