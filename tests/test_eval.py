"""Error statistics and the method comparison report."""

import math

import pytest

from rfmloc.evaluate import (EmptyInput, LengthMismatch, circular_error,
                             compare_report, ecdf, ecdf_lines, loop_diameters,
                             opt_errors, radial_errors, tf_stats)
from rfmloc.model import Location, PositionEstimate, Termination, write_lines


def est(x, y, tf=Termination.CONVERGING, path=None, loop=None, qid=0):
    loc = Location(float(x), float(y))
    return PositionEstimate(loc, tf, 0, tuple(path) if path else (loc,),
                            tuple(loop) if loop else None, qid)


class TestRadialErrors:
    def test_hypotenuse(self):
        got = radial_errors([est(0, 0), est(1, 1)],
                            [Location(3.0, 4.0), Location(1.0, 1.0)])
        assert got == [5.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            radial_errors([est(0, 0)], [])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            radial_errors([], [])


class TestEcdf:
    def test_quarter_steps(self):
        got = ecdf([1.0, 2.0, 3.0, 4.0])
        assert got == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]

    def test_fraction_at_two_is_half(self):
        got = dict(ecdf([1.0, 2.0, 3.0, 4.0]))
        assert got[2.0] == 0.5

    def test_ties_collapse_to_highest_fraction(self):
        got = ecdf([1.0, 2.0, 2.0, 5.0])
        assert got == [(1.0, 0.25), (2.0, 0.75), (5.0, 1.0)]

    def test_last_fraction_is_one(self, rng):
        for _ in range(200):
            errors = list(rng.uniform(0, 10, size=int(rng.integers(1, 40))))
            pts = ecdf(errors)
            assert pts[-1][1] == 1.0
            values = [v for v, _ in pts]
            fracs = [f for _, f in pts]
            assert values == sorted(values)
            assert fracs == sorted(fracs)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            ecdf([])


class TestCircularError:
    def test_order_statistic_examples(self):
        errors = [4.0, 2.0, 3.0, 4.0]
        # ranks over n=4: ce50 -> 2nd, ce75 -> 3rd, ce90 -> 4th
        assert circular_error(errors, 50) == 3.0
        assert circular_error(errors, 75) == 4.0
        assert circular_error(errors, 90) == 4.0
        assert circular_error(errors, 100) == 4.0

    def test_single_sample(self):
        assert circular_error([7.0], 50) == 7.0

    def test_epsilon_guard_on_exact_multiples(self):
        # 10 samples at pct 50: rank must be exactly 5, not 6
        errors = [float(i) for i in range(1, 11)]
        assert circular_error(errors, 50) == 5.0
        assert circular_error(errors, 90) == 9.0

    def test_monotone_in_pct(self, rng):
        for _ in range(200):
            errors = list(rng.uniform(0, 20, size=int(rng.integers(1, 50))))
            pcts = sorted(rng.uniform(1, 100, size=4))
            values = [circular_error(errors, p) for p in pcts]
            assert values == sorted(values)
            assert circular_error(errors, 100) == max(errors)

    def test_validation(self):
        with pytest.raises(EmptyInput):
            circular_error([], 50)
        with pytest.raises(ValueError):
            circular_error([1.0], 0)
        with pytest.raises(ValueError):
            circular_error([1.0], 101)


class TestTfStats:
    def test_shares(self):
        ests = [est(0, 0, Termination.CONVERGING), est(0, 0, Termination.CONVERGING),
                est(0, 0, Termination.LOOPING), est(0, 0, Termination.MAX)]
        got = tf_stats(ests)
        assert got == {"converging": 0.5, "looping": 0.25, "max": 0.25}

    def test_shares_sum_to_one(self, rng):
        states = list(Termination)
        for _ in range(200):
            ests = [est(0, 0, states[int(rng.integers(3))])
                    for _ in range(int(rng.integers(1, 30)))]
            got = tf_stats(ests)
            assert sum(got.values()) == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            tf_stats([])


class TestLoopDiameters:
    def test_max_pairwise(self):
        loop = [Location(0.0, 0.0), Location(3.0, 0.0), Location(0.0, 4.0)]
        ests = [est(0, 0, Termination.MAX, loop=loop), est(1, 1)]
        assert loop_diameters(ests) == [5.0]

    def test_no_loops(self):
        assert loop_diameters([est(0, 0), est(1, 1)]) == []

    def test_counts_loops_resolved_either_way(self):
        tight = [Location(0.0, 0.0)] * 4
        wide = [Location(0.0, 0.0), Location(9.0, 0.0)]
        ests = [est(0, 0, Termination.LOOPING, loop=tight),
                est(0, 0, Termination.MAX, loop=wide)]
        assert loop_diameters(ests) == [0.0, 9.0]


class TestOptErrors:
    def test_best_point_on_path(self):
        path = [Location(0.0, 0.0), Location(5.0, 0.0), Location(2.0, 0.0)]
        e = est(2, 0, path=path)
        got = opt_errors([e], [Location(4.0, 0.0)])
        assert got == [1.0]

    def test_never_above_final_error(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            path = [Location(float(x), float(y))
                    for x, y in rng.uniform(0, 10, size=(n, 2))]
            e = PositionEstimate(path[-1], Termination.CONVERGING, n - 1,
                                 tuple(path), None, 0)
            truth = Location(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            opt = opt_errors([e], [truth])[0]
            final = radial_errors([e], [truth])[0]
            assert opt <= final + 1e-12


class TestCompareReport:
    def _runs(self):
        truth = [Location(0.0, 0.0), Location(10.0, 0.0)]
        path_a = [Location(1.0, 0.0), Location(0.5, 0.0)]
        path_b = [Location(12.0, 0.0), Location(11.0, 0.0)]
        runs = {
            "knn": [est(2, 0), est(13, 0)],
            "iterative": [
                PositionEstimate(path_a[-1], Termination.CONVERGING, 1,
                                 tuple(path_a), None, 0),
                PositionEstimate(path_b[-1], Termination.CONVERGING, 1,
                                 tuple(path_b), None, 1),
            ],
        }
        return runs, truth

    def test_rows_in_insertion_order_with_opt(self):
        runs, truth = self._runs()
        table = compare_report(runs, truth)
        assert [r[0] for r in table.rows] == ["knn", "iterative", "opt"]

    def test_opt_is_path_minimum(self):
        runs, truth = self._runs()
        table = compare_report(runs, truth)
        by_name = {r[0]: r[1:] for r in table.rows}
        # iterative errors: 0.5 and 1.0; opt errors: 0.5 and 1.0 (same here)
        assert by_name["iterative"] == (0.5, 1.0, 1.0, 1.0)
        assert by_name["opt"] == (0.5, 1.0, 1.0, 1.0)
        assert by_name["knn"] == (2.0, 3.0, 3.0, 3.0)

    def test_no_opt_without_iterative_run(self):
        runs, truth = self._runs()
        table = compare_report({"knn": runs["knn"]}, truth)
        assert [r[0] for r in table.rows] == ["knn"]

    def test_csv_shape(self, tmp_path):
        runs, truth = self._runs()
        write_lines(tmp_path / "report.csv", compare_report(runs, truth).csv_lines())
        text = (tmp_path / "report.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "method,ce50,ce75,ce90,max_error"
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_ecdf_csv_shape(self, tmp_path):
        write_lines(tmp_path / "ecdf.csv", ecdf_lines([1.0, 2.0]))
        text = (tmp_path / "ecdf.csv").read_text()
        assert text == "error,fraction\n1.0,0.5\n2.0,1.0\n"

    def test_empty_runs(self):
        with pytest.raises(EmptyInput):
            compare_report({}, [])

    def test_run_named_opt(self):
        runs, truth = self._runs()
        with pytest.raises(ValueError, match="opt"):
            compare_report({"opt": runs["knn"], "iterative": runs["iterative"]}, truth)
