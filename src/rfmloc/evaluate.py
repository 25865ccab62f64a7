"""Evaluation statistics for positioning runs: radial errors, empirical
CDFs, circular error percentiles, termination shares, loop diameters, and
the side-by-side method report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from rfmloc.model import Location, PositionEstimate, Termination
from rfmloc.positioner import loop_diameter


class LengthMismatch(ValueError):
    """Estimates and ground truth differ in length."""


class EmptyInput(ValueError):
    """A statistic was requested over no data."""


def _pairs(estimates: Sequence[PositionEstimate], truth: Sequence[Location]):
    """(estimate, truth location) pairs, aligned by index; the two sequences
    must be equally long and not empty."""
    if len(estimates) != len(truth):
        raise LengthMismatch(f"{len(estimates)} estimates vs {len(truth)} truth locations")
    if not estimates:
        raise EmptyInput("no estimates to score")
    return zip(estimates, truth)


def radial_errors(estimates: Sequence[PositionEstimate],
                  truth: Sequence[Location]) -> list[float]:
    """Euclidean distance between each estimate and its ground truth,
    aligned by index."""
    return [est.location.distance_to(loc) for est, loc in _pairs(estimates, truth)]


def ecdf(errors: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF step points: at the i-th sorted value the fraction is
    i / n; repeated values collapse into a single step."""
    if not errors:
        raise EmptyInput("no errors for an empirical CDF")
    ordered = sorted(errors)
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for i, value in enumerate(ordered, start=1):
        if i == n or ordered[i] != value:
            points.append((value, i / n))
    return points


def circular_error(errors: Sequence[float], pct: float) -> float:
    """The ceil(pct * n / 100)-th smallest error, an order statistic with no
    interpolation; pct = 100 is the maximum."""
    if not errors:
        raise EmptyInput("no errors for a circular error")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    n = len(errors)
    rank = max(1, math.ceil(pct * n / 100 - 1e-9))
    return sorted(errors)[rank - 1]


def tf_stats(estimates: Sequence[PositionEstimate]) -> dict[str, float]:
    """Share of each termination state over a run."""
    if not estimates:
        raise EmptyInput("no estimates for termination statistics")
    n = len(estimates)
    counts = {state: 0 for state in Termination}
    for est in estimates:
        counts[est.tf] += 1
    return {"converging": counts[Termination.CONVERGING] / n,
            "looping": counts[Termination.LOOPING] / n,
            "max": counts[Termination.MAX] / n}


def loop_diameters(estimates: Sequence[PositionEstimate]) -> list[float]:
    """Greatest pairwise distance within each recorded loop, in run order.

    Covers every estimate that detected a loop, whichever way the loop was
    then resolved; runs without loops yield an empty list.
    """
    return [loop_diameter(est.loop_points) for est in estimates if est.loop_points]


def opt_errors(estimates: Sequence[PositionEstimate],
               truth: Sequence[Location]) -> list[float]:
    """Per query, the error of the searched location closest to ground truth;
    a lower bound on what any selection rule over the path could achieve.

    From a kNN start every iterative estimate is a path point, so this
    bounds its error. From a random start, a search that ends unresolved
    reports its kNN estimate, which need not lie on the path.
    """
    return [min(p.distance_to(loc) for p in est.path) for est, loc in _pairs(estimates, truth)]


ERROR_COLUMNS = "ce50,ce75,ce90,max_error"


def error_row(errors: Sequence[float]) -> tuple[float, float, float, float]:
    """The :data:`ERROR_COLUMNS` of one run: its circular errors at 50, 75
    and 90 percent, and its maximum error."""
    return tuple(circular_error(errors, pct) for pct in (50, 75, 90, 100))


@dataclass(frozen=True)
class ReportTable:
    """Side-by-side circular errors per method, plus the per-method raw
    errors for CDF export. Row order follows the input, with the path
    lower bound appended as method "opt" when available."""

    rows: tuple[tuple[str, float, float, float, float], ...]
    errors: Mapping[str, Sequence[float]]

    def csv_lines(self) -> list[str]:
        return csv_lines("method," + ERROR_COLUMNS, self.rows)


def csv_lines(header: str, rows: Iterable[Sequence]) -> list[str]:
    """``header``, then one comma-separated line per row; strings are
    written as they are and numbers as their repr, which round-trips."""
    return [header, *(",".join(c if isinstance(c, str) else repr(c) for c in row)
                      for row in rows)]


def ecdf_lines(errors: Sequence[float]) -> list[str]:
    return csv_lines("error,fraction", ecdf(errors))


def compare_report(runs: Mapping[str, Sequence[PositionEstimate]],
                   truth: Sequence[Location]) -> ReportTable:
    """Circular error summary for several methods over one query set.

    When a run named ``iterative`` is present, an extra "opt" row reports
    its per-query best searched location, the selection lower bound (see
    :func:`opt_errors`); no run may be named "opt".
    """
    if not runs:
        raise EmptyInput("no runs to compare")
    if "opt" in runs:
        raise ValueError('"opt" is the row of the path lower bound, not a run name')
    errors = {name: radial_errors(estimates, truth) for name, estimates in runs.items()}
    if "iterative" in runs:
        errors["opt"] = opt_errors(runs["iterative"], truth)
    return ReportTable(tuple((name, *error_row(errs)) for name, errs in errors.items()), errors)
