"""One benchmark run: rounds of the whole pipeline, output checks, metrics.

A round is what a user of the CLI does, driven through the library's
public entry points on the files the CLI reads and writes:

1. build: ``build`` on the survey plus ``ExtendedRfm.save``;
2. set-up, three times: read the survey JSONL, load the map JSON, read
   the query JSONL (``read_fingerprints``, ``ExtendedRfm.load``);
3. sweeps: every query alone through ``locate_batch([q])``, first with
   ``knn`` and then with ``iterative``, so machine noise hits both alike;
4. batch, every other round: ``locate_batch(all, threads=2)`` with
   ``iterative``.

All of it is a closed loop with one client: each call starts when the
previous one has returned. Rounds repeat until the next one would end
past ``--seconds``. Per-query latency is each query's median over the
rounds; the percentiles and the mean are taken over queries. Traced
rounds (``--trace 1``) alternate with untraced ones and skip the batch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from rfmloc import _kernels, builder, dissim, evaluate, model, positioner

from tracing import Tracer
from workloads import Workload, make_inputs

THREADS = 2
SETUP_REPEATS = 3
ORACLE_QUERIES = 16
ORACLE_POINTS = 8
ORACLE_RTOL = 1e-12

# name -> unit; BENCHMARK.json lists the same names with their bounds
END_TO_END = {
    "setup_s": "s", "build_s": "s",
    "knn_p50_ms": "ms", "knn_p98_ms": "ms",
    "iterative_mean_ms": "ms", "iterative_p98_ms": "ms",
    "iterative_batch_qps": "1/s",
    "ce50_iterative_m": "m", "ce90_iterative_m": "m", "ce90_knn_m": "m",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "builder.build.s": "s", "builder.median_filter.s": "s",
    "builder.records": "count", "builder.features": "count",
    "model.load.s": "s", "model.save.s": "s", "model.map_bytes": "bytes",
    "model.query.calls": "count", "model.query.self_s": "s",
    "model.query.at_reference_share": "share", "model.query.repeat_share": "share",
    "kernels.cdm_batch.calls": "count", "kernels.cdm_batch.self_s": "s",
    "kernels.cdm_batch.cells": "count", "kernels.cdm_batch.bytes_computed": "bytes",
    "positioner.knn_locate.self_s": "s", "positioner.iterate_locate.self_s": "s",
    "positioner.detect_termination.self_s": "s",
    "positioner.resolve_state.self_s": "s", "positioner.mcd_center.calls": "count",
    "positioner.iterations_mean": "iterations", "positioner.iterations_max": "iterations",
    "positioner.tf_converging_share": "share", "positioner.tf_looping_share": "share",
    "positioner.tf_max_share": "share", "positioner.loop_detected_share": "share",
    "dissim.softmax_weights.self_s": "s",
    "trace_overhead_share": "share",
}


@dataclass
class Round:
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    build_s: float = math.nan
    sweep_s: float = math.nan
    qps: float | None = None
    knn_ms: list[float | None] = field(default_factory=list)
    iterative_ms: list[float | None] = field(default_factory=list)
    knn_lines: list[str | None] = field(default_factory=list)
    iterative_lines: list[str | None] = field(default_factory=list)
    batch_lines: list[str] | None = None
    map_sha256: str = ""
    map_bytes: int = 0
    map_shape: tuple[int, int] = (0, 0)
    layers: dict = field(default_factory=dict)


class Run:
    def __init__(self, w: Workload, seed: int, work_dir: Path):
        self.w = w
        self.seed = seed
        self.cfg = model.PositioningConfig(k=w.k)
        self.survey_path = work_dir / "survey.jsonl"
        self.query_path = work_dir / "queries.jsonl"
        self.map_path = work_dir / "map.json"
        survey, queries = make_inputs(w, seed)
        model.write_fingerprints(self.survey_path, survey)
        model.write_fingerprints(self.query_path, queries)
        self.truth = [q.location for q in queries]
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: dict[str, str] = {}
        self.oracle: dict | None = None
        self.tracer = Tracer()

    def _call(self, what: str, fn, *args, **kwargs):
        """Run one operation, counting it and any exception it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is a result, not a crash
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def _setup(self):
        t0 = time.perf_counter()
        model.read_fingerprints(self.survey_path, require_location=True)
        rfm = model.ExtendedRfm.load(self.map_path)
        queries = model.read_fingerprints(self.query_path,
                                          missing_value=self.cfg.missing_value)
        return time.perf_counter() - t0, rfm, queries

    def round(self, traced: bool, batch: bool) -> Round:
        r = Round(traced)
        spans_before = len(self.tracer.spans)
        counts_before = dict(self.tracer.counts)
        tr = self.tracer
        with (tr.installed() if traced else nullcontext()):
            survey = model.read_fingerprints(self.survey_path, require_location=True)
            t0 = time.perf_counter()
            raw = model.RawRfm.from_records(survey)
            built = self._call("build", builder.build, raw)
            if built is None:
                return r
            built.save(self.map_path)
            r.build_s = time.perf_counter() - t0
            data = self.map_path.read_bytes()
            r.map_sha256 = hashlib.sha256(data).hexdigest()
            r.map_bytes = len(data)
            r.map_shape = (built.n_points, len(built.feature_ids))
            if traced:
                self._call("median filter", builder.spatial_median_filter, raw,
                           built.builder_config)

            for _ in range(SETUP_REPEATS):
                setup_s, rfm, queries = self._setup()
                r.setup_s.append(setup_s)
            if (rfm.to_json() + "\n").encode() != data:
                self.checks["map_round_trip"] = "the loaded map serializes differently"

            sweep_start = time.perf_counter()
            for q in queries:
                for method, times, lines in (("knn", r.knn_ms, r.knn_lines),
                                             ("iterative", r.iterative_ms, r.iterative_lines)):
                    t0 = time.perf_counter()
                    with (tr.span(f"bench.locate.{method}") if traced else nullcontext()):
                        out = self._call(f"{method} query {q.id}", positioner.locate_batch,
                                         [q], rfm, self.cfg, method)
                    elapsed = time.perf_counter() - t0
                    times.append(None if out is None else elapsed * 1e3)
                    lines.append(None if out is None else _line(out[0]))
            r.sweep_s = time.perf_counter() - sweep_start

        if traced:
            r.layers = self._layers(r, spans_before, counts_before)
        if batch:
            t0 = time.perf_counter()
            out = self._call("batch", positioner.locate_batch, queries, rfm, self.cfg,
                             "iterative", threads=THREADS)
            if out is not None:
                r.qps = len(queries) / (time.perf_counter() - t0)
                r.batch_lines = [_line(e) for e in out]
        return r

    def _layers(self, r: Round, spans_before: int, counts_before: dict) -> dict:
        spans = self.tracer.by_name(spans_before)
        counts = {k: v - counts_before.get(k, 0) for k, v in self.tracer.counts.items()}

        def agg(name, key):
            return spans.get(name, {}).get(key, 0.0)

        counts = {k: int(v) for k, v in counts.items()}
        calls = counts.get("model.query.calls", 0)
        out = {
            "builder.build.s": agg("builder.build", "total_s"),
            "builder.median_filter.s": agg("builder.median_filter", "total_s"),
            "model.load.s": agg("model.load", "total_s") / max(agg("model.load", "calls"), 1),
            "model.save.s": agg("model.save", "total_s"),
            "builder.records": r.map_shape[0],
            "builder.features": r.map_shape[1],
            "model.map_bytes": r.map_bytes,
            "model.query.calls": calls,
            "model.query.self_s": agg("model.query", "self_s"),
            "model.query.at_reference_share":
                counts.get("model.query.at_reference", 0) / calls if calls else 0.0,
            "model.query.repeat_share":
                counts.get("model.query.repeats", 0) / calls if calls else 0.0,
            "kernels.cdm_batch.calls": agg("kernels.cdm_batch", "calls"),
            "kernels.cdm_batch.self_s": agg("kernels.cdm_batch", "self_s"),
            "kernels.cdm_batch.cells": counts.get("kernels.cdm_batch.cells", 0),
            "kernels.cdm_batch.bytes_computed": counts.get("kernels.cdm_batch.bytes_computed", 0),
            "positioner.mcd_center.calls": counts.get("positioner.mcd_center.calls", 0),
            "dissim.softmax_weights.self_s": agg("dissim.softmax_weights", "self_s"),
        }
        for fn in ("knn_locate", "iterate_locate", "detect_termination", "resolve_state"):
            out[f"positioner.{fn}.self_s"] = agg(f"positioner.{fn}", "self_s")
        return out

    def oracle_check(self, rfm, queries) -> None:
        """The batch kernel against the scalar ``weighted_cdm`` definition on
        sampled (query, reference point) pairs, unit and softmax weights, with
        the configured and the kNN unshared-feature scales."""
        rng = np.random.default_rng([self.seed & 0x7FFFFFFF, 0xC0DE])
        qs = rng.choice(len(queries), size=min(ORACLE_QUERIES, len(queries)), replace=False)
        worst = 0.0
        pairs = 0
        for qi in qs:
            obs = queries[int(qi)]
            at = int(rng.integers(rfm.n_points))
            wv = dissim.softmax_weights(rfm.entries_at(at), self.cfg.beta, self.cfg.weight_form)
            points = rng.choice(rfm.n_points, size=min(ORACLE_POINTS, rfm.n_points),
                                replace=False)
            for cfg in (self.cfg, replace(self.cfg, alpha1=1.0, alpha2=1.0)):
                for weights in (None, wv):
                    batch = positioner.dissimilarities(obs, rfm, cfg, weights)
                    for j in points:
                        want = dissim.weighted_cdm(obs, rfm.entries_at(int(j)), weights, cfg)
                        gap = abs(float(batch[j]) - want) / max(abs(want), 1e-300)
                        worst = max(worst, gap)
                        pairs += 1
        if not worst <= ORACLE_RTOL:
            self.checks["kernel_oracle"] = (f"cdm_batch differs from weighted_cdm by "
                                            f"rel {worst:.3g} > {ORACLE_RTOL:g}")
        self.oracle = {"pairs": pairs, "worst_rel": worst}


def _line(est) -> str:
    return json.dumps(model.estimate_to_obj(est))


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct * n / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100 - 1e-9)) - 1]


def _finite(obj: dict) -> bool:
    coords = [obj["x"], obj["y"]] + [c for p in obj["path"] for c in p]
    return all(isinstance(c, float) and math.isfinite(c) for c in coords)


def run(w: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        spans_path: Path) -> dict:
    """Rounds until the next one would end past ``seconds``; at least two.

    Untraced, odd rounds also run the threaded batch. Traced, untraced
    rounds with the batch alternate with traced ones, which add the median
    filter and skip the batch; their spans go to ``spans_path`` at the end.
    """
    start = time.perf_counter()
    bench = Run(w, seed, work_dir)
    rounds: list[Round] = []
    durations: list[float] = []
    while not bench.failures:
        odd = len(rounds) % 2 == 1
        t0 = time.perf_counter()
        if trace:
            rounds.append(bench.round(traced=odd, batch=not odd))
        else:
            rounds.append(bench.round(traced=False, batch=odd))
        durations.append(time.perf_counter() - t0)
        if len(rounds) == 1 and not bench.failures:
            _, rfm, queries = bench._setup()
            bench.oracle_check(rfm, queries)
        next_round = sum(durations[-2:]) if trace else max(durations[-2:])
        if odd and time.perf_counter() - start + next_round > seconds:
            break
    if trace:
        bench.tracer.write(spans_path)
    return summarize(bench, rounds, time.perf_counter() - start)


def summarize(bench: Run, rounds: list[Round], elapsed: float) -> dict:
    checks = bench.checks
    plain = [r for r in rounds if not r.traced]
    first = rounds[0]

    # every round computes the same map and the same estimates
    if len({r.map_sha256 for r in rounds}) != 1:
        checks["rounds_identical"] = "the built map differs between rounds"
    for attr in ("knn_lines", "iterative_lines"):
        if any(getattr(r, attr) != getattr(first, attr) for r in rounds):
            checks["rounds_identical"] = f"{attr[:-6]} estimates differ between rounds"
    for r in plain:
        if r.batch_lines is not None and r.batch_lines != r.iterative_lines:
            checks["batch_equals_single"] = "threaded batch estimates differ from per-query ones"
    knn_objs = [json.loads(s) for s in first.knn_lines if s is not None]
    it_objs = [json.loads(s) for s in first.iterative_lines if s is not None]
    if not all(_finite(o) for o in knn_objs + it_objs):
        checks["finite"] = "an estimate has a non-finite coordinate"
    if bench.failures:
        checks["failures"] = f"{len(bench.failures)} operations raised; first: {bench.failures[0]}"

    ok = not checks and len(it_objs) == len(bench.truth) and len(knn_objs) == len(bench.truth)
    metrics: dict[str, tuple[float, int]] = {}
    telemetry = {}
    if ok:
        it_err = [math.hypot(o["x"] - t.x, o["y"] - t.y) for o, t in zip(it_objs, bench.truth)]
        knn_err = [math.hypot(o["x"] - t.x, o["y"] - t.y) for o, t in zip(knn_objs, bench.truth)]
        ce50_it = evaluate.circular_error(it_err, 50)
        ce90_it = evaluate.circular_error(it_err, 90)
        ce90_knn = evaluate.circular_error(knn_err, 90)
        # a working positioner beats always answering the centre of the region
        cx, cy = bench.w.width / 2, bench.w.height / 2
        centre = evaluate.circular_error([math.hypot(t.x - cx, t.y - cy) for t in bench.truth], 50)
        ce50_worst = max(ce50_it, evaluate.circular_error(knn_err, 50))
        if not ce50_worst < centre / 2:
            checks["accuracy"] = (f"CE50 {ce50_worst:.2f} m is not below half the "
                                  f"centre guess's {centre:.2f} m")
        knn_ms = [statistics.median(r.knn_ms[i] for r in plain) for i in range(len(bench.truth))]
        it_ms = [statistics.median(r.iterative_ms[i] for r in plain)
                 for i in range(len(bench.truth))]
        setups = [s for r in plain for s in r.setup_s]
        builds = [r.build_s for r in plain]
        qps = [r.qps for r in plain if r.qps is not None]
        metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            "build_s": (statistics.median(builds), len(builds)),
            "knn_p50_ms": (_rank(knn_ms, 50), len(knn_ms)),
            "knn_p98_ms": (_rank(knn_ms, 98), len(knn_ms)),
            "iterative_mean_ms": (statistics.fmean(it_ms), len(it_ms)),
            "iterative_p98_ms": (_rank(it_ms, 98), len(it_ms)),
            "iterative_batch_qps": (statistics.median(qps), len(qps)),
            "ce50_iterative_m": (ce50_it, len(it_err)),
            "ce90_iterative_m": (ce90_it, len(it_err)),
            "ce90_knn_m": (ce90_knn, len(knn_err)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        telemetry = termination_telemetry(it_objs)
        traced = [r for r in rounds if r.traced]
        if traced:
            metrics = layer_metrics(bench, traced, plain, telemetry)

    return {
        "workload": bench.w.name,
        "seed": bench.seed,
        "trace": bool(any(r.traced for r in rounds)),
        "elapsed_s": elapsed,
        "rounds": len(rounds),
        "stamps": stamps(),
        "correct": not checks,
        "checks": checks,
        "oracle": bench.oracle,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "sha256": {
            "map": first.map_sha256,
            "estimates_iterative": _sha(first.iterative_lines) if ok else None,
            "estimates_knn": _sha(first.knn_lines) if ok else None,
        },
        "termination": telemetry,
        "metrics": {name: {"value": value, "unit": (END_TO_END | PER_LAYER)[name],
                           "samples": n}
                    for name, (value, n) in metrics.items()},
    }


def termination_telemetry(objs: list[dict]) -> dict:
    """Termination shares, the iteration histogram and how many loops were
    detected, from the estimates as the program wrote them."""
    n = len(objs)
    tf = Counter(o["tf"] for o in objs)
    hist = Counter(o["iterations"] for o in objs)
    return {
        "tf_converging_share": tf[int(model.Termination.CONVERGING)] / n,
        "tf_looping_share": tf[int(model.Termination.LOOPING)] / n,
        "tf_max_share": tf[int(model.Termination.MAX)] / n,
        "loop_detected_share": sum(o["loop_points"] is not None for o in objs) / n,
        "iterations_mean": sum(o["iterations"] for o in objs) / n,
        "iterations_max": max(hist),
        "iterations_histogram": {str(k): hist[k] for k in sorted(hist)},
    }


def layer_metrics(bench: Run, traced: list[Round], plain: list[Round],
                  telemetry: dict) -> dict:
    """Per-layer metrics: timings are medians over traced rounds, counts
    must repeat exactly in every traced round."""
    out = {}
    for name in traced[0].layers:
        values = [r.layers[name] for r in traced]
        if PER_LAYER[name] == "s":
            out[name] = (statistics.median(values), len(values))
        else:
            if len(set(values)) != 1:
                bench.checks["counts_repeat"] = f"{name} differs between traced rounds"
            out[name] = (values[0], len(values))
    for key in ("iterations_mean", "iterations_max", "tf_converging_share",
                "tf_looping_share", "tf_max_share", "loop_detected_share"):
        out[f"positioner.{key}"] = (float(telemetry[key]), len(bench.truth))
    sweep_traced = statistics.median(r.sweep_s for r in traced)
    sweep_plain = statistics.median(r.sweep_s for r in plain)
    out["trace_overhead_share"] = (sweep_traced / sweep_plain - 1.0, len(traced))
    return out


def stamps() -> dict:
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rfmloc").rglob("*")):
        if path.suffix not in (".py", ".pyx"):
            continue
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _kernels.BACKEND,
        "RFMLOC_BACKEND": os.environ.get("RFMLOC_BACKEND"),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read from ``.git`` directly (no
    git process); None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
