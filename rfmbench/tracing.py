"""Spans around the library's layer boundaries, recorded from outside.

The tracer swaps module and class attributes of ``rfmloc`` for thin
wrappers while a traced round runs and puts the originals back after it.
The library resolves every wrapped name at call time (module globals, a
module attribute, a class attribute), so the wrappers see every call and
``src/`` stays untouched.

Each span holds an id, the id of the span that caused it, the id of the
request it belongs to (its root span), a name, and start and end times
from ``time.perf_counter``. Spans stay in memory until the run ends. A
span's self time is its duration minus the time its children cover;
children of one span never overlap because each thread keeps its own
stack.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from rfmloc import _kernels, builder, positioner
from rfmloc.model import ExtendedRfm


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._references: dict[int, frozenset] = {}

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent, trace = stack[-1] if stack else (None, sid)
        if parent is None:
            self._local.seen = set()  # locations queried within this request
        stack.append((sid, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, trace, name, start, end))

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # counters kept at the same boundaries as the spans

    def count_query(self, rfm, loc, *_, **__):
        refs = self._references.get(id(rfm))
        if refs is None:
            refs = frozenset(map(tuple, rfm.locations.tolist()))
            self._references[id(rfm)] = refs
        key = (loc.x, loc.y)
        seen = getattr(self._local, "seen", set())
        self.counts["model.query.calls"] += 1
        self.counts["model.query.at_reference"] += key in refs
        self.counts["model.query.repeats"] += key in seen
        seen.add(key)

    def count_cdm(self, ref, obs, weights, *_, **__):
        n, f = ref.shape
        self.counts["kernels.cdm_batch.cells"] += n * f
        # inputs read plus the output row written, from the array sizes
        self.counts["kernels.cdm_batch.bytes_computed"] += (
            ref.nbytes + obs.nbytes + weights.nbytes + n * ref.itemsize)

    def count_mcd(self, *_, **__):
        self.counts["positioner.mcd_center.calls"] += 1

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        targets = [
            (builder, "build", "builder.build", None),
            (builder, "spatial_median_filter", "builder.median_filter", None),
            (ExtendedRfm, "save", "model.save", None),
            (ExtendedRfm, "load", "model.load", None),
            (ExtendedRfm, "query", "model.query", self.count_query),
            (_kernels, "cdm_batch", "kernels.cdm_batch", self.count_cdm),
            (positioner, "softmax_weights", "dissim.softmax_weights", None),
            (positioner, "knn_locate", "positioner.knn_locate", None),
            (positioner, "iterate_locate", "positioner.iterate_locate", None),
            (positioner, "detect_termination", "positioner.detect_termination", None),
            (positioner, "resolve_state", "positioner.resolve_state", None),
            (positioner, "mcd_center", "positioner.mcd_center", self.count_mcd),
        ]
        saved = []
        try:
            for owner, attr, name, count in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    # wrap the bound method; the class is the only caller
                    replacement = staticmethod(self.wrap(getattr(owner, attr), name, count))
                else:
                    replacement = self.wrap(raw, name, count)
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def by_name(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name, over spans[since:]."""
        spans = self.spans[since:]
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, _, name, start, end in spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": trace,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


def check_span_file(path) -> int:
    """Validate a span file written by :meth:`Tracer.write`; return the
    number of spans. Raises ValueError on the first malformed span."""
    spans = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            obj = json.loads(line)
            if set(obj) != {"id", "parent", "trace", "name", "start", "end"}:
                raise ValueError(f"{path}:{lineno}: unexpected keys {sorted(obj)}")
            if not obj["end"] >= obj["start"]:
                raise ValueError(f"{path}:{lineno}: span ends before it starts")
            spans[obj["id"]] = obj
    for span in spans.values():
        parent = span["parent"]
        if parent is None:
            if span["trace"] != span["id"]:
                raise ValueError(f"root span {span['id']} is not its own trace")
            continue
        outer = spans.get(parent)
        if outer is None:
            raise ValueError(f"span {span['id']} names a missing parent {parent}")
        if not (outer["start"] <= span["start"] and span["end"] <= outer["end"]):
            raise ValueError(f"span {span['id']} lies outside its parent")
        if span["trace"] != outer["trace"]:
            raise ValueError(f"span {span['id']} changes trace under its parent")
    if not spans:
        raise ValueError(f"{path}: no spans")
    return len(spans)

