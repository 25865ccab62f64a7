"""Compare the result records of two versions, workload by workload.

    python3 rfmbench/compare.py --base A/*.json --head B/*.json

Each file is a record that run.py wrote to ``rfmbench/out/``. For every
workload and end-to-end metric it prints the median and quartile spread
of each side and the head's change against the bound in BENCHMARK.json.
It refuses to compare (exit 2) records from different kernel backends:
the backend alone moves the kernel-bound metrics by more than any bound.
Exits 1 when a head median is worse than its base by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    records = [json.loads(Path(p).read_text()) for p in paths]
    return [r for r in records if not r["trace"]]


def by_workload(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[r["workload"]][name].append(m["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare rfmbench result records")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)

    base, head = load(args.base), load(args.head)
    backends = {r["stamps"]["backend"] for r in base + head}
    if len(backends) != 1:
        print(f"refusing to compare results from different kernel backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    if any(not r["correct"] for r in base + head):
        print("refusing to compare: some records failed their output checks", file=sys.stderr)
        return 2

    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base_w, head_w = by_workload(base), by_workload(head)
    worse = 0
    print(f"{'workload':18s} {'metric':22s} {'base':>11s} {'head':>11s} {'change':>8s} "
          f"{'bound':>6s} {'spread b/h':>12s}")
    for workload in sorted(base_w.keys() & head_w.keys()):
        for name, m in spec.items():
            b, h = base_w[workload].get(name), head_w[workload].get(name)
            if not b or not h:
                continue
            mb, mh = statistics.median(b), statistics.median(h)
            change = (mh - mb) / mb
            loss = change if m["better"] == "lower" else -change
            flag = "  WORSE" if loss > m["bound"] else ""
            worse += bool(flag)
            print(f"{workload:18s} {name:22s} {mb:11.5g} {mh:11.5g} {change:+8.1%} "
                  f"{m['bound']:6.2f} {spread(b):5.2f}/{spread(h):<5.2f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
