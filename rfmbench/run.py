"""End-to-end benchmark of rfmloc: build a map and locate queries against
it, with an optional traced run that times every layer from outside.

    python3 rfmbench/run.py --workload locate_k1_dense --seed 1 --seconds 30 --trace 0
    python3 rfmbench/run.py --workload all       # every workload, one process each

Run it from the root of a checkout: the program is imported from
``src/``, never from an installed copy, and the run fails without it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones. The full record (stamps, checks, hashes, termination telemetry)
goes to ``rfmbench/out/<workload>-s<seed>-t<trace>.json`` and, when
traced, the spans to ``...-spans.jsonl`` next to it. The exit code is 1
when an output check fails. See README.md for the workloads and what
each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    package really comes from there."""
    package = SRC / "rfmloc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"rfmbench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rfmloc

    if Path(rfmloc.__file__).resolve().parent != package.resolve():
        sys.exit(f"rfmbench: rfmloc was imported from {rfmloc.__file__}, not {package}")


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS belongs to it."""
    failed = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        if subprocess.run(cmd, check=False).returncode != 0:
            failed.append(name)
    print(f"workloads failing their checks: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    st = result["stamps"]
    print(f"{result['workload']} seed {result['seed']}: {result['rounds']} rounds in "
          f"{result['elapsed_s']:.1f} s; backend {st['backend']} "
          f"(RFMLOC_BACKEND={st['RFMLOC_BACKEND']}), nproc {st['nproc']}, "
          f"python {st['python']}, numpy {st['numpy']}, commit {st['git_commit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:10s} n={m['samples']}")
    if result["termination"]:
        print("  termination:", json.dumps(result["termination"]))
    print("  sha256:", json.dumps(result["sha256"]))
    print("  checks:", "all passed" if result["correct"] else json.dumps(result["checks"]),
          "| oracle:", json.dumps(result["oracle"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rfmloc end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the smoke test")
    args = parser.parse_args(argv)

    import_program()
    import harness
    from workloads import TINY, WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.scale == "tiny":
        w = replace(w, **TINY)

    stem = f"{w.name}-s{args.seed}-t{args.trace}" + ("-tiny" if args.scale == "tiny" else "")
    work_dir = OUT / stem
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run(w, args.seed, args.seconds, bool(args.trace), work_dir,
                             OUT / f"{stem}-spans.jsonl")
    finally:  # the inputs and the map are regenerated by every run
        shutil.rmtree(work_dir, ignore_errors=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
