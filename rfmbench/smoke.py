"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 rfmbench/smoke.py

For every workload it runs ``run.py --scale tiny`` untraced and traced and
checks that each run exits 0, that its last line is the result object
with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, that every metric BENCHMARK.json names for that mode is there
with its unit, and that the traced run wrote a well-formed span file.
Last, it runs the benchmark in a directory holding only BENCHMARK.json
and this directory, where it must fail without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def fail(message: str) -> None:
    sys.exit(f"smoke: FAIL: {message}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "rfmbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import check_span_file
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny")
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{where}: {result['correct']=} {result['attempted']=} {result['failed']=}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                fail(f"{where}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(wanted) - set(got))}, "
                     f"extra {sorted(set(got) - set(wanted))}, "
                     f"units {[(n, got[n], wanted[n]) for n in wanted if got.get(n, wanted[n]) != wanted[n]]}")
            if trace:
                spans = OUT / f"{workload}-s3-t1-tiny-spans.jsonl"
                try:
                    count = check_span_file(spans)
                except (OSError, ValueError) as exc:
                    fail(f"{where}: span file: {exc}")
                print(f"smoke: {where}: {len(got)} metrics, {count} spans")
            else:
                print(f"smoke: {where}: {len(got)} metrics")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", next(iter(WORKLOADS)), "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"without src/ the run exited {proc.returncode} and printed {proc.stdout!r}")
    print("smoke: without src/ the run fails and prints no result")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
