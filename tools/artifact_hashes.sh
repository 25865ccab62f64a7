#!/usr/bin/env bash
# Build the byte-identity artifact set of three small synthetic datasets and
# print the sha256 of every file in it, one `sha256sum` line per file with
# its path relative to OUT_DIR. Two checkouts whose listings are equal build
# the same maps, estimates and reports byte for byte.
#
#   tools/artifact_hashes.sh OUT_DIR
#
# OUT_DIR must not exist or be empty. The program is run from this
# checkout's src/. Per dataset (synth seed 5 `--n-aps 8 --passes 2
# --spacing 1.2`, seed 7 at defaults, and a sparse seed 7 map whose cells
# are 12% absent, so that queries lack features the map has and the map
# lacks features they have): build; locate iterative, knn and
# cdm; iterative with 4 threads; eval of the iterative run with its ECDF and
# per-query errors; report of the three methods; iterative at Minkowski
# order 3 with k = 3; iterative at order 1.5 from a random start with k = 3
# and a loosened loop test; knn at order 1.5 with k = 3.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
out=$1
if [ -e "$out" ] && [ -n "$(ls -A "$out")" ]; then
    echo "$0: $out is not empty" >&2
    exit 2
fi
mkdir -p "$out"
export PYTHONPATH
PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"

rfmloc() { python3 -m rfmloc.cli "$@" > /dev/null; }

# locate OUT_FILE FLAGS...: the test queries of the dataset in $d against its map
locate() {
    local file=$1
    shift
    rfmloc locate --rfm "$d/map.json" --obs "$d/data/test.jsonl" --out "$file" "$@"
}

# dataset NAME SYNTH_FLAGS...
dataset() {
    local d="$out/$1"
    shift
    rfmloc synth --out-dir "$d/data" "$@"
    rfmloc build --raw "$d/data/raw.jsonl" --out "$d/map.json"
    mkdir -p "$d/runs" "$d/eval" "$d/variants"
    for method in iterative knn cdm; do
        locate "$d/runs/$method.jsonl" --method "$method"
    done
    locate "$d/variants/iterative-threads4.jsonl" --method iterative --threads 4
    locate "$d/variants/iterative-p3-k3.jsonl" --method iterative --minkowski-p 3 --k 3
    locate "$d/variants/iterative-p1.5-random.jsonl" --method iterative --minkowski-p 1.5 \
        --init-mode random --k 3 --loop-min-points 2 --loop-max-diameter 6
    locate "$d/variants/knn-p1.5-k3.jsonl" --method knn --minkowski-p 1.5 --k 3
    rfmloc eval --estimates "$d/runs/iterative.jsonl" --truth "$d/data/test.jsonl" \
        --out "$d/eval/stats.csv" --ecdf-out "$d/eval/ecdf.csv" --errors-out "$d/eval/errors.csv"
    rfmloc report --runs "$d/runs" --truth "$d/data/test.jsonl"
}

dataset s5 --seed 5 --n-aps 8 --passes 2 --spacing 1.2
dataset s7 --seed 7
dataset sparse --seed 7 --roi-width 200 --roi-height 120 --n-aps 12 --passes 1 --spacing 2

cd "$out"
find . -type f | LC_ALL=C sort | xargs sha256sum
