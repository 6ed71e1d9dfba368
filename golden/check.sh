#!/bin/sh
# Diff the output of every `slpm figure` and `slpm experiment`, of `slpm
# help`, the answers, planner counts, stream and fault records and page
# accounting of `serve_bench` at the CI configuration, the out-of-core
# answers and page accounting of `serve_bench` and `pipeline_scale` on a
# packed 256x256 page file, the method, lambda_2 and residual lines of `slpm
# fiedler`, and the recursive-bisection orders of `pipeline_scale` at leaf
# size 64 against their committed copies in this directory, byte for
# byte; `--bless` rewrites the copies instead. Usage, from the repository
# root after a release build:
#
#   golden/check.sh [--bless] [path/to/slpm]
#
# `serve_bench` and `pipeline_scale` are taken from the directory `slpm`
# is in. The outputs are seeded and bitwise independent of the thread
# count, so any difference is a changed result.
set -eu
dir=$(cd "$(dirname "$0")" && pwd)
bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
    shift
fi
slpm=${1:-target/release/slpm}
serve_bench=$(dirname "$slpm")/serve_bench
pipeline_scale=$(dirname "$slpm")/pipeline_scale
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# Compare (or bless) "$tmp/$1.txt" against "$dir/$1.txt"; $2 names the run.
compare() {
    if [ "$bless" = 1 ]; then
        cp "$tmp/$1.txt" "$dir/$1.txt"
    elif ! diff -u "$dir/$1.txt" "$tmp/$1.txt"; then
        echo "golden: $2 differs from golden/$1.txt" >&2
        status=1
    fi
}

for run in "figure fig1" "figure fig3" "figure fig4" "figure fig5a" \
    "figure fig5b" "figure fig6a" "figure fig6b" "experiment knn" \
    "experiment storage" "experiment rtree" "experiment decluster" \
    "experiment pointcloud" "experiment ablations"; do
    name=${run#* }
    # shellcheck disable=SC2086 # "figure fig1" is two arguments
    "$slpm" $run >"$tmp/$name.txt"
    compare "$name" "slpm $run"
done

# The help text: every command's flags and defaults.
"$slpm" help >"$tmp/help.txt"
compare help "slpm help"

# The eigensolver size policy: with no --method, an 8x8 grid (64
# vertices) is solved densely and a 32x32 (1,024) and a 72x72 grid
# (5,184) by the multilevel scheme. Each solve's first three lines name
# the method that ran, lambda_2 and the residual.
for grid in 8x8 32x32 72x72; do
    "$slpm" fiedler --grid "$grid" >"$tmp/solve.txt"
    head -n 3 "$tmp/solve.txt"
done >"$tmp/fiedler.txt"
compare fiedler "slpm fiedler"

# The storage section's digests and page accounting: the ordered sweep
# with and without readahead, and the random batches.
storage() {
    grep '"storage": {' "$1" | sed -E 's/.*("memory_digest")/storage {\1/'
}

# The serving record: each matrix entry's configuration and answer
# digest, the best-first kNN planner's node, leaf and total counts, the
# stream section (its calibration and every entry), the fault entries and
# the storage section. The stream and fault sections run on the simulated
# clock and the admission-time fault plan, so they repeat exactly at any
# thread count. Timings (the stream entries' `wall_qps` among them) and
# the matrix's hit ratios (several batches in flight share each pool) are
# left out: they move with the host or with scheduling.
"$serve_bench" --grid 64 --shards 2 --threads 2 --queries 400 --inflight 4 \
    --json --out "$tmp/serve.json" >/dev/null
{
    grep '"mode": ' "$tmp/serve.json" |
        sed -E 's/.*"shards": ([0-9]+), "threads": ([0-9]+), "inflight": ([0-9]+), "mode": "([a-z]+)".*"digest": "([0-9a-f]+)".*/matrix shards \1 threads \2 inflight \3 \4 digest \5/'
    grep '"knn": {' "$tmp/serve.json" | sed -E 's/^ *"knn": (\{[^}]*\}).*/knn \1/'
    grep '"stream": {' "$tmp/serve.json" | sed -E 's/^ *"stream": (.*), "entries": \[$/stream \1/'
    grep '"shape": ' "$tmp/serve.json" |
        sed -E 's/"wall_qps": [0-9.]+, //; s/^ *(\{.*\}),?$/stream \1/'
    grep '"label": ' "$tmp/serve.json" | sed -E 's/^ *(\{.*\}),?$/fault \1/'
    storage "$tmp/serve.json"
} >"$tmp/serve.txt"
compare serve "serve_bench"

# The out-of-core record: `serve_bench`'s storage section on a packed
# 256x256 Hilbert page file, and `pipeline_scale`'s out-of-core stage
# (its own 256x256 file streamed through a pool of 10% of its pages):
# digest, cold, warm and readahead-off misses, prefetches and gate.
"$slpm" pack --grid 256x256 --out "$tmp/pages.slpm" >/dev/null
"$serve_bench" --grid 256 --shards 2 --threads 2 --queries 400 --inflight 4 \
    --page-file "$tmp/pages.slpm" --readahead 8 --json --out "$tmp/oocore.json" >/dev/null
"$pipeline_scale" --max-side 32 --oocore 256 --json --out "$tmp/pipeline.json" >/dev/null
{
    storage "$tmp/oocore.json"
    grep -o '"oocore": {[^}]*}' "$tmp/pipeline.json" |
        sed -E 's/"(pack|cold|warm)_seconds": [0-9.]+, //g; s/^"oocore": /oocore /'
} >"$tmp/oocore.txt"
compare oocore "serve_bench and pipeline_scale out of core"

# Recursive bisection to page size (leaf 64) on a 64x96 and a 128x192
# grid: each order's digest and solver fallbacks, and the verdict that the
# 2-thread order matches the serial one rank for rank. Timings are left
# out.
for side in 64 128; do
    "$pipeline_scale" --max-side 32 --threads 2 --bisection "$side" --json \
        --out "$tmp/bisection.json" >/dev/null
    grep -o '"bisection": {[^}]*}' "$tmp/bisection.json" |
        sed -E 's/"(serial_seconds|threaded_seconds|speedup)": [0-9.]+, //g; s/^"bisection": /bisection /'
done >"$tmp/bisection.txt"
compare bisection "pipeline_scale --bisection"
exit $status
