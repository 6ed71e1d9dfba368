#!/bin/sh
# Diff the output of every `slpm figure` and `slpm experiment`, of `slpm
# help`, and the answers and planner counts of `serve_bench` at the CI
# configuration against their committed copies in this directory, byte
# for byte; `--bless` rewrites the copies instead. Usage, from the
# repository root after a release build:
#
#   golden/check.sh [--bless] [path/to/slpm]
#
# `serve_bench` is taken from the directory `slpm` is in. The outputs are
# seeded and bitwise independent of the thread count, so any difference
# is a changed result.
set -eu
dir=$(cd "$(dirname "$0")" && pwd)
bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
    shift
fi
slpm=${1:-target/release/slpm}
serve_bench=$(dirname "$slpm")/serve_bench
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

# The serving record: each matrix entry's configuration and answer
# digest, and the best-first kNN planner's node, leaf and total counts.
# Timings, hit ratios and the stream and fault sections are left out:
# they move with the host or with scheduling.
"$serve_bench" --grid 64 --shards 2 --threads 2 --queries 400 --inflight 4 \
    --json --out "$tmp/serve.json" >/dev/null
{
    grep '"mode": ' "$tmp/serve.json" |
        sed -E 's/.*"shards": ([0-9]+), "threads": ([0-9]+), "inflight": ([0-9]+), "mode": "([a-z]+)".*"digest": "([0-9a-f]+)".*/matrix shards \1 threads \2 inflight \3 \4 digest \5/'
    grep '"knn": {' "$tmp/serve.json" | sed -E 's/^ *"knn": (\{[^}]*\}).*/knn \1/'
} >"$tmp/serve.txt"
compare serve "serve_bench"
exit $status
