#!/bin/sh
# Diff the output of every `slpm figure` and `slpm experiment` against its
# committed copy in this directory, byte for byte; `--bless` rewrites the
# copies instead. Usage, from the repository root after a release build:
#
#   golden/check.sh [--bless] [path/to/slpm]
#
# The outputs are seeded and bitwise independent of the thread count, so
# any difference is a changed result.
set -eu
dir=$(cd "$(dirname "$0")" && pwd)
bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
    shift
fi
slpm=${1:-target/release/slpm}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
for run in "figure fig1" "figure fig3" "figure fig4" "figure fig5a" \
    "figure fig5b" "figure fig6a" "figure fig6b" "experiment knn" \
    "experiment storage" "experiment rtree" "experiment decluster" \
    "experiment pointcloud" "experiment ablations"; do
    name=${run#* }
    # shellcheck disable=SC2086 # "figure fig1" is two arguments
    "$slpm" $run >"$tmp/$name.txt"
    if [ "$bless" = 1 ]; then
        cp "$tmp/$name.txt" "$dir/$name.txt"
    elif ! diff -u "$dir/$name.txt" "$tmp/$name.txt"; then
        echo "golden: slpm $run differs from golden/$name.txt" >&2
        status=1
    fi
done
exit $status
