#!/bin/sh
# Record the tuned-collective ledger as BENCH_coll.json with
# `nowlab coll validate --out`: every registered algorithm of every
# collective raced over a procs x sizes grid at two LogGP operating
# points (Berkeley NOW and Meiko CS-2), against the cost model's pick.
# Exits non-zero when the picks land within tolerance of the measured
# best on fewer than --min-hit of a machine's points. The 1024-node
# naive-vs-tuned application A/B is the last table of
# bench_ablation_collectives.
#
# Usage: scripts/bench_coll.sh [out.json] [extra `nowlab coll validate` args]
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_coll.json}
[ $# -gt 0 ] && shift

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$(nproc)" --target nowlab

./build-perf/tools/nowlab coll validate --out "$OUT" "$@"
