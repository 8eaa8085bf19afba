#!/bin/sh
# Publish the delay propagation & decay numbers as BENCH_wavefront.json:
# a one-off processor stall injected into radix and em3d-read at three
# delay sizes, diffed against an unperturbed baseline by the wavefront
# analyzer (see bench/bench_wavefront.cc). Exits non-zero when any
# (app, delay) pair lacks a finite propagation speed or decay distance,
# or when repeating the analysis on a worker thread changes it.
#
# Usage: scripts/bench_wavefront.sh [out.json] [extra bench args]
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_wavefront.json}
[ $# -gt 0 ] && shift

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$(nproc)" --target bench_wavefront

./build-perf/bench/bench_wavefront --out "$OUT" "$@"
