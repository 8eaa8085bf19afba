#!/bin/sh
# Measure the experiment engine itself and record the result as
# BENCH_engine.json: event-loop throughput, pooled fiber stand-up and
# switch cost, wall-clock for a canonical sweep run serially vs fanned
# out across --jobs workers (verifying the two produce byte-identical
# results), one large run -- radix on a 1024-node oversubscribed
# fat-tree -- in seconds and events/s, and the analytic LP: a whole
# model build through the backend (traced run, probe and lowering; 5
# repetitions), the lowering of one traced run (11) and the per-point
# makespan-only and dual solve times (31 each), each as median, min
# and IQR.
# The host record (cores, CPU, compiler, build type, revision) and
# jobs_used record the machine the numbers came from -- speedups on a
# 1-core runner are honest 1.0x.
#
# Usage: scripts/bench_perf.sh [out.json] [extra `nowlab perf` args]
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_engine.json}
[ $# -gt 0 ] && shift

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$(nproc)" --target nowlab

./build-perf/tools/nowlab perf --out "$OUT" "$@"
echo "engine numbers written to $OUT"
