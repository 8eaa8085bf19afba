#!/bin/sh
# Record the analytic backend's ledger as BENCH_backend.json with
# `nowlab backend validate --out`: an L x o grid and a stretched-gap
# point for radix and em3d-read, each answered by the simulator and by
# the LP model, with runtimes, error, wall time per point both ways and
# the speedup. Exits non-zero when the command does (an unhealthy
# model, a point past 10% runtime error, a served runtime that is not
# predict()'s, dT/dL signs that disagree) or when an app's mean
# per-point speedup falls under the ledger's minSpeedup (100x), which
# the command records but leaves to this Release build to enforce.
#
# Usage: scripts/bench_backend.sh [out.json] [extra `nowlab backend validate` args]
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_backend.json}
[ $# -gt 0 ] && shift

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$(nproc)" --target nowlab

./build-perf/tools/nowlab backend validate --out "$OUT" "$@"
python3 - "$OUT" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
slow = [a["app"] for a in d["apps"] if a["meanSpeedup"] < d["minSpeedup"]]
for app in slow:
    print("%s: mean speedup under %gx" % (app, d["minSpeedup"]))
sys.exit(1 if slow else 0)
PY
