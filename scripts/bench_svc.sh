#!/bin/sh
# Measure the experiment service under storm load and record the result
# as BENCH_svc.json: saturation throughput and per-op latency
# percentiles (submit/status/get) against one local nowlabd with the
# default worker pool (--jobs 0: one worker per core).
#
# NOW_SVC_BACKEND=analytic starts the server with the analytic LogGP
# backend (DESIGN.md §16) so the numbers show served-QPS with the
# cheap engine in front (sim fall-back stays transparent); the storm
# stamps the mode into the JSON.
#
# Usage: scripts/bench_svc.sh [out.json] [extra `nowlab storm` args]
set -eu
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_svc.json}
[ $# -gt 0 ] && shift
BACKEND=${NOW_SVC_BACKEND:-sim}
SERVE_FLAGS=""
[ "$BACKEND" = analytic ] && SERVE_FLAGS="--backend analytic"

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$(nproc)" --target nowlab

NOWLAB=./build-perf/tools/nowlab
WORK=$(mktemp -d /tmp/nowbench-svc-XXXXXX)
SERVER=""

cleanup() {
    [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# shellcheck disable=SC2086
"$NOWLAB" serve --port 0 --cache-dir "$WORK/store" $SERVE_FLAGS \
    > "$WORK/serve.log" 2>&1 &
SERVER=$!

# Port of the just-started nowlabd, parsed from its banner line.
PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^nowlabd on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$WORK/serve.log" 2>/dev/null | head -1)
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "bench_svc: no banner in $WORK/serve.log" >&2; exit 1; }

"$NOWLAB" storm --port "$PORT" --conns 32 --ops 2000 --seeds 24 \
    --backend "$BACKEND" --out "$OUT" "$@"
"$NOWLAB" stats --port "$PORT"
echo "service numbers written to $OUT"
