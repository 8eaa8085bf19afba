#!/bin/sh
# Measure the experiment service under storm load and record the result
# as BENCH_svc.json: saturation throughput and per-op latency
# percentiles (submit/status/get) against one local nowlabd with the
# default worker pool (--jobs 0: one worker per core).
#
# One storm is one draw from a wide spread (three on one host read
# 3013, 5150 and 3111 ops/s), so the script runs STORMS of them, each
# against a fresh nowlabd and an empty store, and records the median,
# minimum and IQR of the saturation throughput; every other field is
# the median-throughput storm's.
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
# Odd, so that the median is one storm's.
STORMS=5

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

for i in $(seq 1 "$STORMS"); do
    # shellcheck disable=SC2086
    "$NOWLAB" serve --port 0 --cache-dir "$WORK/store$i" $SERVE_FLAGS \
        > "$WORK/serve$i.log" 2>&1 &
    SERVER=$!

    # Port of the just-started nowlabd, parsed from its banner line.
    PORT=""
    for _ in $(seq 1 50); do
        PORT=$(sed -n 's/^nowlabd on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
            "$WORK/serve$i.log" 2>/dev/null | head -1)
        [ -n "$PORT" ] && break
        sleep 0.1
    done
    [ -n "$PORT" ] ||
        { echo "bench_svc: no banner in $WORK/serve$i.log" >&2; exit 1; }

    echo "== storm $i of $STORMS =="
    "$NOWLAB" storm --port "$PORT" --conns 32 --ops 2000 --seeds 24 \
        --backend "$BACKEND" --out "$WORK/storm$i.json" "$@"
    "$NOWLAB" stats --shutdown --port "$PORT"
    wait "$SERVER"
    SERVER=""
done

python3 - "$OUT" "$WORK"/storm*.json <<'PY'
import json, sys

def percentile(xs, q):
    # As `nowlab` interpolates: between the ranks around q.
    rank = q * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] * (1 - (rank - lo)) + xs[hi] * (rank - lo)

runs = sorted((json.load(open(f)) for f in sys.argv[2:]),
              key=lambda d: d["saturation_ops_per_sec"])
ops = [d["saturation_ops_per_sec"] for d in runs]
out = dict(runs[len(runs) // 2])
out["storms"] = len(runs)
out["saturation_ops_per_sec"] = {
    "median": percentile(ops, 0.5),
    "min": ops[0],
    "iqr": percentile(ops, 0.75) - percentile(ops, 0.25),
}
with open(sys.argv[1], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print("saturation: median %.1f ops/s, min %.1f, IQR %.1f over %d storms"
      % (out["saturation_ops_per_sec"]["median"], ops[0],
         out["saturation_ops_per_sec"]["iqr"], len(runs)))
PY
echo "service numbers written to $OUT"
