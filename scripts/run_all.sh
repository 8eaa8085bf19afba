#!/bin/sh
# Regenerate every table and figure into results/, plus test output.
# Exits non-zero if the test suite, a bench binary, a ledger or a smoke
# run fails.
# Usage: scripts/run_all.sh [build-dir] (default: build)
set -e
BUILD=${1:-build}
mkdir -p results
status=0

# run LOG CMD...: run CMD with its output kept in LOG and shown. A
# failure is named and fails the script at the end; piping CMD into
# tee instead would hand set -e tee's status, not CMD's.
run() {
    log=$1
    shift
    rc=0
    "$@" > "$log" 2>&1 || rc=$?
    cat "$log"
    if [ "$rc" -ne 0 ]; then
        echo "FAILED (exit $rc): see $log"
        status=1
    fi
}

# Run the suite twice -- fully serial and fully fanned out -- so any
# parallel-runner nondeterminism fails loudly here, not in a paper run.
run results/test_output.txt env NOW_JOBS=1 ctest --test-dir "$BUILD"
run results/test_output_jobs.txt env NOW_JOBS="$(nproc)" \
    ctest --test-dir "$BUILD"

# The bench targets bench/CMakeLists.txt defines (its now_bench lines):
# a reused build tree still holds the binaries of deleted targets, and
# those are not run. Each runs inside results/, so what it writes to its
# working directory (bench_paper's fig4/, bench_wavefront's
# BENCH_wavefront.json) lands there, not over the committed ledgers.
bench_dir=$(cd "$BUILD/bench" && pwd)
for name in $(sed -n 's/^now_bench(\([A-Za-z0-9_]*\))$/\1/p' \
    "$(dirname "$0")/../bench/CMakeLists.txt"); do
    echo "== $name =="
    run "results/$name.txt" sh -c 'cd results && exec "$0"' \
        "$bench_dir/$name"
done

# The analytic-backend and tuned-collective ledgers, from the commands
# that gate them in CI.
echo "== backend ledger =="
run results/nowlab_backend.txt \
    "$BUILD"/tools/nowlab backend validate --out results/BENCH_backend.json
echo "== collectives ledger =="
run results/nowlab_coll.txt \
    "$BUILD"/tools/nowlab coll validate --out results/BENCH_coll.json

# 1024-node smoke: one run on an oversubscribed two-level fat-tree.
# Completing with valid output here is the gate for the scaled-up
# paper sweeps.
echo "== 1024-node smoke =="
run results/nowlab_1024_smoke.txt \
    "$BUILD"/tools/nowlab run radix --procs 1024 --scale 0.02 \
    --topo --topo-hosts 32 --topo-oversub 4

# Traced smoke run: capture a span trace of one baseline run and make
# sure the Perfetto export is valid JSON (loadable in ui.perfetto.dev).
echo "== traced smoke run =="
run results/nowlab_trace.txt \
    "$BUILD"/tools/nowlab trace radix --procs 4 --scale 0.1 \
    --out results/radix_trace.json --bin results/radix_trace.obs
python3 -m json.tool results/radix_trace.json > /dev/null \
    && echo "results/radix_trace.json: valid JSON"

# Wavefront smoke: inject a one-off stall, diff against the baseline,
# and validate the idle-wave Perfetto export (clamped spans and the
# synthesized idle-wave track must still be loadable JSON).
echo "== wavefront smoke =="
run results/nowlab_wavefront.txt \
    "$BUILD"/tools/nowlab wavefront radix --procs 8 --scale 0.05 \
    --out results/radix_wavefront.json
python3 -m json.tool results/radix_wavefront.json > /dev/null \
    && echo "results/radix_wavefront.json: valid JSON"

echo "All outputs in results/ (Figure 4 images in results/fig4/)"
exit $status
