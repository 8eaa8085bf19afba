#!/bin/sh
# Regenerate every table and figure into results/, plus test output.
# Usage: scripts/run_all.sh [build-dir] (default: build)
set -e
BUILD=${1:-build}
mkdir -p results

# Run the suite twice -- fully serial and fully fanned out -- so any
# parallel-runner nondeterminism fails loudly here, not in a paper run.
NOW_JOBS=1 ctest --test-dir "$BUILD" 2>&1 | tee results/test_output.txt
NOW_JOBS=$(nproc) ctest --test-dir "$BUILD" 2>&1 \
    | tee results/test_output_jobs.txt

for b in "$BUILD"/bench/*; do
    name=$(basename "$b")
    echo "== $name =="
    "$b" 2>&1 | tee "results/$name.txt"
done

# 1024-node smoke: one run on an oversubscribed two-level fat-tree.
# Completing with valid output here is the gate for the scaled-up
# paper sweeps.
echo "== 1024-node smoke =="
"$BUILD"/tools/nowlab run radix --procs 1024 --scale 0.02 \
    --topo --topo-hosts 32 --topo-oversub 4 \
    2>&1 | tee results/nowlab_1024_smoke.txt

# Traced smoke run: capture a span trace of one baseline run and make
# sure the Perfetto export is valid JSON (loadable in ui.perfetto.dev).
echo "== traced smoke run =="
"$BUILD"/tools/nowlab trace radix --procs 4 --scale 0.1 \
    --out results/radix_trace.json --bin results/radix_trace.obs \
    2>&1 | tee results/nowlab_trace.txt
python3 -m json.tool results/radix_trace.json > /dev/null \
    && echo "results/radix_trace.json: valid JSON"

# Wavefront smoke: inject a one-off stall, diff against the baseline,
# and validate the idle-wave Perfetto export (clamped spans and the
# synthesized idle-wave track must still be loadable JSON).
echo "== wavefront smoke =="
"$BUILD"/tools/nowlab wavefront radix --procs 8 --scale 0.05 \
    --out results/radix_wavefront.json \
    2>&1 | tee results/nowlab_wavefront.txt
python3 -m json.tool results/radix_wavefront.json > /dev/null \
    && echo "results/radix_wavefront.json: valid JSON"

echo "All outputs in results/ (Figure 4 images in fig4/)"
