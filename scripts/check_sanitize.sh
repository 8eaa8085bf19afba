#!/bin/sh
# Build and run the tier-1 test suite under sanitizers.
# Usage: scripts/check_sanitize.sh [ctest args]
#
#   NOWCLUSTER_SANITIZE=address;undefined   (default) ASan + UBSan
#   NOWCLUSTER_SANITIZE=thread              TSan: exercises the parallel
#       experiment runner's threading (harness/runner.cc), nowlabd's
#       event-loop thread (svc/server.cc), and the fiber switch
#       annotations.
#   NOWCLUSTER_SANITIZE=both                Run the suite twice: once
#       under ASan + UBSan, once under TSan. This is the mode that
#       covers the svc tests (the epoll engine, the store's atomic
#       writes, the connection-churn fuzzer) in both regimes.
#
# Note: these builds run the same fiber switch as the release build
# (src/sim/fiber.cc: the register-swap routine on x86-64, ucontext
# elsewhere); ASan is told about each switch via the
# start/finish_switch_fiber annotations and TSan via
# __tsan_switch_to_fiber. LeakSanitizer is on (detect_leaks=1); parked
# fiber stacks are heap blocks it scans like any other.
set -eu
cd "$(dirname "$0")/.."

SAN=${NOWCLUSTER_SANITIZE:-"address;undefined"}

if [ "$SAN" = both ]; then
    NOWCLUSTER_SANITIZE="address;undefined" sh "$0" "$@"
    NOWCLUSTER_SANITIZE=thread sh "$0" "$@"
    exit 0
fi

case "$SAN" in
thread)
    DIR=build-tsan
    ;;
*)
    DIR=build-asan
    ;;
esac

cmake -B "$DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DNOWCLUSTER_SANITIZE=$SAN"
cmake --build "$DIR" -j "$(nproc)"

if [ "$SAN" = thread ]; then
    # history_size: fiber switches inflate TSan's per-thread history.
    TSAN_OPTIONS=halt_on_error=1:history_size=7 \
        ctest --test-dir "$DIR" --output-on-failure "$@"
else
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
        ctest --test-dir "$DIR" --output-on-failure "$@"
    # The delay-injection fuzzer gets an explicit pass: random stall
    # specs stress the preemption sweep in Proc::compute(), exactly
    # where ASan would catch a stall-window bookkeeping overrun.
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
        "$DIR"/tests/test_fuzz --gtest_filter='*DelayFuzz*'
fi
