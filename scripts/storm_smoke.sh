#!/bin/sh
# Storm smoke: one nowlabd takes a knob-carrying submit and a short
# storm, then shuts down gracefully. Passes only if the submit and the
# storm exit 0 (every accepted job settled, none lost) and the server
# drains and exits 0. There is no SIGKILL on the passing path, so under
# ASan the server's exit also carries LeakSanitizer's verdict.
#
# Its logs (server, submit, storm, stats) are written to the current
# directory; ctest runs this as `nowlab_storm_smoke` in its build tree.
#
# Usage: scripts/storm_smoke.sh path/to/nowlab
set -eu

NOWLAB=${1:?usage: storm_smoke.sh path/to/nowlab}
[ -x "$NOWLAB" ] || { echo "storm_smoke: $NOWLAB not built" >&2; exit 1; }

LOG=storm_smoke
SERVER=""
# A banner left by an earlier run would name a dead port until the new
# server truncates its log, so start from no logs at all.
rm -f "$LOG".*.log

fail() {
    echo "storm_smoke: FAIL -- $1"
    for f in "$LOG".*.log; do
        [ -f "$f" ] && { echo "--- $f"; cat "$f"; }
    done
    [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null
    exit 1
}

"$NOWLAB" serve --port 0 --jobs 2 > "$LOG.serve.log" 2>&1 &
SERVER=$!

PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^nowlabd on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$LOG.serve.log" 2>/dev/null | head -1)
    [ -n "$PORT" ] && break
    kill -0 "$SERVER" 2>/dev/null || fail "nowlabd exited before its banner"
    sleep 0.1
done
[ -n "$PORT" ] || fail "no banner from nowlabd"

"$NOWLAB" submit radix --procs 4 --scale 0.05 --overhead 12.9 \
    --window 4 --wait --port "$PORT" > "$LOG.submit.log" 2>&1 ||
    fail "submit --wait did not return a valid result"
"$NOWLAB" storm --conns 4 --ops 100 --seeds 4 --port "$PORT" \
    > "$LOG.storm.log" 2>&1 || fail "storm lost jobs or got malformed replies"
"$NOWLAB" stats --shutdown --port "$PORT" > "$LOG.stats.log" 2>&1 ||
    fail "stats --shutdown"

STATUS=0
wait "$SERVER" || STATUS=$?
SERVER=""
[ "$STATUS" -eq 0 ] || fail "nowlabd exited $STATUS"
grep -q "nowlabd drained" "$LOG.serve.log" || fail "nowlabd did not drain"
cat "$LOG.storm.log"
echo "storm_smoke: PASS"
