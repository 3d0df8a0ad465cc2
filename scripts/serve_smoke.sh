#!/usr/bin/env bash
# Serve/verdict-cache smoke test for `gqed serve`.
#
# 1. Starts `gqed serve` on an ephemeral port with an on-disk verdict
#    store and a BMC-only engine set (exactly deterministic verdicts).
# 2. Submits the relu obligation batch: every verdict is a cache miss
#    and lands in the store.
# 3. Resubmits the identical batch: the server must answer it entirely
#    from the content-addressed cache — hit count equal to the first
#    run's miss count, zero misses, `job_cached` telemetry events, and a
#    byte-identical normalized summary.
# 4. Shuts the server down over the wire.
# 5. Starts a second server, leaves it idle, and sends it SIGINT: it must
#    exit 0 within 5 s after 0 connections (the interrupt wakes the
#    blocking accept loop, and the wake-up is not counted).
#
# Usage: scripts/serve_smoke.sh [path-to-gqed-binary]
set -u

GQED="${1:-target/release/gqed}"
WORK="$(mktemp -d)"
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start server (ephemeral port, on-disk verdict store) =="
"$GQED" serve --addr 127.0.0.1:0 --engines bmc --store "$WORK/verdicts.j1" \
  >"$WORK/serve.out" 2>"$WORK/serve.err" &
SERVE_PID=$!

# Waits for the server SERVE_PID, writing to $WORK/$1.{out,err}, to print
# "gqed serve: listening on HOST:PORT" once bound; sets ADDR.
wait_for_address() {
  ADDR=
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^gqed serve: listening on //p' "$WORK/$1.out")"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || {
      echo "server exited before binding:"
      cat "$WORK/$1.err"
      exit 1
    }
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "server never reported its address"; exit 1; }
  echo "server at $ADDR"
}
wait_for_address serve

SUBMIT=(submit relu --addr "$ADDR" --batch smoke)

echo "== cold batch (populates the store) =="
"$GQED" "${SUBMIT[@]}" --summary-out "$WORK/cold.txt" \
  >"$WORK/cold.out" || { echo "cold submit failed"; cat "$WORK/cold.out"; exit 1; }
grep -E 'verdict store: 0 cache hits, [1-9][0-9]* cache misses' "$WORK/cold.out" \
  || { echo "cold batch should be all misses"; cat "$WORK/cold.out"; exit 1; }

echo "== resubmitted batch (must be 100% cache hits) =="
"$GQED" "${SUBMIT[@]}" --summary-out "$WORK/warm.txt" --telemetry "$WORK/warm.jsonl" \
  >"$WORK/warm.out" || { echo "warm submit failed"; cat "$WORK/warm.out"; exit 1; }
grep -E 'verdict store: [1-9][0-9]* cache hits, 0 cache misses' "$WORK/warm.out" \
  || { echo "resubmission re-solved something"; cat "$WORK/warm.out"; exit 1; }

COLD_MISSES="$(sed -n 's/.*verdict store: [0-9]* cache hits, \([0-9]*\) cache misses.*/\1/p' "$WORK/cold.out")"
WARM_HITS="$(sed -n 's/.*verdict store: \([0-9]*\) cache hits.*/\1/p' "$WORK/warm.out")"
if [ "$COLD_MISSES" != "$WARM_HITS" ]; then
  echo "FAIL: cold run solved $COLD_MISSES obligations but the resubmission hit only $WARM_HITS"
  exit 1
fi
echo "all $WARM_HITS verdicts served from the cache"

grep -q '"type":"job_cached"' "$WORK/warm.jsonl" \
  || { echo "no job_cached telemetry events in the resubmission"; exit 1; }

if cmp -s "$WORK/cold.txt" "$WORK/warm.txt"; then
  echo "OK: cached summary is byte-identical to the solved one"
else
  echo "FAIL: cached summary diverges from the solved one"
  diff -u "$WORK/cold.txt" "$WORK/warm.txt"
  exit 1
fi

echo "== shutdown over the wire =="
"$GQED" submit --shutdown --addr "$ADDR" || { echo "shutdown request failed"; exit 1; }
wait "$SERVE_PID" || { echo "server exited non-zero"; exit 1; }
SERVE_PID=

echo "== SIGINT to an idle server (wakes the blocking accept) =="
"$GQED" serve --addr 127.0.0.1:0 --engines bmc \
  >"$WORK/idle.out" 2>"$WORK/idle.err" &
SERVE_PID=$!
wait_for_address idle
kill -INT "$SERVE_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: idle server still running 5 s after SIGINT"
  exit 1
fi
wait "$SERVE_PID" || { echo "idle server exited non-zero after SIGINT"; cat "$WORK/idle.err"; exit 1; }
SERVE_PID=
grep -q 'shut down after 0 connection(s)' "$WORK/idle.err" \
  || { echo "FAIL: idle server did not report 0 connections"; cat "$WORK/idle.err"; exit 1; }
echo "OK: SIGINT stopped the idle server after 0 connections"
echo "OK: serve smoke passed"
