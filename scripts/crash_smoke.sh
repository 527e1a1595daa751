#!/usr/bin/env bash
# Crash-recovery smoke test for locmapd's durable batch queue.
#
# Starts locmapd with a throwaway journal directory and one batch
# worker, submits a 3-job batch and a small /v1/optimize search,
# kill -9s the process immediately (so jobs die queued or mid-run),
# restarts it over the same journal directory, and asserts the
# replayed queue completes every batch job with a retrievable result
# and the search with every verification child, on that one worker.
#
# Needs: go, curl, jq. Exit 0 = recovered, non-zero = lost work.
set -euo pipefail

ADDR="${LOCMAPD_ADDR:-127.0.0.1:18347}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
JDIR="$WORK/journal"
BIN="$WORK/locmapd"
PID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "crash_smoke: $*"; }

start_server() {
    "$BIN" -addr "$ADDR" -journal-dir "$JDIR" -batch-workers 1 2>>"$WORK/server.log" &
    PID=$!
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    say "server did not come up; log:"
    cat "$WORK/server.log" >&2
    exit 1
}

say "building locmapd"
go build -o "$BIN" ./cmd/locmapd

say "starting locmapd (journal: $JDIR)"
start_server

say "checking readiness probe"
curl -fsS "$BASE/readyz" >/dev/null

say "submitting a 3-job batch"
SUBMIT="$(curl -fsS -X POST "$BASE/v1/batch" -H 'Content-Type: application/json' -d '{
  "jobs": [
    {"kind":"map","request":{"source":"param N = 4096\narray A[N]\narray B[N]\nparallel for i = 0..N work 16 { A[i] = B[i] }"}},
    {"kind":"map","request":{"source":"param N = 8192\narray A[N]\narray B[N]\nparallel for i = 0..N work 32 { A[i] = B[i] }"}},
    {"kind":"simulate","request":{"source":"param N = 4096\narray A[N]\narray B[N]\nparallel for i = 0..N work 16 { A[i] = B[i] }"}}
  ]
}')"
BATCH_ID="$(jq -re '.batch_id' <<<"$SUBMIT")"
say "batch $BATCH_ID accepted"

say "submitting an optimize search"
OPTIMIZE="$(curl -fsS -X POST "$BASE/v1/optimize" -H 'Content-Type: application/json' -d '{
  "source":"param N = 4096\narray A[N]\narray B[N]\nparallel for i = 0..N work 16 { A[i] = B[i] }",
  "candidates":32,"top_k":1
}')"
OPT_ID="$(jq -re '.job_id' <<<"$OPTIMIZE")"
say "optimize job $OPT_ID accepted"

say "kill -9 before the queue drains"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

say "restarting over the same journal"
start_server

say "polling for batch recovery"
for i in $(seq 1 300); do
    STATUS="$(curl -fsS "$BASE/v1/batch/$BATCH_ID")"
    [ "$(jq -r '.done' <<<"$STATUS")" = "true" ] && break
    sleep 0.1
done
if [ "$(jq -r '.done' <<<"$STATUS")" != "true" ]; then
    say "FAIL: batch never completed after restart: $(jq -c '.counts' <<<"$STATUS")"
    exit 1
fi
DONE="$(jq -r '.counts.done' <<<"$STATUS")"
if [ "$DONE" != "3" ]; then
    say "FAIL: batch finished with counts $(jq -c '.counts' <<<"$STATUS")"
    exit 1
fi
RESULTS="$(jq -r '[.jobs[] | select(.result != null)] | length' <<<"$STATUS")"
if [ "$RESULTS" != "3" ]; then
    say "FAIL: only $RESULTS of 3 results retrievable"
    exit 1
fi
say "all 3 batch jobs replayed and completed with results"

say "polling for optimize recovery"
for i in $(seq 1 600); do
    JOB="$(curl -fsS "$BASE/v1/jobs/$OPT_ID")"
    jq -e '.state | IN("queued", "running") | not' <<<"$JOB" >/dev/null && break
    sleep 0.1
done
STATE="$(jq -r '.state' <<<"$JOB")"
if [ "$STATE" != "done" ]; then
    say "FAIL: optimize job is $STATE after restart: $(jq -r '.error // ""' <<<"$JOB")"
    exit 1
fi
if ! jq -e '.result.best.simulated_cycles <= .result.default.simulated_cycles' <<<"$JOB" >/dev/null; then
    say "FAIL: best placement worse than default: $(jq -c '[.result.best.simulated_cycles, .result.default.simulated_cycles]' <<<"$JOB")"
    exit 1
fi
if ! jq -e '.progress_summary.verify_total > 0 and .progress_summary.verify_done == .progress_summary.verify_total' <<<"$JOB" >/dev/null; then
    say "FAIL: verification children unfinished: $(jq -c '.progress_summary' <<<"$JOB")"
    exit 1
fi
say "PASS: batch and optimize search replayed and completed on one batch worker"
