#!/usr/bin/env bash
# sg-obs smoke: start a thread-mode 4-worker cluster with a live telemetry
# endpoint, scrape it WHILE the run executes, assert the counter families
# are present and nonzero, and render one sg-top frame against the live
# endpoint. What the registry costs is `sg-metrics.telemetry_overhead_pct`
# in perf/. Offline-safe (loopback only); writes only under target/.
#
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=target/ci-obs-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE"

# Build up front so the background run starts serving immediately instead
# of sitting in a cargo build.
cargo build -q --release -p sg-bench
CLUSTER=target/release/sg-cluster

source scripts/lib.sh

echo "-- 4-worker thread-mode run with --telemetry-addr (vertex-lock, grid 120x120)"
launch_run "$SMOKE/run.log" --workers 4 --threads --technique vertex-lock \
    --workload coloring --graph grid:120:120

echo "-- scraping http://$ADDR/metrics during the run"
LIVE=0
for _ in $(seq 1 400); do
    if scrape "http://$ADDR/metrics" "$SMOKE/scrape.txt"; then
        if grep -q '^sg_worker_superstep{worker="3"}' "$SMOKE/scrape.txt" \
            && grep -q '^sg_worker_superstep{worker="0"}' "$SMOKE/scrape.txt"; then
            LIVE=1
            break
        fi
    fi
    kill -0 "$RUN_PID" 2>/dev/null || break
    sleep 0.02
done
[ "$LIVE" = 1 ] || { echo "FAIL: never saw all worker gauges in a live scrape"; exit 1; }

echo "-- sg-top --once against the live endpoint"
"$CLUSTER" top --addr "$ADDR" --once >"$SMOKE/top.log" 2>&1 \
    || { cat "$SMOKE/top.log"; echo "FAIL: sg-top --once against live endpoint"; exit 1; }
grep -q 'sg-top — cluster superstep' "$SMOKE/top.log" \
    || { cat "$SMOKE/top.log"; echo "FAIL: sg-top frame missing header"; exit 1; }

scrape "http://$ADDR/json" "$SMOKE/scrape.json" || true

wait "$RUN_PID" || { cat "$SMOKE/run.log"; echo "FAIL: cluster run failed"; exit 1; }
grep -q 'converged=true' "$SMOKE/run.log" || { echo "FAIL: run did not converge"; exit 1; }

echo "-- counter families present and nonzero in the live scrape"
# Worker plane: every rank reported in, and compute time accumulated.
for w in 0 1 2 3; do
    grep -q "^sg_worker_superstep{worker=\"$w\"}" "$SMOKE/scrape.txt" \
        || { echo "FAIL: sg_worker_superstep missing worker $w"; exit 1; }
done
grep -Eq '^sg_worker_compute_ns_total\{worker="[0-9]+"\} [1-9]' "$SMOKE/scrape.txt" \
    || { echo "FAIL: sg_worker_compute_ns_total not nonzero"; exit 1; }
# Link plane: frames and bytes flowed on some coordinator/worker link.
grep -Eq '^sg_link_frames_out_total\{[^}]*\} [1-9]' "$SMOKE/scrape.txt" \
    || { echo "FAIL: sg_link_frames_out_total not nonzero"; exit 1; }
grep -Eq '^sg_link_bytes_out_total\{[^}]*\} [1-9]' "$SMOKE/scrape.txt" \
    || { echo "FAIL: sg_link_bytes_out_total not nonzero"; exit 1; }
# Sync plane: vertex-lock acquire waits were recorded coordinator-side.
grep -Eq '^sg_sync_acquire_wait_ns_count\{[^}]*technique="vertex-lock"[^}]*\} [1-9]' "$SMOKE/scrape.txt" \
    || { echo "FAIL: sg_sync_acquire_wait_ns histogram empty"; exit 1; }
# TYPE metadata renders.
grep -q '^# TYPE sg_worker_superstep gauge' "$SMOKE/scrape.txt" \
    || { echo "FAIL: # TYPE line missing"; exit 1; }

if [ -s "$SMOKE/scrape.json" ]; then
    grep -q '"name":"sg_worker_superstep"' "$SMOKE/scrape.json" \
        || { echo "FAIL: /json endpoint missing worker gauges"; exit 1; }
fi

echo "sg-obs smoke green."
