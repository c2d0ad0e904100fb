#!/usr/bin/env bash
# sg-net smoke: loopback 2-process cluster runs of every synchronization
# technique (real fork/exec workers, real TCP sockets), one injected
# connection-kill recovery run, and `sg-cluster bench`'s artifact schema.
# Offline-safe (loopback only); writes only under target/.
#
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=target/ci-net-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE"

CLUSTER=(cargo run -q -p sg-bench --release --bin sg-cluster --)

echo "-- 2-process loopback runs, every technique (greedy coloring, grid 6x6)"
for technique in single-token dual-token vertex-lock partition-lock; do
    "${CLUSTER[@]}" run --workers 2 --technique "$technique" \
        --workload coloring --graph grid:6:6 >"$SMOKE/run-$technique.log"
    grep -q 'converged=true' "$SMOKE/run-$technique.log" \
        || { echo "FAIL: $technique did not converge"; exit 1; }
    grep -q ' 0 coloring conflicts' "$SMOKE/run-$technique.log" \
        || { echo "FAIL: $technique produced conflicts"; exit 1; }
    grep -q '1SR=true' "$SMOKE/run-$technique.log" \
        || { echo "FAIL: $technique not one-copy serializable"; exit 1; }
done

echo "-- negative: a known technique the cluster cannot run says why; bad graphs are usage errors"
rc=0
"${CLUSTER[@]}" run --workers 2 --threads --technique bsp-vertex-lock \
    >/dev/null 2>"$SMOKE/bsp.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: bsp-vertex-lock exited $rc, want 2"; exit 1; }
grep -q 'no cluster-runtime equivalent' "$SMOKE/bsp.err" \
    || { echo "FAIL: bsp-vertex-lock refusal does not name the cluster runtime"; exit 1; }
if grep -q 'unknown technique' "$SMOKE/bsp.err"; then
    echo "FAIL: bsp-vertex-lock reported as an unknown technique"; exit 1
fi
for spec in ring:0 grid:0:3 er:0:0:1 er:5:1000:1; do
    rc=0
    "${CLUSTER[@]}" run --workers 2 --threads --graph "$spec" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || { echo "FAIL: --graph $spec exited $rc, want 1"; exit 1; }
done

echo "-- injected connection kill mid-run recovers (partition-lock)"
"${CLUSTER[@]}" run --workers 2 --technique partition-lock \
    --workload coloring --graph grid:6:6 --fault 0:kill=2 \
    >"$SMOKE/run-faulted.log"
grep -q 'converged=true' "$SMOKE/run-faulted.log" \
    || { echo "FAIL: faulted run did not converge"; exit 1; }
grep -q '1SR=true' "$SMOKE/run-faulted.log" \
    || { echo "FAIL: faulted run not one-copy serializable"; exit 1; }

echo "-- sg-cluster bench (thread mode for speed) + artifact sanity"
SG_RESULTS_DIR="$SMOKE" "${CLUSTER[@]}" bench --workers 2 --threads \
    >"$SMOKE/bench.log"
ART="$SMOKE/BENCH_net.json"
[ -f "$ART" ] || { echo "FAIL: $ART not written"; exit 1; }
grep -q '"schema_version": *2' "$ART" || { echo "FAIL: schema_version 2 missing"; exit 1; }
for cell in 'single-token' 'dual-token' 'vertex-lock' 'partition-lock'; do
    grep -q "\"label\":\"$cell\"" "$ART" || { echo "FAIL: cell $cell missing"; exit 1; }
done
[ -f "$SMOKE/TRACE_net.json" ] || { echo "FAIL: merged trace not written"; exit 1; }

echo "-- merged trace analyzes and self-diffs"
cargo run -q -p sg-bench --release --bin sg-trace -- analyze "$SMOKE/TRACE_net.json" \
    >"$SMOKE/analyze.log"
grep -q 'makespan attribution:' "$SMOKE/analyze.log" \
    || { echo "FAIL: merged trace did not analyze"; exit 1; }
cargo run -q -p sg-bench --release --bin sg-trace -- \
    diff "$SMOKE/TRACE_net.json" "$SMOKE/TRACE_net.json" >/dev/null \
    || { echo "FAIL: merged trace did not diff"; exit 1; }

echo "sg-net smoke green."
