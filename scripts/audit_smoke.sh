#!/usr/bin/env bash
# sg-audit smoke: the live serializability audit plane, end to end.
#
# 1. A 4-process unsynchronized run (`--technique none`) with the audit
#    plane on: scrape `GET /audit` WHILE the run executes and assert the
#    violation is reported live — serializable=false *before* the run
#    completes — and that violation sentinels landed in the JSONL log.
# 2. A real technique (vertex-lock) under the same plane: the live final
#    verdict must agree with the post-hoc check (`live-1SR=true`).
#
# What the plane costs is `sg-serial.record_overhead_x` / `.audit_overhead_x`
# in perf/ (workload `coloring-dtoken-audited`).
#
# Offline-safe (loopback only); writes only under target/.
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=target/ci-audit-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE"

cargo build -q --release -p sg-bench
CLUSTER=target/release/sg-cluster

source scripts/lib.sh

# The graph sets how long the run stays up to be scraped: grid:400:400 runs
# for about 1.5 s on the reference host (grid:300:300, 0.5 s, was missed by
# one launch in three).
echo "-- 4-process unsynchronized control (technique=none) with the audit plane on"
SENTINELS="$SMOKE/sentinels.jsonl"
launch_run "$SMOKE/none.log" \
    --workers 4 --technique none --workload coloring --graph grid:400:400 \
    --max-supersteps 40 --audit-interval-ms 20 --audit-log "$SENTINELS"

echo "-- scraping http://$ADDR/audit for a live violation verdict"
CAUGHT=0
for _ in $(seq 1 600); do
    if scrape "http://$ADDR/audit" "$SMOKE/audit-none.json"; then
        if grep -q '"serializable":false' "$SMOKE/audit-none.json"; then
            if kill -0 "$RUN_PID" 2>/dev/null; then
                CAUGHT=1
                break
            fi
        fi
    fi
    kill -0 "$RUN_PID" 2>/dev/null || break
    sleep 0.02
done
# Unsynchronized coloring may fail the CLI health gate (it is *supposed*
# to be broken) — the exit code is not the assertion here.
wait "$RUN_PID" || true
[ "$CAUGHT" = 1 ] || {
    cat "$SMOKE/none.log"
    echo "FAIL: /audit never reported serializable=false while the run was live"
    exit 1
}
grep -q '"c1_violations"' "$SMOKE/audit-none.json" \
    || { echo "FAIL: /audit verdict fields missing"; exit 1; }
grep -q '"hot_vertices"' "$SMOKE/audit-none.json" \
    || { echo "FAIL: /audit conflict heatmap missing"; exit 1; }
[ -s "$SENTINELS" ] || { echo "FAIL: sentinel JSONL log is empty"; exit 1; }
grep -Eq '"kind":"(c1|c2|cycle)"' "$SENTINELS" \
    || { cat "$SENTINELS"; echo "FAIL: no violation sentinel in the log"; exit 1; }
echo "   caught live: $(head -c 120 "$SMOKE/audit-none.json")..."
echo "   sentinels: $(wc -l <"$SENTINELS") lines"

echo "-- vertex-lock under the audit plane: live verdict must match post hoc"
launch_run "$SMOKE/vlock.log" \
    --workers 4 --technique vertex-lock --workload coloring --graph grid:60:60 \
    --audit-interval-ms 20
scrape "http://$ADDR/audit" "$SMOKE/audit-vlock.json" || true
wait "$RUN_PID" || { cat "$SMOKE/vlock.log"; echo "FAIL: vertex-lock run failed"; exit 1; }
grep -q 'live-1SR=true' "$SMOKE/vlock.log" \
    || { cat "$SMOKE/vlock.log"; echo "FAIL: live verdict disagrees with post hoc"; exit 1; }
grep -q '1SR=true' "$SMOKE/vlock.log" \
    || { cat "$SMOKE/vlock.log"; echo "FAIL: vertex-lock run not serializable"; exit 1; }

echo "sg-audit smoke green."
