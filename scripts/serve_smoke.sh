#!/usr/bin/env bash
# sg-store serving smoke: start a thread-mode 2-worker cluster with the
# query plane up, and WHILE the run executes: probe /healthz, point-lookup
# a vertex through /query, open a consistent whole-graph snapshot and
# assert its checksum is stable across two reads (the run keeps writing
# underneath — only MVCC makes the two reads agree), and reject a bad op.
# Afterwards the `sg-bench serve` artifact must self-check. What
# write-through costs is `sg-store.commit_ns_per_txn` / `.commit_share` in
# perf/. Offline-safe (loopback only); writes only under target/.
#
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=target/ci-serve-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE"

cargo build -q --release -p sg-bench
CLUSTER=target/release/sg-cluster

source scripts/lib.sh

echo "-- 2-worker thread-mode run with the query plane (vertex-lock, sssp, ring:3000)"
# SSSP from one source on a long ring relaxes distances for ~1500
# supersteps (a couple of seconds of wall) — plenty of live writer for the
# probes below to land mid-run.
launch_run "$SMOKE/run.log" --workers 2 --threads --technique vertex-lock \
    --workload sssp --source 0 --graph ring:3000 --max-supersteps 4000

echo "-- GET /healthz during the run"
scrape "http://$ADDR/healthz" "$SMOKE/healthz.json" \
    || { echo "FAIL: /healthz unreachable"; exit 1; }
grep -q '"status":"ok"' "$SMOKE/healthz.json" \
    || { cat "$SMOKE/healthz.json"; echo "FAIL: /healthz body"; exit 1; }

echo "-- GET /query?op=lookup&v=0 during the run"
scrape "http://$ADDR/query?op=lookup&v=0" "$SMOKE/lookup.json" \
    || { echo "FAIL: lookup unreachable"; exit 1; }
grep -q '"op":"lookup"' "$SMOKE/lookup.json" && grep -q '"vertex":0' "$SMOKE/lookup.json" \
    || { cat "$SMOKE/lookup.json"; echo "FAIL: lookup body"; exit 1; }

echo "-- consistent snapshot: two checksums at one handle must agree mid-run"
scrape "http://$ADDR/query?op=snapshot" "$SMOKE/snap.json" \
    || { echo "FAIL: snapshot open unreachable"; exit 1; }
SNAP=$(sed -n 's/.*"snap":\([0-9]*\).*/\1/p' "$SMOKE/snap.json")
[ -n "$SNAP" ] || { cat "$SMOKE/snap.json"; echo "FAIL: snapshot handle missing"; exit 1; }
scrape "http://$ADDR/query?op=checksum&snap=$SNAP" "$SMOKE/sum1.json" \
    || { echo "FAIL: checksum 1 unreachable"; exit 1; }
# Let the writer commit more versions between the two reads.
sleep 0.1
scrape "http://$ADDR/query?op=checksum&snap=$SNAP" "$SMOKE/sum2.json" \
    || { echo "FAIL: checksum 2 unreachable"; exit 1; }
cmp -s "$SMOKE/sum1.json" "$SMOKE/sum2.json" \
    || { cat "$SMOKE/sum1.json" "$SMOKE/sum2.json"; \
         echo "FAIL: snapshot checksum drifted between reads"; exit 1; }
grep -q '"count":3000' "$SMOKE/sum1.json" \
    || { cat "$SMOKE/sum1.json"; echo "FAIL: checksum must cover all 3000 vertices"; exit 1; }
scrape "http://$ADDR/query?op=close&snap=$SNAP" "$SMOKE/close.json" \
    || { echo "FAIL: snapshot close unreachable"; exit 1; }

echo "-- bad requests are 4xx, not crashes"
if scrape "http://$ADDR/query?op=nope" "$SMOKE/bad.json"; then
    echo "FAIL: op=nope should not return 200"
    exit 1
fi
if [ -n "$HAVE_CURL" ]; then
    CODE=$(curl -s -o /dev/null -w '%{http_code}' --max-time 2 -X POST "http://$ADDR/healthz")
    [ "$CODE" = 405 ] || { echo "FAIL: POST /healthz gave $CODE, want 405"; exit 1; }
    curl -sI --max-time 2 -X POST "http://$ADDR/healthz" | grep -qi '^Allow: GET' \
        || { echo "FAIL: 405 missing Allow: GET header"; exit 1; }
fi

wait "$RUN_PID" || { cat "$SMOKE/run.log"; echo "FAIL: cluster run failed"; exit 1; }
grep -q 'converged=true' "$SMOKE/run.log" || { echo "FAIL: run did not converge"; exit 1; }

echo "-- sg-bench serve tiny run (artifact self-check is in the lane)"
SG_RESULTS_DIR="$SMOKE" target/release/sg-bench serve --verts 400 --rounds 24 --readers 2 \
    --idle-ms 120 >"$SMOKE/servebench.log" \
    || { cat "$SMOKE/servebench.log"; echo "FAIL: sg-bench serve"; exit 1; }
grep -q '"schema_version":2' "$SMOKE/BENCH_serve.json" \
    || { echo "FAIL: BENCH_serve.json missing schema_version 2"; exit 1; }

echo "sg-serve smoke green."
