#!/usr/bin/env bash
# sg-check end-to-end smoke: bounded exploration on every serializable
# technique must come back clean, the seeded broken-ring bug must be
# found by every strategy and reproduced by replay, and the failure exits
# must stay failures — typed, never a panic. Offline-safe;
# writes only under target/.
#
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo build --release` builds only the root package; the binaries
# called below by path are sg-bench's.
cargo build -q --release -p sg-bench

SMOKE=target/ci-check-smoke
SG_CHECK=target/release/sg-check
SG_TRACE=target/release/sg-trace
rm -rf "$SMOKE"
mkdir -p "$SMOKE"

echo "-- clean exploration: every serializable technique x bounded budget must exit 0"
for technique in single-token dual-token vertex-lock partition-lock \
    partition-lock/noskip bsp-vertex-lock; do
    "$SG_CHECK" explore --technique "$technique" --strategy adversary \
        --episodes 8 >/dev/null
    "$SG_CHECK" explore --technique "$technique" --strategy random \
        --episodes 8 >/dev/null
done
"$SG_CHECK" explore --technique partition-lock --strategy dfs \
    --episodes 32 >/dev/null

echo "-- seeded broken ring: every strategy must find it (exit 3)"
for strategy in random dfs adversary; do
    rc=0
    "$SG_CHECK" explore --technique single-token --strategy "$strategy" \
        --broken-ring 0 --supersteps 2 \
        --out "$SMOKE/ce-$strategy.json" >/dev/null || rc=$?
    [ "$rc" -eq 3 ] || { echo "FAIL: $strategy exited $rc, want 3"; exit 1; }
done

echo "-- replay must reproduce the violation (exit 3) and trace for sg-trace"
rc=0
"$SG_CHECK" replay "$SMOKE/ce-dfs.json" \
    --trace "$SMOKE/replay.trace.json" >/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: replay exited $rc, want 3"; exit 1; }
"$SG_TRACE" analyze "$SMOKE/replay.trace.json" >/dev/null

echo "-- negative: malformed counterexample must exit 2, not crash"
printf '{"schema_version":99}' >"$SMOKE/bad.json"
rc=0
"$SG_CHECK" replay "$SMOKE/bad.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: malformed counterexample exited $rc, want 2"; exit 1; }
{ printf '[%.0s' $(seq 1 5000); printf ']%.0s' $(seq 1 5000); } >"$SMOKE/deep.json"
rc=0
"$SG_CHECK" replay "$SMOKE/deep.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: deeply nested json exited $rc, want 2"; exit 1; }

echo "-- negative: a degenerate graph in a counterexample file must exit 2, not crash"
sed 's/"graph":"ring:8"/"graph":"ring:0"/' "$SMOKE/ce-dfs.json" >"$SMOKE/ring0.json"
grep -q '"graph":"ring:0"' "$SMOKE/ring0.json"
rc=0
"$SG_CHECK" replay "$SMOKE/ring0.json" >/dev/null 2>"$SMOKE/ring0.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: ring:0 counterexample exited $rc, want 2"; exit 1; }
grep -q 'at least 3 vertices' "$SMOKE/ring0.err" \
    || { echo "FAIL: ring:0 diagnostic does not name the bound"; exit 1; }

echo "-- negative: usage errors must exit 1"
for spec in ring:0 ring:2 grid:0x3 complete:0 ring:4294967299; do
    rc=0
    "$SG_CHECK" explore --technique single-token --graph "$spec" \
        >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || { echo "FAIL: --graph $spec exited $rc, want 1"; exit 1; }
done
rc=0
"$SG_CHECK" explore --technique single-token --workers 4294967298 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: --workers 4294967298 exited $rc, want 1"; exit 1; }
rc=0
"$SG_CHECK" explore >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: missing --technique exited $rc, want 1"; exit 1; }
rc=0
"$SG_CHECK" frobnicate >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: bad subcommand exited $rc, want 1"; exit 1; }

echo "sg-check smoke green."
