#!/usr/bin/env bash
# sg-sim smoke: run the discrete-event cluster simulator's full lane set
# (the paper's 16×4 shape, the 512-worker degradation curve, the verified
# dual-token-at-512 run) and gate the three properties PR-10 commits to:
#
#   1. determinism — the bench's seeded replay lane asserts bit-identical
#      digests internally, and this script re-runs the whole bench and
#      diffs the two BENCH artifacts byte-for-byte (virtual time + default
#      cost model ⇒ nothing may drift, not even across machines);
#   2. the fig1 technique ordering at the paper shape (asserted inside
#      sg-bench sim; its absence from the log fails the smoke);
#   3. no drift from the committed results/BENCH_sim.json baseline: the
#      fresh artifact, normalised as in 1, must equal the normalised
#      baseline byte for byte, and its relational speedup cells must pass
#      sg-trace check (bench-vs-bench, tight tolerance).
#
# Offline-safe; writes only under target/ (SG_RESULTS_DIR redirects the
# artifacts away from the tracked results/ directory).
#
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=target/ci-sim-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE/a" "$SMOKE/b"

echo "-- sg-bench sim (all lanes, default CI-budget sizes)"
SG_RESULTS_DIR="$SMOKE/a" cargo run -q -p sg-bench --release --bin sg-bench -- sim \
    >"$SMOKE/simbench.log"

ART="$SMOKE/a/BENCH_sim.json"
[ -f "$ART" ] || { echo "FAIL: $ART not written"; exit 1; }

echo "-- artifact sanity (schema_version 2, expected cells present)"
grep -q '"schema_version": *2' "$ART" || { echo "FAIL: schema_version 2 missing"; exit 1; }
for cell in 'fig1/single-token' 'fig1/ordering' 'fig6/coloring/token (dual)' \
    'scale/512/partition-lock' 'dual512/coloring' 'determinism/replay' \
    'speedup/512/dual-token' 'calibrate/fit'; do
    grep -qF "\"$cell\"" "$ART" || { echo "FAIL: cell $cell missing"; exit 1; }
done

echo "-- fig1 ordering held at the paper shape"
grep -q 'fig1 ordering holds' "$SMOKE/simbench.log" \
    || { echo "FAIL: fig1 ordering line missing"; exit 1; }

echo "-- 512-worker run verified 1SR with critical-path attribution"
grep -q 'history 1SR' "$SMOKE/simbench.log" \
    || { echo "FAIL: 512-worker 1SR verdict missing"; exit 1; }
grep -q 'critical path:' "$SMOKE/simbench.log" \
    || { echo "FAIL: critical-path attribution missing"; exit 1; }

echo "-- determinism replay: re-run the whole bench; artifacts must be byte-identical"
SG_RESULTS_DIR="$SMOKE/b" cargo run -q -p sg-bench --release --bin sg-bench -- sim \
    >/dev/null
# Virtual-time cells are exact. Only wall_us varies between runs — plus
# the calibrate/fit cell, which fits from a *real* multi-threaded engine
# run and is legitimately schedule-dependent; both are stripped.
normalize() {
    sed 's/"wall_us":[0-9]*//g; s/{"label":"calibrate\/fit".*//' "$1"
}
for f in a b; do
    normalize "$SMOKE/$f/BENCH_sim.json" >"$SMOKE/$f.normalized"
done
cmp -s "$SMOKE/a.normalized" "$SMOKE/b.normalized" \
    || { echo "FAIL: two sg-bench sim runs produced different virtual-time artifacts"; exit 1; }

echo "-- simulated trace analyzes through sg-trace (512-worker attribution)"
TRACE="$SMOKE/a/TRACE_sim_dual512.json"
[ -f "$TRACE" ] || { echo "FAIL: $TRACE not written"; exit 1; }
cargo run -q -p sg-bench --release --bin sg-trace -- analyze "$TRACE" \
    >"$SMOKE/analyze.log"
grep -q 'critical path:' "$SMOKE/analyze.log" \
    || { echo "FAIL: sg-trace analyze produced no attribution"; exit 1; }

echo "-- drift gate against the committed baseline: byte for byte, then bench-vs-bench check"
normalize results/BENCH_sim.json >"$SMOKE/baseline.normalized"
cmp -s "$SMOKE/a.normalized" "$SMOKE/baseline.normalized" \
    || { echo "FAIL: sg-bench sim drifted from results/BENCH_sim.json"; exit 1; }
cargo run -q -p sg-bench --release --bin sg-trace -- \
    check "$ART" --against results/BENCH_sim.json --tolerance 2

echo "sg-sim smoke green."
