#!/usr/bin/env bash
# sg-trace end-to-end smoke: generate a tiny instrumented trace, run every
# subcommand against it, and verify the failure exits stay failures.
# Offline-safe; writes only under target/ (SG_RESULTS_DIR redirects the
# bench artifacts away from the tracked results/ directory).
#
# Called by ci.sh and .github/workflows/ci.yml after the release build.
set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo build --release` builds only the root package; the binaries
# called below by path are sg-bench's.
cargo build -q --release -p sg-bench

SMOKE=target/ci-smoke
SG_TRACE=target/release/sg-trace
rm -rf "$SMOKE"
mkdir -p "$SMOKE"

echo "-- generating tiny traced sg-bench fig1 run (scale-div 256, 4 workers)"
SG_RESULTS_DIR="$SMOKE" cargo run -q -p sg-bench --release --bin sg-bench -- \
    fig1 --scale-div 256 --workers 4 --trace >"$SMOKE/fig1.log"

echo "-- analyze (text + json)"
"$SG_TRACE" analyze "$SMOKE/TRACE_fig1_spectrum.json" --top-k 3 >/dev/null
"$SG_TRACE" analyze "$SMOKE/TRACE_fig1_spectrum_single-token.json" --json >/dev/null

echo "-- diff (two spectrum points; self-diff must be clean)"
"$SG_TRACE" diff "$SMOKE/TRACE_fig1_spectrum_single-token.json" \
    "$SMOKE/TRACE_fig1_spectrum_partition-lock.json" >/dev/null
"$SG_TRACE" diff "$SMOKE/TRACE_fig1_spectrum.json" \
    "$SMOKE/TRACE_fig1_spectrum.json" >/dev/null

echo "-- check against the bench json the same run wrote"
"$SG_TRACE" check "$SMOKE/TRACE_fig1_spectrum.json" \
    --against "$SMOKE/BENCH_fig1_spectrum.json" --tolerance 5 >/dev/null

echo "-- negative: malformed trace must exit 2"
printf '{"traceEvents":[{"name":"not_a_kind","ph":"X","ts":0,"dur":1,"tid":0,"args":{}}]}' \
    >"$SMOKE/bad.json"
rc=0
"$SG_TRACE" analyze "$SMOKE/bad.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: malformed trace exited $rc, want 2"; exit 1; }

echo "-- negative: usage error must exit 1"
rc=0
"$SG_TRACE" frobnicate >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: bad subcommand exited $rc, want 1"; exit 1; }

echo "-- negative: sg-bench with no lane or an unknown lane lists all eleven, exits 1"
lane_usage() { # lane_usage [LANE]
    rc=0
    target/release/sg-bench "$@" >/dev/null 2>"$SMOKE/lanes.err" || rc=$?
    [ "$rc" -eq 1 ] || { echo "FAIL: sg-bench $* exited $rc, want 1"; exit 1; }
    for name in table1 fig1 fig2-3 fig6 giraphx ablation-batching ablation-halt-skip \
        ablation-partitioning extensions sim serve; do
        grep -q "^    $name " "$SMOKE/lanes.err" \
            || { echo "FAIL: sg-bench $* did not list lane $name"; exit 1; }
    done
}
lane_usage
lane_usage frobnicate

echo "-- negative: out-of-tolerance check must exit 3"
# The single-token trace vs. the partition-lock cell: makespans differ by
# orders of magnitude, so any tight tolerance must fail.
rc=0
"$SG_TRACE" check "$SMOKE/TRACE_fig1_spectrum_single-token.json" \
    --against "$SMOKE/BENCH_fig1_spectrum.json" \
    --cell "partition-lock (traced)" --tolerance 0.001 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: tolerance breach exited $rc, want 3"; exit 1; }

echo "sg-trace smoke green."
