#!/usr/bin/env bash
# Tier-1 under load: the root package's test binaries, run three rounds,
# each round beside one busy loop per CPU (`nproc` of them, never more).
# A verdict that leans on scheduling — a spawned thread nothing waits
# for, an "at least one" assert, a wall-time bound — fails here rather
# than now and then on a busy runner.
#
#   scripts/loaded_tier1.sh
#
# Every failing test is reported as `FAIL round <r>: <binary>::<test>`;
# the exit status is 1 if any failed. Writes only under target/.
#
# Called by ci.sh and .github/workflows/ci.yml after the tier-1 step.
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/ci-loaded
rm -rf "$out" && mkdir -p "$out"

# The root package's test binaries, built as `cargo test` builds them
# (test-profile artifacts only: the examples it builds are not run).
mapfile -t bins < <(cargo test -q --no-run --message-format=json 2>/dev/null |
    grep '"profile":{[^}]*"test":true' | grep -o '"executable":"[^"]*"' | cut -d'"' -f4)
[ "${#bins[@]}" -gt 0 ] || { echo "FAIL: no test binaries built"; exit 1; }

loops=()
stop_load() {
    if [ "${#loops[@]}" -gt 0 ]; then
        kill "${loops[@]}" 2>/dev/null || true
        wait "${loops[@]}" 2>/dev/null || true
        loops=()
    fi
}
trap stop_load EXIT
for _ in $(seq "$(nproc)"); do
    (while :; do :; done) &
    loops+=($!)
done
echo "-- ${#bins[@]} test binaries, 3 rounds, beside ${#loops[@]} busy loops"

failed=0
for round in 1 2 3; do
    for bin in "${bins[@]}"; do
        name=$(basename "$bin")
        name=${name%-*} # cargo's hash suffix
        log="$out/$round-$name.log"
        if ! "$bin" >"$log" 2>&1; then
            failed=1
            # libtest prints one `test <name> ... FAILED` line per failure.
            if ! grep -E '^test .* \.\.\. FAILED$' "$log" |
                sed -E "s/^test (.*) \.\.\. FAILED$/FAIL round $round: $name::\1/"; then
                echo "FAIL round $round: $name exited nonzero with no failed test (see $log)"
            fi
        fi
    done
    echo "-- round $round done"
done
stop_load

if [ "$failed" -ne 0 ]; then
    echo "tier-1 under load: FAILED"
    exit 1
fi
echo "tier-1 under load green."
