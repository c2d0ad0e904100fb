#!/usr/bin/env bash
# Build sg-perf from source and run it; see perf/README.md.
#
#   perf/run.sh                         untraced set, then the traced pass
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   perf/run.sh --aa [--seed <n>]       A/A gate over two untraced sets
#   perf/run.sh --smoke                 scale-10 graphs, ~1 s per workload
#   perf/run.sh --print-benchmark-json  the contents of BENCHMARK.json
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for this script alike, so nothing here changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"
export SG_PERF_OUT="${SG_PERF_OUT:-$here/out}"

# Up to date in a fraction of a second; a cold build takes about 30 s.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/sg-perf" "$@"
