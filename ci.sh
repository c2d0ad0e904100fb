#!/usr/bin/env bash
# Local CI gate — exactly what .github/workflows/ci.yml runs.
# Everything here is offline-safe: no network, no external crates.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== architecture guards (one implementation of each idea) =="
./scripts/guards.sh

echo "== generator drift fails fast: sg-bench table1 (R-MAT and to_undirected on all four stand-ins) reproduces results/table1.txt, its wrote line aside =="
rm -rf target/ci-table1 && mkdir -p target/ci-table1
SG_RESULTS_DIR=target/ci-table1 cargo run -q -p sg-bench --release --bin sg-bench -- table1 >target/ci-table1/table1.txt
cmp <(grep -v '^wrote ' target/ci-table1/table1.txt) <(grep -v '^wrote ' results/table1.txt)

echo "== tier-1: release build + root test suite =="
cargo build --release
cargo test -q

echo "== tier-1 under load (root test binaries, three rounds beside nproc busy loops; every failing test by name) =="
./scripts/loaded_tier1.sh

echo "== full workspace tests =="
cargo test -q --workspace

echo "== sg-sync with runtime invariant assertions enabled =="
cargo test -q -p sg-sync --features sg-invariants

echo "== sg-serial optimised (the 20,000-degree hub test as the benchmark builds it) =="
cargo test -q -p sg-serial --release

echo "== sg-trace smoke (tiny trace; analyze/diff/check + failure exits) =="
./scripts/trace_smoke.sh

echo "== sg-check smoke (bounded exploration; seeded bug; failure exits) =="
./scripts/check_smoke.sh

echo "== sg-perf smoke (builds perf/ against these crates; every workload once, checked) =="
bash perf/run.sh --smoke

echo "== sg-sim smoke (discrete-event 512-worker lanes; determinism replay; drift check) =="
./scripts/sim_smoke.sh

echo "== sg-net smoke (loopback multi-process cluster; fault recovery) =="
./scripts/net_smoke.sh

echo "== sg-obs smoke (live telemetry scrape; sg-top) =="
./scripts/obs_smoke.sh

echo "== sg-audit smoke (live 1SR verdicts; violation sentinels) =="
./scripts/audit_smoke.sh

echo "== sg-serve smoke (live /query plane; stable snapshot checksums; sg-bench serve) =="
./scripts/serve_smoke.sh

echo "CI green."
