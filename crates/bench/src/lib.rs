//! # sg-bench — the experiment harness
//!
//! Shared machinery for the `sg-bench <lane>` binary, whose lanes
//! regenerate the paper's tables and figures (see `DESIGN.md` for the
//! experiment index), and for the `sg-trace`, `sg-check` and `sg-cluster`
//! CLIs:
//!
//! | Lane | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 (datasets) |
//! | `fig2-3` | Figures 2 and 3 (BSP/AP coloring failures) |
//! | `fig6` | Figures 6a–6d (computation times per algorithm) |
//! | `fig1` | Figure 1 (parallelism/communication spectrum) |
//! | `giraphx` | Section 7.3 (system- vs user-level techniques) |
//! | `ablation-batching` | batching ablation (DESIGN.md §4) |
//! | `ablation-halt-skip` | halted-partition-skip ablation (DESIGN.md §4) |
//! | `ablation-partitioning` | hash vs LDG partitioning (DESIGN.md §4) |
//! | `extensions` | Proposition 1 and barrierless regimes |
//! | `sim` | the above at 64–512 workers on `sg-sim` (`BENCH_sim.json`) |
//! | `serve` | live serving throughput (`BENCH_serve.json`) |
//!
//! Every lane prints plain-text tables (the dataset lanes accept
//! `--scale-div N` to shrink the synthetic datasets; the EXPERIMENTS.md
//! runs use the defaults). Wall-clock performance of the engine itself is
//! measured end to end by `perf/` (`BENCHMARK.json`), not here.

pub mod cli;
pub mod experiment;
pub mod report;
pub mod sgcheck;
pub mod sgtrace;
pub mod table;

pub use experiment::{run_gas_vertex_lock, run_pregel, run_pregel_obs, Algo, ExperimentResult};
pub use report::{emit_obs, BenchLog, BENCH_SCHEMA_VERSION};
pub use table::Table;
