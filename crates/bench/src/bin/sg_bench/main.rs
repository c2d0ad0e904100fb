//! `sg-bench <lane> [flags]` — the paper's tables and figures plus the
//! simulator and serving lanes, one module per lane.
//!
//! Every lane prints plain-text tables, records its cells in
//! `results/BENCH_<name>.json` (`SG_RESULTS_DIR` redirects), and keeps the
//! flags its module documents. End-to-end wall-clock measurement of the
//! engine itself is `perf/`'s job (see `BENCHMARK.json`), not this
//! binary's.

mod ablation_batching;
mod ablation_halt_skip;
mod ablation_partitioning;
mod extensions;
mod fig1;
mod fig2_3;
mod fig6;
mod giraphx;
mod serve;
mod sim;
mod table1;

use sg_bench::cli::{flag_or, split_args, Flag};
use sg_bench::BenchLog;
use sg_core::sg_graph::gen::datasets;
use sg_core::sg_graph::Graph;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "sg-bench <lane> [flags]

LANES:
    table1                 Table 1: dataset statistics
    fig1                   Figure 1: technique spectrum + partition-count sweep [--trace]
    fig2-3                 Figures 2 and 3: BSP/AP coloring failures
    fig6                   Figure 6: computation time per algorithm x technique
    giraphx                Section 7.3: system- vs user-level techniques
    ablation-batching      buffer-cap ablation (Section 5.4)
    ablation-halt-skip     halted-partition skip ablation (Section 5.4)
    ablation-partitioning  hash vs LDG partitioning ablation
    extensions             Proposition 1 and barrierless regimes
    sim                    sg-sim lanes: 64/512-worker curves, replay, calibration
    serve                  live serving throughput under each technique

Dataset lanes take --scale-div N (default 16; larger = smaller graphs) and
--workers N; each lane's module doc lists the rest. Artifacts go to
results/ or $SG_RESULTS_DIR.";

/// Every flag a lane reads a value from; `--trace` takes an optional path.
const VALUE_FLAGS: &[&str] = &[
    "scale-div",
    "workers",
    "workers16",
    "workers32",
    "algo",
    "max-supersteps",
    "max-executions",
    "verts",
    "rounds",
    "readers",
    "idle-ms",
    "trace?",
];

/// A lane: reads its flags (an unparsable value is `Err`, before any
/// work), runs, and says how it went.
type Lane = fn(&[Flag]) -> Result<ExitCode, String>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let lane = argv.first().map_or("", String::as_str);
    let run: Lane = match lane {
        "table1" => table1::run,
        "fig1" => fig1::run,
        "fig2-3" => fig2_3::run,
        "fig6" => fig6::run,
        "giraphx" => giraphx::run,
        "ablation-batching" => ablation_batching::run,
        "ablation-halt-skip" => ablation_halt_skip::run,
        "ablation-partitioning" => ablation_partitioning::run,
        "extensions" => extensions::run,
        "sim" => sim::run,
        "serve" => serve::run,
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("sg-bench: no lane `{other}`\n\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    let ran = split_args(&argv[1..], VALUE_FLAGS).and_then(|(positional, flags)| {
        if let Some(extra) = positional.first() {
            return Err(format!("unexpected argument {extra:?}"));
        }
        run(&flags)
    });
    ran.unwrap_or_else(|e| {
        eprintln!("sg-bench {lane}: {e}\n\n{USAGE}");
        ExitCode::from(1)
    })
}

/// What the six OR-sim lanes set up before their first table: the
/// `--scale-div`/`--workers` flags, the dataset, and a [`BenchLog`] whose
/// workload string names all three.
struct OrSim {
    scale_div: u64,
    workers: u32,
    graph: Arc<Graph>,
    workload: String,
    log: BenchLog,
}

impl OrSim {
    /// `bench` names the artifact, `algo` leads the workload string.
    fn new(flags: &[Flag], bench: &str, algo: &str, default_workers: u32) -> Result<Self, String> {
        let scale_div = flag_or(flags, "scale-div", 16u64)?;
        let workers = flag_or(flags, "workers", default_workers)?;
        let workload = format!("{algo}/or_sim-div{scale_div}/w{workers}");
        Ok(Self {
            scale_div,
            workers,
            graph: Arc::new(datasets::or_sim(scale_div)),
            log: BenchLog::new(bench, &workload),
            workload,
        })
    }
}

/// Every lane's last step: write `BENCH_<name>.json`, say where it went.
/// An artifact that cannot be written fails the lane (exit 2).
fn finish(log: BenchLog) -> ExitCode {
    match log.write() {
        Ok(path) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write BENCH json: {e}");
            ExitCode::from(2)
        }
    }
}
