//! Figure 6 — computation times for coloring, PageRank, SSSP, and WCC.
//!
//! For each algorithm × dataset × cluster size, compares the paper's three
//! contenders:
//!
//! * dual-layer **token passing** on the simulated Pregel cluster
//!   (`sg-sim`; Giraph async),
//! * **partition-based distributed locking** on the simulated Pregel
//!   cluster (the paper's proposal),
//! * **vertex-based distributed locking** on the GAS engine
//!   (GraphLab async), on its own virtual clock.
//!
//! The reported metric is the *simulated computation time* (virtual-time
//! makespan); message/fork counters are printed alongside. Expect the
//! paper's shape: partition-based locking fastest across the board, token
//! passing degrading with worker count, vertex-based locking burdened by
//! per-fork traffic and tiny batches.
//!
//! Usage: `sg-bench fig6 [--algo coloring|pagerank|sssp|wcc|all]
//!   [--scale-div N] [--workers16 16] [--workers32 32] [--include-ar]`

use sg_bench::cli::{flag_or, flag_value, has_flag, Flag};
use sg_bench::experiment::{fmt_makespan, run_gas_vertex_lock, run_pregel, Algo};
use sg_bench::{BenchLog, Table};
use sg_core::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let scale_div = flag_or(flags, "scale-div", 16u64)?;
    let w_small = flag_or(flags, "workers16", 16u32)?;
    let w_large = flag_or(flags, "workers32", 32u32)?;
    let algo_arg = flag_value(flags, "algo").unwrap_or("all").to_string();
    let max_supersteps = flag_or(flags, "max-supersteps", 20_000u64)?;
    let max_exec = flag_or(flags, "max-executions", 200_000_000u64)?;

    let mut graphs: Vec<(&str, f64)> = vec![("OR-sim", 0.01), ("TW-sim", 0.1), ("UK-sim", 0.1)];
    if has_flag(flags, "include-ar") {
        graphs.insert(1, ("AR-sim", 0.01));
    }

    let algos: Vec<&str> = if algo_arg == "all" {
        vec!["coloring", "pagerank", "sssp", "wcc"]
    } else if Algo::from_name(&algo_arg, 0.01).is_some() {
        vec![algo_arg.as_str()]
    } else {
        return Err(format!("unknown --algo {algo_arg:?}"));
    };

    println!(
        "Figure 6: computation time (simulated makespan), scale-div={scale_div}, \
         clusters of {w_small} and {w_large} workers\n"
    );

    let mut log = BenchLog::new("fig6", &format!("{algo_arg}/sim-div{scale_div}"));
    for algo_name in algos {
        println!("== Figure 6 ({algo_name}) ==");
        let mut t = Table::new([
            "graph",
            "workers",
            "technique",
            "sim time",
            "iters",
            "remote msgs",
            "batches",
            "forks",
            "converged",
        ]);
        for &(gname, pr_threshold) in &graphs {
            let algo = Algo::from_name(algo_name, pr_threshold).expect("algo");
            let graph = Arc::new(load(gname, scale_div));
            for &workers in &[w_small, w_large] {
                // Giraph async's dual-layer token passing, the paper's
                // partition-based locking, and GraphLab async's
                // vertex-based locking on the GAS engine.
                for (name, slug, technique) in [
                    ("token (dual)", "token-dual", Technique::DualToken),
                    ("partition-lock", "partition-lock", Technique::PartitionLock),
                    (
                        "vertex-lock (GAS)",
                        "vertex-lock-gas",
                        Technique::VertexLock,
                    ),
                ] {
                    let r = if technique == Technique::VertexLock {
                        run_gas_vertex_lock(&graph, algo, workers, 8, max_exec)
                    } else {
                        run_pregel(&graph, algo, technique, workers, 4, max_supersteps)
                    };
                    push_row(&mut t, gname, workers, name, &r);
                    log.cell(
                        &format!("{algo_name}/{gname}/w{workers}/{slug}"),
                        technique.label(),
                        &r,
                    );
                }
            }
        }
        t.print();
        println!();
    }
    Ok(crate::finish(log))
}

fn load(name: &str, scale_div: u64) -> Graph {
    use sg_core::sg_graph::gen::datasets;
    match name {
        "OR-sim" => datasets::or_sim(scale_div),
        "AR-sim" => datasets::ar_sim(scale_div),
        "TW-sim" => datasets::tw_sim(scale_div),
        "UK-sim" => datasets::uk_sim(scale_div),
        other => panic!("unknown graph {other}"),
    }
}

fn push_row(
    t: &mut Table,
    gname: &str,
    workers: u32,
    technique: &str,
    r: &sg_bench::ExperimentResult,
) {
    t.row([
        gname.to_string(),
        workers.to_string(),
        technique.to_string(),
        fmt_makespan(r.makespan_ns),
        r.iterations.to_string(),
        r.metrics.remote_messages.to_string(),
        r.metrics.remote_batches.to_string(),
        r.metrics.fork_transfers.to_string(),
        if r.converged { "yes" } else { "NO" }.to_string(),
    ]);
}
