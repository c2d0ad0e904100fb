//! Extension benchmarks: the serializable execution regimes beyond the
//! paper's evaluation (see DESIGN.md):
//!
//! * **Proposition 1** — constrained vertex-based locking on BSP
//!   (sub-superstep execution, implemented though the paper declined to);
//! * **barrierless AP** (reference [20]) — partition-based locking with
//!   per-worker logical supersteps and no global barriers.
//!
//! Compares both against the paper's serializable AP configurations on
//! graph coloring and SSSP, on the simulator — but for the barrierless row,
//! which `sg-sim` cannot host: its counters come from the thread engine.
//!
//! Usage: `sg-bench extensions [--scale-div N] [--workers 8]`

use crate::OrSim;
use sg_bench::cli::Flag;
use sg_bench::experiment::fmt_makespan;
use sg_bench::Table;
use sg_core::prelude::*;
use sg_core::sg_algos::validate;
use sg_core::Runner;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let OrSim {
        workers,
        graph,
        mut log,
        ..
    } = OrSim::new(flags, "extensions", "coloring+sssp", 8)?;
    let graph = Arc::new(graph.to_undirected());
    println!(
        "Serializable execution regimes: coloring + SSSP on OR-sim undirected \
         ({} vertices / {} edges), {workers} workers\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let sim = SimOptions::default();
    let configure = |r: Runner, regime: &str| match regime {
        "AP + partition-lock" => r.technique(Technique::PartitionLock).simulated(sim),
        "AP + vertex-lock" => r.technique(Technique::VertexLock).simulated(sim),
        "barrierless + partition-lock" => r.technique(Technique::PartitionLock).barrierless(true),
        "BSP + Prop.1 vertex-lock" => r
            .model(Model::Bsp)
            .technique(Technique::BspVertexLock)
            .simulated(sim),
        other => panic!("unknown regime {other}"),
    };
    let sim_time = |regime: &str, makespan_ns: u64| match regime {
        "barrierless + partition-lock" => "n/a (not simulated)".to_string(),
        _ => fmt_makespan(makespan_ns),
    };
    let regimes = [
        "AP + partition-lock",
        "AP + vertex-lock",
        "barrierless + partition-lock",
        "BSP + Prop.1 vertex-lock",
    ];
    let regime_technique = |regime: &str| match regime {
        "AP + partition-lock" | "barrierless + partition-lock" => Technique::PartitionLock.label(),
        "AP + vertex-lock" => Technique::VertexLock.label(),
        "BSP + Prop.1 vertex-lock" => Technique::BspVertexLock.label(),
        other => panic!("unknown regime {other}"),
    };

    println!("== graph coloring ==");
    let mut t = Table::new([
        "regime",
        "sim time",
        "supersteps",
        "barriers",
        "forks",
        "conflicts",
    ]);
    for regime in regimes {
        let runner = configure(
            Runner::from_arc(Arc::clone(&graph))
                .workers(workers)
                .max_supersteps(100_000),
            regime,
        );
        let out = runner.run_coloring().expect("config");
        assert!(out.converged, "{regime}");
        t.row([
            regime.to_string(),
            sim_time(regime, out.makespan_ns),
            out.supersteps.to_string(),
            out.metrics.barriers.to_string(),
            out.metrics.fork_transfers.to_string(),
            validate::coloring_conflicts(&graph, &out.values).to_string(),
        ]);
        log.outcome_cell(
            &format!("coloring/{regime}"),
            regime_technique(regime),
            &out,
        );
    }
    t.print();

    println!("\n== SSSP ==");
    let mut t = Table::new([
        "regime",
        "sim time",
        "supersteps",
        "barriers",
        "forks",
        "max dist",
    ]);
    for regime in regimes {
        let runner = configure(
            Runner::from_arc(Arc::clone(&graph))
                .workers(workers)
                .max_supersteps(100_000),
            regime,
        );
        let out = runner.run_sssp(VertexId::new(0)).expect("config");
        assert!(out.converged, "{regime}");
        let max_dist = out
            .values
            .iter()
            .filter(|&&d| d != u64::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        t.row([
            regime.to_string(),
            sim_time(regime, out.makespan_ns),
            out.supersteps.to_string(),
            out.metrics.barriers.to_string(),
            out.metrics.fork_transfers.to_string(),
            max_dist.to_string(),
        ]);
        log.outcome_cell(&format!("sssp/{regime}"), regime_technique(regime), &out);
    }
    t.print();
    println!(
        "\nExpected: barrierless runs with 0 barriers where AP + partition-lock pays one\n\
         per superstep; Proposition 1 pays heavily in sub-supersteps — the reason\n\
         the paper declined to implement it (Section 6)."
    );
    Ok(crate::finish(log))
}
