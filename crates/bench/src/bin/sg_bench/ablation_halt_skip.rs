//! Halted-partition skip ablation (DESIGN.md §4).
//!
//! Section 5.4's optimization: "we can avoid unnecessary fork acquisitions
//! by skipping the partitions for which all vertices are halted and have
//! no more messages". SSSP is the showcase — most partitions go quiet as
//! the frontier moves on ("workers may dynamically halt or become active",
//! Section 5.2). Compares partition-based locking with and without the
//! skip.
//!
//! Usage: `sg-bench ablation-halt-skip [--scale-div N] [--workers 8]`

use crate::OrSim;
use sg_bench::cli::Flag;
use sg_bench::experiment::fmt_makespan;
use sg_bench::Table;
use sg_core::prelude::*;
use sg_core::Runner;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let OrSim {
        workers,
        graph,
        mut log,
        ..
    } = OrSim::new(flags, "ablation_halt_skip", "sssp", 8)?;

    println!("Halted-partition skip ablation: SSSP on OR-sim, {workers} workers\n");
    let mut t = Table::new([
        "variant",
        "sim time",
        "supersteps",
        "forks",
        "request tokens",
        "skips",
    ]);
    for (name, technique) in [
        ("partition-lock (with skip)", Technique::PartitionLock),
        ("partition-lock (no skip)", Technique::PartitionLockNoSkip),
    ] {
        let out = Runner::from_arc(Arc::clone(&graph))
            .workers(workers)
            .technique(technique)
            .max_supersteps(50_000)
            .simulated(SimOptions::default())
            .run_sssp(VertexId::new(0))
            .expect("config");
        assert!(out.converged);
        t.row([
            name.to_string(),
            fmt_makespan(out.makespan_ns),
            out.supersteps.to_string(),
            out.metrics.fork_transfers.to_string(),
            out.metrics.request_tokens.to_string(),
            out.metrics.halted_skips.to_string(),
        ]);
        log.outcome_cell(name, technique.label(), &out);
    }
    t.print();
    println!("\nExpected: the skip variant trades fork traffic for `skips` and finishes sooner.");
    Ok(crate::finish(log))
}
