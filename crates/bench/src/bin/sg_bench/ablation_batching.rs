//! Batching ablation (DESIGN.md §4).
//!
//! Section 5.4 credits much of partition-based locking's win to message
//! batching: "partition-based locking enables messages of an entire
//! partition of vertices to be batched". This ablation disables the
//! buffer cache (capacity 1 = every remote message is its own batch) and
//! shows the simulated time collapse towards vertex-grain behavior.
//!
//! Usage: `sg-bench ablation-batching [--scale-div N] [--workers 8]`

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
    } = OrSim::new(flags, "ablation_batching", "pagerank", 8)?;

    println!(
        "Batching ablation: PageRank(0.01) on OR-sim, {workers} workers, partition-based locking\n"
    );
    let mut t = Table::new([
        "buffer cap",
        "sim time",
        "batches",
        "avg batch",
        "remote msgs",
    ]);
    for cap in [1usize, 8, 64, 512, 4096, usize::MAX] {
        let out = Runner::from_arc(Arc::clone(&graph))
            .workers(workers)
            .technique(Technique::PartitionLock)
            .buffer_cap(cap)
            .max_supersteps(50_000)
            .simulated(SimOptions::default())
            .run_pagerank(0.01)
            .expect("config");
        let label = if cap == usize::MAX {
            "unbounded".to_string()
        } else {
            cap.to_string()
        };
        t.row([
            label.clone(),
            fmt_makespan(out.makespan_ns),
            out.metrics.remote_batches.to_string(),
            format!("{:.1}", out.metrics.avg_batch_size()),
            out.metrics.remote_messages.to_string(),
        ]);
        log.outcome_cell(
            &format!("cap/{label}"),
            Technique::PartitionLock.label(),
            &out,
        );
    }
    t.print();
    println!(
        "\nExpected: cap 1 ≈ vertex-based locking's tiny batches; large caps amortize latency."
    );
    Ok(crate::finish(log))
}
