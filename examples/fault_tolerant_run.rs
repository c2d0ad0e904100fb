//! Section 6.4 fault tolerance in action: run WCC with periodic barrier
//! checkpoints, kill a "machine" mid-run, and watch the cluster roll back
//! and finish with the exact same answer. Checkpointing runs on the
//! in-process engine only, so both times printed are wall time.
//!
//! Run with: `cargo run --release --example fault_tolerant_run`

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

fn main() {
    let graph = gen::datasets::or_sim(64).to_undirected();
    println!(
        "graph: {} vertices / {} edges; WCC with partition-based locking\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let clean = Runner::new(graph.clone())
        .workers(4)
        .technique(Technique::PartitionLock)
        .run_wcc()
        .expect("valid configuration");
    println!(
        "clean run:    {} supersteps, wall {:.2}ms",
        clean.supersteps,
        clean.makespan_ns as f64 / 1e6
    );

    let failed = Runner::new(graph.clone())
        .workers(4)
        .technique(Technique::PartitionLock)
        .checkpoint_every(2)
        .fail_at_superstep(3)
        .run_wcc()
        .expect("valid configuration");
    println!(
        "failure run:  {} supersteps ({} checkpoint(s), {} recovery), wall {:.2}ms",
        failed.supersteps,
        failed.metrics.checkpoints,
        failed.metrics.recoveries,
        failed.makespan_ns as f64 / 1e6
    );

    assert!(clean.converged && failed.converged);
    assert_eq!(clean.values, failed.values, "recovery must be exact");
    assert_eq!(failed.values, validate::wcc_reference(&graph));
    assert!(failed.supersteps > clean.supersteps);
    println!(
        "\nidentical components after recovery; redone supersteps: {}",
        failed.supersteps - clean.supersteps
    );
}
