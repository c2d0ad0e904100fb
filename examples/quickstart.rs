//! Quickstart: color a graph serializably in a few lines.
//!
//! Run with: `cargo run --release --example quickstart`

use serigraph::prelude::*;

fn main() {
    // A power-law "social" graph, symmetrized for coloring.
    let graph = gen::preferential_attachment(1_000, 4, 7);
    println!(
        "graph: {} vertices, {} undirected edges, max degree {}",
        graph.num_vertices(),
        graph.num_undirected_edges(),
        graph.max_degree()
    );

    // Serializable execution via the paper's partition-based distributed
    // locking: the greedy coloring algorithm needs no changes. The run is
    // simulated, so its computation time is the cluster's virtual time.
    let outcome = Runner::new(graph.clone())
        .workers(4)
        .technique(Technique::PartitionLock)
        .simulated(SimOptions::default())
        .run_coloring()
        .expect("valid configuration");

    assert!(outcome.converged);
    let palette: std::collections::BTreeSet<u32> = outcome.values.iter().copied().collect();
    let conflicts = serigraph::sg_algos::validate::coloring_conflicts(&graph, &outcome.values);
    println!(
        "colored in {} supersteps with {} colors, {} conflicts (must be 0)",
        outcome.supersteps,
        palette.len(),
        conflicts
    );
    println!(
        "simulated computation time: {:.2}ms; messages: {} local / {} remote in {} batches",
        outcome.makespan_ns as f64 / 1e6,
        outcome.metrics.local_messages,
        outcome.metrics.remote_messages,
        outcome.metrics.remote_batches
    );
    assert_eq!(conflicts, 0);

    // The same run WITHOUT serializability produces conflicting colors.
    let broken = Runner::new(graph.clone())
        .workers(4)
        .technique(Technique::None)
        .model(Model::Bsp)
        .run_coloring()
        .expect("valid configuration");
    println!(
        "without serializability (BSP): {} conflicts",
        serigraph::sg_algos::validate::coloring_conflicts(&graph, &broken.values)
    );
}
