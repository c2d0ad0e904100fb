//! Serializability without barriers: partition-based locking keeps
//! enforcing conditions C1/C2 even when workers run free-running logical
//! supersteps (the execution regime of the paper's reference [20]),
//! because the write-all flush rides on fork handovers rather than global
//! barriers. Barrierless execution runs on the in-process engine only, so
//! both times printed are wall time.
//!
//! Run with: `cargo run --release --example barrierless_coloring`

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

fn main() {
    let graph = gen::watts_strogatz(2_000, 8, 0.1, 11);
    println!(
        "small-world graph: {} vertices / {} undirected edges\n",
        graph.num_vertices(),
        graph.num_undirected_edges()
    );

    let barriered = Runner::new(graph.clone())
        .workers(6)
        .technique(Technique::PartitionLock)
        .run_coloring()
        .expect("valid configuration");
    let barrierless = Runner::new(graph.clone())
        .workers(6)
        .technique(Technique::PartitionLock)
        .barrierless(true)
        .run_coloring()
        .expect("valid configuration");

    for (name, out) in [("barriered", &barriered), ("barrierless", &barrierless)] {
        assert!(out.converged);
        let conflicts = validate::coloring_conflicts(&graph, &out.values);
        println!(
            "{name:<12} colors={:<3} conflicts={conflicts} barriers={:<3} wall {:.2}ms",
            validate::num_colors(&out.values),
            out.metrics.barriers,
            out.makespan_ns as f64 / 1e6
        );
        assert_eq!(conflicts, 0, "{name} must stay serializable");
    }
    assert_eq!(barrierless.metrics.barriers, 0);
    println!("\nboth runs are proper colorings; the barrierless one crossed no barrier");
}
