//! Writing your own vertex program: label propagation community detection.
//!
//! Demonstrates the full `VertexProgram` surface — aggregators, the master
//! halt hook, combin-able messages, and transparent serializable execution
//! (label propagation is another algorithm whose quality degrades under
//! stale reads; with a serializable technique each vertex always sees its
//! neighbors' current labels).
//!
//! Run with: `cargo run --release --example custom_algorithm`

use serigraph::prelude::*;
use serigraph::sg_engine::aggregators::{AggOp, AggregatorSet, AggregatorView};

/// Synchronous-style label propagation: adopt the most frequent label
/// among your neighbors; stop when fewer than 0.5% of vertices changed.
struct LabelPropagation;

impl VertexProgram for LabelPropagation {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v.raw()
    }

    fn register_aggregators(&self, aggs: &mut AggregatorSet) {
        aggs.register("changed", AggOp::Sum);
        aggs.register("total", AggOp::Sum);
    }

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u32]) {
        ctx.aggregate("total", 1.0);
        let new_label = if ctx.superstep() == 0 {
            *ctx.value()
        } else {
            // Most frequent incoming label; ties to the smallest.
            let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
            for &l in messages {
                *counts.entry(l).or_default() += 1;
            }
            counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(l, _)| l)
                .unwrap_or(*ctx.value())
        };
        if new_label != *ctx.value() || ctx.superstep() == 0 {
            if new_label != *ctx.value() {
                ctx.aggregate("changed", 1.0);
            }
            ctx.set_value(new_label);
            ctx.send_to_all(new_label);
        } else {
            // Keep neighbors informed so late joiners see our label.
            ctx.send_to_all(new_label);
        }
        // Never vote: termination is decided by the master hook below.
    }

    fn master_halt(&self, superstep: u64, aggregates: &AggregatorView) -> bool {
        let total = aggregates.get("total").max(1.0);
        superstep >= 2 && aggregates.get("changed") / total < 0.005
    }
}

fn main() {
    // Two dense communities joined by one bridge edge.
    let mut b = GraphBuilder::new();
    b.symmetric(true);
    for i in 0..30u32 {
        for j in (i + 1)..30 {
            if (i + j) % 3 == 0 {
                b.add_edge(i, j); // community A
            }
        }
    }
    for i in 30..60u32 {
        for j in (i + 1)..60 {
            if (i + j) % 3 == 0 {
                b.add_edge(i, j); // community B
            }
        }
    }
    b.add_edge(29, 30); // the bridge
    let graph = b.build();

    let out = Runner::new(graph)
        .workers(4)
        .technique(Technique::PartitionLock)
        .max_supersteps(200)
        .simulated(SimOptions::default())
        .run_program(LabelPropagation)
        .expect("valid configuration");

    assert!(out.converged);
    let labels_a: std::collections::BTreeSet<u32> = out.values[..30].iter().copied().collect();
    let labels_b: std::collections::BTreeSet<u32> = out.values[30..].iter().copied().collect();
    println!(
        "label propagation finished in {} supersteps; community A labels {:?}, community B labels {:?}",
        out.supersteps, labels_a, labels_b
    );
    println!(
        "simulated time {:.2}ms, {} vertex executions",
        out.makespan_ns as f64 / 1e6,
        out.metrics.vertex_executions
    );
}
