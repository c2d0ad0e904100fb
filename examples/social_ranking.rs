//! The introduction's motivating workload: ranking members of a social
//! network (PageRank) and finding its communities' skeletons (WCC, MIS) on
//! a power-law graph, comparing the synchronization techniques' costs.
//!
//! Run with: `cargo run --release --example social_ranking`

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

fn main() {
    // An Orkut-flavoured synthetic social network.
    let graph = gen::datasets::or_sim(64);
    println!(
        "social graph: {} members, {} follow edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    println!(
        "{:<18} {:>12} {:>8} {:>14} {:>10}",
        "technique", "sim time", "steps", "remote msgs", "batches"
    );
    let mut times = Vec::new();
    for technique in [
        Technique::None,
        Technique::SingleToken,
        Technique::DualToken,
        Technique::VertexLock,
        Technique::PartitionLock,
    ] {
        let out = Runner::new(graph.clone())
            .workers(8)
            .threads_per_worker(2)
            .technique(technique)
            .simulated(SimOptions::default())
            .run_pagerank(0.01)
            .expect("valid configuration");
        assert!(out.converged);
        println!(
            "{:<18} {:>10.2}ms {:>8} {:>14} {:>10}",
            technique.label(),
            out.makespan_ns as f64 / 1e6,
            out.supersteps,
            out.metrics.remote_messages,
            out.metrics.remote_batches
        );
        times.push((technique, out.makespan_ns, out.values));
    }

    // All serializable techniques must agree with the unsynchronized run
    // on the fixed point (the delta formulation is order-insensitive).
    let baseline = &times[0].2;
    for (technique, _, values) in &times[1..] {
        for (a, b) in baseline.iter().zip(values) {
            assert!(
                (a - b).abs() < 1e-3,
                "{technique:?} diverged from the PageRank fixed point"
            );
        }
    }

    // Top influencers.
    let mut ranked: Vec<(usize, f64)> = baseline.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 members by rank:");
    for (v, pr) in ranked.iter().take(5) {
        println!("  member {v}: {pr:.3}");
    }

    // A maximal independent set = a spam-resistant seed set (no two seeds
    // adjacent) — needs serializability for one-pass correctness.
    let und = graph.to_undirected();
    let mis = Runner::new(und.clone())
        .workers(8)
        .technique(Technique::PartitionLock)
        .run_mis()
        .expect("valid configuration");
    let members = serigraph::sg_algos::mis::membership(&mis.values);
    assert!(validate::is_maximal_independent_set(&und, &members));
    println!(
        "\nmaximal independent seed set: {} of {} members",
        members.iter().filter(|&&m| m).count(),
        und.num_vertices()
    );
}
