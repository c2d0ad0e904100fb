//! Partitioning-quality ablation (DESIGN.md §4 extension).
//!
//! The paper uses random hash partitioning "as it does not favour any
//! particular synchronization technique" and dismisses METIS as
//! impractical (Section 7.1). This ablation quantifies what a cheap
//! locality-aware streaming partitioner (LDG) buys partition-based
//! locking: fewer cut edges → fewer virtual partition edges → fewer forks
//! and fewer remote messages.
//!
//! Usage: `sg-bench ablation-partitioning [--scale-div N] [--workers 8]`

use crate::OrSim;
use sg_bench::cli::Flag;
use sg_bench::experiment::fmt_makespan;
use sg_bench::Table;
use sg_core::prelude::*;
use sg_core::sg_graph::partition::{HashPartitioner, LdgPartitioner, Partitioner};
use sg_core::sg_graph::PartitionMap;
use sg_core::Runner;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let OrSim {
        workers,
        graph,
        mut log,
        ..
    } = OrSim::new(flags, "ablation_partitioning", "pagerank", 8)?;
    let layout = ClusterLayout::new(workers, workers);
    println!(
        "Partitioning ablation: PageRank(0.01) with partition-based locking on OR-sim \
         ({} vertices / {} edges), {workers} workers\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut t = Table::new([
        "partitioner",
        "cut edges",
        "partition edges (forks)",
        "sim time",
        "remote msgs",
        "batches",
    ]);
    let hash = HashPartitioner::new(0xC0FFEE);
    let ldg = LdgPartitioner::default();
    let partitioners: [(&str, &dyn Partitioner); 2] = [("hash", &hash), ("ldg", &ldg)];
    for (name, partitioner) in partitioners {
        let assignment = partitioner.assign(&graph, &layout);
        let pm = PartitionMap::from_assignment(&graph, layout, assignment.clone());
        let cut: u64 = graph
            .vertices()
            .map(|v| {
                graph
                    .out_neighbors(v)
                    .iter()
                    .filter(|u| pm.partition_of(**u) != pm.partition_of(v))
                    .count() as u64
            })
            .sum();

        let out = Runner::from_arc(Arc::clone(&graph))
            .workers(workers)
            .technique(Technique::PartitionLock)
            .explicit_partitions(assignment)
            .max_supersteps(50_000)
            .simulated(SimOptions::default())
            .run_pagerank(0.01)
            .expect("config");
        assert!(out.converged);
        t.row([
            name.to_string(),
            cut.to_string(),
            pm.num_partition_edges().to_string(),
            fmt_makespan(out.makespan_ns),
            out.metrics.remote_messages.to_string(),
            out.metrics.remote_batches.to_string(),
        ]);
        log.outcome_cell(name, TechniqueKind::PartitionLock.label(), &out);
        log.raw_cell(
            &format!("{name}/layout"),
            [
                ("cut_edges", cut.into()),
                ("partition_edges", pm.num_partition_edges().into()),
            ],
        );
    }
    t.print();
    println!("\nExpected: LDG cuts fewer edges, so fewer remote messages and forks.");
    Ok(crate::finish(log))
}
