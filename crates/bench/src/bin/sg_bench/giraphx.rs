//! Section 7.3 — system-level vs Giraphx-style user-level techniques.
//!
//! Compares graph coloring on OR-sim under:
//!
//! * system-level dual-layer token passing and partition-based locking
//!   (our techniques, transparent to the algorithm);
//! * user-level token passing (`UserTokenColoring`: the gating re-coded
//!   inside the algorithm, coupled to the partition map);
//! * user-level locking (`ByIdColoring`: priority negotiation through
//!   messages across sub-supersteps, the Giraphx pattern).
//!
//! The paper measured Giraphx 30–103× slower than the system-level
//! techniques; the implementation-version artifacts of that gap are not
//! reproducible, but the structural overhead (extra supersteps and
//! messages of user-level protocols) is.
//!
//! Usage: `sg-bench giraphx [--scale-div N] [--workers 16]`

use crate::OrSim;
use sg_bench::cli::Flag;
use sg_bench::experiment::fmt_makespan;
use sg_bench::Table;
use sg_core::prelude::*;
use sg_core::sg_algos::giraphx::{ByIdColoring, UserTokenColoring};
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
    } = OrSim::new(flags, "giraphx_compare", "coloring", 16)?;
    let graph = Arc::new(graph.to_undirected());
    println!(
        "Giraphx comparison: coloring on OR-sim undirected ({} vertices / {} edges), {workers} workers\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut t = Table::new([
        "approach",
        "sim time",
        "supersteps",
        "total msgs",
        "conflicts",
        "converged",
    ]);

    let base = |threads: u32| {
        Runner::from_arc(Arc::clone(&graph))
            .workers(workers)
            .threads_per_worker(threads)
            .max_supersteps(50_000)
            .simulated(SimOptions::default())
    };

    // System-level techniques: algorithm is plain Algorithm 1.
    for (name, technique, threads) in [
        ("system single-token", Technique::SingleToken, 1),
        ("system dual-token", Technique::DualToken, 4),
        ("system partition-lock", Technique::PartitionLock, 4),
    ] {
        let out = base(threads)
            .technique(technique)
            .run_coloring()
            .expect("config");
        t.row([
            name.to_string(),
            fmt_makespan(out.makespan_ns),
            out.supersteps.to_string(),
            out.metrics.total_messages().to_string(),
            validate::coloring_conflicts(&graph, &out.values).to_string(),
            if out.converged { "yes" } else { "NO" }.to_string(),
        ]);
        log.outcome_cell(name, technique.label(), &out);
    }

    // User-level token passing: gating embedded in the algorithm.
    {
        let runner = base(1);
        let pm = runner.config().partition_map(&graph).expect("config");
        let out = runner
            .run_program(UserTokenColoring::new(Arc::new(pm)))
            .expect("config");
        let colors = sg_core::sg_algos::giraphx::user_token_colors(&out.values);
        t.row([
            "user-level token (Giraphx)".to_string(),
            fmt_makespan(out.makespan_ns),
            out.supersteps.to_string(),
            out.metrics.total_messages().to_string(),
            validate::coloring_conflicts(&graph, &colors).to_string(),
            if out.converged { "yes" } else { "NO" }.to_string(),
        ]);
        log.outcome_cell("user-level token (Giraphx)", "user-token", &out);
    }

    // User-level locking: priority negotiation over sub-supersteps on BSP.
    {
        let out = base(4)
            .model(Model::Bsp)
            .run_program(ByIdColoring)
            .expect("config");
        let colors = sg_core::sg_algos::giraphx::by_id_colors(&out.values);
        t.row([
            "user-level locking (Giraphx)".to_string(),
            fmt_makespan(out.makespan_ns),
            out.supersteps.to_string(),
            out.metrics.total_messages().to_string(),
            validate::coloring_conflicts(&graph, &colors).to_string(),
            if out.converged { "yes" } else { "NO" }.to_string(),
        ]);
        log.outcome_cell("user-level locking (Giraphx)", "user-lock", &out);
    }

    t.print();
    Ok(crate::finish(log))
}
