//! Figures 2 and 3 — the motivating graph-coloring failures.
//!
//! Reproduces, superstep by superstep, the paper's executions of
//! conflict-repair greedy coloring on the 4-cycle v0-v1-v3-v2-v0 with
//! workers W1 = {v0, v2} and W2 = {v1, v3}:
//!
//! * **Figure 2 (BSP)**: every vertex oscillates between colors 0 and 1,
//!   forever.
//! * **Figure 3 (AP)**: the graph cycles through three states.
//! * **Serializable AP** (any technique): terminates with a proper
//!   2-coloring.
//!
//! Usage: `sg-bench fig2-3`

use sg_bench::cli::Flag;
use sg_bench::{BenchLog, Table};
use sg_core::prelude::*;
use sg_core::sg_algos::validate;
use sg_core::sg_algos::ConflictFixColoring;
use sg_core::sg_engine::Engine;
use std::process::ExitCode;
use std::sync::Arc;

/// Run the paper's layout, capturing the color vector after each superstep
/// by re-running with increasing superstep caps (the engine state is
/// deterministic in this configuration).
fn states(model: Model, technique: Technique, upto: u64) -> Vec<(u64, Vec<u32>, bool)> {
    let mut out = Vec::new();
    for cap in 1..=upto {
        let config = EngineConfig {
            workers: 2,
            partitions_per_worker: Some(1),
            threads_per_worker: 1,
            model,
            technique,
            max_supersteps: cap,
            buffer_cap: usize::MAX, // remote flush only at barriers (paper schedule)
            explicit_partitions: Some(validate::paper_c4_assignment()),
            ..Default::default()
        };
        let result = Engine::new(Arc::new(gen::paper_c4()), ConflictFixColoring, config)
            .expect("valid config")
            .run();
        let converged = result.converged;
        out.push((cap, result.values, converged));
        if converged {
            break;
        }
    }
    out
}

fn print_run(log: &mut BenchLog, title: &str, model: Model, technique: Technique, upto: u64) {
    println!("\n== {title} ==");
    let runs = states(model, technique, upto);
    let mut t = Table::new(["superstep", "v0", "v1", "v2", "v3", "conflicts"]);
    let g = gen::paper_c4();
    for (cap, colors, _) in &runs {
        let cells: Vec<String> = std::iter::once(cap.to_string())
            .chain(colors.iter().map(|c| {
                if *c == u32::MAX {
                    "-".to_string()
                } else {
                    c.to_string()
                }
            }))
            .chain(std::iter::once(
                validate::coloring_conflicts(&g, colors).to_string(),
            ))
            .collect();
        t.row(cells);
    }
    t.print();
    let (last_cap, last_colors, converged) = runs.last().expect("at least one superstep");
    if *converged {
        println!("terminated after {last_cap} supersteps");
    } else {
        println!("NOT terminated after {last_cap} supersteps (as the paper predicts)");
    }
    log.raw_cell(
        title,
        [
            ("supersteps", (*last_cap).into()),
            ("terminated", (*converged).into()),
            (
                "conflicts",
                validate::coloring_conflicts(&g, last_colors).into(),
            ),
        ],
    );
}

pub fn run(_flags: &[Flag]) -> Result<ExitCode, String> {
    println!("Graph: 4-cycle v0-v1-v3-v2-v0; W1 = {{v0, v2}}, W2 = {{v1, v3}}");
    let mut log = BenchLog::new("fig2_fig3", "coloring/paper-c4/w2");
    print_run(
        &mut log,
        "Figure 2: BSP (oscillates 0/1 forever)",
        Model::Bsp,
        Technique::None,
        8,
    );
    print_run(
        &mut log,
        "Figure 3: AP (cycles through 3 graph states)",
        Model::Async,
        Technique::None,
        9,
    );
    print_run(
        &mut log,
        "Serializable AP via partition-based locking (terminates)",
        Model::Async,
        Technique::PartitionLock,
        20,
    );
    print_run(
        &mut log,
        "Serializable AP via dual-layer token passing (terminates)",
        Model::Async,
        Technique::DualToken,
        20,
    );
    println!();
    Ok(crate::finish(log))
}
