//! Table 1 — dataset statistics.
//!
//! Prints |V|, directed |E|, undirected |E| (the paper's parenthesized
//! values used by graph coloring), and the maximum degree for the four
//! synthetic dataset stand-ins.
//!
//! Usage: `sg-bench table1 [--scale-div N]`

use sg_bench::cli::{flag_or, Flag};
use sg_bench::{BenchLog, Table};
use sg_core::sg_graph::gen::datasets;
use sg_core::sg_graph::stats::GraphStats;
use std::process::ExitCode;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let scale_div = flag_or(flags, "scale-div", 16u64)?;

    println!("Table 1: directed datasets (synthetic stand-ins, scale-div={scale_div})");
    println!("Parentheses in the paper = undirected versions used by coloring.\n");

    let mut t = Table::new([
        "Graph",
        "|V|",
        "|E| directed",
        "|E| undirected",
        "Max Degree",
        "deg skew",
    ]);
    let mut log = BenchLog::new("table1", &format!("datasets/div{scale_div}"));
    for (name, g) in datasets::all(scale_div) {
        let und = g.to_undirected();
        let stats = GraphStats::of(&g);
        t.row([
            name.to_string(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            format!("{}", und.num_edges()),
            format!("{}", g.max_degree()),
            format!("{:.0}x", stats.skew),
        ]);
        log.raw_cell(
            name,
            [
                ("vertices", g.num_vertices().into()),
                ("edges_directed", g.num_edges().into()),
                ("edges_undirected", und.num_edges().into()),
                ("max_degree", g.max_degree().into()),
            ],
        );
    }
    t.print();
    println!(
        "\nReal datasets for reference (paper): OR 3.0M/117M, AR 22.7M/639M, \
         TW 41.6M/1.46B, UK 105M/3.73B; |E|/|V| ratios are preserved."
    );
    Ok(crate::finish(log))
}
