//! Figure 1 — the parallelism/communication spectrum, plus the
//! Section 7.1 partition-count discussion.
//!
//! Sweeps the synchronization techniques across the spectrum on one
//! workload, then sweeps partition-based locking's partition count
//! `|P|` from 1 per worker towards vertex granularity, showing the
//! tunable trade-off of Section 5.4: few partitions = few forks and big
//! batches but little parallelism; many partitions = the reverse, with
//! `|P| = |V|` degenerating into vertex-based locking.
//!
//! Every technique's run is traced, so the critical-path profiler can say
//! *where* each makespan went: the table and `results/BENCH_*.json` carry a
//! per-technique attribution ("single-token spends N% of makespan in token
//! waits"). With `--trace [path]` each technique additionally exports its
//! Chrome `trace_event` file (`results/TRACE_fig1_spectrum_<tech>.json`,
//! plus the paper's partition-lock run at the default
//! `results/TRACE_fig1_spectrum.json`) for `sg-trace analyze`/`diff` and
//! Perfetto.
//!
//! Usage: `sg-bench fig1 [--scale-div N] [--workers 8] [--algo pagerank]
//!   [--trace [path]]`

use crate::OrSim;
use sg_bench::cli::{flag_value, has_flag, Flag};
use sg_bench::experiment::{fmt_makespan, run_pregel_obs, Algo};
use sg_bench::{emit_obs, Table};
use sg_core::prelude::*;
use sg_core::sg_metrics::critical_path::{self, Category};
use sg_core::Runner;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let name = flag_value(flags, "algo").unwrap_or("pagerank");
    let algo = Algo::from_name(name, 0.01).ok_or_else(|| format!("unknown --algo {name:?}"))?;
    let trace_requested = has_flag(flags, "trace");
    let OrSim {
        scale_div,
        workers,
        graph,
        workload,
        mut log,
    } = OrSim::new(flags, "fig1_spectrum", algo.name(), 8)?;
    println!(
        "Figure 1 spectrum on OR-sim (scale-div={scale_div}), {} vertices / {} edges, {workers} workers, algo={}\n",
        graph.num_vertices(),
        graph.num_edges(),
        algo.name(),
    );

    let mut t = Table::new([
        "technique",
        "sim time",
        "iters",
        "sync transfers",
        "remote msgs",
        "batches",
        "dominant cost",
    ]);
    for (name, technique) in [
        ("single-token", Technique::SingleToken),
        ("dual-token", Technique::DualToken),
        ("partition-lock", Technique::PartitionLock),
        ("vertex-lock (p-boundary)", Technique::VertexLock),
    ] {
        // Tracing + breakdown feed the BENCH json's per-superstep deltas
        // and critical-path attribution; neither changes any counter.
        let obs = ObsConfig {
            trace: true,
            breakdown: true,
            ..ObsConfig::default()
        };
        let r = run_pregel_obs(&graph, algo, technique, workers, None, 4, 50_000, obs);
        let cp = r
            .obs
            .as_ref()
            .and_then(|o| o.trace.as_ref().map(|b| (b, o.makespan_ns)))
            .map(|(buf, makespan)| critical_path::analyze_buffer(buf, makespan));
        let dominant = cp
            .as_ref()
            .map(|cp| {
                let d = cp.attribution.dominant();
                format!("{} {:.0}%", d.name(), cp.attribution.percent(d))
            })
            .unwrap_or_default();
        t.row([
            name.to_string(),
            fmt_makespan(r.makespan_ns),
            r.iterations.to_string(),
            r.metrics.sync_transfers().to_string(),
            r.metrics.remote_messages.to_string(),
            r.metrics.remote_batches.to_string(),
            dominant,
        ]);
        if let Some(cp) = &cp {
            println!(
                "{name}: spends {:.1}% of makespan in token waits, {:.1}% in fork waits, \
                 {:.1}% in comm, {:.1}% computing",
                cp.attribution.percent(Category::TokenWait),
                cp.attribution.percent(Category::ForkWait),
                cp.attribution.percent(Category::Comm),
                cp.attribution.percent(Category::Compute),
            );
        }
        if trace_requested {
            // One trace file per technique, so `sg-trace analyze`/`diff`
            // can compare points of the spectrum causally.
            let slug = technique.label().replace('/', "-");
            let obs_report = r.obs.as_ref().expect("instrumented run carries a report");
            emit_obs(
                &format!("fig1_spectrum_{slug}"),
                None,
                obs_report,
                technique.label(),
                &workload,
            )
            .expect("write per-technique trace artifacts");
        }
        log.cell(name, technique.label(), &r);
    }
    println!();
    t.print();

    if trace_requested {
        // Dedicated fully-instrumented run of the paper's technique:
        // tracing + breakdown + a 30 s stall watchdog. This is the default
        // `results/TRACE_fig1_spectrum.json` artifact.
        println!("\nTracing an instrumented partition-lock run...");
        let r = run_pregel_obs(
            &graph,
            algo,
            Technique::PartitionLock,
            workers,
            None,
            4,
            50_000,
            ObsConfig::full(),
        );
        log.cell(
            "partition-lock (traced)",
            Technique::PartitionLock.label(),
            &r,
        );
        let obs = r.obs.expect("instrumented run carries a report");
        emit_obs(
            "fig1_spectrum",
            flag_value(flags, "trace").map(Path::new),
            &obs,
            Technique::PartitionLock.label(),
            &workload,
        )
        .expect("write trace artifacts");
    }

    println!("\nPartition-count sweep (Section 7.1): partition-based locking, |P| per worker");
    let mut t = Table::new([
        "partitions/worker",
        "total |P|",
        "forks (|P| edges)",
        "sim time",
        "batches",
        "avg batch",
    ]);
    for ppw in [1u32, 2, 4, 8, 16, 32, 64] {
        let runner = Runner::from_arc(Arc::clone(&graph))
            .workers(workers)
            .partitions_per_worker(ppw)
            .threads_per_worker(4)
            .technique(Technique::PartitionLock)
            .max_supersteps(50_000)
            .simulated(SimOptions::default());
        let out = runner.run_pagerank(0.01).expect("config");
        // Count virtual partition edges for this layout.
        let pm = runner.config().partition_map(&graph).expect("config");
        t.row([
            ppw.to_string(),
            (workers * ppw).to_string(),
            pm.num_partition_edges().to_string(),
            fmt_makespan(out.makespan_ns),
            out.metrics.remote_batches.to_string(),
            format!("{:.1}", out.metrics.avg_batch_size()),
        ]);
        log.raw_cell(
            &format!("ppw-sweep/{ppw}"),
            [
                ("partitions_per_worker", ppw.into()),
                ("partition_edges", pm.num_partition_edges().into()),
                ("makespan_ns", out.makespan_ns.into()),
                ("remote_batches", out.metrics.remote_batches.into()),
            ],
        );
    }
    t.print();
    println!(
        "\nExpected shape: tokens = minimal transfers but most iterations;\n\
         vertex grain = most transfers, smallest batches; partition-based\n\
         in between, best simulated time near the Giraph default |P|/worker = |W|."
    );
    println!();
    Ok(crate::finish(log))
}
