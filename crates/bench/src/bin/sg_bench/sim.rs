//! `sg-bench sim` — the paper's experiments on the `sg-sim` discrete-event
//! cluster simulator.
//!
//! `fig1` and `fig6` simulate the paper's figures at the shape their flags
//! give; this lane runs them at the paper's 16×4 testbed shape (64
//! workers) and up the 512-worker degradation curve, inside a CI smoke
//! budget. Every run is a single-threaded event-loop walk with exact
//! virtual-time makespans, so every number is bit-identical across
//! machines (virtual time, default cost model, deterministic event order).
//!
//! Lanes:
//!
//! 1. **fig1 @ 64** — the technique spectrum at the paper's cluster shape,
//!    with the fig1 ordering (tokens = fewest sync transfers, vertex
//!    locking = most) asserted and recorded.
//! 2. **fig6 @ 64** — coloring / PageRank / SSSP / WCC under the paper's
//!    three contenders.
//! 3. **scale** — per-technique degradation from 64 to 512 workers
//!    (`--full` adds 128/256).
//! 4. **dual-token @ 512, verified** — record_history + streaming audit +
//!    trace: the history is checked 1SR and the critical-path profiler
//!    attributes the makespan; the trace exports to
//!    `results/TRACE_sim_dual512.json` for `sg-trace analyze`.
//! 5. **determinism** — the same seeded run twice; digests must match.
//! 6. **calibrate** — fit the cost model from a real engine run's
//!    wall-clock trace and replay the fit in the simulator.
//!
//! The `speedup/...` cells in `results/BENCH_sim.json` are exact in
//! virtual time, so CI gates them against the committed baseline with a
//! tight tolerance (`scripts/sim_smoke.sh`).
//!
//! Usage: `sg-bench sim [--scale-div N] [--full]`

use sg_bench::cli::{flag_or, has_flag, Flag};
use sg_bench::experiment::{fmt_makespan, run_pregel_obs, Algo, ExperimentResult};
use sg_bench::{emit_obs, BenchLog, Table};
use sg_core::prelude::*;
use sg_core::sg_metrics::critical_path::{self, Category};
use sg_core::sg_metrics::Json;
use sg_core::sg_sim::{fit_cost_model, simulate};
use sg_core::Runner;
use std::process::ExitCode;
use std::sync::Arc;

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let scale_div = flag_or(flags, "scale-div", 16u64)?;
    let full = has_flag(flags, "full");
    let max_supersteps = flag_or(flags, "max-supersteps", 20_000u64)?;
    let workload = format!("sim/or_sim-div{scale_div}");

    let graph = Arc::new(sg_core::sg_graph::gen::datasets::or_sim(scale_div));
    println!(
        "sg-bench sim on OR-sim (scale-div={scale_div}), {} vertices / {} edges\n",
        graph.num_vertices(),
        graph.num_edges(),
    );
    let mut log = BenchLog::new("sim", &workload);

    fig1_at_paper_shape(&graph, max_supersteps, &mut log);
    fig6_at_paper_shape(&graph, max_supersteps, &mut log);
    scale_curve(&graph, max_supersteps, full, &mut log);
    dual_token_512_verified(&graph, max_supersteps, &workload, &mut log);
    determinism_replay(&graph, max_supersteps, &mut log);
    calibration_round_trip(&graph, max_supersteps, &mut log);

    println!();
    Ok(crate::finish(log))
}

const FIG1_TECHNIQUES: [(&str, Technique); 5] = [
    ("none", Technique::None),
    ("single-token", Technique::SingleToken),
    ("dual-token", Technique::DualToken),
    ("vertex-lock", Technique::VertexLock),
    ("partition-lock", Technique::PartitionLock),
];

/// Lane 1: the Figure 1 spectrum at the paper's 16×4 = 64-worker shape.
fn fig1_at_paper_shape(graph: &Arc<Graph>, max_supersteps: u64, log: &mut BenchLog) {
    println!("== fig1 spectrum @ 64 workers (paper 16×4 shape) ==");
    let mut t = Table::new([
        "technique",
        "sim time",
        "iters",
        "sync transfers",
        "remote msgs",
        "batches",
    ]);
    let mut cells: Vec<(&str, ExperimentResult)> = Vec::new();
    for (name, technique) in FIG1_TECHNIQUES {
        let algo = Algo::from_name("pagerank", 0.01).expect("algo");
        let r = run_pregel_obs(
            graph,
            algo,
            technique,
            64,
            Some(4),
            2,
            max_supersteps,
            ObsConfig::default(),
        );
        t.row([
            name.to_string(),
            fmt_makespan(r.makespan_ns),
            r.iterations.to_string(),
            r.metrics.sync_transfers().to_string(),
            r.metrics.remote_messages.to_string(),
            r.metrics.remote_batches.to_string(),
        ]);
        log.cell(&format!("fig1/{name}"), technique.label(), &r);
        cells.push((name, r));
    }
    t.print();

    // The fig1 ordering at this shape: token passing moves the fewest
    // synchronization transfers, vertex-grain locking by far the most,
    // partition-grain in between.
    let transfers = |name: &str| {
        cells
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r.metrics.sync_transfers())
            .expect("ran above")
    };
    let (single, dual) = (transfers("single-token"), transfers("dual-token"));
    let (vertex, partition) = (transfers("vertex-lock"), transfers("partition-lock"));
    assert!(
        single < partition && dual < partition && partition < vertex,
        "fig1 ordering violated: single={single} dual={dual} partition={partition} vertex={vertex}"
    );
    println!(
        "fig1 ordering holds: tokens ({single}/{dual}) < partition ({partition}) < vertex ({vertex})\n"
    );
    log.raw_cell(
        "fig1/ordering",
        [
            ("single_token_transfers", single.into()),
            ("dual_token_transfers", dual.into()),
            ("partition_lock_transfers", partition.into()),
            ("vertex_lock_transfers", vertex.into()),
        ],
    );
    // Exact-in-virtual-time ratios for the cross-PR drift gate.
    let single_ns = cells
        .iter()
        .find(|(n, _)| *n == "single-token")
        .map(|(_, r)| r.makespan_ns)
        .expect("ran above");
    for (name, r) in &cells {
        log.raw_cell(
            &format!("speedup/fig1/{name}"),
            [("speedup", (single_ns as f64 / r.makespan_ns as f64).into())],
        );
    }
}

/// Lane 2: Figure 6's four algorithms at 64 workers under the paper's
/// three contenders.
fn fig6_at_paper_shape(graph: &Arc<Graph>, max_supersteps: u64, log: &mut BenchLog) {
    println!("== fig6 @ 64 workers ==");
    let mut t = Table::new(["algo", "technique", "sim time", "iters", "converged"]);
    for algo_name in ["coloring", "pagerank", "sssp", "wcc"] {
        let algo = Algo::from_name(algo_name, 0.01).expect("algo");
        for (name, technique) in [
            ("token (dual)", Technique::DualToken),
            ("partition lock", Technique::PartitionLock),
            ("vertex lock", Technique::VertexLock),
        ] {
            let r = run_pregel_obs(
                graph,
                algo,
                technique,
                64,
                Some(4),
                2,
                max_supersteps,
                ObsConfig::default(),
            );
            t.row([
                algo_name.to_string(),
                name.to_string(),
                fmt_makespan(r.makespan_ns),
                r.iterations.to_string(),
                r.converged.to_string(),
            ]);
            log.cell(&format!("fig6/{algo_name}/{name}"), technique.label(), &r);
        }
    }
    t.print();
    println!();
}

/// Lane 3: per-technique degradation from 64 to 512 workers.
fn scale_curve(graph: &Arc<Graph>, max_supersteps: u64, full: bool, log: &mut BenchLog) {
    let worker_counts: &[u32] = if full {
        &[64, 128, 256, 512]
    } else {
        &[64, 512]
    };
    println!("== worker-count degradation curve (ppw 1, pagerank 0.1) ==");
    let mut t = Table::new([
        "workers",
        "technique",
        "sim time",
        "iters",
        "sync transfers",
    ]);
    let mut at512: Vec<(&str, u64)> = Vec::new();
    for &workers in worker_counts {
        for (name, technique) in [
            ("single-token", Technique::SingleToken),
            ("dual-token", Technique::DualToken),
            ("vertex-lock", Technique::VertexLock),
            ("partition-lock", Technique::PartitionLock),
        ] {
            let algo = Algo::from_name("pagerank", 0.1).expect("algo");
            let r = run_pregel_obs(
                graph,
                algo,
                technique,
                workers,
                Some(1),
                2,
                max_supersteps,
                ObsConfig::default(),
            );
            t.row([
                workers.to_string(),
                name.to_string(),
                fmt_makespan(r.makespan_ns),
                r.iterations.to_string(),
                r.metrics.sync_transfers().to_string(),
            ]);
            log.cell(&format!("scale/{workers}/{name}"), technique.label(), &r);
            if workers == 512 {
                at512.push((name, r.makespan_ns));
            }
        }
    }
    t.print();
    let single512 = at512
        .iter()
        .find(|(n, _)| *n == "single-token")
        .map(|&(_, ns)| ns)
        .expect("512 lane always runs");
    for (name, ns) in &at512 {
        log.raw_cell(
            &format!("speedup/512/{name}"),
            [("speedup", (single512 as f64 / *ns as f64).into())],
        );
    }
    println!();
}

/// Lane 4: a fully-verified dual-token run at 512 workers — recorded
/// history checked 1SR, streaming audit, exported trace, and critical-path
/// attribution.
fn dual_token_512_verified(
    graph: &Arc<Graph>,
    max_supersteps: u64,
    workload: &str,
    log: &mut BenchLog,
) {
    println!("== dual-token @ 512 workers, verified ==");
    let undirected = Arc::new(graph.to_undirected());
    let out = Runner::from_arc(Arc::clone(&undirected))
        .workers(512)
        .partitions_per_worker(1)
        .threads_per_worker(2)
        .technique(Technique::DualToken)
        .max_supersteps(max_supersteps)
        .audit(true)
        .trace(true)
        .observability(ObsConfig {
            trace: true,
            trace_capacity: 4096,
            audit: true,
            ..ObsConfig::default()
        })
        .simulated(SimOptions::default())
        .run_coloring()
        .expect("config");
    assert!(out.converged, "512-worker coloring must converge");
    let conflicts = sg_core::sg_algos::validate::coloring_conflicts(&undirected, &out.values);
    assert_eq!(conflicts, 0, "dual-token coloring must be proper");
    let history = out.history.as_ref().expect("history recorded");
    let serializable = history.is_one_copy_serializable(&undirected);
    assert!(serializable, "dual-token history must be 1SR");
    let audit = out.audit.as_ref().expect("streaming audit ran");
    println!(
        "coloring @ 512: {} supersteps, makespan {}, 0 conflicts, history 1SR, \
         audit: {} txns, C1 {} / C2 {} violations, 1SR={}",
        out.supersteps,
        fmt_makespan(out.makespan_ns),
        audit.transactions,
        audit.c1_violations,
        audit.c2_violations,
        audit.one_copy_serializable,
    );
    let obs = out.obs.as_ref().expect("traced run carries a report");
    let buf = obs.trace.as_ref().expect("trace buffer");
    let cp = critical_path::analyze_buffer(buf, out.makespan_ns);
    println!(
        "critical path: {:.1}% token wait, {:.1}% fork wait, {:.1}% comm, {:.1}% compute",
        cp.attribution.percent(Category::TokenWait),
        cp.attribution.percent(Category::ForkWait),
        cp.attribution.percent(Category::Comm),
        cp.attribution.percent(Category::Compute),
    );
    emit_obs(
        "sim_dual512",
        None,
        obs,
        Technique::DualToken.label(),
        workload,
    )
    .expect("write 512-worker trace artifact");
    log.outcome_cell("dual512/coloring", Technique::DualToken.label(), &out);
    log.raw_cell(
        "speedup/512-verified",
        [("speedup", Json::Num(if serializable { 1.0 } else { 0.0 }))],
    );
    println!();
}

/// Lane 5: same seed ⇒ bit-identical event walk.
fn determinism_replay(graph: &Arc<Graph>, max_supersteps: u64, log: &mut BenchLog) {
    println!("== determinism replay ==");
    let undirected = Arc::new(graph.to_undirected());
    let cfg = EngineConfig {
        workers: 64,
        partitions_per_worker: Some(4),
        threads_per_worker: 2,
        technique: Technique::DualToken,
        max_supersteps,
        ..EngineConfig::default()
    };
    let opts = SimOptions::with_jitter(10, 0xC0FFEE);
    let a = simulate(Arc::clone(&undirected), GreedyColoring, None, &cfg, &opts).expect("sim");
    let b = simulate(Arc::clone(&undirected), GreedyColoring, None, &cfg, &opts).expect("sim");
    assert_eq!(a.digest, b.digest, "same seed must replay bit-identically");
    assert_eq!(a.events, b.events);
    assert_eq!(a.outcome.makespan_ns, b.outcome.makespan_ns);
    println!(
        "two seeded runs: digest {:016x}, {} events, makespan {} — identical\n",
        a.digest,
        a.events,
        fmt_makespan(a.outcome.makespan_ns),
    );
    log.raw_cell(
        "determinism/replay",
        [
            ("digest", format!("{:016x}", a.digest).into()),
            ("events", a.events.into()),
            ("speedup", Json::Num(1.0)),
        ],
    );
}

/// Lane 6: fit the cost model from a real traced engine run — its trace is
/// stamped on the wall clock — then replay the fitted machine inside the
/// simulator.
fn calibration_round_trip(graph: &Arc<Graph>, max_supersteps: u64, log: &mut BenchLog) {
    println!("== cost-model calibration from a real engine's wall-clock trace ==");
    let real = Runner::from_arc(Arc::clone(graph))
        .workers(4)
        .threads_per_worker(2)
        .technique(Technique::PartitionLock)
        .max_supersteps(max_supersteps)
        .trace(true)
        .run_pagerank(0.01)
        .expect("config");
    let events = real
        .obs
        .as_ref()
        .and_then(|o| o.trace.as_ref())
        .map(|b| b.all_events())
        .unwrap_or_default();
    let fit = fit_cost_model(&events, &CostModel::default());
    println!(
        "fitted from {} vertex + {} batch samples: vertex={}ns +{}ns/msg, wire={}ns +{}ns/msg",
        fit.vertex_samples,
        fit.batch_samples,
        fit.model.vertex_compute_ns,
        fit.model.per_message_compute_ns,
        fit.model.network_latency_ns,
        fit.model.per_remote_message_ns,
    );
    let replay = Runner::from_arc(Arc::clone(graph))
        .workers(4)
        .threads_per_worker(2)
        .technique(Technique::PartitionLock)
        .max_supersteps(max_supersteps)
        .simulated(SimOptions {
            cost: fit.model,
            ..SimOptions::default()
        })
        .run_pagerank(0.01)
        .expect("config");
    println!(
        "replayed on the fitted machine: engine wall time {}, simulated {}\n",
        fmt_makespan(real.makespan_ns),
        fmt_makespan(replay.makespan_ns),
    );
    log.raw_cell(
        "calibrate/fit",
        [
            ("vertex_samples", fit.vertex_samples.into()),
            ("batch_samples", fit.batch_samples.into()),
            ("vertex_compute_ns", fit.model.vertex_compute_ns.into()),
            (
                "per_message_compute_ns",
                fit.model.per_message_compute_ns.into(),
            ),
            ("engine_makespan_ns", real.makespan_ns.into()),
            ("sim_makespan_ns", replay.makespan_ns.into()),
        ],
    );
}
