//! Critical-path profiler invariants and the paper's attribution stories.
//!
//! Property-style checks over real traced runs — the thread engine on the
//! wall clock, the simulator and the GAS engine on virtual time — all four
//! techniques:
//!
//! * the six-category attribution partitions the makespan **exactly**;
//! * the critical path is at most the makespan and at least the busiest
//!   worker's compute coverage (a lower bound on any schedule);
//! * per-superstep spans tile the analyzed range in order;
//! * the technique stories of Figure 1, told in virtual time: single-layer
//!   token passing's makespan is dominated by token-serialization wait,
//!   vertex-based locking spends a larger share fork-waiting (and moves
//!   far more per-transfer sync traffic) than partition-based locking.

use serigraph::prelude::*;
use serigraph::sg_gas::programs::GasSssp;
use serigraph::sg_metrics::critical_path::{analyze_buffer, Category, CriticalPathReport};
use serigraph::sg_metrics::{ObsConfig, ObsReport, TraceEventKind};
use std::sync::Arc;

fn instrumented() -> ObsConfig {
    ObsConfig {
        trace: true,
        breakdown: true,
        ..ObsConfig::default()
    }
}

/// Every invariant the profiler promises, checked against one report.
fn assert_invariants(report: &CriticalPathReport, label: &str) {
    assert_eq!(
        report.attribution.total(),
        report.makespan_ns,
        "{label}: attribution must partition the makespan exactly"
    );
    assert!(
        report.critical_path_ns() <= report.makespan_ns,
        "{label}: critical path cannot exceed the makespan"
    );
    assert!(
        report.critical_path_ns() >= report.max_worker_busy_ns,
        "{label}: critical path ({}) below the busiest worker's compute \
         coverage ({}) — the path must causally contain at least that much",
        report.critical_path_ns(),
        report.max_worker_busy_ns
    );
    assert!(
        report.max_worker_busy_ns <= report.makespan_ns,
        "{label}: busy coverage fits in the makespan"
    );
    // Spans tile [first.start, last.end] in order without overlap.
    for w in report.per_superstep.windows(2) {
        assert_eq!(w[0].end_ns, w[1].start_ns, "{label}: spans must tile");
        assert!(w[0].superstep < w[1].superstep, "{label}: superstep order");
    }
    for p in &report.per_superstep {
        assert!(p.start_ns < p.end_ns, "{label}: non-empty spans");
        assert_eq!(
            p.attribution.total(),
            p.end_ns - p.start_ns,
            "{label}: per-superstep attribution partitions its span"
        );
    }
    // Blocking edges are sorted heaviest-first.
    for w in report.blocking_edges.windows(2) {
        assert!(w[0].total_ns >= w[1].total_ns, "{label}: edge sort order");
    }
}

fn analyzed(obs: &ObsReport) -> CriticalPathReport {
    let buf = obs.trace.as_ref().expect("trace enabled");
    analyze_buffer(buf, obs.makespan_ns)
}

/// A runner on the wall-clock thread engine, or on the simulator.
fn host(runner: Runner, simulated: bool) -> Runner {
    if simulated {
        runner.simulated(SimOptions::default())
    } else {
        runner
    }
}

fn run_technique(technique: Technique, simulated: bool) -> CriticalPathReport {
    let runner = Runner::new(gen::datasets::or_sim(256))
        .workers(4)
        .technique(technique)
        .max_supersteps(50_000)
        .observability(instrumented());
    let out = host(runner, simulated).run_pagerank(0.01).expect("config");
    assert!(out.converged);
    analyzed(&out.obs.expect("report"))
}

/// The partition/bound invariants hold for all four techniques on both
/// Pregel hosts.
#[test]
fn invariants_hold_for_all_pregel_techniques() {
    for (technique, simulated) in [
        Technique::SingleToken,
        Technique::DualToken,
        Technique::VertexLock,
        Technique::PartitionLock,
    ]
    .into_iter()
    .flat_map(|t| [(t, false), (t, true)])
    {
        let report = run_technique(technique, simulated);
        let label = format!("{technique:?}, simulated={simulated}");
        assert_invariants(&report, &label);
        assert!(
            !report.per_superstep.is_empty(),
            "{label}: barrier-segmented supersteps expected"
        );
        assert!(
            !report.blocking_edges.is_empty(),
            "{label}: cross-worker transfers expected"
        );
    }
}

/// Same invariants across algorithms and worker counts for the paper's
/// technique (a cheap sweep over differently-shaped traces).
#[test]
fn invariants_hold_across_workloads() {
    for workers in [2u32, 8] {
        for simulated in [false, true] {
            let runner = Runner::new(gen::datasets::or_sim(256))
                .workers(workers)
                .technique(Technique::PartitionLock)
                .max_supersteps(50_000)
                .observability(instrumented());
            let out = host(runner, simulated)
                .run_sssp(VertexId::new(0))
                .expect("config");
            assert!(out.converged);
            let report = analyzed(&out.obs.expect("report"));
            assert_invariants(&report, &format!("sssp/w{workers}/simulated={simulated}"));
        }
    }
}

/// The barrierless GAS engine analyzes as a single span and obeys the same
/// bounds.
#[test]
fn invariants_hold_on_the_gas_engine() {
    let g = Arc::new(gen::preferential_attachment(120, 3, 7));
    let config = GasConfig {
        machines: 2,
        fibers_per_machine: 3,
        serializable: true,
        max_executions: 1_000_000,
        obs: instrumented(),
        ..Default::default()
    };
    let out = AsyncGasEngine::new(Arc::clone(&g), GasSssp::new(VertexId::new(0)), config).run();
    assert!(out.converged);
    let report = analyzed(&out.obs.expect("report"));
    assert_invariants(&report, "gas");
    assert_eq!(
        report.per_superstep.len(),
        1,
        "barrierless run is one whole-run span"
    );
}

/// Figure 1's left edge: under single-layer token passing the makespan is
/// dominated by token-serialization wait — the run's time went to being
/// serialized behind the ring, not to compute or raw network latency.
#[test]
fn single_token_is_dominated_by_token_wait() {
    let report = run_technique(Technique::SingleToken, true);
    assert_eq!(
        report.attribution.dominant(),
        Category::TokenWait,
        "single-token dominant category"
    );
    assert!(
        report.attribution.percent(Category::TokenWait) > 50.0,
        "token-serialization should dominate, got {:.1}%",
        report.attribution.percent(Category::TokenWait)
    );
}

/// Figure 1's right edge: vertex-based locking pays materially more
/// fork-protocol overhead than partition-based locking — far more
/// cross-worker fork/request transfers and far more aggregate in-flight
/// sync latency (the paper's argument for coarsening lock granularity).
/// Both spend a substantial share of their path fork-waiting; neither
/// shows token-ring serialization.
#[test]
fn vertex_lock_pays_more_fork_overhead_than_partition_lock() {
    let vertex = run_technique(Technique::VertexLock, true);
    let partition = run_technique(Technique::PartitionLock, true);
    for (name, r) in [("vertex", &vertex), ("partition", &partition)] {
        assert!(
            r.attribution.percent(Category::ForkWait) > 20.0,
            "{name}-lock fork-wait share should be substantial, got {:.1}%",
            r.attribution.percent(Category::ForkWait)
        );
        assert_eq!(
            r.attribution.get(Category::TokenWait),
            0,
            "{name}-lock never token-waits"
        );
    }
    // Per-transfer overhead: vertex-grain forks cross workers far more
    // often and carry far more aggregate in-flight latency.
    let fork_traffic = |r: &CriticalPathReport| -> (u64, u64) {
        r.blocking_edges
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::ForkTransfer | TraceEventKind::RequestToken
                )
            })
            .fold((0, 0), |(n, ns), e| (n + e.count, ns + e.total_ns))
    };
    let (v_count, v_ns) = fork_traffic(&vertex);
    let (p_count, p_ns) = fork_traffic(&partition);
    assert!(
        v_count > 2 * p_count,
        "vertex-grain sync transfers ({v_count}) should dwarf partition-grain ({p_count})"
    );
    assert!(
        v_ns > 2 * p_ns,
        "vertex-grain in-flight sync time ({v_ns}) should dwarf partition-grain ({p_ns})"
    );
}
