//! Observability integration: tracing and breakdown collection must be
//! side-effect-free on the computation (same counters, same values), the
//! per-superstep deltas must reconstruct the totals, and the report must
//! surface through `Outcome` on both engines.

use serigraph::prelude::*;
use serigraph::sg_gas::programs::GasSssp;
use serigraph::sg_metrics::{Counter, ObsConfig, TraceEventKind};
use std::sync::Arc;

fn instrumented() -> ObsConfig {
    ObsConfig {
        trace: true,
        breakdown: true,
        // Generous threshold: the watchdog must never fire on a healthy run.
        watchdog_stall_ms: Some(60_000),
        ..ObsConfig::default()
    }
}

/// Observability is off by default and `Outcome.obs` stays `None` — the
/// zero-overhead contract is "one branch per would-be event".
#[test]
fn obs_is_none_by_default() {
    let out = Runner::new(gen::datasets::or_sim(256))
        .workers(2)
        .technique(Technique::PartitionLock)
        .run_wcc()
        .expect("config");
    assert!(out.converged);
    assert!(out.obs.is_none());
}

/// Turning on full instrumentation (trace + breakdown + watchdog) must not
/// change a single counter or any computed value, across techniques.
/// (BSP single-threaded pinning makes runs bit-identical; see
/// `determinism.rs`. For the AP techniques we use a value-deterministic
/// algorithm and compare values + convergence.)
#[test]
fn tracing_changes_no_counter_values() {
    let g = gen::datasets::or_sim(256);
    let run = |obs: ObsConfig| {
        Runner::new(g.clone())
            .workers(4)
            .threads_per_worker(1)
            .model(Model::Bsp)
            .observability(obs)
            .run_pagerank(1e-4)
            .expect("config")
    };
    let plain = run(ObsConfig::default());
    let traced = run(instrumented());
    assert_eq!(plain.values, traced.values);
    assert_eq!(plain.supersteps, traced.supersteps);
    for &c in Counter::ALL {
        assert_eq!(
            plain.metrics.get(c),
            traced.metrics.get(c),
            "counter {} diverged under tracing",
            c.name()
        );
    }
    assert!(plain.obs.is_none());
    let obs = traced.obs.expect("instrumented run reports");
    assert!(!obs.stalled);
}

/// Per-superstep deltas partition the totals: summing every delta over all
/// supersteps reproduces the final counter snapshot exactly.
#[test]
fn superstep_deltas_reconstruct_totals() {
    let out = Runner::new(gen::datasets::or_sim(256))
        .workers(4)
        .technique(Technique::PartitionLock)
        .observability(instrumented())
        .run_sssp(VertexId::new(0))
        .expect("config");
    assert!(out.converged);
    let obs = out.obs.expect("report");
    assert_eq!(obs.per_superstep.len() as u64, out.supersteps);
    for &c in Counter::ALL {
        let sum: u64 = obs.per_superstep.iter().map(|r| r.delta.get(c)).sum();
        assert_eq!(sum, out.metrics.get(c), "delta sum for {}", c.name());
    }
    // Rows carry a monotonically non-decreasing makespan.
    for w in obs.per_superstep.windows(2) {
        assert!(w[0].makespan_ns <= w[1].makespan_ns);
    }
}

/// The trace buffer records the structural events every AP locking run
/// must produce, stamped within the run's wall-clock span, and the
/// per-worker breakdown accounts busy/blocked/idle against the makespan,
/// however many compute lanes a worker runs: a worker's busy and blocked
/// are the mean over its lanes, so two lanes blocked on forks over the
/// same interval are not summed.
#[test]
fn trace_events_and_breakdown_are_consistent() {
    let workers = 4;
    for threads in [1, 2, 4] {
        let out = Runner::new(gen::datasets::or_sim(256))
            .workers(workers)
            .threads_per_worker(threads)
            .technique(Technique::PartitionLock)
            .observability(instrumented())
            .run_coloring()
            .expect("config");
        assert!(out.converged);
        let obs = out.obs.expect("report");

        let buf = obs.trace.as_ref().expect("trace enabled");
        let events = buf.all_events();
        assert!(!events.is_empty());
        let mut saw = [false; 3];
        for e in &events {
            assert!(e.worker < workers, "worker id in range");
            assert!(e.ts_ns <= obs.makespan_ns, "event within the run's span");
            match e.kind {
                TraceEventKind::VertexExecute => saw[0] = true,
                TraceEventKind::ForkTransfer => saw[1] = true,
                TraceEventKind::BarrierWait => saw[2] = true,
                _ => {}
            }
        }
        assert!(saw[0], "vertex_execute events recorded");
        assert!(saw[1], "fork_transfer events recorded");
        assert!(saw[2], "barrier_wait events recorded");

        assert_eq!(obs.per_worker.len() as u32, workers);
        for b in &obs.per_worker {
            assert!(b.busy_ns > 0, "every worker computed something");
            assert!(
                b.busy_ns + b.blocked_ns + b.idle_ns <= obs.makespan_ns,
                "{threads} threads: accounted time fits in the makespan"
            );
            assert_eq!(b.accounting_error_ns, 0, "{threads} threads per worker");
        }
    }
}

/// The thread engine stamps its trace on the wall clock, from the start of
/// the run: a vertex that sleeps 2 ms executes for at least 2 ms, and every
/// event lies inside the run.
#[test]
fn engine_trace_is_stamped_on_the_wall_clock() {
    struct Sleepy;
    impl VertexProgram for Sleepy {
        type Value = ();
        type Message = ();
        fn init(&self, _v: VertexId, _g: &Graph) {}
        fn compute(&self, ctx: &mut Context<'_, Self>, _msgs: &[()]) {
            std::thread::sleep(std::time::Duration::from_millis(2));
            ctx.vote_to_halt();
        }
    }
    let out = Runner::new(gen::ring(4))
        .workers(1)
        .threads_per_worker(1)
        .trace(true)
        .run_program(Sleepy)
        .expect("config");
    assert!(out.converged);
    let obs = out.obs.expect("traced");
    assert_eq!(obs.makespan_ns, out.makespan_ns);
    let events = obs.trace.expect("trace enabled").all_events();
    let executions = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::VertexExecute);
    assert_eq!(executions.clone().count(), 4);
    for e in executions {
        assert!(
            e.dur_ns >= 2_000_000,
            "a 2 ms vertex traced as {} ns",
            e.dur_ns
        );
    }
    for e in &events {
        assert!(
            e.end_ns() <= out.makespan_ns,
            "{:?} ends at {} ns, after the run's {} ns",
            e.kind,
            e.end_ns(),
            out.makespan_ns
        );
    }
}

/// The GAS engine surfaces the same report (no supersteps: per_superstep
/// is empty, but breakdown and trace are live) and tracing is equally
/// side-effect-free there.
#[test]
fn gas_engine_reports_and_is_unaffected_by_tracing() {
    let g = Arc::new(gen::preferential_attachment(120, 3, 7));
    let run = |obs: ObsConfig| {
        let config = GasConfig {
            machines: 2,
            fibers_per_machine: 3,
            serializable: true,
            max_executions: 1_000_000,
            obs,
            ..Default::default()
        };
        AsyncGasEngine::new(Arc::clone(&g), GasSssp::new(VertexId::new(0)), config).run()
    };
    let plain = run(ObsConfig::default());
    let traced = run(instrumented());
    assert!(plain.obs.is_none());
    assert!(plain.converged && traced.converged);
    // Vertex-lock GAS scheduling is nondeterministic in *timing*, but SSSP
    // is value-deterministic: distances must agree regardless of tracing.
    assert_eq!(plain.values, traced.values);
    let obs = traced.obs.expect("report");
    assert!(obs.per_superstep.is_empty(), "GAS has no supersteps");
    assert_eq!(obs.per_worker.len(), 2);
    assert!(!obs.stalled);
    let buf = obs.trace.as_ref().expect("trace enabled");
    assert!(buf
        .all_events()
        .iter()
        .any(|e| e.kind == TraceEventKind::ForkTransfer));
}

/// Chrome trace export of a real run is structurally valid JSON: balanced
/// brackets, the two required top-level keys, and one metadata record per
/// worker thread.
#[test]
fn chrome_trace_export_is_well_formed() {
    let out = Runner::new(gen::paper_c4())
        .workers(2)
        .technique(Technique::DualToken)
        .observability(instrumented())
        .run_coloring()
        .expect("config");
    let obs = out.obs.expect("report");
    let mut json = Vec::new();
    obs.trace
        .as_ref()
        .expect("trace")
        .write_chrome_trace(&mut json)
        .expect("write");
    let json = String::from_utf8(json).expect("utf8");
    assert!(json.starts_with('{') && json.ends_with('}'));
    let balanced =
        |open: char, close: char| json.matches(open).count() == json.matches(close).count();
    assert!(balanced('{', '}') && balanced('[', ']'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\""));
    assert_eq!(json.matches("thread_name").count(), 2);
}
