//! Proposition 1 end-to-end: constrained vertex-based locking makes the
//! **BSP** model serializable — at a measurable sub-superstep cost.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

fn bsp_locked(g: &Graph, workers: u32) -> Runner {
    Runner::new(g.clone())
        .workers(workers)
        .model(Model::Bsp)
        .technique(Technique::BspVertexLock)
        .max_supersteps(10_000)
}

/// The headline: BSP + Proposition 1 produces proper colorings — the same
/// algorithm that colors everything 0 under plain BSP.
#[test]
fn bsp_coloring_becomes_proper() {
    let g = gen::preferential_attachment(150, 3, 77);
    let plain = Runner::new(g.clone())
        .workers(3)
        .model(Model::Bsp)
        .run_coloring()
        .expect("config");
    assert!(
        validate::coloring_conflicts(&g, &plain.values) > 0,
        "plain BSP must conflict"
    );

    let locked = bsp_locked(&g, 3).run_coloring().expect("config");
    assert!(locked.converged);
    assert!(validate::all_colored(&locked.values));
    assert_eq!(validate::coloring_conflicts(&g, &locked.values), 0);
}

/// Recorded histories under BSP + Proposition 1 pass the full Theorem 1
/// battery: fresh reads (C1), no neighboring overlap (C2), acyclic
/// serialization graph.
#[test]
fn bsp_locked_history_is_one_copy_serializable() {
    let g = gen::complete(10);
    let out = bsp_locked(&g, 3)
        .record_history(true)
        .run_coloring()
        .expect("config");
    assert!(out.converged);
    let h = out.history.expect("recorded");
    assert!(h.c1_violations().is_empty(), "stale reads under Prop. 1");
    assert!(
        h.c2_violations(&g).is_empty(),
        "neighbor overlap under Prop. 1"
    );
    assert!(h.is_one_copy_serializable(&g));
}

/// MIS — the other serializability-dependent algorithm — also becomes
/// correct on BSP.
#[test]
fn bsp_mis_becomes_maximal_independent() {
    let g = gen::preferential_attachment(100, 3, 78);
    let out = bsp_locked(&g, 2).run_mis().expect("config");
    assert!(out.converged);
    let members = serigraph::sg_algos::mis::membership(&out.values);
    assert!(validate::is_maximal_independent_set(&g, &members));
}

/// Results for order-insensitive algorithms are unchanged; only the
/// schedule differs.
#[test]
fn bsp_locked_sssp_and_wcc_still_exact() {
    let g = gen::preferential_attachment(120, 3, 79);
    let sssp = bsp_locked(&g, 3)
        .run_sssp(VertexId::new(0))
        .expect("config");
    assert!(sssp.converged);
    let want = validate::bfs_distances(&g, VertexId::new(0));
    for (got, want) in sssp.values.iter().zip(&want) {
        assert_eq!(got, want);
    }
    let wcc = bsp_locked(&g, 3).run_wcc().expect("config");
    assert_eq!(wcc.values, validate::wcc_reference(&g));
}

/// The cost the paper predicted: sub-supersteps multiply the superstep
/// count relative to the asynchronous techniques.
#[test]
fn proposition1_pays_in_supersteps() {
    let g = gen::preferential_attachment(150, 3, 80);
    let bsp = bsp_locked(&g, 3).run_coloring().expect("config");
    let async_lock = Runner::new(g.clone())
        .workers(3)
        .technique(Technique::PartitionLock)
        .run_coloring()
        .expect("config");
    assert!(
        bsp.supersteps > 2 * async_lock.supersteps,
        "expected sub-superstep overhead: BSP {} vs async {}",
        bsp.supersteps,
        async_lock.supersteps
    );
}

/// Configuration guard rails: the Proposition 1 technique is BSP-only and
/// the async techniques remain banned from BSP.
#[test]
fn model_technique_pairing_enforced() {
    let g = gen::ring(8);
    let err = Runner::new(g.clone())
        .model(Model::Async)
        .technique(Technique::BspVertexLock)
        .run_coloring()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    let err = Runner::new(g)
        .model(Model::Bsp)
        .technique(Technique::PartitionLock)
        .run_coloring()
        .unwrap_err();
    assert_eq!(err, EngineError::BspWithSynchronization);
}

/// `BspVertexLock` reports `LockGranularity::None` — it blocks nobody — yet
/// the forks it moves at barriers carry a unit, and every host tells a
/// fork from a ring token by that unit: every move is traced as a
/// `ForkTransfer` and gates no whole worker (BSP's barrier levels the
/// clocks anyway). The simulator prices the run exactly.
#[test]
fn bsp_fork_moves_are_charged_and_traced_as_fork_transfers() {
    use serigraph::sg_metrics::TraceEventKind;
    let out = bsp_locked(&gen::grid(6, 6), 3)
        .threads_per_worker(1)
        .trace(true)
        .simulated(SimOptions::default())
        .run_coloring()
        .expect("config");
    let events = out.obs.expect("traced").trace.expect("buffer").all_events();
    let count = |k| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(out.supersteps, 14);
    assert_eq!(count(TraceEventKind::RingPass), 0);
    assert_eq!(count(TraceEventKind::ForkTransfer), 159);
    assert_eq!(out.makespan_ns, 37_573_360);
}
