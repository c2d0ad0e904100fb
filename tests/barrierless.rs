//! Barrierless asynchronous execution (the paper's reference [20]):
//! per-worker logical supersteps, quiescence-based termination, and —
//! because the Section 3 formalism does not depend on globally coordinated
//! supersteps — full serializability under the locking techniques with no
//! global barrier at all.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

fn runner(g: &Graph, technique: Technique, workers: u32) -> Runner {
    Runner::new(g.clone())
        .workers(workers)
        .threads_per_worker(2)
        .technique(technique)
        .barrierless(true)
        .max_supersteps(100_000)
}

#[test]
fn sssp_exact_without_barriers() {
    let g = gen::preferential_attachment(200, 3, 44);
    for technique in [
        Technique::None,
        Technique::VertexLock,
        Technique::PartitionLock,
    ] {
        let out = runner(&g, technique, 3)
            .run_sssp(VertexId::new(0))
            .expect("config");
        assert!(out.converged, "{technique:?}");
        let want = validate::bfs_distances(&g, VertexId::new(0));
        for (got, want) in out.values.iter().zip(&want) {
            assert_eq!(got, want, "{technique:?}");
        }
    }
}

#[test]
fn wcc_exact_without_barriers() {
    let g = gen::preferential_attachment(150, 2, 45);
    let out = runner(&g, Technique::PartitionLock, 4)
        .run_wcc()
        .expect("config");
    assert!(out.converged);
    assert_eq!(out.values, validate::wcc_reference(&g));
}

#[test]
fn coloring_proper_with_locking_no_barriers() {
    let g = gen::preferential_attachment(200, 4, 46);
    for technique in [Technique::VertexLock, Technique::PartitionLock] {
        let out = runner(&g, technique, 3).run_coloring().expect("config");
        assert!(out.converged, "{technique:?}");
        assert!(validate::all_colored(&out.values), "{technique:?}");
        assert_eq!(
            validate::coloring_conflicts(&g, &out.values),
            0,
            "{technique:?}"
        );
    }
}

#[test]
fn barrierless_locked_history_is_serializable() {
    let g = gen::complete(12);
    let out = runner(&g, Technique::PartitionLock, 3)
        .record_history(true)
        .run_coloring()
        .expect("config");
    assert!(out.converged);
    let h = out.history.expect("recorded");
    assert!(
        h.c1_violations().is_empty(),
        "C1 must hold without barriers"
    );
    assert!(
        h.c2_violations(&g).is_empty(),
        "C2 must hold without barriers"
    );
    assert!(h.is_one_copy_serializable(&g));
}

#[test]
fn barrierless_pays_no_barrier_cost() {
    // Same workload, with and without barriers: the barrierless run never
    // crosses a global barrier — reference [20]'s motivation — so it
    // counts none and its trace holds no barrier wait.
    use serigraph::sg_metrics::TraceEventKind;
    let g = gen::preferential_attachment(300, 3, 47);
    let with_barriers = Runner::new(g.clone())
        .workers(4)
        .technique(Technique::PartitionLock)
        .trace(true)
        .run_sssp(VertexId::new(0))
        .expect("config");
    let without = runner(&g, Technique::PartitionLock, 4)
        .trace(true)
        .run_sssp(VertexId::new(0))
        .expect("config");
    assert!(with_barriers.converged && without.converged);
    assert_eq!(without.metrics.barriers, 0);
    assert!(with_barriers.metrics.barriers > 0);
    let barrier_waits = |out: &Outcome<u64>| {
        let trace = out.obs.as_ref().and_then(|o| o.trace.as_ref());
        let events = trace.expect("traced").all_events();
        let waits = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::BarrierWait);
        waits.count()
    };
    assert_eq!(barrier_waits(&without), 0);
    assert!(barrier_waits(&with_barriers) > 0);
}

#[test]
fn mis_maximal_without_barriers() {
    let g = gen::preferential_attachment(150, 3, 48);
    let out = runner(&g, Technique::PartitionLock, 3)
        .run_mis()
        .expect("config");
    assert!(out.converged);
    let members = serigraph::sg_algos::mis::membership(&out.values);
    assert!(validate::is_maximal_independent_set(&g, &members));
}

#[test]
fn empty_and_quiet_graphs_terminate() {
    let g = Graph::from_edges(5, &[]);
    let out = runner(&g, Technique::None, 2).run_wcc().expect("config");
    assert!(out.converged);
    assert_eq!(out.values, vec![0, 1, 2, 3, 4]);
}

#[test]
fn invalid_combinations_rejected() {
    let g = gen::ring(6);
    // Token passing needs global supersteps.
    let err = runner(&g, Technique::DualToken, 2).run_wcc().unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    // BSP cannot be barrierless.
    let err = Runner::new(g.clone())
        .model(Model::Bsp)
        .barrierless(true)
        .run_wcc()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)));
    // Checkpoints are barrier-based.
    let err = runner(&g, Technique::None, 2)
        .checkpoint_every(2)
        .run_wcc()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)));
}
