//! Section 6.4 fault tolerance: barrier checkpoints capture a consistent
//! state (no executing vertices, no in-flight messages, no fork or token
//! in transit), and recovery from an injected failure reproduces the exact
//! no-failure result.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

fn base(technique: Technique) -> Runner {
    Runner::new(gen::preferential_attachment(120, 3, 91))
        .workers(3)
        .threads_per_worker(2)
        .technique(technique)
        .max_supersteps(5_000)
}

#[test]
fn recovery_reproduces_wcc_exactly() {
    let clean = base(Technique::None).run_wcc().expect("config");
    assert!(clean.converged);
    let failed = base(Technique::None)
        .checkpoint_every(2)
        .fail_at_superstep(3)
        .run_wcc()
        .expect("config");
    assert!(failed.converged);
    assert_eq!(failed.values, clean.values);
    assert_eq!(failed.metrics.recoveries, 1);
    assert!(failed.metrics.checkpoints >= 1);
    assert!(
        failed.supersteps > clean.supersteps,
        "recovery must redo work: {} vs {}",
        failed.supersteps,
        clean.supersteps
    );
}

#[test]
fn recovery_under_partition_lock_keeps_serializability_guarantees() {
    // The checkpoint records the fork table (Section 6.4: "record the
    // relevant data structures used by the synchronization techniques");
    // the recovered run must still produce a proper coloring.
    let g = gen::preferential_attachment(120, 3, 92);
    let out = Runner::new(g.clone())
        .workers(3)
        .technique(Technique::PartitionLock)
        .checkpoint_every(1)
        .fail_at_superstep(1)
        .run_coloring()
        .expect("config");
    assert!(out.converged);
    assert_eq!(out.metrics.recoveries, 1);
    assert!(validate::all_colored(&out.values));
    assert_eq!(validate::coloring_conflicts(&g, &out.values), 0);
}

#[test]
fn failure_without_periodic_checkpoints_restarts_from_superstep_zero() {
    let clean = base(Technique::None)
        .run_sssp(VertexId::new(0))
        .expect("config");
    let failed = base(Technique::None)
        .fail_at_superstep(2) // only the implicit superstep-0 checkpoint exists
        .run_sssp(VertexId::new(0))
        .expect("config");
    assert!(failed.converged);
    assert_eq!(failed.values, clean.values);
    // Redid supersteps 0..=2 entirely.
    assert_eq!(failed.supersteps, clean.supersteps + 3);
}

#[test]
fn failure_after_convergence_point_never_triggers() {
    let out = base(Technique::None)
        .checkpoint_every(2)
        .fail_at_superstep(4_999)
        .run_wcc()
        .expect("config");
    assert!(out.converged);
    assert_eq!(out.metrics.recoveries, 0);
}

#[test]
fn pagerank_with_aggregators_survives_recovery() {
    let g = gen::preferential_attachment(100, 3, 93);
    let clean = Runner::new(g.clone())
        .workers(2)
        .run_pagerank(1e-7)
        .expect("config");
    let failed = Runner::new(g)
        .workers(2)
        .checkpoint_every(3)
        .fail_at_superstep(4)
        .run_pagerank(1e-7)
        .expect("config");
    assert!(clean.converged && failed.converged);
    for (a, b) in clean.values.iter().zip(&failed.values) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}

#[test]
fn token_technique_recovery() {
    // Token holders are derived from the superstep number, so rolling the
    // superstep back also rolls the ring back — recovery stays consistent.
    let g = gen::preferential_attachment(80, 3, 94);
    let out = Runner::new(g.clone())
        .workers(3)
        .threads_per_worker(1)
        .technique(Technique::SingleToken)
        .checkpoint_every(4)
        .fail_at_superstep(6)
        .run_coloring()
        .expect("config");
    assert!(out.converged);
    assert_eq!(out.metrics.recoveries, 1);
    assert_eq!(validate::coloring_conflicts(&g, &out.values), 0);
}

#[test]
fn proposition1_recovery_restores_the_fork_placement() {
    // BspVertexLock's forks and tokens move only at barriers, so they are
    // checkpointed with the superstep; rolling back must replay the exact
    // failure-free schedule from there.
    let g = gen::preferential_attachment(120, 3, 95);
    let run = |failing: bool| {
        let r = Runner::new(g.clone())
            .workers(3)
            .threads_per_worker(2)
            .model(Model::Bsp)
            .technique(Technique::BspVertexLock)
            .max_supersteps(5_000);
        let r = if failing {
            r.checkpoint_every(4).fail_at_superstep(10)
        } else {
            r
        };
        r.run_coloring().expect("config")
    };
    let (clean, failed) = (run(false), run(true));
    assert!(clean.converged && failed.converged);
    assert_eq!(validate::coloring_conflicts(&g, &clean.values), 0);
    assert_eq!(failed.values, clean.values);
    assert_eq!(failed.metrics.recoveries, 1);
    // Superstep 10 failed after the checkpoint at 8: 8, 9 and 10 run twice.
    assert_eq!((clean.supersteps, failed.supersteps), (28, 31));
}

#[test]
fn history_plus_failure_injection_rejected() {
    let err = base(Technique::None)
        .record_history(true)
        .fail_at_superstep(1)
        .run_wcc()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)));
}
