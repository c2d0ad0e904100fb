//! The `sg-sim` discrete-event cluster simulator: determinism, fidelity
//! against the in-process engine, and serializability of simulated runs.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;
use serigraph::sg_sim::simulate;
use std::sync::Arc;

fn sim_config(workers: u32, technique: Technique) -> EngineConfig {
    EngineConfig {
        workers,
        partitions_per_worker: Some(4),
        threads_per_worker: 2,
        technique,
        record_history: true,
        max_supersteps: 10_000,
        ..EngineConfig::default()
    }
}

/// Same seed ⇒ bit-identical event order, makespan, and merged history —
/// and the replayed history verifies 1SR.
#[test]
fn same_seed_replays_bit_identically_and_serializably() {
    let g = Arc::new(gen::datasets::or_sim(256).to_undirected());
    let cfg = sim_config(8, Technique::DualToken);
    let opts = SimOptions::with_jitter(15, 0xFEED);
    let run = || simulate(Arc::clone(&g), GreedyColoring, None, &cfg, &opts).expect("sim");
    let a = run();
    let b = run();
    assert_eq!(a.digest, b.digest, "event walks must be bit-identical");
    assert_eq!(a.events, b.events);
    assert_eq!(a.outcome.makespan_ns, b.outcome.makespan_ns);
    assert_eq!(a.outcome.values, b.outcome.values);
    assert_eq!(a.outcome.supersteps, b.outcome.supersteps);
    let ha = a.outcome.history.expect("recorded");
    let hb = b.outcome.history.expect("recorded");
    assert_eq!(ha.len(), hb.len(), "merged histories must match");
    assert!(ha.is_one_copy_serializable(&g), "replayed history is 1SR");

    // A different jitter seed walks a different schedule.
    let other = SimOptions::with_jitter(15, 0xBEEF);
    let c = simulate(Arc::clone(&g), GreedyColoring, None, &cfg, &other).expect("sim");
    assert_ne!(a.digest, c.digest, "different seeds diverge");
}

/// 4-worker sim and the in-process engine agree on algorithm results when
/// given the same graph and partitioning.
#[test]
fn sim_and_engine_agree_on_algorithm_results() {
    let g = gen::datasets::or_sim(256);
    let runner = |simulated: bool| {
        let r = Runner::new(g.clone())
            .workers(4)
            .threads_per_worker(2)
            .technique(Technique::PartitionLock)
            .max_supersteps(10_000);
        if simulated {
            r.simulated(SimOptions::default())
        } else {
            r
        }
    };

    // Coloring: schedules differ, but both must be proper colorings.
    let ug = g.to_undirected();
    let color = |simulated: bool| {
        let r = Runner::new(ug.clone())
            .workers(4)
            .threads_per_worker(2)
            .technique(Technique::PartitionLock)
            .max_supersteps(10_000);
        let r = if simulated {
            r.simulated(SimOptions::default())
        } else {
            r
        };
        r.run_coloring().expect("config")
    };
    let (ce, cs) = (color(false), color(true));
    assert!(ce.converged && cs.converged);
    assert_eq!(validate::coloring_conflicts(&ug, &ce.values), 0);
    assert_eq!(validate::coloring_conflicts(&ug, &cs.values), 0);

    // WCC and SSSP converge to the unique fixpoint: exact agreement.
    let (we, ws) = (
        runner(false).run_wcc().expect("config"),
        runner(true).run_wcc().expect("config"),
    );
    assert_eq!(we.values, ws.values, "WCC labels must agree exactly");

    let (se, ss) = (
        runner(false).run_sssp(VertexId::new(0)).expect("config"),
        runner(true).run_sssp(VertexId::new(0)).expect("config"),
    );
    assert_eq!(se.values, ss.values, "SSSP distances must agree exactly");

    // PageRank: async schedules leave sub-threshold residuals in different
    // places; agreement is approximate.
    let (pe, ps) = (
        runner(false).run_pagerank(0.01).expect("config"),
        runner(true).run_pagerank(0.01).expect("config"),
    );
    assert!(pe.converged && ps.converged);
    for (i, (a, b)) in pe.values.iter().zip(&ps.values).enumerate() {
        assert!(
            (a - b).abs() < 0.05 + 0.02 * a.abs(),
            "pagerank diverged at vertex {i}: engine {a} vs sim {b}"
        );
    }
}

/// Under BSP the schedule is the barrier's, not the threads': the
/// simulator and the in-process engine close every superstep with the same
/// code, so Proposition 1 runs the same sub-supersteps on both — the same
/// colours, superstep count, executions, message split and fork moves —
/// and plain BSP reaches the same WCC labels and SSSP distances.
#[test]
fn simulator_and_engine_agree_exactly_under_bsp() {
    let g = gen::grid(6, 6);
    let bsp = |technique: Technique, simulated: bool| {
        let r = Runner::new(g.clone())
            .workers(3)
            .threads_per_worker(1)
            .model(Model::Bsp)
            .technique(technique)
            .record_history(true)
            .max_supersteps(10_000);
        if simulated {
            r.simulated(SimOptions::default())
        } else {
            r
        }
    };

    let locked = |simulated| {
        let out = bsp(Technique::BspVertexLock, simulated)
            .run_coloring()
            .expect("config");
        assert!(out.converged, "simulated={simulated}");
        let h = out.history.as_ref().expect("recorded");
        assert!(h.is_one_copy_serializable(&g), "simulated={simulated}");
        out
    };
    let (engine, sim) = (locked(false), locked(true));
    assert_eq!(sim.values, engine.values, "colours");
    assert_eq!(validate::coloring_conflicts(&g, &sim.values), 0);
    assert_eq!((sim.supersteps, engine.supersteps), (14, 14));
    let counts = |m: &MetricsSnapshot| {
        let split = (m.local_messages, m.remote_messages);
        let forks = (m.fork_transfers, m.fork_transfers_remote);
        (m.vertex_executions, split, forks)
    };
    assert_eq!(counts(&sim.metrics), counts(&engine.metrics));
    // The 159 cross-worker moves `tests/proposition1.rs` traces.
    assert_eq!(sim.metrics.fork_transfers_remote, 159);

    let plain = |simulated| bsp(Technique::None, simulated);
    let (we, ws) = (plain(false).run_wcc(), plain(true).run_wcc());
    assert_eq!(ws.expect("config").values, we.expect("config").values);
    let source = VertexId::new(0);
    let (se, ss) = (plain(false).run_sssp(source), plain(true).run_sssp(source));
    assert_eq!(ss.expect("config").values, se.expect("config").values);
}

/// Every serializable technique produces a verified-1SR history in the
/// simulator, at a worker count the in-process engine could not thread —
/// Proposition 1 on BSP among them.
#[test]
fn simulated_histories_verify_1sr_at_scale() {
    let g = Arc::new(gen::ring(256).to_undirected());
    for (model, technique) in [
        (Model::Async, Technique::SingleToken),
        (Model::Async, Technique::DualToken),
        (Model::Async, Technique::VertexLock),
        (Model::Async, Technique::PartitionLock),
        (Model::Bsp, Technique::BspVertexLock),
    ] {
        let cfg = EngineConfig {
            workers: 64,
            partitions_per_worker: Some(1),
            threads_per_worker: 2,
            model,
            technique,
            record_history: true,
            max_supersteps: 10_000,
            ..EngineConfig::default()
        };
        let r = simulate(
            Arc::clone(&g),
            GreedyColoring,
            None,
            &cfg,
            &SimOptions::default(),
        )
        .expect("sim");
        assert!(r.outcome.converged, "{technique:?} converges");
        assert_eq!(
            validate::coloring_conflicts(&g, &r.outcome.values),
            0,
            "{technique:?} colors properly at 64 workers"
        );
        let h = r.outcome.history.expect("recorded");
        assert!(
            h.is_one_copy_serializable(&g),
            "{technique:?} history is 1SR at 64 workers"
        );
    }
}

/// Regression: the simulator's sender-side combiner folds staged messages
/// and adopts the latest sender, and so does a BSP next store; the
/// absorbed sender's message must still be accounted visible, or its pair
/// reads stale for the rest of the run.
#[test]
fn simulated_combiner_keeps_the_c1_ledger_balanced() {
    let g = Arc::new(gen::datasets::or_sim(256).to_undirected());
    for (model, technique) in [
        (Model::Async, Technique::PartitionLock),
        (Model::Async, Technique::DualToken),
        (Model::Bsp, Technique::BspVertexLock),
    ] {
        let cfg = EngineConfig {
            model,
            ..sim_config(4, technique)
        };
        let combiner = Some(Box::new(Wcc::combiner()) as _);
        let r = simulate(Arc::clone(&g), Wcc, combiner, &cfg, &SimOptions::default()).expect("sim");
        assert!(r.outcome.converged, "{technique:?}");
        assert!(r.outcome.metrics.sender_combines > 0, "{technique:?} folds");
        assert_eq!(r.outcome.values, validate::wcc_reference(&g));
        let h = r.outcome.history.expect("recorded");
        assert!(h.c1_violations().is_empty(), "{technique:?}: C1 violated");
        assert!(h.is_one_copy_serializable(&g), "{technique:?}: not 1SR");
    }
}

/// Simulated trace events drive the unchanged critical-path profiler.
#[test]
fn simulated_trace_feeds_critical_path_profiler() {
    let out = Runner::new(gen::datasets::or_sim(256))
        .workers(32)
        .partitions_per_worker(2)
        .technique(Technique::DualToken)
        .max_supersteps(10_000)
        .trace(true)
        .simulated(SimOptions::default())
        .run_pagerank(0.1)
        .expect("config");
    let obs = out.obs.expect("traced");
    let buf = obs.trace.expect("buffer");
    let cp = serigraph::sg_metrics::critical_path::analyze_buffer(&buf, out.makespan_ns);
    assert_eq!(cp.makespan_ns, out.makespan_ns);
    // The whole makespan is attributed; under a token ring most of it is
    // serialization, and everything is causally explained.
    let total: u64 = serigraph::sg_metrics::critical_path::Category::ALL
        .iter()
        .map(|&c| cp.attribution.get(c))
        .sum();
    assert_eq!(total, cp.makespan_ns, "attribution tiles the makespan");
}
