//! Determinism and reproducibility guarantees: BSP executions are
//! bit-identical across runs; seeded generators and partitioners are
//! stable; AP/locking runs are schedule-dependent in *timing* but
//! value-deterministic for order-insensitive algorithms.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;

/// BSP with one compute thread per worker has no races: identical
/// configuration ⇒ identical everything, including message counters.
/// (With >1 thread per worker, dynamic partition claiming varies the
/// arrival order of messages combined by the non-associative f64 PageRank
/// combiner, so only single-threaded workers guarantee bit-identity.)
#[test]
fn bsp_runs_are_bit_identical() {
    let g = gen::datasets::or_sim(256);
    let run = || {
        Runner::new(g.clone())
            .workers(4)
            .threads_per_worker(1)
            .model(Model::Bsp)
            .run_pagerank(1e-4)
            .expect("config")
    };
    let a = run();
    let b = run();
    assert_eq!(a.supersteps, b.supersteps);
    assert_eq!(a.values, b.values);
    assert_eq!(a.metrics.local_messages, b.metrics.local_messages);
    assert_eq!(a.metrics.remote_messages, b.metrics.remote_messages);
    assert_eq!(a.metrics.vertex_executions, b.metrics.vertex_executions);
}

/// The Figure 2/3 configuration (1 thread/worker, barrier-only flush) is
/// deterministic even under AP — required for the exact state-sequence
/// reproductions.
#[test]
fn figure3_configuration_is_deterministic() {
    let run = || {
        Runner::new(gen::paper_c4())
            .workers(2)
            .partitions_per_worker(1)
            .threads_per_worker(1)
            .buffer_cap(usize::MAX)
            .explicit_partitions(validate::paper_c4_assignment())
            .max_supersteps(7)
            .run_conflict_fix_coloring()
            .expect("config")
    };
    let a = run();
    let b = run();
    assert_eq!(a.values, b.values);
    assert_eq!(a.metrics.total_messages(), b.metrics.total_messages());
}

/// Order-insensitive algorithms give identical *values* across repeated
/// concurrent runs even though scheduling varies.
#[test]
fn concurrent_runs_value_deterministic_for_monotone_algorithms() {
    let g = gen::preferential_attachment(300, 3, 55);
    let sssp = |technique| {
        Runner::new(g.clone())
            .workers(4)
            .threads_per_worker(2)
            .technique(technique)
            .run_sssp(VertexId::new(0))
            .expect("config")
            .values
    };
    let baseline = sssp(Technique::None);
    for _ in 0..3 {
        assert_eq!(sssp(Technique::None), baseline);
        assert_eq!(sssp(Technique::PartitionLock), baseline);
    }
}

/// Generators and partitioners are stable across calls (regression: the
/// preferential-attachment generator once depended on HashSet iteration
/// order).
#[test]
fn seeded_inputs_are_stable() {
    use serigraph::sg_graph::partition::{HashPartitioner, LdgPartitioner, Partitioner};

    let graphs = [
        gen::preferential_attachment(200, 3, 1),
        gen::rmat(9, 2_000, gen::datasets::SKEW, 2),
        gen::erdos_renyi(100, 300, true, 3),
        gen::watts_strogatz(120, 4, 0.2, 4),
    ];
    let again = [
        gen::preferential_attachment(200, 3, 1),
        gen::rmat(9, 2_000, gen::datasets::SKEW, 2),
        gen::erdos_renyi(100, 300, true, 3),
        gen::watts_strogatz(120, 4, 0.2, 4),
    ];
    for (a, b) in graphs.iter().zip(&again) {
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    let layout = ClusterLayout::new(3, 3);
    for p in [
        &HashPartitioner::new(7) as &dyn Partitioner,
        &LdgPartitioner::default(),
    ] {
        assert_eq!(p.assign(&graphs[0], &layout), p.assign(&graphs[0], &layout));
    }
}

/// The model checker's decision logs are proof objects: re-running one
/// against a fresh model reproduces the identical decision sequence and a
/// byte-identical serializability verdict, run after run.
#[test]
fn model_checker_replay_is_deterministic() {
    use serigraph::sg_check::{
        Counterexample, ExploreConfig, TechniqueKind, COUNTEREXAMPLE_SCHEMA_VERSION,
    };
    use serigraph::sg_graph::SplitMix64;

    let modelable =
        |t: &TechniqueKind| t.serializable() && ExploreConfig::smoke(*t).validate().is_ok();
    for technique in TechniqueKind::ALL.into_iter().filter(modelable) {
        // Record one random episode's decision log...
        let cfg = ExploreConfig::smoke(technique);
        let mut rng = SplitMix64::new(cfg.seed);
        let recorded =
            serigraph::sg_check::run_episode(&cfg, |enabled, _| rng.gen_index(enabled.len()), None);
        assert!(recorded.violation.is_none(), "{technique}");
        // ...and replay it twice through the counterexample machinery.
        let ce = Counterexample {
            schema_version: COUNTEREXAMPLE_SCHEMA_VERSION,
            config: cfg,
            decisions: recorded.decisions.clone(),
            violation: String::new(),
        };
        let a = ce.replay(None);
        let b = ce.replay(None);
        assert_eq!(a.decisions, recorded.decisions, "{technique}");
        assert_eq!(a.events, recorded.events, "{technique}");
        assert_eq!(
            a.summary.to_string(),
            recorded.summary.to_string(),
            "{technique}: replay diverged from the recorded episode"
        );
        assert_eq!(a.summary.to_string(), b.summary.to_string(), "{technique}");
    }
}

/// Simulated makespan for a deterministic configuration is reproducible
/// (barriers level clocks, BSP has no racing flush decisions).
#[test]
fn bsp_makespan_reproducible() {
    let g = gen::grid(20, 20);
    let run = || {
        Runner::new(g.clone())
            .workers(3)
            .threads_per_worker(1)
            .model(Model::Bsp)
            .simulated(SimOptions::default())
            .run_sssp(VertexId::new(0))
            .expect("config")
    };
    assert_eq!(run().makespan_ns, run().makespan_ns);
}
