//! Model-checking regression harness over `sg-check`: the serializable
//! techniques the model hosts explore clean at the smoke budget, the
//! checker catches real violations on the unsynchronized control, a seeded
//! protocol bug (a token ring that drops delayed passes) is found by
//! every exploration strategy and reproduced by counterexample replay, and
//! the model's schedules are pinned event for event.

use serigraph::sg_check::{
    explore, run_episode, Counterexample, ExploreConfig, FaultPlan, GraphSpec, StrategyKind,
    TechniqueKind,
};

/// Every serializable technique the model hosts: the paper's four, the
/// no-skip ablation of partition locking, and Proposition 1 on BSP.
fn serializable() -> impl Iterator<Item = TechniqueKind> {
    (TechniqueKind::ALL.into_iter())
        .filter(|&t| t.serializable() && ExploreConfig::smoke(t).validate().is_ok())
}

/// ISSUE acceptance: bounded exploration on every modelable technique —
/// `partition-lock/noskip` among them, since the shared factory builds it
/// — finds nothing at the smoke budget, under every strategy, and the
/// per-episode Theorem 1 batch verdict agrees.
#[test]
fn serializable_techniques_are_clean_at_the_smoke_budget() {
    assert!(serializable().any(|t| t == TechniqueKind::PartitionLockNoSkip));
    for technique in serializable() {
        for strategy in StrategyKind::ALL {
            let mut cfg = ExploreConfig::smoke(technique);
            cfg.strategy = strategy;
            cfg.episodes = 16;
            let report = explore(&cfg);
            assert!(
                report.violation.is_none(),
                "{technique}/{strategy}: {:?}",
                report.violation
            );
            let summary = report.clean_summary.expect("episodes ran");
            assert!(summary.one_copy_serializable, "{technique}/{strategy}");
        }
    }
}

/// The paper's denser workloads stay clean too: a clique (maximal
/// contention) and the running C4 example, on the adversary schedule
/// built to maximize overlap windows.
#[test]
fn adversary_finds_nothing_on_contended_workloads() {
    for (graph, workers, ppw) in [
        (GraphSpec::Complete(6), 3, 1),
        (GraphSpec::PaperC4, 2, 1),
        (GraphSpec::Grid(3, 4), 2, 2),
    ] {
        for technique in serializable() {
            let mut cfg = ExploreConfig::smoke(technique);
            cfg.graph = graph;
            cfg.workers = workers;
            cfg.ppw = ppw;
            cfg.strategy = StrategyKind::Adversary;
            cfg.episodes = 8;
            let report = explore(&cfg);
            assert!(
                report.violation.is_none(),
                "{technique} on {graph}: {:?}",
                report.violation
            );
        }
    }
}

/// Negative control: with no synchronization the checkers must find C1/C2
/// violations — a checker that never fires proves nothing.
#[test]
fn unsynchronized_execution_is_caught() {
    let mut cfg = ExploreConfig::smoke(TechniqueKind::None);
    cfg.graph = GraphSpec::Complete(6);
    cfg.ppw = 1;
    cfg.supersteps = 2;
    let report = explore(&cfg);
    assert!(report.violation.is_some(), "NoSync explored clean");
}

/// The known-bug regression: a broken ring that loses any token pass not
/// delivered immediately. Every strategy must find it within the smoke
/// budget, and the counterexample must replay to the same violation with
/// a byte-identical history verdict.
#[test]
fn every_strategy_finds_the_broken_ring_and_replays_it() {
    // The single-layer ring passes after every superstep; the dual-layer
    // global ring only after each worker's ppw local rotations — target
    // each technique's first actual pass.
    for (technique, vulnerable) in [
        (TechniqueKind::SingleToken, 0),
        (TechniqueKind::DualToken, 1),
    ] {
        for strategy in StrategyKind::ALL {
            let mut cfg = ExploreConfig::smoke(technique);
            cfg.strategy = strategy;
            cfg.supersteps = 2;
            cfg.fault = FaultPlan::DropDelayedTokenPass {
                superstep: vulnerable,
            };
            let report = explore(&cfg);
            let found = report
                .violation
                .unwrap_or_else(|| panic!("{technique}/{strategy} missed the broken ring"));
            assert_eq!(
                found.violation.code(),
                "token-lost",
                "{technique}/{strategy}"
            );

            let ce = Counterexample::from_report(&cfg, &found);
            let replayed = ce.replay(None);
            assert_eq!(
                replayed.violation.as_ref().map(|v| v.code()),
                Some("token-lost"),
                "{technique}/{strategy}: counterexample did not reproduce"
            );
            assert_eq!(
                replayed.decisions, found.decisions,
                "{technique}/{strategy}"
            );
            let again = ce.replay(None);
            assert_eq!(
                replayed.summary.to_string(),
                again.summary.to_string(),
                "{technique}/{strategy}: replay not byte-identical"
            );
        }
    }
}

/// The straight-line schedule (always take the first enabled event) never
/// triggers the seeded fault — the bug is genuinely reorder-dependent,
/// which is exactly what exploration buys over plain testing.
#[test]
fn the_seeded_bug_is_invisible_without_reordering() {
    let mut cfg = ExploreConfig::smoke(TechniqueKind::SingleToken);
    cfg.supersteps = 2;
    cfg.fault = FaultPlan::DropDelayedTokenPass { superstep: 0 };
    let straight = Counterexample {
        schema_version: serigraph::sg_check::COUNTEREXAMPLE_SCHEMA_VERSION,
        config: cfg,
        decisions: Vec::new(),
        violation: String::new(),
    };
    let outcome = straight.replay(None);
    assert!(
        outcome.violation.is_none(),
        "straight-line schedule hit the fault: {:?}",
        outcome.violation
    );
    assert!(outcome.summary.one_copy_serializable);
}

/// The model's history checker is the same `sg-serial` machinery the
/// engines use — sanity-check the re-export wiring end to end.
#[test]
fn model_histories_flow_through_sg_serial() {
    let cfg = ExploreConfig::smoke(TechniqueKind::PartitionLock);
    let mut report = explore(&cfg);
    let summary = report.clean_summary.take().expect("clean run");
    assert_eq!(summary.c1_violations, 0);
    assert_eq!(summary.c2_violations, 0);
    assert!(summary.serialization_graph_acyclic);
    // The summary type IS sg-serial's — the model records real histories.
    let _: serigraph::sg_serial::HistorySummary = summary;
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        // Not the textbook FNV prime (2^40 + 0x1b3): the digests below were
        // taken with 2^44 + 0x1b3, and any odd multiplier pins an order.
        *h = (*h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
}

/// One seeded random episode, digested: at each branching point fold the
/// `Display` of every enabled event, in order, then the decimal choice.
fn decision_log(cfg: &ExploreConfig) -> (usize, usize, u64, Option<&'static str>) {
    let mut rng = serigraph::sg_graph::SplitMix64::new(cfg.seed);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let outcome = run_episode(
        cfg,
        |enabled, _| {
            for e in enabled {
                fnv1a(&mut digest, e.to_string().as_bytes());
            }
            let choice = rng.gen_index(enabled.len());
            fnv1a(&mut digest, choice.to_string().as_bytes());
            choice
        },
        None,
    );
    let code = outcome.violation.as_ref().map(|v| v.code());
    (outcome.events, outcome.decisions.len(), digest, code)
}

/// The model's schedules are pinned event for event: every row below —
/// events / decisions / digest of every enabled set and choice, per
/// technique — was measured when the model became a host of the engines'
/// message datapath (`ship`/`land` events, `barrier::close`, the recorder's
/// audit). The token rows are the ones measured before that change: their
/// walks never put a batch on the wire towards a worker still reading. The
/// unsynchronized control stops at the named violation, reported when the
/// offending transaction's record lands; the rest run clean. `ring:3` on 4 x 2 leaves at least five of the eight partitions
/// empty (the walk's `has_work` case).
#[test]
fn decision_logs_are_stable() {
    use TechniqueKind::{DualToken, PartitionLock, SingleToken, VertexLock};
    let techniques = [
        TechniqueKind::None,
        SingleToken,
        DualToken,
        VertexLock,
        PartitionLock,
    ];
    let workloads = [
        (
            ("ring:8", 2, 2, "c1-stale-read"),
            [
                (13, 13, "852877c1025c3dc4"),
                (52, 13, "81d203a4ad441e7d"),
                (50, 28, "b006ff292e03fd44"),
                (191, 168, "c03c20b64ad8ce41"),
                (152, 102, "3b59d7add7b7c9ca"),
            ],
        ),
        (
            ("grid:3x4", 2, 2, "c1-stale-read"),
            [
                (23, 23, "2da13a5d594b46f9"),
                (91, 51, "5849ebddc65d7a0e"),
                (61, 38, "9181b15e419930b7"),
                (254, 213, "cca5868b8bc8bd47"),
                (204, 155, "2c5d31c20c34d7be"),
            ],
        ),
        (
            ("complete:6", 3, 1, "c2-neighbor-overlap"),
            [
                (11, 11, "877684fb00bc66f9"),
                (38, 19, "7303d7879d04ca2b"),
                (38, 19, "7303d7879d04ca2b"),
                (173, 107, "0f55ba524994d4a4"),
                (130, 82, "9d2efaa1897fe52c"),
            ],
        ),
        (
            ("ring:3", 4, 2, "c2-neighbor-overlap"),
            [
                (8, 8, "cdd0a2844f52e285"),
                (34, 19, "39c1d3191c9ecd68"),
                (30, 18, "c033be4e32d8c263"),
                (90, 55, "74549f087d9c3693"),
                (90, 55, "74549f087d9c3693"),
            ],
        ),
    ];
    for ((graph, workers, ppw, uncontrolled), rows) in workloads {
        for (technique, (events, decisions, digest)) in techniques.into_iter().zip(rows) {
            let cfg = ExploreConfig {
                graph: GraphSpec::parse(graph).expect("valid spec"),
                workers,
                ppw,
                ..ExploreConfig::smoke(technique)
            };
            let (e, d, h, violation) = decision_log(&cfg);
            assert_eq!(
                (e, d, format!("{h:016x}").as_str()),
                (events, decisions, digest),
                "{technique} on {graph} {workers}x{ppw}"
            );
            let expected = (!technique.serializable()).then_some(uncontrolled);
            assert_eq!(violation, expected, "{technique} on {graph}");
        }
    }
    // And the explorer's totals: 8 episodes on the smoke workload.
    for (technique, adversary, dfs) in [
        (SingleToken, 416, 416),
        (DualToken, 400, 400),
        (VertexLock, 1341, 1152),
        (PartitionLock, 1071, 906),
    ] {
        for (strategy, total) in [
            (StrategyKind::Adversary, adversary),
            (StrategyKind::Dfs, dfs),
        ] {
            let cfg = ExploreConfig {
                strategy,
                episodes: 8,
                ..ExploreConfig::smoke(technique)
            };
            assert_eq!(explore(&cfg).total_events, total, "{technique}/{strategy}");
        }
    }
}
