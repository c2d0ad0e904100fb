//! Message-datapath semantics: the store's layout and locking and where
//! the combiner folds (at the receiving inbox in the thread engine) must be
//! invisible to programs — same delivered multisets, same combined values,
//! same serializability guarantees — under every technique, thread count,
//! and flush cadence.
//!
//! Seeded with the in-repo [`SplitMix64`], so every run explores exactly
//! the same case set.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;
use serigraph::sg_engine::store::PartitionStore;
use serigraph::sg_engine::{Combiner, MinCombiner};
use sg_graph::SplitMix64;
use std::sync::Arc;

/// Random undirected graph over `3..max_n` vertices (builder symmetrizes).
fn random_undirected(rng: &mut SplitMix64, max_n: u32, max_edges: usize) -> Graph {
    let n = 3 + rng.gen_range(u64::from(max_n - 3)) as u32;
    let m = rng.gen_index(max_edges + 1);
    let mut b = GraphBuilder::new();
    b.symmetric(true).reserve_vertices(n);
    b.add_edges((0..m).map(|_| {
        (
            rng.gen_range(u64::from(n)) as u32,
            rng.gen_range(u64::from(n)) as u32,
        )
    }));
    b.build()
}

/// Store stress (the name dates from the lock-striped store; the property
/// does not): concurrent inserts from seeded threads deliver exactly the
/// same per-slot multiset a sequential reference run does.
#[test]
fn striped_store_matches_sequential_reference() {
    const THREADS: usize = 4;
    const OPS: u64 = 20_000;
    for (case, slots) in [1usize, 3, 64, 257].into_iter().enumerate() {
        let store = PartitionStore::<u64>::new(slots);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xDA7A + t as u64);
                    for i in 0..OPS {
                        let slot = rng.gen_index(slots);
                        store.insert(slot, VertexId::new(t as u32), i, None);
                    }
                });
            }
        });
        // Sequential reference: same per-thread streams, order-free view.
        let mut want: Vec<Vec<(u32, u64)>> = vec![Vec::new(); slots];
        for t in 0..THREADS {
            let mut rng = SplitMix64::new(0xDA7A + t as u64);
            for i in 0..OPS {
                want[rng.gen_index(slots)].push((t as u32, i));
            }
        }
        assert_eq!(
            store.total(),
            (THREADS as u64 * OPS) as usize,
            "case {case}"
        );
        for (slot, want_slot) in want.iter_mut().enumerate() {
            let mut got: Vec<(u32, u64)> = store
                .drain(slot)
                .into_iter()
                .map(|(sender, msg)| (sender.raw(), msg))
                .collect();
            got.sort_unstable();
            want_slot.sort_unstable();
            assert_eq!(got, *want_slot, "case {case} slot {slot}");
        }
        assert_eq!(store.total(), 0, "case {case}: drained store not empty");
    }
}

/// Combiner stress: with a combiner attached, concurrent same-slot inserts
/// leave at most one envelope per slot, holding exactly the fold of every
/// message sent to it.
#[test]
fn concurrent_combining_keeps_one_envelope_per_slot() {
    const THREADS: usize = 4;
    const OPS: u64 = 20_000;
    let slots = 7usize; // few slots -> every insert meets an occupied one
    let store = PartitionStore::<u64>::new(slots);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xC0DE + t as u64);
                for _ in 0..OPS {
                    let slot = rng.gen_index(slots);
                    let msg = rng.gen_range(1 << 40);
                    store.insert(slot, VertexId::new(t as u32), msg, Some(&MinCombiner));
                }
            });
        }
    });
    // Reference fold per slot from the same seeded streams.
    let mut want: Vec<Option<u64>> = vec![None; slots];
    for t in 0..THREADS {
        let mut rng = SplitMix64::new(0xC0DE + t as u64);
        for _ in 0..OPS {
            let slot = rng.gen_index(slots);
            let msg = rng.gen_range(1 << 40);
            want[slot] = Some(want[slot].map_or(msg, |w| MinCombiner.combine(w, msg)));
        }
    }
    assert!(store.total() <= slots);
    for (slot, want_slot) in want.iter().enumerate() {
        let got = store.drain(slot);
        assert!(got.len() <= 1, "slot {slot}: {} envelopes", got.len());
        assert_eq!(got.first().map(|&(_, m)| m), *want_slot, "slot {slot}");
    }
}

fn run_wcc_case(
    g: &Graph,
    technique: Technique,
    model: Model,
    threads_per_worker: u32,
    buffer_cap: usize,
    combiner: bool,
    partition_seed: u64,
) -> Vec<u32> {
    let config = EngineConfig {
        workers: 3,
        technique,
        model,
        threads_per_worker,
        buffer_cap,
        max_supersteps: 5_000,
        partition_seed,
        ..Default::default()
    };
    let engine = Engine::new(Arc::new(g.clone()), Wcc, config).expect("config");
    let engine = if combiner {
        engine.with_combiner(Box::new(Wcc::combiner()))
    } else {
        engine
    };
    let out = engine.run();
    assert!(out.converged, "{technique:?}/{model:?} did not converge");
    out.values
}

/// Delivery-semantics sweep: WCC (message-hungry min-flood) computes the
/// union-find reference under every technique, with and without the
/// combiner, single- and multi-threaded workers, and flush cadences from
/// "ship every message" (`buffer_cap = 1`) to "only C1/barrier flushes"
/// (`buffer_cap = usize::MAX`).
#[test]
fn wcc_correct_across_techniques_threads_and_caps() {
    let techniques = [
        Technique::None,
        Technique::SingleToken,
        Technique::DualToken,
        Technique::VertexLock,
        Technique::PartitionLock,
    ];
    let shapes = [(1u32, 1usize), (2, 3), (4, usize::MAX)];
    let mut rng = SplitMix64::new(0x0DA7_A9A7);
    for case in 0..6 {
        let g = random_undirected(&mut rng, 24, 70);
        let want = validate::wcc_reference(&g);
        let seed = rng.gen_range(1_000);
        for &technique in &techniques {
            let model = if technique == Technique::None {
                Model::Bsp // exercises transfer_all between superstep stores
            } else {
                Model::Async
            };
            for &(tpw, cap) in &shapes {
                for combiner in [false, true] {
                    let got = run_wcc_case(&g, technique, model, tpw, cap, combiner, seed);
                    assert_eq!(
                        got, want,
                        "case {case}: {technique:?} tpw={tpw} cap={cap} combiner={combiner}"
                    );
                }
            }
        }
    }
}

/// Regression: a combiner folds messages into an envelope already queued —
/// as a batch lands (the engine stages without folding), and in a BSP
/// next-store — and the folded sender's message must become visible with
/// the envelope that absorbed it. When the fold dropped it from the
/// recorder's ledger, its pair stayed in flight for the rest of the run and
/// nearly every recorded history was C1-dirty under a technique that
/// guarantees C1.
#[test]
fn combined_messages_keep_the_c1_ledger_balanced() {
    let mut rng = SplitMix64::new(0xF01D);
    let arms = [
        (Model::Async, Technique::PartitionLock),
        (Model::Bsp, Technique::BspVertexLock),
    ];
    for case in 0..16 {
        let g = random_undirected(&mut rng, 40, 200);
        for (model, technique) in arms {
            let config = EngineConfig {
                workers: 3,
                model,
                technique,
                record_history: true,
                max_supersteps: 5_000,
                partition_seed: case,
                ..Default::default()
            };
            let arm = format!("case {case} {model:?} {technique:?}");
            let out = Engine::new(Arc::new(g.clone()), Wcc, config)
                .expect("config")
                .with_combiner(Box::new(Wcc::combiner()))
                .run();
            assert!(out.converged, "{arm}");
            assert_eq!(out.values, validate::wcc_reference(&g), "{arm}");
            let h = out.history.expect("recorded");
            assert!(h.c1_violations().is_empty(), "{arm}: C1 violated");
            assert!(h.is_one_copy_serializable(&g), "{arm}: not 1SR");
        }
    }
}

/// Regression for the C1 write-all flush: with `buffer_cap = usize::MAX`
/// nothing ships on size, so every remote update a fork handoff depends on
/// must come out of the *staging* buffers (all sibling threads') during
/// the C1 flush. If that drain were missing — or skipped while the moving
/// worker still owed a message — recorded histories would show C1/C2
/// violations and lose one-copy serializability. Barrierless as well:
/// there no barrier ever flushes, the fork handoffs' write-all is all the
/// locked neighbors have.
#[test]
fn c1_write_all_drains_staging_before_fork_handoff() {
    let mut rng = SplitMix64::new(0xC1_F1);
    for case in 0..8 {
        let g = random_undirected(&mut rng, 20, 60);
        let seed = rng.gen_range(1_000);
        for technique in [Technique::PartitionLock, Technique::VertexLock] {
            for barrierless in [false, true] {
                let config = EngineConfig {
                    workers: 3,
                    technique,
                    record_history: true,
                    threads_per_worker: 2,
                    buffer_cap: usize::MAX,
                    max_supersteps: 2_000,
                    partition_seed: seed,
                    barrierless,
                    ..Default::default()
                };
                let arm = format!("case {case} {technique:?} barrierless={barrierless}");
                // No combiner: coloring needs every neighbor color, and the
                // staging drain under test happens with or without one.
                let out = Engine::new(Arc::new(g.clone()), GreedyColoring, config)
                    .expect("config")
                    .run();
                assert!(out.converged, "{arm}");
                let h = out.history.expect("recorded");
                assert!(h.c1_violations().is_empty(), "{arm}: C1 violated");
                assert!(h.c2_violations(&g).is_empty(), "{arm}: C2 violated");
                assert!(h.is_one_copy_serializable(&g), "{arm}: not 1SR");
                let conflicts = validate::coloring_conflicts(&g, &out.values);
                assert_eq!(conflicts, 0, "{arm}: improper coloring");
            }
        }
    }
}
