//! Empirical validation of Theorem 1, end to end: executions under any
//! synchronization technique satisfy conditions C1 and C2 and are one-copy
//! serializable; executions without one violate the conditions.

use serigraph::prelude::*;
use serigraph::sg_algos::GreedyColoring;
use serigraph::sg_serial::History;
use std::sync::Arc;

const TECHNIQUES: [Technique; 5] = [
    Technique::SingleToken,
    Technique::DualToken,
    Technique::VertexLock,
    Technique::PartitionLock,
    Technique::PartitionLockNoSkip,
];

fn record_run<P: VertexProgram>(
    g: &Graph,
    program: P,
    model: Model,
    technique: Technique,
    workers: u32,
) -> History {
    let config = EngineConfig {
        workers,
        threads_per_worker: 2,
        model,
        technique,
        record_history: true,
        max_supersteps: 200,
        ..Default::default()
    };
    let out = Engine::new(Arc::new(g.clone()), program, config)
        .expect("valid config")
        .run();
    out.history.expect("history recorded")
}

/// Theorem 1 (if direction): C1 ∧ C2 ⇒ 1SR, for every technique, on an
/// adversarial dense graph where any unsynchronized overlap would be a
/// conflict.
#[test]
fn all_techniques_produce_serializable_histories() {
    let g = gen::complete(10);
    for technique in TECHNIQUES {
        let h = record_run(&g, GreedyColoring, Model::Async, technique, 3);
        assert!(
            h.c1_violations().is_empty(),
            "{technique:?}: stale reads observed"
        );
        assert!(
            h.c2_violations(&g).is_empty(),
            "{technique:?}: neighboring executions overlapped"
        );
        assert!(
            h.is_one_copy_serializable(&g),
            "{technique:?}: serialization graph has a cycle"
        );
        assert!(h.equivalent_serial_order(&g).is_some());
    }
}

/// Techniques stay serializable across algorithm shapes (message-heavy
/// PageRank, frontier-style SSSP).
#[test]
fn techniques_serializable_across_algorithms() {
    let g = gen::preferential_attachment(60, 3, 5);
    for technique in [Technique::PartitionLock, Technique::DualToken] {
        let h = record_run(
            &g,
            serigraph::sg_algos::DeltaPageRank::new(1e-3),
            Model::Async,
            technique,
            2,
        );
        assert!(h.is_one_copy_serializable(&g), "{technique:?} pagerank");
        let h = record_run(
            &g,
            serigraph::sg_algos::Sssp::new(VertexId::new(0)),
            Model::Async,
            technique,
            2,
        );
        assert!(h.is_one_copy_serializable(&g), "{technique:?} sssp");
    }
}

/// `sg_algos::ConflictFixColoring` for `self.0` supersteps, then one in which
/// every vertex it wakes only reads: it sends nothing and halts. On the
/// paper's C4 the colouring never settles without synchronization, so
/// every vertex runs in that last superstep, after a barrier with no
/// message in flight.
struct FixThenRead(u64);

impl VertexProgram for FixThenRead {
    type Value = u32;
    type Message = u32;

    fn init(&self, _v: VertexId, _g: &Graph) -> u32 {
        NO_COLOR
    }

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u32]) {
        let mine = *ctx.value();
        let clash = mine == NO_COLOR || messages.contains(&mine);
        if ctx.superstep() < self.0 && clash {
            let c = (0..)
                .find(|c| !messages.contains(c))
                .expect("a free colour");
            ctx.set_value(c);
            ctx.send_to_all(c);
        }
        ctx.vote_to_halt();
    }
}

/// Supersteps of [`FixThenRead`] that colour before the read-only one.
const FIX_SUPERSTEPS: u64 = 11;

/// The last superstep of a [`FixThenRead`] run on `g`: every vertex runs
/// once, after every earlier transaction ended, and reads fresh — the
/// barrier made every message readable and nothing was sent since. A
/// recorder that hears a message's delivery without its send (or the
/// reverse) leaves the pair's ledger entry non-zero across the barrier,
/// and the read is stale.
fn assert_reads_after_the_final_barrier_are_fresh(g: &Graph, h: &History) {
    let n = g.num_vertices() as usize;
    let mut txns = h.txns().to_vec();
    txns.sort_by_key(|t| t.start);
    let (before, last) = txns.split_at(txns.len() - n);
    let barrier = before.iter().map(|t| t.end).max().unwrap_or(0);
    let mut ran: Vec<_> = last.iter().map(|t| t.vertex).collect();
    ran.sort_unstable();
    ran.dedup();
    assert_eq!(ran.len(), n, "every vertex runs in the last superstep");
    for t in last {
        assert!(t.start > barrier, "{:?} began before the barrier", t.vertex);
        assert!(
            t.stale_reads.is_empty(),
            "{:?} read {:?} stale after the final barrier",
            t.vertex,
            t.stale_reads
        );
    }
}

/// [`FixThenRead`] on the paper's Figures 2/3 layout without
/// synchronization: C4 on two workers, W1 = {v0, v2} and W2 = {v1, v3}
/// (so two edges stay on one worker and two cross), one thread each, and
/// remote messages shipped only at the barrier.
fn paper_layout_run(g: &Graph, model: Model) -> History {
    let config = EngineConfig {
        workers: 2,
        partitions_per_worker: Some(1),
        threads_per_worker: 1,
        model,
        technique: Technique::None,
        record_history: true,
        max_supersteps: FIX_SUPERSTEPS + 1,
        buffer_cap: usize::MAX,
        explicit_partitions: Some(serigraph::sg_algos::validate::paper_c4_assignment()),
        ..Default::default()
    };
    let out = Engine::new(Arc::new(g.clone()), FixThenRead(FIX_SUPERSTEPS), config)
        .expect("valid config")
        .run();
    out.history.expect("history")
}

/// BSP violates C1 even under this (effectively serial) execution: the
/// paper's Section 3.5 observation that synchronous models update replicas
/// lazily, so reads are stale even without concurrency. Yet the flip
/// makes every message readable, same-worker and remote: a read after the
/// final barrier is fresh.
#[test]
fn bsp_violates_c1() {
    let g = gen::paper_c4();
    let hashed = record_run(
        &g,
        FixThenRead(FIX_SUPERSTEPS),
        Model::Bsp,
        Technique::None,
        2,
    );
    for h in [hashed, paper_layout_run(&g, Model::Bsp)] {
        assert!(
            !h.c1_violations().is_empty(),
            "BSP must produce stale reads (lazy replica updates)"
        );
        assert!(!h.is_one_copy_serializable(&g));
        assert_reads_after_the_final_barrier_are_fresh(&g, &h);
    }
}

/// Plain AP delays remote replica updates: stale reads again (Section 3.5),
/// even with one thread per worker. The barrier's write-all still lands
/// them: a read after the final barrier is fresh.
#[test]
fn plain_ap_violates_c1_across_workers() {
    let g = gen::paper_c4();
    let h = paper_layout_run(&g, Model::Async);
    assert!(
        !h.c1_violations().is_empty(),
        "AP buffers remote messages: stale reads expected"
    );
    assert_reads_after_the_final_barrier_are_fresh(&g, &h);
}

/// The sync techniques remain serializable when partitions outnumber
/// threads and workers disagree (stress of the fork protocol under real
/// concurrency).
#[test]
fn partition_lock_serializable_under_contention() {
    let g = gen::complete(24);
    for workers in [2u32, 4, 6] {
        let h = record_run(
            &g,
            GreedyColoring,
            Model::Async,
            Technique::PartitionLock,
            workers,
        );
        assert!(h.c2_violations(&g).is_empty(), "workers={workers}");
        assert!(h.is_one_copy_serializable(&g), "workers={workers}");
    }
}

/// GAS engine: serializable mode passes the checkers; the default mode's
/// interleaving produces C2 violations (Section 2.3), demonstrated with
/// widened race windows.
#[test]
fn gas_serializability_contrast() {
    use serigraph::sg_gas::programs::GasColoring;
    let g = Arc::new(gen::complete(8));

    let ser = AsyncGasEngine::new(
        Arc::clone(&g),
        GasColoring,
        GasConfig {
            machines: 2,
            fibers_per_machine: 4,
            serializable: true,
            record_history: true,
            ..Default::default()
        },
    )
    .run();
    let h = ser.history.unwrap();
    assert!(ser.converged);
    assert!(h.c2_violations(&g).is_empty());
    assert!(h.is_one_copy_serializable(&g));
}
