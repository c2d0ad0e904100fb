//! Live recording of executions into a checkable [`History`].
//!
//! The engines call into a `Recorder` at four points:
//!
//! * [`Recorder::on_send`] — vertex `from` handed a message for `to` to the
//!   system (during `from`'s execution);
//! * [`Recorder::on_visible`] — that message became *readable* by `to`
//!   (when a batch lands, at the BSP flip, or as a staged fold absorbs it);
//! * [`Recorder::begin`] — vertex `u` starts executing: the recorder
//!   timestamps the read and tests freshness of every in-edge replica (no
//!   message in flight per directed pair — condition C1). Condition C2 is
//!   read off the recorded intervals afterwards
//!   ([`History::c2_violations`], and the live checkers' own open sets);
//! * [`Recorder::end`] — the execution commits its write.
//!
//! **Only what can be seen in flight is recorded.** A message that is
//! readable before its sender's transaction closes — a same-worker send
//! under AP, or sg-gas's shared-memory write-all — reaches the recorder
//! not at all: no send, no delivery. Remote sends, same-worker BSP sends
//! (readable at the flip) and sender-side folds keep both events. No
//! 1SR verdict changes, because a receiver `u` of such a message either
//!
//! * begins after the sender ends, and then finds the message delivered:
//!   delivery precedes the sender's `close`, so `u`'s read is fresh and
//!   the sender's two events would have cancelled before `u` looked; or
//! * begins while the sender runs, and then overlaps a neighbour: C2
//!   rejects the history whatever C1 says; or
//! * began before the sender, and then tested C1 before either event.
//!
//! So only the racy C1 count can fall, and only on histories C2 already
//! rejects (`streaming::tests::overlap_without_flight_is_c2_alone`).
//!
//! Recording a message that can be in flight costs one binary search over
//! the *sender's* out-run — the adjacency its `compute` has just walked —
//! plus one atomic add or sub per message event, into the sender's own
//! contiguous run of counters, and a second RMW on the receiver's summary
//! when that moves the pair on or off zero (the shared C1 ledger,
//! `ledger.rs`). An execution adds one load of its own summary, and walks
//! its in-neighbours only when the summary is non-zero — when C1 may fail.
//! `sg-perf`'s `coloring-dtoken-audited` workload prices it end to end on
//! every benchmark run (`sg-serial.record_ns_per_txn`, `record_overhead_x`;
//! EXPERIMENTS.md, "What recording costs", "C1 from one counter" and
//! "Only what is in flight").

use crate::history::{History, TxnRecord};
use crate::incremental::StampedTxn;
use crate::ledger::{Ledger, DELIVER, SEND};
use sg_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, OnceLock};

/// Concurrent execution recorder: one `|E|`-sized counter array, one
/// summary per vertex, plus one [`TxnRecord`] per execution. Attach via
/// the engines' `record_history` option.
pub struct Recorder {
    graph: Arc<Graph>,
    clock: AtomicU64,
    /// Pre-start clock snapshot per vertex mid-execution, `u64::MAX` when
    /// idle. Stored *before* the start tick and cleared only *after* the
    /// finished record lands in `txns`, so [`Recorder::safe_watermark`]
    /// never overtakes a transaction it has not yet handed out.
    executing_since: Vec<AtomicU64>,
    /// Messages handed to the system but not yet readable, per directed
    /// pair: a send adds one, a delivery takes one away (wrapping); and per
    /// receiver, how many of its in-pairs are non-zero.
    ledger: Ledger,
    txns: Mutex<Vec<TxnRecord>>,
    /// Fired from [`Recorder::end`] once the finished record has landed —
    /// the point at which the vertex execution's write is *committed*.
    /// The MVCC engine hangs its transaction-status flip here so version
    /// visibility and the recorded history close at the same instant.
    commit_hook: OnceLock<Box<dyn Fn(VertexId) + Send + Sync>>,
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`] when the vertex execution finishes.
#[must_use = "pass the guard back to Recorder::end when the execution commits"]
pub struct TxnGuard {
    vertex: VertexId,
    start: u64,
    stale_reads: Vec<VertexId>,
}

impl Recorder {
    /// New recorder over `graph`.
    pub fn new(graph: Arc<Graph>) -> Self {
        let n = graph.num_vertices() as usize;
        Self {
            ledger: Ledger::new(&graph),
            graph,
            clock: AtomicU64::new(0),
            executing_since: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            txns: Mutex::new(Vec::new()),
            commit_hook: OnceLock::new(),
        }
    }

    /// Register the commit hook, called from [`Recorder::end`] with the
    /// finishing vertex after its record lands. One hook per recorder;
    /// later registrations are ignored.
    pub fn set_commit_hook(&self, hook: Box<dyn Fn(VertexId) + Send + Sync>) {
        let _ = self.commit_hook.set(hook);
    }

    #[inline]
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Vertex `from` handed a message for `to` to the system.
    pub fn on_send(&self, from: VertexId, to: VertexId) {
        self.ledger.add(&self.graph, from, to, SEND);
    }

    /// A message from `from` became readable by `to`. Call it only after
    /// the message's [`Recorder::on_send`] has returned (or, for a
    /// delivery counted ahead of its send, before that send starts): the
    /// per-receiver summary relies on it (`ledger.rs`).
    pub fn on_visible(&self, from: VertexId, to: VertexId) {
        self.ledger.add(&self.graph, from, to, DELIVER);
    }

    /// Vertex `u` begins executing. Performs the C1 freshness test.
    pub fn begin(&self, u: VertexId) -> TxnGuard {
        self.executing_since[u.index()].store(self.clock.load(Ordering::SeqCst), Ordering::SeqCst);
        let start = self.tick();
        let stale_reads = self.ledger.stale_reads(&self.graph, u);
        TxnGuard {
            vertex: u,
            start,
            stale_reads,
        }
    }

    /// Vertex execution commits its write.
    pub fn end(&self, guard: TxnGuard) {
        let end = self.tick();
        let vertex = guard.vertex;
        self.txns.lock().unwrap().push(TxnRecord {
            vertex,
            start: guard.start,
            end,
            stale_reads: guard.stale_reads,
        });
        if let Some(hook) = self.commit_hook.get() {
            hook(vertex);
        }
        // Only after the push: see `executing_since`.
        self.executing_since[vertex.index()].store(u64::MAX, Ordering::SeqCst);
    }

    /// Snapshot the recorded transactions as a checkable [`History`].
    pub fn history(&self) -> History {
        History::new(self.txns.lock().unwrap().clone())
    }

    /// Move the recorded transactions out as a [`History`], leaving the
    /// log empty. For the end of a run, once every execution has ended and
    /// any [`crate::StreamingAuditor`] on this recorder has finished: the
    /// auditor's cursor counts records from the start of the log.
    pub fn take_history(&self) -> History {
        History::new(std::mem::take(&mut *self.txns.lock().unwrap()))
    }

    /// Completed transactions recorded after the first `from`, as the
    /// stamped form an incremental checker ingests — the streaming
    /// auditor's read-only cursor. Records arrive in *end* order, so a
    /// consumer holding `from = previous total` sees every record exactly
    /// once.
    pub fn txns_since(&self, from: usize) -> Vec<StampedTxn> {
        let txns = self.txns.lock().unwrap();
        txns[from.min(txns.len())..]
            .iter()
            .map(StampedTxn::from)
            .collect()
    }

    /// A timestamp every future (and still-open) transaction's interval
    /// lies entirely at or above: `min` of the clock and the pre-start
    /// snapshot of every open execution. Read order (clock, then the
    /// snapshots) plus the store order in [`Recorder::begin`] /
    /// [`Recorder::end`] make this safe against in-flight races — feed it
    /// as the `advance` frontier of an incremental checker ingesting
    /// [`Recorder::txns_since`] batches.
    pub fn safe_watermark(&self) -> u64 {
        let clock = self.clock.load(Ordering::SeqCst);
        let open = self
            .executing_since
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        clock.min(open)
    }

    /// The graph this recorder observes.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::gen;

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }

    #[test]
    fn serial_fresh_execution_passes_all_checks() {
        let g = Arc::new(gen::paper_c4());
        let r = Recorder::new(Arc::clone(&g));
        // Execute vertices one at a time, delivering messages eagerly.
        for round in 0..3 {
            let _ = round;
            for u in g.vertices() {
                let guard = r.begin(u);
                for &t in g.out_neighbors(u) {
                    r.on_send(u, t);
                    r.on_visible(u, t);
                }
                r.end(guard);
            }
        }
        let h = r.history();
        assert_eq!(h.len(), 12);
        assert!(h.is_one_copy_serializable(&g));
    }

    #[test]
    fn undelivered_message_makes_next_read_stale() {
        let g = Arc::new(gen::paper_c4());
        let r = Recorder::new(Arc::clone(&g));
        // v0 sends to v1 but the message is not delivered (BSP-style lazy
        // replica update).
        let guard = r.begin(v(0));
        r.on_send(v(0), v(1));
        r.end(guard);
        // v1 now executes with a stale replica of v0.
        let guard = r.begin(v(1));
        let h_guard_stale = !guard.stale_reads.is_empty();
        r.end(guard);
        assert!(h_guard_stale);
        let h = r.history();
        assert_eq!(h.c1_violations(), vec![1]);
        assert!(!h.is_one_copy_serializable(&g));
    }

    #[test]
    fn late_delivery_restores_freshness() {
        let g = Arc::new(gen::paper_c4());
        let r = Recorder::new(Arc::clone(&g));
        let guard = r.begin(v(0));
        r.on_send(v(0), v(1));
        r.end(guard);
        r.on_visible(v(0), v(1)); // flushed before v1 runs
        let guard = r.begin(v(1));
        r.end(guard);
        assert!(r.history().is_one_copy_serializable(&g));
    }

    #[test]
    fn concurrent_neighbors_detected() {
        let g = Arc::new(gen::paper_c4());
        let r = Recorder::new(Arc::clone(&g));
        let g0 = r.begin(v(0));
        let g1 = r.begin(v(1)); // neighbor of v0, concurrent
        r.end(g1);
        r.end(g0);
        let h = r.history();
        let overlaps = h.c2_violations(&g);
        assert_eq!(overlaps.len(), 1);
        let pair = [
            h.txns()[overlaps[0].a].vertex,
            h.txns()[overlaps[0].b].vertex,
        ];
        assert!(pair == [v(0), v(1)] || pair == [v(1), v(0)], "{pair:?}");
    }

    #[test]
    fn concurrent_non_neighbors_allowed() {
        let g = Arc::new(gen::paper_c4());
        let r = Recorder::new(Arc::clone(&g));
        // v0 and v3 are NOT adjacent in the paper's C4.
        let g0 = r.begin(v(0));
        let g3 = r.begin(v(3));
        r.end(g0);
        r.end(g3);
        assert!(r.history().c2_violations(&g).is_empty());
    }

    #[test]
    fn messages_to_non_neighbors_are_ignored() {
        // Defensive: sends along non-existent edges don't panic or count.
        let g = Arc::new(Graph::from_edges(3, &[(0, 1)]));
        let r = Recorder::new(Arc::clone(&g));
        r.on_send(v(0), v(2));
        r.on_visible(v(0), v(2));
        let guard = r.begin(v(2));
        assert!(guard.stale_reads.is_empty());
        r.end(guard);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let g = Arc::new(gen::ring(4));
        let r = Recorder::new(Arc::clone(&g));
        for u in g.vertices() {
            let guard = r.begin(u);
            r.end(guard);
        }
        let h = r.history();
        let mut last = 0;
        for t in h.txns() {
            assert!(t.start < t.end);
            assert!(t.start >= last);
            last = t.end;
        }
    }

    #[test]
    fn multithreaded_recording_is_consistent() {
        use std::thread;
        let g = Arc::new(gen::ring(8));
        let r = Arc::new(Recorder::new(Arc::clone(&g)));
        // Even vertices on one thread, odd on another: in a ring, two
        // vertices of the same parity are never adjacent, and we serialize
        // cross-parity by phases with a barrier.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = [0u32, 1u32]
            .into_iter()
            .map(|parity| {
                let r = Arc::clone(&r);
                let g = Arc::clone(&g);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    if parity == 1 {
                        barrier.wait(); // odd phase runs strictly after even
                    }
                    for u in g.vertices().filter(|u| u.raw() % 2 == parity) {
                        let guard = r.begin(u);
                        for &t in g.out_neighbors(u) {
                            r.on_send(u, t);
                            r.on_visible(u, t);
                        }
                        r.end(guard);
                    }
                    if parity == 0 {
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = r.history();
        assert_eq!(h.len(), 8);
        assert!(h.c2_violations(&g).is_empty());
        assert!(h.is_one_copy_serializable(&g));
    }

    /// Property: random `on_send`/`on_visible`/`begin`/`end` sequences
    /// against a per-pair count of messages in flight — every `begin`
    /// reports exactly the in-neighbors whose pair count is non-zero.
    /// The graphs carry parallel edges both ways, self-loops, one-way
    /// edges and an isolated vertex; the events include sends to
    /// non-neighbors and deliveries ahead of their send.
    #[test]
    fn ledger_matches_a_per_pair_model() {
        use sg_graph::SplitMix64;
        use std::collections::HashMap;
        let multi = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 1),
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 2),
                (2, 4),
                (3, 1),
                (3, 1),
                (1, 3),
                (4, 0),
                (0, 4),
                (0, 4),
                (5, 5),
                (5, 5),
                (4, 5),
            ],
        );
        let graphs = [
            ("multi-edge", multi),
            ("rmat-6", gen::rmat(6, 300, gen::datasets::SKEW, 3)),
            ("c4", gen::paper_c4()),
        ];
        for (name, g) in graphs {
            let g = Arc::new(g);
            let n = u64::from(g.num_vertices());
            let (mut stale_begins, mut begins) = (0, 0);
            for seed in 0..20u64 {
                let mut rng = SplitMix64::new(seed);
                let r = Recorder::new(Arc::clone(&g));
                let mut model: HashMap<(VertexId, VertexId), i64> = HashMap::new();
                // Sends not yet visible, and deliveries not yet sent: what
                // later events mostly settle, so counts keep returning to 0.
                let (mut unseen, mut unsent) = (Vec::new(), Vec::new());
                let mut open: Vec<TxnGuard> = Vec::new();
                let stale_before = stale_begins;
                for step in 0..3_000 {
                    let from = v(rng.gen_range(n) as u32);
                    // Mostly along an out-edge; else anywhere, self included.
                    let outs = g.out_neighbors(from);
                    let to = if !outs.is_empty() && rng.gen_bool(0.8) {
                        outs[rng.gen_index(outs.len())]
                    } else {
                        v(rng.gen_range(n) as u32)
                    };
                    let settle = |rng: &mut SplitMix64, owed: &mut Vec<_>, other: &mut Vec<_>| {
                        if !owed.is_empty() && rng.gen_bool(0.8) {
                            owed.swap_remove(rng.gen_index(owed.len()))
                        } else {
                            other.push((from, to));
                            (from, to)
                        }
                    };
                    match rng.gen_index(10) {
                        0..=2 => {
                            let (from, to) = settle(&mut rng, &mut unsent, &mut unseen);
                            r.on_send(from, to);
                            *model.entry((from, to)).or_default() += 1;
                        }
                        3..=5 => {
                            let (from, to) = settle(&mut rng, &mut unseen, &mut unsent);
                            r.on_visible(from, to);
                            *model.entry((from, to)).or_default() -= 1;
                        }
                        7 | 8 if !open.iter().any(|t| t.vertex == to) => {
                            let mut want: Vec<VertexId> = g.in_neighbors(to).to_vec();
                            want.dedup();
                            want.retain(|&w| {
                                w != to && model.get(&(w, to)).is_some_and(|&c| c != 0)
                            });
                            let guard = r.begin(to);
                            let what = format!("{name} seed {seed} step {step} begin {to:?}");
                            assert_eq!(guard.stale_reads, want, "{what}");
                            stale_begins += usize::from(!want.is_empty());
                            begins += 1;
                            open.push(guard);
                        }
                        _ if !open.is_empty() => {
                            r.end(open.swap_remove(rng.gen_index(open.len())));
                        }
                        _ => {}
                    }
                }
                for guard in open {
                    r.end(guard);
                }
                let c1 = r.history().c1_violations().len();
                assert_eq!(c1, stale_begins - stale_before, "{name} seed {seed}");
            }
            assert!(
                stale_begins > begins / 10 && stale_begins < begins * 9 / 10,
                "{name}: {stale_begins} of {begins} begins stale"
            );
        }
    }

    use sg_graph::Graph;
}
