//! Incremental per-state serializability checking.
//!
//! [`History`] checks a *complete* run post hoc; the live audit planes need
//! the Theorem 1 verdict while the run is still going, so a violation is
//! reported at the point that introduced it. Re-running the batch checkers
//! per transaction would be quadratic in history length, so this module
//! maintains the same three verdicts incrementally:
//!
//! * **C1** — the producer's witnesses: each [`StampedTxn`] carries the
//!   in-edge neighbors whose replica was stale when it began (the
//!   [`crate::Recorder`]'s freshness test), and a transaction with any
//!   counts once;
//! * **C2** — eager overlap detection: an interval overlap exists iff the
//!   later transaction begins while the earlier is still open, so checking
//!   open neighbors at each begin finds every violating pair exactly once;
//! * **serialization graph** — per-item `last_write` / `written_at` and
//!   per-vertex `newest_txn` state; operations are applied in global
//!   timestamp order and fold into a subset of the edges
//!   [`History::serialization_graph`] computes with the same reachability
//!   (an edge is left out only when a path of kept edges already implies
//!   it), with a reachability probe per added edge for cycle detection.
//!   Every structure is a flat array indexed by vertex or transaction, and
//!   no step scans an adjacency, so a transaction costs O(its degree)
//!   however the graph is skewed.
//!
//! The checker also accumulates full [`TxnRecord`]s, so the final
//! [`IncrementalChecker::log`] is record-for-record comparable with a
//! recorded run.
//!
//! # Watermark-ordered ingestion
//!
//! Producers ship complete, stamped transactions in batches, and batches
//! from different producers interleave arbitrarily.
//! [`IncrementalChecker::observe`] buffers a whole stamped transaction, and
//! [`IncrementalChecker::advance`] applies every buffered begin/commit
//! event with `time < frontier` in global timestamp order — the caller (a
//! [`crate::StreamingAuditor`] or the cluster's `AuditHub`) guarantees, via
//! watermarks, that no future event can be stamped below the frontier.
//! Because events are *replayed* in timestamp order, the verdicts and the
//! accumulated history are identical to what a perfectly in-order feed
//! would produce, no matter how arrivals were interleaved.

use crate::history::{History, HistorySummary, TxnRecord};
use sg_graph::{Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The three Theorem 1 verdicts, valid after every applied operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckStatus {
    /// Transactions so far that began with at least one stale replica.
    pub c1_violations: usize,
    /// Overlapping neighbor-transaction pairs so far.
    pub c2_violations: usize,
    /// Is the serialization graph (so far) acyclic?
    pub serialization_graph_acyclic: bool,
}

impl CheckStatus {
    /// No violation of any kind yet.
    pub fn clean(&self) -> bool {
        self.c1_violations == 0 && self.c2_violations == 0 && self.serialization_graph_acyclic
    }
}

/// A complete, externally-stamped transaction for watermark-ordered
/// ingestion via [`IncrementalChecker::observe`]. Stamps must be globally
/// unique (the cluster's composite Lamport stamps are); `stale_reads` are
/// the C1 witnesses the *producer* observed — the checker cannot recompute
/// them without the producer's message-visibility counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StampedTxn {
    /// The vertex this transaction executed.
    pub vertex: VertexId,
    /// Stamp of the execution's read set.
    pub start: u64,
    /// Stamp of the committed write. Must exceed `start`.
    pub end: u64,
    /// In-edge neighbors whose replica the producer saw stale at `start`.
    pub stale_reads: Vec<VertexId>,
}

impl From<&TxnRecord> for StampedTxn {
    /// The part of a recorded transaction a checker ingests.
    fn from(t: &TxnRecord) -> Self {
        Self {
            vertex: t.vertex,
            start: t.start,
            end: t.end,
            stale_reads: t.stale_reads.clone(),
        }
    }
}

/// One observability event surfaced by [`IncrementalChecker::advance`] —
/// what the audit plane turns into sentinels and heatmap increments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditEvent {
    /// A transaction began with stale in-neighbor replicas (condition C1).
    C1 {
        /// The vertex whose execution read stale replicas.
        vertex: VertexId,
        /// The in-edge neighbors that were stale.
        stale: Vec<VertexId>,
    },
    /// A transaction began while neighbor transactions were still open
    /// (condition C2); one event per violating transaction, carrying every
    /// neighbor it overlapped.
    C2 {
        /// The later-starting vertex of the overlapping pair(s).
        vertex: VertexId,
        /// The neighbors whose transactions were open at its begin.
        neighbors: Vec<VertexId>,
    },
    /// The serialization graph acquired its first cycle (emitted once).
    Cycle {
        /// The vertex whose committed write closed the cycle.
        vertex: VertexId,
    },
}

/// An open (begun, not yet ended) transaction.
struct OpenTxn {
    txn: u32,
    start: u64,
    stale_reads: Vec<VertexId>,
    concurrent_neighbors: Vec<VertexId>,
}

/// "No edge" / "no transaction" in the `u32` index spaces below.
const NIL: u32 = u32::MAX;

/// The serialization graph so far — every transaction's out-edges as a
/// linked list through one edge arena — and whether a cycle has closed yet.
struct SerializationGraph {
    /// Per transaction: its newest out-edge in `edges`, [`NIL`] if none.
    head: Vec<u32>,
    /// `(to, next out-edge of the same transaction)`.
    edges: Vec<(u32, u32)>,
    /// Cycle-probe scratch: `seen[t] == epoch` marks `t` visited in the
    /// current probe, so probes allocate nothing in steady state.
    seen: Vec<u64>,
    epoch: u64,
    stack: Vec<u32>,
    /// Transactions the cycle probes have walked through, over all probes.
    probe_steps: u64,
    cyclic: bool,
}

impl SerializationGraph {
    fn first_out(&self, txn: u32) -> u32 {
        self.head.get(txn as usize).copied().unwrap_or(NIL)
    }

    /// Add edge `from -> to`, probing for a new cycle (is `from` reachable
    /// from `to`?) unless one was already found. Only a repeat of `from`'s
    /// newest edge is recognised and dropped; any other repeat is stored
    /// again — it changes no reachability, and finding it would mean
    /// scanning `from`'s list.
    fn add_edge(&mut self, from: u32, to: u32) {
        if from == NIL || from == to {
            return;
        }
        if self.head.len() <= from as usize {
            self.head.resize(from as usize + 1, NIL);
        }
        let newest = self.head[from as usize];
        if newest != NIL && self.edges[newest as usize].0 == to {
            return;
        }
        self.head[from as usize] =
            u32::try_from(self.edges.len()).expect("edge arena outgrew u32 indices");
        self.edges.push((to, newest));
        if !self.cyclic && self.reaches(to, from) {
            self.cyclic = true;
        }
    }

    /// DFS reachability `from -> target`. In the common case — the new
    /// edge's head is a transaction nothing has been ordered after yet —
    /// `from` has no out-edge and the probe is O(1).
    fn reaches(&mut self, from: u32, target: u32) -> bool {
        if self.first_out(from) == NIL {
            return false;
        }
        if self.seen.len() < self.head.len() {
            self.seen.resize(self.head.len(), 0);
        }
        self.epoch += 1;
        self.stack.clear();
        self.stack.push(from);
        while let Some(t) = self.stack.pop() {
            if t == target {
                return true;
            }
            self.probe_steps += 1;
            // A transaction past the end of `seen` has no out-edge either.
            let mut edge = self.first_out(t);
            if edge == NIL
                || std::mem::replace(&mut self.seen[t as usize], self.epoch) == self.epoch
            {
                continue;
            }
            while edge != NIL {
                let (to, next) = self.edges[edge as usize];
                self.stack.push(to);
                edge = next;
            }
        }
        false
    }
}

/// Incremental Theorem 1 checker over a watermark-ordered feed of
/// [`StampedTxn`]s: [`IncrementalChecker::observe`] buffers, and
/// [`IncrementalChecker::advance`] applies in global timestamp order.
pub struct IncrementalChecker {
    graph: Arc<Graph>,
    /// vertex -> its currently open transaction, if any.
    open: Vec<Option<OpenTxn>>,
    /// Number of `open` slots currently occupied.
    open_count: usize,
    sg: SerializationGraph,
    /// Per item (vertex): the transaction that last wrote it, or [`NIL`].
    last_write: Vec<u32>,
    /// Per item: how many transactions had begun when it was last written
    /// — the smallest id that can have read that version.
    written_at: Vec<u32>,
    /// Per vertex: its newest transaction, open or committed, or [`NIL`].
    newest_txn: Vec<u32>,
    /// Committed transactions, in commit order.
    log: History,
    c1: usize,
    c2: usize,
    /// Buffered stamped transactions awaiting release.
    slab: Vec<Option<StampedTxn>>,
    /// Emptied `slab` slots awaiting reuse.
    free_slots: Vec<usize>,
    /// Min-heap of buffered events: `(time, slab index, is_commit)`.
    events: BinaryHeap<Reverse<(u64, usize, bool)>>,
    /// Largest event stamp applied so far.
    applied: u64,
}

impl IncrementalChecker {
    /// New checker over `graph`.
    pub fn new(graph: Arc<Graph>) -> Self {
        let n = graph.num_vertices() as usize;
        Self {
            graph,
            open: (0..n).map(|_| None).collect(),
            open_count: 0,
            sg: SerializationGraph {
                head: Vec::new(),
                edges: Vec::new(),
                seen: Vec::new(),
                epoch: 0,
                stack: Vec::new(),
                probe_steps: 0,
                cyclic: false,
            },
            last_write: vec![NIL; n],
            written_at: vec![0; n],
            newest_txn: vec![NIL; n],
            log: History::new(Vec::new()),
            c1: 0,
            c2: 0,
            slab: Vec::new(),
            free_slots: Vec::new(),
            events: BinaryHeap::new(),
            applied: 0,
        }
    }

    /// Transactions begun so far: the next transaction's id.
    fn begun(&self) -> u32 {
        u32::try_from(self.log.len() + self.open_count)
            .ok()
            .filter(|&t| t != NIL)
            .expect("more transactions than u32 ids")
    }

    /// A transaction begins at `start` with producer-supplied C1
    /// witnesses: assign an id, count violations, fold the read operations.
    fn apply_begin(&mut self, u: VertexId, start: u64, stale_reads: Vec<VertexId>) {
        assert!(
            self.open[u.index()].is_none(),
            "vertex {u:?} began twice without ending"
        );
        let txn = self.begun();
        if !stale_reads.is_empty() {
            self.c1 += 1;
        }

        let concurrent_neighbors = if self.open_count > 0 {
            let open = &self.open;
            self.graph.neighbors_where(u, |v| open[v.index()].is_some())
        } else {
            Vec::new()
        };
        self.c2 += concurrent_neighbors.len();

        // Read set: u itself plus in-edge neighbors (the batch algorithm's
        // operation model). A read orders after the item's last write.
        self.sg.add_edge(self.last_write[u.index()], txn);
        for &v in self.graph.in_neighbors(u) {
            self.sg.add_edge(self.last_write[v.index()], txn);
        }
        self.newest_txn[u.index()] = txn;

        self.open[u.index()] = Some(OpenTxn {
            txn,
            start,
            stale_reads,
            concurrent_neighbors,
        });
        self.open_count += 1;
    }

    /// A transaction commits at `end`: fold the write operation and
    /// record the completed [`TxnRecord`].
    fn apply_end(&mut self, u: VertexId, end: u64) {
        let open = self.open[u.index()]
            .take()
            .unwrap_or_else(|| panic!("vertex {u:?} ended without beginning"));
        self.open_count -= 1;
        let txn = open.txn;

        // Write op on item u: it orders after the previous write — only
        // u's transactions write u, so that edge went in with this
        // transaction's own read of u — and after every read of that
        // version. Those readers are transactions of u's out-edge
        // neighbors, begun since `written_at[u]`; of each neighbor only the
        // newest needs an edge, its earlier transactions reach that one
        // through the neighbor's own write -> read chain.
        let since = self.written_at[u.index()];
        for &x in self.graph.out_neighbors(u) {
            // A neighbor that never ran holds NIL, which `add_edge` drops.
            let reader = self.newest_txn[x.index()];
            if reader >= since {
                self.sg.add_edge(reader, txn);
            }
        }
        self.last_write[u.index()] = txn;

        self.log.push(TxnRecord {
            vertex: u,
            start: open.start,
            end,
            stale_reads: open.stale_reads,
            concurrent_neighbors: open.concurrent_neighbors,
        });
        self.written_at[u.index()] = self.begun();
    }

    /// Buffer a complete, externally-stamped transaction for
    /// watermark-ordered release. Nothing is checked until
    /// [`IncrementalChecker::advance`] passes the transaction's stamps.
    ///
    /// # Panics
    /// Panics if `txn.start >= txn.end`, or if `txn.start` lies below an
    /// already-applied frontier — the caller's watermark protocol promised
    /// no event would ever be stamped there.
    pub fn observe(&mut self, txn: StampedTxn) {
        assert!(
            txn.start < txn.end,
            "stamped txn on {:?} has start {} >= end {}",
            txn.vertex,
            txn.start,
            txn.end
        );
        assert!(
            txn.start >= self.applied,
            "stamped txn on {:?} starts at {} below the applied frontier {}",
            txn.vertex,
            txn.start,
            self.applied
        );
        let idx = self.free_slots.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.events.push(Reverse((txn.start, idx, false)));
        self.events.push(Reverse((txn.end, idx, true)));
        self.slab[idx] = Some(txn);
    }

    /// Apply every buffered event with `time < frontier`, in global
    /// timestamp order, and report the violations that surfaced. Safe to
    /// call with a frontier at or below a previous one (no-op); the caller
    /// guarantees no *future* [`IncrementalChecker::observe`] carries a
    /// stamp below the largest frontier passed so far.
    pub fn advance(&mut self, frontier: u64) -> Vec<AuditEvent> {
        self.drain(Some(frontier))
    }

    /// Drain every buffered event regardless of frontier — the run is over
    /// and no further transactions can arrive.
    pub fn finish(&mut self) -> Vec<AuditEvent> {
        self.drain(None)
    }

    fn drain(&mut self, frontier: Option<u64>) -> Vec<AuditEvent> {
        let mut out = Vec::new();
        while let Some(&Reverse((time, idx, is_commit))) = self.events.peek() {
            if frontier.is_some_and(|f| time >= f) {
                break;
            }
            self.events.pop();
            self.applied = time;
            if is_commit {
                let txn = self.slab[idx].take().expect("commit without buffered txn");
                self.free_slots.push(idx);
                let was_cyclic = self.sg.cyclic;
                self.apply_end(txn.vertex, time);
                if self.sg.cyclic && !was_cyclic {
                    out.push(AuditEvent::Cycle { vertex: txn.vertex });
                }
            } else {
                let (vertex, stale) = {
                    let txn = self.slab[idx].as_mut().expect("begin without buffered txn");
                    (txn.vertex, std::mem::take(&mut txn.stale_reads))
                };
                if !stale.is_empty() {
                    out.push(AuditEvent::C1 {
                        vertex,
                        stale: stale.clone(),
                    });
                }
                self.apply_begin(vertex, time, stale);
                let open = self.open[vertex.index()]
                    .as_ref()
                    .expect("begin left no open txn");
                if !open.concurrent_neighbors.is_empty() {
                    out.push(AuditEvent::C2 {
                        vertex,
                        neighbors: open.concurrent_neighbors.clone(),
                    });
                }
            }
        }
        out
    }

    /// Number of buffered transactions not yet fully applied.
    pub fn pending(&self) -> usize {
        self.slab.len() - self.free_slots.len()
    }

    /// Largest event stamp applied so far.
    pub fn applied_frontier(&self) -> u64 {
        self.applied
    }

    /// Committed transactions applied so far.
    pub fn transactions(&self) -> usize {
        self.log.len()
    }

    /// The verdicts plus volume, in [`History::summarize`]'s shape — what
    /// the audit plane publishes as the live summary.
    pub fn summary(&self) -> HistorySummary {
        let st = self.status();
        HistorySummary {
            transactions: self.log.len(),
            c1_violations: st.c1_violations,
            c2_violations: st.c2_violations,
            serialization_graph_acyclic: st.serialization_graph_acyclic,
            one_copy_serializable: st.clean(),
        }
    }

    /// The verdicts as of the last applied operation.
    pub fn status(&self) -> CheckStatus {
        CheckStatus {
            c1_violations: self.c1,
            c2_violations: self.c2,
            serialization_graph_acyclic: !self.sg.cyclic,
        }
    }

    /// Committed transactions so far as a batch-checkable [`History`]
    /// (open transactions are not included), borrowed.
    pub fn log(&self) -> &History {
        &self.log
    }

    /// An owned copy of [`IncrementalChecker::log`].
    pub fn history(&self) -> History {
        self.log.clone()
    }

    /// The graph this checker observes.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Serialization-graph edges stored so far, repeats included.
    #[doc(hidden)]
    pub fn edge_count(&self) -> usize {
        self.sg.edges.len()
    }

    /// Transactions the cycle probes have walked through so far; zero
    /// while every probe has taken the O(1) path.
    #[doc(hidden)]
    pub fn probe_steps(&self) -> u64 {
        self.sg.probe_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TxnGuard};
    use sg_graph::{gen, SplitMix64};
    use std::collections::{BTreeMap, BTreeSet};

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }

    /// A fresh transaction of vertex `raw` over `[start, end)`.
    fn stamped(raw: u32, start: u64, end: u64) -> StampedTxn {
        StampedTxn {
            vertex: v(raw),
            start,
            end,
            stale_reads: Vec::new(),
        }
    }

    /// Three rounds of one stamped txn per vertex, serially spaced, each
    /// applied as it arrives: clean verdicts throughout.
    #[test]
    fn serial_feed_stays_clean() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        let mut t = 0u64;
        for _ in 0..3 {
            for u in g.vertices() {
                c.observe(stamped(u.raw(), t, t + 1));
                t += 2;
                assert!(c.advance(t).is_empty());
                assert!(c.status().clean());
            }
        }
        assert!(c.finish().is_empty());
        assert_eq!(c.transactions(), 12);
        assert_eq!(c.pending(), 0);
        assert!(c.summary().one_copy_serializable);
        assert!(c.log().is_one_copy_serializable(&g));
    }

    /// C1 counts when the stale transaction begins, before it commits.
    #[test]
    fn stale_read_flags_c1_at_begin() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        c.observe(stamped(0, 0, 1));
        c.observe(StampedTxn {
            stale_reads: vec![v(0)],
            ..stamped(1, 2, 3)
        });
        c.advance(2);
        assert!(c.status().clean());
        c.advance(3); // v1 has begun on a stale replica of v0
        assert_eq!(c.status().c1_violations, 1);
        assert_eq!(c.transactions(), 1);
        c.finish();
        assert_eq!(c.log().c1_violations(), vec![1]);
    }

    #[test]
    fn overlapping_neighbors_flag_c2_and_cycle() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        c.observe(stamped(0, 0, 2));
        c.observe(stamped(1, 1, 3)); // neighbor of v0, concurrent
        c.advance(2);
        let st = c.status();
        assert_eq!(st.c2_violations, 1);
        assert!(st.serialization_graph_acyclic);
        // Both read each other before either writes: the cycle appears once
        // both writes commit.
        assert_eq!(c.finish(), vec![AuditEvent::Cycle { vertex: v(1) }]);
        assert!(!c.status().serialization_graph_acyclic);
    }

    #[test]
    fn concurrent_non_neighbors_stay_clean() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        // v0 and v3 are not adjacent in the paper's C4.
        c.observe(stamped(0, 0, 2));
        c.observe(stamped(3, 1, 3));
        assert!(c.finish().is_empty());
        assert!(c.status().clean());
    }

    #[test]
    #[should_panic(expected = "began twice")]
    fn double_begin_panics() {
        let g = Arc::new(gen::ring(4));
        let mut c = IncrementalChecker::new(g);
        c.observe(stamped(0, 0, 2));
        c.observe(stamped(0, 1, 3));
        c.finish();
    }

    /// Overlapping stamped neighbor txns surface C2 (and the cycle) as
    /// events, no matter the arrival order.
    #[test]
    fn streaming_overlap_surfaces_c2_and_cycle_events() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        // v1's interval nests inside v0's — arrival order reversed.
        c.observe(stamped(1, 5, 6));
        c.observe(stamped(0, 4, 9));
        let events = c.finish();
        assert!(events.contains(&AuditEvent::C2 {
            vertex: v(1),
            neighbors: vec![v(0)],
        }));
        assert_eq!(c.status().c2_violations, 1);
    }

    /// Stale reads supplied by the producer surface as C1 events and count.
    #[test]
    fn streaming_stale_reads_surface_c1() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        c.observe(StampedTxn {
            stale_reads: vec![v(0)],
            ..stamped(1, 0, 1)
        });
        let events = c.finish();
        assert_eq!(
            events,
            vec![AuditEvent::C1 {
                vertex: v(1),
                stale: vec![v(0)],
            }]
        );
        assert_eq!(c.status().c1_violations, 1);
        assert_eq!(c.log().c1_violations(), vec![0]);
    }

    /// `advance` releases strictly below the frontier and buffers the rest.
    #[test]
    fn advance_respects_the_frontier() {
        let g = Arc::new(gen::ring(4));
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        c.observe(stamped(0, 0, 1));
        c.observe(stamped(1, 10, 11));
        c.advance(5);
        assert_eq!(c.transactions(), 1);
        assert_eq!(c.pending(), 1);
        assert_eq!(c.applied_frontier(), 1);
        c.advance(11); // end stamp 11 is NOT below the frontier yet
        assert_eq!(c.transactions(), 1);
        c.advance(12);
        assert_eq!(c.transactions(), 2);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "below the applied frontier")]
    fn observe_below_applied_frontier_panics() {
        let g = Arc::new(gen::ring(4));
        let mut c = IncrementalChecker::new(g);
        c.observe(stamped(0, 10, 11));
        c.finish();
        c.observe(stamped(1, 3, 4));
    }

    /// 10,000 observe/advance rounds with one to three transactions in
    /// flight: the buffer never holds more slots than that, and `pending`
    /// counts them without walking it.
    #[test]
    fn buffer_slots_are_reused_across_rounds() {
        let g = Arc::new(gen::ring(8));
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        let (mut peak, mut total) = (0, 0);
        let mut t = 0u64;
        for round in 0..10_000u32 {
            let in_flight = 1 + round % 3;
            for k in 0..in_flight {
                // Vertices 0, 2, 4 of the ring are pairwise non-adjacent.
                c.observe(stamped(2 * k, t, t + 1));
                t += 2;
            }
            assert_eq!(c.pending(), in_flight as usize);
            peak = peak.max(c.pending());
            total += c.pending();
            assert!(c.advance(t).is_empty());
            assert_eq!(c.pending(), 0);
        }
        assert_eq!(c.transactions(), total);
        assert!(
            c.slab.len() <= peak,
            "{} slots for at most {peak} transactions in flight",
            c.slab.len()
        );
        assert!(c.status().clean());
    }

    /// The graphs the property tests draw schedules over: a clique (every
    /// pair conflicts), a skewed directed R-MAT (hubs; in- and out-edge
    /// neighborhoods differ), and a multigraph with parallel edges in both
    /// directions, one-way edges and a self-loop.
    fn prop_graphs() -> Vec<(&'static str, Arc<Graph>)> {
        let multi = [
            (0, 1),
            (0, 1),
            (0, 1),
            (1, 0),
            (1, 2),
            (1, 2),
            (2, 1),
            (2, 0),
            (3, 1),
            (3, 1),
            (1, 3),
            (4, 4),
            (4, 0),
            (0, 4),
            (0, 4),
        ];
        vec![
            ("complete-5", Arc::new(gen::complete(5))),
            (
                "rmat-8",
                Arc::new(gen::rmat(8, 1500, gen::datasets::SKEW, 7)),
            ),
            ("multi-edge", Arc::new(Graph::from_edges(5, &multi))),
        ]
    }

    /// Drive a [`Recorder`] through a random schedule that overlaps
    /// neighbors and leaves sends undelivered, checking every recorded
    /// transaction's stale reads against a per-pair count kept here. The
    /// checker ingests the recorder's transactions as a
    /// [`crate::StreamingAuditor`] does, and whenever no transaction is
    /// open its verdicts are checked against the batch checkers (which see
    /// committed transactions only). Returns the checker and the
    /// recorder's history.
    fn drive_random(g: &Arc<Graph>, seed: u64) -> (IncrementalChecker, History) {
        let mut rng = SplitMix64::new(seed);
        let n = u64::from(g.num_vertices());
        let mut c = IncrementalChecker::new(Arc::clone(g));
        let rec = Recorder::new(Arc::clone(g));
        let mut undelivered: BTreeMap<(VertexId, VertexId), i64> = BTreeMap::new();
        // Open executions, each with the stale reads it began with.
        let mut open: Vec<(VertexId, TxnGuard, Vec<VertexId>)> = Vec::new();
        // The stale reads of every commit, in commit order.
        let mut expected_stale = Vec::new();
        let mut fed = 0;
        for _ in 0..12 * n.min(40) {
            // Half the time aim at a neighbor of an open transaction, so a
            // large sparse graph sees overlaps too.
            let near = open.last().map(|(o, ..)| g.neighbors(*o));
            let u = match near {
                Some(near) if !near.is_empty() && rng.gen_bool(0.5) => {
                    near[rng.gen_range(near.len() as u64) as usize]
                }
                _ => v(rng.gen_range(n) as u32),
            };
            if let Some(pos) = open.iter().position(|(x, ..)| *x == u) {
                if rng.gen_bool(0.6) {
                    for &t in g.out_neighbors(u) {
                        rec.on_send(u, t);
                        *undelivered.entry((u, t)).or_default() += 1;
                        if rng.gen_bool(0.5) {
                            rec.on_visible(u, t);
                            *undelivered.entry((u, t)).or_default() -= 1;
                        }
                    }
                }
                let (_, guard, stale) = open.swap_remove(pos);
                rec.end(guard);
                expected_stale.push(stale);
                if open.is_empty() {
                    let fresh = rec.txns_since(fed);
                    fed += fresh.len();
                    fresh.into_iter().for_each(|t| c.observe(t));
                    c.advance(rec.safe_watermark());
                    assert_eq!(c.pending(), 0);
                    assert_matches_batch(
                        &c,
                        g,
                        &format!("seed {seed}, {} committed", c.transactions()),
                    );
                }
            } else if open.len() < 3 {
                let mut stale: Vec<VertexId> = g.in_neighbors(u).to_vec();
                stale.dedup();
                stale.retain(|&w| w != u && undelivered.get(&(w, u)).is_some_and(|&d| d != 0));
                open.push((u, rec.begin(u), stale));
            }
        }
        for (_, guard, stale) in open {
            rec.end(guard);
            expected_stale.push(stale);
        }
        rec.txns_since(fed).into_iter().for_each(|t| c.observe(t));
        c.finish();
        let recorded = rec.history();
        let stale: Vec<_> = recorded.txns().iter().map(|t| &t.stale_reads).collect();
        assert_eq!(
            stale,
            expected_stale.iter().collect::<Vec<_>>(),
            "seed {seed}"
        );
        (c, recorded)
    }

    /// Live verdicts of `c` against the batch checkers over its own log.
    fn assert_matches_batch(c: &IncrementalChecker, g: &Graph, what: &str) {
        let h = c.log();
        let st = c.status();
        assert_eq!(st.c1_violations, h.c1_violations().len(), "{what}");
        assert_eq!(st.c2_violations, h.c2_violations(g).len(), "{what}");
        assert_eq!(
            st.serialization_graph_acyclic,
            h.serialization_graph_acyclic(g),
            "{what}"
        );
        assert_eq!(c.summary(), h.summarize(g), "{what}");
    }

    /// Property: against randomized schedules (most of them violating),
    /// the incremental verdicts agree with the batch [`History`] checkers,
    /// and the checker's log is the recorder's history record for record —
    /// stale reads and concurrent neighbors included.
    #[test]
    fn prop_matches_batch_checkers() {
        for (name, g) in prop_graphs() {
            let (mut stale, mut overlapping, mut cyclic) = (0, 0, 0);
            for seed in 0..25u64 {
                let (c, recorded) = drive_random(&g, seed);
                let what = format!("{name} seed {seed}");
                assert_eq!(c.log().txns(), recorded.txns(), "{what}");
                assert_matches_batch(&c, &g, &what);
                let st = c.status();
                stale += usize::from(st.c1_violations > 0);
                overlapping += usize::from(st.c2_violations > 0);
                cyclic += usize::from(!st.serialization_graph_acyclic);
            }
            assert!(
                stale > 0 && overlapping > 0 && cyclic > 0,
                "{name}: {stale} stale, {overlapping} overlapping, {cyclic} cyclic of 25 schedules"
            );
        }
    }

    /// Property: a watermark-buffered, shuffled feed produces byte-for-byte
    /// the same history and identical verdicts as the in-order feed, and
    /// both agree with the batch checkers.
    #[test]
    fn prop_out_of_order_feed_matches_in_order() {
        for (name, g) in prop_graphs() {
            for seed in 0..25u64 {
                let what = format!("{name} seed {seed}");
                let mut rng = SplitMix64::new(seed ^ 0x5EED);
                // A random stamped schedule (possibly overlapping), harvested
                // from the recorder's history.
                let recorded = drive_random(&g, seed).1;
                let stamped: Vec<StampedTxn> =
                    recorded.txns().iter().map(StampedTxn::from).collect();

                // In-order feed: sorted by start, finish at the end.
                let mut in_order = IncrementalChecker::new(Arc::clone(&g));
                let mut sorted = stamped.clone();
                sorted.sort_by_key(|t| t.start);
                for t in sorted {
                    in_order.observe(t);
                }
                in_order.finish();

                // Out-of-order feed: shuffled arrivals, watermark-batched
                // advances after every few observes.
                let mut shuffled = stamped.clone();
                for i in (1..shuffled.len()).rev() {
                    let j = rng.gen_range(i as u64 + 1) as usize;
                    shuffled.swap(i, j);
                }
                let mut ooo = IncrementalChecker::new(Arc::clone(&g));
                // The safe frontier after each arrival is the smallest stamp
                // of any not-yet-observed transaction — exactly the guarantee
                // a per-producer watermark merge provides.
                let mut unseen: BTreeSet<u64> =
                    shuffled.iter().flat_map(|t| [t.start, t.end]).collect();
                for (i, t) in shuffled.into_iter().enumerate() {
                    unseen.remove(&t.start);
                    unseen.remove(&t.end);
                    ooo.observe(t);
                    if i % 3 == 0 {
                        let frontier = unseen.iter().next().copied().unwrap_or(u64::MAX);
                        ooo.advance(frontier);
                    }
                }
                ooo.finish();

                assert_eq!(in_order.log().txns(), ooo.log().txns(), "{what}");
                assert_eq!(in_order.status(), ooo.status(), "{what}");
                assert_matches_batch(&ooo, &g, &what);
            }
        }
    }
}
