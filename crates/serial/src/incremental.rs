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
//! * **acyclicity** — commit order is the certificate, checked as it goes.
//!   Of the serialization graph's edges only one from a read to the item's
//!   next write can run backward in commit order, and it does exactly when
//!   the write commits while the reader is still open. So each commit of
//!   `u` asks whether an out-edge neighbor of `u` — a reader of item `u` —
//!   has an open transaction: O(degree), and never true while C2 holds.
//!   Until a commit answers yes, commit order is a topological order of the
//!   committed history, which is therefore acyclic. From the first
//!   *backward* commit on, every advance that applied a commit decides the
//!   verdict before it returns by running
//!   [`History::serialization_graph_acyclic`] over the committed log — the
//!   check [`History::summarize`] runs — so the verdict is never pending,
//!   and a backward edge that closes no cycle is never reported as one.
//!   A cyclic history stays cyclic as commits are added, so once the
//!   fallback finds a cycle it runs no more.
//!
//! The checker keeps no graph of its own: one open flag per vertex, the
//! committed log, and the buffered transactions. The final
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

/// The three Theorem 1 verdicts, valid after every advance. C1 and C2
/// count transactions from their begin; acyclicity covers the committed
/// transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckStatus {
    /// Transactions so far that began with at least one stale replica.
    pub c1_violations: usize,
    /// Overlapping neighbor-transaction pairs so far.
    pub c2_violations: usize,
    /// Is the serialization graph of the committed transactions acyclic?
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

/// Why [`IncrementalChecker::observe`] refused a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObserveError {
    /// The transaction's vertex, or one of its stale-read witnesses, is not
    /// a vertex of the checker's graph.
    UnknownVertex(VertexId),
    /// `start >= end`: the interval is empty.
    EmptyInterval {
        /// The transaction's start stamp.
        start: u64,
        /// Its end stamp.
        end: u64,
    },
    /// `start` lies below a frontier the checker has already applied — a
    /// stamp the watermark protocol promised would never come.
    BelowFrontier {
        /// The transaction's start stamp.
        start: u64,
        /// The largest event stamp applied so far.
        applied: u64,
    },
}

impl std::fmt::Display for ObserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::UnknownVertex(v) => write!(f, "vertex {v:?} is not in the graph"),
            Self::EmptyInterval { start, end } => {
                write!(f, "stamped txn has start {start} >= end {end}")
            }
            Self::BelowFrontier { start, applied } => write!(
                f,
                "stamped txn starts at {start} below the applied frontier {applied}"
            ),
        }
    }
}

impl std::error::Error for ObserveError {}

/// One observability event surfaced by [`IncrementalChecker::advance`] —
/// what the audit plane turns into sentinels and heatmap increments. Like
/// the verdicts, C1 and C2 events fire at a transaction's begin; the cycle
/// event covers committed transactions.
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
    /// The committed history's serialization graph acquired its first
    /// cycle (emitted once).
    Cycle {
        /// The vertex of the first commit after which the committed
        /// history is cyclic.
        vertex: VertexId,
    },
}

/// Incremental Theorem 1 checker over a watermark-ordered feed of
/// [`StampedTxn`]s: [`IncrementalChecker::observe`] buffers, and
/// [`IncrementalChecker::advance`] applies in global timestamp order.
pub struct IncrementalChecker {
    graph: Arc<Graph>,
    /// Per vertex: has it a begun, not yet committed transaction?
    open: Vec<bool>,
    /// Number of `open` flags set.
    open_count: usize,
    /// Has a commit overwritten a version an open transaction read? Until
    /// one has, commit order certifies the committed history acyclic.
    backward: bool,
    /// Did the fallback find the committed history cyclic?
    cyclic: bool,
    /// Runs of the acyclicity fallback so far, bisection probes included.
    fallback_runs: u64,
    /// Committed transactions, in commit order.
    log: History,
    c1: usize,
    c2: usize,
    /// Buffered transactions, from `observe` until they commit.
    slab: Vec<Option<TxnRecord>>,
    /// Emptied `slab` slots awaiting reuse.
    free_slots: Vec<usize>,
    /// Min-heap of each buffered transaction's next event:
    /// `(time, slab index << 1 | is_commit)`. A commit is queued when its
    /// begin applies.
    events: BinaryHeap<Reverse<(u64, usize)>>,
    /// Largest event stamp applied so far.
    applied: u64,
}

impl IncrementalChecker {
    /// New checker over `graph`.
    pub fn new(graph: Arc<Graph>) -> Self {
        let n = graph.num_vertices() as usize;
        Self {
            graph,
            open: vec![false; n],
            open_count: 0,
            backward: false,
            cyclic: false,
            fallback_runs: 0,
            log: History::new(Vec::new()),
            c1: 0,
            c2: 0,
            slab: Vec::new(),
            free_slots: Vec::new(),
            events: BinaryHeap::new(),
            applied: 0,
        }
    }

    /// The buffered transaction in slot `idx` begins: count and report
    /// its violations, open it, and queue its commit.
    fn apply_begin(&mut self, idx: usize, out: &mut Vec<AuditEvent>) {
        let txn = self.slab[idx].as_ref().expect("begin without buffered txn");
        let u = txn.vertex;
        assert!(
            !self.open[u.index()],
            "vertex {u:?} began twice without ending"
        );
        if !txn.stale_reads.is_empty() {
            self.c1 += 1;
            out.push(AuditEvent::C1 {
                vertex: u,
                stale: txn.stale_reads.clone(),
            });
        }
        if self.open_count > 0 {
            let open = &self.open;
            let neighbors = self.graph.neighbors_where(u, |v| open[v.index()]);
            if !neighbors.is_empty() {
                self.c2 += neighbors.len();
                out.push(AuditEvent::C2 {
                    vertex: u,
                    neighbors,
                });
            }
        }
        self.open[u.index()] = true;
        self.open_count += 1;
        self.events.push(Reverse((txn.end, idx << 1 | 1)));
    }

    /// The transaction in slot `idx` commits: note whether its write runs
    /// a serialization-graph edge backward, and log it.
    fn apply_end(&mut self, idx: usize) {
        let txn = self.slab[idx].take().expect("commit without buffered txn");
        self.free_slots.push(idx);
        let u = txn.vertex;
        self.open[u.index()] = false;
        self.open_count -= 1;
        // The readers of item u are u's own transactions and those of its
        // out-edge neighbors. One still open read the version this write
        // overwrites and commits after it: a backward edge.
        if !self.backward && self.open_count > 0 {
            let open = &self.open;
            self.backward = self.graph.out_neighbors(u).iter().any(|x| open[x.index()]);
        }
        self.log.push(txn);
    }

    /// Buffer a complete, externally-stamped transaction for
    /// watermark-ordered release. Nothing is checked until
    /// [`IncrementalChecker::advance`] passes the transaction's stamps.
    ///
    /// Refuses, buffering nothing, a transaction on a vertex (or with a
    /// stale-read witness) outside the graph, one with `start >= end`, and
    /// one whose `start` lies below the already-applied frontier. Keeping
    /// each vertex's transactions disjoint is the caller's part: a begin
    /// replayed while its vertex's previous transaction is open panics.
    pub fn observe(&mut self, txn: StampedTxn) -> Result<(), ObserveError> {
        let n = self.open.len();
        if let Some(&v) = std::iter::once(&txn.vertex)
            .chain(&txn.stale_reads)
            .find(|v| v.index() >= n)
        {
            return Err(ObserveError::UnknownVertex(v));
        }
        if txn.start >= txn.end {
            return Err(ObserveError::EmptyInterval {
                start: txn.start,
                end: txn.end,
            });
        }
        if txn.start < self.applied {
            return Err(ObserveError::BelowFrontier {
                start: txn.start,
                applied: self.applied,
            });
        }
        let idx = self.free_slots.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        self.events.push(Reverse((txn.start, idx << 1)));
        self.slab[idx] = Some(TxnRecord {
            vertex: txn.vertex,
            start: txn.start,
            end: txn.end,
            stale_reads: txn.stale_reads,
        });
        Ok(())
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
        let committed = self.log.len();
        let mut out = Vec::new();
        while let Some(&Reverse((time, event))) = self.events.peek() {
            if frontier.is_some_and(|f| time >= f) {
                break;
            }
            self.events.pop();
            self.applied = time;
            if event & 1 == 1 {
                self.apply_end(event >> 1);
            } else {
                self.apply_begin(event >> 1, &mut out);
            }
        }
        if self.backward && !self.cyclic && self.log.len() > committed {
            if let Some(vertex) = self.first_cyclic_commit(committed) {
                self.cyclic = true;
                out.push(AuditEvent::Cycle { vertex });
            }
        }
        out
    }

    /// The fallback over the committed log: if it is cyclic, the vertex of
    /// the first commit after which it is, found by bisecting the commits
    /// past `acyclic_upto` — a prefix length already known acyclic. A
    /// cycle, once closed, stays closed as commits are appended, so the
    /// prefix verdicts are monotone.
    fn first_cyclic_commit(&mut self, acyclic_upto: usize) -> Option<VertexId> {
        let (mut lo, mut hi) = (acyclic_upto, self.log.len());
        if self.prefix_acyclic(hi) {
            return None;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.prefix_acyclic(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(self.log.txns()[hi - 1].vertex)
    }

    /// Is the serialization graph of the first `len` commits acyclic?
    fn prefix_acyclic(&mut self, len: usize) -> bool {
        self.fallback_runs += 1;
        let tail = self.log.split_off(len);
        let acyclic = self.log.serialization_graph_acyclic(&self.graph);
        self.log.append(tail);
        acyclic
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

    /// The verdicts as of the last advance.
    pub fn status(&self) -> CheckStatus {
        CheckStatus {
            c1_violations: self.c1,
            c2_violations: self.c2,
            serialization_graph_acyclic: !self.cyclic,
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

    /// Runs of the acyclicity fallback so far, bisection probes included;
    /// zero while commit order has certified every advance.
    #[doc(hidden)]
    pub fn fallback_runs(&self) -> u64 {
        self.fallback_runs
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
                c.observe(stamped(u.raw(), t, t + 1)).unwrap();
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
        c.observe(stamped(0, 0, 1)).unwrap();
        c.observe(StampedTxn {
            stale_reads: vec![v(0)],
            ..stamped(1, 2, 3)
        })
        .unwrap();
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
        c.observe(stamped(0, 0, 2)).unwrap();
        c.observe(stamped(1, 1, 3)).unwrap(); // neighbor of v0, concurrent
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
        c.observe(stamped(0, 0, 2)).unwrap();
        c.observe(stamped(3, 1, 3)).unwrap();
        assert!(c.finish().is_empty());
        assert!(c.status().clean());
    }

    #[test]
    #[should_panic(expected = "began twice")]
    fn double_begin_panics() {
        let g = Arc::new(gen::ring(4));
        let mut c = IncrementalChecker::new(g);
        c.observe(stamped(0, 0, 2)).unwrap();
        c.observe(stamped(0, 1, 3)).unwrap();
        c.finish();
    }

    /// Overlapping stamped neighbor txns surface C2 (and the cycle) as
    /// events, no matter the arrival order.
    #[test]
    fn streaming_overlap_surfaces_c2_and_cycle_events() {
        let g = Arc::new(gen::paper_c4());
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        // v1's interval nests inside v0's — arrival order reversed.
        c.observe(stamped(1, 5, 6)).unwrap();
        c.observe(stamped(0, 4, 9)).unwrap();
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
        })
        .unwrap();
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
        c.observe(stamped(0, 0, 1)).unwrap();
        c.observe(stamped(1, 10, 11)).unwrap();
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

    /// Malformed input is refused with a typed error and leaves nothing
    /// buffered: a vertex or stale-read witness outside the graph, an
    /// empty interval, a start below the applied frontier.
    #[test]
    fn observe_refuses_malformed_transactions() {
        let g = Arc::new(gen::ring(4));
        let mut c = IncrementalChecker::new(g);
        c.observe(stamped(0, 10, 11)).unwrap();
        c.finish();
        assert_eq!(
            c.observe(stamped(4, 20, 21)),
            Err(ObserveError::UnknownVertex(v(4)))
        );
        let witness = StampedTxn {
            stale_reads: vec![v(9)],
            ..stamped(1, 20, 21)
        };
        assert_eq!(c.observe(witness), Err(ObserveError::UnknownVertex(v(9))));
        assert_eq!(
            c.observe(stamped(1, 21, 21)),
            Err(ObserveError::EmptyInterval { start: 21, end: 21 })
        );
        assert_eq!(
            c.observe(stamped(1, 3, 4)),
            Err(ObserveError::BelowFrontier {
                start: 3,
                applied: 11
            })
        );
        assert_eq!(c.pending(), 0);
        c.observe(stamped(1, 20, 21)).unwrap();
        assert!(c.finish().is_empty());
        assert_eq!(c.transactions(), 2);
    }

    /// The cycle event names the commit that closed the cycle, not the
    /// advance's last commit: v0 and v1 read each other before either
    /// writes, so v1's commit at 3 closes the cycle; v2 and v0 commit
    /// after it in the same advance.
    #[test]
    fn cycle_event_names_the_closing_commit() {
        let g = Arc::new(Graph::from_edges(3, &[(0, 1), (1, 0)]));
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        for t in [
            stamped(0, 0, 2),
            stamped(1, 1, 3),
            stamped(2, 4, 5),
            stamped(0, 6, 7),
        ] {
            c.observe(t).unwrap();
        }
        let events = c.advance(8);
        assert_eq!(events.last(), Some(&AuditEvent::Cycle { vertex: v(1) }));
        assert_eq!(c.transactions(), 4);
        assert!(!c.status().serialization_graph_acyclic);
        assert!(c.fallback_runs() > 1, "the closing commit was bisected");
        // Cyclic for good: later advances neither re-run the fallback nor
        // repeat the event.
        let runs = c.fallback_runs();
        c.observe(stamped(2, 8, 9)).unwrap();
        assert!(c.finish().is_empty());
        assert_eq!(c.fallback_runs(), runs);
        assert_matches_batch(&c, &g, "after the cycle");
    }

    /// A backward edge that closes no cycle: v1 writes v1 while v0, which
    /// read it, is still open; nothing orders v1 before v0. The fallback
    /// decides "acyclic" at every advance, and no cycle event fires.
    #[test]
    fn backward_but_acyclic_is_not_a_cycle() {
        let g = Arc::new(Graph::from_edges(2, &[(1, 0)]));
        let mut c = IncrementalChecker::new(Arc::clone(&g));
        c.observe(stamped(0, 0, 3)).unwrap();
        c.observe(stamped(1, 1, 2)).unwrap();
        // v1 committed over v0's read; only its C2 overlap surfaces.
        let events = c.advance(3);
        assert!(matches!(events[..], [AuditEvent::C2 { .. }]), "{events:?}");
        assert!(c.status().serialization_graph_acyclic);
        assert_eq!(c.fallback_runs(), 1);
        assert!(c.finish().is_empty()); // v0 commits
        assert_eq!(c.fallback_runs(), 2);
        assert_matches_batch(&c, &g, "backward but acyclic");
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
                c.observe(stamped(2 * k, t, t + 1)).unwrap();
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
                    fresh.into_iter().for_each(|t| c.observe(t).unwrap());
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
        rec.txns_since(fed)
            .into_iter()
            .for_each(|t| c.observe(t).unwrap());
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
    /// stale reads included.
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
                    in_order.observe(t).unwrap();
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
                    ooo.observe(t).unwrap();
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
