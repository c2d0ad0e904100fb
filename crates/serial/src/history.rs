//! Transaction histories and the Section 3 correctness checkers.

use sg_graph::{Graph, VertexId};

/// Dense transaction identifier (index into the history).
pub type TxnId = usize;

/// One recorded transaction `Ti(Nu) = ri[Nu] wi[u]` — a single execution of
/// vertex `u` (Section 3.2).
///
/// `start` and `end` are strictly increasing logical timestamps drawn from
/// one global counter: the read set is considered read at `start`, the
/// write of `u` applied at `end`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnRecord {
    /// The vertex this transaction executed.
    pub vertex: VertexId,
    /// Logical time the execution (and its reads) began.
    pub start: u64,
    /// Logical time the execution committed its write. `end > start`.
    pub end: u64,
    /// In-edge neighbors whose replica was stale at `start` — C1 witnesses.
    /// C2 needs no witness field: it is read off the intervals
    /// ([`History::c2_violations`]).
    pub stale_reads: Vec<VertexId>,
}

impl TxnRecord {
    /// Does this transaction's interval overlap another's?
    /// Intervals are half-open `[start, end)`.
    #[inline]
    pub fn overlaps(&self, other: &TxnRecord) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A complete recorded execution: all transactions plus the graph they ran
/// over (needed to know read sets and neighborhoods).
#[derive(Clone, Debug)]
pub struct History {
    txns: Vec<TxnRecord>,
}

/// A C2 violation: two neighboring vertices executed concurrently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlapViolation {
    /// First transaction (by id).
    pub a: TxnId,
    /// Second transaction.
    pub b: TxnId,
}

impl History {
    /// Build from recorded transactions.
    pub fn new(txns: Vec<TxnRecord>) -> Self {
        Self { txns }
    }

    /// Append one more transaction (the incremental checker's log).
    pub(crate) fn push(&mut self, txn: TxnRecord) {
        self.txns.push(txn);
    }

    /// Keep the first `len` transactions and return the rest (the
    /// incremental checker's prefix probes).
    pub(crate) fn split_off(&mut self, len: usize) -> Vec<TxnRecord> {
        self.txns.split_off(len)
    }

    /// Re-append what [`History::split_off`] took.
    pub(crate) fn append(&mut self, mut tail: Vec<TxnRecord>) {
        self.txns.append(&mut tail);
    }

    /// The recorded transactions.
    pub fn txns(&self) -> &[TxnRecord] {
        &self.txns
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// `true` if no transactions were recorded.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Transactions that read at least one stale replica — the witnesses
    /// that **condition C1** failed. Empty iff C1 held throughout.
    pub fn c1_violations(&self) -> Vec<TxnId> {
        self.txns
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.stale_reads.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Pairs of transactions on *neighboring* vertices whose execution
    /// intervals overlap — the witnesses that **condition C2** failed,
    /// sorted, as the acyclicity certificate's merge scan finds them.
    pub fn c2_violations(&self, g: &Graph) -> Vec<OverlapViolation> {
        self.separation(g).overlaps
    }

    /// The one post-hoc scan behind C2 and the acyclicity certificate.
    ///
    /// Every transaction's interval is counting-sorted by vertex into one
    /// CSR of compact `(start, end, id)` entries, each vertex's run ordered
    /// by start; then for every undirected edge `{u, v}` of `g` the runs of
    /// `u` and `v` are merge-scanned, reading sequential memory only. The
    /// scan lists the overlapping pairs (C2), and decides on the way
    /// whether the history is *strictly separated*: every `start < end`,
    /// each vertex's consecutive intervals `a.end < b.start`, and no
    /// interval on an edge overlapping or touching one on the other end.
    fn separation(&self, g: &Graph) -> Separation {
        let runs = ByVertex::new(self, g);
        let mut strict = runs.entries.iter().all(|t| t.start < t.end);

        let mut overlaps = Vec::new();
        for u in g.vertices() {
            let us = runs.run(u);
            if us.is_empty() {
                continue;
            }
            strict &= us.windows(2).all(|w| w[0].end < w[1].start);
            // Each undirected pair once, so each overlapping pair once.
            for v in g.higher_neighbors(u) {
                let vs = runs.run(v);
                let mut j = 0;
                for t in us {
                    // Starts ascend, so a v-interval that ends before this
                    // one starts ends before every later one starts too.
                    while j < vs.len() && vs[j].end < t.start {
                        j += 1;
                    }
                    for w in vs[j..].iter().take_while(|w| w.start <= t.end) {
                        if t.start < w.end && w.start < t.end {
                            overlaps.push(OverlapViolation {
                                a: t.txn.min(w.txn) as TxnId,
                                b: t.txn.max(w.txn) as TxnId,
                            });
                        } else {
                            // They touch: a shared stamp leaves their order
                            // to the transaction order.
                            strict = false;
                        }
                    }
                }
            }
        }
        overlaps.sort_unstable_by_key(|v| (v.a, v.b));
        Separation {
            strict: strict && overlaps.is_empty(),
            overlaps,
        }
    }

    /// Build the serialization graph (Bernstein et al.): one node per
    /// transaction, an edge `Ti -> Tj` whenever `Ti` and `Tj` issue
    /// conflicting operations (same vertex, at least one write) and `Ti`'s
    /// operation comes first. Returns the adjacency list, each row sorted
    /// and free of duplicates.
    ///
    /// Operation model: `Ti(Nu)` reads `u` and `u`'s in-edge neighbors at
    /// `start`, writes `u` at `end`. Timestamps are globally unique, so the
    /// order is total.
    pub fn serialization_graph(&self, g: &Graph) -> Vec<Vec<TxnId>> {
        let mut adj = vec![Vec::new(); self.txns.len()];
        for (from, to) in self.conflict_edges(g) {
            adj[from as usize].push(to as usize);
        }
        for edges in &mut adj {
            edges.sort_unstable();
            edges.dedup();
        }
        adj
    }

    /// The serialization graph's edges in transitive-reduction form, in no
    /// particular order and possibly repeated: per item, between
    /// consecutive writes `w1 < w2`, `w1 -> (reads between) -> w2` and
    /// `w1 -> w2`; a read before the first write `->` that write.
    ///
    /// An operation is a `u32`, `txn << 1 | is_write`. All operations are
    /// bucketed by item (= vertex) with one counting sort, dealt out in
    /// global timestamp order so every bucket is born sorted: an item sees
    /// writes by its own transactions, and reads by those and by the
    /// transactions of its out-edge neighbors (`u ∈ N_v` iff `v` is an
    /// out-edge neighbor of `u`).
    fn conflict_edges(&self, g: &Graph) -> Vec<(u32, u32)> {
        assert!(
            self.txns.len() <= (u32::MAX >> 1) as usize,
            "history too long for 31-bit transaction ids"
        );
        let n = g.num_vertices() as usize;
        let foreign_reads = |t: &TxnRecord| {
            let u = t.vertex;
            g.in_neighbors(u).iter().filter(move |&&v| v != u)
        };

        let mut events: Vec<(u64, u32)> = Vec::with_capacity(2 * self.txns.len());
        let mut offsets = vec![0usize; n + 1];
        for (i, t) in self.txns.iter().enumerate() {
            let read = (i as u32) << 1;
            events.push((t.start, read));
            events.push((t.end, read | 1));
            offsets[t.vertex.index() + 1] += 2;
            for v in foreign_reads(t) {
                offsets[v.index() + 1] += 1;
            }
        }
        // Stable: equal stamps keep transaction order, a read before a write.
        events.sort_by_key(|&(time, _)| time);
        for item in 0..n {
            offsets[item + 1] += offsets[item];
        }

        let mut ops = vec![0u32; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        let mut deal = |item: VertexId, op: u32| {
            ops[cursor[item.index()]] = op;
            cursor[item.index()] += 1;
        };
        for &(_, op) in &events {
            let t = &self.txns[(op >> 1) as usize];
            deal(t.vertex, op);
            if op & 1 == 0 {
                for &v in foreign_reads(t) {
                    deal(v, op);
                }
            }
        }

        // At most one edge per operation plus one per read at the next
        // write; starting from one per operation means at most one regrowth.
        let mut edges = Vec::with_capacity(ops.len());
        for item in 0..n {
            let bucket = &ops[offsets[item]..offsets[item + 1]];
            let mut last_write: Option<u32> = None;
            // bucket[reads_from..k] are the reads since the last write.
            let mut reads_from = 0;
            for (k, &op) in bucket.iter().enumerate() {
                let txn = op >> 1;
                if let Some(w) = last_write.filter(|&w| w != txn) {
                    edges.push((w, txn));
                }
                if op & 1 == 1 {
                    let readers = bucket[reads_from..k].iter().map(|&r| r >> 1);
                    edges.extend(readers.filter(|&r| r != txn).map(|r| (r, txn)));
                    reads_from = k + 1;
                    last_write = Some(txn);
                }
            }
        }
        edges
    }

    /// Is the serialization graph acyclic? By the serializability theorem,
    /// an acyclic serialization graph means the history is
    /// conflict-serializable; combined with C1 (Lemma 1 collapses replicas
    /// to one logical copy) this certifies one-copy serializability.
    ///
    /// A strictly separated history (the merge scan behind C2) is the
    /// certificate tried first. Every conflict joins two transactions on
    /// one vertex or on two neighbours — an item is written by its own
    /// vertex and read by that vertex and its out-edge neighbours — and
    /// strict separation puts all of the earlier one's operations before
    /// the later one's, so every edge runs forward in start order. That is
    /// Theorem 1's own argument: with no neighbour overlap, commit order is
    /// a serial order. Only when the certificate fails does the check fall
    /// back to Kahn's algorithm over the full edge list, so the verdict
    /// stays exact whatever C2 says.
    pub fn serialization_graph_acyclic(&self, g: &Graph) -> bool {
        self.separation(g).strict || self.equivalent_serial_order(g).is_some()
    }

    /// The full Theorem 1 check: C1 holds, C2 holds, and the serialization
    /// graph is acyclic.
    pub fn is_one_copy_serializable(&self, g: &Graph) -> bool {
        self.c1_violations().is_empty()
            && self.c2_violations(g).is_empty()
            && self.serialization_graph_acyclic(g)
    }

    /// A topological order of transactions — an *equivalent serial
    /// execution* — if the serialization graph is acyclic.
    pub fn equivalent_serial_order(&self, g: &Graph) -> Option<Vec<TxnId>> {
        topo_sort(self.txns.len(), &self.conflict_edges(g))
    }

    /// One-call report of everything the Theorem 1 checkers can say about
    /// this history against `g`.
    pub fn summarize(&self, g: &Graph) -> HistorySummary {
        let c1 = self.c1_violations();
        let c2 = self.separation(g);
        let acyclic = c2.strict || self.serialization_graph_acyclic(g);
        HistorySummary {
            transactions: self.len(),
            c1_violations: c1.len(),
            c2_violations: c2.overlaps.len(),
            serialization_graph_acyclic: acyclic,
            one_copy_serializable: c1.is_empty() && c2.overlaps.is_empty() && acyclic,
        }
    }
}

/// What [`History::separation`]'s scan finds.
struct Separation {
    /// C2's witnesses, sorted.
    overlaps: Vec<OverlapViolation>,
    /// Is the history strictly separated — the acyclicity certificate?
    strict: bool,
}

/// A transaction's interval and id, as the C2 merge scan reads it.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Interval {
    start: u64,
    end: u64,
    txn: u32,
}

/// One interval per transaction, counting-sorted by vertex into one CSR:
/// the intervals of vertex `v`'s transactions are
/// `entries[offsets[v]..offsets[v + 1]]`, each run sorted.
struct ByVertex {
    offsets: Vec<usize>,
    entries: Vec<Interval>,
}

impl ByVertex {
    /// Every transaction of `h`, by vertex.
    fn new(h: &History, g: &Graph) -> Self {
        assert!(
            h.txns.len() <= (u32::MAX >> 1) as usize,
            "history too long for 31-bit transaction ids"
        );
        let n = g.num_vertices() as usize;
        let mut offsets = vec![0usize; n + 1];
        for t in &h.txns {
            offsets[t.vertex.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut entries = vec![Interval::default(); h.txns.len()];
        let mut cursor = offsets[..n].to_vec();
        for (t, txn) in h.txns.iter().zip(0u32..) {
            entries[cursor[t.vertex.index()]] = Interval {
                start: t.start,
                end: t.end,
                txn,
            };
            cursor[t.vertex.index()] += 1;
        }
        for run in offsets.windows(2) {
            entries[run[0]..run[1]].sort_unstable();
        }
        Self { offsets, entries }
    }

    fn run(&self, v: VertexId) -> &[Interval] {
        &self.entries[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }
}

/// Aggregate verdict of the Theorem 1 checkers for one recorded history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistorySummary {
    /// Transactions recorded.
    pub transactions: usize,
    /// Transactions that read at least one stale replica (C1 witnesses).
    pub c1_violations: usize,
    /// Overlapping neighbor-transaction pairs (C2 witnesses).
    pub c2_violations: usize,
    /// Is the serialization graph acyclic?
    pub serialization_graph_acyclic: bool,
    /// The Theorem 1 conjunction.
    pub one_copy_serializable: bool,
}

impl std::fmt::Display for HistorySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "transactions:            {}", self.transactions)?;
        writeln!(
            f,
            "C1 (stale reads):        {} violations",
            self.c1_violations
        )?;
        writeln!(
            f,
            "C2 (neighbor overlap):   {} violations",
            self.c2_violations
        )?;
        writeln!(
            f,
            "serialization graph:     {}",
            if self.serialization_graph_acyclic {
                "acyclic"
            } else {
                "CYCLIC"
            }
        )?;
        write!(
            f,
            "one-copy serializable:   {}",
            if self.one_copy_serializable {
                "YES"
            } else {
                "NO"
            }
        )
    }
}

/// Kahn's algorithm over a CSR built from `edges` (repeats welcome: they
/// raise the in-degree and are walked once each). `None` iff there is a
/// cycle.
fn topo_sort(n: usize, edges: &[(u32, u32)]) -> Option<Vec<TxnId>> {
    let mut offsets = vec![0usize; n + 1];
    let mut indeg = vec![0u32; n];
    for &(from, to) in edges {
        offsets[from as usize + 1] += 1;
        indeg[to as usize] += 1;
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let mut targets = vec![0u32; edges.len()];
    let mut cursor = offsets[..n].to_vec();
    for &(from, to) in edges {
        targets[cursor[from as usize]] = to;
        cursor[from as usize] += 1;
    }

    // The order so far doubles as the queue of nodes left to expand.
    let mut order: Vec<TxnId> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut next = 0;
    while let Some(&u) = order.get(next) {
        next += 1;
        for &v in &targets[offsets[u]..offsets[u + 1]] {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                order.push(v as usize);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::gen;

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }

    fn txn(vertex: u32, start: u64, end: u64) -> TxnRecord {
        TxnRecord {
            vertex: v(vertex),
            start,
            end,
            stale_reads: vec![],
        }
    }

    /// Two vertices joined by an undirected edge — the graph of the
    /// paper's Theorem 1 "only if" counterexamples.
    fn two_clique() -> Graph {
        Graph::from_edges(2, &[(0, 1), (1, 0)])
    }

    #[test]
    fn empty_history_is_serializable() {
        let g = two_clique();
        let h = History::new(vec![]);
        assert!(h.is_one_copy_serializable(&g));
        assert_eq!(h.equivalent_serial_order(&g), Some(vec![]));
    }

    #[test]
    fn serial_fresh_history_is_serializable() {
        let g = two_clique();
        // T0 on v0 [0,1), T1 on v1 [2,3): serial, fresh.
        let h = History::new(vec![txn(0, 0, 1), txn(1, 2, 3)]);
        assert!(h.c1_violations().is_empty());
        assert!(h.c2_violations(&g).is_empty());
        assert!(h.serialization_graph_acyclic(&g));
        assert!(h.is_one_copy_serializable(&g));
    }

    #[test]
    fn overlapping_neighbors_violate_c2() {
        // The paper's "C1 true, C2 false" counterexample: two parallel
        // conflicting transactions on the two-vertex clique.
        let g = two_clique();
        let h = History::new(vec![txn(0, 0, 2), txn(1, 1, 3)]);
        let violations = h.c2_violations(&g);
        assert_eq!(violations, vec![OverlapViolation { a: 0, b: 1 }]);
        assert!(!h.is_one_copy_serializable(&g));
    }

    #[test]
    fn overlapping_parallel_txns_create_sg_cycle() {
        // T0(v0): reads {v0, v1}@0, writes v0@2.
        // T1(v1): reads {v1, v0}@1, writes v1@3.
        // Item v0: r0@0, r1@1, w0@2 -> edge T1 -> T0 (r1 before w0)
        // Item v1: r1@1, r0@0, w1@3 -> edge T0 -> T1. Cycle.
        let g = two_clique();
        let h = History::new(vec![txn(0, 0, 2), txn(1, 1, 3)]);
        assert!(!h.serialization_graph_acyclic(&g));
        assert_eq!(h.equivalent_serial_order(&g), None);
    }

    #[test]
    fn stale_read_violates_c1_even_when_serial() {
        // The paper's "C2 true, C1 false" counterexample: a serial history
        // where the second transaction reads a stale replica.
        let g = two_clique();
        let mut t2 = txn(1, 2, 3);
        t2.stale_reads.push(v(0));
        let h = History::new(vec![txn(0, 0, 1), t2]);
        assert!(h.c2_violations(&g).is_empty());
        assert_eq!(h.c1_violations(), vec![1]);
        assert!(!h.is_one_copy_serializable(&g));
    }

    #[test]
    fn non_neighbors_may_overlap() {
        // v0 and v2 are not adjacent in a path 0-1-2: overlap is fine.
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let h = History::new(vec![txn(0, 0, 5), txn(2, 1, 4)]);
        assert!(h.c2_violations(&g).is_empty());
        assert!(h.is_one_copy_serializable(&g));
    }

    #[test]
    fn same_vertex_repeated_txns_ordered_by_time() {
        let g = two_clique();
        // v0 executes twice, serially; v1 in between.
        let h = History::new(vec![txn(0, 0, 1), txn(1, 2, 3), txn(0, 4, 5)]);
        assert!(h.is_one_copy_serializable(&g));
        let order = h.equivalent_serial_order(&g).unwrap();
        let pos = |t: TxnId| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn sg_respects_write_read_order() {
        // Path graph 0 -> 1 (directed). T0 writes v0@1; T1 (vertex 1) reads
        // v0@2: edge T0 -> T1 only.
        let g = Graph::from_edges(2, &[(0, 1)]);
        let h = History::new(vec![txn(0, 0, 1), txn(1, 2, 3)]);
        let adj = h.serialization_graph(&g);
        assert_eq!(adj[0], vec![1]);
        assert!(adj[1].is_empty());
    }

    #[test]
    fn adversarial_interval_overlap_detected_across_many() {
        let g = gen::ring(6);
        // Txns around the ring, all disjoint except vertices 2 and 3.
        let mut txns = vec![
            txn(0, 0, 1),
            txn(1, 2, 3),
            txn(2, 4, 7),
            txn(3, 6, 9),
            txn(4, 10, 11),
            txn(5, 12, 13),
        ];
        let h = History::new(txns.clone());
        assert_eq!(h.c2_violations(&g), vec![OverlapViolation { a: 2, b: 3 }]);
        // Fix the overlap: everything passes.
        txns[3].start = 7;
        let h = History::new(txns);
        assert!(h.c2_violations(&g).is_empty());
    }

    #[test]
    fn ww_conflicts_on_same_vertex_are_ordered_not_cyclic() {
        let g = Graph::from_edges(1, &[]);
        let h = History::new(vec![txn(0, 0, 1), txn(0, 2, 3), txn(0, 4, 5)]);
        assert!(h.serialization_graph_acyclic(&g));
    }

    #[test]
    fn overlap_predicate() {
        let a = txn(0, 0, 2);
        assert!(a.overlaps(&txn(1, 1, 3)));
        assert!(!a.overlaps(&txn(1, 2, 3))); // half-open: touch is fine
        assert!(!a.overlaps(&txn(1, 5, 6)));
        assert!(a.overlaps(&txn(1, 0, 1)));
    }

    #[test]
    fn summary_reports_all_dimensions() {
        let g = two_clique();
        let good = History::new(vec![txn(0, 0, 1), txn(1, 2, 3)]);
        let s = good.summarize(&g);
        assert!(s.one_copy_serializable);
        assert_eq!(s.transactions, 2);
        assert!(format!("{s}").contains("YES"));

        let bad = History::new(vec![txn(0, 0, 2), txn(1, 1, 3)]);
        let s = bad.summarize(&g);
        assert!(!s.one_copy_serializable);
        assert_eq!(s.c2_violations, 1);
        assert!(!s.serialization_graph_acyclic);
        assert!(format!("{s}").contains("CYCLIC"));
    }

    /// Property: any *serial* history (no overlaps anywhere) with fresh
    /// reads is 1SR — the checker must never flag it.
    #[test]
    fn prop_serial_fresh_histories_always_pass() {
        use sg_graph::SplitMix64;
        let g = gen::complete(5);
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let mut t = 0u64;
            let txns: Vec<TxnRecord> = (0..30)
                .map(|_| {
                    let vertex = rng.gen_range(5) as u32;
                    let start = t;
                    t += 1;
                    let end = t;
                    t += 1;
                    txn(vertex, start, end)
                })
                .collect();
            let h = History::new(txns);
            assert!(h.is_one_copy_serializable(&g), "seed {seed} failed");
            // Decided by the certificate, not the fallback.
            assert!(h.separation(&g).strict, "seed {seed}");
        }
    }

    /// The certificate fails on a backward edge whether or not it closes a
    /// cycle; the fallback then decides.
    #[test]
    fn backward_edge_falls_back_to_kahn() {
        // 1 -> 0 only: T0 on v0 reads v1 at 0; T1 on v1, nested inside T0,
        // writes v1 at 2. Edge T0 -> T1 runs backward in commit order (T0
        // commits at 3), and nothing orders T1 before T0: acyclic.
        let g = Graph::from_edges(2, &[(1, 0)]);
        let h = History::new(vec![txn(0, 0, 3), txn(1, 1, 2)]);
        assert!(!h.separation(&g).strict);
        assert!(h.serialization_graph_acyclic(&g));
        assert_eq!(h.equivalent_serial_order(&g), Some(vec![0, 1]));
        // Both ways: T1 also reads v0 at 1 before T0 writes it at 3.
        let g = two_clique();
        assert!(!h.separation(&g).strict);
        assert!(!h.serialization_graph_acyclic(&g));
    }

    /// A commit stamp shared on one vertex, or an interval that does not
    /// end after it starts, does not fool the certificate.
    #[test]
    fn degenerate_stamps_void_the_certificate() {
        let g = two_clique();
        let tied = History::new(vec![txn(0, 0, 2), txn(0, 1, 2)]);
        assert!(!tied.separation(&g).strict);
        assert_eq!(
            tied.serialization_graph_acyclic(&g),
            tied.equivalent_serial_order(&g).is_some()
        );
        let empty = History::new(vec![txn(0, 1, 1)]);
        assert!(!empty.separation(&g).strict);
        assert!(empty.serialization_graph_acyclic(&g));
    }

    /// Two neighbours' intervals that touch at a shared stamp pass C2
    /// (half-open intervals) yet can close a cycle: the tie leaves the
    /// later transaction's read ahead of the earlier one's write. So the
    /// certificate must refuse touching intervals and let Kahn decide.
    #[test]
    fn touching_neighbours_fall_back_and_can_cycle() {
        let g = two_clique();
        // T(v1) = [3, 5) listed first, T(v0) = [1, 3): at stamp 3, T(v1)
        // reads v0 before T(v0) writes it, and T(v0) read v1 at 1.
        let h = History::new(vec![txn(1, 3, 5), txn(0, 1, 3)]);
        assert!(h.c2_violations(&g).is_empty());
        assert!(!h.separation(&g).strict);
        assert_eq!(h.equivalent_serial_order(&g), None);
        let s = h.summarize(&g);
        assert!(!s.serialization_graph_acyclic && !s.one_copy_serializable);
        // Listed the other way round, the tie orders the write first.
        let h = History::new(vec![txn(0, 1, 3), txn(1, 3, 5)]);
        assert!(!h.separation(&g).strict);
        assert!(h.summarize(&g).one_copy_serializable);
    }

    /// Differential test of the certificate: over seeded random histories
    /// on small directed and undirected graphs — touching intervals, equal
    /// stamps, `start == end`, same-vertex overlaps and one-way edges
    /// included — `summarize`'s acyclicity verdict is Kahn's, and a
    /// strictly separated history is never cyclic. Where the live checker
    /// accepts the history (every stamp unique, each vertex's intervals
    /// disjoint), its summary is the batch one.
    #[test]
    fn certificate_agrees_with_kahn_and_the_live_checker() {
        use crate::incremental::{IncrementalChecker, StampedTxn};
        use sg_graph::SplitMix64;
        use std::sync::Arc;
        let graphs = [
            ("ring-5", gen::ring(5)),
            ("complete-4", gen::complete(4)),
            (
                "one-way",
                Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 3), (3, 4), (3, 4), (4, 1)]),
            ),
        ];
        for (name, g) in graphs {
            let g = Arc::new(g);
            let n = u64::from(g.num_vertices());
            let (mut strict, mut kahn_acyclic, mut cyclic, mut live) = (0, 0, 0, 0);
            for seed in 0..400u64 {
                let mut rng = SplitMix64::new(seed);
                let len = 1 + rng.gen_index(7);
                let mut cursor = 0u64;
                let txns: Vec<TxnRecord> = (0..len)
                    .map(|_| {
                        let vertex = rng.gen_range(n) as u32;
                        let (start, end) = if seed % 2 == 0 {
                            // Walk on: gaps of -1 (overlap), 0 (touch), 1, 2.
                            let start = (cursor + rng.gen_range(4)).saturating_sub(1);
                            (start, start + rng.gen_range(3))
                        } else {
                            // Anywhere in a short window: ties abound.
                            let (a, b) = (rng.gen_range(10), rng.gen_range(10));
                            (a.min(b), a.max(b))
                        };
                        cursor = end;
                        txn(vertex, start, end)
                    })
                    .collect();
                let h = History::new(txns);
                let what = format!("{name} seed {seed}: {:?}", h.txns());
                let kahn = h.equivalent_serial_order(&g).is_some();
                let summary = h.summarize(&g);
                assert_eq!(summary.serialization_graph_acyclic, kahn, "{what}");
                assert_eq!(h.serialization_graph_acyclic(&g), kahn, "{what}");
                if h.separation(&g).strict {
                    assert!(kahn, "{what}");
                    strict += 1;
                } else if kahn {
                    kahn_acyclic += 1;
                } else {
                    cyclic += 1;
                }

                let mut stamps: Vec<u64> = h.txns().iter().flat_map(|t| [t.start, t.end]).collect();
                stamps.sort_unstable();
                stamps.dedup();
                let unique = stamps.len() == 2 * h.len();
                let txns = h.txns();
                let disjoint = txns.iter().enumerate().all(|(i, a)| {
                    txns[..i]
                        .iter()
                        .all(|b| a.vertex != b.vertex || !a.overlaps(b))
                });
                if unique && disjoint && txns.iter().all(|t| t.start < t.end) {
                    let mut c = IncrementalChecker::new(Arc::clone(&g));
                    for t in h.txns() {
                        c.observe(StampedTxn::from(t)).unwrap();
                    }
                    c.finish();
                    assert_eq!(c.summary(), summary, "{what}");
                    live += 1;
                }
            }
            assert!(
                strict > 20 && kahn_acyclic > 20 && cyclic > 20 && live > 20,
                "{name}: {strict} certified, {kahn_acyclic} acyclic by Kahn, \
                 {cyclic} cyclic, {live} checked live"
            );
        }
    }
}
