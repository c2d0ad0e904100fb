//! Condition C1's ledger, the [`crate::Recorder`]'s: one count of messages
//! in flight per directed pair, addressed by the sender.
//!
//! A pair `from -> to` counts at the out-CSR slot of its first edge in
//! `from`'s out-run — a binary search over the adjacency the sender's
//! `compute` has just walked, and one counter among the sender's own
//! contiguous run. The reader's side, `begin(u)`, walks `u`'s in-run
//! instead; `in_to_out` maps each in-CSR slot to its pair's out-slot, so
//! that walk is one gather. Parallel edges share their first slot.

use sg_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Per-pair in-flight counters: a send adds one, a delivery takes one
/// away (wrapping).
pub(crate) struct Ledger {
    /// Per out-CSR slot ([`pair_slot`]); only a pair's first slot counts.
    pub(crate) in_flight: Vec<AtomicU32>,
    /// In-CSR slot -> its pair's counter slot.
    in_to_out: Vec<u32>,
}

impl Ledger {
    /// Zeroed counters over `graph`, and the in-to-out map built by the
    /// walk [`Graph`] fills its in-CSR with: sources ascending, each
    /// out-run ascending, so every in-slot comes up in the order it was
    /// filled.
    pub(crate) fn new(graph: &Graph) -> Self {
        let (offsets, targets) = graph.out_csr();
        assert!(
            u32::try_from(targets.len()).is_ok(),
            "C1 ledger addresses edges with u32 slots"
        );
        let mut cursor: Vec<u64> = graph.vertices().map(|v| graph.in_edge_base(v)).collect();
        let mut in_to_out = vec![0u32; targets.len()];
        for run in offsets.windows(2) {
            let (a, b) = (run[0] as usize, run[1] as usize);
            let mut first = a;
            for j in a..b {
                if targets[j] != targets[first] {
                    first = j;
                }
                let at = &mut cursor[targets[j].index()];
                in_to_out[*at as usize] = first as u32;
                *at += 1;
            }
        }
        Self {
            in_flight: targets.iter().map(|_| AtomicU32::new(0)).collect(),
            in_to_out,
        }
    }

    /// C1's test as `u` begins: its distinct in-neighbors other than `u`
    /// with messages in flight to `u`, ascending.
    pub(crate) fn stale_reads(&self, graph: &Graph, u: VertexId) -> Vec<VertexId> {
        let ins = graph.in_neighbors(u);
        let base = graph.in_edge_base(u) as usize;
        let slots = &self.in_to_out[base..base + ins.len()];
        let mut stale = Vec::new();
        for (&v, &slot) in ins.iter().zip(slots) {
            let in_flight = || self.in_flight[slot as usize].load(Ordering::SeqCst) != 0;
            if v != u && stale.last() != Some(&v) && in_flight() {
                stale.push(v);
            }
        }
        stale
    }
}

/// The counter slot of `from -> to`; `None` if that is not an edge.
#[inline]
pub(crate) fn pair_slot(graph: &Graph, from: VertexId, to: VertexId) -> Option<usize> {
    let (offsets, targets) = graph.out_csr();
    let base = offsets[from.index()] as usize;
    let run = &targets[base..offsets[from.index() + 1] as usize];
    let k = run.partition_point(|&t| t < to);
    (run.get(k) == Some(&to)).then_some(base + k)
}
