//! Condition C1's ledger, the [`crate::Recorder`]'s: one count of messages
//! in flight per directed pair, addressed by the sender, and one summary
//! per receiver. Only a message that can be seen in flight is counted — a
//! remote send until its batch lands, a BSP send until the flip. One that
//! is readable before its sender's transaction closes never reaches the
//! ledger (the recorder's module docs say why no verdict changes).
//!
//! A pair `from -> to` counts at the out-CSR slot of its first edge in
//! `from`'s out-run — a binary search over the adjacency the sender's
//! `compute` has just walked, and one counter among the sender's own
//! contiguous run. Parallel edges share their first slot.
//!
//! The reader's side, `begin(u)`, asks whether *any* in-pair of `u` is
//! non-zero, and that is what `pending[u]` counts: `u`'s in-pairs, the
//! self-loop aside, whose count is non-zero. Each pair RMW returns the
//! count it replaced, so the event that moves a pair off zero adds one
//! and the event that moves it back takes one away — exact under any
//! event order, a delivery ahead of its send included. A begin therefore
//! costs one load while C1 holds, and only a non-zero summary walks `u`'s
//! in-neighbours, looking each pair up from the sender's side.
//!
//! Between a pair RMW and its summary RMW the summary lags the pair. A
//! send's lag only hides the send's own pair, and a begin that misses it
//! is one ordered before that send. A delivery's lag overcounts, which
//! costs a walk and no verdict. The summary never hides a pair that some
//! *other* in-flight message keeps non-zero, as long as each message is
//! delivered after its own send has returned: the delivery that takes a
//! pair back to zero then comes after the summary RMW that counted it
//! (the exhaustive schedule test, `summary_is_linearizable`).

use sg_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// A send adds one to its pair ([`Ledger::count`]'s `delta`).
pub(crate) const SEND: u32 = 1;
/// A delivery takes one away, wrapping.
pub(crate) const DELIVER: u32 = u32::MAX;

/// Per-pair in-flight counters and their per-receiver summary.
pub(crate) struct Ledger {
    /// Per out-CSR slot ([`pair_slot`]); only a pair's first slot counts.
    in_flight: Vec<AtomicU32>,
    /// Per receiver: its in-pairs, the self-loop aside, with a non-zero
    /// count (wrapping while a delivery's summary RMW runs ahead).
    pending: Vec<AtomicU32>,
}

impl Ledger {
    /// Zeroed counters over `graph`.
    pub(crate) fn new(graph: &Graph) -> Self {
        let (_, targets) = graph.out_csr();
        assert!(
            u32::try_from(targets.len()).is_ok(),
            "C1 ledger addresses edges with u32 slots"
        );
        let zeroed = |n: usize| (0..n).map(|_| AtomicU32::new(0)).collect();
        Self {
            in_flight: zeroed(targets.len()),
            pending: zeroed(graph.num_vertices() as usize),
        }
    }

    /// A send ([`SEND`]) or a delivery ([`DELIVER`]) on `from -> to`; a
    /// pair that is not an edge is not counted.
    #[inline]
    pub(crate) fn add(&self, graph: &Graph, from: VertexId, to: VertexId, delta: u32) {
        if let Some(slot) = pair_slot(graph, from, to) {
            let was = self.count(slot, delta);
            self.settle(from, to, was, delta);
        }
    }

    /// The pair RMW: add `delta` to the pair at `slot`, returning the count
    /// it replaced.
    #[inline]
    fn count(&self, slot: usize, delta: u32) -> u32 {
        self.in_flight[slot].fetch_add(delta, Ordering::SeqCst)
    }

    /// The summary RMW for a pair RMW on `from -> to` that replaced `was`:
    /// off zero adds one to `to`'s summary, back to zero takes one away.
    #[inline]
    fn settle(&self, from: VertexId, to: VertexId, was: u32, delta: u32) {
        if from == to {
            return;
        }
        let pending = &self.pending[to.index()];
        if was == 0 {
            pending.fetch_add(1, Ordering::SeqCst);
        } else if was.wrapping_add(delta) == 0 {
            pending.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// C1's test as `u` begins: its distinct in-neighbors other than `u`
    /// with messages in flight to `u`, ascending. One load while none are.
    #[inline]
    pub(crate) fn stale_reads(&self, graph: &Graph, u: VertexId) -> Vec<VertexId> {
        self.walk(graph, u, self.quiet(u))
    }

    /// The summary load: is no in-pair of `u` counted non-zero?
    #[inline]
    fn quiet(&self, u: VertexId) -> bool {
        self.pending[u.index()].load(Ordering::SeqCst) == 0
    }

    /// The gather after the summary load: nothing if it read `quiet`, else
    /// each distinct in-neighbor's pair, looked up from the sender's side.
    #[inline]
    fn walk(&self, graph: &Graph, u: VertexId, quiet: bool) -> Vec<VertexId> {
        let mut stale = Vec::new();
        if quiet {
            return stale;
        }
        for &v in graph.in_neighbors(u) {
            if v == u || stale.last() == Some(&v) {
                continue;
            }
            let slot = pair_slot(graph, v, u).expect("an in-edge is an out-edge of its source");
            if self.in_flight[slot].load(Ordering::SeqCst) != 0 {
                stale.push(v);
            }
        }
        stale
    }
}

/// The counter slot of `from -> to`; `None` if that is not an edge.
#[inline]
fn pair_slot(graph: &Graph, from: VertexId, to: VertexId) -> Option<usize> {
    let (offsets, targets) = graph.out_csr();
    let base = offsets[from.index()] as usize;
    let run = &targets[base..offsets[from.index() + 1] as usize];
    let k = run.partition_point(|&t| t < to);
    (run.get(k) == Some(&to)).then_some(base + k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }

    fn pending(ledger: &Ledger, u: VertexId) -> u32 {
        ledger.pending[u.index()].load(Ordering::SeqCst)
    }

    fn pair(ledger: &Ledger, g: &Graph, from: VertexId, to: VertexId) -> u32 {
        ledger.in_flight[pair_slot(g, from, to).unwrap()].load(Ordering::SeqCst)
    }

    /// The receiver `u` = 0 has in-pairs from 1 (a parallel edge) and 2,
    /// and a self-loop; 0 also sends to 1.
    fn graph() -> Graph {
        Graph::from_edges(3, &[(1, 0), (1, 0), (2, 0), (0, 0), (0, 1)])
    }

    /// How the send and the delivery of the scheduled pair may interleave.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Order {
        /// The delivery is the send's own message: it starts after the
        /// send has returned.
        SendFirst,
        /// A delivery ahead of its send, returning before the send starts.
        DeliverFirst,
        /// The delivery is an earlier message's: any interleaving.
        Free,
    }

    /// Every merge of three two-step threads, each step named by thread.
    fn schedules(left: [usize; 3], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if left == [0; 3] {
            out.push(prefix.clone());
            return;
        }
        for t in 0..3 {
            if left[t] > 0 {
                let mut rest = left;
                rest[t] -= 1;
                prefix.push(t);
                schedules(rest, prefix, out);
                prefix.pop();
            }
        }
    }

    /// The exhaustive schedule test of the per-receiver summary. A send on
    /// one thread and a delivery on another, each split into its pair RMW
    /// and its summary RMW, run against a `begin(0)` split into its summary
    /// load and its gather, in every order the scenario allows. The pair
    /// starts at 0, 1 or 2, a second in-pair sits settled at 0 or 1, and the
    /// scheduled pair is a real in-pair or the self-loop. Each begin's
    /// stale list must be what some serial order of the three events gives
    /// that keeps real-time order (an event that returned before another
    /// started comes first). At quiescence every summary equals the number
    /// of its receiver's non-zero in-pairs, the self-loop aside.
    #[test]
    fn summary_is_linearizable() {
        let g = graph();
        let u = v(0);
        let mut all = Vec::new();
        schedules([2, 2, 2], &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 90);
        let (mut runs, mut fast, mut stale) = (0, 0, 0);
        for sender in [v(1), v(0)] {
            for (start, order) in [
                (0, Order::SendFirst),
                (0, Order::DeliverFirst),
                (1, Order::Free),
                (2, Order::Free),
            ] {
                for other in [0, 1] {
                    for schedule in &all {
                        // Threads 0, 1, 2: send, delivery, begin.
                        let first = |t: usize| schedule.iter().position(|&s| s == t).unwrap();
                        let last = |t: usize| schedule.iter().rposition(|&s| s == t).unwrap();
                        let admitted = match order {
                            Order::SendFirst => last(0) < first(1),
                            Order::DeliverFirst => last(1) < first(0),
                            Order::Free => true,
                        };
                        if !admitted {
                            continue;
                        }
                        let what = format!(
                            "sender {sender:?} start {start} {order:?} other {other} {schedule:?}"
                        );
                        let ledger = Ledger::new(&g);
                        for _ in 0..start {
                            ledger.add(&g, sender, u, SEND);
                        }
                        for _ in 0..other {
                            ledger.add(&g, v(2), u, SEND);
                        }
                        let slot = pair_slot(&g, sender, u).unwrap();
                        let (mut was, mut step) = ([0u32; 2], [0usize; 3]);
                        let (mut quiet, mut got) = (false, Vec::new());
                        for &t in schedule {
                            let delta = [SEND, DELIVER, 0][t];
                            match (t, step[t]) {
                                (0 | 1, 0) => was[t] = ledger.count(slot, delta),
                                (0 | 1, _) => ledger.settle(sender, u, was[t], delta),
                                (_, 0) => quiet = ledger.quiet(u),
                                _ => got = ledger.walk(&g, u, quiet),
                            }
                            step[t] += 1;
                        }
                        // Serial orders that keep real-time precedence.
                        let before = |a: usize, b: usize| last(a) < first(b);
                        let mut allowed = Vec::new();
                        for perm in [
                            [0, 1, 2],
                            [0, 2, 1],
                            [1, 0, 2],
                            [1, 2, 0],
                            [2, 0, 1],
                            [2, 1, 0],
                        ] {
                            let pos = |t: usize| perm.iter().position(|&p| p == t).unwrap();
                            let keeps = (0..3).all(|a| {
                                (0..3).all(|b| a == b || !before(a, b) || pos(a) < pos(b))
                            });
                            if !keeps {
                                continue;
                            }
                            let count = i64::from(start) + i64::from(pos(0) < pos(2))
                                - i64::from(pos(1) < pos(2));
                            let mut want = Vec::new();
                            if sender != u && count != 0 {
                                want.push(sender);
                            }
                            if other != 0 {
                                want.push(v(2));
                            }
                            allowed.push(want);
                        }
                        assert!(allowed.contains(&got), "{what}: begin saw {got:?}");
                        // Quiescence: the send and the delivery cancel out.
                        assert_eq!(pair(&ledger, &g, sender, u), start, "{what}");
                        let in_pairs = [v(1), v(2)];
                        let non_zero = in_pairs
                            .iter()
                            .filter(|&&w| pair(&ledger, &g, w, u) != 0)
                            .count();
                        assert_eq!(pending(&ledger, u), non_zero as u32, "{what}");
                        assert_eq!(pending(&ledger, v(1)), 0, "{what}");
                        assert_eq!(ledger.stale_reads(&g, u), ledger.walk(&g, u, false));
                        runs += 1;
                        fast += usize::from(quiet);
                        stale += usize::from(!got.is_empty());
                    }
                }
            }
        }
        // The ordered scenarios merge SSDD (or DDSS) with the begin's two
        // steps, C(6, 2) = 15 ways; the free ones admit all 90.
        assert_eq!(runs, 2 * 2 * (15 + 15 + 90 + 90));
        assert!(
            fast > 0 && stale > 0,
            "{fast} fast paths, {stale} stale begins"
        );
    }
}
