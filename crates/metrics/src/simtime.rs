//! Virtual-time simulation of a distributed cluster.
//!
//! Each simulated worker machine owns a monotone logical clock measured in
//! simulated nanoseconds. The virtual-time hosts — the discrete-event
//! simulator (`sg-sim`) and the GAS engine (`sg-gas`) — charge work against
//! these clocks using a [`CostModel`], and join clocks whenever information
//! flows between workers. The thread engine keeps none: it runs on the
//! wall clock. The resulting **makespan** — the maximum clock after the
//! run — is the simulated analogue of the paper's measured computation
//! time:
//!
//! * a worker idling while it waits for the global token shows up as its
//!   clock jumping to the token's (later) timestamp;
//! * per-vertex fork traffic shows up as per-transfer latency charged on
//!   every one of the `O(|E|)` forks, when each arrives ([`EatOrder`]);
//! * message batching shows up as one latency charge per *batch* rather
//!   than per message.
//!
//! Clock joins use `fetch_max`, so concurrent updates from real threads
//! (the GAS engine's fibers) are safe and the result is independent of
//! benign interleavings.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cost parameters for the simulated cluster, all in simulated nanoseconds
/// (`sg_sim::SimOptions::cost`, `sg_gas::GasConfig::cost`).
///
/// Defaults are loosely calibrated to the paper's EC2 r3.xlarge cluster:
/// sub-microsecond per-vertex compute, ~0.5 ms one-way network latency, and
/// a per-message wire cost that makes one fork exchange roughly as expensive
/// as shipping a handful of data messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost of invoking one vertex program.
    pub vertex_compute_ns: u64,
    /// Cost of consuming one incoming message inside a vertex program.
    pub per_message_compute_ns: u64,
    /// Cost of producing/serializing one outgoing message.
    pub per_send_ns: u64,
    /// One-way network latency for any remote transfer (a message batch, a
    /// fork, or a token).
    pub network_latency_ns: u64,
    /// Additional per-message wire cost inside a remote batch (bandwidth).
    pub per_remote_message_ns: u64,
    /// Sender-side cost of assembling and dispatching one batch
    /// (serialization, syscalls, NIC handling). Charged *additively* to the
    /// sending machine, so a flood of tiny batches — vertex-based locking's
    /// signature overhead — costs real simulated time, while the receive
    /// latency only joins clocks.
    pub batch_overhead_ns: u64,
    /// Cost of a global synchronization barrier on top of the clock join.
    pub barrier_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            vertex_compute_ns: 200,
            per_message_compute_ns: 20,
            per_send_ns: 20,
            network_latency_ns: 500_000,
            per_remote_message_ns: 40,
            batch_overhead_ns: 20_000,
            barrier_ns: 2_000_000,
        }
    }
}

impl CostModel {
    /// A zero-cost model: clocks never advance. Useful in unit tests that
    /// only care about functional behaviour.
    pub fn zero() -> Self {
        Self {
            vertex_compute_ns: 0,
            per_message_compute_ns: 0,
            per_send_ns: 0,
            network_latency_ns: 0,
            per_remote_message_ns: 0,
            batch_overhead_ns: 0,
            barrier_ns: 0,
        }
    }

    /// Cost charged to the executing worker for one vertex invocation that
    /// consumed `msgs_in` messages and produced `msgs_out`.
    #[inline]
    pub fn vertex_cost(&self, msgs_in: u64, msgs_out: u64) -> u64 {
        self.vertex_compute_ns + msgs_in * self.per_message_compute_ns + msgs_out * self.per_send_ns
    }

    /// Wire cost of a remote batch carrying `msgs` messages.
    #[inline]
    pub fn batch_cost(&self, msgs: u64) -> u64 {
        self.network_latency_ns + msgs * self.per_remote_message_ns
    }
}

/// One logical clock per simulated worker.
#[derive(Debug)]
pub struct SimClocks {
    clocks: Vec<AtomicU64>,
}

impl SimClocks {
    /// `workers` clocks, all starting at zero.
    pub fn new(workers: usize) -> Self {
        Self {
            clocks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// `true` if there are no workers (degenerate).
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Current clock of worker `w`.
    #[inline]
    pub fn now(&self, w: usize) -> u64 {
        self.clocks[w].load(Ordering::Relaxed)
    }

    /// Charge `ns` of local work to worker `w`; returns the new clock value.
    #[inline]
    pub fn advance(&self, w: usize, ns: u64) -> u64 {
        self.clocks[w].fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Join worker `w`'s clock with an incoming timestamp (message batch,
    /// fork, or token arrival): `clock[w] = max(clock[w], ts)`.
    #[inline]
    pub fn observe(&self, w: usize, ts: u64) {
        self.clocks[w].fetch_max(ts, Ordering::Relaxed);
    }

    /// Global barrier: every clock jumps to `max(all clocks) + barrier_ns`.
    /// Must be called while nothing else charges a clock (the simulator
    /// calls it between supersteps).
    pub fn barrier(&self, barrier_ns: u64) -> u64 {
        let max = self.makespan() + barrier_ns;
        for c in &self.clocks {
            c.store(max, Ordering::Relaxed);
        }
        max
    }

    /// The simulated computation time so far: the maximum worker clock.
    pub fn makespan(&self) -> u64 {
        self.clocks
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Reset all clocks to zero.
    pub fn reset(&self) {
        for c in &self.clocks {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// When a granted unit's forks arrived, worked out from the order units
/// ate in — the fork table itself keeps no clock.
///
/// A fork between units `p` and `q` is available where it sits from the
/// end of its last holder's execution, plus one link latency if it then
/// crossed machines. Chandy–Misra forks move only to a hungry requester,
/// which keeps them until it has eaten, so when `p` is granted its fork
/// with neighbour `q` was stamped:
///
/// * `end[q]` plus the `q -> p` latency, if `q` ate more recently than `p`
///   (the fork came over after `q`'s execution);
/// * `end[p]`, if `p` ate more recently (the fork never left);
/// * if neither has eaten, the `q -> p` latency when `q > p` (the fork
///   starts at the higher id, Section 6.3) and 0 otherwise.
///
/// `p` is ready at the latest of those stamps. "More recently" is eat
/// order, a per-unit sequence number, not end time: zero-cost executions
/// end at the same instant.
///
/// Hosts call [`EatOrder::ate`] before they release a unit and
/// [`EatOrder::ready`] after a grant. Atomics let the GAS engine's fibers
/// share one log. They are `Relaxed` because the fork table's mutex does
/// the ordering: a release unlocks it after `ate` (Release) and the grant
/// that hands a neighbour the fork locks it before `ready` (Acquire), so a
/// neighbour's `ate` is seen, and its place in `last`'s modification order
/// comes first.
#[derive(Debug)]
pub struct EatOrder {
    /// Per unit: the virtual time its last execution ended.
    end: Vec<AtomicU64>,
    /// Per unit: its last execution's place in eat order; 0 = never ate.
    seq: Vec<AtomicU64>,
    /// The last place handed out.
    last: AtomicU64,
}

impl EatOrder {
    /// A log over units `0..units`, none of which has eaten.
    pub fn new(units: usize) -> Self {
        let zeros = || (0..units).map(|_| AtomicU64::new(0)).collect();
        Self {
            end: zeros(),
            seq: zeros(),
            last: AtomicU64::new(0),
        }
    }

    /// Unit `p`'s execution ended at `end`. Call before releasing `p`.
    #[inline]
    pub fn ate(&self, p: u32, end: u64) {
        let seq = self.last.fetch_add(1, Ordering::Relaxed) + 1;
        self.end[p as usize].store(end, Ordering::Relaxed);
        self.seq[p as usize].store(seq, Ordering::Relaxed);
    }

    /// The virtual time unit `p`'s last fork became available, given the
    /// units it shares a fork with and `latency(q)`, the `q -> p` link
    /// latency (0 on one machine). Call after `p` was granted.
    pub fn ready(
        &self,
        p: u32,
        neighbors: impl IntoIterator<Item = u32>,
        latency: impl Fn(u32) -> u64,
    ) -> u64 {
        let at = |u: u32| {
            let u = u as usize;
            let seq = self.seq[u].load(Ordering::Relaxed);
            (seq, self.end[u].load(Ordering::Relaxed))
        };
        let (p_seq, p_end) = at(p);
        let stamp = |q: u32| {
            let (q_seq, q_end) = at(q);
            if q_seq > p_seq {
                q_end + latency(q)
            } else if p_seq == 0 {
                if q > p {
                    latency(q)
                } else {
                    0
                }
            } else {
                p_end
            }
        };
        neighbors.into_iter().map(stamp).max().unwrap_or(0)
    }
}

/// Render simulated nanoseconds human-readably (`1.50ms`, `2.3s`, …).
pub fn fmt_sim_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_now() {
        let c = SimClocks::new(2);
        assert_eq!(c.now(0), 0);
        assert_eq!(c.advance(0, 100), 100);
        assert_eq!(c.advance(0, 50), 150);
        assert_eq!(c.now(1), 0);
        assert_eq!(c.makespan(), 150);
    }

    #[test]
    fn observe_joins_with_max() {
        let c = SimClocks::new(2);
        c.advance(1, 500);
        c.observe(1, 300); // older timestamp: no effect
        assert_eq!(c.now(1), 500);
        c.observe(1, 900);
        assert_eq!(c.now(1), 900);
    }

    #[test]
    fn barrier_levels_all_clocks() {
        let c = SimClocks::new(3);
        c.advance(0, 10);
        c.advance(1, 70);
        let t = c.barrier(5);
        assert_eq!(t, 75);
        for w in 0..3 {
            assert_eq!(c.now(w), 75);
        }
    }

    #[test]
    fn reset_zeroes() {
        let c = SimClocks::new(2);
        c.advance(0, 42);
        c.reset();
        assert_eq!(c.makespan(), 0);
    }

    #[test]
    fn cost_model_vertex_cost() {
        let m = CostModel {
            vertex_compute_ns: 100,
            per_message_compute_ns: 10,
            per_send_ns: 5,
            ..CostModel::zero()
        };
        assert_eq!(m.vertex_cost(3, 4), 100 + 30 + 20);
    }

    #[test]
    fn cost_model_batch_cost() {
        let m = CostModel {
            network_latency_ns: 1000,
            per_remote_message_ns: 2,
            ..CostModel::zero()
        };
        assert_eq!(m.batch_cost(50), 1100);
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.vertex_cost(100, 100), 0);
        assert_eq!(m.batch_cost(100), 0);
    }

    #[test]
    fn default_model_charges_latency_per_batch_not_per_message() {
        let m = CostModel::default();
        // One batch of 1000 messages must be far cheaper than 1000
        // single-message batches — the whole premise of partition-based
        // locking's batching advantage (Section 5.4).
        let one_batch = m.batch_cost(1000);
        let many_batches = 1000 * m.batch_cost(1);
        assert!(one_batch * 10 < many_batches);
    }

    #[test]
    fn fmt_helper() {
        assert_eq!(fmt_sim_ns(500), "500ns");
        assert_eq!(fmt_sim_ns(1_500), "1.50us");
        assert_eq!(fmt_sim_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_sim_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn eat_order_stamps_each_fork_by_who_ate_last() {
        let lat = |q: u32| 100 + u64::from(q); // every neighbour remote
        let log = EatOrder::new(3);
        // Nobody ate: forks start at the higher id.
        assert_eq!(log.ready(1, [0, 2], lat), 102);
        assert_eq!(log.ready(1, [0], lat), 0);
        assert_eq!(log.ready(1, [], lat), 0);
        log.ate(1, 500);
        // 1 ate last: its forks never left it.
        assert_eq!(log.ready(1, [0, 2], lat), 500);
        // 1 ate more recently than 0 and 2: theirs come from 1.
        assert_eq!(log.ready(0, [1], lat), 601);
        log.ate(0, 700);
        log.ate(2, 700);
        // Same end time, but 2 ate after 1 and after 0: its fork comes
        // over from 2.
        assert_eq!(log.ready(1, [0, 2], lat), 802);
        assert_eq!(log.ready(0, [1], lat), 700);
    }

    #[test]
    fn eat_order_breaks_end_time_ties_by_sequence() {
        let log = EatOrder::new(2);
        log.ate(1, 40);
        log.ate(0, 40); // a zero-cost execution after 1's
        assert_eq!(log.ready(1, [0], |_| 7), 47);
        assert_eq!(log.ready(0, [1], |_| 7), 40);
    }

    #[test]
    fn concurrent_observe_is_monotone() {
        use std::sync::Arc;
        let c = Arc::new(SimClocks::new(1));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for j in 0..1000u64 {
                        c.observe(0, i * 1000 + j);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(0), 3999);
    }
}
