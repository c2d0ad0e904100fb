//! Constrained vertex-based distributed locking for **synchronous** models
//! — the paper's Proposition 1.
//!
//! Synchronous models (BSP, sync GAS) cannot update local replicas eagerly,
//! so the asynchronous techniques do not apply (Section 4.1). Proposition 1
//! shows vertex-based locking still enforces conditions C1 and C2 for them
//! when two constraints hold:
//!
//! 1. **all** vertices act as philosophers (even same-partition neighbors —
//!    sequential execution alone cannot give fresh reads under BSP, because
//!    messages are hidden until the next superstep), and
//! 2. fork and token exchanges occur **only during global barriers**.
//!
//! The resulting execution divides each logical step into *sub-supersteps*:
//! in a given superstep only the vertices currently holding all their forks
//! execute; everyone else waits for a later superstep. This is exactly the
//! structure the paper criticizes for performance ("it further exacerbates
//! BSP's already expensive communication and synchronization overheads",
//! Section 6) — implemented here so that criticism can be measured (see the
//! `proposition1` benchmark binary).
//!
//! Correctness sketch: C2 holds structurally — a fork sits at one endpoint,
//! so two neighbors never both hold their shared fork in the same
//! superstep, and forks do not move mid-superstep. C1 holds because a
//! vertex acquires a neighbor's fork no earlier than the barrier after that
//! neighbor's execution, by which time BSP has delivered the neighbor's
//! messages. Liveness follows the hygienic argument: eating dirties forks,
//! dirty forks are always surrendered to requesters at the barrier, and the
//! initial precedence order (by id) is acyclic.

use crate::chandy_misra::ForkSnapshot;
use crate::technique::{LockGranularity, Synchronizer};
use crate::transport::SyncTransport;
use sg_graph::{Graph, PartitionMap, VertexId, WorkerId};
use sg_metrics::{Counter, Metrics};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

#[derive(Clone, Copy, Debug)]
struct PairState {
    a: u32,
    b: u32,
    fork_at_a: bool,
    dirty: bool,
    token_at_a: bool,
}

impl PairState {
    #[inline]
    fn fork_at(&self, p: u32) -> bool {
        (p == self.a) == self.fork_at_a
    }
    #[inline]
    fn token_at(&self, p: u32) -> bool {
        (p == self.a) == self.token_at_a
    }
    #[inline]
    fn other(&self, p: u32) -> u32 {
        if p == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// Vertex-based locking with barrier-synchronized fork exchange
/// (Proposition 1). Pair with [`sg-engine`]'s BSP model.
///
/// [`sg-engine`]: ../../sg_engine/index.html
pub struct BspVertexLock {
    /// Pair states; immutable during a superstep, rewritten at barriers.
    pairs: Mutex<Vec<PairState>>,
    /// adjacency: vertex -> [(pair index)]
    adj: Vec<Vec<u32>>,
    owner: Vec<WorkerId>,
    /// Vertices that executed this superstep (their forks dirty at the
    /// barrier).
    ate: Vec<AtomicBool>,
    /// Vertices that wanted to execute but lacked forks (they request at
    /// the barrier).
    hungry: Vec<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl BspVertexLock {
    /// Build over the whole graph: every vertex is a philosopher, every
    /// undirected edge carries a fork (Proposition 1 condition (i)).
    pub fn new(g: &Graph, pm: &PartitionMap, metrics: Arc<Metrics>) -> Self {
        let n = g.num_vertices() as usize;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pairs = Vec::new();
        for v in g.vertices() {
            for u in g.neighbors(v) {
                if u.raw() > v.raw() {
                    let idx = pairs.len() as u32;
                    pairs.push(PairState {
                        a: v.raw(),
                        b: u.raw(),
                        // Same initialization as the async table: dirty
                        // fork to the larger id, token to the smaller.
                        fork_at_a: false,
                        dirty: true,
                        token_at_a: true,
                    });
                    adj[v.index()].push(idx);
                    adj[u.index()].push(idx);
                }
            }
        }
        Self {
            pairs: Mutex::new(pairs),
            adj,
            owner: g.vertices().map(|v| pm.worker_of(v)).collect(),
            ate: (0..n).map(|_| AtomicBool::new(false)).collect(),
            hungry: (0..n).map(|_| AtomicBool::new(false)).collect(),
            metrics,
        }
    }

    /// Number of forks (= undirected edges).
    pub fn num_forks(&self) -> usize {
        self.pairs.lock().unwrap().len()
    }

    /// Does `v` currently hold every fork it shares?
    fn holds_all(&self, pairs: &[PairState], v: u32) -> bool {
        self.adj[v as usize]
            .iter()
            .all(|&i| pairs[i as usize].fork_at(v))
    }

    /// Section 6.4 checkpoint: fork/token placement at a barrier.
    fn snapshot(&self) -> ForkSnapshot {
        ForkSnapshot::from_tuples(
            self.pairs
                .lock()
                .unwrap()
                .iter()
                .map(|p| (p.fork_at_a, p.dirty, p.token_at_a, 0))
                .collect(),
        )
    }

    fn restore_snapshot(&self, snapshot: &ForkSnapshot) {
        let mut pairs = self.pairs.lock().unwrap();
        let tuples = snapshot.tuples();
        assert_eq!(pairs.len(), tuples.len(), "snapshot shape mismatch");
        for (pair, &(fork_at_a, dirty, token_at_a, _)) in pairs.iter_mut().zip(tuples) {
            pair.fork_at_a = fork_at_a;
            pair.dirty = dirty;
            pair.token_at_a = token_at_a;
        }
    }
}

impl Synchronizer for BspVertexLock {
    fn name(&self) -> &'static str {
        "bsp-vertex-lock"
    }

    fn granularity(&self) -> LockGranularity {
        // No blocking acquisition: eligibility is decided by fork
        // ownership at superstep start, exchanges happen at barriers.
        LockGranularity::None
    }

    fn vertex_allowed(&self, _superstep: u64, v: VertexId) -> bool {
        let pairs = self.pairs.lock().unwrap();
        if self.holds_all(&pairs, v.raw()) {
            self.ate[v.index()].store(true, Ordering::SeqCst);
            true
        } else {
            self.hungry[v.index()].store(true, Ordering::SeqCst);
            false
        }
    }

    fn end_superstep(&self, _superstep: u64, transport: &dyn SyncTransport) {
        let mut pairs = self.pairs.lock().unwrap();
        // (1) Eating dirties forks.
        for (v, ate) in self.ate.iter().enumerate() {
            if ate.swap(false, Ordering::SeqCst) {
                for &i in &self.adj[v] {
                    pairs[i as usize].dirty = true;
                }
            }
        }
        // (2) Hungry vertices lodge requests: the pair's token moves to the
        // fork holder's side.
        for (v, hungry) in self.hungry.iter().enumerate() {
            if hungry.swap(false, Ordering::SeqCst) {
                let v = v as u32;
                for &i in &self.adj[v as usize] {
                    let pair = &mut pairs[i as usize];
                    if !pair.fork_at(v) && pair.token_at(v) {
                        let holder = pair.other(v);
                        pair.token_at_a = holder == pair.a;
                        self.metrics.inc(Counter::RequestTokens);
                        let (fw, tw) = (self.owner[v as usize], self.owner[holder as usize]);
                        if fw != tw {
                            self.metrics.inc(Counter::RequestTokensRemote);
                            transport.request(fw, tw);
                        }
                    }
                }
            }
        }
        // (3) Hygiene at the barrier: every *dirty* fork with a pending
        // request (fork and token on the same side) is surrendered,
        // cleaned. Clean requested forks stay — their holder has priority
        // and will execute first.
        for pair in pairs.iter_mut() {
            let holder = if pair.fork_at_a { pair.a } else { pair.b };
            if pair.dirty && pair.token_at(holder) {
                let to = pair.other(holder);
                pair.fork_at_a = to == pair.a;
                pair.dirty = false;
                self.metrics.inc(Counter::ForkTransfers);
                let (fw, tw) = (self.owner[holder as usize], self.owner[to as usize]);
                if fw != tw {
                    self.metrics.inc(Counter::ForkTransfersRemote);
                    // BSP flushes everything at the barrier anyway; the
                    // callback keeps the C1 write-all invariant explicit.
                    transport.transfer(fw, tw, Some(to));
                }
            }
        }
    }

    fn checkpoint(&self) -> Option<ForkSnapshot> {
        Some(self.snapshot())
    }

    fn restore(&self, snapshot: &ForkSnapshot) {
        self.restore_snapshot(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NoopTransport;
    use sg_graph::partition::HashPartitioner;
    use sg_graph::{gen, ClusterLayout};

    fn build(g: &Graph, workers: u32) -> BspVertexLock {
        let pm = PartitionMap::build(
            g,
            ClusterLayout::new(workers, workers),
            &HashPartitioner::default(),
        );
        BspVertexLock::new(g, &pm, Arc::new(Metrics::new()))
    }

    /// Drive the synchronous protocol: in each round, collect the allowed
    /// set, assert it is independent (C2), and exchange at the barrier.
    /// Every vertex must get a turn within a bounded number of rounds
    /// (liveness).
    fn drive(g: &Graph, workers: u32, rounds: usize) -> Vec<usize> {
        let lock = build(g, workers);
        let mut turns = vec![0usize; g.num_vertices() as usize];
        for s in 0..rounds {
            let allowed: Vec<VertexId> = g
                .vertices()
                .filter(|&v| lock.vertex_allowed(s as u64, v))
                .collect();
            // C2: the allowed set is an independent set.
            for &v in &allowed {
                for u in g.neighbors(v) {
                    assert!(
                        !allowed.contains(&u),
                        "neighbors {v:?} and {u:?} both eligible in round {s}"
                    );
                }
            }
            for &v in &allowed {
                turns[v.index()] += 1;
            }
            lock.end_superstep(s as u64, &NoopTransport);
        }
        turns
    }

    #[test]
    fn eligible_sets_are_independent_and_fair_on_clique() {
        // K5: exactly one vertex eligible per round, all five within 5+
        // rounds.
        let g = gen::complete(5);
        let turns = drive(&g, 2, 10);
        assert!(turns.iter().all(|&t| t >= 1), "starvation: {turns:?}");
    }

    #[test]
    fn ring_alternates() {
        // Fork ownership pipelines around the ring: give it enough rounds
        // for every vertex to eat at least twice.
        let g = gen::ring(8);
        let turns = drive(&g, 2, 16);
        assert!(turns.iter().all(|&t| t >= 2), "{turns:?}");
    }

    #[test]
    fn star_center_and_leaves_alternate() {
        let g = gen::star(9);
        let turns = drive(&g, 3, 8);
        assert!(turns.iter().all(|&t| t >= 2), "{turns:?}");
    }

    #[test]
    fn isolated_vertices_always_eligible() {
        let g = Graph::from_edges(3, &[]);
        let lock = build(&g, 2);
        for v in g.vertices() {
            assert!(lock.vertex_allowed(0, v));
        }
    }

    #[test]
    fn fork_count_covers_every_edge() {
        let g = gen::preferential_attachment(100, 3, 5);
        let lock = build(&g, 4);
        assert_eq!(lock.num_forks() as u64, g.num_undirected_edges());
    }

    #[test]
    fn requests_and_transfers_are_counted() {
        let g = gen::paper_c4();
        let metrics = Arc::new(Metrics::new());
        let pm = PartitionMap::build(&g, ClusterLayout::new(2, 2), &HashPartitioner::default());
        let lock = BspVertexLock::new(&g, &pm, Arc::clone(&metrics));
        for s in 0..4u64 {
            for v in g.vertices() {
                let _ = lock.vertex_allowed(s, v);
            }
            lock.end_superstep(s, &NoopTransport);
        }
        let snap = metrics.snapshot();
        assert!(snap.request_tokens > 0);
        assert!(snap.fork_transfers > 0);
    }

    use sg_graph::Graph;
}
