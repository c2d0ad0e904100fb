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

use crate::chandy_misra::{ForkSnapshot, ForkTable};
use crate::technique::{vertex_forks, LockGranularity, Synchronizer};
use crate::transport::SyncTransport;
use sg_graph::{Graph, PartitionMap, VertexId};
use sg_metrics::Metrics;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Vertex-based locking with barrier-synchronized fork exchange
/// (Proposition 1). Pair with [`sg-engine`]'s BSP model.
///
/// [`sg-engine`]: ../../sg_engine/index.html
pub struct BspVertexLock {
    /// Every vertex is a philosopher. Nobody eats through the table: it
    /// is read during a superstep and rewritten only at barriers, by
    /// [`ForkTable::exchange_at_barrier`].
    table: ForkTable,
    /// Vertices that executed this superstep (their forks dirty at the
    /// barrier).
    ate: Vec<AtomicBool>,
    /// Vertices that wanted to execute but lacked forks (they request at
    /// the barrier).
    hungry: Vec<AtomicBool>,
}

impl BspVertexLock {
    /// Build over the whole graph: every vertex is a philosopher, every
    /// undirected edge carries a fork (Proposition 1 condition (i)).
    pub fn new(g: &Graph, pm: &PartitionMap, metrics: Arc<Metrics>) -> Self {
        let owner = g.vertices().map(|v| pm.worker_of(v)).collect();
        let marks = || g.vertices().map(|_| AtomicBool::new(false)).collect();
        Self {
            table: vertex_forks(g, owner, metrics, |_, _| true),
            ate: marks(),
            hungry: marks(),
        }
    }

    /// Number of forks (= undirected edges).
    pub fn num_forks(&self) -> usize {
        self.table.num_forks()
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
        let allowed = self.table.holds_all_forks(v.raw());
        let mark = if allowed { &self.ate } else { &self.hungry };
        mark[v.index()].store(true, Ordering::SeqCst);
        allowed
    }

    fn end_superstep(&self, _superstep: u64, transport: &dyn SyncTransport) {
        let take = |marks: &[AtomicBool], p: u32| marks[p as usize].swap(false, Ordering::SeqCst);
        self.table.exchange_at_barrier(
            |p| take(&self.ate, p),
            |p| take(&self.hungry, p),
            transport,
        );
    }

    fn checkpoint(&self) -> Option<ForkSnapshot> {
        Some(self.table.snapshot())
    }

    fn restore(&self, snapshot: &ForkSnapshot) {
        self.table.restore(snapshot);
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
    /// set, assert it is independent (C2), exchange at the barrier and
    /// check the table's invariants. Every vertex must get a turn within a
    /// bounded number of rounds (liveness).
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
            lock.table.check_invariants();
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
            lock.table.check_invariants();
        }
        let snap = metrics.snapshot();
        assert!(snap.request_tokens > 0);
        assert!(snap.fork_transfers > 0);
    }
}
