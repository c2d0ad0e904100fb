//! The [`Synchronizer`] abstraction and the two distributed-locking
//! techniques.
//!
//! A host in *serializable mode* drives its technique at four points —
//! the first, second and fourth in the order [`crate::PartitionWalk`]
//! dictates, which is the one place that order is written:
//!
//! 1. [`Synchronizer::vertex_allowed`] — token techniques gate which
//!    vertices may execute in a superstep (only a subset executes per
//!    superstep, Section 6.5); locking techniques allow everything.
//! 2. [`Synchronizer::acquire_unit`] / [`release_unit`] — locking
//!    techniques block here until the execution unit (a partition, or a
//!    single vertex) holds all its forks. Token techniques no-op.
//! 3. [`Synchronizer::end_superstep`] — token rings advance here.
//! 4. [`Synchronizer::unit_skippable`] — the Section 5.4 optimization:
//!    partitions whose vertices are all halted with no pending messages
//!    skip fork acquisition entirely.
//!
//! [`release_unit`]: Synchronizer::release_unit

use crate::chandy_misra::{ForkNeighbors, ForkSnapshot, ForkTable};
use crate::transport::SyncTransport;
use sg_graph::{Graph, PartitionMap, VertexId, WorkerId};
use sg_metrics::{Counter, Metrics};
use std::sync::Arc;

/// What a technique locks around: whole partitions or individual vertices.
///
/// The engine consults this to decide whether to wrap each partition or
/// each vertex in `acquire_unit`/`release_unit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockGranularity {
    /// No locking (token techniques and plain asynchronous execution).
    None,
    /// Acquire once per partition per superstep (partition-based locking).
    Partition,
    /// Acquire once per vertex execution (vertex-based locking).
    Vertex,
}

/// A synchronization technique pluggable into the engines.
///
/// All methods must be callable concurrently from many worker threads.
pub trait Synchronizer: Send + Sync {
    /// Technique name for reports.
    fn name(&self) -> &'static str;

    /// If `Some(k)`, the engine must restrict every worker to `k` compute
    /// threads (single-layer token passing requires exactly one,
    /// Section 4.2).
    fn max_threads_per_worker(&self) -> Option<u32> {
        None
    }

    /// Locking granularity; decides which `acquire_unit` calls the engine
    /// makes.
    fn granularity(&self) -> LockGranularity {
        LockGranularity::None
    }

    /// May vertex `v` execute during `superstep`? Vertices denied here keep
    /// their pending messages and remain active for a later superstep.
    fn vertex_allowed(&self, _superstep: u64, _v: VertexId) -> bool {
        true
    }

    /// Blocking acquisition of the unit identified by `unit` (a partition
    /// id under [`LockGranularity::Partition`], a vertex id under
    /// [`LockGranularity::Vertex`]): returns once the unit holds all its
    /// forks.
    fn acquire_unit(&self, _unit: u32, _transport: &dyn SyncTransport) {}

    /// Non-blocking variant of [`Synchronizer::acquire_unit`] for
    /// single-threaded drivers (the model checker, the simulator): runs one
    /// protocol step and returns `true` once the unit is held, or `false`
    /// when it must keep waiting (worth re-polling after any release). The
    /// default — correct for techniques whose `acquire_unit` never blocks —
    /// simply acquires.
    fn try_acquire_unit(&self, unit: u32, transport: &dyn SyncTransport) -> bool {
        self.acquire_unit(unit, transport);
        true
    }

    /// The units `unit` shares a fork with, ascending: the peers whose
    /// forks [`Synchronizer::acquire_unit`] waits for. Empty for
    /// techniques that never block. Virtual-time hosts read it after a
    /// grant to work out when the unit's last fork arrived
    /// (`sg_metrics::EatOrder`); only the technique decides which pairs
    /// carry forks.
    fn fork_neighbors(&self, _unit: u32) -> ForkNeighbors<'_> {
        ForkNeighbors::default()
    }

    /// The wait-for edges of a unit stuck in
    /// [`Synchronizer::try_acquire_unit`]: the peer units whose forks it is
    /// missing. Empty for techniques that never block; deadlock reports
    /// print these.
    fn unit_waiting_on(&self, _unit: u32) -> Vec<u32> {
        Vec::new()
    }

    /// Release a unit previously acquired. `_end_ts` is ignored by every
    /// technique: the fork table keeps no clock.
    fn release_unit(&self, _unit: u32, _end_ts: u64, _transport: &dyn SyncTransport) {}

    /// The Section 5.4 skip optimization: `true` if the technique agrees
    /// the unit needs no synchronization this superstep because it is
    /// halted. `active` is computed by the engine (all vertices voted to
    /// halt and no pending messages).
    fn unit_skippable(&self, _unit: u32, active: bool) -> bool {
        !active
    }

    /// Called once (by the master) after every superstep, before the global
    /// barrier completes. Token rings rotate here.
    fn end_superstep(&self, _superstep: u64, _transport: &dyn SyncTransport) {}

    /// Section 6.4 checkpointing: capture the technique's protocol state at
    /// a barrier. Token techniques derive everything from the superstep
    /// number and return `None`.
    fn checkpoint(&self) -> Option<ForkSnapshot> {
        None
    }

    /// Section 6.4 recovery: restore protocol state captured by
    /// [`Synchronizer::checkpoint`].
    fn restore(&self, _snapshot: &ForkSnapshot) {}
}

/// The identity technique: no gating, no locking. Plain BSP/AP execution —
/// *not* serializable; exists so the engines can run unsynchronized and so
/// the checkers in `sg-serial` have something to falsify.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSync;

impl Synchronizer for NoSync {
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Partition-based distributed locking (Section 5.4) — the paper's novel
/// technique. Partitions are the philosophers; two partitions share a fork
/// iff an edge connects their constituent vertices (the *virtual partition
/// edges*). p-internal vertices need no coordination because each partition
/// executes sequentially; p-boundary vertices are protected because
/// neighboring partitions never eat together.
pub struct PartitionLock {
    table: ForkTable,
    /// Section 5.4 optimization toggle: skip fork acquisition for halted
    /// partitions.
    skip_halted: bool,
    metrics: Arc<Metrics>,
}

impl PartitionLock {
    /// Build from a partition map: one philosopher per partition, forks on
    /// the virtual partition edges.
    pub fn new(pm: &PartitionMap, metrics: Arc<Metrics>) -> Self {
        Self::with_options(pm, metrics, true)
    }

    /// As [`PartitionLock::new`], with the halted-partition skip
    /// optimization configurable (for the ablation benchmarks).
    pub fn with_options(pm: &PartitionMap, metrics: Arc<Metrics>, skip_halted: bool) -> Self {
        let layout = pm.layout();
        let owner: Vec<_> = layout
            .partitions()
            .map(|p| layout.worker_of_partition(p))
            .collect();
        // Each partition's neighbors are ascending, so walking them in
        // partition order enumerates the pairs in the table's order.
        let table = ForkTable::from_sorted_pairs(owner, Arc::clone(&metrics), |emit| {
            for p in layout.partitions() {
                for &q in pm.partition_neighbors(p).iter().filter(|&&q| q > p) {
                    emit(p.raw(), q.raw());
                }
            }
        });
        table.enable_telemetry("partition-lock");
        Self {
            table,
            skip_halted,
            metrics,
        }
    }

    /// The number of forks in play — `O(|P|²)` worst case, compared to
    /// `O(|E|)` for vertex-based locking (Section 5.4).
    pub fn num_forks(&self) -> usize {
        self.table.num_forks()
    }
}

impl Synchronizer for PartitionLock {
    fn name(&self) -> &'static str {
        "partition-lock"
    }

    fn granularity(&self) -> LockGranularity {
        LockGranularity::Partition
    }

    fn acquire_unit(&self, unit: u32, transport: &dyn SyncTransport) {
        self.table.acquire(unit, transport);
    }

    fn try_acquire_unit(&self, unit: u32, transport: &dyn SyncTransport) -> bool {
        self.table.try_acquire(unit, transport)
    }

    fn fork_neighbors(&self, unit: u32) -> ForkNeighbors<'_> {
        self.table.neighbors(unit)
    }

    fn unit_waiting_on(&self, unit: u32) -> Vec<u32> {
        self.table.waiting_on(unit)
    }

    fn release_unit(&self, unit: u32, _end_ts: u64, transport: &dyn SyncTransport) {
        self.table.release(unit, transport);
    }

    fn unit_skippable(&self, _unit: u32, active: bool) -> bool {
        if !active && self.skip_halted {
            self.metrics.inc(Counter::HaltedSkips);
            true
        } else {
            false
        }
    }

    fn checkpoint(&self) -> Option<ForkSnapshot> {
        Some(self.table.snapshot())
    }

    fn restore(&self, snapshot: &ForkSnapshot) {
        self.table.restore(snapshot);
    }
}

/// The fork table over the vertices of `g` — vertex `v` hosted by
/// `owner[v]` — with a fork on every undirected edge `(v, u)`, `v < u`,
/// that `fork` accepts.
pub(crate) fn vertex_forks(
    g: &Graph,
    owner: Vec<WorkerId>,
    metrics: Arc<Metrics>,
    fork: impl Fn(VertexId, VertexId) -> bool,
) -> ForkTable {
    // The graph's adjacency is sorted, so walking it in vertex order
    // enumerates the pairs in the order the table stores them.
    ForkTable::from_sorted_pairs(owner, metrics, |emit| {
        for v in g.vertices() {
            for u in g.higher_neighbors(v).filter(|&u| fork(v, u)) {
                emit(v.raw(), u.raw());
            }
        }
    })
}

/// Vertex-based distributed locking (Section 4.3) adapted to a partition
/// aware engine: every **p-boundary** vertex is a philosopher (p-internal
/// vertices are already serialized by their partition's sequential
/// execution, Section 5.2); forks sit on every edge crossing partitions.
///
/// On the GAS engine (no partitions, GraphLab-style), *every* vertex is a
/// philosopher and the fork count reaches the full `O(|E|)` of the paper —
/// see [`VertexLock::new_all_vertices`].
pub struct VertexLock {
    /// A vertex without forks here is no philosopher: it never touches
    /// the table.
    table: ForkTable,
}

impl VertexLock {
    /// Build for `g` partitioned by `pm`. Forks connect neighbor pairs in
    /// different partitions.
    pub fn new(g: &Graph, pm: &PartitionMap, metrics: Arc<Metrics>) -> Self {
        let owner = g.vertices().map(|v| pm.worker_of(v)).collect();
        let cross = |v, u| pm.partition_of(v) != pm.partition_of(u);
        Self::with_table(vertex_forks(g, owner, metrics, cross))
    }

    /// GraphLab-style, for `sg-gas`: every vertex with a neighbor is a
    /// philosopher and every undirected edge carries a fork; `owner[v]` is
    /// the machine hosting vertex `v`.
    pub fn new_all_vertices(g: &Graph, owner: Vec<WorkerId>, metrics: Arc<Metrics>) -> Self {
        Self::with_table(vertex_forks(g, owner, metrics, |_, _| true))
    }

    fn with_table(table: ForkTable) -> Self {
        table.enable_telemetry("vertex-lock");
        Self { table }
    }

    #[inline]
    fn is_philosopher(&self, unit: u32) -> bool {
        self.table.degree(unit) > 0
    }

    /// Number of forks — `O(|E|)` (the scalability problem of Section 5.2).
    pub fn num_forks(&self) -> usize {
        self.table.num_forks()
    }
}

impl Synchronizer for VertexLock {
    fn name(&self) -> &'static str {
        "vertex-lock"
    }

    fn granularity(&self) -> LockGranularity {
        LockGranularity::Vertex
    }

    fn acquire_unit(&self, unit: u32, transport: &dyn SyncTransport) {
        if self.is_philosopher(unit) {
            self.table.acquire(unit, transport);
        }
    }

    fn try_acquire_unit(&self, unit: u32, transport: &dyn SyncTransport) -> bool {
        !self.is_philosopher(unit) || self.table.try_acquire(unit, transport)
    }

    fn fork_neighbors(&self, unit: u32) -> ForkNeighbors<'_> {
        self.table.neighbors(unit)
    }

    fn unit_waiting_on(&self, unit: u32) -> Vec<u32> {
        if self.is_philosopher(unit) {
            self.table.waiting_on(unit)
        } else {
            Vec::new()
        }
    }

    fn release_unit(&self, unit: u32, _end_ts: u64, transport: &dyn SyncTransport) {
        if self.is_philosopher(unit) {
            self.table.release(unit, transport);
        }
    }

    fn checkpoint(&self) -> Option<ForkSnapshot> {
        Some(self.table.snapshot())
    }

    fn restore(&self, snapshot: &ForkSnapshot) {
        self.table.restore(snapshot);
    }

    // Vertex-grain acquisition cannot skip halted units wholesale (the
    // engine only knows per-partition halting); harmless to allow.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NoopTransport;
    use sg_graph::partition::{ExplicitPartitioner, HashPartitioner};
    use sg_graph::{gen, ClusterLayout, PartitionId};

    fn pm_for(g: &Graph, workers: u32, ppw: u32) -> PartitionMap {
        PartitionMap::build(
            g,
            ClusterLayout::new(workers, ppw),
            &HashPartitioner::default(),
        )
    }

    fn owners(g: &Graph, pm: &PartitionMap) -> Vec<WorkerId> {
        g.vertices().map(|v| pm.worker_of(v)).collect()
    }

    #[test]
    fn partition_lock_fork_count_matches_virtual_edges() {
        let g = gen::ring(32);
        let pm = pm_for(&g, 4, 2);
        let pl = PartitionLock::new(&pm, Arc::new(Metrics::new()));
        assert_eq!(pl.num_forks() as u64, pm.num_partition_edges());
    }

    #[test]
    fn partition_lock_far_fewer_forks_than_vertex_lock() {
        // The paper's central claim: |P| << |V| slashes the fork count.
        let g = gen::preferential_attachment(500, 4, 1);
        let pm = pm_for(&g, 4, 4);
        let metrics = Arc::new(Metrics::new());
        let pl = PartitionLock::new(&pm, Arc::clone(&metrics));
        let vl = VertexLock::new_all_vertices(&g, owners(&g, &pm), metrics);
        assert!(pl.num_forks() * 4 < vl.num_forks());
        assert_eq!(vl.num_forks() as u64, g.num_undirected_edges());
    }

    /// `sg-gas` used to collect the `u > v` pairs of `g.neighbors(v)` and
    /// hand them to the table's edge-list constructor; `new_all_vertices`
    /// must build the very same table from the graph alone — here a
    /// directed one with reversed, parallel and self edges.
    #[test]
    fn all_vertices_forks_match_the_deduplicated_edge_list() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 0),
                (2, 1),
                (2, 1),
                (3, 3),
                (4, 0),
                (0, 4),
                (5, 2),
                (5, 5),
                (1, 4),
                (3, 1),
            ],
        );
        let owner = [0, 1, 0, 1, 2, 2].map(WorkerId::new).to_vec();
        let mut edges = Vec::new();
        for v in g.vertices() {
            for u in g.neighbors(v) {
                if u.raw() > v.raw() {
                    edges.push((v.raw(), u.raw()));
                }
            }
        }
        let vl = VertexLock::new_all_vertices(&g, owner.clone(), Arc::new(Metrics::new()));
        let reference = ForkTable::from_edges(owner, &edges, Arc::new(Metrics::new()));
        let pairs = |t: &ForkTable| -> Vec<_> { t.pairs().map(|(a, b, _)| (a, b)).collect() };
        assert_eq!(
            pairs(&vl.table),
            [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 5)]
        );
        assert_eq!(pairs(&vl.table), pairs(&reference));
        for p in 0..6 {
            assert_eq!(vl.table.degree(p), reference.degree(p), "philosopher {p}");
            assert_eq!(vl.table.owner_of(p), reference.owner_of(p));
        }
        assert_eq!(vl.checkpoint(), Some(reference.snapshot()));
    }

    #[test]
    fn vertex_lock_pboundary_only_skips_internal_edges() {
        // Two partitions, explicit: vertices 0,1 in P0; 2,3 in P1.
        // Edges 0-1 (internal), 1-2 (cross), 2-3 (internal).
        let g = sg_graph::Graph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        let layout = ClusterLayout::new(2, 1);
        let pm = PartitionMap::build(
            &g,
            layout,
            &ExplicitPartitioner(vec![
                PartitionId::new(0),
                PartitionId::new(0),
                PartitionId::new(1),
                PartitionId::new(1),
            ]),
        );
        let vl = VertexLock::new(&g, &pm, Arc::new(Metrics::new()));
        assert_eq!(vl.num_forks(), 1); // only the 1-2 edge
                                       // Non-philosophers acquire without touching the table.
        vl.acquire_unit(0, &NoopTransport);
        vl.release_unit(0, 0, &NoopTransport);
    }

    #[test]
    fn partition_lock_skip_halted_counts() {
        let g = gen::ring(8);
        let pm = pm_for(&g, 2, 2);
        let metrics = Arc::new(Metrics::new());
        let pl = PartitionLock::new(&pm, Arc::clone(&metrics));
        assert!(pl.unit_skippable(0, false));
        assert!(!pl.unit_skippable(0, true));
        assert_eq!(metrics.snapshot().halted_skips, 1);
    }

    #[test]
    fn partition_lock_skip_can_be_disabled() {
        let g = gen::ring(8);
        let pm = pm_for(&g, 2, 2);
        let metrics = Arc::new(Metrics::new());
        let pl = PartitionLock::with_options(&pm, metrics, false);
        assert!(!pl.unit_skippable(0, false));
    }

    #[test]
    fn try_acquire_unit_steps_partition_lock_without_blocking() {
        let g = gen::complete(8);
        let pm = pm_for(&g, 2, 2);
        let pl = PartitionLock::new(&pm, Arc::new(Metrics::new()));
        // Neighboring partitions: whoever wins first blocks the other.
        assert!(pl.try_acquire_unit(0, &NoopTransport));
        let contender = pl.try_acquire_unit(1, &NoopTransport);
        assert!(!contender, "neighbor acquired while 0 eats");
        assert!(pl.unit_waiting_on(1).contains(&0));
        pl.release_unit(0, 7, &NoopTransport);
        assert!(pl.try_acquire_unit(1, &NoopTransport));
        assert!(pl.unit_waiting_on(1).is_empty());
        pl.release_unit(1, 9, &NoopTransport);
    }

    #[test]
    fn try_acquire_unit_is_trivial_for_non_philosophers() {
        // Vertex 0 is p-internal in the explicit split below: no forks.
        let g = sg_graph::Graph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        let layout = ClusterLayout::new(2, 1);
        let pm = PartitionMap::build(
            &g,
            layout,
            &ExplicitPartitioner(vec![
                PartitionId::new(0),
                PartitionId::new(0),
                PartitionId::new(1),
                PartitionId::new(1),
            ]),
        );
        let vl = VertexLock::new(&g, &pm, Arc::new(Metrics::new()));
        assert!(vl.try_acquire_unit(0, &NoopTransport));
        assert!(vl.unit_waiting_on(0).is_empty());
        assert_eq!(vl.fork_neighbors(0).count(), 0);
        assert_eq!(vl.fork_neighbors(1).collect::<Vec<_>>(), [2]);
        // NoSync's default never blocks either, and has no forks.
        assert!(NoSync.try_acquire_unit(3, &NoopTransport));
        assert!(NoSync.unit_waiting_on(3).is_empty());
        assert_eq!(NoSync.fork_neighbors(3).count(), 0);
    }

    #[test]
    fn nosync_permits_everything() {
        let s = NoSync;
        assert!(s.vertex_allowed(0, VertexId::new(0)));
        assert_eq!(s.granularity(), LockGranularity::None);
        assert_eq!(s.max_threads_per_worker(), None);
        s.acquire_unit(0, &NoopTransport);
        s.release_unit(0, 0, &NoopTransport);
        s.end_superstep(0, &NoopTransport);
    }

    #[test]
    fn neighboring_partitions_never_concurrent() {
        // Drive partitions from threads; ForkTable asserts exclusion.
        let g = gen::complete(12);
        let pm = pm_for(&g, 3, 2);
        let metrics = Arc::new(Metrics::new());
        let pl = Arc::new(PartitionLock::new(&pm, metrics));
        let handles: Vec<_> = (0..6u32)
            .map(|p| {
                let pl = Arc::clone(&pl);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pl.acquire_unit(p, &NoopTransport);
                        pl.release_unit(p, 0, &NoopTransport);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn vertex_lock_stress_on_grid() {
        let g = gen::grid(4, 4);
        let pm = pm_for(&g, 2, 2);
        let metrics = Arc::new(Metrics::new());
        let vl = Arc::new(VertexLock::new_all_vertices(&g, owners(&g, &pm), metrics));
        let handles: Vec<_> = (0..16u32)
            .map(|v| {
                let vl = Arc::clone(&vl);
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        vl.acquire_unit(v, &NoopTransport);
                        vl.release_unit(v, 0, &NoopTransport);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
