//! Graph partitioning and the paper's boundary-vertex taxonomy.
//!
//! A [`ClusterLayout`] fixes the simulated cluster shape: `W` workers, each
//! owning the same number of partitions (Giraph's default is `|W|` partitions
//! per worker, i.e. `|P| = |W|²`, Section 7.1). A [`Partitioner`] assigns each
//! vertex to a partition; [`PartitionMap`] combines layout + assignment and
//! precomputes everything the synchronization techniques query:
//!
//! * Definition 1 — **m-boundary** vs **m-internal** vertices,
//! * Definition 4 — **p-boundary** vs **p-internal** vertices,
//! * Section 5.3's four-way refinement for dual-layer token passing
//!   ([`VertexClass`]),
//! * Section 5.4's **virtual partition edges** (which partition pairs share
//!   a fork under partition-based distributed locking).

use crate::graph::Graph;
use crate::ids::{PartitionId, VertexId, WorkerId};
use crate::rng::mix64;

/// Shape of the simulated cluster: how many workers, and how many partitions
/// each worker owns. Partition ids are dense and blocked by worker:
/// partition `p` belongs to worker `p / partitions_per_worker`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterLayout {
    num_workers: u32,
    partitions_per_worker: u32,
}

impl ClusterLayout {
    /// A layout with `num_workers` workers and `partitions_per_worker`
    /// partitions on each.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(num_workers: u32, partitions_per_worker: u32) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        assert!(
            partitions_per_worker > 0,
            "need at least one partition per worker"
        );
        Self {
            num_workers,
            partitions_per_worker,
        }
    }

    /// Giraph's default: `|W|` partitions per worker (Section 7.1).
    pub fn giraph_default(num_workers: u32) -> Self {
        Self::new(num_workers, num_workers)
    }

    /// Number of workers `|W|`.
    #[inline]
    pub fn num_workers(&self) -> u32 {
        self.num_workers
    }

    /// Partitions owned by each worker.
    #[inline]
    pub fn partitions_per_worker(&self) -> u32 {
        self.partitions_per_worker
    }

    /// Total partitions `|P|` across the cluster.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        self.num_workers * self.partitions_per_worker
    }

    /// Worker that owns partition `p`.
    #[inline]
    pub fn worker_of_partition(&self, p: PartitionId) -> WorkerId {
        debug_assert!(p.raw() < self.num_partitions());
        WorkerId::new(p.raw() / self.partitions_per_worker)
    }

    /// The partition ids owned by worker `w`.
    pub fn partitions_of_worker(&self, w: WorkerId) -> impl Iterator<Item = PartitionId> {
        debug_assert!(w.raw() < self.num_workers);
        let start = w.raw() * self.partitions_per_worker;
        (start..start + self.partitions_per_worker).map(PartitionId::new)
    }

    /// Iterator over all worker ids.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.num_workers).map(WorkerId::new)
    }

    /// Iterator over all partition ids.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> {
        (0..self.num_partitions()).map(PartitionId::new)
    }
}

/// The four-way vertex classification of Section 5.3 (dual-layer token
/// passing). The coarser Definitions 1 and 4 are derivable:
///
/// * m-internal = `PInternal | LocalBoundary`; m-boundary = the other two.
/// * p-internal = `PInternal`; p-boundary = everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VertexClass {
    /// All neighbors live in the vertex's own partition. Executes without
    /// any token; needs no fork beyond its partition's sequential order.
    PInternal,
    /// Has neighbors in other partitions, but all of them on the same
    /// worker. Needs the worker's *local* token.
    LocalBoundary,
    /// Has neighbors on other workers, and every cross-partition neighbor is
    /// remote. Needs the *global* token only.
    RemoteBoundary,
    /// Has cross-partition neighbors both on its own worker and on other
    /// workers. Needs both tokens.
    MixedBoundary,
}

impl VertexClass {
    /// Definition 1: does some neighbor live on a different worker?
    #[inline]
    pub fn is_m_boundary(self) -> bool {
        matches!(
            self,
            VertexClass::RemoteBoundary | VertexClass::MixedBoundary
        )
    }

    /// Definition 4: does some neighbor live in a different partition?
    #[inline]
    pub fn is_p_boundary(self) -> bool {
        !matches!(self, VertexClass::PInternal)
    }

    /// Does executing this vertex require the worker's local token
    /// (dual-layer token passing)?
    #[inline]
    pub fn needs_local_token(self) -> bool {
        matches!(
            self,
            VertexClass::LocalBoundary | VertexClass::MixedBoundary
        )
    }

    /// Does executing this vertex require the global token
    /// (dual-layer token passing)?
    #[inline]
    pub fn needs_global_token(self) -> bool {
        self.is_m_boundary()
    }
}

/// Assigns vertices to partitions.
pub trait Partitioner {
    /// Produce, for every vertex id in `0..g.num_vertices()`, the partition
    /// it belongs to. Every returned id must be `< layout.num_partitions()`.
    fn assign(&self, g: &Graph, layout: &ClusterLayout) -> Vec<PartitionId>;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Random hash partitioning — the paper's default ("we use hash partitioning
/// as it is the fastest method ... and does not favour any particular
/// synchronization technique", Section 7.1). A seeded multiplicative mix
/// keeps assignments deterministic per seed while scattering consecutive ids.
#[derive(Clone, Copy, Debug)]
pub struct HashPartitioner {
    seed: u64,
}

impl HashPartitioner {
    /// Hash partitioner with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for HashPartitioner {
    fn default() -> Self {
        Self::new(0x9E37_79B9_7F4A_7C15)
    }
}

impl Partitioner for HashPartitioner {
    fn assign(&self, g: &Graph, layout: &ClusterLayout) -> Vec<PartitionId> {
        let p = layout.num_partitions() as u64;
        (0..g.num_vertices())
            .map(|v| PartitionId::new((mix64(v as u64 ^ self.seed) % p) as u32))
            .collect()
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Contiguous range partitioning: vertex ids are split into `|P|` equal
/// blocks. Preserves locality of id-ordered inputs (useful as a contrast to
/// hash partitioning in the ablations).
#[derive(Clone, Copy, Debug, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn assign(&self, g: &Graph, layout: &ClusterLayout) -> Vec<PartitionId> {
        let n = g.num_vertices() as u64;
        let p = layout.num_partitions() as u64;
        (0..n)
            .map(|v| PartitionId::new(((v * p) / n.max(1)).min(p - 1) as u32))
            .collect()
    }

    fn name(&self) -> &'static str {
        "range"
    }
}

/// Linear deterministic greedy (LDG) streaming partitioner (Stanton &
/// Kliot): vertices are streamed in id order and each goes to the partition
/// holding most of its already-placed neighbors, damped by a capacity
/// penalty `1 - |P_i|/C`. One pass, O(|E|), and typically cuts far fewer
/// edges than hash partitioning — which translates directly into fewer
/// virtual partition edges, hence fewer forks, for partition-based locking
/// (see the `ablation_partitioning` binary).
///
/// The paper deliberately uses hash partitioning ("does not favour any
/// particular synchronization technique", Section 7.1) and dismisses METIS
/// as impractical at scale; LDG sits between the two: streaming-cheap, yet
/// locality-aware.
#[derive(Clone, Copy, Debug)]
pub struct LdgPartitioner {
    /// Capacity slack factor: each partition may hold up to
    /// `slack * |V| / |P|` vertices. 1.0 = perfectly balanced.
    pub slack: f64,
}

impl Default for LdgPartitioner {
    fn default() -> Self {
        Self { slack: 1.1 }
    }
}

impl Partitioner for LdgPartitioner {
    fn assign(&self, g: &Graph, layout: &ClusterLayout) -> Vec<PartitionId> {
        let np = layout.num_partitions() as usize;
        let n = g.num_vertices() as usize;
        let capacity = ((self.slack * n as f64 / np as f64).ceil() as usize).max(1);
        let mut assignment: Vec<Option<PartitionId>> = vec![None; n];
        let mut sizes = vec![0usize; np];
        let mut scores = vec![0u32; np];
        for v in g.vertices() {
            // Count already-placed neighbors per partition.
            let mut touched: Vec<usize> = Vec::new();
            for u in g.neighbors_iter(v) {
                if let Some(p) = assignment[u.index()] {
                    if scores[p.index()] == 0 {
                        touched.push(p.index());
                    }
                    scores[p.index()] += 1;
                }
            }
            let mut best = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            for p in 0..np {
                if sizes[p] >= capacity {
                    continue;
                }
                let penalty = 1.0 - sizes[p] as f64 / capacity as f64;
                let score = f64::from(scores[p]) * penalty;
                // Tie-break towards the emptiest partition for balance.
                let score = score + penalty * 1e-9;
                if score > best_score {
                    best_score = score;
                    best = p;
                }
            }
            assert!(best != usize::MAX, "capacity exhausted; raise slack");
            assignment[v.index()] = Some(PartitionId::new(best as u32));
            sizes[best] += 1;
            for p in touched {
                scores[p] = 0;
            }
        }
        assignment
            .into_iter()
            .map(|p| p.expect("assigned"))
            .collect()
    }

    fn name(&self) -> &'static str {
        "ldg"
    }
}

/// An explicit assignment, for tests and for reproducing the paper's figures
/// exactly (e.g. the 7-vertex example of Figures 4 and 5).
#[derive(Clone, Debug)]
pub struct ExplicitPartitioner(pub Vec<PartitionId>);

impl Partitioner for ExplicitPartitioner {
    fn assign(&self, g: &Graph, layout: &ClusterLayout) -> Vec<PartitionId> {
        assert_eq!(self.0.len(), g.num_vertices() as usize);
        for &p in &self.0 {
            assert!(
                p.raw() < layout.num_partitions(),
                "partition id out of range"
            );
        }
        self.0.clone()
    }

    fn name(&self) -> &'static str {
        "explicit"
    }
}

/// Partition assignment plus everything derived from it.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    layout: ClusterLayout,
    /// Where each vertex lives: its partition and its index in that
    /// partition's [`PartitionMap::vertices_in`] — the one table every
    /// message store is addressed through.
    slot_of: Vec<(PartitionId, u32)>,
    /// The worker of each partition, so routing a message reads a table
    /// rather than dividing by the layout's partitions per worker.
    worker_of_partition: Vec<WorkerId>,
    vertices_in_partition: Vec<Vec<VertexId>>,
    class: Vec<VertexClass>,
    /// Sorted, deduplicated neighbor partitions of each partition
    /// (the virtual partition edges of Section 5.4). Excludes self.
    partition_neighbors: Vec<Vec<PartitionId>>,
}

impl PartitionMap {
    /// Partition `g` under `layout` using `partitioner`, then derive vertex
    /// classes and partition adjacency.
    pub fn build(g: &Graph, layout: ClusterLayout, partitioner: &dyn Partitioner) -> Self {
        let partition_of = partitioner.assign(g, &layout);
        Self::from_assignment(g, layout, partition_of)
    }

    /// Build from a precomputed assignment vector.
    pub fn from_assignment(
        g: &Graph,
        layout: ClusterLayout,
        partition_of: Vec<PartitionId>,
    ) -> Self {
        assert_eq!(partition_of.len(), g.num_vertices() as usize);
        let np = layout.num_partitions() as usize;

        let mut vertices_in_partition: Vec<Vec<VertexId>> = vec![Vec::new(); np];
        let mut slot_of = Vec::with_capacity(partition_of.len());
        for v in g.vertices() {
            let p = partition_of[v.index()];
            let members = &mut vertices_in_partition[p.index()];
            slot_of.push((p, members.len() as u32));
            members.push(v);
        }

        // One pass over both adjacency runs, no scratch per vertex or per
        // edge: a cross edge marks its cell of the |P| × |P| partition
        // adjacency matrix (a parallel edge, or one present in both runs,
        // marks the same cell again), and each row is read out once.
        let mut class = Vec::with_capacity(g.num_vertices() as usize);
        let mut adjacent = vec![false; np * np];
        for v in g.vertices() {
            let pv = partition_of[v.index()];
            let wv = layout.worker_of_partition(pv);
            let row = &mut adjacent[pv.index() * np..][..np];
            let mut has_local_cross = false;
            let mut has_remote = false;
            for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                let pu = partition_of[u.index()];
                if pu == pv {
                    continue;
                }
                row[pu.index()] = true;
                if layout.worker_of_partition(pu) == wv {
                    has_local_cross = true;
                } else {
                    has_remote = true;
                }
            }
            class.push(match (has_local_cross, has_remote) {
                (false, false) => VertexClass::PInternal,
                (true, false) => VertexClass::LocalBoundary,
                (false, true) => VertexClass::RemoteBoundary,
                (true, true) => VertexClass::MixedBoundary,
            });
        }
        let partition_neighbors = adjacent
            .chunks(np)
            .map(|row| {
                let marked = row.iter().enumerate().filter(|&(_, &m)| m);
                marked.map(|(q, _)| PartitionId::new(q as u32)).collect()
            })
            .collect();

        Self {
            layout,
            slot_of,
            worker_of_partition: layout
                .partitions()
                .map(|p| layout.worker_of_partition(p))
                .collect(),
            vertices_in_partition,
            class,
            partition_neighbors,
        }
    }

    /// The cluster layout this map was built for.
    #[inline]
    pub fn layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// Partition that owns vertex `v`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        self.slot_of[v.index()].0
    }

    /// Partition that owns vertex `v` and `v`'s index in it:
    /// `vertices_in(p)[local] == v`. One lookup finds a vertex's message
    /// slot in any host's per-partition store.
    #[inline]
    pub fn slot_of(&self, v: VertexId) -> (PartitionId, u32) {
        self.slot_of[v.index()]
    }

    /// Worker that owns vertex `v`.
    #[inline]
    pub fn worker_of(&self, v: VertexId) -> WorkerId {
        self.worker_of_partition(self.partition_of(v))
    }

    /// Worker that owns partition `p`: [`ClusterLayout::worker_of_partition`]
    /// read from a table, for the per-message routing paths.
    #[inline]
    pub fn worker_of_partition(&self, p: PartitionId) -> WorkerId {
        self.worker_of_partition[p.index()]
    }

    /// The vertices of partition `p`, in ascending id order (partitions are
    /// executed sequentially in this order by the engines).
    #[inline]
    pub fn vertices_in(&self, p: PartitionId) -> &[VertexId] {
        &self.vertices_in_partition[p.index()]
    }

    /// The Section 5.3 class of vertex `v`.
    #[inline]
    pub fn class_of(&self, v: VertexId) -> VertexClass {
        self.class[v.index()]
    }

    /// Definition 1: does `v` have a neighbor on another worker?
    #[inline]
    pub fn is_m_boundary(&self, v: VertexId) -> bool {
        self.class_of(v).is_m_boundary()
    }

    /// Definition 4: does `v` have a neighbor in another partition?
    #[inline]
    pub fn is_p_boundary(&self, v: VertexId) -> bool {
        self.class_of(v).is_p_boundary()
    }

    /// Neighbor partitions of `p` — the virtual partition edges of
    /// Section 5.4. Partition-based distributed locking shares one fork per
    /// returned pair.
    #[inline]
    pub fn partition_neighbors(&self, p: PartitionId) -> &[PartitionId] {
        &self.partition_neighbors[p.index()]
    }

    /// Does partition `p` have at least one m-boundary vertex? (Workers
    /// flush remote replica updates before such a partition relinquishes a
    /// fork to another worker's partition, Section 5.4.)
    pub fn partition_has_m_boundary(&self, p: PartitionId) -> bool {
        self.vertices_in(p).iter().any(|&v| self.is_m_boundary(v))
    }

    /// Total number of virtual partition edges (each unordered pair counted
    /// once) — the fork count of partition-based locking.
    pub fn num_partition_edges(&self) -> u64 {
        self.partition_neighbors
            .iter()
            .enumerate()
            .map(|(i, nbrs)| nbrs.iter().filter(|q| q.index() > i).count() as u64)
            .sum()
    }

    /// Per-partition vertex counts, for balance diagnostics.
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.vertices_in_partition.iter().map(Vec::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }
    fn p(raw: u32) -> PartitionId {
        PartitionId::new(raw)
    }
    fn w(raw: u32) -> WorkerId {
        WorkerId::new(raw)
    }

    /// The 7-vertex example of Figures 4 and 5: workers W1={P0,P1},
    /// W2={P2,P3}; P0={v0,v2}, P1={v1}, P2={v3,v5}, P3={v4,v6}.
    /// Edges reproduce the paper's classification: v6 p-internal;
    /// v0, v4 local boundary; v2 remote boundary; v1, v3, v5 mixed boundary.
    fn fig4_graph() -> (Graph, PartitionMap) {
        let layout = ClusterLayout::new(2, 2);
        let edges: &[(u32, u32)] = &[
            (0, 2), // within P0
            (0, 1), // P0 -> P1: local cross (W1)
            (1, 3), // v1 -> P2: remote (W2)
            (2, 5), // P0 -> P2: remote
            (3, 5), // within P2
            (3, 4), // P2 -> P3: local cross (W2)
            (5, 4), // P2 -> P3: local cross
            (4, 6), // within P3
        ];
        let mut sym = Vec::new();
        for &(a, b) in edges {
            sym.push((a, b));
            sym.push((b, a));
        }
        let g = Graph::from_edges(7, &sym);
        let assignment = vec![p(0), p(1), p(0), p(2), p(3), p(2), p(3)];
        let pm = PartitionMap::from_assignment(&g, layout, assignment);
        (g, pm)
    }

    #[test]
    fn layout_basics() {
        let l = ClusterLayout::new(2, 3);
        assert_eq!(l.num_partitions(), 6);
        assert_eq!(l.worker_of_partition(p(0)), w(0));
        assert_eq!(l.worker_of_partition(p(2)), w(0));
        assert_eq!(l.worker_of_partition(p(3)), w(1));
        assert_eq!(
            l.partitions_of_worker(w(1)).collect::<Vec<_>>(),
            vec![p(3), p(4), p(5)]
        );
        assert_eq!(l.workers().count(), 2);
        assert_eq!(l.partitions().count(), 6);
    }

    #[test]
    fn giraph_default_is_w_squared() {
        let l = ClusterLayout::giraph_default(16);
        assert_eq!(l.num_partitions(), 256);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        ClusterLayout::new(0, 1);
    }

    #[test]
    fn fig4_vertex_classification() {
        let (_, pm) = fig4_graph();
        assert_eq!(pm.class_of(v(6)), VertexClass::PInternal);
        assert_eq!(pm.class_of(v(0)), VertexClass::LocalBoundary);
        assert_eq!(pm.class_of(v(4)), VertexClass::LocalBoundary);
        assert_eq!(pm.class_of(v(2)), VertexClass::RemoteBoundary);
        assert_eq!(pm.class_of(v(1)), VertexClass::MixedBoundary);
        assert_eq!(pm.class_of(v(3)), VertexClass::MixedBoundary);
        assert_eq!(pm.class_of(v(5)), VertexClass::MixedBoundary);
    }

    #[test]
    fn fig4_boundary_predicates() {
        let (_, pm) = fig4_graph();
        // m-internal: v0, v4, v6; m-boundary: the rest.
        assert!(!pm.is_m_boundary(v(0)));
        assert!(!pm.is_m_boundary(v(4)));
        assert!(!pm.is_m_boundary(v(6)));
        for raw in [1, 2, 3, 5] {
            assert!(pm.is_m_boundary(v(raw)), "v{raw} should be m-boundary");
        }
        // p-internal: only v6.
        assert!(!pm.is_p_boundary(v(6)));
        for raw in [0, 1, 2, 3, 4, 5] {
            assert!(pm.is_p_boundary(v(raw)), "v{raw} should be p-boundary");
        }
    }

    #[test]
    fn fig5_partition_edges() {
        let (_, pm) = fig4_graph();
        // Virtual partition edges: P0-P1 (v0-v2), P0-P2 (v1-v3, v5-v1),
        // P1-P2 (v2-v3), P2-P3 (v3-v4, v5-v4).
        assert_eq!(pm.partition_neighbors(p(0)), &[p(1), p(2)]);
        assert_eq!(pm.partition_neighbors(p(1)), &[p(0), p(2)]);
        assert_eq!(pm.partition_neighbors(p(2)), &[p(0), p(1), p(3)]);
        assert_eq!(pm.partition_neighbors(p(3)), &[p(2)]);
        assert_eq!(pm.num_partition_edges(), 4);
    }

    #[test]
    fn token_requirements_follow_class() {
        assert!(!VertexClass::PInternal.needs_local_token());
        assert!(!VertexClass::PInternal.needs_global_token());
        assert!(VertexClass::LocalBoundary.needs_local_token());
        assert!(!VertexClass::LocalBoundary.needs_global_token());
        assert!(!VertexClass::RemoteBoundary.needs_local_token());
        assert!(VertexClass::RemoteBoundary.needs_global_token());
        assert!(VertexClass::MixedBoundary.needs_local_token());
        assert!(VertexClass::MixedBoundary.needs_global_token());
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let g = Graph::from_edges(100, &[(0, 1), (5, 7)]);
        let layout = ClusterLayout::new(4, 4);
        let a = HashPartitioner::new(7).assign(&g, &layout);
        let b = HashPartitioner::new(7).assign(&g, &layout);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| p.raw() < 16));
        let c = HashPartitioner::new(8).assign(&g, &layout);
        assert_ne!(a, c, "different seeds should shuffle differently");
    }

    #[test]
    fn hash_partitioner_is_roughly_balanced() {
        let g = Graph::from_edges(10_000, &[]);
        let layout = ClusterLayout::new(4, 4);
        let pm = PartitionMap::build(&g, layout, &HashPartitioner::default());
        let sizes = pm.partition_sizes();
        let expected = 10_000 / 16;
        for s in sizes {
            assert!(
                (s as i64 - expected as i64).unsigned_abs() < expected as u64 / 2,
                "partition badly unbalanced: {s} vs {expected}"
            );
        }
    }

    #[test]
    fn range_partitioner_is_contiguous() {
        let g = Graph::from_edges(10, &[]);
        let layout = ClusterLayout::new(2, 1);
        let a = RangePartitioner.assign(&g, &layout);
        assert_eq!(a[..5], vec![p(0); 5][..]);
        assert_eq!(a[5..], vec![p(1); 5][..]);
    }

    #[test]
    fn vertices_in_partition_sorted() {
        let (_, pm) = fig4_graph();
        assert_eq!(pm.vertices_in(p(0)), &[v(0), v(2)]);
        assert_eq!(pm.vertices_in(p(1)), &[v(1)]);
        assert_eq!(pm.vertices_in(p(2)), &[v(3), v(5)]);
        assert_eq!(pm.vertices_in(p(3)), &[v(4), v(6)]);
    }

    #[test]
    fn slot_of_inverts_vertices_in() {
        // `vertices_in(p)[local] == v` for every vertex, and the owner table
        // agrees with the layout, whichever way the assignment was made —
        // including layouts with empty partitions.
        let mut rng = crate::SplitMix64::new(0x5107);
        for case in 0..40 {
            let n = rng.gen_range(60) as u32;
            let edges: Vec<(u32, u32)> = (0..rng.gen_index(120))
                .filter(|_| n > 0)
                .map(|_| {
                    let (a, b) = (rng.gen_range(n.into()), rng.gen_range(n.into()));
                    (a as u32, b as u32)
                })
                .collect();
            let g = Graph::from_edges(n, &edges);
            let layout =
                ClusterLayout::new(1 + rng.gen_range(4) as u32, 1 + rng.gen_range(4) as u32);
            let np = u64::from(layout.num_partitions());
            // Explicit: random ids drawn from the lower half of the range,
            // so the upper partitions stay empty.
            let explicit: Vec<PartitionId> = (0..n)
                .map(|_| p(rng.gen_range(np.div_ceil(2)) as u32))
                .collect();
            let maps = [
                PartitionMap::build(&g, layout, &HashPartitioner::new(case)),
                PartitionMap::build(&g, layout, &RangePartitioner),
                PartitionMap::build(&g, layout, &ExplicitPartitioner(explicit)),
            ];
            for pm in &maps {
                for vtx in g.vertices() {
                    let (part, local) = pm.slot_of(vtx);
                    assert_eq!(part, pm.partition_of(vtx), "case {case}");
                    assert_eq!(pm.vertices_in(part)[local as usize], vtx, "case {case}");
                }
                let placed: usize = pm.partition_sizes().iter().sum();
                assert_eq!(placed, n as usize, "case {case}");
                for part in layout.partitions() {
                    let owner = layout.worker_of_partition(part);
                    assert_eq!(pm.worker_of_partition(part), owner, "case {case}");
                }
            }
            // Fewer vertices than partitions: some partition must be empty.
            if u64::from(n) < np {
                assert!(maps[0].partition_sizes().contains(&0));
            }
        }
    }

    #[test]
    fn partition_has_m_boundary_flag() {
        let (_, pm) = fig4_graph();
        assert!(pm.partition_has_m_boundary(p(0))); // v1 is mixed
        assert!(pm.partition_has_m_boundary(p(1))); // v2 remote
        assert!(pm.partition_has_m_boundary(p(2))); // v3, v5
        assert!(!pm.partition_has_m_boundary(p(3))); // v4 is local boundary only
    }

    #[test]
    fn isolated_vertices_are_p_internal() {
        let g = Graph::from_edges(4, &[]);
        let layout = ClusterLayout::new(2, 2);
        let pm = PartitionMap::build(&g, layout, &HashPartitioner::default());
        for vtx in g.vertices() {
            assert_eq!(pm.class_of(vtx), VertexClass::PInternal);
        }
        assert_eq!(pm.num_partition_edges(), 0);
    }

    #[test]
    fn single_partition_everything_internal() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let layout = ClusterLayout::new(1, 1);
        let pm = PartitionMap::build(&g, layout, &HashPartitioner::default());
        for vtx in g.vertices() {
            assert_eq!(pm.class_of(vtx), VertexClass::PInternal);
        }
    }

    #[test]
    fn vertex_grain_layout_matches_vertex_count() {
        // |P| = |V| reduces partition-based locking to vertex-based locking
        // (Section 5.4): every vertex its own partition.
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5), (1, 2)]);
        let layout = ClusterLayout::new(2, 3);
        let assignment: Vec<PartitionId> = (0..6).map(p).collect();
        let pm = PartitionMap::from_assignment(&g, layout, assignment);
        assert_eq!(pm.num_partition_edges(), g.num_undirected_edges());
    }

    #[test]
    fn explicit_partitioner_roundtrip() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let layout = ClusterLayout::new(1, 3);
        let part = ExplicitPartitioner(vec![p(2), p(0), p(1)]);
        let a = part.assign(&g, &layout);
        assert_eq!(a, vec![p(2), p(0), p(1)]);
    }

    #[test]
    fn ldg_respects_capacity_and_balance() {
        let g = crate::gen::preferential_attachment(400, 3, 3);
        let layout = ClusterLayout::new(4, 2);
        let assignment = LdgPartitioner::default().assign(&g, &layout);
        let pm = PartitionMap::from_assignment(&g, layout, assignment);
        let cap = (1.1f64 * 400.0 / 8.0).ceil() as usize;
        for (i, size) in pm.partition_sizes().iter().enumerate() {
            assert!(*size <= cap, "partition {i} over capacity: {size} > {cap}");
        }
    }

    #[test]
    fn ldg_cuts_fewer_edges_than_hash() {
        // Locality-aware streaming should beat random placement on a
        // community-structured graph.
        let g = crate::gen::preferential_attachment(600, 3, 9);
        let layout = ClusterLayout::new(4, 4);
        let cut = |part: &dyn Partitioner| {
            let pm = PartitionMap::build(&g, layout, part);
            let mut cut = 0u64;
            for v in g.vertices() {
                for &u in g.out_neighbors(v) {
                    if u.raw() > v.raw() && pm.partition_of(u) != pm.partition_of(v) {
                        cut += 1;
                    }
                }
            }
            cut
        };
        let hash_cut = cut(&HashPartitioner::default());
        let ldg_cut = cut(&LdgPartitioner::default());
        assert!(
            ldg_cut < hash_cut,
            "LDG cut {ldg_cut} should beat hash cut {hash_cut}"
        );
    }

    #[test]
    fn ldg_deterministic() {
        let g = crate::gen::preferential_attachment(200, 3, 4);
        let layout = ClusterLayout::new(2, 3);
        let a = LdgPartitioner::default().assign(&g, &layout);
        let b = LdgPartitioner::default().assign(&g, &layout);
        assert_eq!(a, b);
    }

    #[test]
    fn directed_edges_still_create_partition_adjacency_both_ways() {
        // A single directed edge u->v means u and v are neighbors (both in-
        // and out-), so their partitions must share a fork (Section 6.3:
        // "partitions must be aware of both its in-edge and out-edge
        // dependencies").
        let g = Graph::from_edges(2, &[(0, 1)]);
        let layout = ClusterLayout::new(2, 1);
        let pm = PartitionMap::from_assignment(&g, layout, vec![p(0), p(1)]);
        assert_eq!(pm.partition_neighbors(p(0)), &[p(1)]);
        assert_eq!(pm.partition_neighbors(p(1)), &[p(0)]);
    }
}
