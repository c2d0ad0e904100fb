//! Immutable CSR graph storage with out- and in-adjacency.
//!
//! The engines treat the topology as read-only (vertex *values* mutate, the
//! structure does not — the same assumption Pregel, Giraph, and GraphLab
//! make for the algorithm classes the paper studies). A [`Graph`] therefore
//! stores two compressed sparse row structures: one over out-edges (used to
//! push messages / scatter) and one over in-edges (used to know the read set
//! `N_u` of a transaction and, in pull-based GAS, to gather).

use crate::ids::VertexId;

/// An immutable directed graph in CSR form.
///
/// Vertex ids are dense `0..num_vertices()`. Parallel edges are permitted
/// (builders deduplicate by default); self-loops are permitted but ignored
/// by the synchronization techniques (a vertex trivially never conflicts
/// with itself).
#[derive(Clone, Debug)]
pub struct Graph {
    num_vertices: u32,
    /// CSR offsets into `out_targets`; length `num_vertices + 1`.
    out_offsets: Vec<u64>,
    out_targets: Vec<VertexId>,
    /// CSR offsets into `in_sources`; length `num_vertices + 1`.
    in_offsets: Vec<u64>,
    in_sources: Vec<VertexId>,
}

/// The distinct vertices of two ascending runs, ascending.
fn merge_distinct<'a>(a: &'a [VertexId], b: &'a [VertexId]) -> impl Iterator<Item = VertexId> + 'a {
    // A symmetric graph lists every neighbor in both runs: one is enough.
    let b = if a == b { &[] } else { b };
    let (mut i, mut j) = (0, 0);
    let mut last = None;
    std::iter::from_fn(move || loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), y) if y.is_none_or(|&y| x <= y) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            _ => return None,
        };
        if last != Some(next) {
            last = Some(next);
            return Some(next);
        }
    })
}

impl Graph {
    /// Build a graph from a directed edge list.
    ///
    /// `num_vertices` fixes the id space; every endpoint must be `< num_vertices`.
    /// Adjacency lists are sorted for deterministic iteration. Duplicate
    /// edges are kept as-is (use [`crate::GraphBuilder`] to deduplicate).
    ///
    /// # Panics
    /// Panics if an edge endpoint is out of range.
    pub fn from_edges(num_vertices: u32, edges: &[(u32, u32)]) -> Self {
        for &(s, t) in edges {
            assert!(
                s < num_vertices && t < num_vertices,
                "edge ({s}, {t}) out of range for {num_vertices} vertices"
            );
        }
        let n = num_vertices as usize;

        let mut out_offsets = vec![0u64; n + 1];
        for &(s, _) in edges {
            out_offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![VertexId::new(0); edges.len()];
        let mut out_cursor: Vec<u64> = out_offsets[..n].to_vec();
        for &(s, t) in edges {
            let oc = &mut out_cursor[s as usize];
            out_targets[*oc as usize] = VertexId::new(t);
            *oc += 1;
        }
        // Sort each adjacency run for deterministic iteration order.
        for v in 0..n {
            out_targets[out_offsets[v] as usize..out_offsets[v + 1] as usize].sort_unstable();
        }
        Self::with_in_csr(num_vertices, out_offsets, out_targets)
    }

    /// Build a graph from its out-CSR: `offsets` (`num_vertices + 1` of
    /// them, from 0 to `targets.len()`) delimit each vertex's run of
    /// `targets`, every run ascending — what [`Graph::out_csr`] of an
    /// existing graph returns, so a copy shipped in that form is rebuilt
    /// without an edge list and without sorting. The input is checked, not
    /// trusted: it arrives over a socket.
    pub fn from_sorted_csr(
        num_vertices: u32,
        offsets: Vec<u64>,
        targets: Vec<u32>,
    ) -> Result<Self, String> {
        let n = num_vertices as usize;
        if offsets.len() != n + 1 || offsets[0] != 0 || offsets[n] != targets.len() as u64 {
            return Err(format!(
                "{} CSR offsets do not span {n} vertices and {} edges",
                offsets.len(),
                targets.len()
            ));
        }
        for v in 0..n {
            let Some(run) = targets.get(offsets[v] as usize..offsets[v + 1] as usize) else {
                return Err(format!(
                    "CSR offsets of vertex {v} are not a range of the edges"
                ));
            };
            if run.last().is_some_and(|&t| t >= num_vertices) {
                return Err(format!("vertex {v} has an edge out of range"));
            }
            if run.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("vertex {v}'s adjacency run is not ascending"));
            }
        }
        let out_targets = targets.into_iter().map(VertexId::new).collect();
        Ok(Self::with_in_csr(num_vertices, offsets, out_targets))
    }

    /// The out-CSR, as [`Graph::from_sorted_csr`] takes it.
    pub fn out_csr(&self) -> (&[u64], &[VertexId]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// Complete a graph from its out-CSR with ascending runs. Sources are
    /// visited in ascending order, so one counting pass leaves every in-run
    /// ascending too.
    fn with_in_csr(num_vertices: u32, out_offsets: Vec<u64>, out_targets: Vec<VertexId>) -> Self {
        let n = num_vertices as usize;
        let mut in_offsets = vec![0u64; n + 1];
        for t in &out_targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![VertexId::new(0); out_targets.len()];
        let mut in_cursor: Vec<u64> = in_offsets[..n].to_vec();
        for v in 0..n {
            for t in &out_targets[out_offsets[v] as usize..out_offsets[v + 1] as usize] {
                let ic = &mut in_cursor[t.index()];
                in_sources[*ic as usize] = VertexId::new(v as u32);
                *ic += 1;
            }
        }
        Graph {
            num_vertices,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    #[inline]
    fn out_range(&self, v: usize) -> (usize, usize) {
        (
            self.out_offsets[v] as usize,
            self.out_offsets[v + 1] as usize,
        )
    }

    #[inline]
    fn in_range(&self, v: usize) -> (usize, usize) {
        (self.in_offsets[v] as usize, self.in_offsets[v + 1] as usize)
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges `|E|` (parallel edges counted).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.out_targets.len() as u64
    }

    /// Iterator over all vertex ids `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices).map(VertexId::new)
    }

    /// Out-edge neighbors of `v` (sorted, possibly with duplicates if the
    /// input had parallel edges).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = self.out_range(v.index());
        &self.out_targets[a..b]
    }

    /// In-edge neighbors of `v` (sorted).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (a, b) = self.in_range(v.index());
        &self.in_sources[a..b]
    }

    /// All distinct neighbors of `v`, in- and out-, excluding `v` itself.
    ///
    /// This is the neighbor notion of the paper's Section 3.1 ("let
    /// neighbors refer to both in-edge and out-edge neighbors") used by
    /// every synchronization technique: `u` must not run concurrently with
    /// any vertex in this set.
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut merged = Vec::with_capacity(self.degree(v) as usize);
        merged.extend(self.neighbors_iter(v));
        merged
    }

    /// [`Graph::neighbors`] without the allocation: distinct, ascending,
    /// without `v`.
    pub fn neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        merge_distinct(self.out_neighbors(v), self.in_neighbors(v)).filter(move |&u| u != v)
    }

    /// The [`Graph::neighbors`] of `v` with a larger id than `v`, ascending,
    /// without allocating. Over all `v` in order this enumerates every
    /// undirected edge once, as `(v, u)` in ascending order.
    pub fn higher_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let above = |run: &'_ [VertexId]| run.partition_point(|&u| u <= v);
        let (outs, ins) = (self.out_neighbors(v), self.in_neighbors(v));
        merge_distinct(&outs[above(outs)..], &ins[above(ins)..])
    }

    /// The neighbors of `v` (as [`Graph::neighbors`]: distinct, sorted,
    /// without `v`) that satisfy `keep`. Probes the adjacency slices first
    /// and allocates only when some neighbor qualifies — the C2 probes of
    /// the serializability recorder and checker, which under a working
    /// technique never find one.
    pub fn neighbors_where(&self, v: VertexId, keep: impl Fn(VertexId) -> bool) -> Vec<VertexId> {
        let hit = |&w: &VertexId| w != v && keep(w);
        if !self.out_neighbors(v).iter().any(hit) && !self.in_neighbors(v).iter().any(hit) {
            return Vec::new();
        }
        let mut all = self.neighbors(v);
        all.retain(|&w| keep(w));
        all
    }

    /// Out-degree of `v`, counting parallel edges (the paper's
    /// `deg+(u)` used by PageRank).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        let (a, b) = self.out_range(v.index());
        (b - a) as u32
    }

    /// In-degree of `v`, counting parallel edges.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        let (a, b) = self.in_range(v.index());
        (b - a) as u32
    }

    /// Total degree (in + out, parallel edges counted).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.out_degree(v) + self.in_degree(v)
    }

    /// In-CSR index of `v`'s first in-edge: `in_neighbors(v)[k]` occupies
    /// global slot `in_edge_base(v) + k`.
    #[inline]
    pub fn in_edge_base(&self, v: VertexId) -> u64 {
        self.in_offsets[v.index()]
    }

    /// Maximum total degree over all vertices (Table 1's "Max Degree").
    pub fn max_degree(&self) -> u32 {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// `true` if for every edge `(u, v)` the reverse edge `(v, u)` exists.
    pub fn is_symmetric(&self) -> bool {
        self.vertices().all(|u| {
            self.out_neighbors(u)
                .iter()
                .all(|&v| self.out_neighbors(v).binary_search(&u).is_ok())
        })
    }

    /// Number of undirected edges: pairs `{u, v}` with at least one edge in
    /// either direction, self-loops counted once. This is the `|E|` of the
    /// paper's fork-count bound `O(|E|)` for vertex-based locking.
    pub fn num_undirected_edges(&self) -> u64 {
        let mut count = 0u64;
        for u in self.vertices() {
            let mut prev = None;
            for &v in self.out_neighbors(u) {
                if prev == Some(v) {
                    continue; // parallel edge
                }
                prev = Some(v);
                if v.raw() > u.raw() {
                    count += 1;
                } else if v == u {
                    count += 1; // self-loop, counted once
                } else {
                    // v < u: count it only if the reverse edge is absent
                    // (otherwise it was counted from v's side).
                    if self.out_neighbors(v).binary_search(&u).is_err() {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Symmetrized copy: for every edge `(u, v)` both directions exist,
    /// duplicates removed, self-loops removed. This is the transformation
    /// the paper applies to produce the undirected inputs for graph
    /// coloring (Table 1, parenthesized values).
    ///
    /// A vertex's neighbours in the copy are its [`Graph::neighbors`]: the
    /// merge of its sorted out- and in-run. So the out-CSR is written one
    /// merge per vertex, without an edge list or a sort, and the in-CSR of a
    /// symmetric graph is the out-CSR again.
    pub fn to_undirected(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.num_vertices as usize + 1);
        let mut targets = Vec::with_capacity(2 * self.out_targets.len());
        offsets.push(0);
        for v in self.vertices() {
            targets.extend(self.neighbors_iter(v));
            offsets.push(targets.len() as u64);
        }
        Graph {
            num_vertices: self.num_vertices,
            in_offsets: offsets.clone(),
            in_sources: targets.clone(),
            out_offsets: offsets,
            out_targets: targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }

    /// The paper's Figure 2/3 example: a 4-cycle v0-v1-v3-v2-v0 (so that
    /// {v0, v3} and {v1, v2} are the two independent sets).
    pub fn c4() -> Graph {
        Graph::from_edges(
            4,
            &[
                (0, 1),
                (1, 0),
                (1, 3),
                (3, 1),
                (3, 2),
                (2, 3),
                (2, 0),
                (0, 2),
            ],
        )
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.num_undirected_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = Graph::from_edges(5, &[]);
        assert_eq!(g.num_vertices(), 5);
        for u in g.vertices() {
            assert!(g.out_neighbors(u).is_empty());
            assert!(g.in_neighbors(u).is_empty());
            assert!(g.neighbors(u).is_empty());
        }
    }

    #[test]
    fn directed_adjacency() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        assert_eq!(g.out_neighbors(v(0)), &[v(1), v(2)]);
        assert_eq!(g.out_neighbors(v(1)), &[] as &[VertexId]);
        assert_eq!(g.in_neighbors(v(1)), &[v(0), v(2)]);
        assert_eq!(g.out_degree(v(0)), 2);
        assert_eq!(g.in_degree(v(1)), 2);
        assert_eq!(g.degree(v(2)), 2);
    }

    #[test]
    fn neighbors_unions_in_and_out() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 0), (0, 2), (3, 0)]);
        // out: {1, 2}; in: {2, 3} -> union {1, 2, 3}
        assert_eq!(g.neighbors(v(0)), vec![v(1), v(2), v(3)]);
    }

    #[test]
    fn neighbors_skips_self_loop() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.neighbors(v(0)), vec![v(1)]);
    }

    #[test]
    fn neighbors_where_filters_the_distinct_neighbors() {
        // Parallel edges, a self-loop, one-way edges in both directions.
        let g = Graph::from_edges(4, &[(0, 0), (0, 1), (0, 1), (2, 0), (0, 2), (3, 0)]);
        assert_eq!(g.neighbors_where(v(0), |_| true), g.neighbors(v(0)));
        assert_eq!(g.neighbors_where(v(0), |w| w.raw() != 2), [v(1), v(3)]);
        assert!(g.neighbors_where(v(0), |w| w == v(0)).is_empty());
        // v0's three in-edges come first.
        assert_eq!(g.in_edge_base(v(1)), 3);
    }

    #[test]
    fn higher_neighbors_are_the_neighbors_above() {
        // Parallel edges, self-loops, one-way edges in both directions; and
        // a symmetric graph, whose two runs are the same list.
        let messy = Graph::from_edges(
            5,
            &[
                (2, 2),
                (2, 4),
                (2, 4),
                (3, 2),
                (2, 3),
                (0, 2),
                (2, 1),
                (4, 4),
            ],
        );
        for g in [messy, c4()] {
            for u in g.vertices() {
                let above: Vec<_> = g.neighbors(u).into_iter().filter(|&w| w > u).collect();
                assert_eq!(g.higher_neighbors(u).collect::<Vec<_>>(), above, "{u:?}");
            }
        }
    }

    #[test]
    fn c4_is_symmetric_and_counted() {
        let g = c4();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.num_undirected_edges(), 4);
        assert_eq!(g.max_degree(), 4); // in+out = 2+2
    }

    #[test]
    fn undirected_edge_count_on_asymmetric_graph() {
        // 0->1 plus both directions of 1-2: undirected edges {0,1}, {1,2}.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        assert_eq!(g.num_undirected_edges(), 2);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn to_undirected_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let u = g.to_undirected();
        assert!(u.is_symmetric());
        assert_eq!(u.num_edges(), 4);
        assert_eq!(u.num_undirected_edges(), 2);
        assert_eq!(u.out_neighbors(v(1)), &[v(0), v(2)]);
    }

    #[test]
    fn to_undirected_drops_self_loops_and_parallels() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1), (0, 1), (1, 0)]);
        let u = g.to_undirected();
        assert_eq!(u.num_edges(), 2);
        assert_eq!(u.out_neighbors(v(0)), &[v(1)]);
    }

    #[test]
    fn parallel_edges_kept_by_from_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(v(0)), 2);
        // but num_undirected_edges collapses them
        assert_eq!(g.num_undirected_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn sorted_csr_rebuilds_the_graph_it_came_from() {
        // Unsorted input, a parallel edge, a self-loop, an isolated vertex.
        let edges = [(3, 1), (0, 2), (3, 0), (0, 2), (1, 1), (2, 0), (3, 2)];
        let g = Graph::from_edges(5, &edges);
        let (offsets, targets) = g.out_csr();
        let raw = targets.iter().map(|t| t.raw()).collect();
        let copy = Graph::from_sorted_csr(5, offsets.to_vec(), raw).expect("well-formed");
        assert_eq!(copy.num_edges(), g.num_edges());
        for u in g.vertices() {
            assert_eq!(copy.out_neighbors(u), g.out_neighbors(u));
            assert_eq!(copy.in_neighbors(u), g.in_neighbors(u));
            assert_eq!(copy.in_edge_base(u), g.in_edge_base(u));
        }
        assert_eq!(g.in_neighbors(v(2)), &[v(0), v(0), v(3)], "in-runs ascend");
    }

    #[test]
    fn malformed_csr_is_an_error_not_a_panic() {
        let bad = |offsets: &[u64], targets: &[u32]| {
            Graph::from_sorted_csr(3, offsets.to_vec(), targets.to_vec()).is_err()
        };
        assert!(!bad(&[0, 2, 2, 3], &[1, 2, 0]));
        assert!(bad(&[0, 2, 3], &[1, 2, 0]), "an offset short");
        assert!(bad(&[1, 2, 2, 3], &[1, 2, 0]), "does not start at 0");
        assert!(bad(&[0, 2, 2, 2], &[1, 2, 0]), "does not end at the edges");
        assert!(bad(&[0, 2, 1, 3], &[1, 2, 0]), "offsets decrease");
        assert!(bad(&[0, 9, 2, 3], &[1, 2, 0]), "offset past the edges");
        assert!(bad(&[0, 2, 2, 3], &[1, 3, 0]), "target out of range");
        assert!(bad(&[0, 2, 2, 3], &[2, 1, 0]), "run not ascending");
        assert!(
            Graph::from_sorted_csr(0, vec![], vec![]).is_err(),
            "no offsets"
        );
        assert!(
            Graph::from_sorted_csr(0, vec![0], vec![]).is_ok(),
            "empty graph"
        );
    }

    #[test]
    fn self_loop_counts_once_undirected() {
        let g = Graph::from_edges(1, &[(0, 0)]);
        assert_eq!(g.num_undirected_edges(), 1);
    }
}
