//! Incremental construction of [`Graph`]s from edge streams.

use crate::graph::Graph;

/// Accumulates edges and produces a [`Graph`].
///
/// The builder tracks the maximum endpoint seen, so callers that do not know
/// `|V|` in advance (e.g. the edge-list reader) can still produce a graph
/// with a dense id space.
///
/// ```
/// use sg_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32)>,
    min_vertices: u32,
    dedup: bool,
    symmetric: bool,
}

impl GraphBuilder {
    /// New empty builder. Duplicate edges are kept; the graph is directed.
    pub fn new() -> Self {
        Self::default()
    }

    /// New builder with capacity for `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        Self {
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Guarantee the built graph has at least `n` vertices even if some ids
    /// never appear in an edge.
    pub fn reserve_vertices(&mut self, n: u32) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Remove duplicate (parallel) edges at build time.
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// Insert the reverse of every edge at build time (and deduplicate),
    /// producing a symmetric graph. Self-loops are dropped.
    pub fn symmetric(&mut self, yes: bool) -> &mut Self {
        self.symmetric = yes;
        self
    }

    /// Add a directed edge `src -> dst`.
    pub fn add_edge(&mut self, src: u32, dst: u32) -> &mut Self {
        self.edges.push((src, dst));
        self
    }

    /// Add many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (u32, u32)>>(&mut self, iter: I) -> &mut Self {
        self.edges.extend(iter);
        self
    }

    /// Number of edges currently buffered.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if no edges are buffered.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finish and produce the [`Graph`].
    pub fn build(mut self) -> Graph {
        if self.symmetric {
            // A self-loop is dropped, so its vertex does not widen the id space.
            self.edges.retain(|&(s, t)| s != t);
        } else if self.dedup {
            self.edges.sort_unstable();
            self.edges.dedup();
        }
        let n = self
            .edges
            .iter()
            .map(|&(s, t)| s.max(t) + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        let g = Graph::from_edges(n, &self.edges);
        if self.symmetric {
            g.to_undirected()
        } else {
            g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn infers_vertex_count_from_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 7);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn reserve_vertices_extends_id_space() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1).reserve_vertices(10);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = GraphBuilder::new();
        b.dedup(true).add_edges([(0, 1), (0, 1), (1, 0)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn symmetric_adds_reverse_edges_and_drops_loops() {
        let mut b = GraphBuilder::new();
        b.symmetric(true).add_edges([(0, 1), (1, 2), (2, 2)]);
        let g = b.build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(VertexId::new(2)), &[VertexId::new(1)]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut b = GraphBuilder::new();
        assert!(b.is_empty());
        b.add_edge(0, 1);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
