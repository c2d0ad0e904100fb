//! Seeded synthetic graph generators.
//!
//! The paper evaluates on four large real-world graphs (com-Orkut,
//! arabic-2005, twitter-2010, uk-2007-05; Table 1). Those datasets are not
//! redistributable here and would not fit a single-host simulation anyway,
//! so [`datasets`] provides scaled-down synthetic stand-ins with matched
//! degree skew (power-law via R-MAT) and matched |E|/|V| ratios. The small
//! deterministic generators (rings, grids, cliques, …) feed the unit,
//! property, and oscillation tests.
//!
//! Every generator takes an explicit seed; identical seeds produce identical
//! graphs on every platform.

use crate::graph::Graph;
use crate::rng::SplitMix64;

/// Undirected cycle `0-1-…-(n-1)-0`, stored symmetrically.
///
/// `ring(4)` is isomorphic to the 4-cycle of the paper's Figures 2 and 3
/// (there the cycle order is v0-v1-v3-v2; use [`paper_c4`] for that exact
/// labelling).
pub fn ring(n: u32) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges = Vec::with_capacity(2 * n as usize);
    for i in 0..n {
        let j = (i + 1) % n;
        edges.push((i, j));
        edges.push((j, i));
    }
    Graph::from_edges(n, &edges)
}

/// The exact 4-cycle of Figures 2 and 3: edges v0-v1, v1-v3, v3-v2, v2-v0,
/// so the two color classes are {v0, v3} and {v1, v2}, and workers
/// W1 = {v0, v2}, W2 = {v1, v3} cut every edge.
pub fn paper_c4() -> Graph {
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

/// Undirected `rows × cols` grid with 4-neighborhoods.
pub fn grid(rows: u32, cols: u32) -> Graph {
    assert!(rows > 0 && cols > 0);
    let id = |r: u32, c: u32| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
                edges.push((id(r, c + 1), id(r, c)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
                edges.push((id(r + 1, c), id(r, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// Complete undirected graph on `n` vertices (the dense case that makes
/// non-serializable greedy coloring fail to terminate, Section 1).
pub fn complete(n: u32) -> Graph {
    let mut edges = Vec::with_capacity((n as usize) * (n as usize - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Star: vertex 0 connected to all others, undirected.
pub fn star(n: u32) -> Graph {
    assert!(n >= 2);
    let mut edges = Vec::with_capacity(2 * (n as usize - 1));
    for i in 1..n {
        edges.push((0, i));
        edges.push((i, 0));
    }
    Graph::from_edges(n, &edges)
}

/// Complete bipartite graph `K(a, b)`, undirected; vertices `0..a` on the
/// left, `a..a+b` on the right.
pub fn bipartite_complete(a: u32, b: u32) -> Graph {
    let mut edges = Vec::with_capacity(2 * (a as usize) * (b as usize));
    for i in 0..a {
        for j in a..a + b {
            edges.push((i, j));
            edges.push((j, i));
        }
    }
    Graph::from_edges(a + b, &edges)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct directed edges chosen
/// uniformly (no self-loops). If `symmetric`, the reverse of each edge is
/// added too (and `m` counts undirected edges).
pub fn erdos_renyi(n: u32, m: u64, symmetric: bool, seed: u64) -> Graph {
    assert!(n >= 2);
    let max_edges = n as u64 * (n as u64 - 1) / if symmetric { 2 } else { 1 };
    assert!(m <= max_edges, "too many edges requested");
    let mut rng = SplitMix64::new(seed);
    let mut seen = EdgeSet::with_capacity_and_hasher(m as usize, Default::default());
    let mut edges = Vec::with_capacity(if symmetric {
        2 * m as usize
    } else {
        m as usize
    });
    while (seen.len() as u64) < m {
        let a = rng.gen_range(u64::from(n)) as u32;
        let b = rng.gen_range(u64::from(n)) as u32;
        if a == b {
            continue;
        }
        let (s, t) = if symmetric {
            (a.min(b), a.max(b))
        } else {
            (a, b)
        };
        if seen.insert(edge_key(s, t)) {
            edges.push((s, t));
            if symmetric {
                edges.push((t, s));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_per_vertex` existing vertices chosen proportionally to degree.
/// Produces an undirected (symmetric) power-law graph.
pub fn preferential_attachment(n: u32, m_per_vertex: u32, seed: u64) -> Graph {
    let m = m_per_vertex.max(1);
    assert!(n > m, "need more vertices than attachments per vertex");
    let mut rng = SplitMix64::new(seed);
    // `targets` holds one entry per edge endpoint, so sampling uniformly
    // from it is degree-proportional sampling.
    let mut endpoint_pool: Vec<u32> = Vec::with_capacity(2 * (n as usize) * (m as usize));
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * (n as usize) * (m as usize));

    // Seed clique over the first m+1 vertices.
    for i in 0..=m {
        for j in 0..i {
            edges.push((i, j));
            edges.push((j, i));
            endpoint_pool.push(i);
            endpoint_pool.push(j);
        }
    }
    for v in (m + 1)..n {
        let mut chosen = std::collections::BTreeSet::new();
        while (chosen.len() as u32) < m {
            let t = endpoint_pool[rng.gen_index(endpoint_pool.len())];
            if t != v {
                chosen.insert(t);
            }
        }
        // Deterministic iteration order matters: the endpoint pool's
        // order feeds later degree-proportional draws, so a HashSet here
        // would make "identical seed" graphs differ between calls.
        for &t in &chosen {
            edges.push((v, t));
            edges.push((t, v));
            endpoint_pool.push(v);
            endpoint_pool.push(t);
        }
    }
    Graph::from_edges(n, &edges)
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex
/// connects to its `k/2` nearest neighbors on each side, with every edge
/// rewired to a uniform random endpoint with probability `beta`. Produces
/// high clustering with short paths — a useful contrast to the power-law
/// generators for the coloring and triangle workloads.
pub fn watts_strogatz(n: u32, k: u32, beta: f64, seed: u64) -> Graph {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even and >= 2");
    assert!(n > k, "need n > k");
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = SplitMix64::new(seed);
    let mut edges = std::collections::BTreeSet::new();
    for v in 0..n {
        for j in 1..=(k / 2) {
            let mut t = (v + j) % n;
            if rng.gen_bool(beta) {
                // Rewire to a uniform non-self endpoint, avoiding duplicates.
                for _ in 0..16 {
                    let cand = rng.gen_range(u64::from(n)) as u32;
                    let key = (v.min(cand), v.max(cand));
                    if cand != v && !edges.contains(&key) {
                        t = cand;
                        break;
                    }
                }
            }
            if t != v {
                edges.insert((v.min(t), v.max(t)));
            }
        }
    }
    let mut sym = Vec::with_capacity(edges.len() * 2);
    for &(a, b) in &edges {
        sym.push((a, b));
        sym.push((b, a));
    }
    Graph::from_edges(n, &sym)
}

/// R-MAT recursive-matrix generator (Chakrabarti et al.): `2^scale`
/// vertices, `num_edges` directed edges drawn by recursive quadrant
/// selection with probabilities `(a, b, c, d)`, `a + b + c + d = 1`.
/// Self-loops are rejected; parallel edges are rejected, so the output has
/// exactly `num_edges` distinct directed edges (callers should keep
/// `num_edges` well below `4^scale`).
///
/// Each level takes one draw `r` and picks quadrant a, b, c or d as `r`
/// falls below `a`, `a + b`, `a + b + c` or none of them. The draw is
/// compared as the integer `m` with `r = m·2^-53` (what
/// [`SplitMix64::next_f64`] returns), against `ceil(t·2^53)` for each
/// threshold `t`: exactly the float comparison, without a branch. Vertex ids
/// are `u32`, so `scale` is at most 31.
pub fn rmat(scale: u32, num_edges: u64, probs: (f64, f64, f64, f64), seed: u64) -> Graph {
    let (a, b, c, d) = probs;
    assert!(
        (a + b + c + d - 1.0).abs() < 1e-9,
        "R-MAT probabilities must sum to 1"
    );
    assert!(
        scale <= 31,
        "R-MAT scale {scale} exceeds 31: vertex ids are u32"
    );
    let n: u64 = 1 << scale;
    assert!(
        num_edges <= n * (n - 1) / 2,
        "too many edges for 2^{scale} vertices"
    );
    let threshold = |t: f64| (t * (1u64 << 53) as f64).ceil() as u64;
    let (ta, tab, tabc) = (threshold(a), threshold(a + b), threshold(a + b + c));
    let mut rng = SplitMix64::new(seed);
    let mut candidate = || {
        let (mut x, mut y) = (0u64, 0u64);
        for _ in 0..scale {
            let m = rng.next_u64() >> 11;
            let (right, down) = ((m >= ta) ^ (m >= tab) ^ (m >= tabc), m >= tab);
            x = x << 1 | u64::from(right);
            y = y << 1 | u64::from(down);
        }
        edge_key(x as u32, y as u32)
    };
    let mut seen = EdgeSet::with_capacity_and_hasher(num_edges as usize, Default::default());
    let mut edges = Vec::with_capacity(num_edges as usize);
    // Candidates are drawn a batch at a time, so the descent runs apart from
    // the set's probes. The generator is local: the draws behind the last
    // accepted edge are simply dropped.
    let mut batch = [0u64; 256];
    while (edges.len() as u64) < num_edges {
        batch.fill_with(&mut candidate);
        for &key in &batch {
            let (s, t) = ((key >> 32) as u32, key as u32);
            if s != t && (edges.len() as u64) < num_edges && seen.insert(key) {
                edges.push((s, t));
            }
        }
    }
    drop(seen);
    Graph::from_edges(n as u32, &edges)
}

/// The generators' set of drawn edges, keyed `s << 32 | t`.
type EdgeSet = std::collections::HashSet<u64, std::hash::BuildHasherDefault<KeyHasher>>;

fn edge_key(s: u32, t: u32) -> u64 {
    u64::from(s) << 32 | u64::from(t)
}

/// One 64×64→128-bit multiply, folded: every bit of the key reaches the low
/// bits the table indexes by and the high bits it tags with. The keys are
/// generator output, not adversarial input.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("edge keys hash as one u64")
    }

    fn write_u64(&mut self, key: u64) {
        let p = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A small workload graph named by a compact spec string — `ring:8`,
/// `complete:6`, `grid:3x4` (or `grid:3:4`), `er:64:200:7`, `paper-c4` —
/// the one grammar the `sg-check` and `sg-cluster` command lines and the
/// counterexample files share. [`GraphSpec::parse`] is where such a string
/// enters the program, so that is where the generators' preconditions are
/// checked: a parsed spec always builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// Undirected cycle of `n >= 3` vertices.
    Ring(u32),
    /// Clique on `n >= 1` vertices — maximal conflict density.
    Complete(u32),
    /// `rows x cols` grid, both positive.
    Grid(u32, u32),
    /// Symmetric Erdős–Rényi `G(n, m)`: `m` undirected edges over `n >= 2`
    /// vertices, drawn from `seed`.
    ErdosRenyi {
        /// Vertices.
        n: u32,
        /// Undirected edges, at most `n (n - 1) / 2`.
        m: u64,
        /// Generator seed.
        seed: u64,
    },
    /// The paper's running four-vertex example.
    PaperC4,
}

impl GraphSpec {
    /// Most vertices, and most undirected edges, a spec may ask for: the
    /// generators allocate for what is asked, and a spec string comes from
    /// a command line.
    pub const MAX_SIZE: u64 = 1 << 22;

    /// Parse a spec string; the error names what is wrong with it.
    pub fn parse(s: &str) -> Result<GraphSpec, String> {
        let checked = || {
            let (kind, args) = match s.split_once(':') {
                Some((kind, args)) => (kind, Some(args)),
                None => (s, None),
            };
            let separators: &[char] = if kind == "grid" { &[':', 'x'] } else { &[':'] };
            let nums = (args.into_iter().flat_map(|a| a.split(separators)))
                .map(|p| p.parse().map_err(|_| format!("{p:?} is not a number")))
                .collect::<Result<Vec<u64>, String>>()?;
            let count = |n: u64| u32::try_from(n).map_err(|_| format!("{n} exceeds {}", u32::MAX));
            let spec = match (kind, nums.as_slice()) {
                ("ring", &[n]) => GraphSpec::Ring(count(n)?),
                ("complete", &[n]) => GraphSpec::Complete(count(n)?),
                ("grid", &[r, c]) => GraphSpec::Grid(count(r)?, count(c)?),
                ("er", &[n, m, seed]) => {
                    let n = count(n)?;
                    GraphSpec::ErdosRenyi { n, m, seed }
                }
                ("paper-c4", &[]) => GraphSpec::PaperC4,
                _ => {
                    return Err("want ring:N, complete:N, grid:RxC, er:N:M:SEED or paper-c4".into())
                }
            };
            spec.validate()
        };
        checked().map_err(|why| format!("bad graph spec {s:?}: {why}"))
    }

    /// Check the bounds [`GraphSpec::build`] needs, for a spec that was
    /// constructed rather than parsed.
    pub fn validate(self) -> Result<GraphSpec, String> {
        let pairs = |n: u32| u64::from(n) * u64::from(n.saturating_sub(1)) / 2;
        let (vertices, edges) = match self {
            GraphSpec::Ring(n) if n < 3 => return Err("a ring needs at least 3 vertices".into()),
            GraphSpec::Ring(n) => (u64::from(n), u64::from(n)),
            GraphSpec::Complete(0) => return Err("a clique needs at least 1 vertex".into()),
            GraphSpec::Complete(n) => (u64::from(n), pairs(n)),
            GraphSpec::Grid(r, c) if r == 0 || c == 0 => {
                return Err("a grid needs at least 1 row and 1 column".into())
            }
            GraphSpec::Grid(r, c) => {
                let cells = u64::from(r) * u64::from(c);
                (cells, cells.saturating_mul(2)) // fewer than 2 edges per cell
            }
            GraphSpec::ErdosRenyi { n, .. } if n < 2 => {
                return Err("a random graph needs at least 2 vertices".into())
            }
            GraphSpec::ErdosRenyi { n, m, .. } if m > pairs(n) => {
                return Err(format!("{n} vertices hold at most {} edges", pairs(n)));
            }
            GraphSpec::ErdosRenyi { n, m, .. } => (u64::from(n), m),
            GraphSpec::PaperC4 => (4, 4),
        };
        if vertices.max(edges) > Self::MAX_SIZE {
            return Err(format!("more than {} vertices or edges", Self::MAX_SIZE));
        }
        Ok(self)
    }

    /// Materialize the graph.
    ///
    /// # Panics
    /// Panics (in the generator) on a spec [`GraphSpec::validate`] rejects.
    pub fn build(self) -> Graph {
        match self {
            GraphSpec::Ring(n) => ring(n),
            GraphSpec::Complete(n) => complete(n),
            GraphSpec::Grid(r, c) => grid(r, c),
            GraphSpec::ErdosRenyi { n, m, seed } => erdos_renyi(n, m, true, seed),
            GraphSpec::PaperC4 => paper_c4(),
        }
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphSpec::Ring(n) => write!(f, "ring:{n}"),
            GraphSpec::Complete(n) => write!(f, "complete:{n}"),
            GraphSpec::Grid(r, c) => write!(f, "grid:{r}x{c}"),
            GraphSpec::ErdosRenyi { n, m, seed } => write!(f, "er:{n}:{m}:{seed}"),
            GraphSpec::PaperC4 => f.write_str("paper-c4"),
        }
    }
}

/// Scaled-down synthetic stand-ins for the paper's Table 1 datasets.
///
/// Each function returns a *directed* graph (like the originals); the
/// coloring experiments symmetrize with [`Graph::to_undirected`] exactly as
/// the paper does. `scale_div` divides the default edge count (and shrinks
/// the vertex count by half the log) for quicker runs; `1` gives the default
/// ~1000×-reduced sizes.
pub mod datasets {
    use super::*;

    /// Standard R-MAT skew used for all four stand-ins.
    pub const SKEW: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);

    fn shrink(scale: u32, edges: u64, scale_div: u64) -> (u32, u64) {
        assert!(scale_div >= 1);
        // Halve the vertex count for every 4x reduction in edges so the
        // average degree (and thus contention character) stays similar.
        let log4 = (63 - scale_div.leading_zeros() as u64) / 2;
        let new_scale = scale.saturating_sub(log4 as u32).max(6);
        (new_scale, (edges / scale_div).max(1 << new_scale))
    }

    /// com-Orkut stand-in: social network, |V| ≈ 4.1K, |E| ≈ 160K (vs the
    /// real 3.0M / 117M — same |E|/|V| ≈ 39).
    pub fn or_sim(scale_div: u64) -> Graph {
        let (s, e) = shrink(12, 160_000, scale_div);
        rmat(s, e, SKEW, 0x0_12)
    }

    /// arabic-2005 stand-in: web graph, |V| ≈ 16K, |E| ≈ 459K (real:
    /// 22.7M / 639M, |E|/|V| ≈ 28).
    pub fn ar_sim(scale_div: u64) -> Graph {
        let (s, e) = shrink(14, 459_000, scale_div);
        rmat(s, e, SKEW, 0xA5)
    }

    /// twitter-2010 stand-in: social network, |V| ≈ 33K, |E| ≈ 1.15M
    /// (real: 41.6M / 1.46B, |E|/|V| ≈ 35).
    pub fn tw_sim(scale_div: u64) -> Graph {
        let (s, e) = shrink(15, 1_150_000, scale_div);
        rmat(s, e, SKEW, 0x0_74)
    }

    /// uk-2007-05 stand-in: web graph, |V| ≈ 65K, |E| ≈ 2.36M (real:
    /// 105M / 3.73B, |E|/|V| ≈ 35.5).
    pub fn uk_sim(scale_div: u64) -> Graph {
        let (s, e) = shrink(16, 2_360_000, scale_div);
        rmat(s, e, SKEW, 0x0_7C)
    }

    /// All four stand-ins with their short names, in Table 1 order.
    pub fn all(scale_div: u64) -> Vec<(&'static str, Graph)> {
        vec![
            ("OR-sim", or_sim(scale_div)),
            ("AR-sim", ar_sim(scale_div)),
            ("TW-sim", tw_sim(scale_div)),
            ("UK-sim", uk_sim(scale_div)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    #[test]
    fn ring_structure() {
        let g = ring(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 10);
        assert!(g.is_symmetric());
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 2);
        }
    }

    #[test]
    fn paper_c4_color_classes() {
        let g = paper_c4();
        assert!(g.is_symmetric());
        // v0's neighbors are v1 and v2 — not v3.
        assert_eq!(
            g.neighbors(VertexId::new(0)),
            vec![VertexId::new(1), VertexId::new(2)]
        );
        assert_eq!(
            g.neighbors(VertexId::new(3)),
            vec![VertexId::new(1), VertexId::new(2)]
        );
    }

    #[test]
    fn grid_degrees() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert!(g.is_symmetric());
        // corner has degree 2 (out), center 4
        assert_eq!(g.out_degree(VertexId::new(0)), 2);
        assert_eq!(g.out_degree(VertexId::new(5)), 4);
    }

    #[test]
    fn complete_graph() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 20);
        assert!(g.is_symmetric());
        assert_eq!(g.num_undirected_edges(), 10);
    }

    #[test]
    fn star_graph() {
        let g = star(6);
        assert_eq!(g.out_degree(VertexId::new(0)), 5);
        assert_eq!(g.out_degree(VertexId::new(3)), 1);
        assert!(g.is_symmetric());
    }

    #[test]
    fn bipartite_graph() {
        let g = bipartite_complete(2, 3);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_undirected_edges(), 6);
        assert!(g.is_symmetric());
    }

    #[test]
    fn erdos_renyi_exact_edge_count() {
        let g = erdos_renyi(50, 100, false, 1);
        assert_eq!(g.num_edges(), 100);
        let u = erdos_renyi(50, 100, true, 1);
        assert_eq!(u.num_edges(), 200);
        assert!(u.is_symmetric());
        assert_eq!(u.num_undirected_edges(), 100);
    }

    #[test]
    fn erdos_renyi_deterministic_per_seed() {
        let a = erdos_renyi(40, 60, false, 9);
        let b = erdos_renyi(40, 60, false, 9);
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn preferential_attachment_properties() {
        let g = preferential_attachment(200, 3, 4);
        assert_eq!(g.num_vertices(), 200);
        assert!(g.is_symmetric());
        // Power-law-ish: max degree should be well above the mean.
        let mean = g.num_edges() / 200;
        assert!(u64::from(g.max_degree()) > 2 * mean);
        // No self-loops.
        for v in g.vertices() {
            assert!(!g.out_neighbors(v).contains(&v));
        }
    }

    #[test]
    fn watts_strogatz_shape() {
        let g = watts_strogatz(100, 4, 0.1, 3);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.is_symmetric());
        // Roughly n*k/2 undirected edges (rewiring collisions may drop a few).
        let und = g.num_undirected_edges();
        assert!((180..=200).contains(&und), "got {und}");
        // beta = 0 is the pure ring lattice: exactly n*k/2 edges, all degree k.
        let lattice = watts_strogatz(50, 4, 0.0, 1);
        assert_eq!(lattice.num_undirected_edges(), 100);
        assert!(lattice.vertices().all(|v| lattice.out_degree(v) == 4));
    }

    #[test]
    fn watts_strogatz_deterministic() {
        let a = watts_strogatz(80, 6, 0.2, 9);
        let b = watts_strogatz(80, 6, 0.2, 9);
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(8, 1000, datasets::SKEW, 7);
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 1000);
        // Skewed: some vertex should be much hotter than average.
        assert!(g.max_degree() > 30);
    }

    #[test]
    fn preferential_attachment_deterministic() {
        // Regression: a HashSet in the attachment loop once made two
        // same-seed calls return different graphs.
        let a = preferential_attachment(100, 3, 9);
        let b = preferential_attachment(100, 3, 9);
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn rmat_deterministic() {
        let a = rmat(7, 300, datasets::SKEW, 42);
        let b = rmat(7, 300, datasets::SKEW, 42);
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn dataset_sims_scale_down() {
        let small = datasets::or_sim(64);
        let smaller = datasets::or_sim(256);
        assert!(small.num_edges() > smaller.num_edges());
        assert!(small.num_vertices() >= smaller.num_vertices());
    }

    #[test]
    fn dataset_sims_ordering_matches_table1() {
        // With the same scale_div the four stand-ins must preserve the
        // paper's size ordering OR < AR < TW < UK.
        let gs = datasets::all(256);
        let sizes: Vec<u64> = gs.iter().map(|(_, g)| g.num_edges()).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes {sizes:?}");
    }

    #[test]
    fn graph_specs_round_trip_and_build() {
        for spec in [
            GraphSpec::Ring(8),
            GraphSpec::Complete(5),
            GraphSpec::Grid(3, 4),
            GraphSpec::ErdosRenyi {
                n: 16,
                m: 40,
                seed: 7,
            },
            GraphSpec::PaperC4,
        ] {
            assert_eq!(GraphSpec::parse(&spec.to_string()), Ok(spec));
        }
        // Either separator names the same grid; files written with `x`
        // and command lines typed with `:` both keep parsing.
        assert_eq!(GraphSpec::parse("grid:3:4"), GraphSpec::parse("grid:3x4"));
        assert_eq!(GraphSpec::Grid(3, 4).build().num_vertices(), 12);
        assert_eq!(GraphSpec::PaperC4.build().num_vertices(), 4);
        let er = GraphSpec::parse("er:16:40:7").unwrap().build();
        assert_eq!((er.num_vertices(), er.num_undirected_edges()), (16, 40));
        assert_eq!(
            GraphSpec::Complete(1)
                .validate()
                .map(GraphSpec::build)
                .unwrap()
                .num_edges(),
            0
        );
    }

    #[test]
    fn degenerate_graph_specs_are_errors_that_name_the_bound() {
        for (spec, bound) in [
            ("ring:0", "at least 3"),
            ("ring:2", "at least 3"),
            ("complete:0", "at least 1"),
            ("grid:0x3", "at least 1 row"),
            ("grid:0:3", "at least 1 row"),
            ("grid:3x0", "at least 1 row"),
            ("er:0:0:1", "at least 2"),
            ("er:5:1000:1", "at most 10 edges"),
            // What `as u32` used to read as `ring:3`.
            ("ring:4294967299", "exceeds 4294967295"),
            ("grid:65536x65536", "more than"),
            ("complete:100000", "more than"),
            ("er:4000000000:5:1", "more than"),
            ("ring:x", "not a number"),
            ("ring:", "not a number"),
            ("grid:3", "want ring:N"),
            ("ring:3x4", "not a number"),
            ("torus:9", "want ring:N"),
            ("paper-c4:1", "want ring:N"),
            ("", "want ring:N"),
        ] {
            let err = GraphSpec::parse(spec).expect_err(spec);
            assert!(err.contains(bound), "{spec}: {err}");
            assert!(err.contains(&format!("{spec:?}")), "{spec}: {err}");
        }
        assert!(GraphSpec::Ring(2).validate().is_err());
    }
}
