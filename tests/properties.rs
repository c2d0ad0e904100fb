//! Randomized property tests: core invariants over random graphs, cluster
//! shapes, and seeds. Driven by the in-repo deterministic [`SplitMix64`]
//! generator, so every run explores exactly the same case set (fully
//! reproducible, no network-fetched test frameworks).

use serigraph::prelude::*;
use serigraph::sg_algos::validate;
use sg_graph::SplitMix64;
use std::sync::Arc;

/// Random undirected graph over `3..max_n` vertices with up to `max_edges`
/// edge draws (self-loops allowed in the draw; the builder symmetrizes).
fn random_undirected(rng: &mut SplitMix64, max_n: u32, max_edges: usize) -> Graph {
    let n = 3 + rng.gen_range(u64::from(max_n - 3)) as u32;
    let m = rng.gen_index(max_edges + 1);
    let mut b = GraphBuilder::new();
    b.symmetric(true).reserve_vertices(n);
    b.add_edges((0..m).map(|_| {
        (
            rng.gen_range(u64::from(n)) as u32,
            rng.gen_range(u64::from(n)) as u32,
        )
    }));
    b.build()
}

/// Random directed graph over `2..max_n` vertices (no self-loops).
fn random_directed(rng: &mut SplitMix64, max_n: u32, max_edges: usize) -> Graph {
    let n = 2 + rng.gen_range(u64::from(max_n - 2)) as u32;
    let m = rng.gen_index(max_edges + 1);
    let mut b = GraphBuilder::new();
    b.dedup(true).reserve_vertices(n);
    b.add_edges(
        (0..m)
            .map(|_| {
                (
                    rng.gen_range(u64::from(n)) as u32,
                    rng.gen_range(u64::from(n)) as u32,
                )
            })
            .filter(|(a, b)| a != b),
    );
    b.build()
}

/// Serializable coloring is proper on any undirected graph, any cluster
/// shape, any technique.
#[test]
fn coloring_always_proper() {
    let techniques = [
        Technique::DualToken,
        Technique::VertexLock,
        Technique::PartitionLock,
    ];
    let mut rng = SplitMix64::new(0xC010);
    for case in 0..24 {
        let g = random_undirected(&mut rng, 40, 120);
        let workers = 1 + rng.gen_range(4) as u32;
        let tech = techniques[rng.gen_index(techniques.len())];
        let out = Runner::new(g.clone())
            .workers(workers)
            .technique(tech)
            .max_supersteps(2_000)
            .run_coloring()
            .expect("config");
        assert!(out.converged, "case {case}: did not converge");
        assert!(validate::all_colored(&out.values), "case {case}");
        assert_eq!(
            validate::coloring_conflicts(&g, &out.values),
            0,
            "case {case}: improper coloring ({tech:?}, {workers} workers)"
        );
    }
}

/// SSSP equals BFS on any directed graph under any technique.
#[test]
fn sssp_equals_bfs() {
    let techniques = [
        Technique::None,
        Technique::SingleToken,
        Technique::PartitionLock,
    ];
    let mut rng = SplitMix64::new(0x55_5B);
    for case in 0..24 {
        let g = random_directed(&mut rng, 40, 150);
        let workers = 1 + rng.gen_range(3) as u32;
        let tech = techniques[rng.gen_index(techniques.len())];
        let out = Runner::new(g.clone())
            .workers(workers)
            .technique(tech)
            .max_supersteps(5_000)
            .run_sssp(VertexId::new(0))
            .expect("config");
        assert!(out.converged, "case {case}");
        let want = validate::bfs_distances(&g, VertexId::new(0));
        for (v, (got, want)) in out.values.iter().zip(&want).enumerate() {
            assert_eq!(*got, *want, "case {case}: vertex {v} ({tech:?})");
        }
    }
}

/// WCC equals union-find on any graph. HCC propagates along out-edges, so
/// (exactly like the paper's datasets) directed inputs are symmetrized
/// first; weak components are unchanged by that.
#[test]
fn wcc_equals_union_find() {
    let mut rng = SplitMix64::new(0x3CC);
    for case in 0..24 {
        let g = random_directed(&mut rng, 40, 120).to_undirected();
        let workers = 1 + rng.gen_range(3) as u32;
        let out = Runner::new(g.clone())
            .workers(workers)
            .technique(Technique::PartitionLock)
            .max_supersteps(5_000)
            .run_wcc()
            .expect("config");
        assert!(out.converged, "case {case}");
        assert_eq!(out.values, validate::wcc_reference(&g), "case {case}");
    }
}

/// Histories recorded under partition-based locking always satisfy
/// Theorem 1's conditions — the headline property.
#[test]
fn partition_lock_history_always_1sr() {
    let mut rng = SplitMix64::new(0x15_12);
    for case in 0..24 {
        let g = random_undirected(&mut rng, 24, 80);
        let workers = 2 + rng.gen_range(3) as u32;
        let seed = rng.gen_range(1000);
        let mut config = EngineConfig {
            workers,
            technique: Technique::PartitionLock,
            record_history: true,
            max_supersteps: 2_000,
            partition_seed: seed,
            ..Default::default()
        };
        config.threads_per_worker = 2;
        let out = Engine::new(
            Arc::new(g.clone()),
            serigraph::sg_algos::GreedyColoring,
            config,
        )
        .expect("config")
        .run();
        let h = out.history.expect("recorded");
        assert!(h.c1_violations().is_empty(), "case {case}");
        assert!(h.c2_violations(&g).is_empty(), "case {case}");
        assert!(h.is_one_copy_serializable(&g), "case {case}");
    }
}

/// `PartitionMap::from_assignment` against the definitions, by brute force:
/// a vertex's class from its distinct neighbours (Definitions 1 and 4,
/// Section 5.3), a partition's virtual edges as the sorted set of other
/// partitions its vertices have neighbours in (Section 5.4) — on random
/// simple graphs, a skewed R-MAT, and a multigraph with self-loops, which
/// must count for nothing.
#[test]
fn boundary_classification_consistent() {
    use sg_graph::VertexClass;
    let mut rng = SplitMix64::new(0xB0B0);
    let mut graphs: Vec<Graph> = (0..24)
        .map(|_| random_directed(&mut rng, 60, 200))
        .collect();
    graphs.push(gen::rmat(8, 1_500, gen::datasets::SKEW, 0xB0B0));
    let noisy = (0..300).map(|i| match i % 3 {
        0 => (rng.gen_range(40) as u32, rng.gen_range(40) as u32),
        1 => (i % 40, i % 40), // self-loop
        _ => (7, 11),          // the same edge, again and again
    });
    graphs.push(Graph::from_edges(40, &noisy.collect::<Vec<_>>()));
    for (case, g) in graphs.iter().enumerate() {
        let workers = 1 + rng.gen_range(4) as u32;
        let ppw = 1 + rng.gen_range(4) as u32;
        let layout = ClusterLayout::new(workers, ppw);
        let pm =
            sg_graph::PartitionMap::build(g, layout, &sg_graph::partition::HashPartitioner::new(1));
        let mut virtual_edges = vec![std::collections::BTreeSet::new(); (workers * ppw) as usize];
        for v in g.vertices() {
            let mut local_cross = false;
            let mut remote = false;
            for u in g.neighbors(v) {
                if pm.partition_of(u) != pm.partition_of(v) {
                    virtual_edges[pm.partition_of(v).index()].insert(pm.partition_of(u));
                    if pm.worker_of(u) == pm.worker_of(v) {
                        local_cross = true;
                    } else {
                        remote = true;
                    }
                }
            }
            let class = match (local_cross, remote) {
                (false, false) => VertexClass::PInternal,
                (true, false) => VertexClass::LocalBoundary,
                (false, true) => VertexClass::RemoteBoundary,
                (true, true) => VertexClass::MixedBoundary,
            };
            assert_eq!(pm.class_of(v), class, "case {case} vertex {v:?}");
        }
        for p in layout.partitions() {
            let want: Vec<PartitionId> = virtual_edges[p.index()].iter().copied().collect();
            assert_eq!(pm.partition_neighbors(p), want, "case {case}: {p:?}");
        }
    }
}

/// Edge-list I/O round-trips arbitrary graphs.
#[test]
fn io_roundtrip() {
    let mut rng = SplitMix64::new(0x10);
    for case in 0..24 {
        let g = random_directed(&mut rng, 50, 200);
        let mut buf = Vec::new();
        sg_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = sg_graph::io::read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges(), "case {case}");
        for v in g.vertices() {
            if g2.num_vertices() > v.raw() {
                assert_eq!(g.out_neighbors(v), g2.out_neighbors(v), "case {case}");
            } else {
                // Trailing isolated vertices are not representable in an
                // edge list; they must have no edges.
                assert!(g.out_neighbors(v).is_empty(), "case {case}");
            }
        }
    }
}

/// `to_undirected` is idempotent and symmetric.
#[test]
fn symmetrization_idempotent() {
    let mut rng = SplitMix64::new(0x51);
    for case in 0..24 {
        let g = random_directed(&mut rng, 40, 150);
        let u1 = g.to_undirected();
        let u2 = u1.to_undirected();
        assert!(u1.is_symmetric(), "case {case}");
        assert_eq!(u1.num_edges(), u2.num_edges(), "case {case}");
        assert_eq!(u1.num_undirected_edges() * 2, u1.num_edges(), "case {case}");
    }
}
