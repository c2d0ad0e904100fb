//! Validation of the serializability checker itself: for small random
//! histories, the serialization-graph test must agree with a brute-force
//! oracle that enumerates every serial order and checks conflict
//! equivalence directly, the post-hoc check's strict-separation
//! certificate (with Kahn's algorithm behind it) must agree with Kahn's
//! algorithm alone, the C2 scan with a scan of every pair, and the live
//! checker — which certifies commit order instead — with the post-hoc one.
//! Cases are drawn from the in-repo
//! deterministic [`SplitMix64`] generator, so the suite is exactly
//! reproducible offline.

use sg_graph::{Graph, SplitMix64, VertexId};
use sg_serial::{History, IncrementalChecker, StampedTxn, TxnRecord};
use std::collections::BTreeSet;
use std::sync::Arc;

/// All (item, op) pairs of a transaction under the paper's model:
/// `Ti(Nu) = ri[Nu] wi[u]` — reads of `u` and its in-neighbors at `start`,
/// a write of `u` at `end`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(u32),
    Write(u32),
}

fn ops_of(g: &Graph, t: &TxnRecord) -> Vec<(Op, u64)> {
    let mut ops = vec![
        (Op::Read(t.vertex.raw()), t.start),
        (Op::Write(t.vertex.raw()), t.end),
    ];
    for &v in g.in_neighbors(t.vertex) {
        if v != t.vertex {
            ops.push((Op::Read(v.raw()), t.start));
        }
    }
    ops
}

fn conflicting(a: Op, b: Op) -> bool {
    match (a, b) {
        (Op::Read(x), Op::Write(y))
        | (Op::Write(x), Op::Read(y))
        | (Op::Write(x), Op::Write(y)) => x == y,
        _ => false,
    }
}

/// Brute-force oracle: is there a permutation of the transactions that
/// preserves the order of every conflicting operation pair? (Conflict
/// serializability by definition.)
fn oracle_serializable(g: &Graph, txns: &[TxnRecord]) -> bool {
    let n = txns.len();
    assert!(n <= 6, "oracle is factorial");
    // Precompute pairwise order constraints: must_precede[i][j] = true if
    // some conflicting op of Ti precedes one of Tj in the actual history.
    let mut must_precede = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            for &(a, ta) in &ops_of(g, &txns[i]) {
                for &(b, tb) in &ops_of(g, &txns[j]) {
                    if conflicting(a, b) && ta < tb {
                        must_precede[i][j] = true;
                    }
                }
            }
        }
    }
    // A serial order exists iff the "must precede" relation is acyclic —
    // check by enumerating permutations (the definitionally honest oracle).
    let mut perm: Vec<usize> = (0..n).collect();
    permute_exists(&mut perm, 0, &must_precede)
}

fn permute_exists(perm: &mut Vec<usize>, k: usize, must: &[Vec<bool>]) -> bool {
    let n = perm.len();
    if k == n {
        // Valid iff no pair appears against its required order.
        for (pos_a, &a) in perm.iter().enumerate() {
            for &b in &perm[pos_a + 1..] {
                if must[b][a] {
                    return false;
                }
            }
        }
        return true;
    }
    for i in k..n {
        perm.swap(k, i);
        if permute_exists(perm, k + 1, must) {
            perm.swap(k, i);
            return true;
        }
        perm.swap(k, i);
    }
    false
}

/// Small random symmetric graph over 4 vertices + random transactions with
/// random (possibly overlapping) intervals — mirrors the proptest strategy
/// the seed used, but driven by the deterministic PRNG.
fn random_history(rng: &mut SplitMix64, max_txns: usize) -> (Graph, Vec<TxnRecord>) {
    let num_edges = 1 + rng.gen_index(5);
    let mut b = sg_graph::GraphBuilder::new();
    b.symmetric(true).reserve_vertices(4);
    b.add_edges(
        (0..num_edges)
            .map(|_| (rng.gen_range(4) as u32, rng.gen_range(4) as u32))
            .filter(|(a, c)| a != c),
    );
    let g = b.build();
    let num_txns = 1 + rng.gen_index(max_txns);
    // Assign unique, strictly increasing timestamps derived from the
    // random starts: start = 2*rank, end = start + odd offset so
    // intervals can interleave.
    let mut txns: Vec<TxnRecord> = (0..num_txns)
        .map(|i| {
            let vertex = rng.gen_range(4) as u32;
            let start = rng.gen_range(16);
            TxnRecord {
                vertex: VertexId::new(vertex),
                start: start * 2 + (i as u64 % 2),
                end: start * 2 + 3 + (i as u64 * 2),
                stale_reads: vec![],
            }
        })
        .collect();
    // Make timestamps unique by perturbing duplicates.
    txns.sort_by_key(|t| t.start);
    let mut last = 0;
    for t in &mut txns {
        if t.start <= last {
            t.start = last + 1;
        }
        if t.end <= t.start {
            t.end = t.start + 1;
        }
        last = t.start;
    }
    (g, txns)
}

/// The serialization-graph cycle test agrees with the brute-force
/// permutation oracle on every small random history.
#[test]
fn sg_checker_matches_oracle() {
    let mut rng = SplitMix64::new(0x0_5C);
    for case in 0..300 {
        let (g, txns) = random_history(&mut rng, 5);
        let h = History::new(txns.clone());
        let fast = h.serialization_graph_acyclic(&g);
        let slow = oracle_serializable(&g, &txns);
        assert_eq!(fast, slow, "case {case}: graph={g:?} txns={txns:?}");
    }
}

/// When the checker says acyclic, the topological order it returns is a
/// genuine equivalent serial order (conflict pairs respected).
#[test]
fn equivalent_serial_order_respects_conflicts() {
    let mut rng = SplitMix64::new(0xE50);
    for case in 0..300 {
        let (g, txns) = random_history(&mut rng, 5);
        let h = History::new(txns.clone());
        if let Some(order) = h.equivalent_serial_order(&g) {
            for (pos_a, &a) in order.iter().enumerate() {
                for &b in &order[pos_a + 1..] {
                    // b must not be forced before a.
                    for &(op_b, tb) in &ops_of(&g, &txns[b]) {
                        for &(op_a, ta) in &ops_of(&g, &txns[a]) {
                            if conflicting(op_a, op_b) {
                                assert!(
                                    tb >= ta,
                                    "case {case}: order violates conflict {b:?} -> {a:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The history shapes the differential test draws.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One transaction at a time.
    Serial,
    /// Each vertex runs one execution at a time, neighbors interleave.
    NeighborOverlaps,
    /// Any two transactions may overlap, on one vertex too.
    SameVertexOverlaps,
    /// Stamps drawn from a narrow range, so transactions share them.
    SharedStamps,
}

/// A random directed graph on 3 to 6 vertices: one-way and two-way edges,
/// now and then a parallel edge or a self-loop.
fn random_digraph(rng: &mut SplitMix64) -> Graph {
    let n = 3 + rng.gen_index(4) as u32;
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.gen_bool(0.35) {
                edges.push((a, b));
                if rng.gen_bool(0.1) {
                    edges.push((a, b));
                }
            }
        }
    }
    if rng.gen_bool(0.2) {
        let v = rng.gen_range(u64::from(n)) as u32;
        edges.push((v, v));
    }
    Graph::from_edges(n, &edges)
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_index(i + 1));
    }
}

/// 2 to 12 transactions of `shape` on random vertices of `g`.
fn shaped_history(rng: &mut SplitMix64, g: &Graph, shape: Shape) -> Vec<TxnRecord> {
    let count = 2 + rng.gen_index(11);
    let n = u64::from(g.num_vertices());
    let vertices: Vec<u32> = (0..count).map(|_| rng.gen_range(n) as u32).collect();
    let mut stamps: Vec<u64> = (0..2 * count as u64).collect();
    shuffle(&mut stamps, rng);
    let intervals: Vec<(u64, u64)> = match shape {
        Shape::Serial => (0..count as u64).map(|k| (2 * k, 2 * k + 1)).collect(),
        Shape::SameVertexOverlaps => stamps
            .chunks(2)
            .map(|p| (p[0].min(p[1]), p[0].max(p[1])))
            .collect(),
        Shape::NeighborOverlaps => {
            // Each vertex pairs up its own stamps in ascending order.
            let mut intervals = vec![(0, 0); count];
            for v in 0..g.num_vertices() {
                let own: Vec<usize> = (0..count).filter(|&k| vertices[k] == v).collect();
                let mut mine: Vec<u64> = own
                    .iter()
                    .flat_map(|&k| [stamps[2 * k], stamps[2 * k + 1]])
                    .collect();
                mine.sort_unstable();
                for (&k, pair) in own.iter().zip(mine.chunks(2)) {
                    intervals[k] = (pair[0], pair[1]);
                }
            }
            intervals
        }
        Shape::SharedStamps => (0..count)
            .map(|_| {
                let start = rng.gen_range(6);
                (start, start + 1 + rng.gen_range(3))
            })
            .collect(),
    };
    vertices
        .iter()
        .zip(intervals)
        .map(|(&v, (start, end))| TxnRecord {
            vertex: VertexId::new(v),
            start,
            end,
            stale_reads: vec![],
        })
        .collect()
}

/// Condition C2 by definition: every pair of transactions on two distinct
/// adjacent vertices (either direction) whose intervals overlap.
fn c2_by_pairs(g: &Graph, txns: &[TxnRecord]) -> Vec<(usize, usize)> {
    let adjacent = |a: VertexId, b: VertexId| {
        a != b && (g.out_neighbors(a).contains(&b) || g.in_neighbors(a).contains(&b))
    };
    let mut pairs = Vec::new();
    for a in 0..txns.len() {
        for b in a + 1..txns.len() {
            if adjacent(txns[a].vertex, txns[b].vertex) && txns[a].overlaps(&txns[b]) {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Feed `txns` to a live checker as a watermark merge would: shuffled
/// arrivals, and after every few an advance to the smallest stamp not yet
/// observed. Returns the drained checker.
fn feed_live(g: &Arc<Graph>, txns: &[TxnRecord], rng: &mut SplitMix64) -> IncrementalChecker {
    let mut arrivals: Vec<StampedTxn> = txns.iter().map(StampedTxn::from).collect();
    shuffle(&mut arrivals, rng);
    let mut unseen: BTreeSet<u64> = arrivals.iter().flat_map(|t| [t.start, t.end]).collect();
    let mut live = IncrementalChecker::new(Arc::clone(g));
    for (i, t) in arrivals.into_iter().enumerate() {
        unseen.remove(&t.start);
        unseen.remove(&t.end);
        live.observe(t).unwrap();
        if i % 2 == 0 {
            live.advance(unseen.first().copied().unwrap_or(u64::MAX));
        }
    }
    live.finish();
    live
}

/// Differential test of the post-hoc checker on every history shape: the
/// acyclicity verdict (strict separation, the C2 merge scan's
/// certificate, first; Kahn's algorithm only as the fallback) equals
/// Kahn's verdict alone and, where the permutation oracle is affordable,
/// the oracle's; the C2 witnesses equal a scan of every pair. The cases
/// include serialization graphs whose edges all run forward in commit
/// order, graphs with a backward edge that stay acyclic, and graphs with a
/// backward edge that close a cycle, so both checkers' fallbacks are taken
/// and decide both ways.
///
/// The shapes a live feed can produce (unique stamps, one open execution
/// per vertex) are also fed to the live checker, shuffled and advanced by
/// watermark: its summary equals the post-hoc one, and it leaves its
/// commit-order certificate for the fallback exactly when an edge runs
/// backward — including backward edges that close no cycle, which it must
/// not report as one.
#[test]
fn certificate_and_c2_scan_match_brute_force() {
    let mut rng = SplitMix64::new(0xD1FF);
    let (mut forward, mut backward_acyclic, mut cyclic, mut overlapping) = (0, 0, 0, 0);
    let mut live_backward_acyclic = 0;
    for case in 0..2_000 {
        let shape = [
            Shape::Serial,
            Shape::NeighborOverlaps,
            Shape::SameVertexOverlaps,
            Shape::SharedStamps,
        ][case % 4];
        let g = Arc::new(random_digraph(&mut rng));
        let txns = shaped_history(&mut rng, &g, shape);
        let h = History::new(txns.clone());
        let what = format!("case {case} ({shape:?}): graph={g:?} txns={txns:?}");

        let acyclic = h.serialization_graph_acyclic(&g);
        assert_eq!(acyclic, h.equivalent_serial_order(&g).is_some(), "{what}");
        if txns.len() <= 6 && !matches!(shape, Shape::SharedStamps) {
            assert_eq!(acyclic, oracle_serializable(&g, &txns), "{what}");
        }
        let c2: Vec<(usize, usize)> = h.c2_violations(&g).iter().map(|v| (v.a, v.b)).collect();
        assert_eq!(c2, c2_by_pairs(&g, &txns), "{what}");

        let backward = h
            .serialization_graph(&g)
            .iter()
            .enumerate()
            .any(|(a, outs)| outs.iter().any(|&b| txns[a].end >= txns[b].end));
        match (backward, acyclic) {
            (false, true) => forward += 1,
            (true, true) => backward_acyclic += 1,
            (_, false) => cyclic += 1,
        }
        overlapping += usize::from(!c2.is_empty());
        if matches!(shape, Shape::Serial) {
            assert!(!backward && c2.is_empty(), "{what}");
        }

        if matches!(shape, Shape::Serial | Shape::NeighborOverlaps) {
            let live = feed_live(&g, &txns, &mut SplitMix64::new(case as u64 ^ 0x11FE));
            assert_eq!(live.summary(), h.summarize(&g), "live: {what}");
            assert_eq!(live.fallback_runs() > 0, backward, "live: {what}");
            live_backward_acyclic += usize::from(backward && acyclic);
        }
    }
    assert!(
        forward > 0 && backward_acyclic > 0 && cyclic > 0 && overlapping > 0,
        "{forward} forward, {backward_acyclic} backward but acyclic, {cyclic} cyclic, \
         {overlapping} with C2 witnesses"
    );
    assert!(
        live_backward_acyclic > 0,
        "no backward-but-acyclic case reached the live checker"
    );
}
