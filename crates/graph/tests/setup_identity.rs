//! Graph set-up builds the same graphs, bit for bit, as the straightforward
//! code it replaced. The references below are that code: an R-MAT descent
//! with one `next_f64` and a four-way branch per level, deduplicated in a
//! SipHash set of pairs; an Erdős–Rényi sampler over the same kind of set;
//! and a symmetrisation that sorts both directions of every edge. Each
//! optimised generator is checked against its reference CSR for CSR, out and
//! in, and a few inputs are pinned by digest, so a change that moves every
//! graph the same way still fails.

use sg_graph::gen::{self, datasets::SKEW};
use sg_graph::{Graph, SplitMix64, VertexId};
use std::collections::HashSet;
use std::sync::mpsc;
use std::time::Duration;

fn reference_rmat(scale: u32, num_edges: u64, probs: (f64, f64, f64, f64), seed: u64) -> Graph {
    let (a, b, c, _) = probs;
    let n: u64 = 1 << scale;
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::with_capacity(num_edges as usize);
    let mut edges = Vec::with_capacity(num_edges as usize);
    while (seen.len() as u64) < num_edges {
        let (mut x0, mut x1) = (0u64, n);
        let (mut y0, mut y1) = (0u64, n);
        while x1 - x0 > 1 {
            let r = rng.next_f64();
            let (right, down) = if r < a {
                (false, false)
            } else if r < a + b {
                (true, false)
            } else if r < a + b + c {
                (false, true)
            } else {
                (true, true)
            };
            let xm = (x0 + x1) / 2;
            let ym = (y0 + y1) / 2;
            if right {
                x0 = xm;
            } else {
                x1 = xm;
            }
            if down {
                y0 = ym;
            } else {
                y1 = ym;
            }
        }
        let (s, t) = (x0 as u32, y0 as u32);
        if s == t {
            continue;
        }
        if seen.insert((s, t)) {
            edges.push((s, t));
        }
    }
    Graph::from_edges(n as u32, &edges)
}

fn reference_erdos_renyi(n: u32, m: u64, symmetric: bool, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::with_capacity(m as usize);
    let mut edges = Vec::new();
    while (seen.len() as u64) < m {
        let a = rng.gen_range(u64::from(n)) as u32;
        let b = rng.gen_range(u64::from(n)) as u32;
        if a == b {
            continue;
        }
        let key = if symmetric {
            (a.min(b), a.max(b))
        } else {
            (a, b)
        };
        if seen.insert(key) {
            edges.push((key.0, key.1));
            if symmetric {
                edges.push((key.1, key.0));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

fn reference_to_undirected(g: &Graph) -> Graph {
    let mut edges = Vec::new();
    for u in g.vertices() {
        for &v in g.out_neighbors(u) {
            if u != v {
                edges.push((u.raw(), v.raw()));
                edges.push((v.raw(), u.raw()));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(g.num_vertices(), &edges)
}

fn assert_same(got: &Graph, want: &Graph, what: &str) {
    assert_eq!(got.num_vertices(), want.num_vertices(), "{what}: |V|");
    assert_eq!(got.num_edges(), want.num_edges(), "{what}: |E|");
    for v in want.vertices() {
        assert_eq!(
            got.out_neighbors(v),
            want.out_neighbors(v),
            "{what}: out {v:?}"
        );
        assert_eq!(
            got.in_neighbors(v),
            want.in_neighbors(v),
            "{what}: in {v:?}"
        );
        assert_eq!(
            got.in_edge_base(v),
            want.in_edge_base(v),
            "{what}: base {v:?}"
        );
    }
}

/// FNV-1a over |V| and every vertex's out- and in-run, lengths included.
fn digest(g: &Graph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(u64::from(g.num_vertices()));
    for v in g.vertices() {
        for run in [g.out_neighbors(v), g.in_neighbors(v)] {
            eat(run.len() as u64);
            run.iter().for_each(|u| eat(u64::from(u.raw())));
        }
    }
    h
}

/// Skewed, uniform (every threshold `p·2^53` an integer) and two vectors
/// whose low thresholds are not multiples of `2^-53`.
const PROBS: [(f64, f64, f64, f64); 4] = [
    SKEW,
    (0.25, 0.25, 0.25, 0.25),
    (0.05, 0.35, 0.2, 0.4),
    (0.45, 0.15, 0.3, 0.1),
];

#[test]
fn rmat_matches_the_reference() {
    for scale in 1..=12u32 {
        let n = 1u64 << scale;
        let max = n * (n - 1) / 2;
        // Drawing every possible edge takes coupon-collector time: only
        // where that is quick.
        let full = if scale <= 5 { max } else { 0 };
        for probs in PROBS {
            for seed in [1, 42, 0xA5] {
                for m in [0, 1, n, 4 * n, full].map(|m| m.min(max)) {
                    let what = format!("rmat({scale}, {m}, {probs:?}, {seed})");
                    let got = gen::rmat(scale, m, probs, seed);
                    assert_same(&got, &reference_rmat(scale, m, probs, seed), &what);
                }
            }
        }
    }
}

/// The first `next_u64` of `SplitMix64::new(seed)` is `u`: the generator's
/// finaliser is a bijection, so it can be run backwards.
fn seed_whose_first_draw_is(u: u64) -> u64 {
    let unshift = |y: u64, k: u32| (0..64 / k).fold(y, |x, _| y ^ (x >> k));
    let inverse = |c: u64| {
        (0..6).fold(c, |i, _| {
            i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
        })
    };
    let mut z = unshift(u, 31);
    z = unshift(z.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
    z = unshift(z.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30);
    let seed = z.wrapping_sub(0x9E37_79B9_7F4A_7C15);
    assert_eq!(SplitMix64::new(seed).next_u64(), u);
    seed
}

#[test]
fn rmat_thresholds_are_exact_at_the_boundary() {
    // At scale 1 the first draw decides the first candidate: below `a + b`
    // it is the edge (1, 0), at or above it (0, 1). Draw the 53-bit values
    // around `t = ceil((a + b)·2^53)`. Where `a + b` is a multiple of 2^-53,
    // `t` lies exactly on it (`>` for `≥` fails there); where it is not,
    // `t - 1` lies just below it (`floor` for `ceil` fails there).
    for (probs, integral) in [
        ((0.25, 0.25, 0.25, 0.25), true),
        ((0.05, 0.35, 0.2, 0.4), false),
    ] {
        let exact = (probs.0 + probs.1) * (1u64 << 53) as f64;
        assert_eq!(exact.fract() == 0.0, integral, "{probs:?}");
        let t = exact.ceil() as u64;
        for m in [t - 1, t, t + 1] {
            let seed = seed_whose_first_draw_is(m << 11 | 0x5A5);
            let got = gen::rmat(1, 1, probs, seed);
            assert_same(
                &got,
                &reference_rmat(1, 1, probs, seed),
                &format!("{probs:?} at {m}"),
            );
            let first = if (m as f64) < exact { (1, 0) } else { (0, 1) };
            assert_eq!(
                got.out_degree(VertexId::new(first.0)),
                1,
                "{probs:?} at {m}"
            );
        }
    }
}

#[test]
fn erdos_renyi_matches_the_reference() {
    for n in [2u32, 3, 17, 200] {
        let max = u64::from(n) * u64::from(n - 1) / 2;
        for symmetric in [false, true] {
            for seed in [1, 7, 99] {
                for m in [0, 1, max / 3, max] {
                    let what = format!("erdos_renyi({n}, {m}, {symmetric}, {seed})");
                    let got = gen::erdos_renyi(n, m, symmetric, seed);
                    assert_same(&got, &reference_erdos_renyi(n, m, symmetric, seed), &what);
                }
            }
        }
    }
}

#[test]
fn to_undirected_matches_the_reference() {
    let mut rng = SplitMix64::new(2016);
    for trial in 0..50 {
        // Multigraphs with parallel edges, self-loops and isolated vertices.
        let n = 1 + rng.gen_range(40) as u32;
        let m = rng.gen_range(4 * u64::from(n) + 1);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                (
                    rng.gen_range(n.into()) as u32,
                    rng.gen_range(n.into()) as u32,
                )
            })
            .collect();
        let g = Graph::from_edges(n, &edges);
        let once = g.to_undirected();
        assert_same(
            &once,
            &reference_to_undirected(&g),
            &format!("trial {trial}"),
        );
        assert_same(
            &once.to_undirected(),
            &once,
            &format!("trial {trial}, twice"),
        );
    }
    for (name, g) in gen::datasets::all(64) {
        assert_same(&g.to_undirected(), &reference_to_undirected(&g), name);
    }
    assert_same(
        &Graph::from_edges(0, &[]).to_undirected(),
        &Graph::from_edges(0, &[]),
        "empty",
    );
}

/// The Table 1 stand-ins at `scale_div` 16, directed and symmetrised, as
/// the reference code builds them. Every workload input, simulated makespan
/// and committed result depends on these graphs: a generator change that
/// moves a digest is a change of every result, not a digest to re-pin.
#[test]
fn dataset_digests_are_pinned() {
    let want = [
        ("OR-sim", 0xf272_09d1_3603_6a3a, 0x64c2_a93e_2d73_f699),
        ("AR-sim", 0x68bf_4461_b0f4_6e2b, 0x40be_d5e1_96f2_9ad9),
        ("TW-sim", 0x45d3_cca6_0785_49a6, 0xa76a_386f_3e4d_ecf9),
        ("UK-sim", 0x49e4_1f57_c6a3_5778, 0xbc3f_55bb_c8d8_bbd5),
    ];
    for ((name, g), (want_name, directed, undirected)) in
        gen::datasets::all(16).into_iter().zip(want)
    {
        assert_eq!(name, want_name);
        assert_eq!(
            (digest(&g), digest(&g.to_undirected())),
            (directed, undirected),
            "{name}"
        );
    }
}

/// The shape of the benchmark's audited colouring input (R-MAT scale 15,
/// 500,000 edges, `SKEW`), at seed 42.
#[test]
fn audited_coloring_input_digest_is_pinned() {
    let g = gen::rmat(15, 500_000, SKEW, 42);
    let want = (0xba2a_75c1_2f24_9dd6, 0xb898_a591_d6ec_ce25);
    assert_eq!((digest(&g), digest(&g.to_undirected())), want);
}

#[test]
fn rmat_of_no_edges_returns() {
    // A draw loop that stops only on the push that reaches `num_edges`
    // never stops for 0: fail, rather than hang. The thread is not joined,
    // since a hung one never would be; a panic in it drops `tx`, which
    // fails the receive.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(gen::rmat(10, 0, SKEW, 1).num_edges()));
    assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(0));
}

#[test]
#[should_panic(expected = "R-MAT scale 32 exceeds 31")]
fn rmat_refuses_a_scale_its_ids_cannot_hold() {
    gen::rmat(32, 0, SKEW, 1);
}
