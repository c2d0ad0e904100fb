//! Differential test of [`EatOrder`], the rule virtual-time hosts use to
//! work out when a granted unit's forks arrived.
//!
//! The reference is the per-pair stamp model the fork table kept before it
//! kept no clock: each pair carries the time its fork is available where
//! it sits — on release, the latest of that and the releaser's end time;
//! on every hop between machines, plus the link's latency — and a unit is
//! ready at the latest stamp of its pairs. Seeded random schedules drive
//! the real table through `try_acquire_unit` / `release_unit` on random
//! graphs, 1–3 workers, asymmetric link latencies (some free one way) and
//! zero-cost executions, for partition-grain and vertex-grain tables;
//! every grant's ready time must agree.

use sg_graph::partition::ExplicitPartitioner;
use sg_graph::{gen, ClusterLayout, PartitionId, PartitionMap, SplitMix64, VertexId, WorkerId};
use sg_metrics::{EatOrder, Metrics};
use sg_sync::{NetAction, PartitionLock, QueueTransport, Synchronizer, VertexLock};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq)]
enum Unit {
    Thinking,
    Hungry,
    /// Granted at this ready time.
    Eating(u64),
}

/// The reference model: per pair `(low, high)`, the fork's stamp and
/// whether it sits at `low`. Fork moves are read off the table after each
/// protocol call: forks move only towards the called unit (a grant or a
/// request pass) or away from it to hungry neighbours (a release).
struct PairStamps {
    pairs: HashMap<(u32, u32), (u64, bool)>,
}

impl PairStamps {
    fn pair(&mut self, a: u32, b: u32) -> &mut (u64, bool) {
        // Section 6.3: the fork starts at the higher id, stamped 0.
        self.pairs.entry((a.min(b), a.max(b))).or_insert((0, false))
    }
}

struct Schedule<'a> {
    sync: &'a dyn Synchronizer,
    /// Worker hosting each unit.
    worker: Vec<WorkerId>,
    /// One-way latency per directed worker link; 0 on one worker.
    latency: Vec<Vec<u64>>,
    net: QueueTransport,
    state: Vec<Unit>,
    reference: PairStamps,
    eats: EatOrder,
}

impl Schedule<'_> {
    fn lat(&self, from: u32, to: u32) -> u64 {
        self.latency[self.worker[from as usize].index()][self.worker[to as usize].index()]
    }

    /// Move the reference's forks of `p` to where the table put them,
    /// charging each hop's latency, and check that the transport saw
    /// exactly the hops between workers.
    fn follow_moves(&mut self, p: u32) {
        let waiting_on = |u: u32| self.sync.unit_waiting_on(u);
        let mut hops = Vec::new();
        for q in self.sync.fork_neighbors(p) {
            let p_holds = match self.state[p as usize] {
                Unit::Eating(_) => true,
                Unit::Hungry => !waiting_on(p).contains(&q),
                // A release hands forks only to hungry requesters.
                Unit::Thinking => {
                    self.state[q as usize] != Unit::Hungry || waiting_on(q).contains(&p)
                }
            };
            let (from, to) = if p_holds { (q, p) } else { (p, q) };
            let lat = self.lat(from, to);
            let pair = self.reference.pair(p, q);
            if pair.1 != (to < from) {
                // It sat at `from` and now sits at `to`.
                (pair.0, pair.1) = (pair.0 + lat, to < from);
                let (fw, tw) = (self.worker[from as usize], self.worker[to as usize]);
                if fw != tw {
                    let unit = Some(to);
                    hops.push(NetAction::Transfer {
                        from: fw,
                        to: tw,
                        unit,
                    });
                }
            }
        }
        let mut seen: Vec<_> = self.net.drain();
        seen.retain(|a| matches!(a, NetAction::Transfer { .. }));
        let key = |a: &NetAction| format!("{a:?}");
        seen.sort_by_key(key);
        hops.sort_by_key(key);
        assert_eq!(seen, hops, "the reference lost track of a fork of {p}");
    }

    fn poll(&mut self, p: u32) -> Option<(u64, u64)> {
        let granted = self.sync.try_acquire_unit(p, &self.net);
        self.state[p as usize] = if granted {
            Unit::Eating(0)
        } else {
            Unit::Hungry
        };
        self.follow_moves(p);
        if !granted {
            return None;
        }
        let reference = self
            .sync
            .fork_neighbors(p)
            .map(|q| self.reference.pair(p, q).0)
            .max()
            .unwrap_or(0);
        let rule = self
            .eats
            .ready(p, self.sync.fork_neighbors(p), |q| self.lat(q, p));
        self.state[p as usize] = Unit::Eating(rule);
        Some((rule, reference))
    }

    fn release(&mut self, p: u32, end: u64) {
        for q in self.sync.fork_neighbors(p) {
            let pair = self.reference.pair(p, q);
            pair.0 = pair.0.max(end);
        }
        self.eats.ate(p, end);
        self.sync.release_unit(p, end, &self.net);
        self.state[p as usize] = Unit::Thinking;
        self.follow_moves(p);
    }
}

/// What one schedule exercised.
#[derive(Default, Debug)]
struct Tally {
    grants: u64,
    /// Grants whose ready time was not 0.
    stamped: u64,
    /// Releases at the same end time as an earlier one.
    ties: u64,
}

/// Drive `steps` random protocol calls over `sync`'s units and compare
/// every grant's ready time with the reference.
fn drive(
    sync: &dyn Synchronizer,
    worker: Vec<WorkerId>,
    workers: usize,
    rng: &mut SplitMix64,
    steps: usize,
) -> Tally {
    // Asymmetric links, a third of them free one way: only a free hop
    // lets a neighbour on another worker end at the same instant.
    let mut link = |a, b| {
        if a == b || rng.gen_bool(0.3) {
            0
        } else {
            1 + rng.gen_range(999)
        }
    };
    let latency = (0..workers)
        .map(|a| (0..workers).map(|b| link(a, b)).collect())
        .collect();
    let units = worker.len();
    let mut s = Schedule {
        sync,
        worker,
        latency,
        net: QueueTransport::default(),
        state: vec![Unit::Thinking; units],
        reference: PairStamps {
            pairs: HashMap::new(),
        },
        eats: EatOrder::new(units),
    };
    let mut tally = Tally::default();
    let mut ends = std::collections::HashSet::new();
    for _ in 0..steps {
        let p = rng.gen_index(units) as u32;
        match s.state[p as usize] {
            Unit::Thinking | Unit::Hungry => {
                if let Some((rule, reference)) = s.poll(p) {
                    assert_eq!(rule, reference, "unit {p}'s ready time");
                    tally.grants += 1;
                    tally.stamped += u64::from(rule > 0);
                }
            }
            Unit::Eating(ready) => {
                // Zero-cost executions half the time; a lane may also
                // start after its forks arrived.
                let late = if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(300)
                };
                let cost = if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen_range(500)
                };
                let end = ready + late + cost;
                tally.ties += u64::from(!ends.insert(end));
                s.release(p, end);
            }
        }
    }
    tally
}

/// A random symmetric graph and a random placement of its vertices on
/// `workers × ppw` partitions.
fn random_case(rng: &mut SplitMix64) -> (Arc<sg_graph::Graph>, PartitionMap, usize) {
    let n = 3 + rng.gen_range(22) as u32;
    let max_edges = u64::from(n) * u64::from(n - 1) / 2;
    let m = 1 + rng.gen_range(max_edges.min(3 * u64::from(n)));
    let g = Arc::new(gen::erdos_renyi(n, m, true, rng.next_u64()));
    let workers = 1 + rng.gen_range(3) as u32;
    let ppw = 1 + rng.gen_range(3) as u32;
    let layout = ClusterLayout::new(workers, ppw);
    let parts = (0..n)
        .map(|_| PartitionId::new(rng.gen_range(u64::from(workers * ppw)) as u32))
        .collect();
    let pm = PartitionMap::build(&g, layout, &ExplicitPartitioner(parts));
    (g, pm, workers as usize)
}

#[test]
fn the_rule_matches_per_pair_stamps_on_every_grant() {
    let mut total = [Tally::default(), Tally::default(), Tally::default()];
    for seed in 0..150u64 {
        let mut rng = SplitMix64::new(seed);
        let (g, pm, workers) = random_case(&mut rng);
        let metrics = || Arc::new(Metrics::new());
        let layout = pm.layout();
        let by_vertex: Vec<WorkerId> = g.vertices().map(|v| pm.worker_of(v)).collect();
        let by_partition = layout
            .partitions()
            .map(|p| layout.worker_of_partition(p))
            .collect();

        let shapes: [(Box<dyn Synchronizer>, Vec<WorkerId>); 3] = [
            (Box::new(PartitionLock::new(&pm, metrics())), by_partition),
            (
                Box::new(VertexLock::new(&g, &pm, metrics())),
                by_vertex.clone(),
            ),
            (
                Box::new(VertexLock::new_all_vertices(
                    &g,
                    by_vertex.clone(),
                    metrics(),
                )),
                by_vertex,
            ),
        ];
        for (tally, (sync, worker)) in total.iter_mut().zip(shapes) {
            let t = drive(&*sync, worker, workers, &mut rng, 200);
            tally.grants += t.grants;
            tally.stamped += t.stamped;
            tally.ties += t.ties;
        }
    }
    // Every shape was exercised where the rule's branches differ: grants
    // after remote hops and zero-cost executions ending together.
    for (shape, t) in ["partition-lock", "vertex-lock", "all-vertices"]
        .iter()
        .zip(&total)
    {
        assert!(t.grants > 2_000, "{shape}: {t:?}");
        assert!(t.stamped > t.grants / 4, "{shape}: {t:?}");
        assert!(t.ties > 100, "{shape}: {t:?}");
    }
}

#[test]
fn only_fork_neighbours_count() {
    // The ring 0-1-2-3-0 cut into {0, 1} and {2, 3}: vertex 0's one fork
    // is the one it shares with 3.
    let g = gen::ring(4);
    let layout = ClusterLayout::new(2, 1);
    let parts = [0, 0, 1, 1].map(PartitionId::new).to_vec();
    let pm = PartitionMap::build(&g, layout, &ExplicitPartitioner(parts));
    let vl = VertexLock::new(&g, &pm, Arc::new(Metrics::new()));
    let eats = EatOrder::new(4);
    eats.ate(1, 900); // a neighbour in 0's own partition: no fork, no wait
    let v = VertexId::new(0).raw();
    assert_eq!(vl.fork_neighbors(v).collect::<Vec<_>>(), [3]);
    assert!(vl.try_acquire_unit(v, &QueueTransport::default()));
    // Nobody ate at either end: the fork starts at 3 and crosses over.
    assert_eq!(eats.ready(v, vl.fork_neighbors(v), |_| 50), 50);
}
