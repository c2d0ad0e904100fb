//! Per-layer probes of a traced run: each times one layer's public
//! functions, single-threaded unless it says otherwise, on the workload's
//! own graph and partitioning, and yields a unit cost. A layer's share of a
//! run is its unit cost times the count the run reported.

use crate::catalog::{smoke, Algo, Workload};
use crate::host::live_mib_of;
use crate::run::{self, generate, Obs, Variant, PR_THRESHOLD};
use crate::spans::Spans;
use crate::stats::{median, ratio};
use sg_algos::{DeltaPageRank, GreedyColoring, NO_COLOR};
use sg_engine::store::{OutboundBuffers, PartitionStore, StagingBuffers};
use sg_engine::{
    AggregatorSet, Combiner, Context, EngineConfig, SumCombiner, TechniqueKind, VertexProgram,
};
use sg_graph::partition::HashPartitioner;
use sg_graph::{ClusterLayout, Graph, PartitionMap, VertexId};
use sg_metrics::critical_path::{analyze_buffer, Category};
use sg_metrics::{Metrics, Trace};
use sg_net::{BatchView, Message, MsgBatch};
use sg_serial::{Recorder, StreamingAuditor};
use sg_store::{GraphReader, VertexStore};
use sg_sync::{
    DualLayerToken, LockGranularity, NoopTransport, PartitionLock, Synchronizer, VertexLock,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times each probe loop repeats; the unit cost is the median.
const REPEATS: usize = 3;

/// Unit costs of every layer, in the units `catalog::PER_LAYER` names.
#[derive(Default)]
pub struct Probes {
    pub num_vertices: f64,
    pub partition_s: f64,
    pub csr_mib: f64,
    pub compute_ns_per_vertex: f64,
    pub compute_ns_per_msg: f64,
    pub insert_ns_per_msg: f64,
    pub drain_ns_per_msg: f64,
    pub stage_flush_ns_per_msg: f64,
    pub sync_build_s: f64,
    pub acquire_release_ns_per_unit: f64,
    pub contended_ns_per_unit: f64,
    pub commit_ns_per_txn: f64,
    pub gc_ns_per_version: f64,
    pub store_mib: f64,
    pub read_latest_ns: f64,
    pub read_at_ns: f64,
    pub snapshot_open_ns: f64,
    pub khop1_ns_per_vertex: f64,
    pub record_ns_per_txn: f64,
    pub audit_drain_ns_per_txn: f64,
    pub check_ns_per_txn: f64,
    pub history_mib: f64,
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub sim_events_per_s: f64,
    pub sim_replay_identical: f64,
    /// Critical-path shares, in `Category::ALL` order.
    pub critical_path: [f64; Category::COUNT],
}

/// Nanoseconds of one call of `f`: the median of [`REPEATS`] calls.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Run every probe for `w` on its own input (`rmat_seed`), partitioning
/// (`pseed`) and cluster shape.
pub fn run_all(w: &Workload, rmat_seed: u64, pseed: u64, spans: &mut Spans) -> Probes {
    let mut p = Probes::default();
    let (input, csr_mib) = spans
        .time("probe.csr_mb", |s| {
            live_mib_of(|| generate(w, rmat_seed, s))
        })
        .0;
    p.csr_mib = csr_mib;
    let graph = input.graph;
    p.num_vertices = f64::from(graph.num_vertices());
    let layout = ClusterLayout::new(w.workers, w.partitions_per_worker);
    let build_pm = || PartitionMap::build(&graph, layout, &HashPartitioner::new(pseed));
    p.partition_s = spans
        .time("probe.partition", |_| {
            time_ns(|| {
                black_box(build_pm());
            })
        })
        .0
        / 1e9;
    let pm = Arc::new(build_pm());

    spans.time("probe.compute", |_| match w.algo {
        Algo::PageRank => compute_pagerank(&graph, &mut p),
        Algo::Coloring => compute_coloring(&graph, &mut p),
    });
    spans.time("probe.datapath", |_| match w.algo {
        Algo::PageRank => datapath(&graph, &pm, 1.0f64, Some(&SumCombiner), &mut p),
        Algo::Coloring => datapath(&graph, &pm, 1u32, None, &mut p),
    });
    spans.time("probe.sync", |_| sync(w.technique, &graph, &pm, &mut p));
    spans.time("probe.store", |_| match w.algo {
        Algo::PageRank => store(&graph, 1.0f64, &mut p),
        Algo::Coloring => store(&graph, 1u32, &mut p),
    });
    if w.audited {
        spans.time("probe.serial", |_| serial(&graph, &mut p));
    }
    if w.host == crate::catalog::Host::Net {
        spans.time("probe.wire", |_| wire(&mut p));
    }
    spans.time("probe.sim", |_| sim(w, rmat_seed, pseed, &mut p));
    spans.time("probe.critical_path", |s| {
        critical_path(w, rmat_seed, pseed, s, &mut p)
    });
    p
}

/// Call `program.compute` on every vertex through `Context::external`,
/// resetting the vertex's value to `value` first; returns total ns.
fn compute_pass<P: VertexProgram>(
    program: &P,
    graph: &Graph,
    value: &P::Value,
    messages: impl Fn(VertexId) -> Vec<P::Message>,
) -> f64 {
    let aggs = AggregatorSet::new();
    let trace = Trace::disabled();
    let mut outgoing = Vec::new();
    // Inboxes are built before the clock starts: the engine hands compute
    // a slice it already drained.
    let inboxes: Vec<Vec<P::Message>> = graph.vertices().map(&messages).collect();
    time_ns(|| {
        for v in graph.vertices() {
            let mut val = value.clone();
            let mut ctx =
                Context::<P>::external(v, 1, 0, graph, &mut val, &mut outgoing, &aggs, &trace, 0);
            program.compute(&mut ctx, &inboxes[v.index()]);
            black_box(ctx.halted());
            black_box(&val);
            outgoing.clear();
        }
    })
}

/// Split compute cost into a per-execution and a per-sent-message part:
/// an execution that sends nothing against one that sends to every
/// out-neighbour.
fn split_compute(idle_ns: f64, full_ns: f64, graph: &Graph, p: &mut Probes) {
    p.compute_ns_per_vertex = idle_ns / f64::from(graph.num_vertices());
    p.compute_ns_per_msg = ratio((full_ns - idle_ns).max(0.0), graph.num_edges() as f64);
}

fn compute_pagerank(graph: &Graph, p: &mut Probes) {
    let program = DeltaPageRank::new(PR_THRESHOLD);
    // A residual below the threshold is folded in and not forwarded; one
    // above it is forwarded to every out-neighbour.
    let idle = compute_pass(&program, graph, &1.0, |_| vec![1e-6]);
    let full = compute_pass(&program, graph, &1.0, |_| vec![1.0]);
    split_compute(idle, full, graph, p);
}

fn compute_coloring(graph: &Graph, p: &mut Probes) {
    // A coloured vertex only votes to halt; an uncoloured one picks the
    // smallest colour its neighbours' messages leave free and broadcasts.
    let idle = compute_pass(&GreedyColoring, graph, &0, |_| Vec::new());
    let full = compute_pass(&GreedyColoring, graph, &NO_COLOR, |v| {
        (0..graph.out_degree(v)).collect()
    });
    split_compute(idle, full, graph, p);
}

/// The engine's message datapath, driven with one message per edge:
/// `PartitionStore::insert` / `drain_into`, and for edges that cross
/// workers `StagingBuffers::stage` -> `OutboundBuffers::push_batch`/`take`.
fn datapath<M: Clone + Send + 'static>(
    graph: &Graph,
    pm: &PartitionMap,
    msg: M,
    combiner: Option<&dyn Combiner<M>>,
    p: &mut Probes,
) {
    let layout = *pm.layout();
    let mut locate = vec![(0usize, 0usize); graph.num_vertices() as usize];
    let mut sizes = Vec::new();
    for part in layout.partitions() {
        let vertices = pm.vertices_in(part);
        for (i, v) in vertices.iter().enumerate() {
            locate[v.index()] = (part.index(), i);
        }
        sizes.push(vertices.len());
    }
    let mut insert = Vec::new();
    let mut drain = Vec::new();
    for _ in 0..REPEATS {
        let stores: Vec<PartitionStore<M>> =
            sizes.iter().map(|&n| PartitionStore::new(n)).collect();
        let t = Instant::now();
        for u in graph.vertices() {
            for &to in graph.out_neighbors(u) {
                let (part, local) = locate[to.index()];
                black_box(stores[part].insert(local, u, msg.clone(), combiner));
            }
        }
        insert.push(t.elapsed().as_nanos() as f64 / graph.num_edges() as f64);
        let mut buf = Vec::new();
        let mut drained = 0usize;
        let t = Instant::now();
        for (store, &n) in stores.iter().zip(&sizes) {
            for local in 0..n {
                drained += store.drain_into(local, &mut buf);
                buf.clear();
            }
        }
        drain.push(ratio(t.elapsed().as_nanos() as f64, drained as f64));
    }
    p.insert_ns_per_msg = median(&insert);
    p.drain_ns_per_msg = median(&drain);

    let cap = EngineConfig::default().buffer_cap;
    let workers = layout.num_workers() as usize;
    let mut stage_flush = Vec::new();
    for _ in 0..REPEATS {
        let mut staging = StagingBuffers::new(workers, combiner.is_some());
        let outbound = OutboundBuffers::new(workers);
        let mut staged_msgs = 0u64;
        let t = Instant::now();
        for u in graph.vertices() {
            let from = pm.worker_of(u).index();
            for &to in graph.out_neighbors(u) {
                let to_worker = pm.worker_of(to).index();
                if to_worker == from {
                    continue;
                }
                staged_msgs += 1;
                let (_, staged) = staging.stage(to_worker, (to, u, msg.clone()), combiner);
                if staged >= cap {
                    black_box(outbound.push_batch(
                        from,
                        to_worker,
                        staging.take_run(to_worker),
                        cap,
                    ));
                }
            }
        }
        for from in 0..workers {
            for to in 0..workers {
                black_box(outbound.push_batch(from, to, staging.take_run(to), cap));
                black_box(outbound.take(from, to));
            }
        }
        stage_flush.push(ratio(t.elapsed().as_nanos() as f64, staged_msgs as f64));
    }
    p.stage_flush_ns_per_msg = median(&stage_flush);
}

fn build_technique(
    technique: TechniqueKind,
    graph: &Graph,
    pm: &Arc<PartitionMap>,
) -> Arc<dyn Synchronizer> {
    let metrics = Arc::new(Metrics::new());
    match technique {
        TechniqueKind::DualToken => Arc::new(DualLayerToken::new(Arc::clone(pm), metrics)),
        TechniqueKind::VertexLock => Arc::new(VertexLock::new(graph, pm, metrics)),
        TechniqueKind::PartitionLock => Arc::new(PartitionLock::new(pm, metrics)),
        other => unreachable!("no workload runs {other:?}"),
    }
}

/// The units worker `w` acquires in one superstep, in the engine's order.
fn units_of(sync: &dyn Synchronizer, pm: &PartitionMap, w: u32) -> Vec<u32> {
    let layout = pm.layout();
    let parts = layout.partitions_of_worker(sg_graph::WorkerId::new(w));
    match sync.granularity() {
        LockGranularity::Partition => parts.map(|part| part.raw()).collect(),
        LockGranularity::Vertex | LockGranularity::None => parts
            .flat_map(|part| pm.vertices_in(part).iter().map(|v| v.raw()))
            .collect(),
    }
}

/// One superstep's worth of the technique's per-unit calls for the units
/// in `units`: acquire/release for the locking techniques, the
/// `vertex_allowed` gate for the token techniques.
fn drive_units(sync: &dyn Synchronizer, superstep: u64, units: &[u32]) {
    match sync.granularity() {
        LockGranularity::None => {
            for &u in units {
                black_box(sync.vertex_allowed(superstep, VertexId::new(u)));
            }
        }
        LockGranularity::Partition | LockGranularity::Vertex => {
            for &u in units {
                black_box(sync.acquire_unit(u, &NoopTransport));
                sync.release_unit(u, 0, &NoopTransport);
            }
        }
    }
}

/// Supersteps each sync probe drives: the first pass moves every fork off
/// its initial placement, later ones find them where the last pass left
/// them, as a run's later supersteps do.
const SYNC_PASSES: u64 = 2;

fn sync(technique: TechniqueKind, graph: &Graph, pm: &Arc<PartitionMap>, p: &mut Probes) {
    let t = Instant::now();
    let sync = build_technique(technique, graph, pm);
    p.sync_build_s = t.elapsed().as_secs_f64();
    let all_units = |sync: &dyn Synchronizer, pm: &PartitionMap| -> Vec<Vec<u32>> {
        (0..pm.layout().num_workers())
            .map(|w| units_of(sync, pm, w))
            .collect()
    };
    let per_worker = all_units(sync.as_ref(), pm);
    let units: u64 = per_worker.iter().map(|u| u.len() as u64).sum();
    let calls = (units * SYNC_PASSES) as f64;

    let t = Instant::now();
    for s in 0..SYNC_PASSES {
        for worker_units in &per_worker {
            drive_units(sync.as_ref(), s, worker_units);
        }
    }
    p.acquire_release_ns_per_unit = ratio(t.elapsed().as_nanos() as f64, calls);

    // Contended: one thread per worker drives its own units on a fresh
    // table, both at once, as two workers' compute threads do. The process
    // is pinned to one vCPU, so the two share it and the wall time is their
    // CPU time; per unit it compares with the line above.
    let sync = build_technique(technique, graph, pm);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for worker_units in &per_worker {
            let sync = sync.as_ref();
            scope.spawn(move || {
                for s in 0..SYNC_PASSES {
                    drive_units(sync, s, worker_units);
                }
            });
        }
    });
    p.contended_ns_per_unit = ratio(t.elapsed().as_nanos() as f64, calls);
}

fn store<V: Clone + Send + Sync + 'static>(graph: &Arc<Graph>, value: V, p: &mut Probes) {
    let n = graph.num_vertices() as usize;
    let write_all = |store: &VertexStore<V>| {
        for v in 0..n {
            let txn = store.begin();
            store.install(v, value.clone(), txn.xid);
            black_box(store.commit(txn));
        }
    };
    let bootstrapped = || {
        let store = VertexStore::new(n);
        for v in 0..n {
            store.install_bootstrap(v, value.clone());
        }
        store
    };
    // What a store holds between barriers: the bootstrap version and one
    // committed version per vertex, before GC.
    let (store, mib) = live_mib_of(|| {
        let store = bootstrapped();
        write_all(&store);
        store
    });
    p.store_mib = mib;
    let t = Instant::now();
    let freed = store.gc();
    p.gc_ns_per_version = ratio(t.elapsed().as_nanos() as f64, freed as f64);
    p.commit_ns_per_txn = time_ns(|| write_all(&store)) / n as f64;
    store.gc();

    p.read_latest_ns = time_ns(|| {
        for v in 0..n {
            black_box(store.read_latest(v));
        }
    }) / n as f64;
    p.read_at_ns = time_ns(|| {
        let snap = store.open_snapshot();
        for v in 0..n {
            black_box(store.read_at(v, &snap));
        }
        store.release_snapshot(snap);
    }) / n as f64;
    const OPENS: usize = 10_000;
    p.snapshot_open_ns = time_ns(|| {
        for _ in 0..OPENS {
            store.release_snapshot(black_box(store.open_snapshot()));
        }
    }) / OPENS as f64;
    // k-hop reads allocate a visited set of |V| each, so sample them.
    let reader = GraphReader::new(Arc::new(store), Arc::clone(graph));
    let stride = (n / 512).max(1);
    let mut returned = 0usize;
    let t = Instant::now();
    for v in (0..n).step_by(stride) {
        returned += black_box(reader.khop(VertexId::new(v as u32), 1)).len();
    }
    p.khop1_ns_per_vertex = ratio(t.elapsed().as_nanos() as f64, returned as f64);
}

fn serial(graph: &Arc<Graph>, p: &mut Probes) {
    // Two executions per vertex, as a colouring run has: one that sends to
    // every neighbour and one that sends nothing.
    let record = |rec: &Recorder| {
        for v in graph.vertices() {
            let guard = rec.begin(v);
            for &to in graph.out_neighbors(v) {
                rec.on_send(v, to);
                rec.on_visible(v, to);
            }
            rec.end(guard);
        }
        for v in graph.vertices() {
            rec.end(rec.begin(v));
        }
    };
    let txns = 2.0 * f64::from(graph.num_vertices());
    let t = Instant::now();
    let (rec, mib) = live_mib_of(|| {
        let rec = Arc::new(Recorder::new(Arc::clone(graph)));
        record(&rec);
        rec
    });
    p.record_ns_per_txn = t.elapsed().as_nanos() as f64 / txns;
    p.history_mib = mib;

    let t = Instant::now();
    let mut auditor = StreamingAuditor::new(Arc::clone(&rec));
    black_box(auditor.drain());
    black_box(auditor.finish());
    p.audit_drain_ns_per_txn = t.elapsed().as_nanos() as f64 / txns;

    let history = rec.history();
    let t = Instant::now();
    black_box(history.summarize(graph));
    p.check_ns_per_txn = t.elapsed().as_nanos() as f64 / txns;
}

/// Wire v5 batch codec on the data plane's unit of work: a 512-message
/// batch of 8-byte payloads (a PageRank residual).
fn wire(p: &mut Probes) {
    const BATCH: u32 = 512;
    const BATCHES: u32 = 2_000;
    let msgs = f64::from(BATCH * BATCHES);
    let mut frame = Vec::new();
    p.encode_ns_per_msg = time_ns(|| {
        for seq in 0..BATCHES {
            let mut batch = MsgBatch::new();
            for i in 0..BATCH {
                batch.push(i, seq, &f64::from(i).to_le_bytes());
            }
            sg_net::wire::encode_frame_into(
                u64::from(seq),
                0,
                &Message::BatchFlush { batch },
                &mut frame,
            );
            black_box(&frame);
        }
    }) / msgs;
    // `frame` holds the last encoded batch; the payload starts after the
    // 4-byte length prefix.
    let payload = &frame[4..];
    let mut scratch = Vec::new();
    p.decode_ns_per_msg = time_ns(|| {
        for _ in 0..BATCHES {
            let header = sg_net::wire::peek_header(payload).expect("frame header");
            assert!(header.is_batch());
            let view: BatchView<'_> =
                sg_net::wire::batch_view(payload, &mut scratch).expect("batch body");
            for (to, from, bytes) in view.iter() {
                let value = f64::from_le_bytes(bytes.try_into().expect("8-byte payload"));
                black_box((to, from, value));
            }
        }
    }) / msgs;
}

/// The discrete-event simulator on a smoke-sized input of this workload:
/// events per wall second, and whether two runs walk the same events.
fn sim(w: &Workload, rmat_seed: u64, pseed: u64, p: &mut Probes) {
    let graph = generate(&smoke(*w), rmat_seed, &mut Spans::new(false)).graph;
    let config = EngineConfig {
        workers: w.workers,
        partitions_per_worker: Some(w.partitions_per_worker),
        threads_per_worker: 1,
        technique: w.technique,
        partition_seed: pseed,
        ..EngineConfig::default()
    };
    let opts = sg_sim::SimOptions::default();
    let simulate = || {
        let t = Instant::now();
        let (digest, events) = match w.algo {
            Algo::PageRank => {
                let r = sg_sim::simulate(
                    Arc::clone(&graph),
                    DeltaPageRank::new(PR_THRESHOLD),
                    Some(Box::new(DeltaPageRank::combiner())),
                    &config,
                    &opts,
                )
                .expect("simulated run");
                (r.digest, r.events)
            }
            Algo::Coloring => {
                let r = sg_sim::simulate(Arc::clone(&graph), GreedyColoring, None, &config, &opts)
                    .expect("simulated run");
                (r.digest, r.events)
            }
        };
        (digest, events, t.elapsed().as_secs_f64())
    };
    let (d1, events, s1) = simulate();
    let (d2, _, s2) = simulate();
    p.sim_events_per_s = ratio(events as f64, s1.min(s2));
    p.sim_replay_identical = f64::from(u8::from(d1 == d2));
}

/// The critical-path profiler's attribution of a traced run of this
/// workload at 1/16 of its size, as shares of the makespan. The profiler
/// walks every event and takes 20 to 100 s on a full-size trace, which no
/// run has; the makespan it attributes is virtual time on the engine host.
fn critical_path(w: &Workload, rmat_seed: u64, pseed: u64, spans: &mut Spans, p: &mut Probes) {
    let small = Workload {
        scale: w.scale.saturating_sub(4).max(8),
        edges: (w.edges / 16).max(2_000),
        ..*w
    };
    let graph = generate(&small, rmat_seed, spans).graph;
    let reference = run::reference(&small, &graph);
    let traced = Variant {
        obs: Obs::Trace,
        keep_all_events: true,
        ..Variant::base(&small)
    };
    let out = run::run(&small, &traced, &graph, pseed, &reference, spans);
    let Some((trace, makespan_ns)) = out
        .obs
        .as_ref()
        .and_then(|r| r.trace.as_ref().map(|t| (t, r.makespan_ns)))
    else {
        return;
    };
    let attribution = analyze_buffer(trace, makespan_ns).attribution;
    p.critical_path = Category::ALL.map(|c| attribution.percent(c) / 100.0);
}
