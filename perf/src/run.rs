//! One measured job: build the input, run one configuration of a workload
//! on it, and check the output. Untraced and traced runs share this code,
//! so what the probes decompose is what the end-to-end metrics time.

use crate::catalog::{Algo, Host, Workload};
use crate::spans::Spans;
use sg_algos::{validate, DeltaPageRank, GreedyColoring};
use sg_engine::{Engine, EngineConfig, Outcome, TechniqueKind, VertexProgram};
use sg_graph::{gen, Graph, SplitMix64};
use sg_metrics::{MetricsSnapshot, ObsConfig, ObsReport, TelemetrySnapshot};
use sg_net::{ClusterConfig, ClusterOutcome};
use sg_serial::HistorySummary;
use sg_store::StoreStats;
use std::sync::Arc;

/// PageRank residual threshold (the paper's value for its smaller graphs).
pub const PR_THRESHOLD: f64 = 0.01;
/// Remote staging capacity, the engine's default, used on both hosts.
const BUFFER_CAP: usize = 512;

/// Trace ring slots per worker. The default ring is what a user who turns
/// tracing on gets; the critical-path profiler needs every event of the
/// run, and vertex locking records up to three per edge.
fn trace_capacity(w: &Workload, v: &Variant) -> usize {
    if v.keep_all_events {
        (4 * w.edges as usize).next_power_of_two()
    } else {
        ObsConfig::default().trace_capacity
    }
}

/// The R-MAT seed and the partitioner seed, both derived from `--seed`.
/// They do not depend on the workload, so `pagerank-plock-net` gets
/// `pagerank-plock-engine`'s exact input.
pub fn seeds(seed: u64) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed);
    (rng.next_u64(), rng.next_u64())
}

/// Which observability planes a run switches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obs {
    Off,
    Telemetry,
    Trace,
    Full,
}

/// One configuration of a workload: the workload itself, or a differential
/// variant of it that a traced run compares against.
#[derive(Clone, Copy, Debug)]
pub struct Variant {
    pub host: Host,
    pub workers: u32,
    pub partitions_per_worker: u32,
    pub technique: TechniqueKind,
    pub obs: Obs,
    pub history: bool,
    pub audit: bool,
    /// Size the trace rings so that no event of the run is overwritten.
    pub keep_all_events: bool,
}

impl Variant {
    /// The workload as the untraced run executes it: one compute thread
    /// per worker (at most `nproc` on the reference host), every plane off.
    pub fn base(w: &Workload) -> Self {
        Self {
            host: w.host,
            workers: w.workers,
            partitions_per_worker: w.partitions_per_worker,
            technique: w.technique,
            obs: Obs::Off,
            history: w.audited,
            audit: w.audited,
            keep_all_events: false,
        }
    }
}

/// The generated input of one cycle.
pub struct Input {
    pub graph: Arc<Graph>,
    pub generate_s: f64,
    pub symmetrize_s: f64,
}

/// `gen::rmat`, then `Graph::to_undirected` for the colouring workloads.
pub fn generate(w: &Workload, rmat_seed: u64, spans: &mut Spans) -> Input {
    let (directed, generate_s) = spans.time("sg-graph.generate", |_| {
        gen::rmat(w.scale, w.edges, gen::datasets::SKEW, rmat_seed)
    });
    let (graph, symmetrize_s) = match w.algo {
        Algo::PageRank => (directed, 0.0),
        Algo::Coloring => spans.time("sg-graph.symmetrize", |_| directed.to_undirected()),
    };
    Input {
        graph: Arc::new(graph),
        generate_s,
        symmetrize_s,
    }
}

/// What the output is checked against; computed once per process, outside
/// every timed region.
pub enum Reference {
    PageRank(Vec<f64>),
    Coloring,
}

pub fn reference(w: &Workload, graph: &Graph) -> Reference {
    match w.algo {
        Algo::PageRank => Reference::PageRank(validate::pagerank_reference(graph, 1e-9, 500)),
        Algo::Coloring => Reference::Coloring,
    }
}

/// Delta PageRank only ever drops residual mass below its threshold, so a
/// correct run never exceeds the fixed point and falls short of it by a
/// bounded share. Measured at threshold 0.01 on R-MAT scale 10 to 16: worst
/// vertex 14 % short, 8.7 % of total mass short. A run cut short or a lost
/// batch lands far outside these limits.
fn pagerank_ok(values: &[f64], want: &[f64]) -> bool {
    if values.len() != want.len() {
        return false;
    }
    let (mut short, mut total) = (0.0f64, 0.0f64);
    for (got, want) in values.iter().zip(want) {
        if !got.is_finite() || *got > want + 1e-6 || (want - got) / want > 0.25 {
            return false;
        }
        short += want - got;
        total += want;
    }
    short / total <= 0.15
}

fn coloring_ok(graph: &Graph, colors: &[u32]) -> bool {
    validate::all_colored(colors) && validate::coloring_conflicts(graph, colors) == 0
}

/// Everything one run of a variant reports.
pub struct RunOut {
    /// `Engine::new` wall seconds (0 on the net host, which has no build).
    pub build_s: f64,
    /// `Engine::run` / `run_cluster` wall seconds, plus `verify_s`.
    pub run_s: f64,
    /// Post-hoc `History::summarize` wall seconds (audited runs only).
    pub verify_s: f64,
    pub supersteps: u64,
    pub counts: MetricsSnapshot,
    pub store: Option<StoreStats>,
    pub telemetry: Option<TelemetrySnapshot>,
    /// The run's trace, kept only for a variant with `keep_all_events` (the
    /// critical-path probe); every other traced run drops its rings.
    pub obs: Option<ObsReport>,
    pub txns: u64,
    /// `ClusterOutcome::makespan_ns` in seconds (net host only).
    pub net_makespan_s: f64,
    /// CPU seconds (user + system) and system seconds alone that the
    /// process spent during `run_s`.
    pub cpu_s: f64,
    pub sys_s: f64,
    /// Converged, and the output passed its check. Variants that run
    /// without a serializable technique skip the colouring check: they are
    /// expected to colour improperly.
    pub correct: bool,
}

fn obs_config(w: &Workload, v: &Variant) -> ObsConfig {
    ObsConfig {
        trace: matches!(v.obs, Obs::Trace | Obs::Full),
        trace_capacity: trace_capacity(w, v),
        telemetry: matches!(v.obs, Obs::Telemetry | Obs::Full),
        audit: v.audit,
        ..ObsConfig::default()
    }
}

fn engine_config(w: &Workload, v: &Variant, partition_seed: u64) -> EngineConfig {
    EngineConfig {
        workers: v.workers,
        partitions_per_worker: Some(v.partitions_per_worker),
        threads_per_worker: 1,
        technique: v.technique,
        buffer_cap: BUFFER_CAP,
        partition_seed,
        record_history: v.history,
        obs: obs_config(w, v),
        ..EngineConfig::default()
    }
}

/// Post-hoc Theorem 1 check of a recorded history against the live verdict.
fn verify<V>(graph: &Graph, out: &Outcome<V>, audit: bool, spans: &mut Spans) -> (f64, u64, bool) {
    let Some(history) = &out.history else {
        return (0.0, 0, true);
    };
    let (post, verify_s): (HistorySummary, f64) =
        spans.time("sg-serial.summarize", |_| history.summarize(graph));
    let live_agrees = !audit || out.audit == Some(post);
    (
        verify_s,
        post.transactions as u64,
        post.one_copy_serializable && live_agrees,
    )
}

/// Build an engine with `build`, run it, check its values with `check` and
/// its history with the post-hoc checker.
fn drive_engine<P: VertexProgram>(
    graph: &Graph,
    v: &Variant,
    build: impl FnOnce() -> Engine<P>,
    check: impl FnOnce(&[P::Value]) -> bool,
    spans: &mut Spans,
) -> RunOut {
    let (engine, build_s) = spans.time("sg-engine.new", |_| build());
    let store = Arc::clone(engine.vertex_store());
    let cpu = CpuClock::start();
    let (mut out, engine_s) = spans.time("sg-engine.run", |_| engine.run());
    let (verify_s, txns, history_ok) = verify(graph, &out, v.audit, spans);
    let (cpu_s, sys_s) = cpu.elapsed();
    // An unsynchronised variant is expected to fail the 1SR check.
    let history_ok = history_ok || !v.technique.serializable();
    RunOut {
        build_s,
        run_s: engine_s + verify_s,
        verify_s,
        supersteps: out.supersteps,
        counts: out.metrics,
        store: Some(store.stats()),
        telemetry: out.telemetry.take(),
        obs: out.obs.take().filter(|_| v.keep_all_events),
        txns,
        net_makespan_s: 0.0,
        cpu_s,
        sys_s,
        correct: out.converged && check(&out.values) && history_ok,
    }
}

fn run_engine(
    w: &Workload,
    v: &Variant,
    graph: &Arc<Graph>,
    pseed: u64,
    r: &Reference,
    spans: &mut Spans,
) -> RunOut {
    let cfg = engine_config(w, v, pseed);
    match w.algo {
        Algo::PageRank => drive_engine(
            graph,
            v,
            || {
                Engine::new(Arc::clone(graph), DeltaPageRank::new(PR_THRESHOLD), cfg)
                    .expect("valid engine configuration")
                    .with_combiner(Box::new(DeltaPageRank::combiner()))
            },
            |values| matches!(r, Reference::PageRank(want) if pagerank_ok(values, want)),
            spans,
        ),
        Algo::Coloring => drive_engine(
            graph,
            v,
            || {
                Engine::new(Arc::clone(graph), GreedyColoring, cfg)
                    .expect("valid engine configuration")
            },
            |colors| !v.technique.serializable() || coloring_ok(graph, colors),
            spans,
        ),
    }
}

/// The configuration `Runner::networked(NetworkOptions::default())` builds
/// (2 ranks as threads, loopback TCP, no history), with the partitioner
/// seed taken from `--seed` instead of the runner's constant.
fn cluster_config(w: &Workload, v: &Variant, partition_seed: u64) -> ClusterConfig {
    let workload = match w.algo {
        Algo::PageRank => sg_net::Workload::Pagerank(PR_THRESHOLD),
        Algo::Coloring => sg_net::Workload::Coloring,
    };
    let mut cfg = ClusterConfig::new(v.workers, v.technique, workload);
    cfg.partitions_per_worker = v.partitions_per_worker;
    cfg.max_supersteps = EngineConfig::default().max_supersteps;
    cfg.buffer_cap = BUFFER_CAP as u64;
    cfg.partition_seed = partition_seed;
    cfg.record_history = v.history;
    cfg.trace_capacity = match v.obs {
        Obs::Trace | Obs::Full => trace_capacity(w, v) as u64,
        Obs::Off | Obs::Telemetry => 0,
    };
    cfg
}

fn run_net(
    w: &Workload,
    v: &Variant,
    graph: &Arc<Graph>,
    pseed: u64,
    r: &Reference,
    spans: &mut Spans,
) -> RunOut {
    let cfg = cluster_config(w, v, pseed);
    let cpu = CpuClock::start();
    let (out, run_s): (ClusterOutcome, f64) = spans.time("sg-net.run_cluster", |_| {
        sg_net::run_cluster(graph, &cfg).expect("cluster run")
    });
    let (cpu_s, sys_s) = cpu.elapsed();
    let values_ok = match r {
        Reference::PageRank(want) => pagerank_ok(&out.typed_values::<f64>(), want),
        Reference::Coloring => {
            !v.technique.serializable() || coloring_ok(graph, &out.typed_values::<u32>())
        }
    };
    let obs = v.keep_all_events.then(|| ObsReport {
        per_superstep: Vec::new(),
        per_worker: Vec::new(),
        trace: Some(Arc::new(sg_metrics::TraceBuffer::from_events(
            &out.trace_events,
        ))),
        totals: out.metrics,
        makespan_ns: out.makespan_ns,
        stalled: false,
    });
    RunOut {
        build_s: 0.0,
        run_s,
        verify_s: 0.0,
        supersteps: out.supersteps,
        counts: out.metrics,
        store: None,
        telemetry: out.telemetry,
        obs,
        txns: 0,
        net_makespan_s: out.makespan_ns as f64 / 1e9,
        cpu_s,
        sys_s,
        correct: out.converged && values_ok,
    }
}

/// Run one variant of `w` on `graph`.
pub fn run(
    w: &Workload,
    v: &Variant,
    graph: &Arc<Graph>,
    pseed: u64,
    r: &Reference,
    spans: &mut Spans,
) -> RunOut {
    match v.host {
        Host::Engine => run_engine(w, v, graph, pseed, r, spans),
        Host::Net => run_net(w, v, graph, pseed, r, spans),
    }
}

/// Process CPU time from `/proc/self/stat`, all threads, in the kernel's
/// 10 ms ticks (`USER_HZ` is 100 on every Linux port).
struct CpuClock {
    user_ticks: u64,
    sys_ticks: u64,
}

impl CpuClock {
    fn start() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // Fields 14 and 15; the command name (field 2) may hold spaces, so
        // count from the parenthesis that closes it.
        let after_comm = stat.rsplit(')').next().expect("stat has a command field");
        let mut fields = after_comm.split_whitespace().skip(11);
        let mut tick = || -> u64 {
            fields
                .next()
                .and_then(|f| f.parse().ok())
                .expect("utime and stime in /proc/self/stat")
        };
        Self {
            user_ticks: tick(),
            sys_ticks: tick(),
        }
    }

    /// `(user + system, system)` seconds since `start`.
    fn elapsed(&self) -> (f64, f64) {
        let now = CpuClock::start();
        let user = (now.user_ticks - self.user_ticks) as f64 / 100.0;
        let sys = (now.sys_ticks - self.sys_ticks) as f64 / 100.0;
        (user + sys, sys)
    }
}
