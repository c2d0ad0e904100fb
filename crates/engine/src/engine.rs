//! The engine runtime: master loop, persistent worker threads, message
//! routing, and the wall-clock stamps of its observability planes.

use crate::aggregators::AggregatorSet;
use crate::barrier::{self, BarrierHost, BarrierParts};
use crate::config::{build_synchronizer, EngineConfig, EngineError};
use crate::cycle::{Cycle, Env, Executed, Host};
use crate::program::{Combiner, VertexProgram};
use crate::state::{gather_values, PartitionData};
use crate::store::{InboxPair, OutboundBuffers, Routed, StagingBuffers};
use sg_graph::{Graph, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{
    Counter, GaugeHandle, Metrics, MetricsSnapshot, ObsConfig, ObsReport, SuperstepRow, Telemetry,
    TelemetrySnapshot, Trace, TraceEventKind, Watchdog, WorkerTimers,
};
use sg_serial::{AuditSidecar, History, HistorySummary, Recorder};
use sg_store::{GraphReader, VertexStore};
use sg_sync::{ForkSnapshot, SyncTransport, Synchronizer};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Result of an engine run.
#[derive(Clone, Debug)]
pub struct Outcome<V> {
    /// Final vertex values, indexed by vertex id.
    pub values: Vec<V>,
    /// Supersteps executed.
    pub supersteps: u64,
    /// `true` if the computation halted (all vertices inactive, no pending
    /// messages, or the master hook requested a halt); `false` if the
    /// `max_supersteps` cap was hit — e.g. the paper's non-terminating
    /// BSP/AP graph-coloring executions.
    pub converged: bool,
    /// Counter snapshot for the run.
    pub metrics: MetricsSnapshot,
    /// The run's length on its host's clock, nanoseconds: virtual time on
    /// `sg-sim`, wall time on this engine and on the `sg-net` cluster.
    pub makespan_ns: u64,
    /// Host wall-clock time of the run.
    pub wall_time: Duration,
    /// Recorded transaction history, when `record_history` was set.
    pub history: Option<History>,
    /// Final verdict of the in-process streaming auditor, when
    /// `ObsConfig::audit` ran one alongside the recorder. By construction
    /// equal to the post-hoc Theorem 1 check over `history`.
    pub audit: Option<HistorySummary>,
    /// Observability report (traces, per-superstep deltas, per-worker
    /// breakdowns), when any of [`ObsConfig`] was enabled.
    pub obs: Option<ObsReport>,
    /// Final snapshot of the live telemetry registry, when
    /// `ObsConfig::telemetry` was set (technique wait/hold/pass histograms
    /// plus the engine's progress gauges).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// A configured, ready-to-run engine.
///
/// ```
/// use sg_engine::{Engine, EngineConfig, Model, TechniqueKind};
/// use sg_engine::{Context, VertexProgram};
/// use sg_graph::{gen, Graph, VertexId};
/// use std::sync::Arc;
///
/// /// Flood a token: every vertex adopts the max id it has heard of.
/// struct MaxId;
/// impl VertexProgram for MaxId {
///     type Value = u32;
///     type Message = u32;
///     fn init(&self, v: VertexId, _: &Graph) -> u32 { v.raw() }
///     fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
///         let best = msgs.iter().copied().max().unwrap_or(0).max(*ctx.value());
///         if best > *ctx.value() || ctx.superstep() == 0 {
///             ctx.set_value(best);
///             ctx.send_to_all(best);
///         }
///         ctx.vote_to_halt();
///     }
/// }
///
/// let g = Arc::new(gen::ring(8));
/// let outcome = Engine::new(g, MaxId, EngineConfig::default()).unwrap().run();
/// assert!(outcome.converged);
/// assert!(outcome.values.iter().all(|&v| v == 7));
/// ```
pub struct Engine<P: VertexProgram> {
    graph: Arc<Graph>,
    program: P,
    config: EngineConfig,
    pm: Arc<PartitionMap>,
    combiner: Option<Box<dyn Combiner<P::Message>>>,
    /// Every partition's vertex state, at the program's init values.
    partitions: Vec<PartitionData<P::Value>>,
    /// The MVCC vertex store every execution writes through. Created (and
    /// bootstrapped from `partitions`) at build time so [`Engine::reader`]
    /// handles can be cloned off before the run starts and serve queries
    /// while it executes.
    store: Arc<VertexStore<P::Value>>,
}

impl<P: VertexProgram> Engine<P> {
    /// Build an engine. Partitions the graph (hash partitioning by default,
    /// Section 7.1) and validates the configuration.
    pub fn new(graph: Arc<Graph>, program: P, config: EngineConfig) -> Result<Self, EngineError> {
        config.validate()?;
        let pm = config.partition_map(&graph)?;
        let init = |p| PartitionData::init(&program, &graph, &pm, p);
        let partitions: Vec<_> = pm.layout().partitions().map(init).collect();
        let store = Arc::new(VertexStore::new(graph.num_vertices() as usize));
        for d in &partitions {
            for (v, value) in d.vertices.iter().zip(&d.values) {
                store.install_bootstrap(v.index(), value.clone());
            }
        }
        Ok(Self {
            graph,
            program,
            config,
            pm: Arc::new(pm),
            combiner: None,
            partitions,
            store,
        })
    }

    /// Attach a message combiner.
    pub fn with_combiner(mut self, combiner: Box<dyn Combiner<P::Message>>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// The partition map in effect.
    pub fn partition_map(&self) -> &Arc<PartitionMap> {
        &self.pm
    }

    /// A serving handle over the engine's MVCC vertex store. Clone it off
    /// before calling [`Engine::run`] and query from any thread — point
    /// lookups, k-hop neighborhoods, and consistent whole-graph snapshots
    /// all resolve against committed versions only, so a reader never
    /// observes a half-finished vertex execution no matter which
    /// synchronization technique is driving the run.
    pub fn reader(&self) -> GraphReader<P::Value> {
        GraphReader::new(Arc::clone(&self.store), Arc::clone(&self.graph))
    }

    /// The underlying MVCC store (bootstrapped with init values).
    pub fn vertex_store(&self) -> &Arc<VertexStore<P::Value>> {
        &self.store
    }

    /// Everything a run's threads share, ready to execute superstep 0,
    /// and the configuration it was built from.
    fn into_core(self) -> (Arc<Core<P>>, EngineConfig) {
        let metrics = Arc::new(Metrics::new());
        // The registry must be attached before the technique is built: the
        // techniques grab their histogram handles at construction.
        if self.config.obs.telemetry {
            metrics.attach_telemetry(Arc::new(Telemetry::new()));
        }
        let sync = build_synchronizer(
            self.config.technique,
            &self.graph,
            &self.pm,
            Arc::clone(&metrics),
        );

        let threads_per_worker = self.config.lanes_per_worker(&*sync);

        let recorder = self
            .config
            .record_history
            .then(|| Arc::new(Recorder::new(Arc::clone(&self.graph))));

        // When a recorder runs, the MVCC commit rides on the recorded
        // transaction's close: the execution's commit installs the new version
        // and parks its xid here; the recorder's end() fires this hook, which
        // flips the version visible. Without a recorder the execution
        // commits directly and nothing is parked.
        let pending_xid = recorder.as_ref().map(|r| {
            let pending: Arc<Vec<AtomicU64>> = Arc::new(
                (0..self.graph.num_vertices())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            );
            let store = Arc::clone(&self.store);
            let parked = Arc::clone(&pending);
            r.set_commit_hook(Box::new(move |v: VertexId| {
                let xid = parked[v.index()].swap(0, Ordering::SeqCst);
                if xid != 0 {
                    store.commit_xid(xid);
                }
            }));
            pending
        });

        let layout = *self.pm.layout();
        let workers = layout.num_workers() as usize;

        let partitions = self.partitions.into_iter().map(Mutex::new).collect();
        let inboxes = InboxPair::new(&self.pm, self.config.model, recorder.clone(), None);

        let mut aggs = AggregatorSet::new();
        self.program.register_aggregators(&mut aggs);

        let obs = &self.config.obs;
        let tpw = threads_per_worker as usize;
        let has_combiner = self.combiner.is_some();
        let core = Arc::new(Core {
            graph: Arc::clone(&self.graph),
            program: self.program,
            pm: Arc::clone(&self.pm),
            partitions,
            inboxes,
            outbound: OutboundBuffers::new(workers),
            staging: (0..workers * tpw)
                .map(|_| Mutex::new(StagingBuffers::new(workers, has_combiner)))
                .collect(),
            threads_per_worker: tpw,
            combiner: self.combiner,
            aggs,
            metrics: Arc::clone(&metrics),
            trace: obs.trace_handle(workers),
            timers: obs.breakdown.then(|| WorkerTimers::new(workers)),
            timed: obs.enabled(),
            done: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            in_flight: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            owed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            superstep: AtomicU64::new(0),
            sync,
            recorder,
            vstore: Arc::clone(&self.store),
            pending_xid,
            buffer_cap: self.config.buffer_cap.max(1),
            claim: (0..workers).map(|_| AtomicU32::new(0)).collect(),
            stop: AtomicBool::new(false),
            barrierless: self.config.barrierless,
            idle: Mutex::new(0),
            idle_cv: std::sync::Condvar::new(),
            total_threads: workers * tpw,
            rounds: AtomicU64::new(0),
            round_capped: AtomicBool::new(false),
            origin: Instant::now(),
        });
        (core, self.config)
    }

    /// Execute to completion.
    pub fn run(self) -> Outcome<P::Value> {
        let (core, config) = self.into_core();
        let (metrics, recorder, obs) = (&core.metrics, &core.recorder, &config.obs);
        let (workers, tpw) = (core.owed.len(), core.threads_per_worker);
        let watchdog = spawn_watchdog(obs, &core);

        // The in-process audit plane: a streaming checker over the live
        // recorder, on a sidecar thread.
        let audit = recorder
            .clone()
            .filter(|_| obs.audit)
            .map(AuditSidecar::start);

        let wall_start = Instant::now();
        if config.barrierless {
            let ended = run_barrierless(&core, config.max_supersteps);
            return core.outcome(ended, Vec::new(), wall_start, audit, watchdog);
        }

        let total_threads = core.total_threads;
        let start_barrier = Arc::new(Barrier::new(total_threads + 1));
        let end_barrier = Arc::new(Barrier::new(total_threads + 1));

        let mut handles = Vec::with_capacity(total_threads);
        for w in 0..workers {
            for slot in 0..tpw {
                let core = Arc::clone(&core);
                let start_barrier = Arc::clone(&start_barrier);
                let end_barrier = Arc::clone(&end_barrier);
                handles.push(std::thread::spawn(move || {
                    worker_loop(&core, w, slot, &start_barrier, &end_barrier);
                }));
            }
        }

        let mut converged = false;
        let mut executed = 0u64;
        let mut logical = 0u64;
        let max_supersteps = config.max_supersteps;
        let mut rows: Vec<SuperstepRow> = Vec::new();
        let mut prev_snap = obs.breakdown.then(|| metrics.snapshot());
        // Section 6.4: checkpoints are in-memory snapshots taken at
        // barriers (quiescent: no executing vertices, no in-flight
        // messages, forks and tokens at rest). A superstep-0 checkpoint is
        // always available once fault tolerance is enabled.
        let ckpt_enabled = config.checkpoint_every.is_some() || config.fail_at_superstep.is_some();
        let mut latest_ckpt = ckpt_enabled.then(|| core.take_checkpoint(0));
        let mut fail_at = config.fail_at_superstep;
        let gauges = EngineGauges::from(metrics);
        loop {
            let s = logical;
            core.superstep.store(s, Ordering::SeqCst);
            for c in &core.claim {
                c.store(0, Ordering::SeqCst);
            }
            start_barrier.wait();
            // ... workers execute superstep s ...
            end_barrier.wait();
            core.stamp_barrier(s);

            // Sample staging depth before the master flush drains it: this
            // is how much each superstep left sitting in sender-side
            // staging for the barrier to move.
            if let Some(g) = &gauges {
                let staged: usize = core
                    .staging
                    .iter()
                    .map(|st| st.lock().unwrap().total_staged())
                    .sum();
                g.staging.set(staged as u64);
            }

            barrier::close(&mut core.as_ref(), s);
            // Reclaim versions below the oldest open snapshot; the barrier
            // is off the compute hot path, so GC never contends with a
            // vertex execution for its stripe.
            core.vstore.gc();
            if let Some(g) = &gauges {
                g.store.set(&core.vstore);
            }
            if let Some(prev) = &mut prev_snap {
                let snap = metrics.snapshot();
                rows.push(SuperstepRow {
                    superstep: s,
                    delta: snap - *prev,
                    makespan_ns: core.now_ns(),
                });
                *prev = snap;
            }

            executed += 1;

            // Failure injection: lose a machine after this barrier; every
            // worker rolls back to the latest checkpoint (Section 3.3:
            // "failure recovery requires all machines to rollback").
            if fail_at == Some(s) {
                fail_at = None;
                core.metrics.inc(Counter::Recoveries);
                let ckpt = latest_ckpt.as_ref().expect("checkpointing enabled");
                logical = core.restore_checkpoint(ckpt);
                if executed >= max_supersteps {
                    break;
                }
                continue;
            }
            logical += 1;

            if let Some(every) = config.checkpoint_every {
                if logical.is_multiple_of(every) {
                    latest_ckpt = Some(core.take_checkpoint(logical));
                    core.metrics.inc(Counter::Checkpoints);
                }
            }

            let (pending, active) = (core.inboxes.queued(), core.active());
            if let Some(g) = &gauges {
                g.superstep.set(s);
                g.active.set(active as u64);
                g.pending.set(pending as u64);
            }
            if barrier::halts(&core.program, s, &core.aggs, active, pending) {
                converged = true;
                break;
            }
            if executed >= max_supersteps {
                break;
            }
        }

        core.stop.store(true, Ordering::SeqCst);
        start_barrier.wait();
        for h in handles {
            h.join().expect("worker thread panicked");
        }
        core.outcome((executed, converged), rows, wall_start, audit, watchdog)
    }
}

/// The master loop's live progress gauges, present when
/// `ObsConfig::telemetry` attached a registry. All are set once per
/// superstep at the barrier — never on the compute hot path.
struct EngineGauges {
    superstep: GaugeHandle,
    active: GaugeHandle,
    pending: GaugeHandle,
    staging: GaugeHandle,
    store: StoreGauges,
}

impl EngineGauges {
    fn from(metrics: &Metrics) -> Option<Self> {
        metrics.telemetry().map(|t| EngineGauges {
            superstep: t.gauge("sg_engine_superstep", &[]),
            active: t.gauge("sg_engine_active_vertices", &[]),
            pending: t.gauge("sg_engine_pending_messages", &[]),
            staging: t.gauge("sg_engine_staging_depth", &[]),
            store: StoreGauges::new(t),
        })
    }
}

/// The MVCC store's gauges, shared by the thread engine (set once per
/// barrier) and the cluster worker (once per maintenance tick). Each
/// [`StoreGauges::set`] takes every stripe lock once, so it never runs
/// per execution.
pub struct StoreGauges {
    commits: GaugeHandle,
    live: GaugeHandle,
    chained: GaugeHandle,
    open: GaugeHandle,
    horizon_lag: GaugeHandle,
}

impl StoreGauges {
    /// Register the `sg_store_*` gauges in `t`.
    pub fn new(t: &Telemetry) -> Self {
        Self {
            commits: t.gauge("sg_store_commits", &[]),
            live: t.gauge("sg_store_live_versions", &[]),
            chained: t.gauge("sg_store_chained_versions", &[]),
            open: t.gauge("sg_store_open_snapshots", &[]),
            horizon_lag: t.gauge("sg_store_gc_horizon_lag", &[]),
        }
    }

    /// Read `store`'s counters into the gauges.
    pub fn set<V>(&self, store: &VertexStore<V>) {
        let st = store.stats();
        self.commits.set(store.tst().commits());
        self.live.set(st.live_versions);
        self.chained.set(st.chained_versions);
        self.open.set(st.open_snapshots);
        self.horizon_lag.set(st.gc_horizon_lag);
    }
}

/// Start the stall watchdog when configured: progress = the sum of every
/// counter (any vertex execution, message, batch, transfer or barrier
/// moves it); a stall dumps the tail of the trace rings to stderr.
fn spawn_watchdog<P: VertexProgram>(obs: &ObsConfig, core: &Arc<Core<P>>) -> Option<Watchdog> {
    let stall_ms = obs.watchdog_stall_ms?;
    let progress_core = Arc::clone(core);
    let progress = move || {
        let snap = progress_core.metrics.snapshot();
        Counter::ALL.iter().map(|&c| snap.get(c)).sum()
    };
    let dump = core.trace.buffer().cloned();
    let on_stall = move || {
        eprintln!("serigraph watchdog: no progress for {stall_ms}ms — suspected stall/deadlock");
        match &dump {
            Some(buf) => eprintln!("{}", buf.dump_last(16)),
            None => eprintln!("(enable tracing for a per-worker event dump)"),
        }
    };
    Some(Watchdog::spawn(
        Duration::from_millis((stall_ms / 4).clamp(1, 250)),
        Duration::from_millis(stall_ms),
        progress,
        on_stall,
    ))
}

/// Shared runtime state: everything worker threads and the master touch.
struct Core<P: VertexProgram> {
    graph: Arc<Graph>,
    program: P,
    pm: Arc<PartitionMap>,
    partitions: Vec<Mutex<PartitionData<P::Value>>>,
    inboxes: InboxPair<P::Message>,
    outbound: OutboundBuffers<P::Message>,
    /// Per-compute-thread outbound staging (sender-side combining), indexed
    /// `worker * threads_per_worker + slot`. Behind mutexes (not true
    /// thread-locals) because a C1 write-all flush can arrive on another
    /// thread — a fork request must drain the holder's staged messages
    /// before the fork moves; the lock is uncontended on the hot path.
    staging: Vec<Mutex<StagingBuffers<P::Message>>>,
    threads_per_worker: usize,
    combiner: Option<Box<dyn Combiner<P::Message>>>,
    aggs: AggregatorSet,
    metrics: Arc<Metrics>,
    /// Event tracing handle (disabled = one branch per would-be event).
    trace: Trace,
    /// Per-worker busy/blocked/idle accumulators, when breakdown is on.
    /// A worker's busy and blocked are the mean over its lanes
    /// ([`Core::settle`]); its idle is its wait for the straggler
    /// ([`Core::stamp_barrier`]).
    timers: Option<WorkerTimers>,
    /// Does the run read the clock — is tracing or breakdown on? When not,
    /// no execution, wait, transfer or batch reads it.
    timed: bool,
    /// Per worker, the clock when its last lane finished the superstep
    /// (0 when the run is not timed).
    done: Vec<AtomicU64>,
    /// Per-worker count of shipments in progress: messages taken out of a
    /// staging run or outbound buffer but not yet inserted into their
    /// destination stores. The C1 write-all flush must wait for these —
    /// a fork transfer that only drains the (empty) containers while a
    /// round flush is mid-ship would hand the fork over before the
    /// holder's writes are visible, and a greedy-coloring neighbor would
    /// pick against a stale store.
    in_flight: Vec<AtomicU64>,
    /// Per worker, what it owes the others: remote messages that a closed
    /// (or mid-transaction cap-flushing) transaction of the worker has
    /// staged and that are not yet inserted into their destination stores.
    /// A sender raises it while it still holds the staging lock — before
    /// any flusher can see the messages — and the shipper lowers it only
    /// after the batch is inserted, so it is never below the truth: reading
    /// 0 means every write the worker's finished transactions made is
    /// applied, and the C1 write-all has nothing to do. 0 at every barrier.
    owed: Vec<AtomicU64>,
    superstep: AtomicU64,
    sync: Arc<dyn Synchronizer>,
    recorder: Option<Arc<Recorder>>,
    /// The engine's MVCC vertex store: every vertex execution installs its
    /// new value as a version here (`vstore` — the message containers above
    /// keep the `store`/`stores` names).
    vstore: Arc<VertexStore<P::Value>>,
    /// Per-vertex xid of the version installed by the execution currently
    /// closing (0 = none), present exactly when `recorder` is. The
    /// recorder's commit hook swaps it out and commits; see `Engine::run`.
    pending_xid: Option<Arc<Vec<AtomicU64>>>,
    buffer_cap: usize,
    /// Per worker: next partition offset to claim this superstep.
    claim: Vec<AtomicU32>,
    stop: AtomicBool,
    /// Barrierless mode ([20]-style logical supersteps) — see
    /// `EngineConfig::barrierless`.
    barrierless: bool,
    /// Parked threads (barrierless termination detection).
    idle: Mutex<usize>,
    idle_cv: std::sync::Condvar,
    total_threads: usize,
    /// Max local rounds any thread has completed (barrierless reporting).
    rounds: AtomicU64,
    /// A thread hit the local-round cap (barrierless non-convergence).
    round_capped: AtomicBool,
    /// The run's clock starts here: every stamp is nanoseconds since.
    origin: Instant,
}

/// The engine is the technique's transport: fork/token hops trigger the C1
/// write-all flush (Section 4.1's "flush all pending remote replica
/// updates ... before handing over the shared resource").
impl<P: VertexProgram> SyncTransport for Core<P> {
    /// C1 write-all flush (in one address space it is applied by the time
    /// `flush_outbound` returns), traced as the cross-worker edge (`peer` =
    /// receiving worker, `arg` = protocol unit for forks) lasting as long
    /// as the flush. A fork that moves with nothing to flush is a flag
    /// flip under the fork table's lock: the technique counts it, and the
    /// trace skips it, as a clock read would cost more than the hop (a
    /// vertex-lock run moves millions).
    fn transfer(&self, from: WorkerId, to: WorkerId, unit: Option<u32>) {
        // Every transaction the resource guarded raised `owed` before the
        // technique let the resource go, so 0 here means all their writes
        // are applied at their receivers — most forks move with nothing
        // owed, and pay one load for it.
        let owed = self.owed[from.index()].load(Ordering::SeqCst) != 0;
        let traced = self.trace.is_enabled() && (owed || unit.is_none());
        let start = traced.then(|| self.now_ns());
        if owed {
            self.flush_outbound(from.index());
        }
        if let Some(start) = start {
            let kind = match unit {
                None => TraceEventKind::RingPass,
                Some(_) => TraceEventKind::ForkTransfer,
            };
            self.trace.record_peer(
                from.raw(),
                self.superstep.load(Ordering::Relaxed),
                kind,
                start,
                self.now_ns() - start,
                unit.map_or(0, u64::from),
                to.raw(),
            );
        }
    }

    /// A request token guards no data and moves under the fork table's
    /// lock: the technique counts it, and the trace skips it, like a fork
    /// that moves with nothing to flush.
    fn request(&self, _from: WorkerId, _to: WorkerId) {}
}

/// The master hosts the barrier between supersteps, with every compute
/// thread parked; the engine is the technique's transport there too, so a
/// fork or token moves with its C1 write-all applied inside the call.
impl<P: VertexProgram> BarrierHost for &Core<P> {
    type Message = P::Message;

    fn write_all(&mut self, w: usize) {
        self.flush_outbound(w);
        debug_assert_eq!(
            self.owed[w].load(Ordering::SeqCst),
            0,
            "worker {w} still owes messages after the barrier's write-all"
        );
    }

    fn parts(&self) -> BarrierParts<'_, P::Message> {
        BarrierParts {
            sync: &*self.sync,
            transport: *self,
            inboxes: &self.inboxes,
            pm: &self.pm,
            aggregators: &self.aggs,
            metrics: &self.metrics,
        }
    }
}

/// Execute in barrierless mode: every thread loops over its statically
/// assigned partitions in *logical* per-worker supersteps, parking when its
/// worker has no work. Global termination = all threads parked, no pending
/// messages, no active vertex. This is the execution regime of the paper's
/// reference [20] ("Giraph Unchained"); the serializability formalism of
/// Section 3.2 covers it explicitly ("per-worker logical supersteps"), and
/// the locking techniques keep enforcing C1/C2 because the write-all flush
/// rides on fork handovers, not barriers.
fn run_barrierless<P: VertexProgram>(core: &Arc<Core<P>>, max_rounds: u64) -> (u64, bool) {
    assert!(
        core.aggs.is_empty(),
        "aggregators need global barriers; not available in barrierless mode"
    );
    let layout = *core.pm.layout();
    let workers = layout.num_workers() as usize;
    let tpw = core.total_threads / workers;

    let mut handles = Vec::with_capacity(core.total_threads);
    for w in 0..workers {
        for slot in 0..tpw {
            let core = Arc::clone(core);
            handles.push(std::thread::spawn(move || {
                barrierless_loop(&core, w, slot, tpw, max_rounds);
            }));
        }
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    let rounds = core.rounds.load(Ordering::SeqCst);
    core.metrics.add(Counter::Supersteps, rounds);
    (rounds, !core.round_capped.load(Ordering::SeqCst))
}

fn barrierless_loop<P: VertexProgram>(
    core: &Core<P>,
    worker: usize,
    slot: usize,
    tpw: usize,
    max_rounds: u64,
) {
    let layout = *core.pm.layout();
    let ppw = layout.partitions_per_worker();
    // Static partition ownership: no claim contention, no local barrier.
    let my_parts: Vec<PartitionId> = (0..ppw)
        .filter(|k| *k as usize % tpw == slot)
        .map(|k| PartitionId::new(worker as u32 * ppw + k))
        .collect();
    let mut lane = core.lane(worker, slot);
    let mut round = 0u64;
    loop {
        if core.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut did_work = false;
        for &p in &my_parts {
            if core.partition_has_work(p.index()) {
                did_work = true;
                core.execute_partition(p, round, &mut lane);
            }
        }
        // Per-round flush of this thread's own staging plus the worker's
        // shared buffers (siblings flush their own, so the hot loop never
        // contends on another thread's staging lock); the C1 write-all
        // (`flush_outbound`) still drains them all when a fork moves.
        core.ship_from(worker, std::slice::from_ref(lane.host.staging));
        core.settle(worker, &mut lane);
        if did_work {
            round += 1;
            core.rounds.fetch_max(round, Ordering::SeqCst);
            // No barriers to hang GC on: one designated thread reclaims
            // old versions every 32 local rounds.
            if worker == 0 && slot == 0 && round.is_multiple_of(32) {
                core.vstore.gc();
            }
            if round >= max_rounds {
                core.round_capped.store(true, Ordering::SeqCst);
                core.finish_barrierless();
                return;
            }
        } else if !core.park(&my_parts) {
            return; // stopped while parked
        }
    }
}

impl<P: VertexProgram> Core<P> {
    fn finish_barrierless(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.idle_cv.notify_all();
    }

    /// Park until this thread's partitions have work again; returns `false`
    /// when the engine stopped. The *last* thread to park performs the
    /// global quiescence check. No other thread is executing then, and each
    /// flushed its staging and its worker's buffers before it parked, so
    /// every message there is sits in a store.
    fn park(&self, my_parts: &[PartitionId]) -> bool {
        let mut idle = self.idle.lock().unwrap();
        *idle += 1;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                *idle -= 1;
                return false;
            }
            if *idle == self.total_threads && self.inboxes.queued() == 0 && self.active() == 0 {
                *idle -= 1;
                self.finish_barrierless();
                return false;
            }
            if my_parts.iter().any(|&p| self.partition_has_work(p.index())) {
                *idle -= 1;
                return true;
            }
            // Timed wait: deliveries notify, but a bounded recheck makes
            // the protocol robust to any missed wakeup.
            idle = self
                .idle_cv
                .wait_timeout(idle, std::time::Duration::from_millis(20))
                .unwrap()
                .0;
        }
    }
}

/// An in-memory Section 6.4 checkpoint: engine state plus the
/// synchronization technique's fork/token placement.
struct EngineCheckpoint<V, M> {
    superstep: u64,
    partitions: Vec<(Vec<V>, Vec<bool>)>,
    stores: Vec<Vec<Vec<(VertexId, M)>>>,
    aggregators: Vec<(String, f64, f64)>,
    forks: Option<ForkSnapshot>,
}

fn worker_loop<P: VertexProgram>(
    core: &Core<P>,
    worker: usize,
    slot: usize,
    start_barrier: &Barrier,
    end_barrier: &Barrier,
) {
    let layout = *core.pm.layout();
    let ppw = layout.partitions_per_worker();
    let mut lane = core.lane(worker, slot);
    loop {
        start_barrier.wait();
        if core.stop.load(Ordering::SeqCst) {
            return;
        }
        let s = core.superstep.load(Ordering::SeqCst);
        loop {
            let k = core.claim[worker].fetch_add(1, Ordering::SeqCst);
            if k >= ppw {
                break;
            }
            let p = PartitionId::new(worker as u32 * ppw + k);
            core.execute_partition(p, s, &mut lane);
        }
        core.settle(worker, &mut lane);
        end_barrier.wait();
    }
}

/// What one compute thread keeps for the whole run: the shared cycle and
/// its scratch, and the host its partition walks run with.
struct Lane<'a, P: VertexProgram> {
    cycle: Cycle<'a, P>,
    host: PartitionHost<'a, P>,
}

/// The thread engine's side of a lane's partition walks: it blocks for a
/// unit, times each step when the run is timed, and adds the MVCC
/// write-through and the lane's remote path.
struct PartitionHost<'a, P: VertexProgram> {
    core: &'a Core<P>,
    worker: usize,
    superstep: u64,
    staging: &'a Mutex<StagingBuffers<P::Message>>,
    /// The staging lock, held from a vertex's first remote send to its
    /// close: taken once per vertex, not once per message, and never
    /// across a synchronizer call.
    staged: Option<MutexGuard<'a, StagingBuffers<P::Message>>>,
    /// Envelopes the open transaction has staged and not yet added to
    /// `Core::owed`.
    unowed: u64,
    /// A timed walk is tiled: each acquire or execution lasts from the
    /// end of the step before it (or the walk's start) to its own end, so
    /// it costs one clock read. `mark` is where the next step starts.
    mark: u64,
    /// Nanoseconds the walks spent executing vertices (`busy`) and
    /// acquiring units (`blocked`) since [`Core::settle`] last took them.
    busy: u64,
    blocked: u64,
}

impl<P: VertexProgram> PartitionHost<'_, P> {
    /// Count what the open transaction staged as owed by its worker. Called
    /// with the staging lock still held, so no flusher has seen it yet.
    fn owe(&mut self) {
        if self.unowed > 0 {
            self.core.owed[self.worker].fetch_add(self.unowed, Ordering::SeqCst);
            self.unowed = 0;
        }
    }

    /// End a timed step now: trace it as `kind` from `mark`, move `mark`
    /// here, and return its length.
    fn lap(&mut self, kind: TraceEventKind, arg: u64) -> u64 {
        let (start, w) = (self.mark, self.worker as u32);
        self.mark = self.core.now_ns();
        let len = self.mark - start;
        self.core
            .trace
            .record(w, self.superstep, kind, start, len, arg);
        len
    }
}

impl<P: VertexProgram> Host<P> for PartitionHost<'_, P> {
    /// Block in the technique until the unit is held.
    fn acquire(&mut self, unit: u32) -> ControlFlow<()> {
        self.core.sync.acquire_unit(unit, self.core);
        if self.core.timed {
            self.blocked += self.lap(TraceEventKind::LockWait, unit.into());
        }
        ControlFlow::Continue(())
    }

    fn release(&mut self, unit: u32) -> ControlFlow<()> {
        self.core.sync.release_unit(unit, 0, self.core);
        ControlFlow::Continue(())
    }

    /// What the execution delivered locally may be work for a parked
    /// sibling; a `MessageSend` marker follows its span if it sent.
    fn execute(&mut self, run: impl FnOnce(&mut Self, u64) -> Executed) -> ControlFlow<()> {
        let start = self.mark;
        let ran = run(self, start);
        if ran.local > 0 {
            self.core.wake_parked();
        }
        if self.core.timed {
            self.busy += self.lap(TraceEventKind::VertexExecute, ran.consumed);
            let (w, kind) = (self.worker as u32, TraceEventKind::MessageSend);
            if ran.sent > 0 {
                (self.core.trace).record(w, self.superstep, kind, self.mark, 0, ran.sent);
            }
        }
        ControlFlow::Continue(())
    }

    /// Write-through: install the execution's result as a new MVCC
    /// version. With a recorder the commit is deferred to the recorded
    /// transaction's close (its end fires the hook); without one the
    /// execution commits here. Either way readers only ever see committed
    /// versions — never the in-place working value a neighbor's compute
    /// might be mutating.
    fn publish(&mut self, data: &PartitionData<P::Value>, local: usize) {
        let (core, v) = (self.core, data.vertices[local]);
        let txn = core.vstore.begin();
        core.vstore
            .install(v.index(), data.values[local].clone(), txn.xid);
        if let Some(pending) = &core.pending_xid {
            pending[v.index()].store(txn.xid, Ordering::SeqCst);
        } else {
            core.vstore.commit(txn);
        }
    }

    /// Into the executing thread's staging buffer — where the combiner
    /// merges sender-side — batching into the shared buffer caches when
    /// the destination's staged run reaches the buffer cap.
    fn send_remote(&mut self, to_worker: u32, from: VertexId, to: VertexId, msg: P::Message) {
        let (core, staging, to_worker) = (self.core, self.staging, to_worker as usize);
        let st = self.staged.get_or_insert_with(|| staging.lock().unwrap());
        let (folded, staged) = st.stage(to_worker, (to, from, msg), core.combiner.as_deref());
        match folded {
            None => self.unowed += 1,
            Some(absorbed) => {
                core.metrics.inc(Counter::SenderCombines);
                core.inboxes.readable(absorbed, to);
            }
        }
        if staged >= core.buffer_cap {
            // The run is about to ship, this transaction's part with it.
            self.owe();
            let st = self.staged.as_mut().expect("locked above");
            core.flush_staged(self.worker, to_worker, st);
        }
    }

    /// Once per transaction, not per message: what it staged becomes owed,
    /// then the staging lock goes and flushers may find it.
    fn close(&mut self, _v: VertexId) {
        self.owe();
        self.staged = None;
    }
}

impl<P: VertexProgram> Core<P> {
    fn lane(&self, worker: usize, slot: usize) -> Lane<'_, P> {
        Lane {
            cycle: Cycle::new(Env {
                program: &self.program,
                graph: &self.graph,
                pm: &self.pm,
                sync: &*self.sync,
                inboxes: &self.inboxes,
                combiner: self.combiner.as_deref(),
                aggregators: &self.aggs,
                trace: &self.trace,
                recorder: self.recorder.as_deref(),
                metrics: &self.metrics,
            }),
            host: PartitionHost {
                core: self,
                worker,
                superstep: 0,
                staging: &self.staging[worker * self.threads_per_worker + slot],
                staged: None,
                unowed: 0,
                mark: 0,
                busy: 0,
                blocked: 0,
            },
        }
    }

    /// Nanoseconds since the run started.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// [`Core::now_ns`] when the run is timed, else 0 without a clock read.
    fn stamp(&self) -> u64 {
        if self.timed {
            self.now_ns()
        } else {
            0
        }
    }

    /// Close a lane's stint — a superstep, or a barrierless round: what it
    /// was busy and blocked joins its worker's breakdown as its share of
    /// the mean over the worker's lanes, and the worker's finish time moves
    /// up to now.
    fn settle(&self, worker: usize, lane: &mut Lane<'_, P>) {
        if let Some(t) = &self.timers {
            let lanes = self.threads_per_worker as u64;
            t.add_busy(worker, std::mem::take(&mut lane.host.busy) / lanes);
            t.add_blocked(worker, std::mem::take(&mut lane.host.blocked) / lanes);
        }
        self.done[worker].fetch_max(self.stamp(), Ordering::Relaxed);
    }

    /// Superstep `s`'s barrier on the run's clock: each worker waited from
    /// its last lane's finish to the straggler's. Traced as `BarrierWait`,
    /// charged as the worker's idle time and skew.
    fn stamp_barrier(&self, s: u64) {
        let done = self.done.iter().map(|d| d.load(Ordering::Relaxed));
        let frontier = done.clone().max().unwrap_or(0);
        for (w, at) in done.enumerate() {
            let wait = frontier - at;
            let kind = TraceEventKind::BarrierWait;
            self.trace.record(w as u32, s, kind, at, wait, 0);
            if let Some(t) = &self.timers {
                t.add_idle(w, wait);
                t.set_skew(w, wait);
            }
        }
    }

    /// Vertices that have not voted to halt, across every partition.
    fn active(&self) -> usize {
        let parts = self.partitions.iter();
        parts.map(|p| p.lock().unwrap().active_count()).sum()
    }

    /// Any active vertex or queued message in partition `p`?
    fn partition_has_work(&self, p: usize) -> bool {
        let store = &self.inboxes.current()[p];
        self.partitions[p].lock().unwrap().has_work(store)
    }

    /// Walk partition `p` on `lane` in round `s`, the partition's state
    /// locked for the walk: Giraph's "vertices in each partition are
    /// executed sequentially". The host blocks, so the walk never pauses.
    fn execute_partition(&self, p: PartitionId, s: u64, lane: &mut Lane<'_, P>) {
        let mut data = self.partitions[p.index()].lock().unwrap();
        let Lane { cycle, host } = lane;
        (host.superstep, host.mark) = (s, self.stamp());
        let (mut walk, w) = (cycle.walk(&data), host.worker as u32);
        let flow = cycle.run_partition(host, &mut walk, &mut data, s, w);
        debug_assert!(flow.is_continue());
    }

    /// How both thread regimes end — after `supersteps`, `converged` or
    /// capped: stop the side threads, assemble the run's outcome.
    fn outcome(
        &self,
        (supersteps, converged): (u64, bool),
        rows: Vec<SuperstepRow>,
        wall_start: Instant,
        audit: Option<AuditSidecar>,
        watchdog: Option<Watchdog>,
    ) -> Outcome<P::Value> {
        let makespan_ns = self.now_ns();
        let audit = audit.map(AuditSidecar::finish);
        let stalled = watchdog.map(Watchdog::stop).unwrap_or(false);
        let parts = self.partitions.iter().map(|p| p.lock().unwrap());
        Outcome {
            values: gather_values(parts, self.graph.num_vertices() as usize),
            supersteps,
            converged,
            metrics: self.metrics.snapshot(),
            makespan_ns,
            wall_time: wall_start.elapsed(),
            history: self.recorder.as_ref().map(|r| r.take_history()),
            audit,
            obs: self.obs_report(rows, stalled, makespan_ns),
            telemetry: self.metrics.telemetry().map(|t| t.snapshot()),
        }
    }

    /// Barrierless: wake parked threads, new work may have arrived for
    /// them. Once per transaction or shipped batch, not per message.
    fn wake_parked(&self) {
        if self.barrierless {
            self.idle_cv.notify_all();
        }
    }

    /// Drain one destination's staged run into the shared outbound buffer
    /// (a single lock acquisition for the whole run) and ship any batches
    /// that reached the cap on the way in.
    fn flush_staged(&self, from: usize, to: usize, st: &mut StagingBuffers<P::Message>) {
        // Raise the in-flight fence before the run leaves the staging
        // buffer: from `take_run` until the shipped batches land in their
        // destination stores the messages are in neither container, and a
        // concurrent C1 flush must not conclude the worker is drained.
        self.in_flight[from].fetch_add(1, Ordering::SeqCst);
        let run = st.take_run(to);
        if run.is_empty() {
            self.in_flight[from].fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.metrics.inc(Counter::StagingFlushes);
        for batch in self.outbound.push_batch(from, to, run, self.buffer_cap) {
            self.ship_batch(from, to, batch);
        }
        self.in_flight[from].fetch_sub(1, Ordering::SeqCst);
    }

    /// Ship whatever the (from, to) buffer currently holds as one batch.
    fn flush_buffer(&self, from: usize, to: usize) {
        self.in_flight[from].fetch_add(1, Ordering::SeqCst);
        self.ship_batch(from, to, self.outbound.take(from, to));
        self.in_flight[from].fetch_sub(1, Ordering::SeqCst);
    }

    /// Ship one batch: count it, deliver it into the destination stores,
    /// trace it as lasting as long as the delivery.
    fn ship_batch(&self, from: usize, to: usize, routed: Vec<Routed<P::Message>>) {
        if routed.is_empty() {
            return;
        }
        let n = routed.len() as u64;
        self.metrics.inc(Counter::RemoteBatches);
        let start = self.trace.is_enabled().then(|| self.now_ns());
        let slots: Vec<_> = routed.iter().map(|r| self.pm.slot_of(r.0)).collect();
        let receiver = WorkerId::new(to as u32);
        self.inboxes
            .deliver_batch(receiver, &slots, &routed, self.combiner.as_deref());
        if let Some(start) = start {
            self.trace.record_peer(
                from as u32,
                self.superstep.load(Ordering::Relaxed),
                TraceEventKind::BatchFlush,
                start,
                self.now_ns() - start,
                n,
                to as u32,
            );
        }
        self.wake_parked();
        let owed = self.owed[from].fetch_sub(n, Ordering::SeqCst);
        debug_assert!(owed >= n, "worker {from} shipped {n} messages, owed {owed}");
    }

    /// Write-all flush of everything leaving worker `from` (the C1 step):
    /// every compute thread's staging buffers drain into the shared
    /// outbound caches, then every (from, to) buffer ships. Runs on
    /// whatever thread the technique triggers it from — a fork request
    /// arriving cross-thread must still see the holder's staged messages
    /// flushed before the fork moves.
    fn flush_outbound(&self, from: usize) {
        let tpw = self.threads_per_worker;
        loop {
            self.ship_from(from, &self.staging[from * tpw..][..tpw]);
            // Draining the containers is not enough: a sibling thread's
            // round flush may have taken messages out before we looked and
            // not yet delivered them (and its partial batches re-land in
            // the buffer we just emptied). Wait out every concurrent
            // shipment and re-drain, so the fork handoff really is
            // write-all. Our own flush calls above balanced their fence
            // increments before returning, so a non-zero count here is
            // always another thread mid-ship.
            if self.in_flight[from].load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::yield_now();
        }
    }

    /// Ship what `staging` holds for other workers, then every buffer of
    /// worker `from`: one pass of [`Core::flush_outbound`], or with one
    /// thread's staging, a barrierless round flush.
    fn ship_from(&self, from: usize, staging: &[Mutex<StagingBuffers<P::Message>>]) {
        let others = (0..self.owed.len()).filter(|&to| to != from);
        for st in staging {
            let mut st = st.lock().unwrap();
            others
                .clone()
                .for_each(|to| self.flush_staged(from, to, &mut st));
        }
        others.for_each(|to| self.flush_buffer(from, to));
    }

    /// Assemble the run's observability report (or `None` when everything
    /// was off). `rows` are the master loop's per-superstep deltas.
    fn obs_report(
        &self,
        rows: Vec<SuperstepRow>,
        stalled: bool,
        makespan: u64,
    ) -> Option<ObsReport> {
        if !self.timed {
            return None;
        }
        Some(ObsReport {
            per_superstep: rows,
            per_worker: self
                .timers
                .as_ref()
                .map(|t| t.breakdown(makespan))
                .unwrap_or_default(),
            trace: self.trace.buffer().cloned(),
            totals: self.metrics.snapshot(),
            makespan_ns: makespan,
            stalled,
        })
    }

    /// Capture a Section 6.4 checkpoint at a quiescent barrier.
    fn take_checkpoint(&self, superstep: u64) -> EngineCheckpoint<P::Value, P::Message> {
        self.trace.record(
            0,
            superstep,
            TraceEventKind::Checkpoint,
            self.stamp(),
            0,
            superstep,
        );
        EngineCheckpoint {
            superstep,
            partitions: self
                .partitions
                .iter()
                .map(|p| {
                    let d = p.lock().unwrap();
                    (d.values.clone(), d.halted_snapshot())
                })
                .collect(),
            stores: self.inboxes.current().iter().map(|s| s.export()).collect(),
            aggregators: self.aggs.export(),
            forks: self.sync.checkpoint(),
        }
    }

    /// Roll every worker back to `ckpt`; returns the superstep to resume
    /// from. Staging buffers, outbound buffers, and BSP next-stores are all
    /// empty at any barrier (the master's write-all flush drains them), so
    /// only values, halt votes, current stores, aggregators, and the
    /// technique's fork placement need restoring.
    fn restore_checkpoint(&self, ckpt: &EngineCheckpoint<P::Value, P::Message>) -> u64 {
        self.trace.record(
            0,
            ckpt.superstep,
            TraceEventKind::Recovery,
            self.stamp(),
            0,
            ckpt.superstep,
        );
        // The rollback is itself one MVCC transaction: every restored value
        // becomes a fresh committed version, atomically. A serving reader's
        // open snapshot keeps seeing the pre-failure state; a snapshot
        // opened after the commit sees the whole checkpoint — never a
        // half-restored graph.
        let txn = self.vstore.begin();
        for (p, (values, halted)) in self.partitions.iter().zip(&ckpt.partitions) {
            let mut d = p.lock().unwrap();
            d.values.clone_from(values);
            d.restore_halted(halted.clone());
            for (i, &v) in d.vertices.iter().enumerate() {
                self.vstore.install(v.index(), values[i].clone(), txn.xid);
            }
        }
        self.vstore.commit(txn);
        for (store, snapshot) in self.inboxes.current().iter().zip(&ckpt.stores) {
            store.restore(snapshot.clone());
        }
        for owed in &self.owed {
            owed.store(0, Ordering::SeqCst);
        }
        self.aggs.import(&ckpt.aggregators);
        if let Some(forks) = &ckpt.forks {
            self.sync.restore(forks);
        }
        ckpt.superstep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Model, TechniqueKind};
    use sg_graph::gen;

    /// Counts supersteps: runs for `rounds` supersteps then halts.
    struct Rounds(u64);
    impl VertexProgram for Rounds {
        type Value = u64;
        type Message = ();
        fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut Context<'_, Self>, _m: &[()]) {
            *ctx.value_mut() += 1;
            if ctx.superstep() + 1 >= self.0 {
                ctx.vote_to_halt();
            }
        }
    }

    #[test]
    fn trivial_program_halts() {
        let g = Arc::new(gen::ring(10));
        let out = Engine::new(g, Rounds(3), EngineConfig::default())
            .unwrap()
            .run();
        assert!(out.converged);
        assert_eq!(out.supersteps, 3);
        assert!(out.values.iter().all(|&v| v == 3));
        assert_eq!(out.metrics.vertex_executions, 30);
    }

    /// Max-id flood used across the engine tests.
    struct MaxId;
    impl VertexProgram for MaxId {
        type Value = u32;
        type Message = u32;
        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v.raw()
        }
        fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
            let incoming = msgs.iter().copied().max().unwrap_or(0);
            let known = (*ctx.value()).max(incoming);
            if known > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(known);
                ctx.send_to_all(known);
            }
            ctx.vote_to_halt();
        }
    }

    fn run_maxid(model: Model, technique: TechniqueKind, workers: u32) -> Outcome<u32> {
        let g = Arc::new(gen::ring(24));
        let config = EngineConfig {
            workers,
            model,
            technique,
            threads_per_worker: 2,
            ..Default::default()
        };
        Engine::new(g, MaxId, config).unwrap().run()
    }

    #[test]
    fn maxid_bsp() {
        let out = run_maxid(Model::Bsp, TechniqueKind::None, 2);
        assert!(out.converged);
        assert!(out.values.iter().all(|&v| v == 23));
    }

    #[test]
    fn maxid_async() {
        let out = run_maxid(Model::Async, TechniqueKind::None, 2);
        assert!(out.converged);
        assert!(out.values.iter().all(|&v| v == 23));
    }

    #[test]
    fn maxid_all_techniques_agree() {
        for technique in [
            TechniqueKind::SingleToken,
            TechniqueKind::DualToken,
            TechniqueKind::VertexLock,
            TechniqueKind::PartitionLock,
            TechniqueKind::PartitionLockNoSkip,
        ] {
            let out = run_maxid(Model::Async, technique, 3);
            assert!(out.converged, "{technique:?} did not converge");
            assert!(
                out.values.iter().all(|&v| v == 23),
                "{technique:?} wrong result"
            );
        }
    }

    #[test]
    fn async_uses_fewer_or_equal_supersteps_than_bsp() {
        let bsp = run_maxid(Model::Bsp, TechniqueKind::None, 2);
        let ap = run_maxid(Model::Async, TechniqueKind::None, 2);
        assert!(
            ap.supersteps <= bsp.supersteps,
            "AP {} vs BSP {}",
            ap.supersteps,
            bsp.supersteps
        );
    }

    #[test]
    fn messages_counted_and_split_by_locality() {
        let out = run_maxid(Model::Bsp, TechniqueKind::None, 2);
        assert!(out.metrics.local_messages > 0);
        assert!(out.metrics.remote_messages > 0);
        assert!(out.metrics.remote_batches > 0);
    }

    #[test]
    fn single_worker_has_no_remote_traffic() {
        let out = run_maxid(Model::Async, TechniqueKind::None, 1);
        assert_eq!(out.metrics.remote_messages, 0);
        assert_eq!(out.metrics.remote_batches, 0);
        assert!(out.converged);
    }

    #[test]
    fn max_supersteps_cap_reports_non_convergence() {
        /// Never halts: keeps messaging forever.
        struct Forever;
        impl VertexProgram for Forever {
            type Value = ();
            type Message = u8;
            fn init(&self, _v: VertexId, _g: &Graph) {}
            fn compute(&self, ctx: &mut Context<'_, Self>, _m: &[u8]) {
                ctx.send_to_all(0);
            }
        }
        let g = Arc::new(gen::ring(4));
        let config = EngineConfig {
            max_supersteps: 5,
            ..Default::default()
        };
        let out = Engine::new(g, Forever, config).unwrap().run();
        assert!(!out.converged);
        assert_eq!(out.supersteps, 5);
    }

    #[test]
    fn telemetry_snapshot_present_when_enabled() {
        use sg_metrics::MetricValue;
        let g = Arc::new(gen::ring(24));
        let config = EngineConfig {
            workers: 2,
            model: Model::Async,
            technique: TechniqueKind::PartitionLock,
            obs: ObsConfig {
                telemetry: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = Engine::new(g, MaxId, config).unwrap().run();
        assert!(out.converged);
        let snap = out.telemetry.expect("telemetry requested");
        assert!(snap.get("sg_engine_superstep", &[]).is_some());
        assert!(snap.get("sg_engine_pending_messages", &[]).is_some());
        match snap.get(
            "sg_sync_acquire_wait_ns",
            &[("technique", "partition-lock")],
        ) {
            Some(MetricValue::Histogram(h)) => assert!(h.count > 0),
            other => panic!("technique wait histogram missing: {other:?}"),
        }
    }

    #[test]
    fn telemetry_absent_by_default() {
        let out = run_maxid(Model::Async, TechniqueKind::PartitionLock, 2);
        assert!(out.telemetry.is_none());
    }

    #[test]
    fn makespan_positive_with_default_costs() {
        let out = run_maxid(Model::Async, TechniqueKind::None, 2);
        assert!(out.makespan_ns > 0);
    }

    #[test]
    fn history_recording_round_trips() {
        let g = Arc::new(gen::ring(8));
        let config = EngineConfig {
            workers: 2,
            technique: TechniqueKind::PartitionLock,
            record_history: true,
            ..Default::default()
        };
        let gref = Arc::clone(&g);
        let out = Engine::new(g, MaxId, config).unwrap().run();
        let h = out.history.expect("history requested");
        assert!(h.len() as u64 >= out.metrics.vertex_executions);
        assert!(h.is_one_copy_serializable(&gref));
    }

    #[test]
    fn live_audit_agrees_with_post_hoc_check() {
        for barrierless in [false, true] {
            let g = Arc::new(gen::ring(8));
            let config = EngineConfig {
                workers: 2,
                model: Model::Async,
                technique: TechniqueKind::PartitionLock,
                record_history: true,
                barrierless,
                obs: ObsConfig {
                    audit: true,
                    ..Default::default()
                },
                ..Default::default()
            };
            let gref = Arc::clone(&g);
            let out = Engine::new(g, MaxId, config).unwrap().run();
            assert!(out.converged);
            let live = out.audit.expect("audit requested");
            let post = out.history.expect("history requested").summarize(&gref);
            assert_eq!(live, post, "barrierless={barrierless}");
            assert!(live.one_copy_serializable, "barrierless={barrierless}");
        }
    }

    #[test]
    fn audit_without_history_is_silently_absent() {
        let g = Arc::new(gen::ring(8));
        let config = EngineConfig {
            workers: 2,
            obs: ObsConfig {
                audit: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = Engine::new(g, MaxId, config).unwrap().run();
        assert!(out.audit.is_none());
        assert!(out.history.is_none());
    }

    /// The paper's C4 (v0 -> v1 -> v2 -> v3 -> v0) on two workers, W0 =
    /// {v0, v2} and W1 = {v1, v3}, so every edge crosses.
    fn c4_core(buffer_cap: usize) -> Arc<Core<MaxId>> {
        let config = EngineConfig {
            workers: 2,
            partitions_per_worker: Some(1),
            explicit_partitions: Some([0, 1, 0, 1].map(PartitionId::new).to_vec()),
            model: Model::Async,
            buffer_cap,
            ..Default::default()
        };
        let engine = Engine::new(Arc::new(gen::paper_c4()), MaxId, config).unwrap();
        engine.into_core().0
    }

    #[test]
    fn write_all_applies_what_is_owed_and_costs_nothing_when_nothing_is() {
        let core = c4_core(usize::MAX); // nothing ships on size
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        let owed = |w: usize| core.owed[w].load(Ordering::SeqCst);
        let flushes = || {
            let m = core.metrics.snapshot();
            (m.staging_flushes, m.remote_batches)
        };
        let start = core.take_checkpoint(0);

        // Worker 0 runs v0 and v2: one writes to v1, one to v3, both staged.
        core.execute_partition(PartitionId::new(0), 0, &mut core.lane(0, 0));
        assert_eq!((owed(0), owed(1)), (2, 0));
        assert_eq!(core.inboxes.current()[1].total(), 0, "nothing applied yet");

        // A fork guarding them moves to worker 1: applied on return.
        core.transfer(w0, w1, Some(0));
        assert_eq!(core.inboxes.current()[1].total(), 2);
        assert_eq!((owed(0), flushes()), (0, (1, 1)));

        // Nothing owed: the next fork moves without touching a buffer, and
        // worker 1, which never sent, never pays.
        core.transfer(w0, w1, Some(2));
        core.transfer(w1, w0, Some(1));
        assert_eq!(flushes(), (1, 1));
        assert_eq!(core.inboxes.current()[1].total(), 2);

        // Owed again, then a rollback: the count goes with the messages.
        core.execute_partition(PartitionId::new(1), 0, &mut core.lane(1, 0));
        assert!(owed(1) > 0);
        core.flush_outbound(1);
        assert_eq!(core.restore_checkpoint(&start), 0);
        assert_eq!((owed(0), owed(1)), (0, 0));
        assert_eq!(core.inboxes.current()[1].total(), 0);
    }

    #[test]
    fn a_transaction_that_ships_on_size_owes_before_it_ships() {
        // Each remote send ships from inside the open transaction; the
        // count must already cover it (`ship_batch` asserts so in debug
        // builds).
        let core = c4_core(1);
        core.execute_partition(PartitionId::new(0), 0, &mut core.lane(0, 0));
        assert_eq!(core.owed[0].load(Ordering::SeqCst), 0);
        assert_eq!(core.inboxes.current()[1].total(), 2);
    }

    #[test]
    fn a_rollback_brings_the_queue_total_back_with_the_queues() {
        // The halt test reads what the stores hold, so a checkpoint needs
        // no count of its own: restoring the queues restores the total.
        let core = c4_core(1); // every remote send ships at once
        core.execute_partition(PartitionId::new(0), 0, &mut core.lane(0, 0));
        // v1 and v3 each hold one; v0 holds v2's, sent after v0 ran.
        assert_eq!(core.inboxes.queued(), 3);
        let ckpt = core.take_checkpoint(1);
        // Worker 1 reads its two and, having learnt nothing new, stays quiet.
        core.execute_partition(PartitionId::new(1), 1, &mut core.lane(1, 0));
        assert_eq!(core.inboxes.queued(), 1);
        assert_eq!(core.restore_checkpoint(&ckpt), 1);
        assert_eq!(
            (core.inboxes.queued(), core.inboxes.current()[1].total()),
            (3, 2)
        );
        assert!(
            core.inboxes.current()[1].has_messages(0) && core.inboxes.current()[1].has_messages(1)
        );
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = Arc::new(Graph::from_edges(0, &[]));
        let out = Engine::new(g, MaxId, EngineConfig::default())
            .unwrap()
            .run();
        assert!(out.converged);
        assert!(out.values.is_empty());
    }

    #[test]
    fn explicit_partition_assignment_respected() {
        let g = Arc::new(gen::paper_c4());
        // Paper's Figures 2/3 layout: W1 = {v0, v2}, W2 = {v1, v3}.
        let config = EngineConfig {
            workers: 2,
            partitions_per_worker: Some(1),
            explicit_partitions: Some(vec![
                PartitionId::new(0),
                PartitionId::new(1),
                PartitionId::new(0),
                PartitionId::new(1),
            ]),
            ..Default::default()
        };
        let engine = Engine::new(g, MaxId, config).unwrap();
        let pm = engine.partition_map();
        assert_eq!(pm.worker_of(VertexId::new(0)), WorkerId::new(0));
        assert_eq!(pm.worker_of(VertexId::new(2)), WorkerId::new(0));
        assert_eq!(pm.worker_of(VertexId::new(1)), WorkerId::new(1));
        let out = engine.run();
        assert!(out.converged);
    }

    #[test]
    fn explicit_partition_length_mismatch_rejected() {
        let g = Arc::new(gen::ring(4));
        let config = EngineConfig {
            explicit_partitions: Some(vec![PartitionId::new(0)]),
            ..Default::default()
        };
        assert!(Engine::new(g, MaxId, config).is_err());
    }
}
