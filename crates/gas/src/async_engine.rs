//! Asynchronous GAS (GraphLab async): no supersteps, per-machine task
//! queues drained by fiber-style scheduler threads, per-phase vertex
//! locks, and an optional serializable mode using vertex-based distributed
//! locking over the full GAS (Sections 2.3, 4.3, 5.1).

use crate::program::GasProgram;
use sg_graph::rng::mix64;
use sg_graph::{Graph, VertexId, WorkerId};
use sg_metrics::{
    CostModel, Counter, EatOrder, Metrics, MetricsSnapshot, ObsConfig, ObsReport, SimClocks, Trace,
    TraceEventKind, Watchdog, WorkerTimers,
};
use sg_serial::{AuditSidecar, History, HistorySummary, Recorder};
use sg_sync::{SyncTransport, Synchronizer, VertexLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Configuration of the async GAS engine.
#[derive(Clone, Debug)]
pub struct GasConfig {
    /// Simulated machines (GraphLab workers).
    pub machines: u32,
    /// Scheduler threads per machine — GraphLab's fibers: "the large
    /// number of fibers ... ensures that CPU cores are kept busy even when
    /// some fibers are blocked on communication" (Section 5.1).
    pub fibers_per_machine: u32,
    /// Virtual cores per machine: the virtual-time divisor for compute.
    pub cores_per_machine: u32,
    /// Execute each vertex's whole GAS under vertex-grain Chandy–Misra
    /// locking (serializable mode). Without it, GAS phases of neighboring
    /// vertices interleave — not serializable (Section 2.3).
    pub serializable: bool,
    /// Livelock guard: abort (converged = false) after this many vertex
    /// executions.
    pub max_executions: u64,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Record a transaction history for the serializability checkers.
    pub record_history: bool,
    /// Testing aid: yield between GAS phases to widen race windows.
    pub interphase_yield: bool,
    /// Seed for the vertex -> machine hash.
    pub seed: u64,
    /// Observability: tracing, per-machine breakdowns, stall watchdog.
    pub obs: ObsConfig,
}

impl Default for GasConfig {
    fn default() -> Self {
        Self {
            machines: 2,
            fibers_per_machine: 4,
            cores_per_machine: 4,
            serializable: false,
            max_executions: 1_000_000,
            cost: CostModel::default(),
            record_history: false,
            interphase_yield: false,
            seed: 0x6A5,
            obs: ObsConfig::default(),
        }
    }
}

/// Result of an async GAS run.
#[derive(Clone, Debug)]
pub struct GasOutcome<V> {
    /// Final values by vertex id.
    pub values: Vec<V>,
    /// Vertex executions performed.
    pub executions: u64,
    /// `false` if the execution cap was hit (livelock guard).
    pub converged: bool,
    /// Counter snapshot.
    pub metrics: MetricsSnapshot,
    /// Simulated computation time (max machine clock).
    pub makespan_ns: u64,
    /// Host wall-clock time.
    pub wall_time: Duration,
    /// Recorded history, when requested.
    pub history: Option<History>,
    /// Final verdict of the in-process streaming auditor, when
    /// `ObsConfig::audit` ran one alongside the recorder. By construction
    /// equal to the post-hoc Theorem 1 check over `history`.
    pub audit: Option<HistorySummary>,
    /// Observability report, when any of [`ObsConfig`] was enabled
    /// (`per_superstep` is empty: async GAS has no supersteps).
    pub obs: Option<ObsReport>,
}

/// The asynchronous GAS engine.
pub struct AsyncGasEngine<P: GasProgram> {
    graph: Arc<Graph>,
    program: P,
    config: GasConfig,
}

struct MachineQueue {
    queue: Mutex<VecDeque<VertexId>>,
    cv: Condvar,
}

struct Core<P: GasProgram> {
    graph: Arc<Graph>,
    program: P,
    config: GasConfig,
    machine_of: Vec<u32>,
    /// Distinct remote machines hosting a neighbor (the mirror set under
    /// vertex-cut replication).
    mirrors: Vec<Vec<u32>>,
    values: Vec<RwLock<P::Value>>,
    queues: Vec<MachineQueue>,
    queued: Vec<AtomicBool>,
    /// A vertex currently inside `execute` on some fiber: a concurrent
    /// re-signal must requeue, never run the same vertex twice at once.
    running: Vec<AtomicBool>,
    outstanding: AtomicU64,
    executions: AtomicU64,
    stop: AtomicBool,
    live_failed: AtomicBool,
    /// Serializable mode's lock: every vertex a philosopher, this core its
    /// transport.
    lock: Option<VertexLock>,
    /// When each vertex last ate under `lock` (empty without it): when a
    /// granted vertex's forks arrived.
    eats: EatOrder,
    /// Buffered mirror-update counts per (from, to) machine pair
    /// (serializable mode batches them until a fork handover).
    pending_updates: Vec<Vec<AtomicU64>>,
    metrics: Arc<Metrics>,
    clocks: SimClocks,
    recorder: Option<Arc<Recorder>>,
    trace: Trace,
    timers: Option<WorkerTimers>,
}

impl<P: GasProgram> SyncTransport for Core<P> {
    /// Write-all: flush every buffered mirror update leaving `from` before
    /// the fork crosses machines (condition C1, Section 4.3). The fork's
    /// own network hop delays only the vertex that receives it — `execute`
    /// works out its arrival from eat order ([`EatOrder`]) — not whole
    /// machine clocks. Trace events carry the receiving machine as `peer`
    /// and the traveling fork's philosopher id as `arg`.
    fn transfer(&self, from: WorkerId, to: WorkerId, unit: Option<u32>) {
        let f = from.index();
        for dest in 0..self.pending_updates[f].len() {
            let n = self.pending_updates[f][dest].swap(0, Ordering::SeqCst);
            if n > 0 {
                self.metrics.inc(Counter::RemoteBatches);
                self.clocks.advance(f, self.config.cost.batch_overhead_ns);
                let ts = self.clocks.now(f) + self.config.cost.batch_cost(n);
                self.clocks.observe(dest, ts);
                if self.trace.is_enabled() {
                    self.trace.record_peer(
                        f as u32,
                        0,
                        TraceEventKind::BatchFlush,
                        self.clocks.now(f),
                        self.config.cost.batch_cost(n),
                        n,
                        dest as u32,
                    );
                }
            }
        }
        if self.trace.is_enabled() {
            self.trace.record_peer(
                f as u32,
                0,
                TraceEventKind::ForkTransfer,
                self.clocks.now(f),
                self.config.cost.network_latency_ns,
                unit.map_or(0, u64::from),
                to.index() as u32,
            );
        }
    }

    fn request(&self, from: WorkerId, to: WorkerId) {
        if self.trace.is_enabled() {
            self.trace.record_peer(
                from.index() as u32,
                0,
                TraceEventKind::RequestToken,
                self.clocks.now(from.index()),
                0,
                0,
                to.index() as u32,
            );
        }
    }
}

impl<P: GasProgram> AsyncGasEngine<P> {
    /// Build an engine.
    pub fn new(graph: Arc<Graph>, program: P, config: GasConfig) -> Self {
        assert!(config.machines > 0 && config.fibers_per_machine > 0);
        Self {
            graph,
            program,
            config,
        }
    }

    /// Run to quiescence or the execution cap.
    pub fn run(self) -> GasOutcome<P::Value> {
        let g = &self.graph;
        let machines = self.config.machines as usize;
        let machine_of: Vec<u32> = g
            .vertices()
            .map(|v| (mix64(u64::from(v.raw()) ^ self.config.seed) % machines as u64) as u32)
            .collect();
        let mirrors: Vec<Vec<u32>> = g
            .vertices()
            .map(|v| {
                let own = machine_of[v.index()];
                let mut ms: Vec<u32> = g
                    .neighbors(v)
                    .into_iter()
                    .map(|u| machine_of[u.index()])
                    .filter(|&m| m != own)
                    .collect();
                ms.sort_unstable();
                ms.dedup();
                ms
            })
            .collect();

        let metrics = Arc::new(Metrics::new());
        let lock = self.config.serializable.then(|| {
            let owner = machine_of.iter().map(|&m| WorkerId::new(m)).collect();
            VertexLock::new_all_vertices(g, owner, Arc::clone(&metrics))
        });

        let recorder = self
            .config
            .record_history
            .then(|| Arc::new(Recorder::new(Arc::clone(&self.graph))));

        let values: Vec<RwLock<P::Value>> = g
            .vertices()
            .map(|v| RwLock::new(self.program.init(v, g)))
            .collect();

        let core = Arc::new(Core {
            graph: Arc::clone(&self.graph),
            program: self.program,
            machine_of,
            mirrors,
            values,
            queues: (0..machines)
                .map(|_| MachineQueue {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            queued: (0..g.num_vertices())
                .map(|_| AtomicBool::new(false))
                .collect(),
            running: (0..g.num_vertices())
                .map(|_| AtomicBool::new(false))
                .collect(),
            outstanding: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            live_failed: AtomicBool::new(false),
            eats: EatOrder::new(if lock.is_some() {
                g.num_vertices() as usize
            } else {
                0
            }),
            lock,
            pending_updates: (0..machines)
                .map(|_| (0..machines).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            metrics: Arc::clone(&metrics),
            clocks: SimClocks::new(machines),
            recorder: recorder.clone(),
            trace: self.config.obs.trace_handle(machines),
            timers: self
                .config
                .obs
                .breakdown
                .then(|| WorkerTimers::new(machines)),
            config: self.config.clone(),
        });

        // Initial schedule.
        for v in core.graph.vertices() {
            if core.program.initially_active(v) {
                core.signal(v);
            }
        }

        let watchdog = core.config.obs.watchdog_stall_ms.map(|stall_ms| {
            let c = Arc::clone(&core);
            let progress = move || {
                let executions = c.executions.load(Ordering::SeqCst);
                let clocks: u64 = (0..c.clocks.len()).map(|m| c.clocks.now(m)).sum();
                executions.wrapping_add(clocks)
            };
            let dump = core.trace.buffer().cloned();
            let on_stall = move || {
                eprintln!(
                    "serigraph watchdog: async GAS made no progress for {stall_ms}ms — \
                     suspected stall/deadlock"
                );
                match &dump {
                    Some(buf) => eprintln!("{}", buf.dump_last(16)),
                    None => eprintln!("(enable tracing for a per-machine event dump)"),
                }
            };
            Watchdog::spawn(
                Duration::from_millis((stall_ms / 4).clamp(1, 250)),
                Duration::from_millis(stall_ms),
                progress,
                on_stall,
            )
        });

        // In-process audit plane: a streaming checker over the live
        // recorder, on a sidecar thread, until the fibers finish.
        let audit = (recorder.clone())
            .filter(|_| core.config.obs.audit)
            .map(AuditSidecar::start);

        let wall_start = Instant::now();
        if core.outstanding.load(Ordering::SeqCst) > 0 {
            let mut handles = Vec::new();
            for m in 0..machines {
                for _ in 0..core.config.fibers_per_machine {
                    let core = Arc::clone(&core);
                    handles.push(std::thread::spawn(move || core.fiber_loop(m)));
                }
            }
            for h in handles {
                h.join().expect("gas fiber panicked");
            }
        }
        let audit = audit.map(AuditSidecar::finish);

        let values: Vec<P::Value> = core
            .values
            .iter()
            .map(|v| v.read().unwrap().clone())
            .collect();
        let stalled = watchdog.map(Watchdog::stop).unwrap_or(false);
        let makespan = core.clocks.makespan();
        let obs = (core.timers.is_some() || core.trace.is_enabled()).then(|| {
            if let Some(t) = &core.timers {
                for m in 0..core.clocks.len() {
                    t.set_skew(m, makespan - core.clocks.now(m));
                }
            }
            ObsReport {
                per_superstep: Vec::new(),
                per_worker: core
                    .timers
                    .as_ref()
                    .map(|t| t.breakdown(makespan))
                    .unwrap_or_default(),
                trace: core.trace.buffer().cloned(),
                totals: metrics.snapshot(),
                makespan_ns: makespan,
                stalled,
            }
        });
        GasOutcome {
            values,
            executions: core.executions.load(Ordering::SeqCst),
            converged: !core.live_failed.load(Ordering::SeqCst),
            metrics: metrics.snapshot(),
            makespan_ns: makespan,
            wall_time: wall_start.elapsed(),
            history: recorder.map(|r| r.take_history()),
            audit,
            obs,
        }
    }
}

impl<P: GasProgram> Core<P> {
    /// GraphLab `signal`: schedule `v` unless already queued.
    fn signal(&self, v: VertexId) {
        if !self.queued[v.index()].swap(true, Ordering::SeqCst) {
            self.outstanding.fetch_add(1, Ordering::SeqCst);
            let m = self.machine_of[v.index()] as usize;
            self.queues[m].queue.lock().unwrap().push_back(v);
            self.queues[m].cv.notify_one();
        }
    }

    fn finish(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for q in &self.queues {
            q.cv.notify_all();
        }
    }

    fn fiber_loop(&self, machine: usize) {
        // Each fiber carries its own virtual clock; `cores_per_machine`
        // scales compute charges so F fibers on C cores share throughput
        // while still overlapping (latency-hiding) their fork waits.
        let mut fiber_clock = 0u64;
        loop {
            let v = {
                let mut q = self.queues[machine].queue.lock().unwrap();
                loop {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(v) = q.pop_front() {
                        break v;
                    }
                    q = self.queues[machine].cv.wait(q).unwrap();
                }
            };
            self.queued[v.index()].store(false, Ordering::SeqCst);
            if self.running[v.index()].swap(true, Ordering::SeqCst) {
                // Another fiber is mid-execution of v: requeue the signal
                // so its effect isn't lost, and yield to let the runner
                // finish.
                self.signal(v);
                std::thread::yield_now();
            } else {
                self.execute(machine, v, &mut fiber_clock);
                self.running[v.index()].store(false, Ordering::SeqCst);
                let done = self.executions.fetch_add(1, Ordering::SeqCst) + 1;
                if done >= self.config.max_executions {
                    self.live_failed.store(true, Ordering::SeqCst);
                    self.finish();
                    return;
                }
            }
            if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.finish();
                return;
            }
        }
    }

    /// One full Gather–Apply–Scatter execution of `v`.
    fn execute(&self, machine: usize, v: VertexId, fiber_clock: &mut u64) {
        let g = &self.graph;
        if let Some(lock) = &self.lock {
            lock.acquire_unit(v.raw(), self);
            // Forks cross machines at the cost model's one-way latency.
            let own = self.machine_of[v.index()];
            let latency = |q: u32| {
                if self.machine_of[q as usize] == own {
                    0
                } else {
                    self.config.cost.network_latency_ns
                }
            };
            let ready = self
                .eats
                .ready(v.raw(), lock.fork_neighbors(v.raw()), latency);
            let wait = ready.saturating_sub(*fiber_clock);
            if wait > 0 {
                if let Some(t) = &self.timers {
                    t.add_blocked(machine, wait);
                }
                self.trace.record(
                    machine as u32,
                    0,
                    TraceEventKind::LockWait,
                    *fiber_clock,
                    wait,
                    u64::from(v.raw()),
                );
            }
            *fiber_clock = (*fiber_clock).max(ready);
        }
        let guard = self.recorder.as_ref().map(|r| r.begin(v));

        // Gather: per-phase read locks on in-neighbors (Section 2.3's
        // "each GAS phase individually acquires ... read locks").
        let mut acc = self.program.empty_accum();
        let mut gathered = 0u64;
        for &u in g.in_neighbors(v) {
            let nv = self.values[u.index()].read().unwrap();
            acc = self.program.merge(acc, self.program.gather(g, v, u, &nv));
            gathered += 1;
        }
        if self.config.interphase_yield {
            std::thread::yield_now();
        }

        // Apply: write lock on v.
        let changed = {
            let mut val = self.values[v.index()].write().unwrap();
            self.program.apply(g, v, &mut val, acc)
        };

        let mut sent = 0u64;
        if changed {
            // Write-all mirror updates for v's replicas.
            if let Some(r) = &self.recorder {
                for &u in g.out_neighbors(v) {
                    r.on_send(v, u);
                    r.on_visible(v, u); // shared-memory reads are fresh
                }
            }
            for &dest in &self.mirrors[v.index()] {
                self.metrics.inc(Counter::RemoteMessages);
                sent += 1;
                if self.lock.is_some() {
                    // Serializable mode batches updates until a fork hop.
                    self.pending_updates[machine][dest as usize].fetch_add(1, Ordering::SeqCst);
                } else {
                    // GraphLab async pushes each update eagerly: a tiny
                    // batch of one — the sending fiber pays the per-batch
                    // overhead every time.
                    self.metrics.inc(Counter::RemoteBatches);
                    *fiber_clock += self.config.cost.batch_overhead_ns;
                    let ts = *fiber_clock + self.config.cost.batch_cost(1);
                    self.clocks.observe(dest as usize, ts);
                }
            }
            if self.config.interphase_yield {
                std::thread::yield_now();
            }
            // Scatter: read locks on out-neighbors, activation signals.
            // v's own value is snapshotted once — one lock acquisition
            // instead of one per out-neighbor; scatter sees the value this
            // apply just committed either way.
            let val = self.values[v.index()].read().unwrap().clone();
            for &u in g.out_neighbors(v) {
                let activate = {
                    let nv = self.values[u.index()].read().unwrap();
                    self.program.scatter_activate(g, v, &val, u, &nv)
                };
                if activate {
                    self.signal(u);
                }
            }
        }

        if let (Some(r), Some(guard)) = (self.recorder.as_ref(), guard) {
            r.end(guard);
        }
        self.metrics.inc(Counter::VertexExecutions);
        let cost = self.config.cost.vertex_cost(
            gathered,
            sent + if changed {
                u64::from(g.out_degree(v))
            } else {
                0
            },
        );
        // F fibers share C cores: each fiber's compute is stretched by F/C.
        let fibers = u64::from(self.config.fibers_per_machine.max(1));
        let cores = u64::from(self.config.cores_per_machine.max(1));
        let charged = cost.saturating_mul(fibers) / cores;
        self.trace.record(
            machine as u32,
            0,
            TraceEventKind::VertexExecute,
            *fiber_clock,
            charged,
            gathered,
        );
        *fiber_clock += charged;
        if let Some(t) = &self.timers {
            t.add_busy(machine, charged);
        }
        if sent > 0 {
            self.trace.record(
                machine as u32,
                0,
                TraceEventKind::MessageSend,
                *fiber_clock,
                0,
                sent,
            );
        }
        if let Some(lock) = &self.lock {
            // Logged before the release: the table's mutex orders it before
            // any neighbour's grant.
            self.eats.ate(v.raw(), *fiber_clock);
            lock.release_unit(v.raw(), *fiber_clock, self);
        }
        self.clocks.observe(machine, *fiber_clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{GasColoring, GasPageRank, GasSssp, GasWcc, GAS_NO_COLOR};
    use sg_graph::gen;

    fn config(serializable: bool) -> GasConfig {
        GasConfig {
            machines: 2,
            fibers_per_machine: 3,
            serializable,
            max_executions: 200_000,
            ..Default::default()
        }
    }

    #[test]
    fn wcc_converges_async() {
        let g = Arc::new(gen::ring(16));
        let out = AsyncGasEngine::new(g, GasWcc, config(false)).run();
        assert!(out.converged);
        assert!(out.values.iter().all(|&c| c == 0));
    }

    #[test]
    fn wcc_converges_async_serializable() {
        let g = Arc::new(gen::ring(16));
        let out = AsyncGasEngine::new(g, GasWcc, config(true)).run();
        assert!(out.converged);
        assert!(out.values.iter().all(|&c| c == 0));
    }

    #[test]
    fn sssp_matches_bfs_both_modes() {
        let g = Arc::new(gen::grid(4, 5));
        for ser in [false, true] {
            let out =
                AsyncGasEngine::new(Arc::clone(&g), GasSssp::new(VertexId::new(0)), config(ser))
                    .run();
            assert!(out.converged);
            // grid distances: manhattan distance from corner
            for r in 0..4u64 {
                for c in 0..5u64 {
                    assert_eq!(
                        out.values[(r * 5 + c) as usize],
                        r + c,
                        "serializable={ser}"
                    );
                }
            }
        }
    }

    #[test]
    fn pagerank_converges_both_modes() {
        let g = Arc::new(gen::ring(12));
        for ser in [false, true] {
            let out =
                AsyncGasEngine::new(Arc::clone(&g), GasPageRank::new(1e-6), config(ser)).run();
            assert!(out.converged, "serializable={ser}");
            for &pr in &out.values {
                assert!(
                    (pr - 1.0).abs() < 1e-3,
                    "ring PageRank should be 1.0, got {pr}"
                );
            }
        }
    }

    #[test]
    fn serializable_coloring_terminates_properly() {
        let g = Arc::new(gen::preferential_attachment(150, 3, 17));
        let out = AsyncGasEngine::new(Arc::clone(&g), GasColoring, config(true)).run();
        assert!(out.converged);
        for u in g.vertices() {
            assert_ne!(out.values[u.index()], GAS_NO_COLOR);
            for &w in g.out_neighbors(u) {
                assert_ne!(out.values[u.index()], out.values[w.index()], "{u:?}-{w:?}");
            }
        }
        // Serializability gives one color change per vertex plus at most
        // one no-op wake per directed edge.
        let bound = u64::from(g.num_vertices()) + 2 * g.num_undirected_edges() + 16;
        assert!(
            out.executions <= bound,
            "{} executions exceed bound {bound}",
            out.executions
        );
    }

    #[test]
    fn serializable_history_passes_checkers() {
        let g = Arc::new(gen::ring(10));
        let cfg = GasConfig {
            record_history: true,
            ..config(true)
        };
        let out = AsyncGasEngine::new(Arc::clone(&g), GasColoring, cfg).run();
        assert!(out.converged);
        let h = out.history.unwrap();
        assert!(h.c2_violations(&g).is_empty());
        assert!(h.is_one_copy_serializable(&g));
    }

    #[test]
    fn live_audit_agrees_with_post_hoc_check() {
        let g = Arc::new(gen::ring(10));
        let cfg = GasConfig {
            record_history: true,
            obs: ObsConfig {
                audit: true,
                ..Default::default()
            },
            ..config(true)
        };
        let out = AsyncGasEngine::new(Arc::clone(&g), GasColoring, cfg).run();
        assert!(out.converged);
        let live = out.audit.expect("audit requested");
        let post = out.history.expect("history requested").summarize(&g);
        assert_eq!(live, post);
        assert!(live.one_copy_serializable);
    }

    #[test]
    fn non_serializable_interleavings_violate_c2() {
        // Dense graph + many fibers + widened race windows: neighboring
        // GAS executions overlap (Section 2.3's interleaving), which the
        // recorder catches as C2 violations.
        let g = Arc::new(gen::complete(8));
        let cfg = GasConfig {
            machines: 2,
            fibers_per_machine: 4,
            record_history: true,
            interphase_yield: true,
            max_executions: 100_000,
            ..Default::default()
        };
        let out = AsyncGasEngine::new(Arc::clone(&g), GasColoring, cfg).run();
        let h = out.history.unwrap();
        assert!(
            !h.c2_violations(&g).is_empty(),
            "expected overlapping neighbor executions without locking"
        );
    }

    #[test]
    fn serializable_mode_counts_fork_traffic() {
        let g = Arc::new(gen::ring(12));
        let out = AsyncGasEngine::new(g, GasWcc, config(true)).run();
        assert!(out.metrics.fork_transfers > 0);
        assert!(out.metrics.request_tokens > 0);
    }

    #[test]
    fn execution_cap_reports_failure() {
        let g = Arc::new(gen::ring(8));
        let cfg = GasConfig {
            max_executions: 5,
            ..config(false)
        };
        let out = AsyncGasEngine::new(g, GasWcc, cfg).run();
        assert!(!out.converged);
    }

    #[test]
    fn initially_inactive_finishes_instantly() {
        let g = Arc::new(gen::ring(8));
        // SSSP from a vertex: only it is initially active.
        let out = AsyncGasEngine::new(g, GasSssp::new(VertexId::new(3)), config(false)).run();
        assert!(out.converged);
        assert_eq!(out.values[3], 0);
    }
}
