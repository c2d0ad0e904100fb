//! The high-level [`Runner`] builder.

use sg_algos::kcore::KCoreValue;
use sg_algos::triangles::TriangleValue;
use sg_algos::{
    ConflictFixColoring, DeltaPageRank, GreedyColoring, GreedyMis, KCore, MisState, Sssp,
    TriangleCount, Wcc,
};
use sg_engine::{
    Combiner, Engine, EngineConfig, EngineError, Model, Outcome, TechniqueKind, VertexProgram,
};
use sg_graph::{Graph, PartitionId, VertexId};
use sg_metrics::{ObsConfig, ObsReport, TraceBuffer};
use sg_net::{ClusterConfig, ClusterOutcome, FaultPlan, SpawnMode, WireCodec, Workload};
use sg_sim::SimOptions;
use std::sync::Arc;
use std::time::Instant;

/// User-facing synchronization technique selector — a re-badged
/// [`TechniqueKind`] so applications don't need to import `sg-engine`.
pub type Technique = TechniqueKind;

/// How a networked run brings up its cluster — handed to
/// [`Runner::networked`]. The default is a loopback thread-per-rank
/// cluster (real TCP sockets, no fork/exec); `spawn` switches to real OS
/// processes and `bind_addr` moves the coordinator off loopback.
#[derive(Clone, Debug)]
pub struct NetworkOptions {
    /// Coordinator listen address (`host:port`; port 0 picks a free one).
    pub bind_addr: String,
    /// Worker threads (default) or real OS processes.
    pub spawn: SpawnMode,
    /// Deterministic per-rank data-plane fault plans.
    pub faults: Vec<(u32, FaultPlan)>,
    /// Serve the live telemetry plane over HTTP at this address during
    /// the run (`host:port`; port 0 picks a free one). `None` disables
    /// the listener.
    pub telemetry_addr: Option<String>,
    /// How often workers ship telemetry snapshot frames, in milliseconds
    /// (0 = final snapshot only).
    pub telemetry_interval_ms: u64,
    /// How often workers stream transactions to the coordinator's live
    /// serializability audit plane, in milliseconds (0 disables; nonzero
    /// requires `record_history`).
    pub audit_interval_ms: u64,
    /// Append JSONL violation sentinels to this file during an audited run.
    pub audit_log: Option<String>,
}

impl Default for NetworkOptions {
    fn default() -> Self {
        Self {
            bind_addr: "127.0.0.1:0".into(),
            spawn: SpawnMode::Threads,
            faults: Vec::new(),
            telemetry_addr: None,
            telemetry_interval_ms: 0,
            audit_interval_ms: 0,
            audit_log: None,
        }
    }
}

/// Fluent builder for engine runs.
///
/// Defaults: 2 workers, Giraph's `|W|` partitions per worker, 2 threads per
/// worker, asynchronous model, no synchronization (not serializable), the
/// in-process engine on the wall clock. [`Runner::simulated`] moves the run
/// onto virtual time, priced by its [`SimOptions::cost`].
#[derive(Clone)]
pub struct Runner {
    graph: Arc<Graph>,
    config: EngineConfig,
    net: Option<NetworkOptions>,
    sim: Option<SimOptions>,
}

impl Runner {
    /// Start from a graph.
    pub fn new(graph: Graph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// Start from a shared graph.
    pub fn from_arc(graph: Arc<Graph>) -> Self {
        Self {
            graph,
            config: EngineConfig::default(),
            net: None,
            sim: None,
        }
    }

    /// Number of simulated worker machines.
    pub fn workers(mut self, workers: u32) -> Self {
        self.config.workers = workers;
        self
    }

    /// Partitions per worker (default: `workers`, Giraph's default).
    pub fn partitions_per_worker(mut self, ppw: u32) -> Self {
        self.config.partitions_per_worker = Some(ppw);
        self
    }

    /// Compute threads per worker.
    pub fn threads_per_worker(mut self, threads: u32) -> Self {
        self.config.threads_per_worker = threads;
        self
    }

    /// Computation model (BSP or AP).
    pub fn model(mut self, model: Model) -> Self {
        self.config.model = model;
        self
    }

    /// Synchronization technique (serializable execution when not
    /// [`Technique::None`]; requires the asynchronous model).
    pub fn technique(mut self, technique: Technique) -> Self {
        self.config.technique = technique;
        self
    }

    /// Cap on supersteps.
    pub fn max_supersteps(mut self, cap: u64) -> Self {
        self.config.max_supersteps = cap;
        self
    }

    /// Message buffer capacity per compute thread and destination worker
    /// ([`EngineConfig::buffer_cap`]).
    pub fn buffer_cap(mut self, cap: usize) -> Self {
        self.config.buffer_cap = cap;
        self
    }

    /// Explicit vertex -> partition assignment.
    pub fn explicit_partitions(mut self, assignment: Vec<PartitionId>) -> Self {
        self.config.explicit_partitions = Some(assignment);
        self
    }

    /// Record a transaction history for serializability checking.
    pub fn record_history(mut self, yes: bool) -> Self {
        self.config.record_history = yes;
        self
    }

    /// Run the in-process streaming auditor alongside the recorder for a
    /// live Theorem 1 verdict (implies [`Runner::record_history`]).
    pub fn audit(mut self, yes: bool) -> Self {
        self.config.obs.audit = yes;
        if yes {
            self.config.record_history = true;
        }
        self
    }

    /// Checkpoint every `k` supersteps (Section 6.4 fault tolerance).
    pub fn checkpoint_every(mut self, k: u64) -> Self {
        self.config.checkpoint_every = Some(k);
        self
    }

    /// Inject a simulated machine failure after the given superstep; the
    /// run recovers from the latest checkpoint.
    pub fn fail_at_superstep(mut self, s: u64) -> Self {
        self.config.fail_at_superstep = Some(s);
        self
    }

    /// Barrierless execution with per-worker logical supersteps (the
    /// paper's reference [20]); pair with a locking technique for
    /// serializability without global barriers.
    pub fn barrierless(mut self, yes: bool) -> Self {
        self.config.barrierless = yes;
        self
    }

    /// Full observability configuration (escape hatch; see the focused
    /// [`Runner::trace`], [`Runner::metrics_breakdown`], and
    /// [`Runner::watchdog_ms`] toggles).
    pub fn observability(mut self, obs: ObsConfig) -> Self {
        self.config.obs = obs;
        self
    }

    /// Collect structured trace events (exportable as Chrome
    /// `trace_event` JSON via the outcome's `obs.trace`).
    pub fn trace(mut self, yes: bool) -> Self {
        self.config.obs.trace = yes;
        self
    }

    /// Collect per-superstep counter deltas and per-worker
    /// busy/blocked/idle breakdowns, on the host's clock.
    pub fn metrics_breakdown(mut self, yes: bool) -> Self {
        self.config.obs.breakdown = yes;
        self
    }

    /// Arm the stall watchdog: if no counter moves for this many
    /// wall-clock milliseconds, dump diagnostics to stderr and flag the run
    /// as stalled instead of hanging silently.
    pub fn watchdog_ms(mut self, ms: u64) -> Self {
        self.config.obs.watchdog_stall_ms = Some(ms);
        self
    }

    /// Execute over the `sg-net` cluster runtime instead of the
    /// in-process engine: workers become threads or real OS processes
    /// exchanging framed messages over TCP sockets, the coordinator hosts
    /// the synchronization technique, and the run's transaction history
    /// is merged across processes for the 1SR check. Only the wire-routed
    /// workloads ([`Runner::run_coloring`], [`Runner::run_wcc`],
    /// [`Runner::run_sssp`], [`Runner::run_mis`], [`Runner::run_pagerank`])
    /// are available networked.
    pub fn networked(mut self, opts: NetworkOptions) -> Self {
        self.net = Some(opts);
        self
    }

    /// Execute on the `sg-sim` discrete-event simulator instead of the
    /// in-process engine: workers become simulation actors on one host,
    /// 512-worker supersteps walk as a single event-loop pass with exact
    /// virtual-time makespans, and runs are bit-identical under a fixed
    /// seed. The unmodified `sg-sync` protocol objects and vertex
    /// programs run behind the transport seam, so every workload —
    /// including [`Runner::run_program`] — is available simulated.
    /// Incompatible with [`Runner::networked`].
    pub fn simulated(mut self, opts: SimOptions) -> Self {
        self.sim = Some(opts);
        self
    }

    /// The underlying engine configuration (escape hatch).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Run an arbitrary vertex program.
    pub fn run_program<P: VertexProgram>(
        &self,
        program: P,
    ) -> Result<Outcome<P::Value>, EngineError> {
        if self.sim.is_some() {
            return self.run_simulated(program, None);
        }
        if self.net.is_some() {
            return Err(EngineError::InvalidConfig(
                "arbitrary vertex programs cannot ship over the wire; networked runs \
                 support run_coloring, run_wcc, run_sssp, run_mis, and run_pagerank"
                    .into(),
            ));
        }
        Ok(Engine::new(Arc::clone(&self.graph), program, self.config.clone())?.run())
    }

    /// Build the configured in-process engine without running it — the
    /// serving entry point: clone [`Engine::reader`] handles off the built
    /// engine, hand them to query threads, then call `run()`.
    ///
    /// ```
    /// use sg_core::prelude::*;
    ///
    /// let runner = Runner::new(sg_graph::gen::ring(16)).workers(2);
    /// let engine = runner.build_engine(GreedyColoring::default()).unwrap();
    /// let reader = engine.reader(); // usable from any thread, mid-run
    /// let outcome = engine.run();
    /// assert!(outcome.converged);
    /// let snap = reader.snapshot();
    /// assert_eq!(snap.get(VertexId::new(0)), Some(outcome.values[0]));
    /// ```
    pub fn build_engine<P: VertexProgram>(&self, program: P) -> Result<Engine<P>, EngineError> {
        if self.sim.is_some() {
            return Err(EngineError::InvalidConfig(
                "build_engine constructs the in-process engine; simulated runs execute \
                 entirely inside sg-sim's event loop"
                    .into(),
            ));
        }
        if self.net.is_some() {
            return Err(EngineError::InvalidConfig(
                "build_engine constructs the in-process engine; networked runs serve \
                 queries through the coordinator's /query endpoint"
                    .into(),
            ));
        }
        Engine::new(Arc::clone(&self.graph), program, self.config.clone())
    }

    /// Route a run through the `sg-sim` discrete-event simulator.
    fn run_simulated<P: VertexProgram>(
        &self,
        program: P,
        combiner: Option<Box<dyn Combiner<P::Message>>>,
    ) -> Result<Outcome<P::Value>, EngineError> {
        let opts = self.sim.as_ref().expect("run_simulated requires sim opts");
        if self.net.is_some() {
            return Err(EngineError::InvalidConfig(
                "simulated and networked execution are mutually exclusive".into(),
            ));
        }
        let report = sg_sim::simulate(
            Arc::clone(&self.graph),
            program,
            combiner,
            &self.config,
            opts,
        )?;
        Ok(report.outcome)
    }

    /// Route one of the wire-supported workloads through the `sg-net`
    /// cluster runtime and translate the [`ClusterOutcome`] back into the
    /// engine's [`Outcome`] shape.
    fn run_networked<V: WireCodec>(
        &self,
        opts: &NetworkOptions,
        workload: Workload,
    ) -> Result<Outcome<V>, EngineError> {
        if self.config.model != Model::Async {
            return Err(EngineError::InvalidConfig(
                "networked runs use the asynchronous model".into(),
            ));
        }
        let cfg = ClusterConfig {
            workers: self.config.workers,
            partitions_per_worker: self
                .config
                .partitions_per_worker
                .unwrap_or(self.config.workers),
            technique: self.config.technique,
            workload,
            max_supersteps: self.config.max_supersteps,
            buffer_cap: self.config.buffer_cap as u64,
            partition_seed: self.config.partition_seed,
            explicit_partitions: self
                .config
                .explicit_partitions
                .as_ref()
                .map(|ps| ps.iter().map(|p| p.raw()).collect()),
            record_history: self.config.record_history,
            trace_capacity: if self.config.obs.trace {
                self.config.obs.trace_capacity as u64
            } else {
                0
            },
            bind_addr: opts.bind_addr.clone(),
            spawn: opts.spawn.clone(),
            faults: opts.faults.clone(),
            telemetry_addr: opts.telemetry_addr.clone(),
            telemetry_interval_ms: opts.telemetry_interval_ms,
            audit_interval_ms: opts.audit_interval_ms,
            audit_log: opts.audit_log.clone(),
            telemetry_addr_tx: None,
        };
        let started = Instant::now();
        let out: ClusterOutcome = sg_net::run_cluster(&self.graph, &cfg)
            .map_err(|e| EngineError::InvalidConfig(format!("cluster run failed: {e}")))?;
        let obs = (!out.trace_events.is_empty()).then(|| ObsReport {
            per_superstep: Vec::new(),
            per_worker: Vec::new(),
            trace: Some(Arc::new(TraceBuffer::from_events(&out.trace_events))),
            totals: out.metrics,
            makespan_ns: out.makespan_ns,
            stalled: false,
        });
        Ok(Outcome {
            values: out.typed_values(),
            supersteps: out.supersteps,
            converged: out.converged,
            metrics: out.metrics,
            makespan_ns: out.makespan_ns,
            wall_time: started.elapsed(),
            history: out.history,
            audit: out.audit,
            obs,
            telemetry: out.telemetry,
        })
    }

    /// The workload table's one row shape: a wire-routed program runs on
    /// whichever host the builder selected — the simulator, the cluster
    /// (as `workload`), or the in-process engine — with its combiner on
    /// every one of them. The cluster takes no `combiner` argument because
    /// a worker process attaches the same one itself, from the workload
    /// name (`sg_net::worker_main`'s dispatch): keep the two tables equal.
    fn run_workload<P: VertexProgram<Value: WireCodec>>(
        &self,
        program: P,
        combiner: Option<Box<dyn Combiner<P::Message>>>,
        workload: Workload,
    ) -> Result<Outcome<P::Value>, EngineError> {
        if self.sim.is_some() {
            return self.run_simulated(program, combiner);
        }
        if let Some(opts) = &self.net {
            return self.run_networked(opts, workload);
        }
        let engine = Engine::new(Arc::clone(&self.graph), program, self.config.clone())?;
        Ok(match combiner {
            Some(c) => engine.with_combiner(c).run(),
            None => engine.run(),
        })
    }

    /// Greedy graph coloring (Algorithm 1). Requires a symmetric graph;
    /// proper colorings require a serializable technique.
    pub fn run_coloring(&self) -> Result<Outcome<u32>, EngineError> {
        self.run_workload(GreedyColoring, None, Workload::Coloring)
    }

    /// Conflict-repair coloring (the Figures 2/3 variant).
    pub fn run_conflict_fix_coloring(&self) -> Result<Outcome<u32>, EngineError> {
        self.run_program(ConflictFixColoring)
    }

    /// PageRank with the given residual threshold (paper: 0.01 / 0.1).
    pub fn run_pagerank(&self, threshold: f64) -> Result<Outcome<f64>, EngineError> {
        let (program, wire) = (DeltaPageRank::new(threshold), Workload::Pagerank(threshold));
        self.run_workload(program, Some(Box::new(DeltaPageRank::combiner())), wire)
    }

    /// SSSP from `source` with unit weights.
    pub fn run_sssp(&self, source: VertexId) -> Result<Outcome<u64>, EngineError> {
        let (program, wire) = (Sssp::new(source), Workload::Sssp(source.raw()));
        self.run_workload(program, Some(Box::new(Sssp::combiner())), wire)
    }

    /// Weakly connected components (HCC).
    pub fn run_wcc(&self) -> Result<Outcome<u32>, EngineError> {
        self.run_workload(Wcc, Some(Box::new(Wcc::combiner())), Workload::Wcc)
    }

    /// Greedy maximal independent set (requires a serializable technique
    /// for correctness).
    pub fn run_mis(&self) -> Result<Outcome<MisState>, EngineError> {
        self.run_workload(GreedyMis, None, Workload::Mis)
    }

    /// Triangle counting (symmetric input expected); sum the per-vertex
    /// counts with [`TriangleCount::total`].
    pub fn run_triangles(&self) -> Result<Outcome<TriangleValue>, EngineError> {
        self.run_program(TriangleCount)
    }

    /// k-core membership for a fixed `k` (symmetric input expected).
    pub fn run_kcore(&self, k: u32) -> Result<Outcome<KCoreValue>, EngineError> {
        self.run_program(KCore::new(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_algos::validate;
    use sg_graph::gen;

    #[test]
    fn builder_round_trip() {
        let r = Runner::new(gen::ring(8))
            .workers(4)
            .partitions_per_worker(2)
            .threads_per_worker(1)
            .model(Model::Async)
            .technique(Technique::DualToken)
            .max_supersteps(99)
            .buffer_cap(7)
            .record_history(true)
            .trace(true)
            .metrics_breakdown(true)
            .watchdog_ms(10_000);
        assert_eq!(r.config().workers, 4);
        assert_eq!(r.config().partitions_per_worker, Some(2));
        assert_eq!(r.config().threads_per_worker, 1);
        assert_eq!(r.config().technique, Technique::DualToken);
        assert_eq!(r.config().max_supersteps, 99);
        assert_eq!(r.config().buffer_cap, 7);
        assert!(r.config().record_history);
        assert!(r.config().obs.trace);
        assert!(r.config().obs.breakdown);
        assert_eq!(r.config().obs.watchdog_stall_ms, Some(10_000));
    }

    #[test]
    fn coloring_through_runner() {
        let out = Runner::new(gen::paper_c4())
            .workers(2)
            .technique(Technique::PartitionLock)
            .run_coloring()
            .unwrap();
        assert!(out.converged);
        assert_eq!(
            validate::coloring_conflicts(&gen::paper_c4(), &out.values),
            0
        );
    }

    #[test]
    fn pagerank_through_runner() {
        let out = Runner::new(gen::ring(10)).run_pagerank(1e-6).unwrap();
        assert!(out.converged);
        assert!(out.values.iter().all(|&p| (p - 1.0).abs() < 1e-3));
    }

    #[test]
    fn sssp_and_wcc_through_runner() {
        let g = gen::grid(3, 3);
        let r = Runner::new(g.clone()).workers(2);
        let sssp = r.run_sssp(VertexId::new(0)).unwrap();
        assert_eq!(sssp.values[8], 4);
        let wcc = r.run_wcc().unwrap();
        assert!(wcc.values.iter().all(|&c| c == 0));
    }

    #[test]
    fn mis_through_runner() {
        let g = gen::star(6);
        let out = Runner::new(g.clone())
            .technique(Technique::PartitionLock)
            .run_mis()
            .unwrap();
        assert!(out.converged);
        let members = sg_algos::mis::membership(&out.values);
        assert!(validate::is_maximal_independent_set(&g, &members));
    }

    #[test]
    fn simulated_coloring_through_runner() {
        let out = Runner::new(gen::ring(32))
            .workers(4)
            .technique(Technique::DualToken)
            .record_history(true)
            .simulated(SimOptions::default())
            .run_coloring()
            .unwrap();
        assert!(out.converged);
        assert_eq!(validate::coloring_conflicts(&gen::ring(32), &out.values), 0);
        let history = out.history.expect("recorded");
        assert!(history.is_one_copy_serializable(&gen::ring(32)));
    }

    #[test]
    fn simulated_workloads_with_combiners() {
        let g = gen::grid(3, 3);
        let r = Runner::new(g.clone())
            .workers(2)
            .simulated(SimOptions::default());
        let sssp = r.run_sssp(VertexId::new(0)).unwrap();
        assert_eq!(sssp.values[8], 4);
        let wcc = r.run_wcc().unwrap();
        assert!(wcc.values.iter().all(|&c| c == 0));
        let pr = r.run_pagerank(1e-6).unwrap();
        assert!(pr.converged);
    }

    #[test]
    fn simulated_rejects_networked_and_build_engine() {
        let r = Runner::new(gen::ring(4))
            .simulated(SimOptions::default())
            .networked(NetworkOptions::default());
        assert!(r.run_coloring().is_err());
        let r2 = Runner::new(gen::ring(4)).simulated(SimOptions::default());
        assert!(r2.build_engine(GreedyColoring).is_err());
    }

    #[test]
    fn invalid_config_surfaces_error() {
        let err = Runner::new(gen::ring(4))
            .model(Model::Bsp)
            .technique(Technique::PartitionLock)
            .run_coloring()
            .unwrap_err();
        assert_eq!(err, EngineError::BspWithSynchronization);
    }
}
