//! The discrete-event simulation core.
//!
//! One OS thread walks a binary-heap event queue over virtual time. Each
//! simulated worker machine owns `threads_per_worker` *lanes* (simulated
//! compute threads); a lane's `Step` event claims partitions, executes one
//! vertex program invocation (through the engine's own
//! [`Context::external`]), or retries a blocked lock acquisition. Remote
//! message batches travel as `Deliver` events through the [`NetModel`].
//!
//! The synchronization techniques are the **unmodified** `sg-sync`
//! protocol objects: the simulation drives them through
//! [`Synchronizer::try_acquire_unit`] / `release_unit` / `end_superstep`
//! exactly as the model checker does, and hosts their transport callbacks
//! behind [`SimTransport`] — the fourth transport beside the in-process
//! engine, `sg-check`'s virtual transport, and `sg-net`'s sockets.
//!
//! Fidelity notes (mirroring `sg-engine`):
//! * local messages are visible immediately (AP model); remote messages
//!   stage per destination worker, combine sender-side, and flush as
//!   batches when `buffer_cap` accumulate;
//! * a fork/token handover performs the write-all flush of the sender's
//!   outbound messages *synchronously* (condition C1) — in-flight batches
//!   from that worker are applied before the handover completes;
//! * batch assembly charges the sending machine `batch_overhead_ns`; the
//!   receiving machine's clock joins the arrival timestamp;
//! * the barrier levels every clock to the global frontier plus
//!   `barrier_ns`, exactly like the engine's master phase.

use crate::event::{EventKind, EventQueue};
use crate::net::{NetAction, NetModel, SimTransport};
use sg_engine::{
    build_synchronizer, AggregatorSet, Combiner, Context, EngineConfig, EngineError, Model,
    Outcome, TechniqueKind, VertexProgram,
};
use sg_graph::{Graph, PartitionId, PartitionMap, VertexId};
use sg_metrics::{CostModel, Counter, Metrics, ObsReport, Trace, TraceEventKind};
use sg_serial::Recorder;
use sg_sync::{LockGranularity, Synchronizer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Knobs specific to the discrete-event simulator (everything else comes
/// from the shared [`EngineConfig`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Network topology model. `None` derives uniform links from the
    /// engine cost model, making a 1-thread-per-worker sim run charge the
    /// same wire the in-process engine would.
    pub net: Option<NetModel>,
}

impl SimOptions {
    /// Uniform links from the cost model, with deterministic per-link
    /// jitter of ± `pct` percent seeded by `seed`.
    pub fn with_jitter(pct: u32, seed: u64) -> Self {
        Self {
            net: Some(NetModel {
                jitter_pct: pct,
                seed,
                ..NetModel::default()
            }),
        }
    }
}

/// What a simulated run produced: the engine-shaped [`Outcome`] plus the
/// simulator's own determinism evidence.
#[derive(Debug)]
pub struct SimReport<V> {
    /// The run outcome in the exact shape the in-process engine returns —
    /// values, metrics, virtual makespan, optional history/trace.
    pub outcome: Outcome<V>,
    /// FNV-1a fold of every processed event `(time, kind, payload)` and
    /// the final makespan. Two runs with the same seed produce the same
    /// digest iff they walked the identical event sequence.
    pub digest: u64,
    /// Total events processed.
    pub events: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for i in 0..8 {
        h ^= (word >> (8 * i)) & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaneState {
    /// Done with this superstep.
    Idle,
    /// Claim the worker's next partition on the next step.
    Scan,
    /// Executing partition `p`, next vertex at `vpos`; `locked` = holds
    /// the partition-granularity lock.
    Run {
        p: PartitionId,
        vpos: u32,
        locked: bool,
    },
    /// Parked waiting for partition `p`'s forks.
    WaitPartition { p: PartitionId },
    /// Parked waiting for vertex `vpos` of `p`'s forks.
    WaitVertex { p: PartitionId, vpos: u32 },
}

#[derive(Clone, Copy, Debug)]
struct Lane {
    clock: u64,
    state: LaneState,
    pending_step: bool,
}

/// Messages staged for one `(from, to)` worker pair, combined sender-side.
struct StagedRun<M> {
    /// `(recipient, sender, message)` in stage order.
    run: Vec<(VertexId, VertexId, M)>,
    /// recipient raw id -> index in `run`, for the sender-side combiner.
    index: HashMap<u32, usize>,
}

impl<M> Default for StagedRun<M> {
    fn default() -> Self {
        Self {
            run: Vec::new(),
            index: HashMap::new(),
        }
    }
}

/// A batch in flight between two workers.
struct Batch<M> {
    from: u32,
    to: u32,
    arrival: u64,
    entries: Vec<(VertexId, VertexId, M)>,
}

struct Sim<'a, P: VertexProgram> {
    graph: Arc<Graph>,
    program: &'a P,
    combiner: Option<&'a dyn Combiner<P::Message>>,
    pm: Arc<PartitionMap>,
    sync: Arc<dyn Synchronizer>,
    transport: SimTransport,
    cost: CostModel,
    metrics: Arc<Metrics>,
    trace: Trace,
    recorder: Option<Recorder>,
    aggs: AggregatorSet,
    buffer_cap: usize,
    superstep: u64,

    values: Vec<P::Value>,
    halted: Vec<bool>,
    inbox: Vec<Vec<P::Message>>,

    workers: u32,
    ppw: u32,
    lanes_per_worker: u32,
    lanes: Vec<Lane>,
    /// Per-worker next-partition claim index.
    claim: Vec<u32>,
    /// Per-worker machine clock floor: joined by batch arrivals and ring
    /// passes (the engine's `SimClocks::observe`), folded into lanes at
    /// the barrier.
    floor: Vec<u64>,

    staged: BTreeMap<(u32, u32), StagedRun<P::Message>>,
    batches: Vec<Option<Batch<P::Message>>>,
    queue: EventQueue,
    scratch_out: Vec<(VertexId, P::Message)>,

    digest: u64,
    events: u64,
}

/// Run `program` over `graph` on the simulated cluster described by
/// `config` and `opts`, returning the engine-shaped outcome plus the
/// determinism digest.
///
/// The simulator hosts the asynchronous model only: BSP (and the
/// BSP-constrained [`TechniqueKind::BspVertexLock`]) needs the engine's
/// sub-superstep store swap, and barrierless / failure-injection runs are
/// likewise the in-process engine's territory.
pub fn simulate<P: VertexProgram>(
    graph: Arc<Graph>,
    program: P,
    combiner: Option<Box<dyn Combiner<P::Message>>>,
    config: &EngineConfig,
    opts: &SimOptions,
) -> Result<SimReport<P::Value>, EngineError> {
    config.validate()?;
    if config.model != Model::Async {
        return Err(EngineError::InvalidConfig(
            "the discrete-event simulator runs the asynchronous model only".into(),
        ));
    }
    if config.technique == TechniqueKind::BspVertexLock {
        return Err(EngineError::InvalidConfig(
            "bsp-vertex-lock's sub-superstep fork exchange requires the BSP engine; \
             the simulator hosts the asynchronous techniques"
                .into(),
        ));
    }
    if config.barrierless {
        return Err(EngineError::InvalidConfig(
            "barrierless execution is not simulated; use the in-process engine".into(),
        ));
    }
    if config.checkpoint_every.is_some() || config.fail_at_superstep.is_some() {
        return Err(EngineError::InvalidConfig(
            "checkpointing/failure injection is not simulated; use the in-process engine".into(),
        ));
    }

    let wall_start = Instant::now();
    let workers = config.workers;
    let ppw = config.effective_ppw();
    let pm = Arc::new(config.partition_map(&graph)?);
    let metrics = Arc::new(Metrics::new());
    let sync = build_synchronizer(config.technique, &graph, &pm, Arc::clone(&metrics));
    let lanes_per_worker = match sync.max_threads_per_worker() {
        Some(k) => config.threads_per_worker.min(k).max(1),
        None => config.threads_per_worker.max(1),
    };

    let net = opts
        .net
        .unwrap_or_else(|| NetModel::from_cost(&config.cost));
    let trace = if config.obs.trace {
        Trace::enabled(workers as usize, config.obs.trace_capacity)
    } else {
        Trace::disabled()
    };
    let record_history = config.record_history || config.obs.audit;
    let recorder = record_history.then(|| Recorder::new(Arc::clone(&graph)));

    let n = graph.num_vertices() as usize;
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        values.push(program.init(VertexId::new(i as u32), &graph));
    }
    let mut aggs = AggregatorSet::new();
    program.register_aggregators(&mut aggs);

    let mut sim = Sim {
        graph,
        program: &program,
        combiner: combiner.as_deref(),
        pm,
        sync,
        transport: SimTransport::new(net),
        cost: config.cost,
        metrics,
        trace,
        recorder,
        aggs,
        buffer_cap: config.buffer_cap,
        superstep: 0,
        values,
        halted: vec![false; n],
        inbox: (0..n).map(|_| Vec::new()).collect(),
        workers,
        ppw,
        lanes_per_worker,
        lanes: vec![
            Lane {
                clock: 0,
                state: LaneState::Idle,
                pending_step: false,
            };
            (workers * lanes_per_worker) as usize
        ],
        claim: vec![0; workers as usize],
        floor: vec![0; workers as usize],
        staged: BTreeMap::new(),
        batches: Vec::new(),
        queue: EventQueue::new(),
        scratch_out: Vec::new(),
        digest: FNV_OFFSET,
        events: 0,
    };

    let (converged, executed, makespan) = sim.run(config.max_supersteps)?;

    let metrics_snapshot = sim.metrics.snapshot();
    let obs = sim.trace.buffer().map(|buf| ObsReport {
        per_superstep: Vec::new(),
        per_worker: Vec::new(),
        trace: Some(Arc::clone(buf)),
        totals: metrics_snapshot,
        makespan_ns: makespan,
        stalled: false,
    });
    let history = sim.recorder.take().map(|r| r.history());
    let audit = (config.obs.audit)
        .then(|| history.as_ref().map(|h| h.summarize(&sim.graph)))
        .flatten();
    let digest = fnv_fold(sim.digest, makespan);

    Ok(SimReport {
        outcome: Outcome {
            values: sim.values,
            supersteps: executed,
            converged,
            metrics: metrics_snapshot,
            makespan_ns: makespan,
            wall_time: wall_start.elapsed(),
            history: config.record_history.then_some(history).flatten(),
            audit,
            obs,
            telemetry: None,
        },
        digest,
        events: sim.events,
    })
}

impl<P: VertexProgram> Sim<'_, P> {
    fn lane_idx(&self, worker: u32, lane: u32) -> usize {
        (worker * self.lanes_per_worker + lane) as usize
    }

    fn run(&mut self, max_supersteps: u64) -> Result<(bool, u64, u64), EngineError> {
        let mut executed = 0u64;
        let mut converged = false;
        let makespan;
        loop {
            self.seed_superstep();
            while let Some(ev) = self.queue.pop() {
                self.events += 1;
                let (k, payload) = ev.kind.digest_words();
                self.digest = fnv_fold(self.digest, ev.at);
                self.digest = fnv_fold(self.digest, (k << 56) | payload);
                match ev.kind {
                    EventKind::Deliver { batch } => self.apply_batch(batch as usize),
                    EventKind::Step { worker, lane } => self.step_lane(worker, lane, ev.at),
                }
            }
            if let Some(report) = self.blocked_report() {
                return Err(EngineError::InvalidConfig(report));
            }
            let frontier = self.master_phase();
            executed += 1;
            let s = self.superstep;
            let active = self.halted.iter().filter(|&&h| !h).count();
            let pending: usize = self.inbox.iter().map(Vec::len).sum();
            if self.program.master_halt(s, &self.aggs.view()) || (active == 0 && pending == 0) {
                converged = true;
                makespan = frontier;
                break;
            }
            if executed >= max_supersteps {
                makespan = frontier;
                break;
            }
            self.superstep += 1;
        }
        Ok((converged, executed, makespan))
    }

    /// Reset claims and wake every lane at its (barrier-leveled) clock.
    fn seed_superstep(&mut self) {
        for c in &mut self.claim {
            *c = 0;
        }
        for w in 0..self.workers {
            for l in 0..self.lanes_per_worker {
                let i = self.lane_idx(w, l);
                self.lanes[i].state = LaneState::Scan;
                self.lanes[i].pending_step = true;
                self.queue
                    .push(self.lanes[i].clock, EventKind::Step { worker: w, lane: l });
            }
        }
    }

    /// The engine's master phase: flush stragglers, rotate tokens, roll
    /// aggregators, level clocks. Returns the post-barrier frontier (the
    /// makespan so far).
    fn master_phase(&mut self) -> u64 {
        let s = self.superstep;
        // Fold lane clocks into the worker machine clocks (the engine's
        // end-of-superstep `clocks.observe`).
        for w in 0..self.workers as usize {
            for l in 0..self.lanes_per_worker {
                let c = self.lanes[self.lane_idx(w as u32, l)].clock;
                self.floor[w] = self.floor[w].max(c);
            }
        }
        // Deliver everything still staged (write-all at the barrier).
        let keys: Vec<(u32, u32)> = self.staged.keys().copied().collect();
        for (f, t) in keys {
            self.flush_staged_sync(f, t);
        }
        self.sync.end_superstep(s, &self.transport);
        self.drain_actions();
        self.aggs.roll();
        self.metrics.inc(Counter::Supersteps);
        self.metrics.inc(Counter::Barriers);

        let frontier = *self.floor.iter().max().unwrap_or(&0);
        if self.trace.is_enabled() {
            for w in 0..self.workers {
                let now = self.floor[w as usize];
                self.trace
                    .record(w, s, TraceEventKind::BarrierWait, now, frontier - now, 0);
            }
        }
        let leveled = frontier + self.cost.barrier_ns;
        for lane in &mut self.lanes {
            lane.clock = leveled;
        }
        for f in &mut self.floor {
            *f = leveled;
        }
        leveled
    }

    /// Advance one lane: claim partitions, skip quiet vertices inline
    /// (zero virtual cost, no event spam), execute at most one costed
    /// vertex, then reschedule — or park on a contended lock.
    fn step_lane(&mut self, w: u32, l: u32, now: u64) {
        let li = self.lane_idx(w, l);
        self.lanes[li].pending_step = false;
        loop {
            match self.lanes[li].state {
                LaneState::Idle => return,
                LaneState::Scan => {
                    let k = self.claim[w as usize];
                    if k >= self.ppw {
                        self.lanes[li].state = LaneState::Idle;
                        return;
                    }
                    self.claim[w as usize] += 1;
                    let p = PartitionId::new(w * self.ppw + k);
                    let has_work = self.partition_has_work(p);
                    match self.sync.granularity() {
                        LockGranularity::Partition => {
                            if self.sync.unit_skippable(p.raw(), has_work) {
                                continue;
                            }
                            match self.sync.try_acquire_unit(p.raw(), &self.transport) {
                                None => {
                                    self.drain_actions();
                                    self.lanes[li].state = LaneState::WaitPartition { p };
                                    return;
                                }
                                Some(ready) => {
                                    self.drain_actions();
                                    self.note_lock_wait(w, li, ready, u64::from(p.raw()));
                                    self.lanes[li].state = LaneState::Run {
                                        p,
                                        vpos: 0,
                                        locked: true,
                                    };
                                }
                            }
                        }
                        LockGranularity::Vertex | LockGranularity::None => {
                            if !has_work {
                                continue;
                            }
                            self.lanes[li].state = LaneState::Run {
                                p,
                                vpos: 0,
                                locked: false,
                            };
                        }
                    }
                }
                LaneState::Run { p, vpos, locked } => {
                    let Some((v, vpos)) = self.next_runnable(p, vpos) else {
                        if locked {
                            let end = self.lanes[li].clock;
                            self.sync.release_unit(p.raw(), end, &self.transport);
                            self.drain_actions();
                            self.repoll_waiters(now);
                        }
                        self.lanes[li].state = LaneState::Scan;
                        continue;
                    };
                    if self.sync.granularity() == LockGranularity::Vertex {
                        match self.sync.try_acquire_unit(v.raw(), &self.transport) {
                            None => {
                                self.drain_actions();
                                self.lanes[li].state = LaneState::WaitVertex { p, vpos };
                                return;
                            }
                            Some(ready) => {
                                self.drain_actions();
                                self.note_lock_wait(w, li, ready, u64::from(v.raw()));
                                self.execute_vertex(w, li, v);
                                let end = self.lanes[li].clock;
                                self.sync.release_unit(v.raw(), end, &self.transport);
                                self.drain_actions();
                                self.repoll_waiters(now);
                            }
                        }
                    } else {
                        self.execute_vertex(w, li, v);
                    }
                    self.lanes[li].state = LaneState::Run {
                        p,
                        vpos: vpos + 1,
                        locked,
                    };
                    self.schedule_lane(w, l);
                    return;
                }
                LaneState::WaitPartition { p } => {
                    match self.sync.try_acquire_unit(p.raw(), &self.transport) {
                        None => {
                            self.drain_actions();
                            return; // still parked; a release will re-poll
                        }
                        Some(ready) => {
                            self.drain_actions();
                            self.note_lock_wait(w, li, ready, u64::from(p.raw()));
                            self.lanes[li].state = LaneState::Run {
                                p,
                                vpos: 0,
                                locked: true,
                            };
                        }
                    }
                }
                LaneState::WaitVertex { p, vpos } => {
                    let v = self.pm.vertices_in(p)[vpos as usize];
                    match self.sync.try_acquire_unit(v.raw(), &self.transport) {
                        None => {
                            self.drain_actions();
                            return;
                        }
                        Some(ready) => {
                            self.drain_actions();
                            self.note_lock_wait(w, li, ready, u64::from(v.raw()));
                            self.execute_vertex(w, li, v);
                            let end = self.lanes[li].clock;
                            self.sync.release_unit(v.raw(), end, &self.transport);
                            self.drain_actions();
                            self.repoll_waiters(now);
                            self.lanes[li].state = LaneState::Run {
                                p,
                                vpos: vpos + 1,
                                locked: false,
                            };
                            self.schedule_lane(w, l);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Next vertex of `p` at or after `vpos` that must run this superstep:
    /// not (halted with an empty inbox), and allowed by the technique's
    /// superstep gate. Gated vertices keep their messages and activity.
    fn next_runnable(&self, p: PartitionId, vpos: u32) -> Option<(VertexId, u32)> {
        let verts = self.pm.vertices_in(p);
        let s = self.superstep;
        for (i, &v) in verts.iter().enumerate().skip(vpos as usize) {
            if self.halted[v.index()] && self.inbox[v.index()].is_empty() {
                continue;
            }
            if !self.sync.vertex_allowed(s, v) {
                continue;
            }
            return Some((v, i as u32));
        }
        None
    }

    /// Advance the lane clock to `ready`, tracing the blocked gap.
    fn note_lock_wait(&mut self, w: u32, li: usize, ready: u64, unit: u64) {
        let clock = self.lanes[li].clock;
        let wait = ready.saturating_sub(clock);
        if wait > 0 {
            self.trace.record(
                w,
                self.superstep,
                TraceEventKind::LockWait,
                clock,
                wait,
                unit,
            );
            self.lanes[li].clock = ready;
        }
    }

    fn schedule_lane(&mut self, w: u32, l: u32) {
        let li = self.lane_idx(w, l);
        if !self.lanes[li].pending_step {
            self.lanes[li].pending_step = true;
            self.queue
                .push(self.lanes[li].clock, EventKind::Step { worker: w, lane: l });
        }
    }

    /// Wake every parked lane: a release may have yielded the forks it
    /// needs. Retries run at `max(now, lane clock)`.
    fn repoll_waiters(&mut self, now: u64) {
        for w in 0..self.workers {
            for l in 0..self.lanes_per_worker {
                let li = self.lane_idx(w, l);
                if matches!(
                    self.lanes[li].state,
                    LaneState::WaitPartition { .. } | LaneState::WaitVertex { .. }
                ) && !self.lanes[li].pending_step
                {
                    self.lanes[li].pending_step = true;
                    self.queue.push(
                        now.max(self.lanes[li].clock),
                        EventKind::Step { worker: w, lane: l },
                    );
                }
            }
        }
    }

    fn partition_has_work(&self, p: PartitionId) -> bool {
        self.pm
            .vertices_in(p)
            .iter()
            .any(|v| !self.halted[v.index()] || !self.inbox[v.index()].is_empty())
    }

    /// One vertex program invocation on lane `li` of worker `w`.
    fn execute_vertex(&mut self, w: u32, li: usize, v: VertexId) {
        let idx = v.index();
        let msgs = std::mem::take(&mut self.inbox[idx]);
        let n_in = msgs.len() as u64;
        let s = self.superstep;
        let start = self.lanes[li].clock;
        let guard = self.recorder.as_ref().map(|r| r.begin(v));

        let mut outgoing = std::mem::take(&mut self.scratch_out);
        let program = self.program;
        let halt = {
            let mut ctx = Context::<P>::external(
                v,
                s,
                w,
                &self.graph,
                &mut self.values[idx],
                &mut outgoing,
                &self.aggs,
                &self.trace,
                start,
            );
            program.compute(&mut ctx, &msgs);
            ctx.halted()
        };
        self.halted[idx] = halt;

        let n_out = outgoing.len() as u64;
        for (to, msg) in outgoing.drain(..) {
            if let Some(r) = &self.recorder {
                r.on_send(v, to);
            }
            let tw = self.pm.worker_of(to).raw();
            if tw == w {
                self.metrics.inc(Counter::LocalMessages);
                self.local_deliver(v, to, msg);
            } else {
                self.metrics.inc(Counter::RemoteMessages);
                self.stage_remote(w, tw, v, to, msg);
            }
        }
        self.scratch_out = outgoing;

        if let (Some(r), Some(g)) = (self.recorder.as_ref(), guard) {
            r.end(g);
        }
        let cost = self.cost.vertex_cost(n_in, n_out);
        self.trace
            .record(w, s, TraceEventKind::VertexExecute, start, cost, n_in);
        self.lanes[li].clock = start + cost;
        if n_out > 0 {
            self.trace.record(
                w,
                s,
                TraceEventKind::MessageSend,
                self.lanes[li].clock,
                0,
                n_out,
            );
        }
        self.metrics.inc(Counter::VertexExecutions);
    }

    /// Insert into a vertex's inbox, applying the combiner (at most one
    /// queued message per vertex when combining — engine semantics).
    fn inbox_insert(&mut self, sender: VertexId, to: VertexId, msg: P::Message) {
        let slot = &mut self.inbox[to.index()];
        match self.combiner {
            Some(c) if !slot.is_empty() => {
                let old = slot.pop().expect("non-empty");
                slot.push(c.combine(old, msg));
            }
            _ => slot.push(msg),
        }
        if let Some(r) = &self.recorder {
            r.on_visible(sender, to);
        }
    }

    fn local_deliver(&mut self, sender: VertexId, to: VertexId, msg: P::Message) {
        self.inbox_insert(sender, to, msg);
    }

    /// Stage a remote message, sender-side combining per recipient; flush
    /// as a wire batch when the staged run reaches `buffer_cap`.
    fn stage_remote(
        &mut self,
        from: u32,
        to_w: u32,
        sender: VertexId,
        to: VertexId,
        msg: P::Message,
    ) {
        let run = self.staged.entry((from, to_w)).or_default();
        if let Some(c) = self.combiner {
            if let Some(&i) = run.index.get(&to.raw()) {
                let entry = &mut run.run[i];
                entry.1 = sender;
                let old = entry.2.clone();
                entry.2 = c.combine(old, msg);
                self.metrics.inc(Counter::SenderCombines);
                return;
            }
            run.index.insert(to.raw(), run.run.len());
        }
        run.run.push((to, sender, msg));
        if run.run.len() >= self.buffer_cap {
            self.flush_staged_wire(from, to_w);
        }
    }

    /// Ship the staged `(from, to)` run as an in-flight batch: the sender
    /// machine pays assembly overhead, the batch arrives after the link's
    /// latency plus its bandwidth term.
    fn flush_staged_wire(&mut self, from: u32, to: u32) {
        let Some(run) = self.staged.remove(&(from, to)) else {
            return;
        };
        if run.run.is_empty() {
            return;
        }
        let n = run.run.len() as u64;
        self.metrics.inc(Counter::StagingFlushes);
        self.metrics.inc(Counter::RemoteBatches);
        self.floor[from as usize] += self.cost.batch_overhead_ns;
        let send_t = self.floor[from as usize];
        let lat = self.transport.net().batch_latency_ns(from, to, n);
        self.trace.record_peer(
            from,
            self.superstep,
            TraceEventKind::BatchFlush,
            send_t,
            lat,
            n,
            to,
        );
        let arrival = send_t + lat;
        let id = self.batches.len();
        self.batches.push(Some(Batch {
            from,
            to,
            arrival,
            entries: run.run,
        }));
        self.queue
            .push(arrival, EventKind::Deliver { batch: id as u32 });
    }

    /// Flush the staged `(from, to)` run and apply it immediately — the
    /// write-all path (fork handovers, barrier). The receiver's machine
    /// clock still joins the simulated arrival instant.
    fn flush_staged_sync(&mut self, from: u32, to: u32) {
        let Some(run) = self.staged.remove(&(from, to)) else {
            return;
        };
        if run.run.is_empty() {
            return;
        }
        let n = run.run.len() as u64;
        self.metrics.inc(Counter::StagingFlushes);
        self.metrics.inc(Counter::RemoteBatches);
        self.floor[from as usize] += self.cost.batch_overhead_ns;
        let send_t = self.floor[from as usize];
        let lat = self.transport.net().batch_latency_ns(from, to, n);
        self.trace.record_peer(
            from,
            self.superstep,
            TraceEventKind::BatchFlush,
            send_t,
            lat,
            n,
            to,
        );
        let arrival = send_t + lat;
        self.floor[to as usize] = self.floor[to as usize].max(arrival);
        for (to_v, sender, m) in run.run {
            self.inbox_insert(sender, to_v, m);
        }
    }

    /// A `Deliver` event fired: apply the batch (unless a write-all flush
    /// already applied it early) and join the receiver's clock.
    fn apply_batch(&mut self, id: usize) {
        let Some(b) = self.batches[id].take() else {
            return;
        };
        self.floor[b.to as usize] = self.floor[b.to as usize].max(b.arrival);
        for (to_v, sender, m) in b.entries {
            self.inbox_insert(sender, to_v, m);
        }
    }

    /// Write-all for worker `from`: apply every in-flight batch it has on
    /// the wire (the engine's in-flight fence) before a fork handover.
    fn apply_in_flight_from(&mut self, from: u32) {
        for id in 0..self.batches.len() {
            if self.batches[id]
                .as_ref()
                .map(|b| b.from == from)
                .unwrap_or(false)
            {
                self.apply_batch(id);
            }
        }
    }

    /// Apply the protocol-level network actions the technique recorded
    /// during its last call: fork/token handovers perform the C1
    /// write-all flush; ring passes additionally gate the receiving
    /// worker behind the coordinator uplink.
    fn drain_actions(&mut self) {
        for a in self.transport.drain() {
            match a {
                NetAction::Transfer { from, to, unit } => {
                    self.apply_in_flight_from(from);
                    let outs: Vec<u32> = self
                        .staged
                        .keys()
                        .filter(|(f, _)| *f == from)
                        .map(|(_, t)| *t)
                        .collect();
                    for t in outs {
                        self.flush_staged_sync(from, t);
                    }
                    let ring = self.sync.granularity() == LockGranularity::None;
                    let net = *self.transport.net();
                    let (kind, lat) = if ring {
                        (TraceEventKind::RingPass, net.uplink_latency_ns(from, to))
                    } else {
                        (TraceEventKind::ForkTransfer, net.link_latency_ns(from, to))
                    };
                    let now = self.floor[from as usize];
                    if ring {
                        // The token gates the whole worker.
                        self.floor[to as usize] = self.floor[to as usize].max(now + lat);
                    }
                    self.trace.record_peer(
                        from,
                        self.superstep,
                        kind,
                        now,
                        lat,
                        if unit == u64::MAX { 0 } else { unit },
                        to,
                    );
                }
                NetAction::Request { from, to } => {
                    self.trace.record_peer(
                        from,
                        self.superstep,
                        TraceEventKind::RequestToken,
                        self.floor[from as usize],
                        0,
                        0,
                        to,
                    );
                }
            }
        }
    }

    /// After the event queue drains, every lane must be `Idle`; a parked
    /// lane means the protocol deadlocked (which Chandy–Misra hygiene
    /// should make impossible — report the wait-for edges if it happens).
    fn blocked_report(&self) -> Option<String> {
        let mut stuck = Vec::new();
        for w in 0..self.workers {
            for l in 0..self.lanes_per_worker {
                let li = self.lane_idx(w, l);
                let unit = match self.lanes[li].state {
                    LaneState::WaitPartition { p } => Some(p.raw()),
                    LaneState::WaitVertex { p, vpos } => {
                        Some(self.pm.vertices_in(p)[vpos as usize].raw())
                    }
                    LaneState::Idle => None,
                    // Scan/Run with no pending event cannot happen: those
                    // states always reschedule before returning.
                    _ => Some(u32::MAX),
                };
                if let Some(u) = unit {
                    let waiting = if u == u32::MAX {
                        Vec::new()
                    } else {
                        self.sync.unit_waiting_on(u)
                    };
                    stuck.push(format!(
                        "worker {w} lane {l}: unit {u} waits on {waiting:?}"
                    ));
                }
            }
        }
        if stuck.is_empty() {
            None
        } else {
            Some(format!(
                "simulation deadlock in superstep {}: {}",
                self.superstep,
                stuck.join("; ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_algos::{GreedyColoring, Sssp, Wcc};
    use sg_graph::gen;

    fn config(workers: u32, technique: TechniqueKind) -> EngineConfig {
        EngineConfig {
            workers,
            threads_per_worker: 2,
            technique,
            record_history: true,
            max_supersteps: 200,
            ..EngineConfig::default()
        }
    }

    fn run_coloring(workers: u32, technique: TechniqueKind, opts: &SimOptions) -> SimReport<u32> {
        let g = gen::ring(64);
        simulate(
            Arc::new(g),
            GreedyColoring,
            None,
            &config(workers, technique),
            opts,
        )
        .expect("simulate")
    }

    fn assert_proper_coloring(g: &Graph, colors: &[u32]) {
        for v in 0..g.num_vertices() {
            for &u in g.out_neighbors(VertexId::new(v)) {
                assert_ne!(
                    colors[v as usize],
                    colors[u.index()],
                    "conflict on edge {v} -- {}",
                    u.raw()
                );
            }
        }
    }

    #[test]
    fn all_async_techniques_color_a_ring_serializably() {
        for technique in [
            TechniqueKind::SingleToken,
            TechniqueKind::DualToken,
            TechniqueKind::VertexLock,
            TechniqueKind::PartitionLock,
            TechniqueKind::PartitionLockNoSkip,
        ] {
            let r = run_coloring(4, technique, &SimOptions::default());
            assert!(r.outcome.converged, "{technique:?} did not converge");
            let g = gen::ring(64);
            assert_proper_coloring(&g, &r.outcome.values);
            let history = r.outcome.history.as_ref().expect("recorded");
            assert!(
                history.is_one_copy_serializable(&g),
                "{technique:?} produced a non-1SR history"
            );
        }
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let opts = SimOptions::with_jitter(15, 0xABCD);
        let a = run_coloring(4, TechniqueKind::PartitionLock, &opts);
        let b = run_coloring(4, TechniqueKind::PartitionLock, &opts);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcome.makespan_ns, b.outcome.makespan_ns);
        assert_eq!(a.outcome.values, b.outcome.values);

        let c = run_coloring(
            4,
            TechniqueKind::PartitionLock,
            &SimOptions::with_jitter(15, 99),
        );
        assert_ne!(
            a.outcome.makespan_ns, c.outcome.makespan_ns,
            "different jitter seed should perturb virtual time"
        );
    }

    #[test]
    fn wcc_matches_ground_truth_with_combiner() {
        let g = gen::ring(40);
        let r = simulate(
            Arc::new(g),
            Wcc,
            Some(Box::new(Wcc::combiner())),
            &config(4, TechniqueKind::DualToken),
            &SimOptions::default(),
        )
        .expect("simulate");
        assert!(r.outcome.converged);
        // One ring, one component: every vertex ends at the minimum id.
        assert!(r.outcome.values.iter().all(|&c| c == 0));
    }

    #[test]
    fn sssp_distances_are_exact_on_a_ring() {
        let n = 32u32;
        let g = gen::ring(n);
        let r = simulate(
            Arc::new(g),
            Sssp::new(VertexId::new(0)),
            Some(Box::new(Sssp::combiner())),
            &config(4, TechniqueKind::PartitionLock),
            &SimOptions::default(),
        )
        .expect("simulate");
        assert!(r.outcome.converged);
        for v in 0..n {
            let expect = u64::from(v.min(n - v));
            assert_eq!(r.outcome.values[v as usize], expect, "vertex {v}");
        }
    }

    #[test]
    fn bsp_and_bsp_vertex_lock_are_rejected() {
        let g = Arc::new(gen::ring(8));
        let mut cfg = config(2, TechniqueKind::None);
        cfg.model = Model::Bsp;
        assert!(simulate(
            Arc::clone(&g),
            GreedyColoring,
            None,
            &cfg,
            &SimOptions::default()
        )
        .is_err());
    }

    #[test]
    fn trace_events_carry_simulated_timestamps() {
        let g = Arc::new(gen::ring(64));
        let mut cfg = config(4, TechniqueKind::PartitionLock);
        cfg.obs.trace = true;
        cfg.obs.trace_capacity = 4096;
        let r = simulate(g, GreedyColoring, None, &cfg, &SimOptions::default()).expect("simulate");
        let obs = r.outcome.obs.expect("trace on");
        let buf = obs.trace.expect("buffer");
        let events = buf.all_events();
        assert!(!events.is_empty());
        let kinds: std::collections::BTreeSet<_> =
            events.iter().map(|e| format!("{:?}", e.kind)).collect();
        assert!(kinds.contains("VertexExecute"), "kinds: {kinds:?}");
        assert!(kinds.contains("BarrierWait"), "kinds: {kinds:?}");
        assert!(
            events.iter().all(|e| e.ts_ns <= r.outcome.makespan_ns),
            "event timestamps exceed makespan"
        );
    }
}
