//! The discrete-event simulation core.
//!
//! One OS thread walks a binary-heap event queue over virtual time. Each
//! simulated worker machine owns `threads_per_worker` *lanes* (simulated
//! compute threads); a lane's `Step` event claims partitions and follows
//! each one's [`PartitionWalk`] through [`Cycle::run_partition`] — the
//! product's own scan/acquire/release order and vertex transaction, not a
//! transcription of them — or retries a blocked lock acquisition. Remote
//! message batches travel as `Deliver` events through the `NetModel`.
//!
//! The synchronization techniques are the **unmodified** `sg-sync`
//! protocol objects: where the walk says acquire the simulation polls
//! [`Synchronizer::try_acquire_unit`] and parks the lane, exactly as the
//! model checker does, and their transport is the same
//! [`QueueTransport`] the model checker drains: each queued action is
//! applied right after the protocol call that made it returns. The fork
//! table keeps no clock: a granted unit's lock wait ends when its last
//! fork arrived, which [`EatOrder`] works out from the order units ate in,
//! the unit's [`Synchronizer::fork_neighbors`] and the `NetModel`'s links.
//!
//! Fidelity notes (what the simulator's IO half shares with `sg-engine`):
//! * inboxes are the engine's own [`InboxPair`], fed through the
//!   program's combiner: a local message is readable at once under the
//!   asynchronous model and after the barrier under BSP;
//! * remote messages stage in the engine's own [`StagingBuffers`], one per
//!   worker, combine sender-side, and flush as batches when `buffer_cap`
//!   accumulate; a batch lands through the engine's own
//!   [`InboxPair::deliver_batch`];
//! * a fork/token handover performs the write-all flush of the sender's
//!   outbound messages *synchronously* (condition C1) — in-flight batches
//!   from that worker are applied before the handover completes;
//! * each worker machine's clock is a row of [`SimClocks`]: batch assembly
//!   advances the sender's, an arrival joins the receiver's;
//! * a superstep closes in the engine's own [`barrier::close`] — write-all,
//!   the technique's end of superstep, the BSP flip, the aggregators — after
//!   which the simulator levels its clocks to the frontier plus
//!   `barrier_ns`, and stops on the engine's own [`barrier::halts`] verdict;
//! * virtual time is the simulator's alone: [`SimOptions::cost`] prices it;
//!   the trace and the per-worker / per-superstep breakdowns are in it.

use crate::event::{EventKind, EventQueue};
use crate::net::NetModel;
use sg_engine::barrier::{self, BarrierHost, BarrierParts};
use sg_engine::state::{gather_values, PartitionData};
use sg_engine::store::{InboxPair, Routed, StagingBuffers};
use sg_engine::{
    build_synchronizer, AggregatorSet, Combiner, Cycle, EngineConfig, EngineError, Env, Executed,
    Host, Outcome, VertexProgram,
};
use sg_graph::{Graph, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{
    CostModel, Counter, EatOrder, Metrics, MetricsSnapshot, ObsReport, SimClocks, SuperstepRow,
    Trace, TraceEventKind, WorkerTimers,
};
use sg_serial::Recorder;
use sg_sync::{LockGranularity, NetAction, PartitionWalk, QueueTransport, Synchronizer};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// The simulated machine (everything else comes from the shared
/// [`EngineConfig`]): what each operation costs in virtual time, and how
/// the links between workers vary around the cost model's wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Virtual-time price of every vertex execution, message, batch, hop
    /// and barrier. The simulated wire (each link's latency, each remote
    /// message's cost) derives from it.
    pub cost: CostModel,
    /// Deterministic per-directed-link jitter, ± percent of the wire
    /// latency. 0 = uniform links.
    pub jitter_pct: u32,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl SimOptions {
    /// The default machine, its links jittered by ± `pct` percent, seeded
    /// by `seed`.
    pub fn with_jitter(pct: u32, seed: u64) -> Self {
        Self {
            jitter_pct: pct,
            seed,
            ..Self::default()
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

/// One simulated compute thread: a clock, the walk of the partition it
/// has claimed, and whether it is parked on a contended unit. Since its
/// clock was seeded at the superstep's start it advanced by vertex
/// executions (`busy`) and waits for a unit's last fork (`blocked`):
/// `clock - seed == busy + blocked`, exactly.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    clock: u64,
    busy: u64,
    blocked: u64,
    /// `None` between partitions (and once the worker's claims run out).
    walk: Option<PartitionWalk>,
    /// The unit whose forks the lane waits for; a release re-polls it.
    parked: Option<u32>,
    pending_step: bool,
}

impl Lane {
    /// `unit` became available at `ready`: if the lane had to wait, trace
    /// the gap and advance the clock over it, as blocked time.
    fn charge_lock_wait(&mut self, trace: &Trace, w: u32, s: u64, ready: u64, unit: u32) {
        let wait = ready.saturating_sub(self.clock);
        if wait > 0 {
            let kind = TraceEventKind::LockWait;
            trace.record(w, s, kind, self.clock, wait, unit.into());
            (self.clock, self.blocked) = (ready, self.blocked + wait);
        }
    }

    /// Charge the execution whose `(consumed, sent)` counts the cycle
    /// returned, as busy time: a `VertexExecute` span of the model's cost,
    /// then a `MessageSend` marker if it sent.
    fn charge_virtual(&mut self, cost: &CostModel, trace: &Trace, w: u32, s: u64, n: (u64, u64)) {
        let ns = cost.vertex_cost(n.0, n.1);
        let kind = TraceEventKind::VertexExecute;
        trace.record(w, s, kind, self.clock, ns, n.0);
        (self.clock, self.busy) = (self.clock + ns, self.busy + ns);
        if n.1 > 0 {
            trace.record(w, s, TraceEventKind::MessageSend, self.clock, 0, n.1);
        }
    }
}

/// A batch in flight between two workers.
struct Batch<M> {
    to: u32,
    arrival: u64,
    entries: Vec<Routed<M>>,
}

struct Sim<'a, P: VertexProgram> {
    program: &'a P,
    combiner: Option<&'a dyn Combiner<P::Message>>,
    pm: &'a PartitionMap,
    sync: Arc<dyn Synchronizer>,
    transport: QueueTransport,
    /// When each protocol unit last ate, for its neighbours' fork arrivals.
    eats: EatOrder,
    net: NetModel,
    cost: CostModel,
    metrics: &'a Metrics,
    trace: &'a Trace,
    aggs: &'a AggregatorSet,
    buffer_cap: usize,
    superstep: u64,

    /// Incoming messages, per partition: the engine's own inboxes, which
    /// the cycle drains and delivers to as well.
    inboxes: &'a InboxPair<P::Message>,

    ppw: u32,
    lanes_per_worker: u32,
    lanes: Vec<Lane>,
    /// Per-worker next-partition claim index.
    claim: Vec<u32>,
    /// Per-worker machine clocks: advanced by batch assembly, joined by
    /// arrivals, ring passes and the lanes' own clocks, levelled at the
    /// barrier.
    clocks: SimClocks,
    /// Per-worker busy/blocked/idle, when breakdown is on.
    timers: Option<WorkerTimers>,
    /// Per-superstep counter deltas, when breakdown is on.
    rows: Vec<SuperstepRow>,
    last_snapshot: MetricsSnapshot,

    /// Per-worker outbound staging, plus the destinations each worker has
    /// staged for since its last write-all (so a 512-worker barrier visits
    /// what is dirty, not a workers × workers table).
    staging: Vec<StagingBuffers<P::Message>>,
    dirty: Vec<Vec<u32>>,
    /// Every batch put on the wire, by id; `None` once applied.
    batches: Vec<Option<Batch<P::Message>>>,
    /// Per sender, the ids of its batches possibly still on the wire,
    /// ascending: what its next fork handover must apply first.
    in_flight: Vec<Vec<u32>>,
    queue: EventQueue,

    digest: u64,
    events: u64,
}

/// Run `program` over `graph` on the simulated cluster described by
/// `config` and `opts`, returning the engine-shaped outcome plus the
/// determinism digest.
///
/// The simulator hosts both models and every technique the engine pairs
/// with them, Proposition 1 included. Barrierless and checkpointing /
/// failure-injection runs remain the in-process engine's territory.
pub fn simulate<P: VertexProgram>(
    graph: Arc<Graph>,
    program: P,
    combiner: Option<Box<dyn Combiner<P::Message>>>,
    config: &EngineConfig,
    opts: &SimOptions,
) -> Result<SimReport<P::Value>, EngineError> {
    config.validate()?;
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
    let lanes_per_worker = config.lanes_per_worker(&*sync);

    let net = NetModel::new(&opts.cost, opts.jitter_pct, opts.seed);
    let trace = config.obs.trace_handle(workers as usize);
    let record_history = config.record_history || config.obs.audit;
    let recorder = record_history.then(|| Arc::new(Recorder::new(Arc::clone(&graph))));

    let n = graph.num_vertices() as usize;
    let init = |p| PartitionData::init(&program, &graph, &pm, p);
    let mut parts: Vec<_> = pm.layout().partitions().map(init).collect();
    let inboxes = InboxPair::new(&pm, config.model, recorder.clone(), None);
    let mut aggs = AggregatorSet::new();
    program.register_aggregators(&mut aggs);

    let mut cycle = Cycle::new(Env {
        program: &program,
        graph: &graph,
        pm: &pm,
        sync: &*sync,
        inboxes: &inboxes,
        combiner: combiner.as_deref(),
        aggregators: &aggs,
        trace: &trace,
        recorder: recorder.as_deref(),
        metrics: &metrics,
    });
    let mut sim = Sim {
        program: &program,
        combiner: combiner.as_deref(),
        pm: &pm,
        eats: EatOrder::new(match sync.granularity() {
            LockGranularity::None => 0,
            LockGranularity::Partition => pm.layout().num_partitions() as usize,
            LockGranularity::Vertex => n,
        }),
        sync: Arc::clone(&sync),
        transport: QueueTransport::default(),
        net,
        cost: opts.cost,
        metrics: &metrics,
        trace: &trace,
        aggs: &aggs,
        buffer_cap: config.buffer_cap,
        superstep: 0,
        inboxes: &inboxes,
        ppw,
        lanes_per_worker,
        lanes: vec![Lane::default(); (workers * lanes_per_worker) as usize],
        claim: vec![0; workers as usize],
        clocks: SimClocks::new(workers as usize),
        timers: config
            .obs
            .breakdown
            .then(|| WorkerTimers::new(workers as usize)),
        rows: Vec::new(),
        last_snapshot: MetricsSnapshot::default(),
        staging: (0..workers)
            .map(|_| StagingBuffers::new(workers as usize, combiner.is_some()))
            .collect(),
        dirty: vec![Vec::new(); workers as usize],
        batches: Vec::new(),
        in_flight: vec![Vec::new(); workers as usize],
        queue: EventQueue::new(),
        digest: FNV_OFFSET,
        events: 0,
    };

    let (converged, executed, makespan) = sim.run(&mut cycle, &mut parts, config.max_supersteps)?;

    let metrics_snapshot = sim.metrics.snapshot();
    let obs = config.obs.enabled().then(|| ObsReport {
        per_worker: sim
            .timers
            .as_ref()
            .map_or_else(Vec::new, |t| t.breakdown(makespan)),
        per_superstep: std::mem::take(&mut sim.rows),
        trace: sim.trace.buffer().cloned(),
        totals: metrics_snapshot,
        makespan_ns: makespan,
        stalled: false,
    });
    let history = recorder.as_deref().map(Recorder::take_history);
    let audit = (config.obs.audit)
        .then(|| history.as_ref().map(|h| h.summarize(&graph)))
        .flatten();
    let digest = fnv_fold(sim.digest, makespan);

    Ok(SimReport {
        outcome: Outcome {
            values: gather_values(&parts, n),
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
    /// Run supersteps over `parts`, every partition's vertex state, until
    /// the barrier halts the run or `max_supersteps` is reached.
    fn run(
        &mut self,
        cycle: &mut Cycle<'_, P>,
        parts: &mut [PartitionData<P::Value>],
        max_supersteps: u64,
    ) -> Result<(bool, u64, u64), EngineError> {
        let mut executed = 0u64;
        let mut converged = false;
        let lpw = self.lanes_per_worker as usize;
        loop {
            // Reset claims; wake every lane at its worker's (barrier-
            // levelled) clock.
            self.claim.fill(0);
            for li in 0..self.lanes.len() {
                let lane = &mut self.lanes[li];
                (lane.clock, lane.busy, lane.blocked) = (self.clocks.now(li / lpw), 0, 0);
                self.wake(li, 0);
            }
            while let Some(ev) = self.queue.pop() {
                self.events += 1;
                let (k, payload) = ev.kind.digest_words();
                self.digest = fnv_fold(self.digest, ev.at);
                self.digest = fnv_fold(self.digest, (k << 56) | payload);
                match ev.kind {
                    EventKind::Deliver { batch } => self.apply_batch(batch as usize),
                    EventKind::Step { worker, lane } => {
                        self.step_lane(cycle, parts, worker, lane, ev.at)
                    }
                }
            }
            if let Some(report) = self.blocked_report() {
                return Err(EngineError::InvalidConfig(report));
            }
            // Fold lane clocks into the worker machine clocks (the engine's
            // end-of-superstep `clocks.observe`). The event queue has
            // drained: nothing is on the wire any more.
            for (li, lane) in self.lanes.iter().enumerate() {
                self.clocks.observe(li / lpw, lane.clock);
            }
            self.in_flight.iter_mut().for_each(Vec::clear);
            let s = self.superstep;
            barrier::close(self, s);
            self.level_clocks(s);
            executed += 1;
            let active: usize = parts.iter().map(PartitionData::active_count).sum();
            let pending = self.inboxes.queued();
            if barrier::halts(self.program, s, self.aggs, active, pending) {
                converged = true;
                break;
            }
            if executed >= max_supersteps {
                break;
            }
            self.superstep += 1;
        }
        Ok((converged, executed, self.clocks.makespan()))
    }

    /// Advance one lane: claim partitions and follow each one's walk —
    /// quiet vertices are skipped inline (zero virtual cost, no event
    /// spam) — through at most one costed vertex, then reschedule; or park
    /// on a contended unit.
    fn step_lane(
        &mut self,
        cycle: &mut Cycle<'_, P>,
        parts: &mut [PartitionData<P::Value>],
        w: u32,
        l: u32,
        now: u64,
    ) {
        let li = (w * self.lanes_per_worker + l) as usize;
        self.lanes[li].pending_step = false;
        let s = self.superstep;
        let per_vertex = self.sync.granularity() == LockGranularity::Vertex;
        loop {
            let mut walk = match self.lanes[li].walk.take() {
                Some(walk) => walk,
                None => {
                    let k = self.claim[w as usize];
                    if k >= self.ppw {
                        return; // done with this superstep
                    }
                    self.claim[w as usize] += 1;
                    cycle.walk(&parts[(w * self.ppw + k) as usize])
                }
            };
            let data = &mut parts[walk.partition().index()];
            let mut host = LaneHost {
                sim: self,
                w,
                li,
                now,
                per_vertex,
            };
            let flow = cycle.run_partition(&mut host, &mut walk, data, s, w);
            if flow.is_break() {
                // Resumed at its next step, or, parked, when a release
                // re-polls it.
                self.lanes[li].walk = Some(walk);
                if self.lanes[li].parked.is_none() {
                    self.wake(li, 0);
                }
                return;
            }
        }
    }

    /// The virtual time the last fork of the just-granted `unit` (a vertex
    /// when `per_vertex`, else a partition) arrived at its worker.
    fn forks_ready(&self, unit: u32, per_vertex: bool) -> u64 {
        let worker = |u: u32| {
            let w = if per_vertex {
                self.pm.worker_of(VertexId::new(u))
            } else {
                self.pm.layout().worker_of_partition(PartitionId::new(u))
            };
            w.raw()
        };
        let at = worker(unit);
        let latency = |q| self.net.link_latency_ns(worker(q), at);
        self.eats
            .ready(unit, self.sync.fork_neighbors(unit), latency)
    }

    /// Schedule lane `li`'s next step at `max(at, its clock)`, unless one
    /// is already queued.
    fn wake(&mut self, li: usize, at: u64) {
        let lane = &mut self.lanes[li];
        if !std::mem::replace(&mut lane.pending_step, true) {
            let (li, lpw) = (li as u32, self.lanes_per_worker);
            let (worker, lane_no) = (li / lpw, li % lpw);
            let step = EventKind::Step {
                worker,
                lane: lane_no,
            };
            self.queue.push(at.max(lane.clock), step);
        }
    }

    /// Ship the staged `(from, to)` run as one batch: the sender machine
    /// pays assembly overhead, the batch arrives after the link's latency
    /// plus its bandwidth term. On the write-all path (fork handovers, the
    /// barrier) it is applied immediately — the receiver's machine clock
    /// still joins the simulated arrival instant; otherwise it travels as
    /// a `Deliver` event.
    fn flush_staged(&mut self, from: u32, to: u32, write_all: bool) {
        let entries = std::mem::take(self.staging[from as usize].take_run(to as usize));
        if entries.is_empty() {
            return;
        }
        let n = entries.len() as u64;
        self.metrics.inc(Counter::StagingFlushes);
        self.metrics.inc(Counter::RemoteBatches);
        let send_t = self
            .clocks
            .advance(from as usize, self.cost.batch_overhead_ns);
        let lat = self.net.batch_latency_ns(from, to, n);
        self.trace.record_peer(
            from,
            self.superstep,
            TraceEventKind::BatchFlush,
            send_t,
            lat,
            n,
            to,
        );
        let batch = Batch {
            to,
            arrival: send_t + lat,
            entries,
        };
        if write_all {
            self.apply(batch);
        } else {
            let id = self.batches.len() as u32;
            self.queue
                .push(batch.arrival, EventKind::Deliver { batch: id });
            self.in_flight[from as usize].push(id);
            self.batches.push(Some(batch));
        }
    }

    /// Write-all of everything worker `from` has staged, in ascending
    /// destination order (the order replay determinism is pinned to); a
    /// destination listed twice, or already flushed, flushes nothing.
    fn write_all_from(&mut self, from: u32) {
        let mut dests = std::mem::take(&mut self.dirty[from as usize]);
        dests.sort_unstable();
        for to in dests {
            self.flush_staged(from, to, true);
        }
    }

    /// Join the receiver's clock with the batch's arrival and deliver it.
    fn apply(&mut self, b: Batch<P::Message>) {
        self.clocks.observe(b.to as usize, b.arrival);
        let slots: Vec<_> = b.entries.iter().map(|r| self.pm.slot_of(r.0)).collect();
        self.inboxes
            .deliver_batch(WorkerId::new(b.to), &slots, &b.entries, self.combiner);
    }

    /// A `Deliver` event fired: apply the batch, unless a write-all flush
    /// already applied it early.
    fn apply_batch(&mut self, id: usize) {
        if let Some(b) = self.batches[id].take() {
            self.apply(b);
        }
    }

    /// Apply the protocol-level network actions the technique recorded
    /// during its last call: fork/token handovers perform the C1
    /// write-all flush; ring passes additionally gate the receiving
    /// worker's whole machine behind the hop.
    fn drain_actions(&mut self) {
        for a in self.transport.drain() {
            match a {
                NetAction::Transfer { from, to, unit } => {
                    // Write-all: every batch `from` has on the wire, in
                    // the order it sent them (the engine's in-flight fence),
                    // then everything it has staged.
                    let (from, to) = (from.raw(), to.raw());
                    for id in std::mem::take(&mut self.in_flight[from as usize]) {
                        self.apply_batch(id as usize);
                    }
                    self.write_all_from(from);
                    let ring = unit.is_none();
                    let lat = self.net.link_latency_ns(from, to);
                    let kind = if ring {
                        TraceEventKind::RingPass
                    } else {
                        TraceEventKind::ForkTransfer
                    };
                    let now = self.clocks.now(from as usize);
                    if ring {
                        // The token gates the whole worker.
                        self.clocks.observe(to as usize, now + lat);
                    }
                    self.trace.record_peer(
                        from,
                        self.superstep,
                        kind,
                        now,
                        lat,
                        unit.map_or(0, u64::from),
                        to,
                    );
                }
                NetAction::Request { from, to } => {
                    self.trace.record_peer(
                        from.raw(),
                        self.superstep,
                        TraceEventKind::RequestToken,
                        self.clocks.now(from.index()),
                        0,
                        0,
                        to.raw(),
                    );
                }
            }
        }
    }

    /// The barrier on the simulated clocks: each worker's gap behind the
    /// frontier is a `BarrierWait`, its idle time and its skew; then every
    /// clock jumps to the frontier plus `barrier_ns`, and the superstep's
    /// counter deltas close at the new makespan. A worker's busy and blocked
    /// are those of the lane whose clock it adopted — the last to finish of
    /// those that ran — so they are exactly that lane's clock advance,
    /// however many sibling lanes were blocked over the same interval.
    fn level_clocks(&mut self, s: u64) {
        let frontier = self.clocks.makespan();
        let lanes = self.lanes.chunks(self.lanes_per_worker as usize);
        for (w, lanes) in lanes.enumerate() {
            let gap = frontier - self.clocks.now(w);
            let kind = TraceEventKind::BarrierWait;
            self.trace.record(w as u32, s, kind, frontier - gap, gap, 0);
            if let Some(t) = &self.timers {
                let ran = lanes.iter().filter(|l| l.busy + l.blocked > 0);
                let row = ran.max_by_key(|l| l.clock).copied().unwrap_or_default();
                t.add_busy(w, row.busy);
                t.add_blocked(w, row.blocked);
                t.add_idle(w, gap);
                t.set_skew(w, gap);
            }
        }
        self.clocks.barrier(self.cost.barrier_ns);
        if self.timers.is_some() {
            let snap = self.metrics.snapshot();
            self.rows.push(SuperstepRow {
                superstep: s,
                delta: snap - self.last_snapshot,
                makespan_ns: self.clocks.makespan(),
            });
            self.last_snapshot = snap;
        }
    }

    /// After the event queue drains no lane may still be parked: that
    /// means the protocol deadlocked (which Chandy–Misra hygiene should
    /// make impossible — report the wait-for edges if it happens).
    fn blocked_report(&self) -> Option<String> {
        let stuck: Vec<String> = (self.lanes.iter().enumerate())
            .filter_map(|(i, lane)| {
                let (u, lpw) = (lane.parked?, self.lanes_per_worker as usize);
                let waiting = self.sync.unit_waiting_on(u);
                Some(format!(
                    "worker {} lane {}: unit {u} waits on {waiting:?}",
                    i / lpw,
                    i % lpw
                ))
            })
            .collect();
        (!stuck.is_empty()).then(|| {
            format!(
                "simulation deadlock in superstep {}: {}",
                self.superstep,
                stuck.join("; ")
            )
        })
    }
}

/// The simulator closes a superstep with the engine's own barrier step:
/// its write-all is the one a fork handover performs, and what the
/// technique queued on the transport is applied right after its call.
impl<P: VertexProgram> BarrierHost for Sim<'_, P> {
    type Message = P::Message;

    fn write_all(&mut self, w: usize) {
        self.write_all_from(w as u32);
    }

    fn apply_actions(&mut self) {
        self.drain_actions();
    }

    fn parts(&self) -> BarrierParts<'_, P::Message> {
        BarrierParts {
            sync: &*self.sync,
            transport: &self.transport,
            inboxes: self.inboxes,
            pm: self.pm,
            aggregators: self.aggs,
            metrics: self.metrics,
        }
    }
}

/// The simulator's side of a partition walk, lane `li` of worker `w`
/// walking it in the `Step` event at `now`: it polls for a unit, parks the
/// lane on a contended one, and prices each step in virtual time. Of the
/// transaction it keeps only the remote path: the partition's state and
/// inbox are the cycle's, and a simulated value is published to nobody.
struct LaneHost<'s, 'a, P: VertexProgram> {
    sim: &'s mut Sim<'a, P>,
    w: u32,
    li: usize,
    now: u64,
    per_vertex: bool,
}

impl<P: VertexProgram> Host<P> for LaneHost<'_, '_, P> {
    /// Poll; on a grant, the lane waits until the unit's last fork arrived.
    fn acquire(&mut self, unit: u32) -> ControlFlow<()> {
        let sim = &mut *self.sim;
        let got = sim.sync.try_acquire_unit(unit, &sim.transport);
        sim.lanes[self.li].parked = (!got).then_some(unit);
        sim.drain_actions();
        if !got {
            return ControlFlow::Break(());
        }
        let ready = sim.forks_ready(unit, self.per_vertex);
        let (trace, s) = (sim.trace, sim.superstep);
        sim.lanes[self.li].charge_lock_wait(trace, self.w, s, ready, unit);
        ControlFlow::Continue(())
    }

    /// Stamped with the lane's clock, it may yield the forks a parked lane
    /// needs: every parked lane re-polls. One costed vertex per event —
    /// under vertex grain, the release ends it.
    fn release(&mut self, unit: u32) -> ControlFlow<()> {
        let sim = &mut *self.sim;
        let end = sim.lanes[self.li].clock;
        sim.eats.ate(unit, end);
        sim.sync.release_unit(unit, end, &sim.transport);
        sim.drain_actions();
        for other in 0..sim.lanes.len() {
            if sim.lanes[other].parked.is_some() {
                sim.wake(other, self.now);
            }
        }
        if self.per_vertex {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Entered at the lane's clock, charged at the cost model's price.
    /// One costed vertex per event — under vertex grain, with its release.
    fn execute(&mut self, run: impl FnOnce(&mut Self, u64) -> Executed) -> ControlFlow<()> {
        let entered = self.sim.lanes[self.li].clock;
        let ran = run(self, entered);
        let (sim, counts) = (&mut *self.sim, (ran.consumed, ran.sent));
        let (cost, trace, s) = (sim.cost, sim.trace, sim.superstep);
        sim.lanes[self.li].charge_virtual(&cost, trace, self.w, s, counts);
        if self.per_vertex {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }

    /// Stage, combining sender-side; flush as a wire batch when the staged
    /// run reaches `buffer_cap`.
    fn send_remote(&mut self, to_worker: u32, from: VertexId, to: VertexId, msg: P::Message) {
        let (sim, w) = (&mut *self.sim, self.w as usize);
        let (folded, staged) =
            sim.staging[w].stage(to_worker as usize, (to, from, msg), sim.combiner);
        if let Some(absorbed) = folded {
            sim.metrics.inc(Counter::SenderCombines);
            sim.inboxes.readable(absorbed, to);
        } else if staged == 1 {
            sim.dirty[w].push(to_worker);
        }
        if staged >= sim.buffer_cap {
            sim.flush_staged(self.w, to_worker, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_algos::{GreedyColoring, Sssp, Wcc};
    use sg_engine::TechniqueKind;
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
    fn barrierless_and_checkpointing_runs_are_refused() {
        let g = Arc::new(gen::ring(8));
        let refuse = |cfg: EngineConfig, why: &str| {
            let opts = SimOptions::default();
            match simulate(Arc::clone(&g), GreedyColoring, None, &cfg, &opts) {
                Err(EngineError::InvalidConfig(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected a refusal naming {why:?}, got {:?}", other.is_ok()),
            }
        };
        let base = config(2, TechniqueKind::PartitionLock);
        refuse(
            EngineConfig {
                barrierless: true,
                ..base.clone()
            },
            "barrierless",
        );
        refuse(
            EngineConfig {
                checkpoint_every: Some(2),
                record_history: false,
                ..base.clone()
            },
            "checkpointing",
        );
        refuse(
            EngineConfig {
                fail_at_superstep: Some(1),
                record_history: false,
                ..base
            },
            "checkpointing",
        );
    }

    #[test]
    fn virtual_charge_advances_the_clock_and_traces_both_events() {
        let cost = CostModel {
            vertex_compute_ns: 100,
            per_message_compute_ns: 10,
            per_send_ns: 1,
            ..CostModel::zero()
        };
        let trace = Trace::enabled(2, 8);
        let mut lane = Lane {
            clock: 1_000,
            ..Lane::default()
        };
        lane.charge_virtual(&cost, &trace, 1, 3, (2, 4));
        assert_eq!((lane.clock, lane.busy), (1_124, 124));
        let events = trace.buffer().expect("enabled").events(1);
        let seen: Vec<_> = events
            .iter()
            .map(|e| (e.kind, e.superstep, e.ts_ns, e.dur_ns, e.arg))
            .collect();
        assert_eq!(
            seen,
            [
                (TraceEventKind::VertexExecute, 3, 1_000, 124, 2),
                (TraceEventKind::MessageSend, 3, 1_124, 0, 4),
            ]
        );
        // Nothing sent: no send marker. No wait: no event, no charge.
        lane.charge_virtual(&cost, &trace, 1, 3, (0, 0));
        lane.charge_lock_wait(&trace, 1, 3, 9, 42);
        assert_eq!(trace.buffer().expect("enabled").events(1).len(), 3);
        assert_eq!((lane.clock, lane.blocked), (1_224, 0));
        lane.charge_lock_wait(&trace, 1, 3, 2_000, 42);
        assert_eq!((lane.clock, lane.blocked), (2_000, 776));
        let wait = trace.buffer().expect("enabled").events(1)[3];
        assert_eq!(
            (wait.kind, wait.ts_ns, wait.dur_ns, wait.arg),
            (TraceEventKind::LockWait, 1_224, 776, 42)
        );
    }

    #[test]
    fn a_jittered_run_charges_its_own_cost_model() {
        // Ten times the default wire, jittered by ± 15 %: every fork hop
        // and batch must take at least 85 % of the slow wire.
        let slow = CostModel {
            network_latency_ns: 10 * CostModel::default().network_latency_ns,
            ..CostModel::default()
        };
        let opts = SimOptions {
            cost: slow,
            ..SimOptions::with_jitter(15, 0xABCD)
        };
        let mut cfg = config(4, TechniqueKind::PartitionLock);
        cfg.obs.trace = true;
        let r =
            simulate(Arc::new(gen::ring(64)), GreedyColoring, None, &cfg, &opts).expect("simulate");
        let events = r.outcome.obs.expect("traced").trace.expect("buffer");
        let floor = slow.network_latency_ns * 85 / 100;
        let mut hops = 0;
        for e in events.all_events() {
            if matches!(
                e.kind,
                TraceEventKind::ForkTransfer | TraceEventKind::BatchFlush
            ) {
                hops += 1;
                assert!(e.dur_ns >= floor, "{:?} took {} ns", e.kind, e.dur_ns);
            }
        }
        assert!(hops > 0, "the run moved forks and batches");
    }

    #[test]
    fn breakdown_accounts_virtual_time_per_worker_and_superstep() {
        let mut cfg = config(4, TechniqueKind::PartitionLock);
        cfg.obs.breakdown = true;
        let r = simulate(
            Arc::new(gen::ring(64)),
            GreedyColoring,
            None,
            &cfg,
            &SimOptions::default(),
        )
        .expect("simulate");
        let obs = r.outcome.obs.expect("breakdown on");
        assert!(obs.trace.is_none());
        assert_eq!(obs.per_superstep.len() as u64, r.outcome.supersteps);
        let last = obs.per_superstep.last().expect("a superstep");
        assert_eq!(last.makespan_ns, r.outcome.makespan_ns);
        assert_eq!(obs.per_worker.len(), 4);
        for b in &obs.per_worker {
            assert!(b.busy_ns > 0);
            assert!(b.busy_ns + b.blocked_ns + b.idle_ns <= obs.makespan_ns);
            assert_eq!(b.accounting_error_ns, 0);
        }
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
