//! The schedule-explorable model of one serializable execution.
//!
//! A real run of the engines interleaves protocol steps nondeterministically
//! across threads. This module re-expresses the same control flow — vertex
//! execution, fork/token acquisition, message staging, shipping and
//! landing, superstep barriers, token delivery — as a set of *atomic
//! events* over the **production code**, not reimplementations: the very
//! same [`ForkTable`](sg_sync::ForkTable) and token rings the engines run,
//! driven through their non-blocking hooks, and the engines' own message
//! datapath. At every state the model reports which events are enabled;
//! the explorer picks one; the model executes it and re-checks every
//! invariant:
//!
//! * **C1 / C2 / serialization-graph acyclicity** — the engines' own
//!   [`Recorder`] hears every begin, send, landing and end, and a
//!   [`StreamingAuditor`] drains it after every event, as a run with
//!   `ObsConfig::audit` does;
//! * **token liveness** — the exclusive global token is always either held
//!   or in flight, never lost or duplicated;
//! * **token routing** — only the holder passes, and never while a pass is
//!   already in flight (checked as each pass is applied);
//! * **deadlock freedom** — some event is enabled until the run finishes.
//!
//! The model is the fourth host of the superstep, beside the thread engine,
//! the socket worker and the simulator. It builds its protocol object with
//! [`sg_sync::build_synchronizer`] and asks [`PartitionWalk`] — the
//! product's own scan/acquire/release order — what each lane does next. A
//! remote send stages in the engine's [`StagingBuffers`], combining
//! sender-side; a staged run ships as an event of its own, and a shipped
//! batch lands, through [`InboxPair::deliver_batch`], as another. The
//! inboxes are the engine's [`InboxPair`], so when a message turns readable
//! — at once, or under BSP (Proposition 1) at the barrier's flip — is the
//! product's rule. What the technique tells the shared [`QueueTransport`]
//! is applied right after each protocol call: a fork or token leaving
//! worker `w` first performs `w`'s write-all. A superstep closes in the
//! engine's own [`barrier::close`].
//!
//! The lane structure mirrors the engines: techniques that demand a single
//! compute thread per worker (single-layer token) get one sequential lane
//! per worker walking all its partitions in order; all others get one per
//! partition (maximal modeled concurrency). The model's abstract program
//! never halts: every vertex is runnable in every superstep, and each
//! execution sends its id to every out-neighbor through a `min` combiner.
//! The sends of one execution are part of its `end` event: only its
//! neighbors could tell them apart, and a serializable technique keeps
//! those out until it ends.

use crate::config::{ExploreConfig, FaultPlan};
use sg_engine::barrier::{self, BarrierHost, BarrierParts};
use sg_engine::store::{Envelope, InboxPair, Routed, StagingBuffers};
use sg_engine::{AggregatorSet, Combiner, MinCombiner};
use sg_graph::partition::HashPartitioner;
use sg_graph::{ClusterLayout, Graph, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{Metrics, Trace, TraceBuffer, TraceEventKind};
use sg_serial::recorder::TxnGuard;
use sg_serial::{HistorySummary, Recorder, StreamingAuditor};
use sg_sync::{
    build_synchronizer, LockGranularity, NetAction, PartitionWalk, QueueTransport, Step,
    Synchronizer,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// What the abstract program sends: the sender's id.
type Msg = u32;

/// The abstract program's combiner.
const COMBINER: Option<&dyn Combiner<Msg>> = Some(&MinCombiner);

/// One atomic, reorderable step of the modeled execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Lane runs one non-blocking pass of its unit acquisition (request
    /// missing forks, collect yielded ones).
    TryAcquire(u32),
    /// Lane begins its current vertex's transaction: the drain, then the
    /// read step.
    Begin(u32),
    /// Lane ends its current vertex: each send delivered to its own worker
    /// or staged for another, then the write step.
    End(u32),
    /// Lane releases its held unit (forks hand over here).
    Release(u32),
    /// Worker reaches the superstep barrier.
    Barrier(u32),
    /// The master closes the superstep in [`barrier::close`]: every
    /// worker's write-all, the technique's end of superstep (a token pass
    /// is *sent* here; Proposition 1's forks move here), the BSP flip.
    MasterStep,
    /// The in-flight global token lands at its destination.
    DeliverToken,
    /// All barriers passed and the token landed: the next superstep opens.
    NextSuperstep,
    /// Worker `from`'s staged run for worker `to` leaves as one batch (a
    /// buffer-cap flush, at whatever moment the schedule picks).
    Ship {
        /// Sending worker.
        from: u32,
        /// Receiving worker.
        to: u32,
    },
    /// The oldest batch on the link `from -> to` lands in the receiver's
    /// inboxes.
    Land {
        /// Sending worker.
        from: u32,
        /// Receiving worker.
        to: u32,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::TryAcquire(c) => write!(f, "try-acquire(c{c})"),
            Event::Begin(c) => write!(f, "begin(c{c})"),
            Event::End(c) => write!(f, "end(c{c})"),
            Event::Release(c) => write!(f, "release(c{c})"),
            Event::Barrier(w) => write!(f, "barrier(w{w})"),
            Event::MasterStep => f.write_str("master-step"),
            Event::DeliverToken => f.write_str("deliver-token"),
            Event::NextSuperstep => f.write_str("next-superstep"),
            Event::Ship { from, to } => write!(f, "ship(w{from}->w{to})"),
            Event::Land { from, to } => write!(f, "land(w{from}->w{to})"),
        }
    }
}

/// A serializability or protocol violation found in an explored state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// C1 broken: a transaction began while an in-neighbor replica was
    /// stale (a sent update was not yet readable).
    StaleRead {
        /// Superstep the violation was found in.
        superstep: u64,
    },
    /// C2 broken: neighbor transactions overlapped in time.
    NeighborOverlap {
        /// Superstep the violation was found in.
        superstep: u64,
    },
    /// The serialization graph acquired a cycle (no 1SR order exists).
    SerializationCycle {
        /// Superstep the cycle closed in.
        superstep: u64,
    },
    /// The exclusive global token vanished: neither held nor in flight.
    TokenLost {
        /// Superstep the token was lost in.
        superstep: u64,
    },
    /// A worker passed a token it did not hold, or passed twice.
    TokenMisrouted {
        /// Superstep of the bogus pass.
        superstep: u64,
        /// Transport-level description.
        detail: String,
    },
    /// No event is enabled but the run has not finished.
    Deadlock {
        /// Superstep the model wedged in.
        superstep: u64,
        /// Per stuck unit: the units whose forks it is missing.
        waiting: Vec<(u32, Vec<u32>)>,
    },
}

impl Violation {
    /// Stable machine-readable code (counterexample files key on this).
    pub fn code(&self) -> &'static str {
        match self {
            Violation::StaleRead { .. } => "c1-stale-read",
            Violation::NeighborOverlap { .. } => "c2-neighbor-overlap",
            Violation::SerializationCycle { .. } => "serialization-cycle",
            Violation::TokenLost { .. } => "token-lost",
            Violation::TokenMisrouted { .. } => "token-misrouted",
            Violation::Deadlock { .. } => "deadlock",
        }
    }

    /// Superstep the violation was detected in.
    pub fn superstep(&self) -> u64 {
        match self {
            Violation::StaleRead { superstep }
            | Violation::NeighborOverlap { superstep }
            | Violation::SerializationCycle { superstep }
            | Violation::TokenLost { superstep }
            | Violation::TokenMisrouted { superstep, .. }
            | Violation::Deadlock { superstep, .. } => *superstep,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StaleRead { superstep } => {
                write!(
                    f,
                    "C1 violated in superstep {superstep}: stale replica read"
                )
            }
            Violation::NeighborOverlap { superstep } => write!(
                f,
                "C2 violated in superstep {superstep}: neighbor transactions overlapped"
            ),
            Violation::SerializationCycle { superstep } => {
                write!(f, "serialization graph cyclic as of superstep {superstep}")
            }
            Violation::TokenLost { superstep } => write!(
                f,
                "global token lost in superstep {superstep}: neither held nor in flight"
            ),
            Violation::TokenMisrouted { superstep, detail } => {
                write!(f, "token misrouted in superstep {superstep}: {detail}")
            }
            Violation::Deadlock { superstep, waiting } => {
                write!(f, "deadlock in superstep {superstep}:")?;
                for (unit, on) in waiting {
                    write!(f, " unit {unit} waits on {on:?};")?;
                }
                Ok(())
            }
        }
    }
}

/// The transaction a lane has open: its vertex, the recorder's guard, and
/// `now` when it began (trace timestamps).
struct Open {
    v: VertexId,
    guard: TxnGuard,
    since: u64,
}

/// One sequential execution lane — a worker thread of the engines: the
/// walks of the partitions it runs this superstep, plus the transaction it
/// has open.
struct Lane {
    worker: WorkerId,
    /// One walk per partition the lane runs, in order; all built when the
    /// superstep opens (building one decides the halted-partition skip).
    walks: Vec<PartitionWalk>,
    open: Option<Open>,
    /// Blocked in acquisition; re-polled after the next release.
    parked: bool,
}

/// A global-token pass in transit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Flight {
    from: WorkerId,
    to: WorkerId,
    /// `now` when the pass was sent.
    sent_at: u64,
}

/// The explorable state machine. Drive it with
/// [`enabled`](Model::enabled) / [`execute`](Model::execute) until
/// [`finished`](Model::finished) or [`violation`](Model::violation).
pub struct Model {
    fault: FaultPlan,
    graph: Arc<Graph>,
    pm: Arc<PartitionMap>,
    tech: Arc<dyn Synchronizer>,
    /// What the technique told its transport during the last protocol
    /// call; applied by [`Model::apply_net`] before anything else happens.
    net: QueueTransport,
    recorder: Arc<Recorder>,
    auditor: StreamingAuditor,
    inboxes: InboxPair<Msg>,
    /// Per worker, its remote sends, staged by destination worker.
    staging: Vec<StagingBuffers<Msg>>,
    /// Per link `from * workers + to`: shipped batches not yet landed,
    /// oldest first.
    wire: Vec<VecDeque<Vec<Routed<Msg>>>>,
    /// Drain scratch of a beginning transaction.
    drained: Vec<Envelope<Msg>>,
    aggregators: AggregatorSet,
    metrics: Arc<Metrics>,
    trace: Trace,
    /// Does this run have an exclusive global token to account for?
    tracks_token: bool,
    /// Worker holding the global token; `None` while it is in flight — or,
    /// after an injected fault, lost.
    token_at: Option<WorkerId>,
    in_flight: Option<Flight>,
    /// A routing violation seen while applying a pass (wrong sender, or a
    /// second pass in flight), reported by the next invariant check.
    misroute: Option<String>,
    lanes: Vec<Lane>,
    superstep: u64,
    max_supersteps: u64,
    /// Per worker, its barrier arrival this superstep (trace ns), if any.
    barrier: Vec<Option<u64>>,
    master_done: bool,
    finished: bool,
    violation: Option<Violation>,
    /// Executed-event counter, doubling as virtual time.
    now: u64,
}

impl Model {
    /// Build the initial state (superstep 0, fresh protocol state, empty
    /// history). `trace` optionally records the protocol timeline.
    ///
    /// # Panics
    /// Panics on a configuration [`ExploreConfig::validate`] refuses.
    pub fn new(cfg: &ExploreConfig, trace: Option<Arc<TraceBuffer>>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("unvalidated exploration config: {e}");
        }
        let graph = Arc::new(cfg.graph.build());
        let layout = ClusterLayout::new(cfg.workers, cfg.ppw);
        let pm = Arc::new(PartitionMap::build(
            &graph,
            layout,
            &HashPartitioner::default(),
        ));
        let metrics = Arc::new(Metrics::new());
        let tech = build_synchronizer(cfg.technique, &graph, &pm, Arc::clone(&metrics));
        let tracks_token = cfg.technique.uses_global_token() && cfg.workers > 1;
        let recorder = Arc::new(Recorder::new(Arc::clone(&graph)));
        let visibility = if cfg.technique.requires_bsp() {
            sg_engine::Model::Bsp
        } else {
            sg_engine::Model::Async
        };
        let workers = cfg.workers as usize;
        let mut model = Self {
            fault: cfg.fault,
            tech,
            net: QueueTransport::default(),
            auditor: StreamingAuditor::new(Arc::clone(&recorder)),
            inboxes: InboxPair::new(&pm, visibility, Some(Arc::clone(&recorder)), None),
            recorder,
            staging: (0..workers)
                .map(|_| StagingBuffers::new(workers, true))
                .collect(),
            wire: (0..workers * workers).map(|_| VecDeque::new()).collect(),
            drained: Vec::new(),
            aggregators: AggregatorSet::new(),
            metrics,
            trace: Trace::from(trace),
            graph,
            pm,
            tracks_token,
            token_at: tracks_token.then(|| WorkerId::new(0)), // both rings start at worker 0
            in_flight: None,
            misroute: None,
            lanes: Vec::new(),
            superstep: 0,
            max_supersteps: cfg.supersteps,
            barrier: vec![None; workers],
            master_done: false,
            finished: cfg.supersteps == 0,
            violation: None,
            now: 0,
        };
        model.build_lanes();
        model
    }

    /// Open the superstep: one lane per worker for single-threaded
    /// techniques, one per partition otherwise, each with fresh walks. A
    /// partition has work iff it has a vertex.
    fn build_lanes(&mut self) {
        let layout = *self.pm.layout();
        let runs: Vec<(WorkerId, Vec<PartitionId>)> =
            if self.tech.max_threads_per_worker() == Some(1) {
                (layout.workers())
                    .map(|w| (w, layout.partitions_of_worker(w).collect()))
                    .collect()
            } else {
                (layout.partitions())
                    .map(|p| (layout.worker_of_partition(p), vec![p]))
                    .collect()
            };
        self.lanes = (runs.into_iter())
            .map(|(worker, partitions)| Lane {
                worker,
                walks: (partitions.into_iter())
                    .map(|p| {
                        let has_work = !self.pm.vertices_in(p).is_empty();
                        PartitionWalk::new(p, &*self.tech, has_work)
                    })
                    .collect(),
                open: None,
                parked: false,
            })
            .collect();
    }

    /// What lane `li` does next, found on copies of its walks: the first
    /// step of its first unfinished walk.
    fn peek(&self, li: usize) -> Step {
        for walk in &self.lanes[li].walks {
            let mut copy = *walk;
            let step = next_step(&*self.tech, &self.pm, self.superstep, &mut copy);
            if step != Step::Done {
                return step;
            }
        }
        Step::Done
    }

    /// Take the step [`Model::peek`] showed, on the lane's own walks;
    /// returns it with the index of the walk it came from.
    fn advance(&mut self, li: usize) -> (usize, Step) {
        for (wi, walk) in self.lanes[li].walks.iter_mut().enumerate() {
            let step = next_step(&*self.tech, &self.pm, self.superstep, walk);
            if step != Step::Done {
                return (wi, step);
            }
        }
        unreachable!("lane {li} advanced past its last step")
    }

    fn workers(&self) -> usize {
        self.barrier.len()
    }

    /// Every event enabled in the current state, in a deterministic order.
    /// Empty iff the run [`finished`](Model::finished), a violation was
    /// found, or (a violation in itself) the model deadlocked.
    pub fn enabled(&self) -> Vec<Event> {
        if self.finished || self.violation.is_some() {
            return Vec::new();
        }
        // Per lane: `None` while its transaction is open, else its walks'
        // next step.
        let next: Vec<Option<Step>> = (self.lanes.iter().enumerate())
            .map(|(li, lane)| lane.open.is_none().then(|| self.peek(li)))
            .collect();
        let mut events: Vec<Event> = (next.iter().enumerate())
            .filter_map(|(li, step)| {
                let i = li as u32;
                match step {
                    None => Some(Event::End(i)),
                    Some(Step::Acquire(_)) => {
                        (!self.lanes[li].parked).then_some(Event::TryAcquire(i))
                    }
                    Some(Step::Run { .. }) => Some(Event::Begin(i)),
                    Some(Step::Release(_)) => Some(Event::Release(i)),
                    Some(Step::Done) => None,
                }
            })
            .collect();
        let done = |li: usize| next[li] == Some(Step::Done);
        for (w, passed) in self.barrier.iter().enumerate() {
            let mine = |li: &usize| self.lanes[*li].worker.index() == w;
            if passed.is_none() && (0..self.lanes.len()).filter(mine).all(done) {
                events.push(Event::Barrier(w as u32));
            }
        }
        if (0..self.lanes.len()).all(done) && !self.master_done {
            events.push(Event::MasterStep);
        }
        if self.in_flight.is_some() {
            events.push(Event::DeliverToken);
        }
        if self.master_done && !self.barrier.contains(&None) && self.in_flight.is_none() {
            events.push(Event::NextSuperstep);
        }
        // The wire is worth scheduling only towards a worker that may still
        // read this superstep: the barrier's write-all lands the rest.
        let workers = self.workers();
        let reading = |to: usize| {
            (0..self.lanes.len()).any(|li| self.lanes[li].worker.index() == to && !done(li))
        };
        for (from, staging) in self.staging.iter().enumerate() {
            for to in (0..workers).filter(|&to| staging.staged(to) > 0 && reading(to)) {
                let (from, to) = (from as u32, to as u32);
                events.push(Event::Ship { from, to });
            }
        }
        for (link, batches) in self.wire.iter().enumerate() {
            let (from, to) = (link / workers, link % workers);
            if !batches.is_empty() && reading(to) {
                let (from, to) = (from as u32, to as u32);
                events.push(Event::Land { from, to });
            }
        }
        events
    }

    /// Execute one enabled event, then apply what the technique told the
    /// transport and re-check every invariant.
    ///
    /// # Panics
    /// Panics if `e` is not currently enabled (explorer bug).
    pub fn execute(&mut self, e: Event) {
        debug_assert!(self.enabled().contains(&e), "executing disabled {e}");
        self.now += 1;
        match e {
            Event::TryAcquire(li) => {
                let li = li as usize;
                let (wi, Step::Acquire(unit)) = self.advance(li) else {
                    panic!("{e} is not lane {li}'s next step");
                };
                if self.tech.try_acquire_unit(unit, &self.net) {
                    self.lanes[li].walks[wi].granted();
                } else {
                    self.lanes[li].parked = true;
                    let worker = self.lanes[li].worker.raw();
                    self.record(worker, TraceEventKind::LockWait, 0, u64::from(unit));
                }
            }
            Event::Begin(li) => {
                let li = li as usize;
                let (wi, Step::Run { local, v }) = self.advance(li) else {
                    panic!("{e} is not lane {li}'s next step");
                };
                // The transaction reads what its inbox holds, then opens.
                let p = self.lanes[li].walks[wi].partition();
                let inbox = &self.inboxes.current()[p.index()];
                inbox.drain_into(local, &mut self.drained);
                self.drained.clear();
                let guard = self.recorder.begin(v);
                let since = self.now;
                self.lanes[li].open = Some(Open { v, guard, since });
            }
            Event::End(li) => {
                let lane = &mut self.lanes[li as usize];
                let Open { v, guard, since } = lane.open.take().expect("end without begin");
                let worker = lane.worker;
                let graph = Arc::clone(&self.graph);
                for &t in graph.out_neighbors(v) {
                    self.send(worker, v, t);
                }
                self.recorder.end(guard);
                let (kind, dur) = (TraceEventKind::VertexExecute, self.now - since);
                self.record_full(worker.raw(), kind, since, dur, u64::from(v.raw()));
            }
            Event::Release(li) => {
                let (_, Step::Release(unit)) = self.advance(li as usize) else {
                    panic!("{e} is not lane {li}'s next step");
                };
                self.tech.release_unit(unit, self.now, &self.net);
                // A release may hand forks over: every parked lane is
                // worth re-polling.
                for lane in &mut self.lanes {
                    lane.parked = false;
                }
            }
            Event::Barrier(w) => {
                self.barrier[w as usize] = Some(self.now * 1000);
            }
            Event::MasterStep => {
                let s = self.superstep;
                barrier::close(self, s);
                // Every walk is over: a gate the end of superstep reopened
                // (Proposition 1's forks move there) must not revive one.
                self.lanes.iter_mut().for_each(|l| l.walks.clear());
                self.master_done = true;
            }
            Event::DeliverToken => {
                let flight = self.in_flight.take().expect("deliver without a pass");
                let delayed = self.now > flight.sent_at + 1;
                let dropped = matches!(
                    self.fault,
                    FaultPlan::DropDelayedTokenPass { superstep } if superstep == self.superstep
                ) && delayed;
                // A dropped pass vanishes: the token is now neither held
                // nor in transit.
                if !dropped {
                    self.token_at = Some(flight.to);
                    self.trace.record_peer(
                        flight.from.raw(),
                        self.superstep,
                        TraceEventKind::RingPass,
                        flight.sent_at * 1000,
                        (self.now - flight.sent_at) * 1000,
                        0,
                        flight.to.raw(),
                    );
                }
            }
            Event::NextSuperstep => {
                // Each worker waited from its arrival to the last one's.
                let (s, kind) = (self.superstep, TraceEventKind::BarrierWait);
                let last = self.barrier.iter().flatten().max().copied().unwrap_or(0);
                for (w, &at) in self.barrier.iter().flatten().enumerate() {
                    self.trace.record(w as u32, s, kind, at, last - at, 0);
                }
                self.superstep += 1;
                if self.superstep >= self.max_supersteps {
                    self.finished = true;
                } else {
                    self.barrier.iter_mut().for_each(|b| *b = None);
                    self.master_done = false;
                    self.build_lanes();
                }
            }
            Event::Ship { from, to } => self.ship(from as usize, to as usize),
            Event::Land { from, to } => self.land(from as usize, to as usize),
        }
        self.post_event();
    }

    /// One send of the abstract program, routed and recorded as
    /// `Cycle::run_vertex` does it: delivered to a vertex of the sending
    /// worker, recorded only under BSP (under AP it is readable at once,
    /// never in flight), or recorded and staged for another. A staged fold
    /// into an envelope from another sender marks that sender's message
    /// readable, as the simulator's sender-side fold does: the envelope no
    /// longer carries it.
    fn send(&mut self, worker: WorkerId, from: VertexId, to: VertexId) {
        let slot = self.pm.slot_of(to);
        let dest = self.pm.worker_of_partition(slot.0);
        if dest != worker || self.inboxes.defers() {
            self.recorder.on_send(from, to);
        }
        if dest == worker {
            self.inboxes.deliver(from, to, slot, from.raw(), COMBINER);
        } else {
            let routed = (to, from, from.raw());
            let (folded, _) = self.staging[worker.index()].stage(dest.index(), routed, COMBINER);
            if let Some(absorbed) = folded {
                self.inboxes.readable(absorbed, to);
            }
        }
    }

    /// The staged run `from -> to` leaves as one batch onto the link.
    fn ship(&mut self, from: usize, to: usize) {
        let run = std::mem::take(self.staging[from].take_run(to));
        if !run.is_empty() {
            let (a, b) = (WorkerId::new(from as u32), WorkerId::new(to as u32));
            self.record_hop(a, b, TraceEventKind::BatchFlush, run.len() as u64);
            let link = from * self.workers() + to;
            self.wire[link].push_back(run);
        }
    }

    /// The oldest batch on the link `from -> to` lands in `to`'s inboxes.
    fn land(&mut self, from: usize, to: usize) {
        let link = from * self.workers() + to;
        if let Some(batch) = self.wire[link].pop_front() {
            let slots: Vec<_> = batch.iter().map(|r| self.pm.slot_of(r.0)).collect();
            let receiver = WorkerId::new(to as u32);
            self.inboxes
                .deliver_batch(receiver, &slots, &batch, COMBINER);
        }
    }

    /// Worker `w`'s write-all, the C1 flush: every batch it has on the wire
    /// lands, in the order it shipped them, then everything it has staged
    /// ships and lands.
    fn flush_worker(&mut self, w: usize) {
        for to in 0..self.workers() {
            while !self.wire[w * self.workers() + to].is_empty() {
                self.land(w, to);
            }
        }
        for to in 0..self.workers() {
            self.ship(w, to);
            self.land(w, to);
        }
    }

    /// Apply, in call order, what the technique told the transport during
    /// its last protocol call. A transfer completes the sender's write-all
    /// before the resource is considered moved (the C1 contract — fork
    /// moves have no reorderable window, and making one up would
    /// manufacture false C1 violations); a global-token pass additionally
    /// goes *in flight*, its delivery a separate, reorderable
    /// [`Event::DeliverToken`].
    fn apply_net(&mut self) {
        for action in self.net.drain() {
            match action {
                NetAction::Transfer { from, to, unit } => {
                    if unit.is_none() && self.tracks_token {
                        self.send_token(from, to);
                    }
                    self.flush_worker(from.index());
                    // Ring passes are traced at delivery (they span time).
                    if let Some(unit) = unit {
                        self.record_hop(from, to, TraceEventKind::ForkTransfer, u64::from(unit));
                    }
                }
                NetAction::Request { from, to } => {
                    self.record_hop(from, to, TraceEventKind::RequestToken, 0);
                }
            }
        }
    }

    /// The global token leaves `from` for `to` — legitimately only if
    /// `from` holds it and no other pass is in flight.
    fn send_token(&mut self, from: WorkerId, to: WorkerId) {
        if self.token_at != Some(from) || self.in_flight.is_some() {
            self.misroute = Some(format!(
                "worker {} passed the global token to {} but the token is {} (in flight: {})",
                from.raw(),
                to.raw(),
                match self.token_at {
                    Some(w) => format!("held by worker {}", w.raw()),
                    None => "not held".to_string(),
                },
                match self.in_flight {
                    Some(f) => format!("{}->{}", f.from.raw(), f.to.raw()),
                    None => "no".to_string(),
                },
            ));
        }
        self.token_at = None;
        let sent_at = self.now;
        self.in_flight = Some(Flight { from, to, sent_at });
    }

    /// Apply the transport queue, then re-check the per-state invariants.
    fn post_event(&mut self) {
        self.apply_net();
        if self.violation.is_some() {
            return;
        }
        let violation = self.check_invariants();
        if let Some(v) = violation {
            self.record(0, TraceEventKind::InvariantCheck, 0, 1);
            self.violation = Some(v);
        }
    }

    /// The protocol invariants, then the auditor's verdict on every
    /// transaction the recorder's watermark has released: a transaction's
    /// C1 and C2 witnesses count once it has ended and no earlier one is
    /// still open.
    fn check_invariants(&mut self) -> Option<Violation> {
        if let Some(detail) = self.misroute.take() {
            return Some(Violation::TokenMisrouted {
                superstep: self.superstep,
                detail,
            });
        }
        let superstep = self.superstep;
        if self.tracks_token
            && !self.finished
            && self.token_at.is_none()
            && self.in_flight.is_none()
        {
            return Some(Violation::TokenLost { superstep });
        }
        let status = self.auditor.drain();
        if status.c1_violations > 0 {
            return Some(Violation::StaleRead { superstep });
        }
        if status.c2_violations > 0 {
            return Some(Violation::NeighborOverlap { superstep });
        }
        if !status.serialization_graph_acyclic {
            return Some(Violation::SerializationCycle { superstep });
        }
        None
    }

    /// Called by the explorer when [`enabled`](Model::enabled) comes back
    /// empty with work remaining: records a deadlock violation with the
    /// wait-for edges of every stuck unit — every lane whose next step is
    /// an acquire.
    pub fn flag_deadlock(&mut self) {
        if self.finished || self.violation.is_some() {
            return;
        }
        let waiting = (0..self.lanes.len())
            .filter(|&li| self.lanes[li].open.is_none())
            .filter_map(|li| match self.peek(li) {
                Step::Acquire(unit) => Some((unit, self.tech.unit_waiting_on(unit))),
                _ => None,
            })
            .collect();
        self.record(0, TraceEventKind::InvariantCheck, 0, 1);
        self.violation = Some(Violation::Deadlock {
            superstep: self.superstep,
            waiting,
        });
    }

    /// Scheduling priority hint for the delay adversary: higher means
    /// "more valuable to defer". Token deliveries score highest, then batch
    /// landings (a batch on the wire is a stale replica), then acquisitions
    /// of contended units (scaled by conflict degree), then barriers and
    /// transaction ends (deferring ends widens overlap windows); begins,
    /// ships and bookkeeping score the least.
    pub fn delay_score(&self, e: Event) -> u64 {
        match e {
            Event::DeliverToken => 1000,
            Event::Land { .. } => 950,
            Event::TryAcquire(li) => {
                let contention = match (self.peek(li as usize), self.tech.granularity()) {
                    (Step::Acquire(p), LockGranularity::Partition) => {
                        self.pm.partition_neighbors(PartitionId::new(p)).len()
                    }
                    (Step::Acquire(v), LockGranularity::Vertex) => {
                        self.graph.degree(VertexId::new(v)) as usize
                    }
                    _ => 0,
                };
                100 + (contention as u64).min(800)
            }
            Event::Barrier(_) => 50,
            Event::Release(_) => 30,
            Event::End(_) => 20,
            Event::Begin(_) | Event::Ship { .. } => 1,
            Event::MasterStep | Event::NextSuperstep => 0,
        }
    }

    /// Has the run completed all its supersteps?
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The first violation found, if any (exploration stops there).
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// Current superstep.
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Executed-event counter (the model's virtual clock).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Run the batch Theorem 1 checkers over everything recorded so far.
    pub fn history_summary(&self) -> HistorySummary {
        self.recorder.history().summarize(&self.graph)
    }

    fn record(&self, worker: u32, kind: TraceEventKind, dur: u64, arg: u64) {
        self.record_full(worker, kind, self.now, dur, arg);
    }

    fn record_full(&self, worker: u32, kind: TraceEventKind, ts: u64, dur: u64, arg: u64) {
        let s = self.superstep;
        self.trace
            .record(worker, s, kind, ts * 1000, dur * 1000, arg);
    }

    /// One protocol message `from -> to`, taking the current tick.
    fn record_hop(&self, from: WorkerId, to: WorkerId, kind: TraceEventKind, arg: u64) {
        let (s, at) = (self.superstep, self.now * 1000);
        self.trace
            .record_peer(from.raw(), s, kind, at, 1000, arg, to.raw());
    }
}

/// The model closes a superstep with the engine's own barrier step: its
/// write-all is the one a fork handover performs, and what the technique
/// queued is applied right after its end of superstep.
impl BarrierHost for Model {
    type Message = Msg;

    fn write_all(&mut self, w: usize) {
        self.flush_worker(w);
    }

    fn apply_actions(&mut self) {
        self.apply_net();
    }

    fn parts(&self) -> BarrierParts<'_, Msg> {
        BarrierParts {
            sync: &*self.tech,
            transport: &self.net,
            inboxes: &self.inboxes,
            pm: &self.pm,
            aggregators: &self.aggregators,
            metrics: &self.metrics,
        }
    }
}

/// Ask `walk` for its next step. Every vertex is runnable: the model's
/// abstract program never votes to halt.
fn next_step(
    tech: &dyn Synchronizer,
    pm: &PartitionMap,
    superstep: u64,
    walk: &mut PartitionWalk,
) -> Step {
    let vertices = pm.vertices_in(walk.partition());
    walk.next(tech, superstep, vertices, |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use sg_graph::GraphSpec;
    use sg_sync::{SyncTransport, TechniqueKind};

    fn cfg(technique: TechniqueKind) -> ExploreConfig {
        ExploreConfig {
            technique,
            graph: GraphSpec::Ring(8),
            workers: 2,
            ppw: 2,
            supersteps: 4,
            strategy: StrategyKind::Random,
            seed: 1,
            episodes: 1,
            max_depth: 64,
            max_events: 100_000,
            fault: FaultPlan::None,
        }
    }

    /// Drive `model` until it stops, executing the enabled event `pick`
    /// chooses at every state.
    fn run_picking(model: &mut Model, pick: impl Fn(&[Event]) -> usize) {
        let mut steps = 0;
        while !model.finished() && model.violation().is_none() {
            let enabled = model.enabled();
            if enabled.is_empty() {
                model.flag_deadlock();
                return;
            }
            model.execute(enabled[pick(&enabled)]);
            steps += 1;
            assert!(steps < 100_000, "runaway model");
        }
    }

    /// The canonical straight-line schedule: always the first enabled event.
    fn run_first_choice(model: &mut Model) {
        run_picking(model, |_| 0);
    }

    #[test]
    fn straight_line_schedules_are_clean_for_every_technique() {
        for technique in TechniqueKind::ALL.into_iter().filter(|t| t.serializable()) {
            let mut model = Model::new(&cfg(technique), None);
            run_first_choice(&mut model);
            assert!(
                model.violation().is_none(),
                "{technique}: {:?}",
                model.violation()
            );
            assert!(model.finished(), "{technique} did not finish");
            let summary = model.history_summary();
            assert!(summary.one_copy_serializable, "{technique}: {summary}");
            assert!(summary.transactions > 0, "{technique} executed nothing");
        }
    }

    #[test]
    fn each_barrier_wait_runs_from_its_arrival_to_the_last_one() {
        let trace = Arc::new(TraceBuffer::new(2, 4096));
        let cfg = cfg(TechniqueKind::PartitionLock);
        let mut model = Model::new(&cfg, Some(Arc::clone(&trace)));
        run_first_choice(&mut model);
        assert!(model.finished());
        let waits: Vec<Vec<_>> = (0..2)
            .map(|w| trace.events(w).into_iter())
            .map(|es| es.filter(|e| e.kind == TraceEventKind::BarrierWait))
            .map(Iterator::collect)
            .collect();
        assert_eq!(waits[0].len(), cfg.supersteps as usize);
        assert_eq!(waits[1].len(), cfg.supersteps as usize);
        for (a, b) in waits[0].iter().zip(&waits[1]) {
            assert_eq!(a.superstep, b.superstep);
            assert_eq!(a.ts_ns + a.dur_ns, b.ts_ns + b.dur_ns, "{a:?} {b:?}");
            assert!(a.dur_ns == 0 || b.dur_ns == 0, "nobody arrived last");
        }
        // The first-choice schedule lets worker 0 arrive first.
        assert!(waits[0].iter().any(|e| e.dur_ns > 0));
    }

    #[test]
    fn token_techniques_execute_every_vertex_across_a_rotation() {
        // 4 supersteps = one full single-layer rotation on 2 workers plus
        // slack: every vertex must have run at least once.
        let mut model = Model::new(&cfg(TechniqueKind::SingleToken), None);
        run_first_choice(&mut model);
        let summary = model.history_summary();
        assert!(
            summary.transactions >= 8,
            "expected all 8 vertices to run, got {}",
            summary.transactions
        );
    }

    #[test]
    fn dropped_token_fault_is_invisible_to_the_straight_line_schedule() {
        // The seeded bug only fires when delivery is delayed; the
        // first-choice schedule takes barriers before the master step and
        // then delivers immediately, so it stays clean. This is exactly
        // why schedule *exploration* is needed to find it.
        let mut c = cfg(TechniqueKind::SingleToken);
        c.fault = FaultPlan::DropDelayedTokenPass { superstep: 0 };
        let mut model = Model::new(&c, None);
        run_first_choice(&mut model);
        assert!(model.violation().is_none(), "{:?}", model.violation());
        assert!(model.finished());
    }

    #[test]
    fn delaying_the_delivery_triggers_the_seeded_token_loss() {
        let mut c = cfg(TechniqueKind::SingleToken);
        c.fault = FaultPlan::DropDelayedTokenPass { superstep: 0 };
        let mut model = Model::new(&c, None);
        // End the superstep as soon as possible (before the barriers), then
        // defer DeliverToken while anything else is enabled — the racy
        // window the fault needs.
        run_picking(&mut model, |enabled| {
            let at = |want: fn(&Event) -> bool| enabled.iter().position(want);
            at(|e| *e == Event::MasterStep)
                .or_else(|| at(|e| *e != Event::DeliverToken))
                .unwrap_or(0)
        });
        assert_eq!(
            model.violation().map(Violation::code),
            Some("token-lost"),
            "got {:?}",
            model.violation()
        );
    }

    #[test]
    fn nosync_has_a_schedule_with_overlapping_neighbors() {
        // Open two neighboring transactions at once: C2 must fire.
        let mut c = cfg(TechniqueKind::None);
        c.graph = GraphSpec::Complete(6);
        c.workers = 2;
        c.ppw = 1;
        let mut model = Model::new(&c, None);
        let begin_first = |enabled: &[Event]| {
            let begin = enabled.iter().position(|e| matches!(e, Event::Begin(_)));
            begin.unwrap_or(0)
        };
        run_picking(&mut model, begin_first);
        assert_eq!(
            model.violation().map(Violation::code),
            Some("c2-neighbor-overlap"),
            "got {:?}",
            model.violation()
        );
    }

    #[test]
    fn enabled_order_is_deterministic() {
        let c = cfg(TechniqueKind::PartitionLock);
        let m1 = Model::new(&c, None);
        let m2 = Model::new(&c, None);
        assert_eq!(m1.enabled(), m2.enabled());
    }

    fn w(i: u32) -> WorkerId {
        WorkerId::new(i)
    }

    /// A fresh `ring:8` model with one remote update staged on each
    /// worker, over an edge `a - b` that the partitioning cuts: `a` lives
    /// on worker 0 (where a token ring starts), `b` on worker 1.
    fn ring_with_staged_updates(technique: TechniqueKind) -> (Model, VertexId, VertexId) {
        let mut m = Model::new(&cfg(technique), None);
        let home = |m: &Model, x| m.pm.worker_of(x);
        let (a, b) = (m.graph.vertices())
            .flat_map(|a| m.graph.out_neighbors(a).iter().map(move |&b| (a, b)))
            .find(|&(a, b)| home(&m, a) == w(0) && home(&m, b) == w(1))
            .expect("ring:8 on two workers has a cut edge");
        m.send(w(0), a, b);
        m.send(w(1), b, a);
        (m, a, b)
    }

    /// Would `u` begin with a stale replica now? (Records a transaction.)
    fn reads_stale(m: &Model, u: VertexId) -> bool {
        m.recorder.end(m.recorder.begin(u));
        let history = m.recorder.history();
        !history
            .txns()
            .last()
            .expect("just ended")
            .stale_reads
            .is_empty()
    }

    fn staged(m: &Model) -> Vec<usize> {
        m.staging.iter().map(StagingBuffers::total_staged).collect()
    }

    #[test]
    fn a_ring_pass_flushes_only_the_sender_and_the_write_all_the_rest() {
        let (mut m, a, b) = ring_with_staged_updates(TechniqueKind::SingleToken);
        m.net.transfer(w(0), w(1), None);
        m.apply_net();
        assert_eq!(staged(&m), [0, 1]);
        // `b` now reads `a` fresh; `a` would still read `b` stale.
        assert!(!reads_stale(&m, b));
        assert!(reads_stale(&m, a));
        m.flush_worker(1); // the superstep write-all
        assert_eq!(staged(&m), [0, 0]);
        assert!(!reads_stale(&m, a));
    }

    #[test]
    fn a_token_pass_goes_in_flight_and_lands_on_delivery() {
        let mut m = Model::new(&cfg(TechniqueKind::SingleToken), None);
        assert_eq!(m.token_at, Some(w(0)));
        m.net.transfer(w(0), w(1), None);
        m.apply_net();
        assert_eq!(m.token_at, None);
        let flight = m.in_flight.expect("in flight");
        assert_eq!((flight.from, flight.to), (w(0), w(1)));
        assert!(m.misroute.is_none());
        assert!(m.enabled().contains(&Event::DeliverToken));
        m.execute(Event::DeliverToken);
        assert_eq!(m.token_at, Some(w(1)));
        assert_eq!(m.in_flight, None);
        assert!(m.violation().is_none(), "{:?}", m.violation());
    }

    #[test]
    fn a_pass_by_a_non_holder_is_a_misroute() {
        let mut m = Model::new(&cfg(TechniqueKind::SingleToken), None);
        m.net.transfer(w(1), w(0), None);
        m.post_event();
        match m.violation() {
            Some(Violation::TokenMisrouted { detail, .. }) => {
                assert!(detail.contains("worker 1"), "{detail}");
            }
            other => panic!("expected token-misrouted, got {other:?}"),
        }
    }

    #[test]
    fn a_dropped_flight_loses_the_token() {
        let mut c = cfg(TechniqueKind::SingleToken);
        c.fault = FaultPlan::DropDelayedTokenPass { superstep: 0 };
        let mut m = Model::new(&c, None);
        m.net.transfer(w(0), w(1), None);
        m.apply_net();
        m.now += 2; // anything scheduled in between delays the delivery
        m.execute(Event::DeliverToken);
        assert_eq!((m.token_at, m.in_flight), (None, None));
        assert_eq!(m.violation().map(Violation::code), Some("token-lost"));
    }

    #[test]
    fn fork_moves_flush_without_touching_the_token() {
        let (mut m, a, _) = ring_with_staged_updates(TechniqueKind::SingleToken);
        m.net.transfer(w(0), w(1), Some(7));
        m.net.request(w(1), w(0));
        m.post_event();
        assert!(m.violation().is_none(), "{:?}", m.violation());
        assert_eq!((m.token_at, m.in_flight), (Some(w(0)), None));
        assert_eq!(staged(&m), [0, 1], "the fork's sender flushed, nobody else");
        assert!(reads_stale(&m, a));
    }

    #[test]
    fn a_shipped_batch_is_unread_until_it_lands_or_its_sender_fences() {
        // Every vertex of vertex locking may run: both workers still read.
        let (mut m, a, b) = ring_with_staged_updates(TechniqueKind::VertexLock);
        let (ship, land) = (
            Event::Ship { from: 0, to: 1 },
            Event::Land { from: 0, to: 1 },
        );
        assert!(m.enabled().contains(&ship) && !m.enabled().contains(&land));
        m.execute(ship);
        assert_eq!(staged(&m), [0, 1]);
        assert!(m.enabled().contains(&land));
        assert!(reads_stale(&m, b), "on the wire is not readable");
        m.land(0, 1);
        assert!(!reads_stale(&m, b));
        // Worker 1's run ships; the write-all of its next fork lands it.
        m.ship(1, 0);
        assert!(reads_stale(&m, a));
        m.net.transfer(w(1), w(0), Some(3));
        m.apply_net();
        assert!(m.wire.iter().all(VecDeque::is_empty));
        assert!(!reads_stale(&m, a));
    }

    #[test]
    fn a_staged_fold_accounts_for_the_sender_it_absorbed() {
        // Two senders of worker 0 stage for one vertex of worker 1: the
        // combiner keeps one envelope, and once it lands the target reads
        // both replicas fresh.
        let mut c = cfg(TechniqueKind::VertexLock);
        (c.graph, c.ppw) = (GraphSpec::Complete(8), 1);
        let mut m = Model::new(&c, None);
        let target = (m.graph.vertices())
            .find(|&t| m.pm.worker_of(t) == w(1))
            .expect("a vertex on worker 1");
        let senders: Vec<_> = (m.graph.in_neighbors(target).iter().copied())
            .filter(|&s| m.pm.worker_of(s) == w(0))
            .collect();
        assert!(senders.len() >= 2, "complete:8 on two workers");
        for &s in &senders {
            m.send(w(0), s, target);
        }
        assert_eq!(staged(&m), [1, 0], "the combiner folded them");
        assert!(reads_stale(&m, target));
        m.flush_worker(0);
        assert!(!reads_stale(&m, target));
    }

    #[test]
    fn under_bsp_a_same_worker_send_waits_for_the_flip() {
        let mut m = Model::new(&cfg(TechniqueKind::BspVertexLock), None);
        let (a, b) = (m.graph.vertices())
            .flat_map(|a| m.graph.out_neighbors(a).iter().map(move |&b| (a, b)))
            .find(|&(a, b)| m.pm.worker_of(a) == m.pm.worker_of(b))
            .expect("ring:8 on two workers has an uncut edge");
        let home = m.pm.worker_of(a);
        m.send(home, a, b);
        assert!(reads_stale(&m, b), "unread until the flip");
        m.flush_worker(home.index());
        assert!(reads_stale(&m, b), "a write-all does not flip");
        m.inboxes.flip(&m.pm);
        assert!(!reads_stale(&m, b));
    }
}
