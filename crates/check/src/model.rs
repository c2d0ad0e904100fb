//! The schedule-explorable model of one serializable execution.
//!
//! A real run of the engines interleaves protocol steps nondeterministically
//! across threads. This module re-expresses the same control flow — vertex
//! execution, fork/token acquisition, superstep barriers, token delivery —
//! as a set of *atomic events* over the **production protocol state
//! machines** from `sg-sync` (not reimplementations: the very same
//! [`ForkTable`](sg_sync::ForkTable) and token rings the engines run are
//! driven here through their non-blocking hooks). At every state the model
//! reports which events are enabled; the explorer picks one; the model
//! executes it and re-checks every invariant:
//!
//! * **C1 / C2 / serialization-graph acyclicity** — via
//!   [`sg_serial::IncrementalChecker`], on every event;
//! * **token liveness** — the exclusive global token is always either held
//!   or in flight, never lost or duplicated;
//! * **token routing** — only the holder passes, and never while a pass is
//!   already in flight (checked as each pass is applied);
//! * **deadlock freedom** — some event is enabled until the run finishes.
//!
//! The model is a host like the thread engine, the socket worker and the
//! simulator: it builds its protocol object with
//! [`sg_sync::build_synchronizer`], asks [`PartitionWalk`] — the product's
//! own scan/acquire/release order — what each lane does next, and applies
//! what the technique tells its transport from the shared
//! [`QueueTransport`], right after each protocol call. The lane structure
//! mirrors the engines: techniques that demand a single compute thread per
//! worker (single-layer token) get one sequential lane per worker walking
//! all its partitions in order; all others get one per partition (maximal
//! modeled concurrency). The model's abstract program never halts: every
//! vertex is runnable in every superstep. A same-worker update is visible
//! at once, except under BSP (Proposition 1), where every update waits for
//! the master's write-all.

use crate::config::{ExploreConfig, FaultPlan};
use sg_graph::partition::HashPartitioner;
use sg_graph::{ClusterLayout, Graph, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{Metrics, TraceBuffer, TraceEventKind};
use sg_serial::{HistorySummary, IncrementalChecker};
use sg_sync::{
    build_synchronizer, LockGranularity, NetAction, PartitionWalk, QueueTransport, Step,
    Synchronizer,
};
use std::fmt;
use std::sync::Arc;

/// One atomic, reorderable step of the modeled execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Lane runs one non-blocking pass of its unit acquisition (request
    /// missing forks, collect yielded ones).
    TryAcquire(u32),
    /// Lane begins its current vertex's transaction (the read step).
    Begin(u32),
    /// Lane ends its current vertex (sends + write step).
    End(u32),
    /// Lane releases its held unit (forks hand over here).
    Release(u32),
    /// Worker reaches the superstep barrier.
    Barrier(u32),
    /// The master ends the superstep: the technique's end of superstep (a
    /// token pass is *sent* here; Proposition 1's forks move here), then
    /// every worker's write-all — under BSP, the flush that makes the
    /// superstep's updates visible.
    MasterStep,
    /// The in-flight global token lands at its destination.
    DeliverToken,
    /// All barriers passed and the token landed: the next superstep opens.
    NextSuperstep,
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
        }
    }
}

/// A serializability or protocol violation found in an explored state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// C1 broken: a transaction began while an in-neighbor replica was
    /// stale (a sent update was not yet visible).
    StaleRead {
        /// Superstep of the offending begin.
        superstep: u64,
    },
    /// C2 broken: neighbor transactions overlapped in time.
    NeighborOverlap {
        /// Superstep of the offending begin.
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

/// One sequential execution lane — a worker thread of the engines: the
/// walks of the partitions it runs this superstep, plus the transaction it
/// has open.
#[derive(Debug)]
struct Lane {
    worker: WorkerId,
    /// One walk per partition the lane runs, in order; all built when the
    /// superstep opens (building one decides the halted-partition skip).
    walks: Vec<PartitionWalk>,
    /// The vertex whose transaction is open, and `now` when it began
    /// (trace timestamps).
    open: Option<(VertexId, u64)>,
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
    /// Replica updates not yet visible, per sending worker: they become
    /// visible when a C1 flush point fires (a fork or the token leaving the
    /// worker, or the superstep's write-all).
    outbox: Vec<Vec<(VertexId, VertexId)>>,
    /// Under BSP, same-worker updates wait in the outbox too.
    bsp: bool,
    /// Does this run have an exclusive global token to account for?
    tracks_token: bool,
    /// Worker holding the global token; `None` while it is in flight — or,
    /// after an injected fault, lost.
    token_at: Option<WorkerId>,
    in_flight: Option<Flight>,
    /// A routing violation seen while applying a pass (wrong sender, or a
    /// second pass in flight), reported by the next invariant check.
    misroute: Option<String>,
    checker: IncrementalChecker,
    lanes: Vec<Lane>,
    superstep: u64,
    max_supersteps: u64,
    barrier: Vec<bool>,
    master_done: bool,
    finished: bool,
    violation: Option<Violation>,
    /// Executed-event counter, doubling as virtual time.
    now: u64,
    trace: Option<Arc<TraceBuffer>>,
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
        let tech = build_synchronizer(cfg.technique, &graph, &pm, Arc::new(Metrics::new()));
        let tracks_token = cfg.technique.uses_global_token() && cfg.workers > 1;
        let checker = IncrementalChecker::new(Arc::clone(&graph));
        let mut model = Self {
            fault: cfg.fault,
            graph,
            pm,
            tech,
            net: QueueTransport::default(),
            outbox: vec![Vec::new(); cfg.workers as usize],
            bsp: cfg.technique.requires_bsp(),
            tracks_token,
            token_at: tracks_token.then(|| WorkerId::new(0)), // both rings start at worker 0
            in_flight: None,
            misroute: None,
            checker,
            lanes: Vec::new(),
            superstep: 0,
            max_supersteps: cfg.supersteps,
            barrier: vec![false; cfg.workers as usize],
            master_done: false,
            finished: cfg.supersteps == 0,
            violation: None,
            now: 0,
            trace,
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
            if !passed && (0..self.lanes.len()).filter(mine).all(done) {
                events.push(Event::Barrier(w as u32));
            }
        }
        if (0..self.lanes.len()).all(done) && !self.master_done {
            events.push(Event::MasterStep);
        }
        if self.in_flight.is_some() {
            events.push(Event::DeliverToken);
        }
        if self.master_done && self.barrier.iter().all(|&b| b) && self.in_flight.is_none() {
            events.push(Event::NextSuperstep);
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
                match self.tech.try_acquire_unit(unit, &self.net) {
                    Some(_) => self.lanes[li].walks[wi].granted(),
                    None => {
                        self.lanes[li].parked = true;
                        let worker = self.lanes[li].worker.raw();
                        self.record(worker, TraceEventKind::LockWait, 0, u64::from(unit));
                    }
                }
            }
            Event::Begin(li) => {
                let (_, Step::Run { v, .. }) = self.advance(li as usize) else {
                    panic!("{e} is not lane {li}'s next step");
                };
                self.lanes[li as usize].open = Some((v, self.now));
                self.checker.begin(v);
            }
            Event::End(li) => {
                let lane = &mut self.lanes[li as usize];
                let (v, since) = lane.open.take().expect("end without begin");
                let worker = lane.worker;
                // The write step: the update to every out-neighbor replica
                // is sent; same-worker replicas see it immediately, unless
                // under BSP, and the rest wait for a C1 flush point.
                for &t in self.graph.out_neighbors(v) {
                    self.checker.on_send(v, t);
                    if !self.bsp && self.pm.worker_of(t) == worker {
                        self.checker.on_visible(v, t);
                    } else {
                        self.outbox[worker.index()].push((v, t));
                    }
                }
                self.checker.end(v);
                let dur = self.now - since;
                self.record_full(
                    worker.raw(),
                    TraceEventKind::VertexExecute,
                    since,
                    dur,
                    u64::from(v.raw()),
                );
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
                self.barrier[w as usize] = true;
                self.record(w, TraceEventKind::BarrierWait, 0, 0);
            }
            Event::MasterStep => {
                // Technique rotation first (the token pass and its C1 flush
                // of the sender), then the BSP write-all for everyone.
                self.tech.end_superstep(self.superstep, &self.net);
                self.apply_net();
                for w in 0..self.outbox.len() {
                    self.flush_worker(WorkerId::new(w as u32));
                }
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
                    if let Some(t) = &self.trace {
                        t.record_peer(
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
            }
            Event::NextSuperstep => {
                self.superstep += 1;
                if self.superstep >= self.max_supersteps {
                    self.finished = true;
                } else {
                    self.barrier.iter_mut().for_each(|b| *b = false);
                    self.master_done = false;
                    self.build_lanes();
                }
            }
        }
        self.post_event();
    }

    /// The C1 flush of worker `w`: everything it buffered becomes visible.
    fn flush_worker(&mut self, w: WorkerId) {
        for (from, to) in std::mem::take(&mut self.outbox[w.index()]) {
            self.checker.on_visible(from, to);
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
                    self.flush_worker(from);
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

    fn check_invariants(&mut self) -> Option<Violation> {
        if let Some(detail) = self.misroute.take() {
            return Some(Violation::TokenMisrouted {
                superstep: self.superstep,
                detail,
            });
        }
        if self.tracks_token
            && !self.finished
            && self.token_at.is_none()
            && self.in_flight.is_none()
        {
            return Some(Violation::TokenLost {
                superstep: self.superstep,
            });
        }
        let status = self.checker.status();
        if status.c1_violations > 0 {
            return Some(Violation::StaleRead {
                superstep: self.superstep,
            });
        }
        if status.c2_violations > 0 {
            return Some(Violation::NeighborOverlap {
                superstep: self.superstep,
            });
        }
        if !status.serialization_graph_acyclic {
            return Some(Violation::SerializationCycle {
                superstep: self.superstep,
            });
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
    /// "more valuable to defer". Token deliveries score highest, then
    /// acquisitions of contended units (scaled by conflict degree), then
    /// barriers and transaction ends (deferring ends widens overlap
    /// windows); begins and bookkeeping score zero.
    pub fn delay_score(&self, e: Event) -> u64 {
        match e {
            Event::DeliverToken => 1000,
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
            Event::Begin(_) => 1,
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
        self.checker.log().summarize(self.checker.graph())
    }

    fn record(&self, worker: u32, kind: TraceEventKind, dur: u64, arg: u64) {
        self.record_full(worker, kind, self.now, dur, arg);
    }

    fn record_full(&self, worker: u32, kind: TraceEventKind, ts: u64, dur: u64, arg: u64) {
        if let Some(t) = &self.trace {
            t.record(worker, self.superstep, kind, ts * 1000, dur * 1000, arg);
        }
    }

    /// One protocol message `from -> to`, taking the current tick.
    fn record_hop(&self, from: WorkerId, to: WorkerId, kind: TraceEventKind, arg: u64) {
        if let Some(t) = &self.trace {
            let at = self.now * 1000;
            t.record_peer(from.raw(), self.superstep, kind, at, 1000, arg, to.raw());
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

    /// Always pick the first enabled event (the canonical straight-line
    /// schedule) until the model stops.
    fn run_first_choice(model: &mut Model) -> usize {
        let mut steps = 0;
        loop {
            if model.finished() || model.violation().is_some() {
                return steps;
            }
            let enabled = model.enabled();
            if enabled.is_empty() {
                model.flag_deadlock();
                return steps;
            }
            model.execute(enabled[0]);
            steps += 1;
            assert!(steps < 100_000, "runaway model");
        }
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
        // Drive to completion, ending the superstep as soon as possible
        // (before the barriers) and then deferring DeliverToken while
        // anything else is enabled — the racy window the fault needs.
        let mut steps = 0;
        loop {
            if model.finished() || model.violation().is_some() {
                break;
            }
            let enabled = model.enabled();
            if enabled.is_empty() {
                model.flag_deadlock();
                break;
            }
            let pick = enabled
                .iter()
                .position(|e| *e == Event::MasterStep)
                .or_else(|| enabled.iter().position(|e| *e != Event::DeliverToken))
                .unwrap_or(0);
            model.execute(enabled[pick]);
            steps += 1;
            assert!(steps < 100_000, "runaway model");
        }
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
        let mut steps = 0;
        // Prefer Begins over everything else to maximize open overlap.
        loop {
            if model.finished() || model.violation().is_some() {
                break;
            }
            let enabled = model.enabled();
            if enabled.is_empty() {
                model.flag_deadlock();
                break;
            }
            let pick = enabled
                .iter()
                .position(|e| matches!(e, Event::Begin(_)))
                .unwrap_or(0);
            model.execute(enabled[pick]);
            steps += 1;
            assert!(steps < 100_000, "runaway model");
        }
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

    /// A fresh token-ring model with one remote update buffered on each
    /// worker, over an edge `a - b` that the partitioning cuts: `a` lives
    /// on worker 0 (where the ring starts), `b` on worker 1.
    fn ring_with_buffered_updates() -> (Model, VertexId, VertexId) {
        let mut m = Model::new(&cfg(TechniqueKind::SingleToken), None);
        let home = |m: &Model, x| m.pm.worker_of(x);
        let (a, b) = (m.graph.vertices())
            .flat_map(|a| m.graph.out_neighbors(a).iter().map(move |&b| (a, b)))
            .find(|&(a, b)| home(&m, a) == w(0) && home(&m, b) == w(1))
            .expect("ring:8 on two workers has a cut edge");
        for (from, to) in [(a, b), (b, a)] {
            let sender = home(&m, from).index();
            m.checker.on_send(from, to);
            m.outbox[sender].push((from, to));
        }
        (m, a, b)
    }

    #[test]
    fn a_ring_pass_flushes_only_the_sender_and_the_write_all_the_rest() {
        let (mut m, a, b) = ring_with_buffered_updates();
        m.net.transfer(w(0), w(1), None);
        m.apply_net();
        assert!(m.outbox[0].is_empty());
        assert_eq!(m.outbox[1], vec![(b, a)]);
        // `b` now reads `a` fresh; `a` would still read `b` stale.
        m.checker.begin(b);
        assert_eq!(m.checker.status().c1_violations, 0);
        m.checker.begin(a);
        assert_eq!(m.checker.status().c1_violations, 1);
        for w in 0..2 {
            m.flush_worker(WorkerId::new(w)); // the superstep write-all
        }
        assert!(m.outbox.iter().all(Vec::is_empty));
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
        let (mut m, ..) = ring_with_buffered_updates();
        m.net.transfer(w(0), w(1), Some(7));
        m.net.request(w(1), w(0));
        m.post_event();
        assert!(m.outbox[0].is_empty(), "the fork's sender flushed");
        assert_eq!(m.outbox[1].len(), 1, "nobody else did");
        assert_eq!((m.token_at, m.in_flight), (Some(w(0)), None));
        assert!(m.violation().is_none(), "{:?}", m.violation());
    }
}
