//! The transaction half of the superstep cycle, written once for every
//! host, on the one vertex state every host keeps — a [`PartitionData`]
//! per partition.
//!
//! [`sg_sync::PartitionWalk`] decides *which* vertex runs next and under
//! which unit; [`Cycle::run_partition`] is the one loop that follows it,
//! and `Cycle::run_vertex` is what running a vertex means, in the order
//! conditions C1 and C2 lean on:
//!
//! 1. **drain** the vertex's inbox in the run's [`InboxPair`] (the reads
//!    the transaction makes);
//! 2. **open** the record — the in-process [`Recorder`]'s and the host's;
//! 3. call the program's `compute` on the partition's value, in place —
//!    the only call site in the engine, the networked worker and the
//!    simulator;
//! 4. store the halt vote in the partition and **publish** the new value;
//! 5. record and route each outgoing message, in send order: one for the
//!    executing worker lands in the [`InboxPair`] at once (recorded only
//!    under BSP: under AP it is never in flight), one for another worker
//!    goes to the host's remote path — where it is *staged*, before the
//!    walk's `Release`, so the release-triggered write-all finds it (C1);
//! 6. **close** the record and count the execution.
//!
//! What differs per host — how it waits for a unit, what a step costs,
//! what publishing a value means, how a message reaches another worker, a
//! record of its own — sits behind the [`Host`] hooks; the cycle is
//! generic over them (monomorphised, no dynamic dispatch per step).

use crate::aggregators::AggregatorSet;
use crate::context::Context;
use crate::program::{Combiner, VertexProgram};
use crate::state::PartitionData;
use crate::store::{Envelope, InboxPair};
use sg_graph::{Graph, PartitionMap, VertexId};
use sg_metrics::{Counter, Metrics, Trace};
use sg_serial::Recorder;
use sg_sync::{PartitionWalk, Step, Synchronizer};
use std::ops::ControlFlow;

/// How a host waits, what a step costs, and the IO one vertex transaction
/// needs. The transaction's hooks are called in the module header's
/// order, all for the same vertex. The walk hooks return `Continue` to go
/// on, or `Break` to pause the walk where it is.
pub trait Host<P: VertexProgram> {
    /// Hold `unit`, or pause without it: the walk offers it again.
    fn acquire(&mut self, unit: u32) -> ControlFlow<()>;

    /// Give `unit` back: its executions have closed, their remote writes
    /// staged where the write-all the release triggers finds them (C1).
    fn release(&mut self, unit: u32) -> ControlFlow<()>;

    /// Call `run` with the host's clock on entry; charge what it ran.
    fn execute(&mut self, run: impl FnOnce(&mut Self, u64) -> Executed) -> ControlFlow<()>;

    /// Open the host's own record, if it keeps one (Lamport stamps):
    /// after the drain, so it orders after every write about to be read.
    fn open(&mut self, _v: VertexId) {}

    /// Publish the `local`-th vertex of `data` as `compute` left it: its
    /// value, its halt vote already stored.
    fn publish(&mut self, _data: &PartitionData<P::Value>, _local: usize) {}

    /// Stage for `to_worker`: visible there after the host's next flush,
    /// which must precede any handover of the executing unit.
    fn send_remote(&mut self, to_worker: u32, from: VertexId, to: VertexId, msg: P::Message);

    /// The transaction is over: close what [`Host::open`] opened, let go
    /// of what the sends held.
    fn close(&mut self, _v: VertexId) {}
}

/// The read-only context of a run's vertex transactions.
pub struct Env<'a, P: VertexProgram> {
    pub program: &'a P,
    pub graph: &'a Graph,
    pub pm: &'a PartitionMap,
    /// The run's technique, which the walks consult.
    pub sync: &'a dyn Synchronizer,
    /// The inboxes of the partitions the cycle runs: the drain reads
    /// them, a send to the executing worker lands in them.
    pub inboxes: &'a InboxPair<P::Message>,
    /// The program's combiner, where a local send lands.
    pub combiner: Option<&'a dyn Combiner<P::Message>>,
    pub aggregators: &'a AggregatorSet,
    /// Sink for the program's `trace_marker` annotations.
    pub trace: &'a Trace,
    /// The in-process history recorder, when the run keeps one.
    pub recorder: Option<&'a Recorder>,
    pub metrics: &'a Metrics,
}

/// What one execution moved, for its host to charge and trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Executed {
    /// Messages the vertex read.
    pub consumed: u64,
    /// Messages it sent.
    pub sent: u64,
    /// Of those, the ones that landed on its own worker.
    pub local: u64,
}

/// The vertex transaction, plus the scratch buffers it reuses: one per
/// compute lane, alive for the whole run, so steady-state executions
/// allocate nothing here.
pub struct Cycle<'a, P: VertexProgram> {
    env: Env<'a, P>,
    envelopes: Vec<Envelope<P::Message>>,
    messages: Vec<P::Message>,
    outgoing: Vec<(VertexId, P::Message)>,
}

impl<'a, P: VertexProgram> Cycle<'a, P> {
    /// A cycle over `env`, with empty scratch.
    pub fn new(env: Env<'a, P>) -> Self {
        Self {
            env,
            envelopes: Vec::new(),
            messages: Vec::new(),
            outgoing: Vec::new(),
        }
    }

    /// A fresh walk of `data`'s partition for this superstep.
    pub fn walk(&self, data: &PartitionData<P::Value>) -> PartitionWalk {
        let store = &self.env.inboxes.current()[data.partition().index()];
        PartitionWalk::new(data.partition(), self.env.sync, data.has_work(store))
    }

    /// Follow `walk` over `data` on `worker` in `superstep` — acquire, run,
    /// release, each through `host` — until it is done (`Continue`) or a
    /// hook pauses it (`Break`); an acquire that paused is offered again
    /// on the next call.
    pub fn run_partition<H: Host<P>>(
        &mut self,
        host: &mut H,
        walk: &mut PartitionWalk,
        data: &mut PartitionData<P::Value>,
        superstep: u64,
        worker: u32,
    ) -> ControlFlow<()> {
        let (sync, inboxes) = (self.env.sync, self.env.inboxes);
        let store = &inboxes.current()[walk.partition().index()];
        loop {
            let awake = |local, _| data.awake(store, local);
            match walk.next(sync, superstep, &data.vertices, awake) {
                Step::Acquire(unit) => {
                    host.acquire(unit)?;
                    walk.granted();
                }
                Step::Run { local, .. } => host.execute(|host, clock_ns| {
                    self.run_vertex(host, data, superstep, worker, clock_ns, local)
                })?,
                Step::Release(unit) => host.release(unit)?,
                Step::Done => return ControlFlow::Continue(()),
            }
        }
    }

    /// Execute the `local`-th vertex of `data` on `worker` in `superstep`
    /// as one transaction, with `host` for its IO; `clock_ns` is the
    /// executing lane's clock on entry, on the host's own clock.
    fn run_vertex<H: Host<P>>(
        &mut self,
        host: &mut H,
        data: &mut PartitionData<P::Value>,
        superstep: u64,
        worker: u32,
        clock_ns: u64,
        local: usize,
    ) -> Executed {
        let env = &self.env;
        let v = data.vertices[local];
        let store = &env.inboxes.current()[data.partition().index()];
        store.drain_into(local, &mut self.envelopes);
        self.messages.clear();
        self.messages
            .extend(self.envelopes.drain(..).map(|(_, m)| m));
        let guard = env.recorder.map(|r| r.begin(v));
        host.open(v);
        let mut ctx = Context::<P>::external(
            v,
            superstep,
            worker,
            env.graph,
            &mut data.values[local],
            &mut self.outgoing,
            env.aggregators,
            env.trace,
            clock_ns,
        );
        env.program.compute(&mut ctx, &self.messages);
        let halt = ctx.halted();
        data.set_halted(local, halt);
        host.publish(data, local);

        let sent = self.outgoing.len() as u64;
        let mut n_local = 0u64;
        let layout = env.pm.layout();
        // The recorder hears only of messages that can be seen in flight:
        // under AP a same-worker send is readable before `close`.
        let local_recorder = env.recorder.filter(|_| env.inboxes.defers());
        for (to, msg) in self.outgoing.drain(..) {
            // The message's one table lookup: the owner routes it, the
            // slot addresses the owner's store.
            let slot = env.pm.slot_of(to);
            let to_worker = layout.worker_of_partition(slot.0).raw();
            let local = to_worker == worker;
            if let Some(r) = if local { local_recorder } else { env.recorder } {
                r.on_send(v, to);
            }
            if local {
                n_local += 1;
                env.inboxes.deliver(v, to, slot, msg, env.combiner);
            } else {
                host.send_remote(to_worker, v, to, msg);
            }
        }
        host.close(v);
        if let (Some(r), Some(g)) = (env.recorder, guard) {
            r.end(g);
        }

        if sent > 0 {
            env.metrics.add(Counter::LocalMessages, n_local);
            env.metrics.add(Counter::RemoteMessages, sent - n_local);
        }
        env.metrics.inc(Counter::VertexExecutions);
        Executed {
            consumed: self.messages.len() as u64,
            sent,
            local: n_local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{build_synchronizer, Model, TechniqueKind};
    use sg_graph::partition::ExplicitPartitioner;
    use sg_graph::{gen, ClusterLayout, PartitionId};
    use sg_sync::NoSync;
    use std::sync::Arc;

    /// Sums its mail into its value, then writes to 3, 1, 2, 0 in that
    /// order and votes to halt.
    struct Scatter;
    impl VertexProgram for Scatter {
        type Value = u64;
        type Message = u64;
        fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
            assert_eq!((ctx.superstep(), ctx.worker()), (7, 0));
            assert_eq!(ctx.clock_ns(), 1234);
            ctx.set_value(msgs.iter().sum());
            for to in [3, 1, 2, 0] {
                ctx.send(VertexId::new(to), u64::from(to) * 10);
            }
            ctx.vote_to_halt();
        }
    }

    /// Each hook as the host saw it, with the envelopes then queued in
    /// partition 0 — worker 0's only partition, the one being walked.
    #[derive(Debug, PartialEq)]
    enum Call {
        Open(u32, usize),
        Publish(u32, bool, u64),
        Remote(u32, u32, u32, u64, usize),
        Close(u32, usize),
    }

    struct Fake<'a> {
        inboxes: &'a InboxPair<u64>,
        calls: Vec<Call>,
    }

    impl Fake<'_> {
        fn queued(&self) -> usize {
            self.inboxes.current()[0].total()
        }
    }

    impl Host<Scatter> for Fake<'_> {
        fn acquire(&mut self, _unit: u32) -> ControlFlow<()> {
            ControlFlow::Continue(())
        }
        fn release(&mut self, _unit: u32) -> ControlFlow<()> {
            ControlFlow::Continue(())
        }
        fn execute(&mut self, run: impl FnOnce(&mut Self, u64) -> Executed) -> ControlFlow<()> {
            run(self, 0);
            ControlFlow::Continue(())
        }
        fn open(&mut self, v: VertexId) {
            self.calls.push(Call::Open(v.raw(), self.queued()));
        }
        fn publish(&mut self, data: &PartitionData<u64>, local: usize) {
            let v = data.vertices[local].raw();
            let call = Call::Publish(v, data.halted(local), data.values[local]);
            self.calls.push(call);
        }
        fn send_remote(&mut self, to_worker: u32, from: VertexId, to: VertexId, msg: u64) {
            let call = Call::Remote(to_worker, from.raw(), to.raw(), msg, self.queued());
            self.calls.push(call);
        }
        fn close(&mut self, v: VertexId) {
            self.calls.push(Call::Close(v.raw(), self.queued()));
        }
    }

    #[test]
    fn hooks_fire_in_transaction_order_and_counters_match() {
        // The paper's C4 layout: worker 0 owns {0, 2}, worker 1 owns {1, 3}.
        let graph = gen::paper_c4();
        let parts = [0, 1, 0, 1].map(PartitionId::new).to_vec();
        let pm = PartitionMap::build(
            &graph,
            ClusterLayout::new(2, 1),
            &ExplicitPartitioner(parts),
        );
        let (metrics, aggs, trace) = (Metrics::new(), AggregatorSet::new(), Trace::disabled());
        let recorder = Arc::new(Recorder::new(Arc::new(graph.clone())));
        let inboxes = InboxPair::new(&pm, Model::Async, Some(Arc::clone(&recorder)), None);
        let mut data = PartitionData::init(&Scatter, &graph, &pm, PartitionId::new(0));
        // Vertex 2 (partition 0's 1st) has mail from its neighbours 3 and 0,
        // readable already: nothing in flight.
        let v2 = VertexId::new(2);
        for (from, msg) in [(3, 5), (0, 6)] {
            let from = VertexId::new(from);
            inboxes.deliver(from, v2, pm.slot_of(v2), msg, None);
        }
        let mut host = Fake {
            inboxes: &inboxes,
            calls: Vec::new(),
        };
        let mut cycle = Cycle::new(Env {
            program: &Scatter,
            graph: &graph,
            pm: &pm,
            sync: &NoSync,
            inboxes: &inboxes,
            combiner: None,
            aggregators: &aggs,
            trace: &trace,
            recorder: Some(&recorder),
            metrics: &metrics,
        });
        let ran = cycle.run_vertex(&mut host, &mut data, 7, 0, 1234, 1);
        let counts = Executed {
            consumed: 2,
            sent: 4,
            local: 2,
        };
        assert_eq!(ran, counts);
        assert_eq!(
            host.calls,
            [
                // Drained before the record opens.
                Call::Open(2, 0),
                // compute ran: 5 + 6 stored, the halt vote with it.
                Call::Publish(2, true, 11),
                // Routed in send order: the two local sends land in the
                // inbox pair between the remote ones and the close.
                Call::Remote(1, 2, 3, 30, 0),
                Call::Remote(1, 2, 1, 10, 0),
                Call::Close(2, 2),
            ]
        );
        // The local sends: to vertex 2 itself (local 1) and to vertex 0.
        let store = &inboxes.current()[0];
        assert_eq!(store.drain(0), [(v2, 0)]);
        assert_eq!(store.drain(1), [(v2, 20)]);
        assert_eq!(data.values, [0, 11]);
        assert_eq!(data.active_count(), 1);
        // The recorder saw one transaction, opened and closed, on vertex 2.
        let history = recorder.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history.txns()[0].vertex, v2);
        assert!(history.txns()[0].stale_reads.is_empty());
        // Of its sends along edges, the remote one to 3 is in flight; the
        // local one to 0 was readable before the close and recorded nothing.
        let stale_at = |u| {
            recorder.end(recorder.begin(VertexId::new(u)));
            let history = recorder.history();
            history.txns()[history.len() - 1].stale_reads.clone()
        };
        let stale: Vec<_> = (0..4).map(stale_at).collect();
        assert_eq!(stale, [vec![], vec![], vec![], vec![v2]]);
        let snap = metrics.snapshot();
        assert_eq!(snap.vertex_executions, 1);
        assert_eq!(snap.local_messages, 2);
        assert_eq!(snap.remote_messages, 2);

        // The scratch buffers are reused, not leaked into the next run.
        host.calls.clear();
        assert_eq!(
            cycle.run_vertex(&mut host, &mut data, 7, 0, 1234, 1),
            Executed {
                consumed: 0,
                ..counts
            }
        );
        assert_eq!(host.calls.len(), 5);
        assert_eq!(host.calls[1], Call::Publish(2, true, 0));
    }

    /// Counts its mail into its value, passes one message on to its 8-ring
    /// successor in superstep 0, and votes to halt.
    struct Relay;
    impl VertexProgram for Relay {
        type Value = u64;
        type Message = u64;
        fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
            0
        }
        fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
            ctx.set_value(msgs.len() as u64);
            if ctx.superstep() == 0 {
                let next = (ctx.vertex().raw() + 1) % 8;
                ctx.send(VertexId::new(next), 1);
            }
            ctx.vote_to_halt();
        }
    }

    /// A walk's hooks as the host saw them: acquires it granted, the
    /// vertices it ran (logged at `open`), remote sends, releases.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Hook {
        Acquire(u32),
        Run(u32),
        Remote(u32),
        Release(u32),
    }

    /// A host that never waits. With `pause` it pauses at the first offer
    /// of every unit and after every execution. `offered` lists every
    /// unit `acquire` was called with.
    #[derive(Default)]
    struct Walker {
        pause: bool,
        refused: Option<u32>,
        offered: Vec<u32>,
        log: Vec<Hook>,
    }

    impl Host<Relay> for Walker {
        fn acquire(&mut self, unit: u32) -> ControlFlow<()> {
            self.offered.push(unit);
            if self.pause && self.refused != Some(unit) {
                self.refused = Some(unit);
                return ControlFlow::Break(());
            }
            self.log.push(Hook::Acquire(unit));
            ControlFlow::Continue(())
        }
        fn release(&mut self, unit: u32) -> ControlFlow<()> {
            self.log.push(Hook::Release(unit));
            ControlFlow::Continue(())
        }
        fn execute(&mut self, run: impl FnOnce(&mut Self, u64) -> Executed) -> ControlFlow<()> {
            run(self, 0);
            if self.pause {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }
        fn open(&mut self, v: VertexId) {
            self.log.push(Hook::Run(v.raw()));
        }
        fn send_remote(&mut self, _to_worker: u32, _from: VertexId, to: VertexId, _msg: u64) {
            self.log.push(Hook::Remote(to.raw()));
        }
    }

    /// Walk partition 0 of an 8-ring — vertices 0-3 on worker 0, 4-7 on
    /// worker 1 — in superstep 0 under `technique`, with vertices 2 and 3
    /// asleep unless `quiet`, when all four are. Returns how many
    /// `run_partition` calls it took to reach `Done`; `host` keeps the log.
    fn walk_partition(technique: TechniqueKind, host: &mut Walker, quiet: bool) -> usize {
        let graph = gen::ring(8);
        let parts = (0..8).map(|v| PartitionId::new(v / 4)).collect();
        let pm = Arc::new(PartitionMap::build(
            &graph,
            ClusterLayout::new(2, 1),
            &ExplicitPartitioner(parts),
        ));
        let metrics = Arc::new(Metrics::new());
        let sync = build_synchronizer(technique, &graph, &pm, Arc::clone(&metrics));
        let (aggs, trace) = (AggregatorSet::new(), Trace::disabled());
        let inboxes = InboxPair::new(&pm, Model::Async, None, None);
        let mut data = PartitionData::init(&Relay, &graph, &pm, PartitionId::new(0));
        let asleep = if quiet { 0..4 } else { 2..4 };
        asleep.for_each(|local| data.set_halted(local, true));
        let mut cycle = Cycle::new(Env {
            program: &Relay,
            graph: &graph,
            pm: &pm,
            sync: &*sync,
            inboxes: &inboxes,
            combiner: None,
            aggregators: &aggs,
            trace: &trace,
            recorder: None,
            metrics: &metrics,
        });
        let mut walk = cycle.walk(&data);
        let mut calls = 1;
        while cycle
            .run_partition(host, &mut walk, &mut data, 0, 0)
            .is_break()
        {
            calls += 1;
            assert!(calls < 100, "the walk never ends");
        }
        // Each read its predecessor's message, sent earlier in the walk:
        // vertex 2 woke on vertex 1's, vertex 3 on vertex 2's.
        let read = if quiet { [0; 4] } else { [0, 1, 1, 1] };
        assert_eq!(data.values, read);
        calls
    }

    #[test]
    fn a_paused_walk_resumes_to_the_same_hooks() {
        use Hook::*;
        let runs = [Run(0), Run(1), Run(2), Run(3), Remote(4)];
        let bracketed = [
            [Acquire(0), Run(0), Release(0)].as_slice(),
            &[Acquire(1), Run(1), Release(1)],
            &[Acquire(2), Run(2), Release(2)],
            &[Acquire(3), Run(3), Remote(4), Release(3)],
        ]
        .concat();
        let cases = [
            // No locking: every pause is after an execution.
            (TechniqueKind::None, runs.to_vec(), 4),
            // One refusal of the partition's unit, four executions.
            (
                TechniqueKind::PartitionLock,
                [&[Acquire(0)], runs.as_slice(), &[Release(0)]].concat(),
                5,
            ),
            // Each vertex's unit refused once, each execution paused after.
            (TechniqueKind::VertexLock, bracketed, 8),
        ];
        for (technique, want, pauses) in cases {
            let mut straight = Walker::default();
            assert_eq!(walk_partition(technique, &mut straight, false), 1);
            assert_eq!(straight.log, want, "{technique:?}");
            let mut paused = Walker {
                pause: true,
                ..Walker::default()
            };
            let calls = walk_partition(technique, &mut paused, false);
            assert_eq!(paused.log, want, "{technique:?}, paused");
            assert_eq!(calls, pauses + 1, "{technique:?}");
            // A paused acquire is offered again, unchanged, on resume.
            let twice: Vec<u32> = (straight.offered.iter()).flat_map(|&u| [u, u]).collect();
            assert_eq!(paused.offered, twice, "{technique:?}");
        }
    }

    #[test]
    fn vertex_grain_releases_each_run_before_the_next_acquire() {
        let mut host = Walker::default();
        walk_partition(TechniqueKind::VertexLock, &mut host, false);
        let mut held = None;
        for hook in host.log {
            match hook {
                Hook::Acquire(u) => assert_eq!(held.replace(u), None, "{u} acquired while held"),
                Hook::Run(v) => assert_eq!(held, Some(v), "{v} ran without its unit"),
                Hook::Release(u) => assert_eq!(held.take(), Some(u)),
                Hook::Remote(_) => assert!(held.is_some(), "staged after the release"),
            }
        }
        assert_eq!(held, None, "the walk ended holding a unit");
    }

    #[test]
    fn a_quiet_partition_is_done_without_an_acquire() {
        let mut host = Walker {
            pause: true,
            ..Walker::default()
        };
        assert_eq!(
            walk_partition(TechniqueKind::PartitionLock, &mut host, true),
            1
        );
        assert_eq!(host.log, []);
    }
}
