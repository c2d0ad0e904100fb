//! The transaction half of the superstep cycle: one vertex execution,
//! start to finish, written once for every host, on the one vertex state
//! every host keeps — a [`PartitionData`] per partition.
//!
//! [`sg_sync::PartitionWalk`] decides *which* vertex runs next and under
//! which unit; [`Cycle::run_vertex`] is what running it means, in the
//! order conditions C1 and C2 lean on:
//!
//! 1. **drain** the vertex's inbox in the run's [`InboxPair`] (the reads
//!    the transaction makes);
//! 2. **open** the record — the in-process [`Recorder`]'s and the host's;
//! 3. call the program's `compute` on the partition's value, in place —
//!    the only call site in the engine, the networked worker and the
//!    simulator;
//! 4. store the halt vote in the partition and **publish** the new value;
//! 5. record and route each outgoing message, in send order: one for the
//!    executing worker lands in the [`InboxPair`] at once, one for another
//!    worker goes to the host's remote path — where it is *staged*,
//!    before the walk's `Release`, so the release-triggered write-all
//!    finds it (C1);
//! 6. **close** the record and count the execution.
//!
//! What differs per host — what publishing a value means, how a message
//! reaches another worker, a record of its own — sits behind the four
//! [`Host`] hooks; `run_vertex` is generic over them (monomorphised, no
//! dynamic dispatch per vertex).

use crate::aggregators::AggregatorSet;
use crate::context::Context;
use crate::program::{Combiner, VertexProgram};
use crate::state::PartitionData;
use crate::store::{Envelope, InboxPair};
use sg_graph::{Graph, PartitionMap, VertexId};
use sg_metrics::{Counter, Metrics, Trace};
use sg_serial::Recorder;

/// The IO one vertex transaction needs from its host. Hooks are called in
/// the module header's order, all for the same vertex.
pub trait Host<P: VertexProgram> {
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

    /// Execute the `local`-th vertex of `data` on `worker` in `superstep`
    /// as one transaction, with `host` for its IO; `clock_ns` is the
    /// executing lane's clock on entry, on the host's own clock.
    pub fn run_vertex<H: Host<P>>(
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
        for (to, msg) in self.outgoing.drain(..) {
            if let Some(r) = env.recorder {
                r.on_send(v, to);
            }
            // The message's one table lookup: the owner routes it, the
            // slot addresses the owner's store.
            let slot = env.pm.slot_of(to);
            let to_worker = layout.worker_of_partition(slot.0).raw();
            if to_worker == worker {
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
    use crate::config::Model;
    use sg_graph::partition::ExplicitPartitioner;
    use sg_graph::{gen, ClusterLayout, PartitionId};
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
        // Vertex 2 (partition 0's 1st) has mail from its neighbours 3 and 0.
        let v2 = VertexId::new(2);
        for (from, msg) in [(3, 5), (0, 6)] {
            let from = VertexId::new(from);
            recorder.on_send(from, v2);
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
}
