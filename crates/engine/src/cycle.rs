//! The transaction half of the superstep cycle: one vertex execution,
//! start to finish, written once for every host.
//!
//! [`sg_sync::PartitionWalk`] decides *which* vertex runs next and under
//! which unit; [`Cycle::run_vertex`] is what running it means, in the
//! order conditions C1 and C2 lean on:
//!
//! 1. **drain** the vertex's inbox (the reads the transaction makes);
//! 2. **open** the record — the in-process [`Recorder`]'s and the host's;
//! 3. call the program's `compute` — the only call site in the engine,
//!    the networked worker and the simulator;
//! 4. **commit** the halt vote and the new value;
//! 5. record and route each outgoing message, in send order, to the
//!    host's local or remote path — remote messages are *staged* here,
//!    before the walk's `Release`, so the release-triggered write-all
//!    finds them (C1);
//! 6. **close** the record and count the execution.
//!
//! What differs per host — where inboxes and values live, how a message
//! reaches another worker — sits behind the [`Host`] hooks; `run_vertex`
//! is generic over them (monomorphised, no dynamic dispatch per vertex).

use crate::aggregators::AggregatorSet;
use crate::context::Context;
use crate::program::VertexProgram;
use sg_graph::{Graph, PartitionId, PartitionMap, VertexId};
use sg_metrics::{Counter, Metrics, Trace};
use sg_serial::Recorder;

/// The IO one vertex transaction needs from its host. Hooks are called in
/// the module header's order, all for the same vertex `v`, the `local`-th
/// of the partition being walked.
pub trait Host<P: VertexProgram> {
    /// Move the vertex's queued messages into `into` (empty on entry), in
    /// arrival order.
    fn drain(&mut self, local: usize, v: VertexId, into: &mut Vec<P::Message>);

    /// Open the host's own record, if it keeps one (Lamport stamps):
    /// after the drain, so it orders after every write about to be read.
    fn open(&mut self, _v: VertexId) {}

    /// The vertex's value, for `compute` to mutate in place.
    fn value_mut(&mut self, local: usize, v: VertexId) -> &mut P::Value;

    /// Store the halt vote and publish the value `compute` left behind.
    fn commit(&mut self, local: usize, v: VertexId, halt: bool);

    /// Deliver to a vertex of the executing worker: visible at once.
    /// `slot` is `to`'s `PartitionMap::slot_of`, which routing the message
    /// already looked up.
    fn send_local(
        &mut self,
        from: VertexId,
        to: VertexId,
        slot: (PartitionId, u32),
        msg: P::Message,
    );

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
    pub aggregators: &'a AggregatorSet,
    /// Sink for the program's `trace_marker` annotations.
    pub trace: &'a Trace,
    /// The in-process history recorder, when the run keeps one.
    pub recorder: Option<&'a Recorder>,
    pub metrics: &'a Metrics,
}

/// The vertex transaction, plus the scratch buffers it reuses: one per
/// compute lane, alive for the whole run, so steady-state executions
/// allocate nothing here.
pub struct Cycle<'a, P: VertexProgram> {
    env: Env<'a, P>,
    messages: Vec<P::Message>,
    outgoing: Vec<(VertexId, P::Message)>,
}

impl<'a, P: VertexProgram> Cycle<'a, P> {
    /// A cycle over `env`, with empty scratch.
    pub fn new(env: Env<'a, P>) -> Self {
        Self {
            env,
            messages: Vec::new(),
            outgoing: Vec::new(),
        }
    }

    /// Execute vertex `v` on `worker` in `superstep` as one transaction
    /// against `host`; `clock_ns` is the executing lane's clock on entry,
    /// on the host's own clock. Returns `(messages consumed, messages
    /// sent)` for the host to charge and trace.
    pub fn run_vertex<H: Host<P>>(
        &mut self,
        host: &mut H,
        superstep: u64,
        worker: u32,
        clock_ns: u64,
        local: usize,
        v: VertexId,
    ) -> (u64, u64) {
        let env = &self.env;
        self.messages.clear();
        host.drain(local, v, &mut self.messages);
        let guard = env.recorder.map(|r| r.begin(v));
        host.open(v);
        let mut ctx = Context::<P>::external(
            v,
            superstep,
            worker,
            env.graph,
            host.value_mut(local, v),
            &mut self.outgoing,
            env.aggregators,
            env.trace,
            clock_ns,
        );
        env.program.compute(&mut ctx, &self.messages);
        let halt = ctx.halted();
        host.commit(local, v, halt);

        let n_out = self.outgoing.len() as u64;
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
                host.send_local(v, to, slot, msg);
            } else {
                host.send_remote(to_worker, v, to, msg);
            }
        }
        host.close(v);
        if let (Some(r), Some(g)) = (env.recorder, guard) {
            r.end(g);
        }

        if n_out > 0 {
            env.metrics.add(Counter::LocalMessages, n_local);
            env.metrics.add(Counter::RemoteMessages, n_out - n_local);
        }
        env.metrics.inc(Counter::VertexExecutions);
        (self.messages.len() as u64, n_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::partition::ExplicitPartitioner;
    use sg_graph::{gen, ClusterLayout};
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

    #[derive(Debug, PartialEq)]
    enum Call {
        Drain(usize, u32),
        Open(u32),
        Value(usize, u32),
        Commit(usize, u32, bool, u64),
        Local(u32, u32, u64),
        Remote(u32, u32, u32, u64),
        Close(u32),
    }

    #[derive(Default)]
    struct Fake {
        value: u64,
        calls: Vec<Call>,
    }

    impl Host<Scatter> for Fake {
        fn drain(&mut self, local: usize, v: VertexId, into: &mut Vec<u64>) {
            assert!(into.is_empty());
            into.extend([5, 6]);
            self.calls.push(Call::Drain(local, v.raw()));
        }
        fn open(&mut self, v: VertexId) {
            self.calls.push(Call::Open(v.raw()));
        }
        fn value_mut(&mut self, local: usize, v: VertexId) -> &mut u64 {
            self.calls.push(Call::Value(local, v.raw()));
            &mut self.value
        }
        fn commit(&mut self, local: usize, v: VertexId, halt: bool) {
            self.calls
                .push(Call::Commit(local, v.raw(), halt, self.value));
        }
        fn send_local(&mut self, from: VertexId, to: VertexId, slot: (PartitionId, u32), msg: u64) {
            // W0 = {v0, v2} is partition 0: v0 its 0th vertex, v2 its 1st.
            assert_eq!(slot, (PartitionId::new(0), to.raw() / 2));
            self.calls.push(Call::Local(from.raw(), to.raw(), msg));
        }
        fn send_remote(&mut self, to_worker: u32, from: VertexId, to: VertexId, msg: u64) {
            self.calls
                .push(Call::Remote(to_worker, from.raw(), to.raw(), msg));
        }
        fn close(&mut self, v: VertexId) {
            self.calls.push(Call::Close(v.raw()));
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
        let recorder = Recorder::new(Arc::new(graph.clone()));
        let mut host = Fake::default();
        let mut cycle = Cycle::new(Env {
            program: &Scatter,
            graph: &graph,
            pm: &pm,
            aggregators: &aggs,
            trace: &trace,
            recorder: Some(&recorder),
            metrics: &metrics,
        });
        let counts = cycle.run_vertex(&mut host, 7, 0, 1234, 1, VertexId::new(2));
        assert_eq!(counts, (2, 4));
        assert_eq!(
            host.calls,
            [
                Call::Drain(1, 2),
                Call::Open(2),
                Call::Value(1, 2),
                // compute ran between the two: 5 + 6 stored, halt voted.
                Call::Commit(1, 2, true, 11),
                Call::Remote(1, 2, 3, 30),
                Call::Remote(1, 2, 1, 10),
                Call::Local(2, 2, 20),
                Call::Local(2, 0, 0),
                Call::Close(2),
            ]
        );
        // The recorder saw one transaction, opened and closed, on vertex 2.
        let history = recorder.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history.txns()[0].vertex, VertexId::new(2));
        let snap = metrics.snapshot();
        assert_eq!(snap.vertex_executions, 1);
        assert_eq!(snap.local_messages, 2);
        assert_eq!(snap.remote_messages, 2);

        // The scratch buffers are reused, not leaked into the next run.
        host.calls.clear();
        assert_eq!(
            cycle.run_vertex(&mut host, 7, 0, 1234, 1, VertexId::new(2)),
            (2, 4)
        );
        assert_eq!(host.calls.len(), 9);
    }
}
