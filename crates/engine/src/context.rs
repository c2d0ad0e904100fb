//! The per-vertex execution context handed to `compute()`.

use crate::aggregators::AggregatorSet;
use crate::program::VertexProgram;
use sg_graph::{Graph, VertexId};
use sg_metrics::{Trace, TraceEventKind};

/// What a vertex program sees while executing one vertex: its value, the
/// superstep number, its out-edges, aggregator access, and the message
/// sending / halting verbs of the Pregel API.
///
/// Sends are collected and dispatched by the engine immediately after
/// `compute()` returns (still within the vertex's transaction, before its
/// write is considered committed).
pub struct Context<'a, P: VertexProgram + ?Sized> {
    pub(crate) vertex: VertexId,
    pub(crate) superstep: u64,
    pub(crate) worker: u32,
    pub(crate) graph: &'a Graph,
    pub(crate) value: &'a mut P::Value,
    pub(crate) halt: bool,
    pub(crate) outgoing: &'a mut Vec<(VertexId, P::Message)>,
    pub(crate) aggregators: &'a AggregatorSet,
    pub(crate) trace: &'a Trace,
    pub(crate) clock_ns: u64,
}

impl<'a, P: VertexProgram + ?Sized> Context<'a, P> {
    /// Build a context for a runtime *outside* this crate's engine — the
    /// `sg-net` cluster worker executes vertex programs over TCP and needs
    /// the same Pregel verbs without access to the private engine state.
    /// Sends accumulate in `outgoing`; the caller dispatches them after
    /// `compute()` returns and reads the halt vote via
    /// [`Context::halted`].
    #[allow(clippy::too_many_arguments)]
    pub fn external(
        vertex: VertexId,
        superstep: u64,
        worker: u32,
        graph: &'a Graph,
        value: &'a mut P::Value,
        outgoing: &'a mut Vec<(VertexId, P::Message)>,
        aggregators: &'a AggregatorSet,
        trace: &'a Trace,
        clock_ns: u64,
    ) -> Self {
        Self {
            vertex,
            superstep,
            worker,
            graph,
            value,
            halt: false,
            outgoing,
            aggregators,
            trace,
            clock_ns,
        }
    }

    /// Did the program vote to halt during this `compute()` call?
    #[inline]
    pub fn halted(&self) -> bool {
        self.halt
    }
}

impl<P: VertexProgram + ?Sized> Context<'_, P> {
    /// The vertex being executed.
    #[inline]
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Current superstep (0-based).
    #[inline]
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The simulated worker executing this vertex.
    #[inline]
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// The executing lane's clock on its host, nanoseconds, as of entry to
    /// this `compute()` call: virtual time on the simulator, wall time
    /// since the run started on the thread engine (0 there unless tracing
    /// or breakdown is on), wall time since the coordinator's epoch on a
    /// networked worker (0 there unless tracing is on).
    #[inline]
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Drop a `user_marker` annotation into the trace at
    /// [`Context::clock_ns`], tagged with `tag` (e.g. a phase number or a
    /// residual bucket). One branch and gone when tracing is off; never
    /// perturbs the computation.
    #[inline]
    pub fn trace_marker(&self, tag: u64) {
        self.trace.record(
            self.worker,
            self.superstep,
            TraceEventKind::UserMarker,
            self.clock_ns,
            0,
            tag,
        );
    }

    /// Number of vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        u64::from(self.graph.num_vertices())
    }

    /// The vertex's current value.
    #[inline]
    pub fn value(&self) -> &P::Value {
        self.value
    }

    /// Mutable access to the vertex's value.
    #[inline]
    pub fn value_mut(&mut self) -> &mut P::Value {
        self.value
    }

    /// Replace the vertex's value.
    #[inline]
    pub fn set_value(&mut self, v: P::Value) {
        *self.value = v;
    }

    /// Out-edge neighbors of this vertex.
    #[inline]
    pub fn out_neighbors(&self) -> &[VertexId] {
        self.graph.out_neighbors(self.vertex)
    }

    /// Out-degree (`deg+(u)` in the paper's PageRank).
    #[inline]
    pub fn out_degree(&self) -> u32 {
        self.graph.out_degree(self.vertex)
    }

    /// Send `msg` to vertex `to`.
    #[inline]
    pub fn send(&mut self, to: VertexId, msg: P::Message) {
        self.outgoing.push((to, msg));
    }

    /// Broadcast `msg` to all out-edge neighbors.
    pub fn send_to_all(&mut self, msg: P::Message)
    where
        P::Message: Clone,
    {
        // Borrow the adjacency slice directly from the graph (not through
        // `self`) so the mutable push below is allowed.
        let neighbors = self.graph.out_neighbors(self.vertex);
        self.outgoing.reserve(neighbors.len());
        for &to in neighbors {
            self.outgoing.push((to, msg.clone()));
        }
    }

    /// Vote to halt: the vertex becomes inactive until a message arrives.
    #[inline]
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }

    /// Contribute to a registered aggregator (visible next superstep).
    #[inline]
    pub fn aggregate(&self, name: &str, value: f64) {
        self.aggregators.aggregate(name, value);
    }

    /// Read an aggregator's value from the previous superstep.
    #[inline]
    pub fn aggregated(&self, name: &str) -> f64 {
        self.aggregators.previous(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::AggOp;
    use sg_graph::gen;

    struct Dummy;
    impl VertexProgram for Dummy {
        type Value = u64;
        type Message = u64;
        fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
            0
        }
        fn compute(&self, _ctx: &mut Context<'_, Self>, _m: &[u64]) {}
    }

    fn with_ctx_traced<R>(
        trace: &Trace,
        f: impl FnOnce(&mut Context<'_, Dummy>) -> R,
    ) -> (R, Vec<(VertexId, u64)>, u64, bool) {
        let g = gen::ring(4);
        let mut value = 41u64;
        let mut outgoing = Vec::new();
        let mut aggs = AggregatorSet::new();
        aggs.register("a", AggOp::Sum);
        aggs.aggregate("a", 5.0);
        aggs.roll();
        let mut ctx = Context::<Dummy> {
            vertex: VertexId::new(1),
            superstep: 3,
            worker: 2,
            graph: &g,
            value: &mut value,
            halt: false,
            outgoing: &mut outgoing,
            aggregators: &aggs,
            trace,
            clock_ns: 777,
        };
        let r = f(&mut ctx);
        let halt = ctx.halt;
        (r, outgoing, value, halt)
    }

    fn with_ctx<R>(
        f: impl FnOnce(&mut Context<'_, Dummy>) -> R,
    ) -> (R, Vec<(VertexId, u64)>, u64, bool) {
        with_ctx_traced(&Trace::disabled(), f)
    }

    #[test]
    fn accessors() {
        let ((), _, _, _) = with_ctx(|ctx| {
            assert_eq!(ctx.vertex(), VertexId::new(1));
            assert_eq!(ctx.superstep(), 3);
            assert_eq!(ctx.worker(), 2);
            assert_eq!(ctx.clock_ns(), 777);
            assert_eq!(ctx.num_vertices(), 4);
            assert_eq!(ctx.out_degree(), 2);
            assert_eq!(ctx.out_neighbors(), &[VertexId::new(0), VertexId::new(2)]);
            assert_eq!(*ctx.value(), 41);
            assert_eq!(ctx.aggregated("a"), 5.0);
        });
    }

    #[test]
    fn trace_marker_records_with_context_stamps() {
        // Disabled trace: a no-op, not a panic.
        let ((), _, _, _) = with_ctx(|ctx| ctx.trace_marker(99));

        let trace = Trace::enabled(4, 16);
        let ((), _, _, _) = with_ctx_traced(&trace, |ctx| ctx.trace_marker(42));
        let events = trace.buffer().expect("enabled").events(2);
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.kind, TraceEventKind::UserMarker);
        assert_eq!(e.superstep, 3);
        assert_eq!(e.ts_ns, 777);
        assert_eq!(e.arg, 42);
    }

    #[test]
    fn set_value_and_halt() {
        let ((), _, value, halt) = with_ctx(|ctx| {
            ctx.set_value(7);
            ctx.vote_to_halt();
        });
        assert_eq!(value, 7);
        assert!(halt);
    }

    #[test]
    fn sends_collect_in_order() {
        let ((), outgoing, _, _) = with_ctx(|ctx| {
            ctx.send(VertexId::new(3), 9);
            ctx.send_to_all(1);
        });
        assert_eq!(
            outgoing,
            vec![
                (VertexId::new(3), 9),
                (VertexId::new(0), 1),
                (VertexId::new(2), 1),
            ]
        );
    }
}
