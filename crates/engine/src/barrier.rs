//! The barrier half of the superstep cycle, written once for every host
//! with global barriers. [`close`] runs, in order: every worker's
//! write-all; the technique's end of superstep, whose transport effects the
//! host applies at once; the inboxes' BSP flip; the aggregators' roll; the
//! superstep and barrier counters. [`halts`] is the verdict the host then
//! reaches. Its own extras — its clock, `BarrierWait` events, gauges, GC,
//! checkpoints — sit around the two calls.

use crate::aggregators::AggregatorSet;
use crate::program::VertexProgram;
use crate::store::InboxPair;
use sg_graph::PartitionMap;
use sg_metrics::{Counter, Metrics};
use sg_sync::{SyncTransport, Synchronizer};

/// What [`close`] needs from its host: two hooks, and the run's shared
/// state to act on.
pub trait BarrierHost {
    type Message: Clone + Send + 'static;

    /// Worker `w`'s write-all: on return, everything it staged for other
    /// workers is in their inboxes.
    fn write_all(&mut self, w: usize);

    /// Apply what the technique told a queueing transport.
    fn apply_actions(&mut self) {}

    fn parts(&self) -> BarrierParts<'_, Self::Message>;
}

/// The run's shared state, as the barrier sees it.
pub struct BarrierParts<'a, M> {
    pub sync: &'a dyn Synchronizer,
    pub transport: &'a dyn SyncTransport,
    pub inboxes: &'a InboxPair<M>,
    pub pm: &'a PartitionMap,
    pub aggregators: &'a AggregatorSet,
    pub metrics: &'a Metrics,
}

/// Close `superstep` on `host`.
pub fn close<H: BarrierHost>(host: &mut H, superstep: u64) {
    let workers = host.parts().pm.layout().num_workers() as usize;
    for w in 0..workers {
        host.write_all(w);
    }
    let parts = host.parts();
    parts.sync.end_superstep(superstep, parts.transport);
    host.apply_actions();

    let parts = host.parts();
    parts.inboxes.flip(parts.pm);
    parts.aggregators.roll();
    parts.metrics.inc(Counter::Supersteps);
    parts.metrics.inc(Counter::Barriers);
}

/// Does the run stop after `superstep`? When the master hook says so, or
/// when no vertex is active and no message is queued.
pub fn halts<P: VertexProgram>(
    program: &P,
    superstep: u64,
    aggregators: &AggregatorSet,
    active: usize,
    pending: usize,
) -> bool {
    program.master_halt(superstep, &aggregators.view()) || (active == 0 && pending == 0)
}
