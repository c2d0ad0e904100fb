//! Token-passing synchronization techniques (Sections 4.2 and 5.3).
//!
//! Both techniques gate which vertices may execute in a given superstep;
//! tokens rotate at superstep boundaries. Because rotation is round-robin
//! and superstep-indexed, the holder of each token is a pure function of
//! the superstep number — matching the paper's fixed ring ("the token ring
//! is fixed: workers that are finished must still receive and pass along
//! the token", Section 5.2, which is exactly the weakness the partition
//! techniques remove).

use crate::chandy_misra::mono_ns;
use crate::technique::Synchronizer;
use crate::transport::SyncTransport;
use sg_graph::{ClusterLayout, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{Counter, HistogramHandle, Metrics};
use std::sync::Arc;

/// The `sg_sync_token_pass_ns{technique=...}` histogram, if the metrics
/// sink has a telemetry registry attached at technique construction.
/// Measures the wall-clock cost of one global token handover: the C1
/// flush round-trip, which on the networked transport is a real
/// flush-and-ack exchange.
fn pass_histogram(metrics: &Metrics, technique: &'static str) -> Option<HistogramHandle> {
    metrics
        .telemetry()
        .map(|t| t.histogram("sg_sync_token_pass_ns", &[("technique", technique)]))
}

/// Pass the global token `from -> to`: counted, and timed around the whole
/// handover. The holder flushes its remote replica updates before passing
/// (C1, Section 4.2); `transfer` returns once the receiver has applied
/// them, and only then is the token passed.
fn pass_global_token(
    metrics: &Metrics,
    hist: Option<&HistogramHandle>,
    from: WorkerId,
    to: WorkerId,
    transport: &dyn SyncTransport,
) {
    metrics.inc(Counter::GlobalTokenPasses);
    let t0 = hist.map(|_| mono_ns());
    transport.transfer(from, to, None);
    if let (Some(h), Some(t0)) = (hist, t0) {
        h.record(mono_ns().saturating_sub(t0));
    }
}

/// Single-layer token passing (Section 4.2, from Giraphx): one exclusive
/// global token rotates round-robin over the workers; each worker runs a
/// **single** compute thread. m-internal vertices always execute (their
/// neighborhood is serialized by the single thread); m-boundary vertices
/// execute only while their worker holds the token.
pub struct SingleLayerToken {
    pm: Arc<PartitionMap>,
    num_workers: u32,
    metrics: Arc<Metrics>,
    pass_hist: Option<HistogramHandle>,
}

impl SingleLayerToken {
    /// Build over the given partition map.
    pub fn new(pm: Arc<PartitionMap>, metrics: Arc<Metrics>) -> Self {
        let num_workers = pm.layout().num_workers();
        let pass_hist = pass_histogram(&metrics, "single-token");
        Self {
            pm,
            num_workers,
            metrics,
            pass_hist,
        }
    }

    /// The worker holding the global token during `superstep`.
    #[inline]
    pub fn holder(&self, superstep: u64) -> WorkerId {
        WorkerId::new((superstep % u64::from(self.num_workers)) as u32)
    }
}

impl Synchronizer for SingleLayerToken {
    fn name(&self) -> &'static str {
        "single-token"
    }

    fn max_threads_per_worker(&self) -> Option<u32> {
        Some(1)
    }

    fn vertex_allowed(&self, superstep: u64, v: VertexId) -> bool {
        !self.pm.is_m_boundary(v) || self.pm.worker_of(v) == self.holder(superstep)
    }

    fn end_superstep(&self, superstep: u64, transport: &dyn SyncTransport) {
        if self.num_workers > 1 {
            let from = self.holder(superstep);
            let to = self.holder(superstep + 1);
            // Token uniqueness on the fixed ring: exactly one pass per
            // superstep, always to the successor worker. A violation here
            // means the exclusive global token was duplicated or misrouted.
            #[cfg(feature = "sg-invariants")]
            {
                assert_ne!(from, to, "sg-invariants: token passed to its holder");
                assert_eq!(
                    to.raw(),
                    (from.raw() + 1) % self.num_workers,
                    "sg-invariants: single-layer token left the fixed ring"
                );
            }
            let hist = self.pass_hist.as_ref();
            pass_global_token(&self.metrics, hist, from, to, transport);
        }
    }
}

/// Dual-layer token passing (Section 5.3) — the partition aware refinement.
/// A global token rotates over workers; each worker additionally rotates a
/// local token over its own partitions. Using the Section 5.3
/// classification:
///
/// * p-internal vertices execute freely;
/// * local boundary vertices need their partition to hold the local token;
/// * remote boundary vertices need their worker to hold the global token;
/// * mixed boundary vertices need both.
///
/// Each worker keeps the global token for as many supersteps as it has
/// partitions so every (global, local) pairing occurs.
pub struct DualLayerToken {
    pm: Arc<PartitionMap>,
    num_workers: u32,
    ppw: u32,
    metrics: Arc<Metrics>,
    pass_hist: Option<HistogramHandle>,
}

impl DualLayerToken {
    /// Build over the given partition map.
    pub fn new(pm: Arc<PartitionMap>, metrics: Arc<Metrics>) -> Self {
        let layout = *pm.layout();
        let pass_hist = pass_histogram(&metrics, "dual-token");
        Self {
            pm,
            num_workers: layout.num_workers(),
            ppw: layout.partitions_per_worker(),
            metrics,
            pass_hist,
        }
    }

    /// Worker holding the global token during `superstep` (each worker
    /// holds it for `partitions_per_worker` consecutive supersteps).
    #[inline]
    pub fn global_holder(&self, superstep: u64) -> WorkerId {
        WorkerId::new(((superstep / u64::from(self.ppw)) % u64::from(self.num_workers)) as u32)
    }

    /// Partition of worker `w` holding `w`'s local token during `superstep`.
    #[inline]
    pub fn local_holder(&self, superstep: u64, w: WorkerId) -> PartitionId {
        let pos = (superstep % u64::from(self.ppw)) as u32;
        PartitionId::new(w.raw() * self.ppw + pos)
    }
}

impl Synchronizer for DualLayerToken {
    fn name(&self) -> &'static str {
        "dual-token"
    }

    fn vertex_allowed(&self, superstep: u64, v: VertexId) -> bool {
        let class = self.pm.class_of(v);
        let w = self.pm.worker_of(v);
        let local_ok = !class.needs_local_token()
            || self.pm.partition_of(v) == self.local_holder(superstep, w);
        let global_ok = !class.needs_global_token() || w == self.global_holder(superstep);
        local_ok && global_ok
    }

    fn end_superstep(&self, superstep: u64, transport: &dyn SyncTransport) {
        // Every worker passes its local token between its partitions at the
        // end of each superstep (Section 6.2). Local passes are
        // machine-internal: no flush, but they are counted.
        if self.ppw > 1 {
            self.metrics
                .add(Counter::LocalTokenPasses, u64::from(self.num_workers));
        }
        // The global token moves only when the holder's partition cycle
        // completes.
        if self.num_workers > 1 {
            let from = self.global_holder(superstep);
            let to = self.global_holder(superstep + 1);
            if from != to {
                // The global token moves only at tenure boundaries, and
                // always to the ring successor.
                #[cfg(feature = "sg-invariants")]
                {
                    assert_eq!(
                        (superstep + 1) % u64::from(self.ppw),
                        0,
                        "sg-invariants: dual-layer global pass off the tenure boundary"
                    );
                    assert_eq!(
                        to.raw(),
                        (from.raw() + 1) % self.num_workers,
                        "sg-invariants: dual-layer global token left the fixed ring"
                    );
                }
                let hist = self.pass_hist.as_ref();
                pass_global_token(&self.metrics, hist, from, to, transport);
            }
        }
    }
}

/// Convenience: how many supersteps a full rotation of both token layers
/// takes — the worst-case wait for any mixed boundary vertex.
pub fn dual_layer_cycle(layout: &ClusterLayout) -> u64 {
    u64::from(layout.num_workers()) * u64::from(layout.partitions_per_worker())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{NetAction, NoopTransport, QueueTransport};
    use sg_graph::partition::HashPartitioner;
    use sg_graph::{gen, Graph};

    fn setup(workers: u32, ppw: u32) -> (Graph, Arc<PartitionMap>) {
        let g = gen::ring(64);
        let pm = PartitionMap::build(
            &g,
            ClusterLayout::new(workers, ppw),
            &HashPartitioner::default(),
        );
        (g, Arc::new(pm))
    }

    /// A ring pass carries no unit: that is how a host tells it from a fork.
    fn ring_pass(from: u32, to: u32) -> NetAction {
        NetAction::Transfer {
            from: WorkerId::new(from),
            to: WorkerId::new(to),
            unit: None,
        }
    }

    #[test]
    fn single_token_rotates_round_robin() {
        let (_, pm) = setup(4, 1);
        let t = SingleLayerToken::new(pm, Arc::new(Metrics::new()));
        assert_eq!(t.holder(0), WorkerId::new(0));
        assert_eq!(t.holder(3), WorkerId::new(3));
        assert_eq!(t.holder(4), WorkerId::new(0));
    }

    #[test]
    fn single_token_requires_one_thread() {
        let (_, pm) = setup(2, 1);
        let t = SingleLayerToken::new(pm, Arc::new(Metrics::new()));
        assert_eq!(t.max_threads_per_worker(), Some(1));
    }

    #[test]
    fn single_token_gates_only_m_boundary() {
        let (g, pm) = setup(4, 1);
        let t = SingleLayerToken::new(Arc::clone(&pm), Arc::new(Metrics::new()));
        for s in 0..8u64 {
            for v in g.vertices() {
                let allowed = t.vertex_allowed(s, v);
                if !pm.is_m_boundary(v) {
                    assert!(allowed, "m-internal vertex {v:?} gated at superstep {s}");
                } else {
                    assert_eq!(allowed, pm.worker_of(v) == t.holder(s));
                }
            }
        }
    }

    #[test]
    fn single_token_every_vertex_eventually_allowed() {
        let (g, pm) = setup(4, 1);
        let t = SingleLayerToken::new(pm, Arc::new(Metrics::new()));
        for v in g.vertices() {
            assert!(
                (0..4).any(|s| t.vertex_allowed(s, v)),
                "vertex {v:?} never allowed in one ring cycle"
            );
        }
    }

    #[test]
    fn single_token_end_superstep_flushes_holder() {
        let (_, pm) = setup(3, 1);
        let m = Arc::new(Metrics::new());
        let t = SingleLayerToken::new(pm, Arc::clone(&m));
        let net = QueueTransport::default();
        t.end_superstep(0, &net);
        assert_eq!(net.drain(), vec![ring_pass(0, 1)]);
        assert_eq!(m.snapshot().global_token_passes, 1);
    }

    #[test]
    fn single_token_single_worker_never_passes() {
        let (_, pm) = setup(1, 1);
        let m = Arc::new(Metrics::new());
        let t = SingleLayerToken::new(pm, Arc::clone(&m));
        t.end_superstep(0, &NoopTransport);
        assert_eq!(m.snapshot().global_token_passes, 0);
    }

    #[test]
    fn dual_token_holders() {
        let (_, pm) = setup(2, 3);
        let t = DualLayerToken::new(pm, Arc::new(Metrics::new()));
        // Worker 0 holds the global token for supersteps 0..3, worker 1 for 3..6.
        assert_eq!(t.global_holder(0), WorkerId::new(0));
        assert_eq!(t.global_holder(2), WorkerId::new(0));
        assert_eq!(t.global_holder(3), WorkerId::new(1));
        assert_eq!(t.global_holder(6), WorkerId::new(0));
        // Local token cycles partitions 0,1,2 on worker 0 and 3,4,5 on worker 1.
        assert_eq!(t.local_holder(0, WorkerId::new(0)), PartitionId::new(0));
        assert_eq!(t.local_holder(4, WorkerId::new(0)), PartitionId::new(1));
        assert_eq!(t.local_holder(5, WorkerId::new(1)), PartitionId::new(5));
    }

    #[test]
    fn dual_token_every_vertex_allowed_within_cycle() {
        let (g, pm) = setup(2, 3);
        let t = DualLayerToken::new(Arc::clone(&pm), Arc::new(Metrics::new()));
        let cycle = dual_layer_cycle(pm.layout());
        assert_eq!(cycle, 6);
        for v in g.vertices() {
            assert!(
                (0..cycle).any(|s| t.vertex_allowed(s, v)),
                "vertex {v:?} (class {:?}) starved across a full dual-layer cycle",
                pm.class_of(v)
            );
        }
    }

    #[test]
    fn dual_token_mixed_requires_both() {
        let (g, pm) = setup(2, 2);
        let t = DualLayerToken::new(Arc::clone(&pm), Arc::new(Metrics::new()));
        for v in g.vertices() {
            let class = pm.class_of(v);
            for s in 0..8u64 {
                let allowed = t.vertex_allowed(s, v);
                let has_local = pm.partition_of(v) == t.local_holder(s, pm.worker_of(v));
                let has_global = pm.worker_of(v) == t.global_holder(s);
                let expected = (!class.needs_local_token() || has_local)
                    && (!class.needs_global_token() || has_global);
                assert_eq!(allowed, expected, "{v:?} class {class:?} superstep {s}");
            }
        }
    }

    #[test]
    fn dual_token_global_pass_only_on_cycle_boundary() {
        let (_, pm) = setup(2, 2);
        let m = Arc::new(Metrics::new());
        let t = DualLayerToken::new(pm, Arc::clone(&m));
        let net = QueueTransport::default();
        t.end_superstep(0, &net); // within worker 0's tenure
        assert!(net.drain().is_empty());
        t.end_superstep(1, &net); // tenure ends: 0 -> 1
        assert_eq!(net.drain(), vec![ring_pass(0, 1)]);
        let s = m.snapshot();
        assert_eq!(s.global_token_passes, 1);
        assert_eq!(s.local_token_passes, 4); // 2 workers x 2 supersteps
    }

    #[test]
    fn dual_token_no_thread_limit() {
        let (_, pm) = setup(2, 2);
        let t = DualLayerToken::new(pm, Arc::new(Metrics::new()));
        assert_eq!(t.max_threads_per_worker(), None);
    }

    #[test]
    fn token_pass_latency_recorded_when_registry_attached() {
        use sg_metrics::{MetricValue, Telemetry};
        let (_, pm) = setup(3, 1);
        let m = Arc::new(Metrics::new());
        let tel = Arc::new(Telemetry::new());
        assert!(m.attach_telemetry(Arc::clone(&tel)));
        let t = SingleLayerToken::new(pm, m);
        t.end_superstep(0, &NoopTransport);
        t.end_superstep(1, &NoopTransport);
        match tel
            .snapshot()
            .get("sg_sync_token_pass_ns", &[("technique", "single-token")])
        {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("token pass histogram missing: {other:?}"),
        }
    }

    /// No two *neighboring* vertices may be allowed in the same superstep
    /// unless their mutual exclusion is otherwise guaranteed. For token
    /// passing that guarantee is: same worker (single-layer, one thread) or
    /// same partition (dual-layer, sequential partition execution).
    #[test]
    fn single_token_gating_implies_c2() {
        let (g, pm) = setup(4, 1);
        let t = SingleLayerToken::new(Arc::clone(&pm), Arc::new(Metrics::new()));
        for s in 0..4u64 {
            for v in g.vertices() {
                if !t.vertex_allowed(s, v) {
                    continue;
                }
                for u in g.neighbors(v) {
                    if t.vertex_allowed(s, u) {
                        assert_eq!(
                            pm.worker_of(u),
                            pm.worker_of(v),
                            "cross-worker neighbors {u:?},{v:?} both allowed at {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dual_token_gating_implies_c2() {
        let (g, pm) = setup(2, 3);
        let t = DualLayerToken::new(Arc::clone(&pm), Arc::new(Metrics::new()));
        for s in 0..12u64 {
            for v in g.vertices() {
                if !t.vertex_allowed(s, v) {
                    continue;
                }
                for u in g.neighbors(v) {
                    if t.vertex_allowed(s, u) && pm.partition_of(u) != pm.partition_of(v) {
                        // Cross-partition neighbors both allowed: must be
                        // impossible — dual-layer serializes them through
                        // the local or global token.
                        panic!(
                            "neighbors {u:?} ({:?}) and {v:?} ({:?}) both allowed at superstep {s}",
                            pm.class_of(u),
                            pm.class_of(v)
                        );
                    }
                }
            }
        }
    }
}
