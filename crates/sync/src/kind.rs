//! The technique table: every synchronization technique by name, and the
//! one factory every host builds its protocol object with.

use crate::{
    BspVertexLock, DualLayerToken, NoSync, PartitionLock, SingleLayerToken, Synchronizer,
    VertexLock,
};
use sg_graph::{Graph, PartitionMap};
use sg_metrics::Metrics;
use std::fmt;
use std::sync::Arc;

/// Which synchronization technique to pair with the AP model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TechniqueKind {
    /// No synchronization: plain BSP/AP. **Not serializable.**
    None,
    /// Single-layer token passing (Section 4.2). One thread per worker.
    SingleToken,
    /// Dual-layer token passing (Section 5.3).
    DualToken,
    /// Vertex-based distributed locking over p-boundary vertices
    /// (Section 4.3 adapted per Section 5.2). The GraphLab-style
    /// all-vertices variant, [`VertexLock::new_all_vertices`], is what
    /// `sg-gas` runs; it has no label because no Pregel host runs it.
    VertexLock,
    /// Partition-based distributed locking (Section 5.4) — the paper's
    /// proposal — with the halted-partition skip optimization.
    PartitionLock,
    /// Partition-based locking without the halted-partition skip, for the
    /// ablation benchmarks.
    PartitionLockNoSkip,
    /// Proposition 1: constrained vertex-based locking for the **BSP**
    /// model — all vertices are philosophers, fork/token exchanges happen
    /// only at global barriers (sub-superstep execution). The only
    /// technique valid with the BSP model.
    BspVertexLock,
}

impl TechniqueKind {
    /// Every technique, in the order reports and usage texts list them.
    pub const ALL: [TechniqueKind; 7] = [
        TechniqueKind::None,
        TechniqueKind::SingleToken,
        TechniqueKind::DualToken,
        TechniqueKind::VertexLock,
        TechniqueKind::PartitionLock,
        TechniqueKind::PartitionLockNoSkip,
        TechniqueKind::BspVertexLock,
    ];

    /// Does this technique provide serializability (enforce C1 and C2)?
    pub fn serializable(self) -> bool {
        !matches!(self, TechniqueKind::None)
    }

    /// Does this technique need BSP visibility — every send, same-worker
    /// ones included, hidden until the superstep's barrier? Proposition 1
    /// does, and it is valid with no other model.
    pub fn requires_bsp(self) -> bool {
        matches!(self, TechniqueKind::BspVertexLock)
    }

    /// Does this technique move an exclusive global token between workers?
    pub fn uses_global_token(self) -> bool {
        matches!(self, TechniqueKind::SingleToken | TechniqueKind::DualToken)
    }

    /// Short name used in benchmark tables, on command lines, on the wire
    /// and in counterexample files.
    pub fn label(self) -> &'static str {
        match self {
            TechniqueKind::None => "none",
            TechniqueKind::SingleToken => "single-token",
            TechniqueKind::DualToken => "dual-token",
            TechniqueKind::VertexLock => "vertex-lock",
            TechniqueKind::PartitionLock => "partition-lock",
            TechniqueKind::PartitionLockNoSkip => "partition-lock/noskip",
            TechniqueKind::BspVertexLock => "bsp-vertex-lock",
        }
    }

    /// Inverse of [`TechniqueKind::label`].
    pub fn from_label(label: &str) -> Option<TechniqueKind> {
        Self::ALL.into_iter().find(|t| t.label() == label)
    }
}

impl fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Build the synchronizer for `kind` over `pm` — the one technique
/// factory every host (thread engine, simulator, model checker, cluster
/// coordinator and worker replicas) constructs its protocol object with.
/// `metrics` must already carry its telemetry registry, if any: the
/// techniques grab their histogram handles at construction.
pub fn build_synchronizer(
    kind: TechniqueKind,
    graph: &Graph,
    pm: &Arc<PartitionMap>,
    metrics: Arc<Metrics>,
) -> Arc<dyn Synchronizer> {
    match kind {
        TechniqueKind::None => Arc::new(NoSync),
        TechniqueKind::SingleToken => Arc::new(SingleLayerToken::new(Arc::clone(pm), metrics)),
        TechniqueKind::DualToken => Arc::new(DualLayerToken::new(Arc::clone(pm), metrics)),
        TechniqueKind::VertexLock => Arc::new(VertexLock::new(graph, pm, metrics)),
        TechniqueKind::PartitionLock => Arc::new(PartitionLock::new(pm, metrics)),
        TechniqueKind::PartitionLockNoSkip => {
            Arc::new(PartitionLock::with_options(pm, metrics, false))
        }
        TechniqueKind::BspVertexLock => Arc::new(BspVertexLock::new(graph, pm, metrics)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::partition::HashPartitioner;
    use sg_graph::{gen, ClusterLayout};

    #[test]
    fn every_label_round_trips_and_only_none_is_unserializable() {
        for t in TechniqueKind::ALL {
            assert_eq!(TechniqueKind::from_label(t.label()), Some(t));
            assert_eq!(t.to_string(), t.label());
            assert_eq!(t.serializable(), t != TechniqueKind::None);
        }
        assert_eq!(TechniqueKind::from_label("token"), None);
    }

    #[test]
    fn the_factory_builds_the_technique_the_label_names() {
        let g = gen::ring(8);
        let pm = Arc::new(PartitionMap::build(
            &g,
            ClusterLayout::new(2, 2),
            &HashPartitioner::default(),
        ));
        for t in TechniqueKind::ALL {
            let sync = build_synchronizer(t, &g, &pm, Arc::new(Metrics::new()));
            // The no-skip ablation is the same protocol object, configured.
            let name = t.label().trim_end_matches("/noskip");
            assert_eq!(sync.name(), name);
        }
    }
}
