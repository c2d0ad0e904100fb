//! Engine configuration — cluster shape, computation model, synchronization
//! technique — and the host-independent set-up every host
//! derives from it: the partition map (the technique table and its
//! synchronizer factory live with the techniques, in `sg-sync`).

use sg_graph::partition::HashPartitioner;
use sg_graph::{ClusterLayout, Graph, PartitionId, PartitionMap};
use sg_metrics::ObsConfig;
use sg_sync::Synchronizer;
pub use sg_sync::{build_synchronizer, TechniqueKind};
use std::fmt;

/// Computation model (Section 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Bulk synchronous parallel: messages sent in superstep `i` are
    /// visible in superstep `i + 1` (Pregel, Giraph).
    Bsp,
    /// Asynchronous parallel: local messages visible immediately, remote
    /// messages on batch flush; global barriers retained (Giraph async).
    Async,
}

/// Everything that shapes an engine run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulated worker machines.
    pub workers: u32,
    /// Partitions per worker; `None` uses Giraph's default of `workers`
    /// (Section 7.1).
    pub partitions_per_worker: Option<u32>,
    /// Compute threads per worker (clamped to 1 by single-layer token
    /// passing). The paper's EC2 instances had 4 vCPUs.
    pub threads_per_worker: u32,
    /// Computation model.
    pub model: Model,
    /// Synchronization technique. [`Model::Bsp`] takes only `None` and
    /// `BspVertexLock` (Proposition 1), which in turn requires it; every
    /// other technique requires [`Model::Async`].
    pub technique: TechniqueKind,
    /// Hard cap on supersteps; exceeded means `converged = false`.
    pub max_supersteps: u64,
    /// Message buffer capacity per compute thread and destination worker
    /// (Giraph's per-thread send cache; the paper's "per-thread message
    /// buffer caches with batching"): a thread's staged run to one worker
    /// ships as one batch when it holds this many envelopes (`usize::MAX`
    /// = ship only at superstep boundaries and C1 flushes — used to
    /// reproduce the paper's Figure 3 schedule exactly).
    pub buffer_cap: usize,
    /// Seed for the default hash partitioner.
    pub partition_seed: u64,
    /// Explicit vertex -> partition assignment (overrides the hash
    /// partitioner; used by the figure reproductions).
    pub explicit_partitions: Option<Vec<PartitionId>>,
    /// Record a transaction history for serializability checking
    /// (test/validation runs only; adds per-message overhead).
    pub record_history: bool,
    /// Section 6.4 fault tolerance: write an in-memory checkpoint at the
    /// barrier every `k` supersteps (a superstep-0 checkpoint is always
    /// taken when this or `fail_at_superstep` is set).
    pub checkpoint_every: Option<u64>,
    /// Failure injection: after the barrier of this superstep, simulate a
    /// machine failure — all workers roll back to the latest checkpoint
    /// and recompute (the paper's recovery model: a lost worker loses part
    /// of the graph, so everyone rolls back).
    pub fail_at_superstep: Option<u64>,
    /// Barrierless asynchronous parallel execution (the paper's reference
    /// [20], "Giraph Unchained"): workers run *logical* per-worker
    /// supersteps with no global barriers; termination is detected when
    /// every worker is idle and no message is pending. Requires
    /// [`Model::Async`]; incompatible with token techniques (which need
    /// globally coordinated supersteps), aggregators, the master-halt
    /// hook, and checkpointing (which is barrier-based).
    pub barrierless: bool,
    /// Observability: event tracing, per-superstep/per-worker metric
    /// breakdowns, and the stall watchdog. All off by default; when off,
    /// the engine's behaviour and counters are unchanged and each
    /// would-be trace event costs one branch.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            partitions_per_worker: None,
            threads_per_worker: 2,
            model: Model::Async,
            technique: TechniqueKind::None,
            max_supersteps: 100_000,
            buffer_cap: 512,
            partition_seed: 0xC0FFEE,
            explicit_partitions: None,
            record_history: false,
            checkpoint_every: None,
            fail_at_superstep: None,
            barrierless: false,
            obs: ObsConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Effective partitions per worker.
    pub fn effective_ppw(&self) -> u32 {
        self.partitions_per_worker.unwrap_or(self.workers).max(1)
    }

    /// Compute lanes per worker under `sync`: the configured thread count,
    /// capped where the technique demands it (single-layer token passing
    /// runs exactly one, Section 4.2), never below one.
    pub fn lanes_per_worker(&self, sync: &dyn Synchronizer) -> u32 {
        let cap = sync.max_threads_per_worker().unwrap_or(u32::MAX);
        self.threads_per_worker.min(cap).max(1)
    }

    /// Place `graph` on the configured cluster shape: the explicit
    /// assignment when one is given (one entry per vertex, every id below
    /// the partition count — anything else is `InvalidConfig`), otherwise
    /// the seeded hash partitioner (Section 7.1).
    pub fn partition_map(&self, graph: &Graph) -> Result<PartitionMap, EngineError> {
        let layout = ClusterLayout::new(self.workers, self.effective_ppw());
        let Some(assignment) = &self.explicit_partitions else {
            let hash = HashPartitioner::new(self.partition_seed);
            return Ok(PartitionMap::build(graph, layout, &hash));
        };
        if assignment.len() != graph.num_vertices() as usize {
            return Err(EngineError::InvalidConfig(format!(
                "explicit_partitions has {} entries for {} vertices",
                assignment.len(),
                graph.num_vertices()
            )));
        }
        if let Some(p) = assignment
            .iter()
            .find(|p| p.raw() >= layout.num_partitions())
        {
            return Err(EngineError::InvalidConfig(format!(
                "explicit_partitions names partition {} but the layout has {}",
                p.raw(),
                layout.num_partitions()
            )));
        }
        Ok(PartitionMap::from_assignment(
            graph,
            layout,
            assignment.clone(),
        ))
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::InvalidConfig("workers must be > 0".into()));
        }
        if self.threads_per_worker == 0 {
            return Err(EngineError::InvalidConfig(
                "threads_per_worker must be > 0".into(),
            ));
        }
        if self.record_history && self.fail_at_superstep.is_some() {
            // Recovery replays supersteps; the recorder would see the same
            // transactions twice and report spurious staleness.
            return Err(EngineError::InvalidConfig(
                "record_history cannot be combined with failure injection".into(),
            ));
        }
        if self.checkpoint_every == Some(0) {
            return Err(EngineError::InvalidConfig(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        if self.barrierless {
            if self.model != Model::Async {
                return Err(EngineError::InvalidConfig(
                    "barrierless execution requires the asynchronous model".into(),
                ));
            }
            if self.technique.uses_global_token() || self.technique.requires_bsp() {
                return Err(EngineError::InvalidConfig(
                    "token passing and Proposition 1 need globally coordinated supersteps; \
                     barrierless execution supports None/VertexLock/PartitionLock"
                        .into(),
                ));
            }
            if self.checkpoint_every.is_some() || self.fail_at_superstep.is_some() {
                return Err(EngineError::InvalidConfig(
                    "checkpointing is barrier-based and unavailable in barrierless mode".into(),
                ));
            }
        }
        let bsp = self.model == Model::Bsp;
        if !bsp && self.technique.requires_bsp() {
            return Err(EngineError::InvalidConfig(
                "BspVertexLock is the Proposition 1 technique for the BSP model; \
                 use VertexLock/PartitionLock with the asynchronous model"
                    .into(),
            ));
        }
        if bsp && self.technique.serializable() && !self.technique.requires_bsp() {
            // Section 4.1: synchronous models hide updates until the next
            // superstep, so local replicas cannot be updated eagerly and
            // these techniques cannot enforce C1. BSP's one serializable
            // pairing is Proposition 1's constrained variant,
            // `BspVertexLock`.
            return Err(EngineError::BspWithSynchronization);
        }
        Ok(())
    }
}

/// Errors surfaced when building or running an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A synchronization technique was requested together with the BSP
    /// model, which cannot support it (Section 4.1).
    BspWithSynchronization,
    /// Other invalid configuration, with an explanation.
    InvalidConfig(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BspWithSynchronization => write!(
                f,
                "synchronization techniques require the asynchronous model: \
                 BSP cannot update local replicas eagerly (paper Section 4.1)"
            ),
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine config: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn giraph_default_partitions() {
        let mut c = EngineConfig {
            workers: 8,
            ..Default::default()
        };
        assert_eq!(c.effective_ppw(), 8);
        c.partitions_per_worker = Some(3);
        assert_eq!(c.effective_ppw(), 3);
    }

    #[test]
    fn bsp_with_technique_rejected() {
        let c = EngineConfig {
            model: Model::Bsp,
            technique: TechniqueKind::PartitionLock,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(EngineError::BspWithSynchronization));
    }

    #[test]
    fn bsp_without_technique_ok() {
        let c = EngineConfig {
            model: Model::Bsp,
            ..Default::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        let c = EngineConfig {
            workers: 0,
            ..Default::default()
        };
        assert!(matches!(c.validate(), Err(EngineError::InvalidConfig(_))));
    }

    #[test]
    fn error_display() {
        let e = EngineError::BspWithSynchronization;
        assert!(format!("{e}").contains("asynchronous"));
    }
}
