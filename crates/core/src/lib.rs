//! # sg-core — the serigraph facade
//!
//! One-stop, high-level API over the whole workspace: build a [`Runner`]
//! with a graph and a cluster shape, pick a computation model and a
//! synchronization [`Technique`], and run any of the paper's algorithms —
//! or your own [`VertexProgram`] — with metrics, a makespan (wall time on
//! the in-process engine, virtual time on the simulator), and optional
//! serializability checking.
//!
//! ```
//! use sg_core::prelude::*;
//!
//! let graph = sg_graph::gen::paper_c4();
//! let outcome = Runner::new(graph)
//!     .workers(2)
//!     .technique(Technique::PartitionLock)
//!     .run_coloring()
//!     .expect("valid configuration");
//! assert!(outcome.converged);
//! ```

pub mod runner;

pub use runner::{NetworkOptions, Runner, Technique};
pub use sg_sim::{SimOptions, SimReport};

// Re-export the subsystem crates under their crate names so downstream
// users need only one dependency.
pub use sg_algos;
pub use sg_check;
pub use sg_engine;
pub use sg_gas;
pub use sg_graph;
pub use sg_metrics;
pub use sg_net;
pub use sg_serial;
pub use sg_sim;
pub use sg_store;
pub use sg_sync;

/// Everything most applications need.
pub mod prelude {
    pub use crate::runner::{NetworkOptions, Runner, Technique};
    pub use sg_algos::{
        ConflictFixColoring, DeltaPageRank, GreedyColoring, GreedyMis, Sssp, Wcc, NO_COLOR,
    };
    pub use sg_check::{ExploreConfig, StrategyKind};
    pub use sg_engine::{
        Context, Engine, EngineConfig, EngineError, Model, Outcome, TechniqueKind, VertexProgram,
    };
    pub use sg_gas::{AsyncGasEngine, GasConfig, GasProgram, SyncGasEngine};
    pub use sg_graph;
    pub use sg_graph::{gen, ClusterLayout, Graph, GraphBuilder, PartitionId, VertexId, WorkerId};
    pub use sg_metrics::{CostModel, MetricsSnapshot, ObsConfig, ObsReport};
    pub use sg_serial::History;
    pub use sg_sim::{SimOptions, SimReport};
    pub use sg_store::{GraphReader, SnapshotView, VertexStore};
}
