//! # sg-check — deterministic schedule exploration and model checking
//!
//! The serializability claims of the paper rest on protocol reasoning:
//! token rings and hygienic fork passing are argued, not tested, to uphold
//! C1 and C2 under *every* interleaving. The engines' stress tests sample
//! whatever schedules the OS scheduler happens to produce; this crate
//! explores schedules on purpose.
//!
//! Three pieces:
//!
//! * [`model::Model`] — the production techniques from `sg-sync`, built
//!   by the shared factory and driven single-threaded in the order
//!   `sg_sync::PartitionWalk` dictates, their transport calls queued and
//!   applied by the model, so that every protocol step (token pass, fork
//!   transfer, lock grant, message flush, barrier, vertex execution)
//!   becomes an explicit, reorderable event. Every explored state is
//!   checked: C1/C2 and serialization-graph acyclicity via the engines'
//!   `Recorder` feeding `sg-serial`'s `StreamingAuditor`, token liveness
//!   and routing, deadlock freedom.
//! * [`explore`] — pluggable strategies over the schedule tree: seeded
//!   random walks, bounded exhaustive DFS (stateless prefix enumeration),
//!   and a delay-injection adversary that defers token deliveries and
//!   contended acquisitions.
//! * [`explore::Counterexample`] — a violating schedule packaged as a
//!   decision log plus the full model configuration: replayable, byte-for-
//!   byte deterministic, and serializable to JSON for the `sg-check` CLI.
//!
//! Fault injection ([`config::FaultPlan`]) seeds known protocol bugs (a
//! lost-token race) so the checker's own sensitivity is regression-tested:
//! a model checker that finds nothing is only trustworthy if it provably
//! finds *planted* bugs.

pub mod config;
pub mod explore;
pub mod model;

pub use config::{ConfigError, ExploreConfig, FaultPlan, StrategyKind};
pub use explore::{
    explore, run_episode, Counterexample, EpisodeOutcome, ExploreReport, ViolationReport,
    COUNTEREXAMPLE_SCHEMA_VERSION,
};
pub use model::{Event, Model, Violation};
pub use sg_graph::GraphSpec;
pub use sg_sync::TechniqueKind;
