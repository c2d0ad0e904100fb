//! # sg-engine — a Pregel-like graph processing engine
//!
//! A from-scratch reproduction of the Giraph architecture the paper builds
//! on (Section 6.1): a master coordinating simulated worker machines, each
//! owning several graph partitions; vertex-centric programs; push-based
//! messaging with per-worker message stores and per-thread batching send
//! buffers; vote-to-halt termination; aggregators and combiners.
//!
//! Two computation models are provided ([`Model`]):
//!
//! * **BSP** (Pregel/Giraph, Section 2.1): messages sent in superstep `i`
//!   are visible only in superstep `i + 1`.
//! * **AP** (Giraph async, Section 2.2): local messages are visible
//!   immediately; remote messages become visible when a batch is flushed —
//!   when a thread's send buffer fills, when a synchronization technique
//!   demands it (the C1 write-all flush), and at every superstep boundary.
//!
//! Serializable execution pairs the AP model with a synchronization
//! technique from `sg-sync` ([`EngineConfig::technique`]): dual-layer token
//! passing, vertex-based distributed locking, or the paper's novel
//! partition-based distributed locking. The combination is rejected for BSP
//! (synchronous models cannot update local replicas eagerly, Section 4.1).
//!
//! The engine runs the cluster on one host: workers are persistent OS
//! threads, the "network" is the in-process buffer/store machinery, and
//! the one clock is the wall clock — its makespan, traces and breakdowns
//! say where this code spent real time. The simulated computation time the
//! figures report comes from `sg-sim`, which hosts the same superstep
//! cycle on virtual time.
//!
//! A superstep is written once for every host: [`cycle`] is one vertex
//! transaction, [`barrier`] closes the superstep, and
//! [`store::InboxPair`] states each model's visibility rule. The thread
//! engine here and `sg-sim`'s discrete-event core both host them.

pub mod aggregators;
pub mod barrier;
pub mod config;
pub mod context;
pub mod cycle;
pub mod engine;
pub mod program;
pub mod state;
pub mod store;

pub use aggregators::{AggOp, AggregatorSet};
pub use config::{build_synchronizer, EngineConfig, EngineError, Model, TechniqueKind};
pub use context::Context;
pub use cycle::{Cycle, Env, Executed, Host};
pub use engine::{Engine, Outcome, StoreGauges};
pub use program::{Combiner, MinCombiner, SumCombiner, VertexProgram, WireCodec};
pub use sg_store::{GraphReader, Snapshot, SnapshotView, VertexStore};
