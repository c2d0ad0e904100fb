//! # sg-gas — a GraphLab-style GAS engine
//!
//! The paper's comparison system (Sections 2.3 and 5.1): GraphLab async,
//! which executes the **Gather–Apply–Scatter** model with no supersteps,
//! pairing lightweight *fibers* with individual vertices, over a
//! **vertex-cut** partitioning with read-only mirrors. This crate rebuilds
//! that architecture in-process:
//!
//! * [`GasProgram`] — the pull-based vertex API: `gather` contributions
//!   from in-neighbors, `merge` them, `apply` the accumulated value, and
//!   `scatter` activation signals to out-neighbors.
//! * [`SyncGasEngine`] — the synchronous mode (BSP-like rounds with
//!   double-buffered values); like BSP it cannot provide serializability
//!   and deterministically oscillates on the coloring example.
//! * [`AsyncGasEngine`] — the asynchronous mode: per-machine task queues,
//!   `fibers_per_machine` scheduler threads, per-phase vertex locks. In
//!   its default configuration GAS phases of neighboring vertices can
//!   interleave — the serializability failure of Section 2.3. With
//!   [`GasConfig::serializable`] set, every vertex execution first
//!   acquires Chandy–Misra forks on **all** its edges (the paper's
//!   vertex-based distributed locking over the full `O(|E|)` fork set),
//!   with mirror updates flushed before any fork crosses machines (C1).
//!   That lock is `sg-sync`'s own `VertexLock::new_all_vertices`, driven
//!   through the `Synchronizer` trait like every other host's technique —
//!   the engine is its `SyncTransport` — so GraphLab's fork table is the
//!   one the Pregel engines run.
//!
//! Communication accounting mirrors GraphLab's write-all mirror updates:
//! each applied change pushes one update per remote mirror machine;
//! without serializability these are eager tiny packets, with it they
//! batch until a fork handover — tiny batches either way, which is exactly
//! the overhead Figure 6 shows for vertex-based locking.

pub mod async_engine;
pub mod program;
pub mod programs;
pub mod sync_engine;

pub use async_engine::{AsyncGasEngine, GasConfig, GasOutcome};
pub use program::GasProgram;
pub use sync_engine::SyncGasEngine;
