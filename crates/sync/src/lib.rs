//! # sg-sync — synchronization techniques for serializable graph processing
//!
//! This crate implements the paper's four synchronization techniques
//! (Sections 4 and 5 of Han & Daudjee, EDBT 2016). Each technique enforces
//! the two conditions of the serializability framework (see `sg-serial`):
//!
//! * **C1** — before a vertex executes, the replicas of its read set are
//!   up-to-date (implemented with a *write-all* flush: a worker flushes its
//!   pending remote replica updates before any shared resource — token or
//!   fork — crosses to another worker);
//! * **C2** — no vertex executes concurrently with any neighbor.
//!
//! The techniques span the parallelism/communication spectrum of Figure 1:
//!
//! | Technique | Parallelism | Communication |
//! |---|---|---|
//! | [`SingleLayerToken`] | one worker's boundary vertices at a time | one token |
//! | [`DualLayerToken`] | + multithreading via per-worker local tokens | two token layers |
//! | [`VertexLock`] | maximal (per-vertex philosophers) | `O(|E|)` forks |
//! | [`PartitionLock`] | tunable via `|P|` | `O(|P|²)` forks, batched flushes |
//!
//! The distributed-locking techniques — vertex- and partition-based,
//! Proposition 1's [`BspVertexLock`], and the GraphLab-style all-vertices
//! lock `sg-gas` runs — share one table, [`chandy_misra::ForkTable`], a
//! faithful implementation of the hygienic dining philosophers algorithm
//! (Chandy & Misra 1984): per-pair forks with dirty bits and request tokens,
//! an acyclic initial precedence graph (smaller id ⇒ token, larger id ⇒
//! dirty fork — Section 6.3's initialization), immediate yielding of dirty
//! forks by non-eating philosophers, and deferred transfer of requested
//! forks after eating.
//!
//! Hosts build a technique by name with [`build_synchronizer`] (the one
//! [`TechniqueKind`] table), drive it through the [`Synchronizer`] trait,
//! and provide a [`SyncTransport`] so the technique can trigger the C1
//! flushes and report its network traffic. The techniques keep no clock:
//! a virtual-time host reads [`Synchronizer::fork_neighbors`] after a grant
//! and works out when the forks arrived itself. The order in
//! which the trait's methods are called around a partition's vertices —
//! the calling contract C1 and C2 rest on — is written once, as
//! [`PartitionWalk`]; every host (threads, sockets, the event loop, the
//! model checker) asks it what comes next.

pub mod bsp_lock;
pub mod chandy_misra;
pub mod kind;
pub mod technique;
pub mod token;
pub mod transport;
pub mod walk;

pub use bsp_lock::BspVertexLock;
pub use chandy_misra::{ForkNeighbors, ForkSnapshot, ForkTable};
pub use kind::{build_synchronizer, TechniqueKind};
pub use technique::{LockGranularity, NoSync, PartitionLock, Synchronizer, VertexLock};
pub use token::{DualLayerToken, SingleLayerToken};
pub use transport::{NetAction, NoopTransport, QueueTransport, SyncTransport};
pub use walk::{PartitionWalk, Step};
