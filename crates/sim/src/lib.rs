//! # sg-sim — discrete-event cluster simulation
//!
//! The fourth host of the paper's synchronization techniques: a
//! single-threaded discrete-event core (binary-heap event queue over
//! virtual time) that runs the **unmodified** `sg-sync` protocol objects
//! and vertex programs, applying what they tell the
//! [`SyncTransport`](sg_sync::SyncTransport) seam from `sg-sync`'s own
//! [`QueueTransport`](sg_sync::QueueTransport). Where the in-process
//! engine spends one OS thread per simulated compute thread — topping out
//! at tens of workers on a small host — the simulator walks a 512-worker
//! superstep as one event-loop pass with exact virtual-time makespans,
//! deterministic under a fixed seed.
//!
//! * [`simulate`] runs a vertex program on a simulated cluster and
//!   returns the engine-shaped [`Outcome`](sg_engine::Outcome) plus a
//!   determinism digest ([`SimReport`]).
//! * [`SimOptions`] is the simulated machine: its cost model, and the
//!   deterministic per-link jitter of the wire derived from it.
//! * [`calibrate::fit_cost_model`] fits the per-vertex / per-message cost
//!   charges from a real engine run's wall-clock trace events.
//!
//! Trace events carry simulated timestamps, so `sg-trace analyze` and the
//! critical-path profiler work unchanged; histories feed the existing 1SR
//! checker.

#![warn(missing_docs)]

pub mod calibrate;
pub mod event;
mod net;
mod sim;

pub use calibrate::{fit_cost_model, CostFit};
pub use sim::{simulate, SimOptions, SimReport};
