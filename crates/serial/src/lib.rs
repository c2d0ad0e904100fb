//! # sg-serial — the serializability framework of Section 3
//!
//! The paper models the execution of a vertex `u` as a transaction
//! `Ti(Nu) = ri[Nu] wi[u]`: a read of `u` and the replicas of `u`'s in-edge
//! neighbors, followed by a write of `u`. It proves (Theorem 1) that all
//! executions are one-copy serializable (1SR) **iff** both of:
//!
//! * **Condition C1** — before any `Ti(Nu)` executes, all replicas
//!   `v ∈ Nu` are up-to-date (every message a neighbor has sent is visible);
//! * **Condition C2** — no `Ti(Nu)` is concurrent with any `Tj(Nv)` for
//!   `v ∈ Nu`, `v ≠ u`.
//!
//! This crate makes that theory *executable*:
//!
//! * [`History`] — a recorded set of [`TxnRecord`]s with checkers for C1
//!   ([`History::c1_violations`]), C2 ([`History::c2_violations`] — a
//!   post-hoc interval-overlap test over every edge), and full
//!   conflict-serializability ([`History::serialization_graph_acyclic`] —
//!   strict separation, read off the C2 scan, as the certificate, cycle
//!   detection over the explicit serialization graph as the fallback).
//! * [`IncrementalChecker`] — the same verdicts while a run is going,
//!   over a watermark-ordered feed: the commit-order certificate checked
//!   at each commit, and [`History`]'s acyclicity check as its fallback.
//! * [`Recorder`] — a concurrent instrument the engines attach to record
//!   live executions: logical start/end timestamps per transaction,
//!   per-pair counts of messages in flight with a per-receiver summary
//!   (the freshness test, one load while C1 holds).
//!
//! The integration tests validate Theorem 1 empirically in both directions:
//! runs under any synchronization technique yield histories where C1 ∧ C2
//! hold and the serialization graph is acyclic, while plain BSP/AP runs on
//! conflicting inputs yield C1 violations (and, for parallel AP, C2
//! violations and serialization-graph cycles).

pub mod history;
pub mod incremental;
mod ledger;
pub mod recorder;
pub mod streaming;

pub use history::{History, HistorySummary, TxnId, TxnRecord};
pub use incremental::{AuditEvent, CheckStatus, IncrementalChecker, ObserveError, StampedTxn};
pub use recorder::Recorder;
pub use streaming::{AuditSidecar, StreamingAuditor};
