//! # sg-net — socket-backed transport and multi-process cluster runtime
//!
//! The third [`sg_sync::SyncTransport`] implementation: where the
//! in-process engine simulates the cluster with threads and `sg-check`
//! virtualizes it for model checking, `sg-net` runs the same four
//! synchronization techniques over real TCP sockets between real OS
//! processes (loopback by default, any host:port by configuration).
//!
//! ## Architecture
//!
//! One **coordinator** process hosts the unmodified protocol state — the
//! `Synchronizer` (token rings, the Chandy-Misra [`ForkTable`]) runs there
//! exactly as it does inside the in-process engine, driven by RPCs. Each
//! **worker** process owns its partitions, executes the vertex programs,
//! and exchanges vertex messages directly with its peers over a full-mesh
//! data plane:
//!
//! * control plane (worker ↔ coordinator): superstep start/barrier frames,
//!   blocking `AcquireUnit`/`UnitGranted`/`ReleaseUnit` lock RPCs, C1
//!   flush orchestration (`FlushForks`/`FlushDone`), the transaction
//!   stream (`AuditUpload`), result uploads;
//! * data plane (worker ↔ worker): batched vertex messages
//!   (`BatchFlush`), write-all fences (`FlushPing`/`FlushAck`),
//!   heartbeats. Request tokens never leave the coordinator's fork table:
//!   they guard no data.
//!
//! Token holders are pure functions of the superstep number, so workers
//! replicate the token techniques locally for `vertex_allowed` gating; the
//! coordinator's replica drives `end_superstep`, whose one `transfer`
//! call becomes a real network round-trip: flush request to the holder,
//! batched messages to the receiver, application acknowledged, *then* the
//! token moves. The
//! Chandy-Misra fork tables never know they left one address space — the
//! whole point of the [`SyncTransport`] abstraction.
//!
//! Serializability is still checked end-to-end: every worker keeps a
//! Lamport clock (joined on every frame), stamps each vertex execution
//! with a composite `(lamport << 8) | rank` interval (hence at most 255
//! workers), and ships each transaction record once, in `AuditUpload`
//! frames — periodically when the live audit plane is on, the rest at
//! halt; the coordinator merges them into one [`sg_serial::History`] and
//! runs the 1SR checker over the wire-executed run.
//!
//! Faults are injectable deterministically per worker ([`FaultPlan`]):
//! drop/duplicate/delay exact data-plane frame indices or hard-kill a
//! connection mid-superstep; links recover by seq-deduplicated retransmit
//! with exponential backoff.
//!
//! [`ForkTable`]: sg_sync::ForkTable
//! [`SyncTransport`]: sg_sync::SyncTransport

pub mod audit;
pub mod cluster;
pub mod fault;
pub mod link;
pub mod telemetry;
pub mod wire;
pub mod worker;

pub use audit::{AuditConfig, AuditHub};
pub use cluster::{run_cluster, ClusterConfig, ClusterOutcome, SpawnMode, Workload};
pub use fault::{parse_fault_plan, FaultAction, FaultInjector};
pub use sg_engine::WireCodec;
pub use telemetry::{http_get, QueryService, TelemetryHub, TelemetryServer};
pub use wire::{
    BatchFrame, BatchView, FaultPlan, Frame, Message, MsgBatch, RunSpec, WireError, WireMetricRow,
    PROTOCOL_VERSION,
};
pub use worker::worker_main;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Failures surfaced by the cluster runtime.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Codec failure on a received frame.
    Wire(WireError),
    /// A peer violated the protocol (wrong frame, version mismatch, …).
    Protocol(String),
    /// Invalid cluster configuration.
    Config(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(m) => write!(f, "protocol: {m}"),
            NetError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// A process-wide Lamport clock. Local events [`Clock::tick`]; every
/// received frame [`Clock::join`]s the sender's value, so any two events
/// connected by a frame chain are ordered — the property the merged
/// serializability histories rely on.
#[derive(Debug, Default)]
pub struct Clock(AtomicU64);

impl Clock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance past a local event; returns the event's timestamp.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Current value without advancing.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Fold in a remote clock value (receive rule: local = max(local,
    /// remote); the next `tick` strictly exceeds both).
    #[inline]
    pub fn join(&self, remote: u64) {
        self.0.fetch_max(remote, Ordering::SeqCst);
    }
}

/// Composite history timestamp: Lamport value in the high bits, the
/// stamping process's rank in the low byte — globally unique across up to
/// 256 processes while preserving the happens-before order of the Lamport
/// component.
#[inline]
pub fn stamp(lamport: u64, rank: u32) -> u64 {
    (lamport << 8) | u64::from(rank & 0xFF)
}

/// The one bound on a cluster's size, checked by the coordinator's config
/// and by every worker's `Setup`: [`stamp`] keeps one byte of the rank, so
/// ranks 0 and 256 would stamp identical intervals.
pub(crate) fn check_workers(workers: u32) -> Result<(), String> {
    if (1..=255).contains(&workers) {
        return Ok(());
    }
    Err(format!(
        "workers must be 1..=255 (got {workers}): history stamps carry the rank in one byte"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_and_joins() {
        let c = Clock::new();
        assert_eq!(c.tick(), 1);
        c.join(10);
        assert_eq!(c.tick(), 11);
        c.join(5); // joining the past never rewinds
        assert_eq!(c.tick(), 12);
    }

    #[test]
    fn stamps_are_rank_unique_and_order_preserving() {
        assert!(stamp(3, 0) < stamp(3, 1));
        assert!(stamp(3, 255) < stamp(4, 0));
        assert_ne!(stamp(7, 2), stamp(7, 3));
    }
}
