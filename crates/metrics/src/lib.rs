//! # sg-metrics — instrumentation, and the cost model virtual time runs on
//!
//! The paper's evaluation metric is *computation time* on a 16/32-machine
//! EC2 cluster, which "captures any communication overheads that the
//! synchronization techniques may have" (Section 7.3). This reproduction
//! runs on a single host, so wall-clock time cannot expose the parallelism
//! differences between techniques. So each host keeps one clock — the
//! thread engine and the cluster measure real code on the wall clock, the
//! simulator and the GAS engine predict on virtual time — and this crate
//! instruments all of them three ways:
//!
//! 1. **Counters** ([`Metrics`]): every local/remote message, batch flush,
//!    fork transfer, request token, token-ring pass, barrier, and vertex
//!    execution is counted. These are exact, deterministic measures of the
//!    communication overheads Figure 1 talks about.
//! 2. **Virtual time** ([`SimClocks`] + [`CostModel`]), for the hosts that
//!    predict: each simulated worker carries a logical clock in
//!    nanoseconds. Executing a vertex advances the executing worker's
//!    clock; a remote transfer (message batch, fork, or token) stamps the
//!    sender's clock and the receiver joins it with `max(own, sent +
//!    latency)`; a global barrier joins all clocks. The final **makespan**
//!    (max clock) is the simulated computation time the figures report —
//!    it exposes exactly the serial chains (token rings) and per-transfer
//!    latencies (per-vertex forks) that dominate the paper's results.
//! 3. **Traces** ([`trace::TraceBuffer`]): when enabled, every interesting
//!    transition (vertex execution, batch flush, fork/token transfer, lock
//!    wait, barrier wait, checkpoint) is recorded as a typed event in a
//!    lock-free per-worker ring, stamped with worker id, superstep, and
//!    nanoseconds on the host's clock. Rings export to Chrome
//!    `trace_event` JSON (loadable in Perfetto / `chrome://tracing`), feed
//!    the critical-path profiler — one analyzer for wall and virtual time —
//!    and the stall watchdog's diagnostics ([`trace::Watchdog`]). Per-run
//!    summaries (per-superstep counter deltas, per-worker
//!    busy/blocked/idle time) live in [`report::ObsReport`].

pub mod counters;
pub mod critical_path;
pub mod json;
pub mod report;
pub mod simtime;
pub mod telemetry;
pub mod trace;

pub use counters::{Counter, Metrics, MetricsSnapshot};
pub use critical_path::{Attribution, BlockingEdge, Category, CriticalPathReport, SuperstepPath};
pub use json::Json;
pub use report::{ObsConfig, ObsReport, SuperstepRow, WorkerBreakdown, WorkerTimers};
pub use simtime::{CostModel, EatOrder, SimClocks};
pub use telemetry::{
    CounterHandle, GaugeHandle, HistogramHandle, HistogramSnapshot, MetricKind, MetricRow,
    MetricValue, Telemetry, TelemetrySnapshot,
};
pub use trace::{
    merge_process_events, merge_ranked_events, Trace, TraceBuffer, TraceEvent, TraceEventKind,
    Watchdog,
};
