//! Per-run observability reports: per-worker time breakdowns, per-superstep
//! counter deltas, and renderers (human text + JSON).
//!
//! The hosts populate these when observability is enabled in
//! [`ObsConfig`], each on its own clock — wall time on the thread engine,
//! virtual time on the simulator and the GAS engine; the bench harness
//! prints/persists them under `results/`. Everything here is assembled
//! *after* the run from data collected on the hot path into
//! [`WorkerTimers`] — the run itself never formats anything.

use crate::counters::MetricsSnapshot;
use crate::json::Json;
use crate::simtime::fmt_sim_ns;
use crate::trace::{Trace, TraceBuffer};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to collect during a run. Default: nothing (all observability off).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect typed trace events into a per-worker ring buffer.
    pub trace: bool,
    /// Ring capacity per worker when `trace` is on.
    pub trace_capacity: usize,
    /// Collect per-worker busy/blocked/idle breakdowns and per-superstep
    /// counter deltas, surfaced in the run outcome.
    pub breakdown: bool,
    /// Spawn a stall watchdog: if the run makes no progress for this many
    /// wall-clock milliseconds, dump the last trace events per worker to
    /// stderr instead of hanging silently.
    pub watchdog_stall_ms: Option<u64>,
    /// Attach a live [`Telemetry`](crate::Telemetry) registry to the run's
    /// [`Metrics`](crate::Metrics): the techniques record wait/hold/pass
    /// histograms, the engine sets per-superstep progress gauges, and the
    /// outcome carries a final registry snapshot.
    pub telemetry: bool,
    /// Run the streaming serializability auditor in-process: the engine
    /// drains its history recorder between supersteps into an
    /// incremental Theorem 1 checker and the outcome carries the live
    /// final verdict (no sockets involved). Requires history recording.
    pub audit: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            trace: false,
            trace_capacity: 65_536,
            breakdown: false,
            watchdog_stall_ms: None,
            telemetry: false,
            audit: false,
        }
    }
}

impl ObsConfig {
    /// The trace handle these settings ask for: a ring per worker when
    /// `trace` is on, the disabled handle otherwise.
    pub fn trace_handle(&self, workers: usize) -> Trace {
        if self.trace {
            Trace::enabled(workers, self.trace_capacity)
        } else {
            Trace::disabled()
        }
    }

    /// Everything on (watchdog at 30 s) — what `--trace` enables in the
    /// bench harness.
    pub fn full() -> Self {
        Self {
            trace: true,
            breakdown: true,
            watchdog_stall_ms: Some(30_000),
            telemetry: true,
            audit: true,
            ..Self::default()
        }
    }

    /// Is any collection (trace or breakdown) requested?
    pub fn enabled(&self) -> bool {
        self.trace || self.breakdown
    }
}

/// Hot-path accumulator for per-worker time, on the host's clock. All adds
/// are relaxed; the hosts' barriers order them before any read.
#[derive(Debug)]
pub struct WorkerTimers {
    busy: Vec<AtomicU64>,
    blocked: Vec<AtomicU64>,
    idle: Vec<AtomicU64>,
    /// Skew observed at the most recent barrier (or run end), per worker:
    /// how far it trailed the superstep's straggler.
    skew: Vec<AtomicU64>,
}

impl WorkerTimers {
    /// Timers for `workers` workers, all zero.
    pub fn new(workers: usize) -> Self {
        let mk = || (0..workers).map(|_| AtomicU64::new(0)).collect();
        Self {
            busy: mk(),
            blocked: mk(),
            idle: mk(),
            skew: mk(),
        }
    }

    /// Number of workers tracked.
    pub fn len(&self) -> usize {
        self.busy.len()
    }

    /// `true` when tracking zero workers.
    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }

    /// Charge `ns` of compute (vertex programs, message handling) to `w`.
    #[inline]
    pub fn add_busy(&self, w: usize, ns: u64) {
        self.busy[w].fetch_add(ns, Ordering::Relaxed);
    }

    /// Charge `ns` spent blocked on locks/forks/tokens to `w`.
    #[inline]
    pub fn add_blocked(&self, w: usize, ns: u64) {
        self.blocked[w].fetch_add(ns, Ordering::Relaxed);
    }

    /// Charge `ns` of idle (barrier wait) time to `w`.
    #[inline]
    pub fn add_idle(&self, w: usize, ns: u64) {
        self.idle[w].fetch_add(ns, Ordering::Relaxed);
    }

    /// Record the barrier-time clock skew of `w` (overwrites: the final
    /// value is the skew at the last barrier / run end).
    #[inline]
    pub fn set_skew(&self, w: usize, ns: u64) {
        self.skew[w].store(ns, Ordering::Relaxed);
    }

    /// Snapshot into display rows. `makespan_ns` caps the derived idle time
    /// for engines that never pass explicit idle charges (barrierless/GAS):
    /// when no idle was charged, idle = makespan − busy − blocked.
    ///
    /// When the charged time (busy + blocked + idle) exceeds the makespan —
    /// double-charged overlap, or a host's accounting bug — the excess is surfaced
    /// as [`WorkerBreakdown::accounting_error_ns`] rather than silently
    /// clamped away.
    pub fn breakdown(&self, makespan_ns: u64) -> Vec<WorkerBreakdown> {
        (0..self.len())
            .map(|w| {
                let busy = self.busy[w].load(Ordering::Relaxed);
                let blocked = self.blocked[w].load(Ordering::Relaxed);
                let mut idle = self.idle[w].load(Ordering::Relaxed);
                if idle == 0 {
                    idle = makespan_ns.saturating_sub(busy).saturating_sub(blocked);
                }
                let accounting_error_ns = (busy + blocked + idle).saturating_sub(makespan_ns);
                if accounting_error_ns > 0 && cfg!(debug_assertions) {
                    eprintln!(
                        "obs: worker {w} time accounting overcharged by {} \
                         (busy {busy} + blocked {blocked} + idle {idle} > makespan {makespan_ns})",
                        accounting_error_ns
                    );
                }
                WorkerBreakdown {
                    worker: w as u32,
                    busy_ns: busy,
                    blocked_ns: blocked,
                    idle_ns: idle,
                    skew_ns: self.skew[w].load(Ordering::Relaxed),
                    accounting_error_ns,
                }
            })
            .collect()
    }
}

/// One worker's time breakdown over a whole run, on its host's clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerBreakdown {
    /// Worker id.
    pub worker: u32,
    /// Time spent executing vertex programs and handling messages.
    pub busy_ns: u64,
    /// Time spent waiting for forks, tokens, or locks.
    pub blocked_ns: u64,
    /// Time spent idle at barriers (or otherwise unaccounted).
    pub idle_ns: u64,
    /// Skew at the final barrier: how far this worker trailed the slowest
    /// worker before the barrier released them.
    pub skew_ns: u64,
    /// How far busy + blocked + idle overshoots the makespan. Zero when the
    /// books balance; nonzero means time was double-charged (e.g. an engine
    /// charging overlapping intervals) and the breakdown should be read
    /// with that much skepticism instead of the excess being hidden.
    pub accounting_error_ns: u64,
}

/// Counter deltas and clock for one superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperstepRow {
    /// Superstep number (0-based).
    pub superstep: u64,
    /// Counters incremented during this superstep alone.
    pub delta: MetricsSnapshot,
    /// The host's clock at the end of this superstep.
    pub makespan_ns: u64,
}

/// Everything observability collected for one run. Surfaced in the engine
/// outcomes when [`ObsConfig::enabled`]; rendered by the bench harness.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Per-superstep counter deltas (empty for engines without supersteps
    /// or when `breakdown` was off).
    pub per_superstep: Vec<SuperstepRow>,
    /// Per-worker busy/blocked/idle/skew (empty when `breakdown` was off).
    pub per_worker: Vec<WorkerBreakdown>,
    /// The trace buffer (present when `trace` was on).
    pub trace: Option<Arc<TraceBuffer>>,
    /// Whole-run counter totals.
    pub totals: MetricsSnapshot,
    /// The run's length on its host's clock: virtual on the simulator and
    /// the GAS engine, wall on the thread engine and the cluster.
    pub makespan_ns: u64,
    /// Whether the stall watchdog fired during the run.
    pub stalled: bool,
}

impl ObsReport {
    /// Human-readable per-run report: worker breakdown table, superstep
    /// delta table, counter totals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report: makespan {}{}",
            fmt_sim_ns(self.makespan_ns),
            if self.stalled {
                "  [STALL DETECTED]"
            } else {
                ""
            }
        );
        if !self.per_worker.is_empty() {
            let _ = writeln!(out, "\nper-worker time:");
            let _ = writeln!(
                out,
                "{:>6} {:>12} {:>12} {:>12} {:>12} {:>7}",
                "worker", "busy", "blocked", "idle", "final skew", "busy%"
            );
            for b in &self.per_worker {
                let total = b.busy_ns + b.blocked_ns + b.idle_ns;
                let pct = if total == 0 {
                    0.0
                } else {
                    100.0 * b.busy_ns as f64 / total as f64
                };
                let _ = writeln!(
                    out,
                    "{:>6} {:>12} {:>12} {:>12} {:>12} {:>6.1}%{}",
                    b.worker,
                    fmt_sim_ns(b.busy_ns),
                    fmt_sim_ns(b.blocked_ns),
                    fmt_sim_ns(b.idle_ns),
                    fmt_sim_ns(b.skew_ns),
                    pct,
                    if b.accounting_error_ns > 0 {
                        format!(
                            "  [ACCOUNTING ERROR: overcharged {}]",
                            fmt_sim_ns(b.accounting_error_ns)
                        )
                    } else {
                        String::new()
                    }
                );
            }
        }
        if !self.per_superstep.is_empty() {
            let _ = writeln!(out, "\nper-superstep deltas:");
            let _ = writeln!(
                out,
                "{:>9} {:>12} {:>12} {:>12} {:>9} {:>14} {:>12}",
                "superstep",
                "vertex exec",
                "local msgs",
                "remote msgs",
                "batches",
                "sync transfers",
                "makespan"
            );
            for row in &self.per_superstep {
                let _ = writeln!(
                    out,
                    "{:>9} {:>12} {:>12} {:>12} {:>9} {:>14} {:>12}",
                    row.superstep,
                    row.delta.vertex_executions,
                    row.delta.local_messages,
                    row.delta.remote_messages,
                    row.delta.remote_batches,
                    row.delta.sync_transfers(),
                    fmt_sim_ns(row.makespan_ns)
                );
            }
        }
        if let Some(trace) = &self.trace {
            let recorded: u64 = (0..trace.num_workers())
                .map(|w| trace.total_recorded(w))
                .sum();
            let retained: usize = (0..trace.num_workers())
                .map(|w| trace.events(w).len())
                .sum();
            let _ = writeln!(
                out,
                "\ntrace: {recorded} events recorded, {retained} retained ({} workers x {} capacity)",
                trace.num_workers(),
                trace.capacity()
            );
            let cp = crate::critical_path::analyze_buffer(trace, self.makespan_ns);
            let _ = writeln!(out, "\n{}", cp.render_text(5));
        }
        let _ = writeln!(out, "\ncounter totals:\n{}", self.totals);
        out
    }

    /// Machine-readable JSON: totals, per-worker rows, per-superstep rows
    /// (every counter by name).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("makespan_ns", self.makespan_ns.into()),
            ("stalled", self.stalled.into()),
            ("totals", self.totals.to_json()),
        ]);
        if let Some(trace) = &self.trace {
            let cp = crate::critical_path::analyze_buffer(trace, self.makespan_ns);
            doc.push("critical_path", cp.to_json());
        }
        let workers = self.per_worker.iter().map(|b| {
            Json::obj([
                ("worker", b.worker.into()),
                ("busy_ns", b.busy_ns.into()),
                ("blocked_ns", b.blocked_ns.into()),
                ("idle_ns", b.idle_ns.into()),
                ("skew_ns", b.skew_ns.into()),
                ("accounting_error_ns", b.accounting_error_ns.into()),
            ])
        });
        doc.push("workers", workers.collect::<Json>());
        let supersteps = self.per_superstep.iter().map(|row| {
            Json::obj([
                ("superstep", row.superstep.into()),
                ("makespan_ns", row.makespan_ns.into()),
                ("delta", row.delta.to_json()),
            ])
        });
        doc.push("supersteps", supersteps.collect::<Json>());
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    #[test]
    fn default_obs_config_is_fully_off() {
        let c = ObsConfig::default();
        assert!(!c.enabled());
        assert!(c.watchdog_stall_ms.is_none());
        assert!(ObsConfig::full().enabled());
    }

    #[test]
    fn timers_accumulate_and_break_down() {
        let t = WorkerTimers::new(2);
        t.add_busy(0, 100);
        t.add_busy(0, 50);
        t.add_blocked(0, 30);
        t.add_idle(0, 20);
        t.set_skew(0, 7);
        t.set_skew(0, 9); // overwrites
        let rows = t.breakdown(1_000);
        assert_eq!(rows[0].busy_ns, 150);
        assert_eq!(rows[0].blocked_ns, 30);
        assert_eq!(rows[0].idle_ns, 20);
        assert_eq!(rows[0].skew_ns, 9);
        assert_eq!(rows[0].accounting_error_ns, 0);
        // Worker 1 charged nothing explicit: idle derived from makespan.
        assert_eq!(rows[1].idle_ns, 1_000);
        assert_eq!(rows[1].accounting_error_ns, 0);
    }

    #[test]
    fn derived_idle_saturates_and_surfaces_accounting_error() {
        let t = WorkerTimers::new(1);
        t.add_busy(0, 500);
        let rows = t.breakdown(100); // busy exceeds makespan: no underflow
        assert_eq!(rows[0].idle_ns, 0);
        // The 400 ns overcharge is surfaced, not hidden.
        assert_eq!(rows[0].accounting_error_ns, 400);
    }

    #[test]
    fn explicit_overcharge_surfaces_accounting_error() {
        let t = WorkerTimers::new(1);
        t.add_busy(0, 60);
        t.add_blocked(0, 30);
        t.add_idle(0, 30);
        let rows = t.breakdown(100);
        assert_eq!(rows[0].accounting_error_ns, 20);
        let report = ObsReport {
            per_worker: rows,
            makespan_ns: 100,
            ..ObsReport::default()
        };
        assert!(report.render_text().contains("ACCOUNTING ERROR"));
        let doc = report.to_json();
        let worker = &doc.get("workers").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(worker.get("accounting_error_ns"), Some(&Json::U64(20)));
    }

    #[test]
    fn superstep_delta_arithmetic() {
        // Deltas are computed by the engines as snapshot(n) - snapshot(n-1);
        // verify the subtraction semantics the rows rely on.
        let m = crate::Metrics::new();
        m.add(Counter::VertexExecutions, 10);
        m.add(Counter::LocalMessages, 4);
        let s0 = m.snapshot();
        m.add(Counter::VertexExecutions, 7);
        m.add(Counter::RemoteMessages, 2);
        let s1 = m.snapshot();
        let delta = s1 - s0;
        assert_eq!(delta.vertex_executions, 7);
        assert_eq!(delta.local_messages, 0);
        assert_eq!(delta.remote_messages, 2);
        // Summing per-superstep deltas reconstructs the totals.
        let rows = [
            SuperstepRow {
                superstep: 0,
                delta: s0,
                makespan_ns: 1,
            },
            SuperstepRow {
                superstep: 1,
                delta,
                makespan_ns: 2,
            },
        ];
        let total_ve: u64 = rows.iter().map(|r| r.delta.vertex_executions).sum();
        assert_eq!(total_ve, s1.vertex_executions);
    }

    #[test]
    fn report_renders_all_sections() {
        let t = WorkerTimers::new(2);
        t.add_busy(0, 1_000);
        t.add_idle(1, 500);
        let report = ObsReport {
            per_worker: t.breakdown(2_000),
            per_superstep: vec![SuperstepRow {
                superstep: 0,
                delta: MetricsSnapshot::default(),
                makespan_ns: 2_000,
            }],
            trace: Some(Arc::new(crate::trace::TraceBuffer::new(2, 8))),
            totals: MetricsSnapshot::default(),
            makespan_ns: 2_000,
            stalled: false,
        };
        let text = report.render_text();
        assert!(text.contains("per-worker time:"));
        assert!(text.contains("per-superstep deltas:"));
        assert!(text.contains("trace: 0 events recorded"));
        assert!(text.contains("counter totals:"));
        assert!(!text.contains("STALL"));
    }

    #[test]
    fn json_names_every_counter_and_reads_back() {
        let report = ObsReport {
            per_worker: vec![WorkerBreakdown::default()],
            per_superstep: vec![SuperstepRow {
                superstep: 0,
                delta: MetricsSnapshot::default(),
                makespan_ns: 5,
            }],
            trace: None,
            totals: MetricsSnapshot::default(),
            makespan_ns: 5,
            stalled: true,
        };
        let doc = Json::parse(&report.to_json().to_string()).unwrap();
        let step = &doc.get("supersteps").and_then(Json::as_arr).unwrap()[0];
        for &c in Counter::ALL {
            for counters in [doc.get("totals"), step.get("delta")].map(Option::unwrap) {
                assert_eq!(counters.get(c.name()), Some(&Json::U64(0)), "{}", c.name());
            }
        }
        assert_eq!(doc.get("stalled"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("makespan_ns"), Some(&Json::U64(5)));
        assert_eq!(
            doc.get("workers").and_then(Json::as_arr).map(<[_]>::len),
            Some(1)
        );
    }
}
