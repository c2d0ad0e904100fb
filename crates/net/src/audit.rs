//! The coordinator's streaming serializability audit plane.
//!
//! Workers ship [`crate::wire::Message::AuditUpload`] frames during the
//! run: incremental batches of Lamport-stamped transactions plus a
//! per-rank **watermark** — a stamp the rank promises never to undercut
//! again (every future transaction from that rank starts at or after
//! it). The hub merges the streams:
//!
//! * buffered transactions land in the generalized
//!   [`IncrementalChecker`] via [`IncrementalChecker::observe`]. Peer
//!   input is checked before it can reach the checker's assertions: a
//!   transaction the checker refuses (a vertex outside the graph, an empty
//!   interval, a start below the applied frontier), or one that does not
//!   start after the previous accepted end of its vertex, is counted and
//!   dropped — each vertex runs one execution at a time on its owning
//!   rank, which ships them in end order;
//! * the **frontier** = min watermark across live ranks; events stamped
//!   strictly below it are globally complete and are replayed in stamp
//!   order by [`IncrementalChecker::advance`], updating the live C1 /
//!   C2 / acyclicity verdicts mid-run;
//! * every released violation increments the per-vertex and
//!   per-partition conflict heatmaps, bumps the conflict-rate window,
//!   and appends a JSONL **sentinel** line (when a log path is
//!   configured) — so "is production traffic still 1SR right now?" is
//!   answerable before the run ends.
//!
//! The hub registers `sg_audit_*` gauges on the coordinator's telemetry
//! registry (scraped at `/metrics`) and renders a richer JSON document
//! (verdicts, heatmap top-K, lag, rate) for the `GET /audit` route.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sg_graph::{Graph, VertexId};
use sg_metrics::{GaugeHandle, Json, Telemetry};
use sg_serial::{AuditEvent, HistorySummary, IncrementalChecker, StampedTxn};
use std::sync::Arc;

use crate::wire::WireTxn;

/// Audit-plane thresholds and sinks (the merge itself has no knobs).
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Append one JSON object per violation sentinel / threshold alert
    /// to this file. `None` keeps the plane in-memory only.
    pub sentinel_path: Option<String>,
    /// Alert when the rolling conflict rate (violations/second over the
    /// last window) exceeds this. 0 disables the alert.
    pub conflict_rate_alert: f64,
    /// Alert when the frontier has not advanced for this many
    /// milliseconds while transactions are still buffered. 0 disables.
    pub lag_alert_ms: u64,
    /// How many hot vertices the `/audit` document lists.
    pub top_k: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            sentinel_path: None,
            conflict_rate_alert: 50.0,
            lag_alert_ms: 5_000,
            top_k: 8,
        }
    }
}

/// Live `sg_audit_*` families on the coordinator registry. Updated under
/// the hub lock, so scrapes see a coherent set.
struct AuditGauges {
    serializable: GaugeHandle,
    c1: GaugeHandle,
    c2: GaugeHandle,
    sg_acyclic: GaugeHandle,
    txns: GaugeHandle,
    pending: GaugeHandle,
    frontier: GaugeHandle,
    lag_ms: GaugeHandle,
    conflicts: GaugeHandle,
    sentinels: GaugeHandle,
}

impl AuditGauges {
    fn new(t: &Telemetry) -> Self {
        Self {
            serializable: t.gauge("sg_audit_serializable", &[]),
            c1: t.gauge("sg_audit_c1_violations", &[]),
            c2: t.gauge("sg_audit_c2_violations", &[]),
            sg_acyclic: t.gauge("sg_audit_sg_acyclic", &[]),
            txns: t.gauge("sg_audit_txns_checked", &[]),
            pending: t.gauge("sg_audit_pending_txns", &[]),
            frontier: t.gauge("sg_audit_frontier", &[]),
            lag_ms: t.gauge("sg_audit_lag_ms", &[]),
            conflicts: t.gauge("sg_audit_conflicts_total", &[]),
            sentinels: t.gauge("sg_audit_sentinels_total", &[]),
        }
    }
}

struct Inner {
    checker: IncrementalChecker,
    /// Per-rank promise: no future transaction from rank `r` starts
    /// below `watermarks[r]`. `u64::MAX` once the rank said goodbye.
    watermarks: Vec<u64>,
    /// Per vertex: the smallest start its next transaction may have, one
    /// past the end of the last one accepted.
    next_start: Vec<u64>,
    /// Malformed transactions refused at ingest.
    refused: u64,
    frontier: u64,
    last_advance: Instant,
    vertex_conflicts: Vec<u64>,
    partition_conflicts: Vec<u64>,
    conflicts_total: u64,
    /// Conflict-rate window: count and start of the current window.
    window_started: Instant,
    window_base: u64,
    conflict_rate: f64,
    sentinel: Option<BufWriter<File>>,
    sentinels_written: u64,
    rate_alerted: bool,
    lag_alerted: bool,
    /// Transactions checked when the first violation surfaced — proof
    /// the verdict flipped mid-run, not at finalize.
    first_violation_at: Option<u64>,
}

/// Coordinator-side merge point of the streaming audit plane. Shared by
/// the per-rank reader threads (ingest), the HTTP listener (`/audit`
/// scrapes), and the driver (finalize).
pub struct AuditHub {
    cfg: AuditConfig,
    /// vertex -> partition, for the partition heatmap.
    assignment: Vec<u32>,
    gauges: AuditGauges,
    inner: Mutex<Inner>,
}

impl AuditHub {
    /// New hub over `graph` for `workers` ranks, registering the
    /// `sg_audit_*` gauge families on `registry`.
    pub fn new(
        graph: Arc<Graph>,
        assignment: Vec<u32>,
        workers: usize,
        registry: &Telemetry,
        cfg: AuditConfig,
    ) -> std::io::Result<Self> {
        let n = graph.num_vertices() as usize;
        let parts = assignment.iter().copied().max().map_or(0, |p| p + 1) as usize;
        let sentinel = match &cfg.sentinel_path {
            Some(p) => Some(BufWriter::new(File::create(Path::new(p))?)),
            None => None,
        };
        let gauges = AuditGauges::new(registry);
        gauges.serializable.set(1);
        gauges.sg_acyclic.set(1);
        let now = Instant::now();
        Ok(Self {
            cfg,
            assignment,
            inner: Mutex::new(Inner {
                checker: IncrementalChecker::new(graph),
                watermarks: vec![0; workers],
                next_start: vec![0; n],
                refused: 0,
                frontier: 0,
                last_advance: now,
                vertex_conflicts: vec![0; n],
                partition_conflicts: vec![0; parts],
                conflicts_total: 0,
                window_started: now,
                window_base: 0,
                conflict_rate: 0.0,
                sentinel,
                sentinels_written: 0,
                rate_alerted: false,
                lag_alerted: false,
                first_violation_at: None,
            }),
            gauges,
        })
    }

    /// Absorb one `AuditUpload` from `rank`: buffer the transactions,
    /// raise the rank's watermark, advance the frontier. A malformed
    /// transaction is refused and counted, never a panic.
    pub fn ingest(&self, rank: usize, txns: &[WireTxn], watermark: u64) {
        let mut inner = self.inner.lock().unwrap();
        for t in txns {
            let next = inner.next_start.get(t.vertex as usize).copied();
            let accepted = next.is_some_and(|next| t.start >= next)
                && inner
                    .checker
                    .observe(StampedTxn {
                        vertex: VertexId::new(t.vertex),
                        start: t.start,
                        end: t.end,
                        stale_reads: t.stale.iter().copied().map(VertexId::new).collect(),
                    })
                    .is_ok();
            if accepted {
                inner.next_start[t.vertex as usize] = t.end.saturating_add(1);
            } else {
                inner.refused += 1;
            }
        }
        if let Some(w) = inner.watermarks.get_mut(rank) {
            *w = (*w).max(watermark);
        }
        self.advance_locked(&mut inner);
    }

    /// The rank said goodbye: its stream is complete, so it no longer
    /// holds the frontier back.
    pub fn finish_rank(&self, rank: usize) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(w) = inner.watermarks.get_mut(rank) {
            *w = u64::MAX;
        }
        self.advance_locked(&mut inner);
    }

    /// Drain everything still buffered (all streams are complete) and
    /// return the final verdict — by construction identical to the
    /// post-hoc check over the merged history.
    pub fn finalize(&self) -> HistorySummary {
        let mut inner = self.inner.lock().unwrap();
        let events = inner.checker.finish();
        self.absorb(&mut inner, events);
        if let Some(s) = inner.sentinel.as_mut() {
            let _ = s.flush();
        }
        self.refresh_gauges(&mut inner);
        inner.checker.summary()
    }

    /// Live verdict snapshot (for tests and the driver's status line).
    pub fn summary(&self) -> HistorySummary {
        self.inner.lock().unwrap().checker.summary()
    }

    /// Malformed transactions refused at ingest so far.
    pub fn refused(&self) -> u64 {
        self.inner
            .lock()
            .expect("no panic while the audit hub's lock is held")
            .refused
    }

    /// Transactions checked when the verdict first flipped, if it has.
    pub fn first_violation_at(&self) -> Option<u64> {
        self.inner.lock().unwrap().first_violation_at
    }

    /// Recompute the audit-lag gauge (and fire the lag alert if armed).
    /// Called from scrape paths so lag moves even between uploads.
    pub fn tick(&self) {
        let mut inner = self.inner.lock().unwrap();
        self.refresh_gauges(&mut inner);
        let lag = self.lag_ms(&inner);
        if self.cfg.lag_alert_ms > 0 && lag >= self.cfg.lag_alert_ms && !inner.lag_alerted {
            inner.lag_alerted = true;
            let mut line = sentinel("alert");
            line.push("alert", "audit_lag");
            line.push("lag_ms", lag);
            line.push("threshold_ms", self.cfg.lag_alert_ms);
            Self::write_sentinel(&mut inner, &line);
        }
    }

    /// Milliseconds the frontier has been stalled while work is buffered.
    fn lag_ms(&self, inner: &Inner) -> u64 {
        if inner.checker.pending() == 0 {
            0
        } else {
            inner.last_advance.elapsed().as_millis() as u64
        }
    }

    fn advance_locked(&self, inner: &mut Inner) {
        let frontier = inner.watermarks.iter().copied().min().unwrap_or(0);
        if frontier > inner.frontier {
            inner.frontier = frontier;
            inner.last_advance = Instant::now();
            inner.lag_alerted = false;
        }
        let events = inner.checker.advance(inner.frontier);
        self.absorb(inner, events);
        self.refresh_gauges(inner);
    }

    /// Turn released checker events into heatmap increments, rate-window
    /// bumps, and sentinel lines.
    fn absorb(&self, inner: &mut Inner, events: Vec<AuditEvent>) {
        if !events.is_empty() && inner.first_violation_at.is_none() {
            inner.first_violation_at = Some(inner.checker.transactions() as u64);
        }
        for ev in events {
            inner.conflicts_total += 1;
            let ids = |vs: &[VertexId]| vs.iter().map(|v| v.raw()).collect::<Json>();
            let (vertex, line) = match &ev {
                AuditEvent::C1 { vertex, stale } => {
                    let mut line = sentinel("c1");
                    line.push("vertex", vertex.raw());
                    line.push("stale", ids(stale));
                    (*vertex, line)
                }
                AuditEvent::C2 { vertex, neighbors } => {
                    let mut line = sentinel("c2");
                    line.push("vertex", vertex.raw());
                    line.push("neighbors", ids(neighbors));
                    (*vertex, line)
                }
                AuditEvent::Cycle { vertex } => {
                    let mut line = sentinel("cycle");
                    line.push("vertex", vertex.raw());
                    (*vertex, line)
                }
            };
            if let Some(c) = inner.vertex_conflicts.get_mut(vertex.index()) {
                *c += 1;
            }
            if let Some(&p) = self.assignment.get(vertex.index()) {
                if let Some(c) = inner.partition_conflicts.get_mut(p as usize) {
                    *c += 1;
                }
            }
            Self::write_sentinel(inner, &line);
        }
        self.roll_rate(inner);
    }

    /// Rolling conflicts/second over 1-second windows, with a one-shot
    /// spike alert per crossing.
    fn roll_rate(&self, inner: &mut Inner) {
        let elapsed = inner.window_started.elapsed().as_secs_f64();
        if elapsed >= 1.0 {
            let delta = inner.conflicts_total - inner.window_base;
            inner.conflict_rate = delta as f64 / elapsed;
            inner.window_started = Instant::now();
            inner.window_base = inner.conflicts_total;
            if self.cfg.conflict_rate_alert > 0.0 {
                if inner.conflict_rate > self.cfg.conflict_rate_alert {
                    if !inner.rate_alerted {
                        inner.rate_alerted = true;
                        let mut line = sentinel("alert");
                        line.push("alert", "conflict_rate");
                        line.push("rate", inner.conflict_rate);
                        line.push("threshold", self.cfg.conflict_rate_alert);
                        Self::write_sentinel(inner, &line);
                    }
                } else {
                    inner.rate_alerted = false;
                }
            }
        }
    }

    fn write_sentinel(inner: &mut Inner, line: &Json) {
        inner.sentinels_written += 1;
        if let Some(s) = inner.sentinel.as_mut() {
            let _ = writeln!(s, "{line}");
            let _ = s.flush();
        }
    }

    fn refresh_gauges(&self, inner: &mut Inner) {
        let status = inner.checker.status();
        let g = &self.gauges;
        g.serializable.set(u64::from(status.clean()));
        g.c1.set(status.c1_violations as u64);
        g.c2.set(status.c2_violations as u64);
        g.sg_acyclic
            .set(u64::from(status.serialization_graph_acyclic));
        g.txns.set(inner.checker.transactions() as u64);
        g.pending.set(inner.checker.pending() as u64);
        g.frontier.set(inner.frontier >> 8);
        g.lag_ms.set(self.lag_ms(inner));
        g.conflicts.set(inner.conflicts_total);
        g.sentinels.set(inner.sentinels_written);
    }

    /// The `GET /audit` document: verdicts, progress, heatmaps, rate.
    pub fn render_json(&self) -> Json {
        self.tick();
        let inner = self.inner.lock().unwrap();
        let status = inner.checker.status();
        let mut hot: Vec<(usize, u64)> = inner
            .vertex_conflicts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(self.cfg.top_k);
        let hot = hot
            .iter()
            .map(|&(v, c)| Json::obj([("vertex", v.into()), ("conflicts", c.into())]));
        let parts = (inner.partition_conflicts.iter().enumerate())
            .filter(|&(_, &c)| c > 0)
            .map(|(p, &c)| Json::obj([("partition", p.into()), ("conflicts", c.into())]));
        Json::obj([
            ("serializable", status.clean().into()),
            ("c1_violations", status.c1_violations.into()),
            ("c2_violations", status.c2_violations.into()),
            ("sg_acyclic", status.serialization_graph_acyclic.into()),
            ("txns_checked", inner.checker.transactions().into()),
            ("pending_txns", inner.checker.pending().into()),
            ("frontier", (inner.frontier >> 8).into()),
            ("audit_lag_ms", self.lag_ms(&inner).into()),
            ("conflicts_total", inner.conflicts_total.into()),
            ("conflict_rate_per_s", inner.conflict_rate.into()),
            ("sentinels", inner.sentinels_written.into()),
            ("first_violation_at_txn", inner.first_violation_at.into()),
            ("refused_txns", inner.refused.into()),
            ("hot_vertices", hot.collect()),
            ("partition_conflicts", parts.collect()),
        ])
    }
}

/// A JSONL sentinel line of `kind`, stamped with the wall clock in
/// milliseconds since the Unix epoch.
fn sentinel(kind: &str) -> Json {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    Json::obj([("ts_ms", ts_ms.into()), ("kind", kind.into())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp;
    use sg_graph::gen;

    fn hub(workers: usize) -> AuditHub {
        let g = Arc::new(gen::paper_c4());
        let assignment = vec![0, 0, 1, 1];
        AuditHub::new(
            g,
            assignment,
            workers,
            &Telemetry::new(),
            AuditConfig::default(),
        )
        .unwrap()
    }

    fn wt(vertex: u32, start: u64, end: u64) -> WireTxn {
        WireTxn {
            vertex,
            start,
            end,
            stale: Vec::new(),
        }
    }

    #[test]
    fn clean_stream_stays_serializable() {
        let h = hub(2);
        // Rank 0 runs v0 then v2, rank 1 runs v1 then v3, serially by
        // stamp — no overlap anywhere.
        h.ingest(0, &[wt(0, stamp(1, 0), stamp(2, 0))], stamp(3, 0));
        h.ingest(1, &[wt(1, stamp(3, 1), stamp(4, 1))], stamp(5, 1));
        h.ingest(0, &[wt(2, stamp(5, 0), stamp(6, 0))], stamp(7, 0));
        h.ingest(1, &[wt(3, stamp(7, 1), stamp(8, 1))], stamp(9, 1));
        h.finish_rank(0);
        h.finish_rank(1);
        let s = h.finalize();
        assert_eq!(s.transactions, 4);
        assert!(s.one_copy_serializable);
        assert!(h.first_violation_at().is_none());
    }

    #[test]
    fn frontier_waits_for_the_slowest_rank() {
        let h = hub(2);
        h.ingest(0, &[wt(0, stamp(1, 0), stamp(2, 0))], stamp(3, 0));
        // Rank 1 has not reported: nothing may be released yet.
        assert_eq!(h.summary().transactions, 0);
        h.ingest(1, &[], stamp(4, 1));
        // Now the frontier covers rank 0's txn.
        assert_eq!(h.summary().transactions, 1);
    }

    #[test]
    fn overlapping_neighbors_flip_the_live_verdict_before_finalize() {
        let h = hub(2);
        // v0 and v1 are adjacent in C4 and their intervals overlap.
        h.ingest(0, &[wt(0, stamp(1, 0), stamp(10, 0))], stamp(11, 0));
        h.ingest(1, &[wt(1, stamp(2, 1), stamp(3, 1))], stamp(12, 1));
        let live = h.summary();
        assert_eq!(live.transactions, 2);
        assert!(!live.one_copy_serializable, "violation must surface live");
        assert!(h.first_violation_at().is_some());
        let doc = Json::parse(&h.render_json().to_string()).unwrap();
        assert_eq!(doc.get("serializable"), Some(&Json::Bool(false)));
        let hot = doc.get("hot_vertices").and_then(Json::as_arr).unwrap();
        assert!(hot[0].get("vertex").and_then(Json::as_u64).is_some());
        let final_summary = {
            h.finish_rank(0);
            h.finish_rank(1);
            h.finalize()
        };
        assert!(!final_summary.one_copy_serializable);
        assert!(final_summary.c2_violations > 0);
    }

    /// Malformed peer input is refused and counted, and the hub keeps
    /// answering: no panic under the lock, so no poisoned mutex.
    #[test]
    fn malformed_uploads_are_refused_not_a_panic() {
        let h = hub(1);
        h.ingest(0, &[wt(0, stamp(5, 0), stamp(6, 0))], stamp(7, 0));
        assert_eq!(h.summary().transactions, 1);
        let bad = [
            wt(4, stamp(8, 0), stamp(9, 0)),        // vertex outside the graph
            wt(u32::MAX, stamp(8, 0), stamp(9, 0)), // ... far outside
            wt(1, stamp(9, 0), stamp(9, 0)),        // start == end
            wt(1, stamp(10, 0), stamp(9, 0)),       // start > end
            wt(1, stamp(2, 0), stamp(3, 0)),        // below the applied frontier
            wt(0, stamp(6, 0), stamp(12, 0)),       // starts at v0's last end
            wt(0, stamp(5, 0), stamp(11, 0)),       // overlaps v0's last txn
            WireTxn {
                stale: vec![7], // stale witness outside
                ..wt(2, stamp(8, 0), stamp(9, 0))
            },
        ];
        h.ingest(0, &bad, stamp(20, 0));
        assert_eq!(h.refused(), bad.len() as u64);
        assert_eq!(h.summary().transactions, 1);
        // A vertex's overlapping pair within one upload: the second is
        // refused, the first checked.
        h.ingest(
            0,
            &[
                wt(1, stamp(21, 0), stamp(24, 0)),
                wt(1, stamp(22, 0), stamp(23, 0)),
            ],
            stamp(25, 0),
        );
        assert_eq!(h.refused(), bad.len() as u64 + 1);
        let refused = h.render_json().get("refused_txns").and_then(Json::as_u64);
        assert_eq!(refused, Some(bad.len() as u64 + 1));
        let s = h.finalize();
        assert_eq!(s.transactions, 2);
        assert!(s.one_copy_serializable);
        assert_eq!(h.summary(), s);
    }

    #[test]
    fn sentinel_log_captures_violations_as_jsonl() {
        let dir = std::env::temp_dir().join(format!("sg-audit-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sentinels.jsonl");
        let g = Arc::new(gen::paper_c4());
        let cfg = AuditConfig {
            sentinel_path: Some(path.to_string_lossy().into_owned()),
            ..AuditConfig::default()
        };
        let h = AuditHub::new(g, vec![0, 0, 1, 1], 1, &Telemetry::new(), cfg).unwrap();
        h.ingest(
            0,
            &[
                wt(0, stamp(1, 0), stamp(10, 0)),
                WireTxn {
                    vertex: 1,
                    start: stamp(2, 1),
                    end: stamp(3, 1),
                    stale: vec![0],
                },
            ],
            u64::MAX,
        );
        h.finalize();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty(), "sentinel file must not be empty");
        let kinds: Vec<String> = (text.lines())
            .map(|l| Json::parse(l).unwrap())
            .map(|l| l.get("kind").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert!(kinds.iter().any(|k| k == "c2"), "{text}");
        assert!(kinds.iter().any(|k| k == "c1"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
