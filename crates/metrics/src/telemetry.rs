//! The live telemetry registry (sg-obs): dependency-free, lock-free
//! counters, gauges, and log₂-bucketed histograms.
//!
//! The post-hoc observability stack (trace rings, `ObsReport`, `sg-trace`)
//! answers questions after a run exits. This module is the *live* plane: a
//! registry any layer can record into from its hot path, snapshotted at any
//! moment into a coherent [`TelemetrySnapshot`] that can be merged across
//! workers, rendered as Prometheus text exposition, or embedded in bench
//! artifacts.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-free hot path.** Recording is a relaxed `fetch_add` on an
//!    `AtomicU64` (histograms: three). Handles are `Arc`s to the atomic
//!    cells, registered once (cold path, one short mutex) and then cloned
//!    freely into worker threads. No locks, no allocation, no syscalls on
//!    the record path (`perf/` reports `sg-metrics.telemetry_overhead_pct`).
//! 2. **Coherent snapshots.** A histogram's `count`, `sum`, and buckets are
//!    separate atomics; a reader racing a writer could observe a bucket
//!    increment without its count. [`HistogramCore::snapshot`] retries
//!    (bounded) until the bucket total equals a stable `count`, yielding a
//!    point-in-time-consistent view in the common case and a
//!    monotonically-close one under sustained fire.
//! 3. **Mergeable.** Counters and gauges add; histograms add bucket-wise.
//!    Merging is associative and commutative (u64 addition), so the
//!    coordinator can fold per-worker snapshots in any order.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`. 64 power-of-two buckets cover the
/// full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`: 0, 1, 3, 7, …, `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The kind of a registered metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// log₂-bucketed histogram.
    Histogram,
}

impl MetricKind {
    /// Stable wire tag for this kind.
    pub fn as_u8(self) -> u8 {
        match self {
            MetricKind::Counter => 0,
            MetricKind::Gauge => 1,
            MetricKind::Histogram => 2,
        }
    }

    /// Inverse of [`MetricKind::as_u8`].
    pub fn from_u8(v: u8) -> Option<MetricKind> {
        match v {
            0 => Some(MetricKind::Counter),
            1 => Some(MetricKind::Gauge),
            2 => Some(MetricKind::Histogram),
            _ => None,
        }
    }

    fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Atomic storage behind a histogram handle.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [0u64; HIST_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    /// Record one observation. Bucket and sum first, count last
    /// (release) so a snapshot that sees `count == n` can retry until the
    /// buckets account for all `n` observations.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// A coherent point-in-time copy: bounded retry until the bucket total
    /// matches a stable count (always consistent once writers pause; close
    /// under sustained concurrent fire).
    pub fn snapshot(&self) -> HistogramSnapshot {
        for _ in 0..16 {
            let c1 = self.count.load(Ordering::Acquire);
            let buckets: Vec<u64> = self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let sum = self.sum.load(Ordering::Relaxed);
            let c2 = self.count.load(Ordering::Acquire);
            if c1 == c2 && buckets.iter().sum::<u64>() == c1 {
                return HistogramSnapshot {
                    count: c1,
                    sum,
                    buckets,
                };
            }
        }
        // Sustained fire: accept the latest (self-consistent to within the
        // writes that landed during the final read).
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Hot-path handle to a monotonic counter. Clone freely; all clones share
/// one atomic cell.
#[derive(Clone, Debug)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hot-path handle to a gauge (last write wins).
#[derive(Clone, Debug)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hot-path handle to a log₂ histogram.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<HistogramCore>);

impl HistogramHandle {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Snapshot this histogram alone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// The registry. Registration (cold) takes a short mutex and is idempotent:
/// asking for the same `(name, labels)` again returns a handle to the same
/// cell. Recording through handles is lock-free.
#[derive(Debug, Default)]
pub struct Telemetry {
    entries: Mutex<Vec<Entry>>,
}

impl Telemetry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn labels_owned(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Register (or look up) a monotonic counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let labels = Self::labels_owned(labels);
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Cell::Counter(c) = &e.cell {
                    return CounterHandle(Arc::clone(c));
                }
                panic!("telemetry metric {name} re-registered with a different kind");
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        entries.push(Entry {
            name: name.to_string(),
            labels,
            cell: Cell::Counter(Arc::clone(&cell)),
        });
        CounterHandle(cell)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        let labels = Self::labels_owned(labels);
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Cell::Gauge(c) = &e.cell {
                    return GaugeHandle(Arc::clone(c));
                }
                panic!("telemetry metric {name} re-registered with a different kind");
            }
        }
        let cell = Arc::new(AtomicU64::new(0));
        entries.push(Entry {
            name: name.to_string(),
            labels,
            cell: Cell::Gauge(Arc::clone(&cell)),
        });
        GaugeHandle(cell)
    }

    /// Register (or look up) a log₂ histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let labels = Self::labels_owned(labels);
        let mut entries = self.entries.lock().unwrap();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Cell::Histogram(c) = &e.cell {
                    return HistogramHandle(Arc::clone(c));
                }
                panic!("telemetry metric {name} re-registered with a different kind");
            }
        }
        let cell = Arc::new(HistogramCore::default());
        entries.push(Entry {
            name: name.to_string(),
            labels,
            cell: Cell::Histogram(Arc::clone(&cell)),
        });
        HistogramHandle(cell)
    }

    /// Snapshot every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let entries = self.entries.lock().unwrap();
        let rows = entries
            .iter()
            .map(|e| MetricRow {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.cell {
                    Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(c) => MetricValue::Gauge(c.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        TelemetrySnapshot { rows }
    }

    /// Number of registered metrics (diagnostics).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts, `HIST_BUCKETS` long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty histogram (all buckets zero).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Add another histogram bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] = self.buckets[i].saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Estimate the `q`-quantile (0.0–1.0) as the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Mean of observed values; 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Value of one metric row in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram copy.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The kind of this value.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }

    /// Flatten to a wire-friendly `u64` vector: `[v]` for counters and
    /// gauges, `[count, sum, b0..]` for histograms.
    pub fn to_values(&self) -> Vec<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => vec![*v],
            MetricValue::Histogram(h) => {
                let mut out = Vec::with_capacity(2 + h.buckets.len());
                out.push(h.count);
                out.push(h.sum);
                out.extend_from_slice(&h.buckets);
                out
            }
        }
    }

    /// Inverse of [`MetricValue::to_values`].
    pub fn from_values(kind: MetricKind, values: &[u64]) -> Option<MetricValue> {
        match kind {
            MetricKind::Counter => Some(MetricValue::Counter(*values.first()?)),
            MetricKind::Gauge => Some(MetricValue::Gauge(*values.first()?)),
            MetricKind::Histogram => {
                if values.len() < 2 {
                    return None;
                }
                Some(MetricValue::Histogram(HistogramSnapshot {
                    count: values[0],
                    sum: values[1],
                    buckets: values[2..].to_vec(),
                }))
            }
        }
    }

    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a = a.saturating_add(*b),
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.saturating_add(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            // Kind clash: keep the existing value (cannot happen for rows
            // produced by one registry; defensive for wire input).
            _ => {}
        }
    }
}

/// One named, labeled metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricRow {
    /// Metric family name (`sg_link_frames_out_total`, …).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: MetricValue,
}

/// A mergeable point-in-time view of a registry (or of many, folded).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// All metric rows.
    pub rows: Vec<MetricRow>,
}

impl TelemetrySnapshot {
    /// Fold another snapshot into this one: rows with matching name and
    /// labels combine (counters/gauges add, histograms add bucket-wise);
    /// others append. Associative and commutative up to row order.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for row in &other.rows {
            if let Some(mine) = self
                .rows
                .iter_mut()
                .find(|r| r.name == row.name && r.labels == row.labels)
            {
                mine.value.merge(&row.value);
            } else {
                self.rows.push(row.clone());
            }
        }
    }

    /// A copy with `(key, value)` prepended to every row's labels — the
    /// coordinator uses this to tag each worker's snapshot before folding.
    pub fn with_label(&self, key: &str, value: &str) -> TelemetrySnapshot {
        TelemetrySnapshot {
            rows: self
                .rows
                .iter()
                .map(|r| {
                    let mut labels = Vec::with_capacity(r.labels.len() + 1);
                    labels.push((key.to_string(), value.to_string()));
                    labels.extend(r.labels.iter().cloned());
                    MetricRow {
                        name: r.name.clone(),
                        labels,
                        value: r.value.clone(),
                    }
                })
                .collect(),
        }
    }

    /// Find a row by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.rows
            .iter()
            .find(|r| {
                r.name == name
                    && r.labels.len() == labels.len()
                    && r.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|r| &r.value)
    }

    /// Sum every counter row of family `name` across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| match &r.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Render Prometheus text exposition format. Histograms emit cumulative
    /// `_bucket{le=...}` lines (sparse: only buckets that grow the
    /// cumulative count, plus `+Inf`), `_sum`, `_count`, and estimated
    /// `quantile="0.5"` / `quantile="0.99"` lines for dashboards that
    /// don't aggregate buckets themselves.
    pub fn render_prometheus(&self) -> String {
        let mut rows: Vec<&MetricRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for row in rows {
            if last_family != Some(row.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&row.name);
                out.push(' ');
                out.push_str(row.value.kind().prometheus_type());
                out.push('\n');
                last_family = Some(row.name.as_str());
            }
            match &row.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&row.name);
                    render_labels(&mut out, &row.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        out.push_str(&row.name);
                        out.push_str("_bucket");
                        render_labels(
                            &mut out,
                            &row.labels,
                            Some(("le", &bucket_upper_bound(i).to_string())),
                        );
                        out.push(' ');
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    out.push_str(&row.name);
                    out.push_str("_bucket");
                    render_labels(&mut out, &row.labels, Some(("le", "+Inf")));
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                    out.push_str(&row.name);
                    out.push_str("_sum");
                    render_labels(&mut out, &row.labels, None);
                    out.push(' ');
                    out.push_str(&h.sum.to_string());
                    out.push('\n');
                    out.push_str(&row.name);
                    out.push_str("_count");
                    render_labels(&mut out, &row.labels, None);
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                    for (q, qv) in [("0.5", h.quantile(0.5)), ("0.99", h.quantile(0.99))] {
                        out.push_str(&row.name);
                        render_labels(&mut out, &row.labels, Some(("quantile", q)));
                        out.push(' ');
                        out.push_str(&qv.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Render the snapshot as a JSON array (matches the bench artifact
    /// schema): one object per row with `name`, `labels`, `kind`, and
    /// either `value` or `count`/`sum`/`p50`/`p99`/`buckets`.
    pub fn to_json(&self) -> Json {
        self.rows
            .iter()
            .map(|row| {
                let labels = row
                    .labels
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().into()));
                let mut doc = Json::obj([
                    ("name", row.name.as_str().into()),
                    ("labels", Json::Obj(labels.collect())),
                ]);
                match &row.value {
                    MetricValue::Counter(v) => {
                        doc.push("kind", "counter");
                        doc.push("value", *v);
                    }
                    MetricValue::Gauge(v) => {
                        doc.push("kind", "gauge");
                        doc.push("value", *v);
                    }
                    MetricValue::Histogram(h) => {
                        doc.push("kind", "histogram");
                        doc.push("count", h.count);
                        doc.push("sum", h.sum);
                        doc.push("p50", h.quantile(0.5));
                        doc.push("p99", h.quantile(0.99));
                        // Sparse: [index, count] pairs for nonzero buckets.
                        let buckets = (h.buckets.iter().enumerate())
                            .filter(|&(_, &c)| c > 0)
                            .map(|(bi, &c)| Json::from_iter([bi as u64, c]));
                        doc.push("buckets", buckets.collect::<Json>());
                    }
                }
                doc
            })
            .collect()
    }
}

/// Escape a Prometheus label value: backslash, double quote, newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn registry_reuses_cells() {
        let t = Telemetry::new();
        let a = t.counter("c", &[("k", "v")]);
        let b = t.counter("c", &[("k", "v")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(t.len(), 1);
        let _other = t.counter("c", &[("k", "w")]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn snapshot_round_trips_values() {
        let t = Telemetry::new();
        t.counter("frames", &[]).add(7);
        t.gauge("depth", &[]).set(3);
        t.histogram("lat", &[]).record(5);
        let s = t.snapshot();
        assert_eq!(s.get("frames", &[]), Some(&MetricValue::Counter(7)));
        assert_eq!(s.get("depth", &[]), Some(&MetricValue::Gauge(3)));
        match s.get("lat", &[]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 5);
                assert_eq!(h.buckets[bucket_index(5)], 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wire_values_round_trip() {
        let mut h = HistogramSnapshot::empty();
        h.count = 2;
        h.sum = 9;
        h.buckets[3] = 2;
        for v in [
            MetricValue::Counter(42),
            MetricValue::Gauge(7),
            MetricValue::Histogram(h),
        ] {
            let back = MetricValue::from_values(v.kind(), &v.to_values()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn quantile_of_uniform_powers() {
        let mut h = HistogramSnapshot::empty();
        for v in 1..=100u64 {
            h.buckets[bucket_index(v)] += 1;
            h.count += 1;
            h.sum += v;
        }
        // p50 of 1..=100 lands in the bucket containing 50 → upper bound 63.
        assert_eq!(h.quantile(0.5), 63);
        // p99 lands in the bucket containing 99 → upper bound 127.
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(0.0), 1);
    }
}
