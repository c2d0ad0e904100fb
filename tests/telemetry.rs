//! Satellite coverage for the live telemetry plane (`sg_metrics::telemetry`):
//! log₂ histogram bucket boundaries, concurrent recording vs a sequential
//! reference, snapshot merge associativity, and Prometheus text rendering
//! (quantile lines, label escaping).

use serigraph::sg_metrics::telemetry::{bucket_index, bucket_upper_bound, HIST_BUCKETS};
use serigraph::sg_metrics::{HistogramSnapshot, MetricValue, Telemetry, TelemetrySnapshot};
use std::sync::Arc;

// ---------------------------------------------------------------- buckets

#[test]
fn bucket_zero_holds_only_value_zero() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_upper_bound(0), 0);
    assert_eq!(bucket_index(1), 1);
}

#[test]
fn bucket_boundaries_are_powers_of_two() {
    // Bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
    for i in 1..64u32 {
        let lo = 1u64 << (i - 1);
        let hi = (1u64 << i) - 1;
        assert_eq!(bucket_index(lo), i as usize, "low edge of bucket {i}");
        assert_eq!(bucket_index(hi), i as usize, "high edge of bucket {i}");
        assert_eq!(bucket_upper_bound(i as usize), hi, "upper bound {i}");
        if i > 1 {
            assert_eq!(bucket_index(lo - 1), i as usize - 1, "below bucket {i}");
        }
    }
    // Top bucket: [2^63, u64::MAX] maps to index 64 with an open upper bound.
    assert_eq!(bucket_index(1u64 << 63), 64);
    assert_eq!(bucket_index(u64::MAX), 64);
    assert_eq!(bucket_upper_bound(64), u64::MAX);
    assert_eq!(HIST_BUCKETS, 65);
}

#[test]
fn every_value_falls_at_or_below_its_buckets_upper_bound() {
    // index → upper_bound consistency: v <= upper(bucket(v)), and v is
    // strictly above the previous bucket's upper bound.
    for shift in 0..64u32 {
        for v in [1u64 << shift, (1u64 << shift) | 1, (1u64 << shift) + 7] {
            let b = bucket_index(v);
            assert!(b < HIST_BUCKETS);
            assert!(v <= bucket_upper_bound(b), "v={v} bucket={b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "v={v} bucket={b}");
            }
        }
    }
}

// ------------------------------------------------- concurrent recording

/// Deterministic value stream: spans several orders of magnitude so many
/// buckets are exercised, including zero.
fn test_values(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix magnitudes: ~1/8 zeros, rest spread over 2^0..2^40.
            match x % 8 {
                0 => 0,
                k => (x >> 20) % (1u64 << (5 * k)),
            }
        })
        .collect()
}

#[test]
fn concurrent_recording_matches_sequential_reference() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;

    let reg = Arc::new(Telemetry::new());
    let hist = reg.histogram("sg_test_latency_ns", &[]);
    let ctr = reg.counter("sg_test_ops_total", &[]);

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let hist = hist.clone();
        let ctr = ctr.clone();
        joins.push(std::thread::spawn(move || {
            for v in test_values(t as u64 + 1, PER_THREAD) {
                hist.record(v);
                ctr.inc();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Sequential reference over the same multiset of values.
    let mut ref_buckets = vec![0u64; HIST_BUCKETS];
    let mut ref_sum = 0u64;
    let mut ref_count = 0u64;
    for t in 0..THREADS {
        for v in test_values(t as u64 + 1, PER_THREAD) {
            ref_buckets[bucket_index(v)] += 1;
            ref_sum = ref_sum.wrapping_add(v);
            ref_count += 1;
        }
    }

    let snap = hist.snapshot();
    assert_eq!(snap.count, ref_count);
    assert_eq!(snap.sum, ref_sum);
    assert_eq!(snap.buckets.len(), HIST_BUCKETS);
    for (i, (&got, &want)) in snap.buckets.iter().zip(&ref_buckets).enumerate() {
        assert_eq!(got, want, "bucket {i}");
    }
    assert_eq!(ctr.get(), (THREADS * PER_THREAD) as u64);
    // Quiescent snapshot is internally coherent.
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
}

#[test]
fn snapshot_taken_under_concurrent_writes_is_coherent() {
    // While writers hammer the histogram, every snapshot must satisfy the
    // bucket-sum == count invariant (the coherence the retry loop buys).
    let reg = Arc::new(Telemetry::new());
    let hist = reg.histogram("sg_test_live", &[]);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let mut writers = Vec::new();
    for t in 0..4 {
        let hist = hist.clone();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let vals = test_values(t + 100, 4096);
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                hist.record(vals[i % vals.len()]);
                i += 1;
            }
        }));
    }
    for _ in 0..200 {
        let s = hist.snapshot();
        assert_eq!(
            s.buckets.iter().sum::<u64>(),
            s.count,
            "snapshot incoherent under concurrent writes"
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

// ------------------------------------------------------ merge semantics

fn labeled_snapshot(worker: &str, ops: u64, depth: u64, lat: &[u64]) -> TelemetrySnapshot {
    let reg = Telemetry::new();
    let c = reg.counter("sg_ops_total", &[("worker", worker)]);
    c.add(ops);
    let g = reg.gauge("sg_depth", &[("worker", worker)]);
    g.set(depth);
    let h = reg.histogram("sg_lat_ns", &[]);
    for &v in lat {
        h.record(v);
    }
    reg.snapshot()
}

type FlatRow = (String, Vec<(String, String)>, MetricValue);

fn sorted_rows(s: &TelemetrySnapshot) -> Vec<FlatRow> {
    let mut rows: Vec<_> = s
        .rows
        .iter()
        .map(|r| (r.name.clone(), r.labels.clone(), r.value.clone()))
        .collect();
    rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    rows
}

#[test]
fn merge_is_associative_and_commutative_up_to_row_order() {
    let a = labeled_snapshot("0", 10, 3, &[1, 2, 900]);
    let b = labeled_snapshot("1", 20, 5, &[4, 4_000_000]);
    let c = labeled_snapshot("0", 7, 2, &[1, 7, 7, 123_456]);

    // (a ∪ b) ∪ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ∪ (b ∪ c)
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(sorted_rows(&left), sorted_rows(&right));

    // Commutative up to row order too.
    let mut rev = c.clone();
    rev.merge(&b);
    rev.merge(&a);
    assert_eq!(sorted_rows(&left), sorted_rows(&rev));

    // Matching rows combined, not duplicated: a and c share every label set
    // (worker=0 counter/gauge, unlabeled histogram), b adds two new rows.
    assert_eq!(left.rows.len(), 5);
    assert_eq!(
        left.get("sg_ops_total", &[("worker", "0")]),
        Some(&MetricValue::Counter(17))
    );
    match left.get("sg_lat_ns", &[]) {
        Some(MetricValue::Histogram(h)) => {
            assert_eq!(h.count, 9);
            assert_eq!(h.sum, 1 + 2 + 900 + 4 + 4_000_000 + 1 + 7 + 7 + 123_456);
        }
        other => panic!("expected merged histogram, got {other:?}"),
    }
    assert_eq!(left.counter_total("sg_ops_total"), 37);
}

#[test]
fn histogram_snapshot_merge_adds_bucketwise() {
    let mut a = HistogramSnapshot {
        count: 3,
        sum: 5,
        buckets: vec![1, 2, 0],
    };
    let b = HistogramSnapshot {
        count: 13,
        sum: 100,
        buckets: vec![0, 1, 4, 8],
    };
    a.merge(&b);
    assert_eq!(a.buckets, vec![1, 3, 4, 8]);
    assert_eq!(a.count, 16);
    assert_eq!(a.sum, 105);
}

#[test]
fn quantile_walks_cumulative_buckets() {
    let reg = Telemetry::new();
    let h = reg.histogram("sg_q", &[]);
    // 99 values in bucket 1 (value 1), one huge outlier.
    for _ in 0..99 {
        h.record(1);
    }
    h.record(1 << 20);
    let s = h.snapshot();
    assert_eq!(s.quantile(0.5), 1);
    // p100 lands in the outlier's bucket; upper bound of bucket 21.
    assert_eq!(s.quantile(1.0), (1u64 << 21) - 1);
    assert_eq!(s.quantile(0.99), 1);
}

// -------------------------------------------------- Prometheus rendering

#[test]
fn prometheus_text_has_type_lines_quantiles_and_cumulative_buckets() {
    let reg = Telemetry::new();
    reg.counter("sg_frames_total", &[("peer", "1")]).add(42);
    reg.gauge("sg_depth", &[]).set(7);
    let h = reg.histogram("sg_rtt_ns", &[("peer", "1")]);
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(3);
    let text = reg.snapshot().render_prometheus();

    assert!(text.contains("# TYPE sg_frames_total counter"), "{text}");
    assert!(text.contains("# TYPE sg_depth gauge"), "{text}");
    assert!(text.contains("# TYPE sg_rtt_ns histogram"), "{text}");
    assert!(text.contains("sg_frames_total{peer=\"1\"} 42"), "{text}");
    assert!(text.contains("sg_depth 7"), "{text}");

    // Cumulative buckets: value 0 → le=0 cum 1; value 1 → le=1 cum 2;
    // two 3s → le=3 cum 4; +Inf equals total count.
    assert!(
        text.contains("sg_rtt_ns_bucket{peer=\"1\",le=\"0\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("sg_rtt_ns_bucket{peer=\"1\",le=\"1\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("sg_rtt_ns_bucket{peer=\"1\",le=\"3\"} 4"),
        "{text}"
    );
    assert!(
        text.contains("sg_rtt_ns_bucket{peer=\"1\",le=\"+Inf\"} 4"),
        "{text}"
    );
    assert!(text.contains("sg_rtt_ns_sum{peer=\"1\"} 7"), "{text}");
    assert!(text.contains("sg_rtt_ns_count{peer=\"1\"} 4"), "{text}");

    // Estimated quantile lines: p50 of [0,1,3,3] → 2nd obs → bucket le=1;
    // p99 → 4th obs → bucket upper bound 3.
    assert!(
        text.contains("sg_rtt_ns{peer=\"1\",quantile=\"0.5\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("sg_rtt_ns{peer=\"1\",quantile=\"0.99\"} 3"),
        "{text}"
    );

    // One # TYPE line per family, families sorted by name.
    assert_eq!(text.matches("# TYPE").count(), 3);
    let d = text.find("# TYPE sg_depth").unwrap();
    let f = text.find("# TYPE sg_frames_total").unwrap();
    let r = text.find("# TYPE sg_rtt_ns").unwrap();
    assert!(d < f && f < r);
}

#[test]
fn prometheus_label_values_are_escaped() {
    let reg = Telemetry::new();
    reg.counter("sg_esc_total", &[("path", "a\\b\"c\nd")]).inc();
    let text = reg.snapshot().render_prometheus();
    assert!(
        text.contains("sg_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
        "escaping wrong: {text}"
    );
    // The raw newline must not survive into the exposition text.
    assert_eq!(text.matches('\n').count(), text.lines().count());
}

#[test]
fn json_rendering_matches_bench_artifact_schema() {
    let reg = Telemetry::new();
    reg.counter("sg_c", &[("worker", "0")]).add(5);
    let h = reg.histogram("sg_h", &[]);
    h.record(2);
    h.record(1000);
    let json = reg.snapshot().to_json().to_string();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"name\":\"sg_c\""), "{json}");
    assert!(json.contains("\"labels\":{\"worker\":\"0\"}"), "{json}");
    assert!(json.contains("\"kind\":\"counter\",\"value\":5"), "{json}");
    assert!(
        json.contains("\"kind\":\"histogram\",\"count\":2,\"sum\":1002"),
        "{json}"
    );
    // Sparse [index, count] bucket pairs: 2 → bucket 2, 1000 → bucket 10.
    assert!(json.contains("\"buckets\":[[2,1],[10,1]]"), "{json}");
}

// ------------------------------------------------------- store gauges

/// The `sg_store_*` gauges, set once per barrier, scraped from an engine
/// run while a serving snapshot stays open the whole time: the pinned
/// horizon shows as an open snapshot, chained versions and a horizon lag
/// equal to every commit of the run.
#[test]
fn store_gauges_scraped_from_a_run_holding_a_snapshot() {
    use serigraph::prelude::*;
    let g = Arc::new(gen::grid(8, 8));
    let config = EngineConfig {
        workers: 2,
        model: Model::Async,
        technique: TechniqueKind::PartitionLock,
        obs: ObsConfig {
            telemetry: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let engine = Engine::new(g, DeltaPageRank::new(1e-6), config).expect("engine");
    let held = engine.reader().snapshot();
    let initial = held.values();
    let out = engine.run();
    assert!(out.converged);
    let snap = out.telemetry.expect("telemetry requested");
    let gauge = |name: &str| match snap.get(name, &[]) {
        Some(MetricValue::Gauge(x)) => *x,
        other => panic!("{name}: {other:?}"),
    };
    let commits = gauge("sg_store_commits");
    assert!(commits > 2 * 64, "every vertex ran more than twice");
    assert_eq!(gauge("sg_store_open_snapshots"), 1);
    // The snapshot opened at read_ts 0, so GC is held back by every commit.
    assert_eq!(held.read_ts(), 0);
    assert_eq!(gauge("sg_store_gc_horizon_lag"), commits);
    let chained = gauge("sg_store_chained_versions");
    assert!(chained > 0, "a pinned horizon chains superseded versions");
    assert!(gauge("sg_store_live_versions") >= 64 + chained);
    assert_eq!(held.values(), initial, "the held snapshot drifted");
}
