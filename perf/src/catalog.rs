//! What the benchmark measures: the four workloads, the three end-to-end
//! metrics with their regression bounds, and every per-layer metric.
//! `BENCHMARK.json` is this file printed (`run.sh --print-benchmark-json`).

use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// Timed reps a 30 s untraced run has to make for `--aa` and the full run
/// to count it.
pub const MIN_TIMED_REPS: u64 = 10;

/// Which vertex program a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// `DeltaPageRank(0.01)` with its sum combiner, on the directed graph.
    PageRank,
    /// `GreedyColoring` on the symmetrised graph.
    Coloring,
}

/// Where a workload executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Host {
    /// `sg_engine::Engine` — worker threads in one address space.
    Engine,
    /// `sg_net::run_cluster` — two ranks over loopback TCP.
    Net,
}

/// One workload: a fixed input recipe and configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub algo: Algo,
    pub host: Host,
    pub technique: sg_engine::TechniqueKind,
    /// Record a history, audit it live and check it post hoc.
    pub audited: bool,
    /// R-MAT scale and directed edge count (before symmetrising).
    pub scale: u32,
    pub edges: u64,
    /// Cluster shape: workers (one compute thread each) and partitions per
    /// worker. Every workload runs 2 x 2.
    pub workers: u32,
    pub partitions_per_worker: u32,
}

use sg_engine::TechniqueKind as T;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pagerank-plock-engine",
        why: "R-MAT scale 16, 800,000 directed edges, 2 workers x 2 partitions: 0.46 M executions, 7.5 M messages per rep, so compute, the message datapath and store write-through do the work; sync and wire idle",
        algo: Algo::PageRank,
        host: Host::Engine,
        technique: T::PartitionLock,
        audited: false,
        scale: 16,
        edges: 800_000,
        workers: 2,
        partitions_per_worker: 2,
    },
    Workload {
        name: "coloring-vlock-engine",
        why: "R-MAT scale 16, 1,000,000 edges symmetrised (1.9 M), 2 workers x 2 partitions: 164 k executions but 4.0 M Chandy-Misra fork transfers, 2.7 M across workers, so sg-sync's fork table does the work",
        algo: Algo::Coloring,
        host: Host::Engine,
        technique: T::VertexLock,
        audited: false,
        scale: 16,
        edges: 1_000_000,
        workers: 2,
        partitions_per_worker: 2,
    },
    Workload {
        name: "pagerank-plock-net",
        why: "pagerank-plock-engine's exact input on 2 ranks over loopback TCP: the only difference is sg-net (wire v5, PeerLink, coordinator-hosted locks, bring-up), which every other workload bypasses",
        algo: Algo::PageRank,
        host: Host::Net,
        technique: T::PartitionLock,
        audited: false,
        scale: 16,
        edges: 800_000,
        workers: 2,
        partitions_per_worker: 2,
    },
    Workload {
        name: "coloring-dtoken-audited",
        why: "R-MAT scale 15, 500,000 edges symmetrised (0.94 M), dual-token on 2 workers x 2 partitions, recorded, audited live, checked post hoc: what proving 1SR costs; sg-serial dominates here, idles elsewhere",
        algo: Algo::Coloring,
        host: Host::Engine,
        technique: T::DualToken,
        audited: true,
        scale: 15,
        edges: 500_000,
        workers: 2,
        partitions_per_worker: 2,
    },
];

/// `--smoke` sizes: scale-10 graphs, about a second per workload.
pub fn smoke(mut w: Workload) -> Workload {
    w.scale = 10;
    w.edges = 8_000;
    w
}

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An end-to-end metric. `bound` is the share of the parent's value by which
/// a later change may make it worse before the driver rejects the change; it
/// is sized to the spread identical code shows over ten processes with ten
/// seeds on the reference host (`perf/README.md`, "A/A"), so that noise is
/// not reported as a regression. `target` is the resolution the issue asked
/// for; `--aa` reports a pair of runs that differ by more than it, but by no
/// more than `bound`, as unresolved.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub target: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        target: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        target: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.10,
        target: 0.05,
    },
];

/// `true` = higher is better.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: true,
    }
}

/// Every per-layer metric a traced run prints, for every workload (0 where
/// the layer does nothing on that workload). `perf/README.md` says what
/// each means and which end-to-end metric it should move.
pub const PER_LAYER: &[PerLayer] = &[
    lo("sg-graph.generate_s", "s"),
    lo("sg-graph.symmetrize_s", "s"),
    lo("sg-graph.partition_s", "s"),
    lo("sg-graph.csr_mb", "MiB"),
    lo("sg-algos.compute_ns_per_vertex", "ns"),
    lo("sg-algos.compute_ns_per_msg", "ns"),
    lo("sg-algos.compute_share", "share"),
    lo("sg-engine.supersteps", "count"),
    lo("sg-engine.vertex_executions", "count"),
    lo("sg-engine.exec_per_vertex", "ratio"),
    lo("sg-engine.msgs_local", "count"),
    lo("sg-engine.msgs_remote", "count"),
    lo("sg-engine.remote_batches", "count"),
    hi("sg-engine.avg_batch_msgs", "msgs"),
    hi("sg-engine.sender_combines", "count"),
    lo("sg-engine.staging_flushes", "count"),
    hi("sg-engine.halted_skips", "count"),
    hi("sg-engine.vexec_per_s", "1/s"),
    hi("sg-engine.msgs_per_s", "1/s"),
    lo("sg-engine.build_s", "s"),
    lo("sg-engine.insert_ns_per_msg", "ns"),
    lo("sg-engine.drain_ns_per_msg", "ns"),
    lo("sg-engine.stage_flush_ns_per_msg", "ns"),
    lo("sg-engine.datapath_share", "share"),
    lo("sg-engine.single_worker_run_s", "s"),
    hi("sg-engine.scaling_x", "x"),
    lo("sg-engine.nosync_run_s", "s"),
    lo("sg-engine.serializability_overhead_x", "x"),
    lo("sg-engine.idle_share", "share"),
    lo("sg-sync.fork_transfers", "count"),
    lo("sg-sync.fork_transfers_remote", "count"),
    lo("sg-sync.request_tokens", "count"),
    lo("sg-sync.global_token_passes", "count"),
    lo("sg-sync.local_token_passes", "count"),
    lo("sg-sync.forks_per_exec", "ratio"),
    lo("sg-sync.acquire_wait_p50_ns", "ns"),
    lo("sg-sync.acquire_wait_p99_ns", "ns"),
    lo("sg-sync.hold_p50_ns", "ns"),
    lo("sg-sync.acquire_release_ns_per_unit", "ns"),
    lo("sg-sync.contended_ns_per_unit", "ns"),
    lo("sg-sync.build_s", "s"),
    lo("sg-sync.sync_share", "share"),
    lo("sg-store.installs", "count"),
    lo("sg-store.live_versions", "count"),
    hi("sg-store.gc_freed", "count"),
    lo("sg-store.commit_ns_per_txn", "ns"),
    lo("sg-store.gc_ns_per_version", "ns"),
    lo("sg-store.commit_share", "share"),
    lo("sg-store.store_mb", "MiB"),
    lo("sg-store.read_latest_ns", "ns"),
    lo("sg-store.read_at_ns", "ns"),
    lo("sg-store.snapshot_open_ns", "ns"),
    lo("sg-store.khop1_ns_per_vertex", "ns"),
    lo("sg-serial.txns", "count"),
    lo("sg-serial.record_ns_per_txn", "ns"),
    lo("sg-serial.audit_drain_ns_per_txn", "ns"),
    lo("sg-serial.check_ns_per_txn", "ns"),
    lo("sg-serial.verify_s", "s"),
    lo("sg-serial.record_overhead_x", "x"),
    lo("sg-serial.audit_overhead_x", "x"),
    lo("sg-serial.history_mb", "MiB"),
    lo("sg-serial.record_share", "share"),
    lo("sg-serial.audit_share", "share"),
    lo("sg-serial.verify_share", "share"),
    lo("sg-net.bringup_s", "s"),
    lo("sg-net.frames", "count"),
    lo("sg-net.bytes", "bytes"),
    lo("sg-net.bytes_per_msg", "bytes"),
    hi("sg-net.avg_batch_msgs", "msgs"),
    lo("sg-net.retransmits", "count"),
    lo("sg-net.redials", "count"),
    lo("sg-net.dup_reacks", "count"),
    lo("sg-net.rtt_p50_us", "us"),
    lo("sg-net.encode_ns_per_msg", "ns"),
    lo("sg-net.decode_ns_per_msg", "ns"),
    lo("sg-net.wire_share", "share"),
    lo("sg-net.syscall_share", "share"),
    lo("sg-net.cluster_overhead_x", "x"),
    lo("sg-metrics.telemetry_overhead_pct", "%"),
    lo("sg-metrics.trace_overhead_pct", "%"),
    hi("sg-metrics.cp_compute_share", "share"),
    lo("sg-metrics.cp_comm_share", "share"),
    lo("sg-metrics.cp_token_wait_share", "share"),
    lo("sg-metrics.cp_fork_wait_share", "share"),
    lo("sg-metrics.cp_barrier_share", "share"),
    lo("sg-metrics.cp_idle_share", "share"),
    hi("sg-sim.events_per_s", "1/s"),
    hi("sg-sim.replay_identical", "bool"),
    hi("harness.reps", "count"),
    lo("harness.run_iqr_pct", "%"),
    lo("harness.setup_iqr_pct", "%"),
    lo("harness.cold_setup_s", "s"),
    lo("harness.cold_run_s", "s"),
    lo("harness.trace_overhead_pct", "%"),
    lo("harness.unattributed_share", "share"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"perf/run.sh\"],\n");
    s.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let better = if m.higher { "higher" } else { "lower" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}{comma}",
            m.name, m.unit
        );
    }
    s.push_str("  ]\n}\n");
    s
}
