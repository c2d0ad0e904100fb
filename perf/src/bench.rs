//! One process, one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields every per-layer metric.

use crate::catalog::{Algo, Host, Workload, PER_LAYER};
use crate::probes::{self, Probes};
use crate::run::{self, generate, seeds, Obs, Reference, RunOut, Variant};
use crate::spans::Spans;
use crate::stats::{fastest, median, ratio, Summary};
use crate::{calib, host};
use sg_engine::TechniqueKind;
use sg_metrics::critical_path::Category;
use sg_metrics::{HistogramSnapshot, MetricValue, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed reps an untraced run makes even when `--seconds` is too short for
/// them (smoke runs).
const MIN_REPS: usize = 3;

/// What one process reports.
pub struct Report {
    /// The metrics of the result line: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, f64, Option<Summary>)>,
    /// Printed as `metric` lines only, each with its unit (the harness's own
    /// numbers beside an untraced run).
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// Timed reps, and how many of them failed their check.
    pub attempted: u64,
    pub failed: u64,
    /// No timed rep failed, and neither did the warm-up cycle.
    pub correct: bool,
    pub spans: Option<String>,
}

/// Counters that must repeat exactly across reps of one seed; a rep that
/// breaks one counts as failed. `perf/README.md` lists them as `exact`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Exact {
    msgs_local: u64,
    msgs_remote: u64,
    /// Token passes, transactions and supersteps: fixed by the token
    /// schedule on the audited workload, timing-dependent elsewhere.
    token_schedule: Option<(u64, u64, u64, u64)>,
}

impl Exact {
    fn of(w: &Workload, out: &RunOut) -> Option<Exact> {
        (w.algo == Algo::Coloring).then(|| Exact {
            msgs_local: out.counts.local_messages,
            msgs_remote: out.counts.remote_messages,
            token_schedule: w.audited.then_some((
                out.counts.global_token_passes,
                out.counts.local_token_passes,
                out.txns,
                out.supersteps,
            )),
        })
    }
}

struct Cycle {
    setup_s: f64,
    out: RunOut,
}

/// Generates, builds, runs and checks the base variant, once per call.
struct Cycles<'a> {
    w: &'a Workload,
    rmat_seed: u64,
    pseed: u64,
    reference: Option<Reference>,
    exact: Option<Exact>,
}

impl<'a> Cycles<'a> {
    fn new(w: &'a Workload, seed: u64) -> Self {
        let (rmat_seed, pseed) = seeds(seed);
        Self {
            w,
            rmat_seed,
            pseed,
            reference: None,
            exact: None,
        }
    }

    /// One full cycle: generate -> (symmetrize) -> build -> run -> check.
    /// The first call also computes the reference, outside every timed
    /// region. On the net host set-up is generation alone: bring-up is in
    /// `run_s`, as the user pays it.
    fn cycle(&mut self, spans: &mut Spans) -> Cycle {
        let input = generate(self.w, self.rmat_seed, spans);
        let reference = self
            .reference
            .get_or_insert_with(|| run::reference(self.w, &input.graph));
        let base = Variant::base(self.w);
        let mut out = run::run(self.w, &base, &input.graph, self.pseed, reference, spans);
        self.check_exact(&mut out);
        Cycle {
            setup_s: input.generate_s + input.symmetrize_s + out.build_s,
            out,
        }
    }

    fn check_exact(&mut self, out: &mut RunOut) {
        let Some(now) = Exact::of(self.w, out) else {
            return;
        };
        let first = *self.exact.get_or_insert(now);
        if first != now {
            eprintln!("sg-perf: exact counters changed between reps: {first:?} then {now:?}");
            out.correct = false;
        }
    }
}

/// The end-to-end metrics of one workload: a closed loop of full cycles,
/// one job at a time, for `seconds`. The first cycle runs as a user's job
/// would, in a fresh process with its threads wherever the scheduler puts
/// them; `peak_rss_mb` is `VmHWM` after it, and its times count only as
/// `harness.cold_*`. Then the process pins itself to one vCPU. Every timed
/// cycle starts from a trimmed heap and is bracketed by two samples of the
/// host's slowdown ([`calib::slowdown`]); its times are divided by their
/// mean, so `run_s` and `setup_s` are seconds at the reference host's
/// nominal speed, each the median of the timed cycles.
pub fn untraced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let window = Instant::now();
    let mut spans = Spans::new(false);
    let mut cycles = Cycles::new(w, seed);
    let cold = cycles.cycle(&mut spans);
    let peak_rss_mib = host::peak_rss_mib();
    // -1: the kernel refused, and threads stay where the scheduler puts them.
    let pinned_cpu = host::pin_to_last_cpu().map_or(-1.0, f64::from);
    let mut failed = 0u64;
    let (mut setup, mut runs) = (Vec::new(), Vec::new());
    let (mut wall_setup, mut wall_runs, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let timed = Instant::now();
    let mut before = calib::slowdown();
    loop {
        // Stop when another cycle would not fit in the window.
        let reps = runs.len();
        let mean_cycle = if reps == 0 {
            window.elapsed().as_secs_f64()
        } else {
            timed.elapsed().as_secs_f64() / reps as f64
        };
        if reps >= MIN_REPS && window.elapsed().as_secs_f64() + mean_cycle > seconds {
            break;
        }
        host::trim_heap();
        let c = cycles.cycle(&mut spans);
        let after = calib::slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        failed += u64::from(!c.out.correct);
        setup.push(c.setup_s / slowdown);
        runs.push(c.out.run_s / slowdown);
        wall_setup.push(c.setup_s);
        wall_runs.push(c.out.run_s);
        slowdowns.push(slowdown);
    }
    let (run_s, setup_s) = (Summary::of(&runs), Summary::of(&setup));
    Report {
        metrics: vec![
            ("run_s", run_s.median, Some(run_s)),
            ("setup_s", setup_s.median, Some(setup_s)),
            ("peak_rss_mb", peak_rss_mib, None),
        ],
        info: vec![
            ("harness.reps", runs.len() as f64, "count"),
            ("harness.run_iqr_pct", run_s.iqr_pct(), "%"),
            ("harness.setup_iqr_pct", setup_s.iqr_pct(), "%"),
            ("harness.cold_setup_s", cold.setup_s, "s"),
            ("harness.cold_run_s", cold.out.run_s, "s"),
            ("harness.host_slowdown", median(&slowdowns), "x"),
            ("harness.wall_run_s", median(&wall_runs), "s"),
            ("harness.wall_setup_s", median(&wall_setup), "s"),
            ("harness.peak_rss_end_mb", host::peak_rss_mib(), "MiB"),
            ("harness.pinned_cpu", pinned_cpu, "cpu"),
        ],
        attempted: runs.len() as u64,
        failed,
        correct: failed == 0 && cold.out.correct,
        spans: None,
    }
}

/// The variants one round of a traced run executes, by label. `base` is a
/// full cycle; the others reuse the round's graph.
fn plan(w: &Workload) -> Vec<(&'static str, Variant)> {
    let base = Variant::base(w);
    let plain = Variant {
        history: false,
        audit: false,
        ..base
    };
    let mut plan = vec![
        (
            "obs-full",
            Variant {
                obs: Obs::Full,
                ..base
            },
        ),
        // The same partitions on one worker.
        (
            "one-worker",
            Variant {
                workers: 1,
                partitions_per_worker: base.workers * base.partitions_per_worker,
                ..base
            },
        ),
        (
            "nosync",
            Variant {
                technique: TechniqueKind::None,
                ..plain
            },
        ),
    ];
    match w.host {
        // The cluster runtime always carries its telemetry registry, so
        // only its trace rings can be switched.
        Host::Net => plan.push((
            "engine",
            Variant {
                host: Host::Engine,
                ..base
            },
        )),
        Host::Engine => {
            plan.push((
                "obs-telemetry",
                Variant {
                    obs: Obs::Telemetry,
                    ..base
                },
            ));
            plan.push((
                "obs-trace",
                Variant {
                    obs: Obs::Trace,
                    ..base
                },
            ));
        }
    }
    if w.audited {
        plan.push((
            "history-only",
            Variant {
                audit: false,
                ..base
            },
        ));
        plan.push(("plain", plain));
    }
    plan
}

/// Every histogram row of family `name`, merged across label sets.
fn histogram(t: &TelemetrySnapshot, name: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::empty();
    for row in t.rows.iter().filter(|r| r.name == name) {
        if let MetricValue::Histogram(h) = &row.value {
            merged.merge(h);
        }
    }
    merged
}

/// Per-variant samples of a traced run, one entry per round.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<RunOut>>);

impl Samples {
    fn push(&mut self, label: &'static str, out: RunOut) {
        self.0.entry(label).or_default().push(out);
    }

    fn values(&self, label: &str, f: impl Fn(&RunOut) -> f64) -> Vec<f64> {
        self.0.get(label).into_iter().flatten().map(f).collect()
    }

    fn median_of(&self, label: &str, f: impl Fn(&RunOut) -> f64) -> f64 {
        median(&self.values(label, f))
    }

    /// The fastest round's value of a time.
    fn fastest_of(&self, label: &str, f: impl Fn(&RunOut) -> f64) -> f64 {
        fastest(&self.values(label, f))
    }

    fn run_s(&self, label: &str) -> f64 {
        self.fastest_of(label, |o| o.run_s)
    }

    /// `label`'s fastest run over base's, as a percentage above it.
    fn overhead_pct(&self, label: &str) -> f64 {
        100.0 * (ratio(self.run_s(label), self.run_s("base")) - 1.0)
    }
}

/// The per-layer metrics of one workload: probes first, then rounds of the
/// base cycle and its differential variants, interleaved, until `seconds`
/// are used. Times are the fastest round's, counts the median round's.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Report {
    let window = Instant::now();
    // As the timed cycles of an untraced run: everything on one vCPU.
    host::pin_to_last_cpu();
    let mut spans = Spans::new(true);
    let mut cycles = Cycles::new(w, seed);
    let probes = spans
        .time("probes", |s| {
            probes::run_all(w, cycles.rmat_seed, cycles.pseed, s)
        })
        .0;

    let (cold, cold_s) = spans.time("cycle.cold", |s| cycles.cycle(s));
    let mut failed = 0u64;
    let plan = plan(w);
    let mut samples = Samples::default();
    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let mut symmetrize_s = Vec::new();
    let mut rounds = 0usize;
    // Until a round has been timed, expect each variant to take a cycle.
    let mut round_s = cold_s * (plan.len() + 1) as f64;
    while rounds == 0 || window.elapsed().as_secs_f64() + round_s <= seconds {
        rounds += 1;
        spans.round = rounds;
        round_s = spans
            .time("round", |spans| {
                let input = generate(w, cycles.rmat_seed, spans);
                generate_s.push(input.generate_s);
                symmetrize_s.push(input.symmetrize_s);
                let reference = cycles.reference.as_ref().expect("set by the cold cycle");
                let mut run = |label: &'static str, v: &Variant, spans: &mut Spans| {
                    let mut out = spans
                        .time(label, |s| {
                            run::run(w, v, &input.graph, cycles.pseed, reference, s)
                        })
                        .0;
                    failed += u64::from(!out.correct);
                    // Nothing reads the trace rings of a round; free them.
                    out.obs = None;
                    samples.push(label, out);
                };
                run("base", &Variant::base(w), spans);
                for (label, v) in &plan {
                    run(label, v, spans);
                }
                let base = samples.0["base"].last().expect("just pushed");
                setup.push(input.generate_s + input.symmetrize_s + base.build_s);
            })
            .1;
    }
    let attempted = (rounds * (plan.len() + 1)) as u64;

    let m = assemble(
        w,
        &probes,
        &samples,
        &[
            ("sg-graph.generate_s", fastest(&generate_s)),
            ("sg-graph.symmetrize_s", fastest(&symmetrize_s)),
            ("harness.reps", rounds as f64),
            ("harness.setup_iqr_pct", Summary::of(&setup).iqr_pct()),
            ("harness.cold_setup_s", cold.setup_s),
            ("harness.cold_run_s", cold.out.run_s),
        ],
    );
    Report {
        metrics: PER_LAYER
            .iter()
            .map(|spec| {
                let value = *m
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("no value for {}", spec.name));
                (spec.name, value, None)
            })
            .collect(),
        info: Vec::new(),
        attempted,
        failed,
        correct: failed == 0 && cold.out.correct,
        spans: Some(spans.to_json(w.name)),
    }
}

/// Turn probe unit costs and per-variant samples into the per-layer
/// metrics. Shares are CPU-seconds over `run_s` — the capacity of the one
/// vCPU the process is pinned to — so with the idle share they sum to 1 when
/// every CPU-second is attributed.
fn assemble(
    w: &Workload,
    p: &Probes,
    s: &Samples,
    extra: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = extra.iter().copied().collect();
    let base = |f: fn(&RunOut) -> f64| s.median_of("base", f);
    let run_s = s.run_s("base");
    // The process is pinned to one vCPU, however many threads it runs.
    let capacity_ns = run_s * 1e9;
    let vexec = base(|o| o.counts.vertex_executions as f64);
    let local = base(|o| o.counts.local_messages as f64);
    let remote = base(|o| o.counts.remote_messages as f64);
    let combines = base(|o| o.counts.sender_combines as f64);
    let batches = base(|o| o.counts.remote_batches as f64);
    let shipped = remote - combines;
    let delivered = local + shipped;

    m.insert("sg-graph.partition_s", p.partition_s);
    m.insert("sg-graph.csr_mb", p.csr_mib);

    m.insert("sg-algos.compute_ns_per_vertex", p.compute_ns_per_vertex);
    m.insert("sg-algos.compute_ns_per_msg", p.compute_ns_per_msg);
    let compute_share =
        (p.compute_ns_per_vertex * vexec + p.compute_ns_per_msg * (local + remote)) / capacity_ns;
    m.insert("sg-algos.compute_share", compute_share);

    m.insert("sg-engine.supersteps", base(|o| o.supersteps as f64));
    m.insert("sg-engine.vertex_executions", vexec);
    m.insert("sg-engine.exec_per_vertex", vexec / p.num_vertices);
    m.insert("sg-engine.msgs_local", local);
    m.insert("sg-engine.msgs_remote", remote);
    m.insert("sg-engine.remote_batches", batches);
    m.insert("sg-engine.avg_batch_msgs", ratio(shipped, batches));
    m.insert("sg-engine.sender_combines", combines);
    m.insert(
        "sg-engine.staging_flushes",
        base(|o| o.counts.staging_flushes as f64),
    );
    m.insert(
        "sg-engine.halted_skips",
        base(|o| o.counts.halted_skips as f64),
    );
    m.insert("sg-engine.vexec_per_s", vexec / run_s);
    m.insert("sg-engine.msgs_per_s", (local + remote) / run_s);
    m.insert("sg-engine.build_s", s.fastest_of("base", |o| o.build_s));
    m.insert("sg-engine.insert_ns_per_msg", p.insert_ns_per_msg);
    m.insert("sg-engine.drain_ns_per_msg", p.drain_ns_per_msg);
    m.insert("sg-engine.stage_flush_ns_per_msg", p.stage_flush_ns_per_msg);
    // A combiner leaves at most one envelope per vertex to drain.
    let drained = match w.algo {
        Algo::PageRank => delivered.min(vexec),
        Algo::Coloring => delivered,
    };
    let datapath_share = (p.insert_ns_per_msg * delivered
        + p.drain_ns_per_msg * drained
        + p.stage_flush_ns_per_msg * remote)
        / capacity_ns;
    m.insert("sg-engine.datapath_share", datapath_share);
    // The same four partitions on one worker, over the workload's two.
    let one_worker = s.run_s("one-worker");
    m.insert("sg-engine.single_worker_run_s", one_worker);
    m.insert("sg-engine.scaling_x", ratio(one_worker, run_s));
    let nosync = s.run_s("nosync");
    // Like against like: the unsynchronised run records no history, so the
    // audited workload compares its unrecorded variant.
    let synced = if w.audited { s.run_s("plain") } else { run_s };
    m.insert("sg-engine.nosync_run_s", nosync);
    m.insert(
        "sg-engine.serializability_overhead_x",
        ratio(synced, nosync),
    );
    // CPU time has 10 ms ticks; take it from the run it belongs to.
    let idle_share = (1.0 - base(|o| o.cpu_s / o.run_s)).max(0.0);
    m.insert("sg-engine.idle_share", idle_share);

    let forks = base(|o| o.counts.fork_transfers as f64);
    m.insert("sg-sync.fork_transfers", forks);
    m.insert(
        "sg-sync.fork_transfers_remote",
        base(|o| o.counts.fork_transfers_remote as f64),
    );
    m.insert(
        "sg-sync.request_tokens",
        base(|o| o.counts.request_tokens as f64),
    );
    m.insert(
        "sg-sync.global_token_passes",
        base(|o| o.counts.global_token_passes as f64),
    );
    m.insert(
        "sg-sync.local_token_passes",
        base(|o| o.counts.local_token_passes as f64),
    );
    m.insert("sg-sync.forks_per_exec", forks / vexec);
    let full_hist = |name: &str, q: f64| {
        s.median_of("obs-full", |o| {
            o.telemetry
                .as_ref()
                .map_or(0.0, |t| histogram(t, name).quantile(q) as f64)
        })
    };
    m.insert(
        "sg-sync.acquire_wait_p50_ns",
        full_hist("sg_sync_acquire_wait_ns", 0.5),
    );
    m.insert(
        "sg-sync.acquire_wait_p99_ns",
        full_hist("sg_sync_acquire_wait_ns", 0.99),
    );
    m.insert("sg-sync.hold_p50_ns", full_hist("sg_sync_hold_ns", 0.5));
    m.insert(
        "sg-sync.acquire_release_ns_per_unit",
        p.acquire_release_ns_per_unit,
    );
    m.insert("sg-sync.contended_ns_per_unit", p.contended_ns_per_unit);
    m.insert("sg-sync.build_s", p.sync_build_s);
    // Vertex locks and token gates are paid per execution; partition locks
    // once per partition per superstep, which `halted_skips` only lowers.
    let units = match w.technique {
        TechniqueKind::PartitionLock => {
            base(|o| o.supersteps as f64) * f64::from(w.workers * w.partitions_per_worker)
        }
        _ => vexec,
    };
    let sync_share = (p.contended_ns_per_unit * units + p.sync_build_s * 1e9) / capacity_ns;
    m.insert("sg-sync.sync_share", sync_share);

    let installs = base(|o| o.store.map_or(0.0, |st| st.installs as f64));
    let gc_freed = base(|o| o.store.map_or(0.0, |st| st.gc_freed as f64));
    m.insert("sg-store.installs", installs);
    m.insert(
        "sg-store.live_versions",
        base(|o| o.store.map_or(0.0, |st| st.live_versions as f64)),
    );
    m.insert("sg-store.gc_freed", gc_freed);
    m.insert("sg-store.commit_ns_per_txn", p.commit_ns_per_txn);
    m.insert("sg-store.gc_ns_per_version", p.gc_ns_per_version);
    let commit_share =
        (p.commit_ns_per_txn * installs + p.gc_ns_per_version * gc_freed) / capacity_ns;
    m.insert("sg-store.commit_share", commit_share);
    m.insert("sg-store.store_mb", p.store_mib);
    m.insert("sg-store.read_latest_ns", p.read_latest_ns);
    m.insert("sg-store.read_at_ns", p.read_at_ns);
    m.insert("sg-store.snapshot_open_ns", p.snapshot_open_ns);
    m.insert("sg-store.khop1_ns_per_vertex", p.khop1_ns_per_vertex);

    let txns = base(|o| o.txns as f64);
    let verify_s = s.fastest_of("base", |o| o.verify_s);
    m.insert("sg-serial.txns", txns);
    m.insert("sg-serial.record_ns_per_txn", p.record_ns_per_txn);
    m.insert("sg-serial.audit_drain_ns_per_txn", p.audit_drain_ns_per_txn);
    m.insert("sg-serial.check_ns_per_txn", p.check_ns_per_txn);
    m.insert("sg-serial.verify_s", verify_s);
    // Engine time alone: the post-hoc check is `verify_s`, reported apart.
    let engine_s = |label: &str| s.fastest_of(label, |o| o.run_s - o.verify_s);
    let (record_x, audit_x) = if w.audited {
        (
            ratio(engine_s("history-only"), engine_s("plain")),
            ratio(engine_s("base"), engine_s("history-only")),
        )
    } else {
        (0.0, 0.0)
    };
    m.insert("sg-serial.record_overhead_x", record_x);
    m.insert("sg-serial.audit_overhead_x", audit_x);
    m.insert("sg-serial.history_mb", p.history_mib);
    let record_share = p.record_ns_per_txn * txns / capacity_ns;
    let audit_share = p.audit_drain_ns_per_txn * txns / capacity_ns;
    let verify_share = verify_s / run_s;
    m.insert("sg-serial.record_share", record_share);
    m.insert("sg-serial.audit_share", audit_share);
    m.insert("sg-serial.verify_share", verify_share);

    let net = w.host == Host::Net;
    let counter = |name: &'static str| {
        move |o: &RunOut| {
            o.telemetry
                .as_ref()
                .map_or(0.0, |t| t.counter_total(name) as f64)
        }
    };
    let net_metric = |f: &dyn Fn(&RunOut) -> f64| if net { s.median_of("base", f) } else { 0.0 };
    let bytes = net_metric(&counter("sg_link_bytes_out_total"));
    m.insert(
        "sg-net.bringup_s",
        if net {
            s.fastest_of("base", |o| o.run_s - o.net_makespan_s)
        } else {
            0.0
        },
    );
    m.insert(
        "sg-net.frames",
        net_metric(&counter("sg_link_frames_out_total")),
    );
    m.insert("sg-net.bytes", bytes);
    m.insert("sg-net.bytes_per_msg", ratio(bytes, shipped));
    m.insert(
        "sg-net.avg_batch_msgs",
        if net { ratio(shipped, batches) } else { 0.0 },
    );
    m.insert(
        "sg-net.retransmits",
        net_metric(&counter("sg_link_retransmits_total")),
    );
    m.insert(
        "sg-net.redials",
        net_metric(&counter("sg_link_redials_total")),
    );
    m.insert(
        "sg-net.dup_reacks",
        net_metric(&counter("sg_link_dup_reacks_total")),
    );
    m.insert(
        "sg-net.rtt_p50_us",
        net_metric(&|o| {
            o.telemetry.as_ref().map_or(0.0, |t| {
                histogram(t, "sg_link_rtt_ns").quantile(0.5) as f64 / 1e3
            })
        }),
    );
    m.insert("sg-net.encode_ns_per_msg", p.encode_ns_per_msg);
    m.insert("sg-net.decode_ns_per_msg", p.decode_ns_per_msg);
    let wire_share = if net {
        (p.encode_ns_per_msg + p.decode_ns_per_msg) * shipped / capacity_ns
    } else {
        0.0
    };
    m.insert("sg-net.wire_share", wire_share);
    // Kernel time of the run: loopback TCP sends and receives, and the
    // futex calls behind every blocked RPC.
    let syscall_share = net_metric(&|o| o.sys_s / o.run_s);
    m.insert("sg-net.syscall_share", syscall_share);
    m.insert(
        "sg-net.cluster_overhead_x",
        if net {
            ratio(run_s, s.run_s("engine"))
        } else {
            0.0
        },
    );

    let trace_label = if net { "obs-full" } else { "obs-trace" };
    m.insert(
        "sg-metrics.telemetry_overhead_pct",
        if net {
            0.0
        } else {
            s.overhead_pct("obs-telemetry")
        },
    );
    m.insert("sg-metrics.trace_overhead_pct", s.overhead_pct(trace_label));
    for (c, share) in Category::ALL.into_iter().zip(p.critical_path) {
        m.insert(cp_name(c), share);
    }
    m.insert("sg-sim.events_per_s", p.sim_events_per_s);
    m.insert("sg-sim.replay_identical", p.sim_replay_identical);

    let base_runs = s.values("base", |o| o.run_s);
    m.insert("harness.run_iqr_pct", Summary::of(&base_runs).iqr_pct());
    m.insert("harness.trace_overhead_pct", s.overhead_pct("obs-full"));
    let attributed = compute_share
        + datapath_share
        + sync_share
        + commit_share
        + record_share
        + audit_share
        + verify_share
        + wire_share
        + syscall_share
        + idle_share;
    m.insert("harness.unattributed_share", 1.0 - attributed);
    m
}

fn cp_name(c: Category) -> &'static str {
    match c {
        Category::Compute => "sg-metrics.cp_compute_share",
        Category::Comm => "sg-metrics.cp_comm_share",
        Category::TokenWait => "sg-metrics.cp_token_wait_share",
        Category::ForkWait => "sg-metrics.cp_fork_wait_share",
        Category::Barrier => "sg-metrics.cp_barrier_share",
        Category::Idle => "sg-metrics.cp_idle_share",
    }
}
