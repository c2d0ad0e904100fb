//! `sg-cluster` — run the paper's synchronization techniques over real
//! sockets and processes.
//!
//! ```text
//! sg-cluster run [--workers N] [--ppw N] [--technique LABEL]
//!                [--workload coloring|wcc|sssp] [--source V]
//!                [--graph ring:N|grid:R:C|paper-c4|complete:N|er:N:M:SEED]
//!                [--threads] [--bind ADDR] [--max-supersteps N]
//!                [--buffer-cap N] [--fault RANK:SPEC]... [--no-history]
//!                [--trace] [--telemetry-addr ADDR] [--telemetry-interval-ms N]
//!                [--audit-interval-ms N] [--audit-log PATH]
//! sg-cluster bench [--workers N] [--threads] [--telemetry-addr ADDR]
//! sg-cluster top --addr ADDR [--once] [--interval-ms N] [--raw] [--json]
//! sg-cluster audit --addr ADDR [--once] [--interval-ms N]
//! sg-cluster worker --coord ADDR --rank R        (internal)
//! ```
//!
//! `run` launches one coordinator (in this process) plus `--workers` real
//! OS processes — each a re-exec of this binary in the hidden `worker`
//! mode — over loopback TCP, executes the workload under the chosen
//! technique, and reports convergence, conflict counts, the merged-history
//! 1SR verdict, and counter totals. `--threads` swaps processes for
//! threads (same wire protocol, same sockets; what CI smoke uses for
//! speed). `--fault 1:drop=3,kill=12` injects deterministic data-plane
//! faults at worker 1's 3rd/12th frames.
//!
//! `bench` runs greedy coloring across all four
//! techniques (plus the unsynchronized baseline), emitting
//! `results/BENCH_net.json` and a merged Chrome trace
//! `results/TRACE_net.json` consumable by `sg-trace analyze`. Each cell
//! embeds the run's final telemetry snapshot, so the artifact and the
//! live scrape endpoint report the same totals.
//!
//! `--telemetry-addr 127.0.0.1:9464` serves the live telemetry plane
//! during a run (Prometheus text at `/metrics`, JSON at `/json`), and
//! `top` is the matching dashboard: it polls `/json` and renders a
//! per-worker / per-link view (superstep, busy/blocked %, lock waits,
//! retransmits, RTT p50/p99) until interrupted (`--once` for one frame,
//! `--raw` to dump the Prometheus text, `--json` to dump the machine-
//! readable scrape instead).
//!
//! `--audit-interval-ms 25` turns on the live serializability audit plane:
//! workers stream their transactions to the coordinator as they commit,
//! the coordinator maintains watermark-merged Theorem 1 verdicts during
//! the run, and (with `--telemetry-addr`) serves them at `GET /audit`.
//! `--audit-log violations.jsonl` appends one JSONL sentinel per violation
//! the moment it is proven. `audit` is the matching live view: it polls
//! `/audit` and renders the verdict, conflict heatmap, and audit lag until
//! the endpoint goes away.

use sg_bench::cli::{flag_or, flag_value, has_flag, parse_flag, split_args, Flag};
use sg_bench::{emit_obs, BenchLog};
use sg_core::sg_algos::validate;
use sg_core::sg_graph::{gen, Graph, GraphSpec, VertexId};
use sg_core::sg_metrics::Json;
use sg_core::sg_net::{self, http_get, parse_fault_plan, FaultPlan, SpawnMode, Workload};
use sg_core::{NetworkOptions, Runner, Technique};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

fn usage_text() -> String {
    let techniques: Vec<&str> = Technique::ALL.iter().map(|t| t.label()).collect();
    format!(
        "sg-cluster — multi-process cluster runs of the synchronization techniques

USAGE:
    sg-cluster run [--workers N] [--ppw N] [--technique LABEL] [--workload W]
                   [--source V] [--graph SPEC] [--threads] [--bind ADDR]
                   [--max-supersteps N] [--buffer-cap N] [--fault RANK:SPEC]...
                   [--no-history] [--trace] [--telemetry-addr ADDR]
                   [--telemetry-interval-ms N] [--audit-interval-ms N]
                   [--audit-log PATH]
    sg-cluster bench [--workers N] [--threads] [--telemetry-addr ADDR]
    sg-cluster top --addr ADDR [--once] [--interval-ms N] [--raw] [--json]
    sg-cluster audit --addr ADDR [--once] [--interval-ms N]

    techniques: {}
    workloads:  coloring (default) | wcc | sssp (--source picks the root)
                | mis | pagerank (--threshold picks the residual cutoff)
    graphs:     ring:N | grid:R:C (or grid:RxC) | paper-c4 | complete:N
                | er:N:M:SEED (default grid:8:8)
    faults:     RANK:drop=F,dup=F,delay=F:MS,kill=F — data-plane frame
                indices of worker RANK
    telemetry:  --telemetry-addr serves live metrics over HTTP during the
                run (GET /metrics = Prometheus text, GET /json = JSON);
                workers ship snapshots every --telemetry-interval-ms
                (default 500 when serving). `top` polls such an endpoint
                and renders a live per-worker/per-link dashboard.
    audit:      --audit-interval-ms streams transactions to the
                coordinator during the run for live Theorem 1 verdicts
                (served at GET /audit when --telemetry-addr is up;
                --audit-log appends JSONL violation sentinels). `audit`
                polls such an endpoint and renders the live verdict.",
        techniques.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => worker(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("audit") => audit(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{}", usage_text());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "sg-cluster: {}\n\n{}",
                other.map_or("missing subcommand".into(), |o| format!(
                    "unknown subcommand {o:?}"
                )),
                usage_text()
            );
            ExitCode::FAILURE
        }
    }
}

/// Hidden worker mode: what `run`'s process spawner re-execs.
fn worker(args: &[String]) -> ExitCode {
    let parsed = split_args(args, &["coord", "rank"])
        .ok()
        .and_then(|(_, flags)| {
            let coord = flag_value(&flags, "coord")?.to_owned();
            Some((coord, flag_value(&flags, "rank")?.parse::<u32>().ok()?))
        });
    let Some((coord, rank)) = parsed else {
        eprintln!("sg-cluster worker: needs --coord <addr> --rank <r>");
        return ExitCode::FAILURE;
    };
    match sg_net::worker_main(&coord, rank) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sg-cluster worker {rank}: {e}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    workers: u32,
    ppw: Option<u32>,
    technique: Technique,
    workload: Workload,
    graph_spec: String,
    threads: bool,
    bind: String,
    max_supersteps: u64,
    buffer_cap: usize,
    faults: Vec<(u32, FaultPlan)>,
    history: bool,
    trace: bool,
    telemetry_addr: Option<String>,
    telemetry_interval_ms: Option<u64>,
    audit_interval_ms: u64,
    audit_log: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            workers: 4,
            ppw: None,
            technique: Technique::PartitionLock,
            workload: Workload::Coloring,
            graph_spec: "grid:8:8".into(),
            threads: false,
            bind: "127.0.0.1:0".into(),
            max_supersteps: 200,
            buffer_cap: 64,
            faults: Vec::new(),
            history: true,
            trace: false,
            telemetry_addr: None,
            telemetry_interval_ms: None,
            audit_interval_ms: 0,
            audit_log: None,
        }
    }
}

/// Split `args` for a subcommand that takes the flags `value_flags` (each
/// with a value) and `switches`, and nothing else.
fn flags_only(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Vec<Flag>, String> {
    let (positional, flags) = split_args(args, value_flags)?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let known = |f: &str| value_flags.contains(&f) || switches.contains(&f);
    match flags.iter().find(|(f, _)| !known(f)) {
        Some((f, _)) => Err(format!("unknown flag --{f}")),
        None => Ok(flags),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut source = 0u32;
    let mut want_sssp = false;
    let mut threshold = 0.01f64;
    let mut want_pagerank = false;
    let flags = flags_only(
        args,
        &[
            "workers",
            "ppw",
            "technique",
            "workload",
            "source",
            "threshold",
            "graph",
            "bind",
            "max-supersteps",
            "buffer-cap",
            "fault",
            "telemetry-addr",
            "telemetry-interval-ms",
            "audit-interval-ms",
            "audit-log",
        ],
        &["threads", "no-history", "trace"],
    )?;
    for (flag, value) in &flags {
        let v = value.as_deref();
        let text = || v.unwrap_or_default().to_owned();
        match flag.as_str() {
            "workers" => out.workers = parse_flag(flag, v)?,
            "ppw" => out.ppw = Some(parse_flag(flag, v)?),
            "technique" => {
                let label = text();
                out.technique = Technique::from_label(&label)
                    .ok_or_else(|| format!("unknown technique {label:?}"))?;
            }
            "workload" => match v.unwrap_or_default() {
                "coloring" => out.workload = Workload::Coloring,
                "wcc" => out.workload = Workload::Wcc,
                "sssp" => want_sssp = true,
                "mis" => out.workload = Workload::Mis,
                "pagerank" => want_pagerank = true,
                other => return Err(format!("unknown workload {other:?}")),
            },
            "source" => source = parse_flag(flag, v)?,
            "threshold" => threshold = parse_flag(flag, v)?,
            "graph" => out.graph_spec = text(),
            "threads" => out.threads = true,
            "bind" => out.bind = text(),
            "max-supersteps" => out.max_supersteps = parse_flag(flag, v)?,
            "buffer-cap" => out.buffer_cap = parse_flag(flag, v)?,
            "fault" => {
                let spec = text();
                let (rank, plan) = spec
                    .split_once(':')
                    .ok_or_else(|| "--fault wants RANK:SPEC".to_string())?;
                let rank = rank
                    .parse::<u32>()
                    .map_err(|_| format!("fault rank {rank:?} is not an integer"))?;
                out.faults.push((rank, parse_fault_plan(plan)?));
            }
            "no-history" => out.history = false,
            "trace" => out.trace = true,
            "telemetry-addr" => out.telemetry_addr = Some(text()),
            "telemetry-interval-ms" => out.telemetry_interval_ms = Some(parse_flag(flag, v)?),
            "audit-interval-ms" => out.audit_interval_ms = parse_flag(flag, v)?,
            "audit-log" => out.audit_log = Some(text()),
            _ => return Err(format!("unknown run flag --{flag}")),
        }
    }
    if want_sssp {
        out.workload = Workload::Sssp(source);
    }
    if want_pagerank {
        out.workload = Workload::Pagerank(threshold);
    }
    Ok(out)
}

fn spawn_mode(threads: bool) -> Result<SpawnMode, String> {
    if threads {
        return Ok(SpawnMode::Threads);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(SpawnMode::Processes {
        exe,
        args: vec!["worker".into()],
    })
}

fn run(args: &[String]) -> ExitCode {
    let parsed = parse_run_args(args).and_then(|a| {
        let graph = GraphSpec::parse(&a.graph_spec)?.build();
        Ok((a, graph))
    });
    let (parsed, graph) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sg-cluster run: {e}\n\n{}", usage_text());
            return ExitCode::FAILURE;
        }
    };
    match execute(&parsed, graph) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("sg-cluster run: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one cluster configuration; `Ok(false)` means the run finished but
/// failed validation (conflicts, non-convergence, or a 1SR violation).
fn execute(a: &RunArgs, graph: Graph) -> Result<bool, String> {
    let spawn = spawn_mode(a.threads)?;
    let mut runner = Runner::new(graph.clone())
        .workers(a.workers)
        .technique(a.technique)
        .max_supersteps(a.max_supersteps)
        .buffer_cap(a.buffer_cap)
        .record_history(a.history)
        .trace(a.trace)
        .networked(NetworkOptions {
            bind_addr: a.bind.clone(),
            spawn,
            faults: a.faults.clone(),
            telemetry_addr: a.telemetry_addr.clone(),
            // Periodic snapshot frames only make sense with a listener up;
            // the final snapshot ships regardless.
            telemetry_interval_ms: a
                .telemetry_interval_ms
                .unwrap_or(if a.telemetry_addr.is_some() { 500 } else { 0 }),
            audit_interval_ms: a.audit_interval_ms,
            audit_log: a.audit_log.clone(),
        });
    if let Some(ppw) = a.ppw {
        runner = runner.partitions_per_worker(ppw);
    }
    let mode = if a.threads { "threads" } else { "processes" };
    println!(
        "running {} / {} on {} ({} vertices) with {} workers as {mode}",
        a.technique.label(),
        a.workload.name(),
        a.graph_spec,
        graph.num_vertices(),
        a.workers,
    );

    let ok;
    let report = |out: &sg_core::sg_engine::Outcome<u32>| -> (bool, String) {
        let mut healthy = out.converged;
        let mut extra = String::new();
        if a.workload == Workload::Coloring {
            let conflicts = validate::coloring_conflicts(&graph, &out.values);
            extra = format!(", {conflicts} coloring conflicts");
            healthy &= conflicts == 0 || a.technique == Technique::None;
        }
        if let Some(h) = &out.history {
            let serializable = h.is_one_copy_serializable(&graph);
            extra.push_str(&format!(", 1SR={serializable}"));
            healthy &= serializable || a.technique == Technique::None;
            if let Some(live) = &out.audit {
                // The streaming plane's final verdict must agree with the
                // post-hoc check over the merged history — exact agreement
                // is part of the audit plane's contract.
                extra.push_str(&format!(", live-1SR={}", live.one_copy_serializable));
                healthy &= live.one_copy_serializable == serializable;
            }
        }
        (healthy, extra)
    };
    match a.workload {
        Workload::Coloring | Workload::Wcc => {
            let out = if a.workload == Workload::Coloring {
                runner.run_coloring()
            } else {
                runner.run_wcc()
            }
            .map_err(|e| e.to_string())?;
            let (healthy, extra) = report(&out);
            ok = healthy;
            println!(
                "converged={} supersteps={} wall={:?}{extra}",
                out.converged, out.supersteps, out.wall_time
            );
            print_counters(&out.metrics);
        }
        Workload::Sssp(source) => {
            let out = runner
                .run_sssp(VertexId::new(source))
                .map_err(|e| e.to_string())?;
            ok = out.converged;
            println!(
                "converged={} supersteps={} wall={:?} reached={}",
                out.converged,
                out.supersteps,
                out.wall_time,
                out.values.iter().filter(|&&d| d != u64::MAX).count()
            );
            print_counters(&out.metrics);
        }
        Workload::Mis => {
            let out = runner.run_mis().map_err(|e| e.to_string())?;
            let members = sg_core::sg_algos::mis::membership(&out.values);
            let maximal = validate::is_maximal_independent_set(&graph, &members);
            ok = out.converged && (maximal || a.technique == Technique::None);
            println!(
                "converged={} supersteps={} wall={:?} members={} maximal={maximal}",
                out.converged,
                out.supersteps,
                out.wall_time,
                members.iter().filter(|&&m| m).count()
            );
            print_counters(&out.metrics);
        }
        Workload::Pagerank(threshold) => {
            let out = runner.run_pagerank(threshold).map_err(|e| e.to_string())?;
            ok = out.converged;
            println!(
                "converged={} supersteps={} wall={:?} mass={:.4}",
                out.converged,
                out.supersteps,
                out.wall_time,
                out.values.iter().sum::<f64>()
            );
            print_counters(&out.metrics);
        }
    }
    Ok(ok)
}

fn print_counters(m: &sg_core::sg_metrics::MetricsSnapshot) {
    use sg_core::sg_metrics::Counter;
    for c in [
        Counter::VertexExecutions,
        Counter::LocalMessages,
        Counter::RemoteMessages,
        Counter::RemoteBatches,
        Counter::GlobalTokenPasses,
        Counter::LocalTokenPasses,
        Counter::ForkTransfers,
        Counter::HaltedSkips,
    ] {
        let v = m.get(c);
        if v > 0 {
            println!("  {c:?}: {v}");
        }
    }
}

/// `sg-cluster bench`: coloring under every technique over loopback,
/// `results/BENCH_net.json` + a merged Chrome trace from the last run.
fn bench(args: &[String]) -> ExitCode {
    let parsed = flags_only(args, &["workers", "telemetry-addr"], &["threads"]).and_then(|flags| {
        let telemetry_addr = flag_value(&flags, "telemetry-addr").map(str::to_owned);
        Ok((
            flag_or(&flags, "workers", 2u32)?,
            has_flag(&flags, "threads"),
            telemetry_addr,
        ))
    });
    let (workers, threads, telemetry_addr) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sg-cluster bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spawn = match spawn_mode(threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sg-cluster bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let graph = gen::grid(8, 8);
    let mut log = BenchLog::new("net", "coloring/grid-8x8");
    let mut last_traced = None;
    for technique in [
        Technique::None,
        Technique::SingleToken,
        Technique::DualToken,
        Technique::VertexLock,
        Technique::PartitionLock,
    ] {
        let out = Runner::new(graph.clone())
            .workers(workers)
            .technique(technique)
            .record_history(true)
            .trace(true)
            .networked(NetworkOptions {
                bind_addr: "127.0.0.1:0".into(),
                spawn: spawn.clone(),
                faults: Vec::new(),
                telemetry_addr: telemetry_addr.clone(),
                telemetry_interval_ms: if telemetry_addr.is_some() { 500 } else { 0 },
                audit_interval_ms: 0,
                audit_log: None,
            })
            .run_coloring();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sg-cluster bench: {} failed: {e}", technique.label());
                return ExitCode::from(2);
            }
        };
        let conflicts = validate::coloring_conflicts(&graph, &out.values);
        let serializable = out
            .history
            .as_ref()
            .is_some_and(|h| h.is_one_copy_serializable(&graph));
        println!(
            "{:>16}: converged={} supersteps={} conflicts={conflicts} 1SR={serializable} wall={:?}",
            technique.label(),
            out.converged,
            out.supersteps,
            out.wall_time
        );
        if technique != Technique::None && (!out.converged || conflicts > 0 || !serializable) {
            eprintln!(
                "sg-cluster bench: {} produced an invalid run",
                technique.label()
            );
            return ExitCode::from(3);
        }
        log.outcome_cell(technique.label(), technique.label(), &out);
        if out.obs.is_some() {
            last_traced = Some((technique.label(), out));
        }
    }
    if let Some((label, out)) = &last_traced {
        if let Some(obs) = &out.obs {
            if let Err(e) = emit_obs("net", None, obs, label, "coloring/grid-8x8") {
                eprintln!("sg-cluster bench: writing trace: {e}");
                return ExitCode::from(2);
            }
        }
    }
    match log.write() {
        Ok(path) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sg-cluster bench: writing BENCH_net.json: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// sg-cluster top — the live dashboard over a telemetry scrape endpoint
// ---------------------------------------------------------------------------

struct TopArgs {
    addr: String,
    once: bool,
    interval_ms: u64,
    raw: bool,
    json: bool,
}

fn parse_top_args(args: &[String]) -> Result<TopArgs, String> {
    let flags = flags_only(args, &["addr", "interval-ms"], &["once", "raw", "json"])?;
    Ok(TopArgs {
        addr: flag_value(&flags, "addr")
            .ok_or_else(|| "top needs --addr <host:port>".to_string())?
            .to_owned(),
        once: has_flag(&flags, "once"),
        interval_ms: flag_or(&flags, "interval-ms", 1000u64)?.max(100),
        raw: has_flag(&flags, "raw"),
        json: has_flag(&flags, "json"),
    })
}

/// One flattened metric row from `GET /json`: counters and gauges carry
/// `value`; histograms put their observation count in `value` and fill
/// `sum`/`p50`/`p99`.
struct ScrapeRow {
    name: String,
    labels: Vec<(String, String)>,
    value: u64,
    p50: u64,
    p99: u64,
}

impl ScrapeRow {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_scrape(body: &str) -> Result<Vec<ScrapeRow>, String> {
    let doc = Json::parse(body).map_err(|e| e.to_string())?;
    let arr = doc
        .as_arr()
        .ok_or_else(|| "telemetry JSON is not an array".to_string())?;
    let mut rows = Vec::with_capacity(arr.len());
    for item in arr {
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "metric row without a name".to_string())?
            .to_string();
        let mut labels = Vec::new();
        if let Some(Json::Obj(members)) = item.get("labels") {
            for (k, v) in members {
                labels.push((k.clone(), v.as_str().unwrap_or_default().to_string()));
            }
        }
        let num = |key: &str| item.get(key).and_then(Json::as_u64).unwrap_or(0);
        let value = if item.get("value").is_some() {
            num("value")
        } else {
            num("count")
        };
        rows.push(ScrapeRow {
            name,
            labels,
            value,
            p50: num("p50"),
            p99: num("p99"),
        });
    }
    Ok(rows)
}

fn lookup<'a>(rows: &'a [ScrapeRow], name: &str, worker: &str) -> Option<&'a ScrapeRow> {
    rows.iter()
        .find(|r| r.name == name && r.label("worker") == Some(worker))
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Render one dashboard frame. `prev` holds the last frame's
/// (uptime, compute, lock-wait) nanosecond totals per worker so busy% /
/// blocked% reflect the *interval* since the previous poll, not the
/// whole run.
fn render_dashboard(rows: &[ScrapeRow], prev: &mut BTreeMap<String, (u64, u64, u64)>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    let mut workers: Vec<String> = rows
        .iter()
        .filter(|r| r.name == "sg_worker_superstep")
        .filter_map(|r| r.label("worker").map(str::to_string))
        .collect();
    workers.sort_by_key(|w| w.parse::<u64>().unwrap_or(u64::MAX));
    workers.dedup();

    let gauge = |name: &str, worker: &str| lookup(rows, name, worker).map_or(0, |r| r.value);
    let step = workers
        .iter()
        .map(|w| gauge("sg_worker_superstep", w))
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "sg-top — cluster superstep {step}, {} worker(s)",
        workers.len()
    );
    let _ = writeln!(
        out,
        "{:<7} {:>6} {:>8} {:>9} {:>7} {:>9} {:>7} {:>9}",
        "WORKER", "STEP", "ACTIVE", "PENDING", "STAGED", "REJECTED", "BUSY%", "BLOCKED%"
    );
    for w in &workers {
        let uptime = gauge("sg_worker_uptime_ns", w);
        let compute = gauge("sg_worker_compute_ns_total", w);
        let lock_wait = gauge("sg_worker_lock_wait_ns_total", w);
        let (pu, pc, pl) = prev
            .insert(w.clone(), (uptime, compute, lock_wait))
            .unwrap_or((0, 0, 0));
        let du = uptime.saturating_sub(pu);
        let pct = |d: u64| {
            if du == 0 {
                0.0
            } else {
                100.0 * d as f64 / du as f64
            }
        };
        let _ = writeln!(
            out,
            "{:<7} {:>6} {:>8} {:>9} {:>7} {:>9} {:>7.1} {:>9.1}",
            w,
            gauge("sg_worker_superstep", w),
            gauge("sg_worker_active_vertices", w),
            gauge("sg_worker_pending_messages", w),
            gauge("sg_worker_staged_messages", w),
            gauge("sg_worker_rejected_messages_total", w),
            pct(compute.saturating_sub(pc)),
            pct(lock_wait.saturating_sub(pl)),
        );
    }

    let mut sync_rows: Vec<&ScrapeRow> = rows
        .iter()
        .filter(|r| r.name.starts_with("sg_sync_") && r.label("worker") == Some("coord"))
        .collect();
    sync_rows.sort_by(|a, b| (a.label("technique"), &a.name).cmp(&(b.label("technique"), &b.name)));
    if !sync_rows.is_empty() {
        let _ = writeln!(out, "\nSYNC (coordinator-hosted technique)");
        for r in sync_rows {
            let _ = writeln!(
                out,
                "  {:<26} technique={:<16} n={:<8} p50={:<9} p99={}",
                r.name,
                r.label("technique").unwrap_or("?"),
                r.value,
                fmt_ns(r.p50),
                fmt_ns(r.p99),
            );
        }
    }

    let mut links: Vec<(String, String)> = rows
        .iter()
        .filter(|r| r.name == "sg_link_frames_out_total")
        .filter_map(|r| Some((r.label("worker")?.to_string(), r.label("peer")?.to_string())))
        .collect();
    links.sort();
    if !links.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<9} {:>10} {:>10} {:>6} {:>8} {:>7} {:>7}  RTT p50/p99",
            "LINK", "FRAMES>", "FRAMES<", "RETX", "DUP-ACK", "REDIAL", "QDEPTH"
        );
        for (w, p) in links {
            let m = |name: &str| {
                rows.iter().find(|r| {
                    r.name == name
                        && r.label("worker") == Some(w.as_str())
                        && r.label("peer") == Some(p.as_str())
                })
            };
            let v = |name: &str| m(name).map_or(0, |r| r.value);
            let rtt = m("sg_link_rtt_ns");
            let _ = writeln!(
                out,
                "{:<9} {:>10} {:>10} {:>6} {:>8} {:>7} {:>7}  {}/{}",
                format!("{w}->{p}"),
                v("sg_link_frames_out_total"),
                v("sg_link_frames_in_total"),
                v("sg_link_retransmits_total"),
                v("sg_link_dup_reacks_total"),
                v("sg_link_redials_total"),
                v("sg_link_send_queue_depth"),
                fmt_ns(rtt.map_or(0, |r| r.p50)),
                fmt_ns(rtt.map_or(0, |r| r.p99)),
            );
        }
    }
    out
}

/// One scrape with a short retry ladder: a refused connection mid-redial
/// (the listener's accept loop momentarily behind, a socket in TIME_WAIT)
/// is retried before being reported, so one dropped accept does not end a
/// live watch.
fn scrape_with_retry(addr: &str, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut last = None;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(150));
        }
        match http_get(addr, path, timeout) {
            Ok(body) => return Ok(body),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

fn top(args: &[String]) -> ExitCode {
    let a = match parse_top_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sg-cluster top: {e}\n\n{}", usage_text());
            return ExitCode::FAILURE;
        }
    };
    let timeout = Duration::from_secs(2);
    let mut prev = BTreeMap::new();
    let mut had_frame = false;
    loop {
        let path = if a.raw { "/metrics" } else { "/json" };
        let passthrough = a.raw || a.json;
        let body = match scrape_with_retry(&a.addr, path, timeout) {
            Ok(b) => b,
            Err(e) if had_frame && !a.once => {
                // The endpoint stayed unreachable through the retry
                // ladder — usually the run finished and took it along.
                // Reset the alternate-screen clutter and say so, so the
                // watch never ends on a blank or stale frame.
                print!("\x1b[2J\x1b[H");
                println!(
                    "sg-top: endpoint {} unreachable after 3 attempts ({e}); exiting",
                    a.addr
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("sg-cluster top: scrape http://{}{path}: {e}", a.addr);
                return ExitCode::from(2);
            }
        };
        had_frame = true;
        if passthrough {
            print!("{body}");
        } else {
            let rows = match parse_scrape(&body) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("sg-cluster top: bad telemetry JSON: {e}");
                    return ExitCode::from(2);
                }
            };
            let frame = render_dashboard(&rows, &mut prev);
            if !a.once {
                // Clear + home, like top(1).
                print!("\x1b[2J\x1b[H");
            }
            println!("{frame}");
        }
        if a.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(a.interval_ms));
    }
}

// ---------------------------------------------------------------------------
// sg-cluster audit — the live serializability view over GET /audit
// ---------------------------------------------------------------------------

/// Render one frame of the live audit view from the `/audit` JSON document.
fn render_audit(doc: &Json) -> String {
    use std::fmt::Write as _;
    let b = |key: &str| doc.get(key).and_then(Json::as_bool).unwrap_or(false);
    let n = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut out = String::new();
    let verdict = if b("serializable") {
        "SERIALIZABLE"
    } else {
        "VIOLATED"
    };
    let _ = writeln!(
        out,
        "sg-audit — live Theorem 1 verdict: {verdict} (SG acyclic: {})",
        b("sg_acyclic"),
    );
    let _ = writeln!(
        out,
        "  checked {} txns ({} buffered), frontier {}, audit lag {}ms",
        n("txns_checked"),
        n("pending_txns"),
        n("frontier"),
        n("audit_lag_ms"),
    );
    let _ = writeln!(
        out,
        "  C1 violations: {}   C2 violations: {}   conflicts total: {} ({:.1}/s)",
        n("c1_violations"),
        n("c2_violations"),
        n("conflicts_total"),
        doc.get("conflict_rate_per_s")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    if let Some(first) = doc.get("first_violation_at_txn").and_then(Json::as_u64) {
        let _ = writeln!(
            out,
            "  first violation proven after {first} applied txns; {} sentinel(s) written",
            n("sentinels"),
        );
    }
    if let Some(hot) = doc.get("hot_vertices").and_then(Json::as_arr) {
        if !hot.is_empty() {
            let _ = writeln!(out, "\n  {:<10} {:>10}", "VERTEX", "CONFLICTS");
            for row in hot {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>10}",
                    row.get("vertex").and_then(Json::as_u64).unwrap_or(0),
                    row.get("conflicts").and_then(Json::as_u64).unwrap_or(0),
                );
            }
        }
    }
    if let Some(parts) = doc.get("partition_conflicts").and_then(Json::as_arr) {
        if !parts.is_empty() {
            let _ = writeln!(out, "\n  {:<10} {:>10}", "PARTITION", "CONFLICTS");
            for row in parts {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>10}",
                    row.get("partition").and_then(Json::as_u64).unwrap_or(0),
                    row.get("conflicts").and_then(Json::as_u64).unwrap_or(0),
                );
            }
        }
    }
    out
}

fn audit(args: &[String]) -> ExitCode {
    let a = match parse_top_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sg-cluster audit: {e}\n\n{}", usage_text());
            return ExitCode::FAILURE;
        }
    };
    let timeout = Duration::from_secs(2);
    let mut had_frame = false;
    loop {
        let body = match scrape_with_retry(&a.addr, "/audit", timeout) {
            Ok(b) => b,
            Err(e) if had_frame && !a.once => {
                print!("\x1b[2J\x1b[H");
                println!(
                    "sg-audit: endpoint {} unreachable after 3 attempts ({e}); exiting",
                    a.addr
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("sg-cluster audit: scrape http://{}/audit: {e}", a.addr);
                return ExitCode::from(2);
            }
        };
        had_frame = true;
        if a.json || a.raw {
            print!("{body}");
        } else {
            let doc = match Json::parse(&body) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("sg-cluster audit: bad audit JSON: {e}");
                    return ExitCode::from(2);
                }
            };
            let frame = render_audit(&doc);
            if !a.once {
                print!("\x1b[2J\x1b[H");
            }
            println!("{frame}");
        }
        if a.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(a.interval_ms));
    }
}
