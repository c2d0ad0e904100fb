//! `sg-bench serve` — wall-clock benchmark of the live serving layer.
//!
//! Measures what the MVCC store buys over "wait for the run to finish":
//! point-lookup throughput from concurrent reader threads while a
//! serializable computation writes through the same [`VertexStore`], for
//! each synchronization technique, against the idle-store baseline.
//! A dedicated thread also samples snapshot-open latency under writer
//! load — opening a consistent whole-graph view is a wait-free frontier
//! read plus one registry push, and the numbers should show it.
//!
//! For every technique the lane reports:
//!
//! * `serve/<technique>/load` — reads/sec sustained by `--readers`
//!   threads for the full duration of the run (writer load on), plus the
//!   run's wall time and superstep count.
//! * `serve/<technique>/idle` — reads/sec by the same threads against
//!   the store after the run halts (writer load off); the ratio is the
//!   price of reading live.
//! * `serve/<technique>/snap` — snapshot opens/sec and mean open latency
//!   (ns) sampled while the writer runs.
//!
//! Emits `results/BENCH_serve.json` (schema_version 2) and re-parses it
//! before exiting; a malformed artifact is exit code 2. `--verts`,
//! `--rounds`, `--readers`, and `--idle-ms` shrink or grow the workload
//! (CI smoke uses tiny sizes).

use sg_bench::cli::{flag_or, Flag};
use sg_bench::BenchLog;
use sg_core::sg_engine::{Context, Engine, EngineConfig, Model, TechniqueKind, VertexProgram};
use sg_core::sg_graph::{gen, Graph, VertexId};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Writer workload: every superstep each vertex folds its inbox into its
/// value and re-floods its neighbors, so every superstep commits one new
/// version per vertex — a steady writer for the readers to race.
struct Churn {
    rounds: u64,
}

impl VertexProgram for Churn {
    type Value = u64;
    type Message = u64;

    fn init(&self, v: VertexId, _g: &Graph) -> u64 {
        v.raw() as u64
    }

    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
        let folded = msgs
            .iter()
            .fold(*ctx.value(), |acc, &m| acc.rotate_left(7).wrapping_add(m));
        ctx.set_value(folded.wrapping_add(1));
        let out = *ctx.value();
        if ctx.superstep() + 1 >= self.rounds {
            // A message sent on the last round would reactivate its
            // receiver and the flood never quiesces.
            ctx.vote_to_halt();
        } else {
            ctx.send_to_all(out);
        }
    }
}

struct ServeStats {
    /// Total successful lookups across all reader threads.
    reads: u64,
    /// Seconds the readers ran.
    secs: f64,
    /// Supersteps the writer completed (0 for idle measurements).
    supersteps: u64,
    /// Snapshot opens and their total latency in nanoseconds.
    snap_opens: u64,
    snap_ns: u64,
}

impl ServeStats {
    fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.secs.max(1e-9)
    }

    fn snap_open_ns(&self) -> f64 {
        self.snap_ns as f64 / self.snap_opens.max(1) as f64
    }
}

/// Spawn `readers` lookup threads plus one snapshot sampler against
/// `reader`, run them until `stop` flips, and total their counts.
fn hammer(
    reader: sg_core::sg_store::GraphReader<u64>,
    verts: u32,
    readers: usize,
    stop: Arc<AtomicBool>,
) -> (u64, u64, u64) {
    let reads = Arc::new(AtomicU64::new(0));
    let snap_opens = Arc::new(AtomicU64::new(0));
    let snap_ns = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..readers {
        let r = reader.clone();
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        handles.push(std::thread::spawn(move || {
            let mut v = (t as u32 * 7919) % verts;
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Stride through the id space so reads hit every stripe.
                std::hint::black_box(r.lookup(VertexId::new(v)));
                v = (v + 13) % verts;
                n += 1;
                if n.is_multiple_of(1024) {
                    reads.fetch_add(1024, Ordering::Relaxed);
                }
            }
            reads.fetch_add(n % 1024, Ordering::Relaxed);
        }));
    }
    {
        let r = reader;
        let stop = Arc::clone(&stop);
        let snap_opens = Arc::clone(&snap_opens);
        let snap_ns = Arc::clone(&snap_ns);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let view = r.snapshot();
                let dt = t0.elapsed().as_nanos() as u64;
                std::hint::black_box(view.get(VertexId::new(0)));
                drop(view);
                snap_opens.fetch_add(1, Ordering::Relaxed);
                snap_ns.fetch_add(dt, Ordering::Relaxed);
                // Snapshots pin the GC horizon; don't open them in a hot
                // spin or the writer's version chains grow unboundedly.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }));
    }
    for h in handles {
        h.join().expect("reader thread");
    }
    (
        reads.load(Ordering::Relaxed),
        snap_opens.load(Ordering::Relaxed),
        snap_ns.load(Ordering::Relaxed),
    )
}

/// One technique's serving profile: readers race the live run, then the
/// same readers hit the halted store for `idle_ms` as the baseline.
fn bench_serve(
    technique: TechniqueKind,
    verts: u32,
    rounds: u64,
    readers: usize,
) -> (ServeStats, u64) {
    let g = Arc::new(gen::ring(verts));
    let config = EngineConfig {
        workers: 2,
        threads_per_worker: 2,
        model: Model::Async,
        technique,
        max_supersteps: rounds + 8,
        ..Default::default()
    };
    let engine = Engine::new(g, Churn { rounds }, config).expect("engine");
    let reader = engine.reader();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = std::thread::spawn(move || engine.run());
    let t0 = Instant::now();
    let hammer_stop = Arc::clone(&stop);
    let hammer_reader = reader.clone();
    let h = std::thread::spawn(move || hammer(hammer_reader, verts, readers, hammer_stop));
    let out = writer.join().expect("writer thread");
    stop.store(true, Ordering::Relaxed);
    let secs = t0.elapsed().as_secs_f64();
    let (reads, snap_opens, snap_ns) = h.join().expect("hammer");
    assert!(out.converged, "writer run must converge");
    let installs = reader.store().stats().installs;
    (
        ServeStats {
            reads,
            secs,
            supersteps: out.supersteps,
            snap_opens,
            snap_ns,
        },
        installs,
    )
}

/// Reads/sec against a store nobody is writing: run the same program to
/// completion first, then time the reader threads alone.
fn bench_idle(verts: u32, rounds: u64, readers: usize, idle_ms: u64) -> ServeStats {
    let g = Arc::new(gen::ring(verts));
    let config = EngineConfig {
        workers: 2,
        threads_per_worker: 2,
        model: Model::Async,
        technique: TechniqueKind::VertexLock,
        max_supersteps: rounds + 8,
        ..Default::default()
    };
    let engine = Engine::new(g, Churn { rounds }, config).expect("engine");
    let reader = engine.reader();
    let out = engine.run();
    assert!(out.converged, "seed run must converge");

    let stop = Arc::new(AtomicBool::new(false));
    let timer_stop = Arc::clone(&stop);
    let timer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(idle_ms));
        timer_stop.store(true, Ordering::Relaxed);
    });
    let t0 = Instant::now();
    let (reads, snap_opens, snap_ns) = hammer(reader, verts, readers, stop);
    let secs = t0.elapsed().as_secs_f64();
    timer.join().expect("timer");
    ServeStats {
        reads,
        secs,
        supersteps: 0,
        snap_opens,
        snap_ns,
    }
}

pub fn run(flags: &[Flag]) -> Result<ExitCode, String> {
    let verts: u32 = flag_or(flags, "verts", 2_000)?;
    let rounds: u64 = flag_or(flags, "rounds", 60)?;
    let readers: usize = flag_or(flags, "readers", 2)?;
    let idle_ms: u64 = flag_or(flags, "idle-ms", 300)?;

    let techniques = [
        TechniqueKind::SingleToken,
        TechniqueKind::DualToken,
        TechniqueKind::VertexLock,
        TechniqueKind::PartitionLock,
    ];

    let mut log = BenchLog::new("serve", &format!("serve/v{verts}/r{rounds}/rd{readers}"));
    println!("sg-bench serve: verts={verts} rounds={rounds} readers={readers} idle_ms={idle_ms}");
    println!();
    println!(
        "{:<26} {:>12} {:>10} {:>12} {:>12}",
        "lane", "reads/s", "steps", "snap_ns", "installs"
    );

    let idle = bench_idle(verts, rounds, readers, idle_ms);
    println!(
        "{:<26} {:>12.0} {:>10} {:>12.0} {:>12}",
        "idle",
        idle.reads_per_sec(),
        "-",
        idle.snap_open_ns(),
        "-"
    );
    log.raw_cell(
        "serve/idle",
        [
            ("reads_per_sec", idle.reads_per_sec().into()),
            ("snap_open_ns", idle.snap_open_ns().into()),
            ("snap_opens", idle.snap_opens.into()),
        ],
    );

    let mut summary = Vec::new();
    for tech in techniques {
        let (s, installs) = bench_serve(tech, verts, rounds, readers);
        let label = format!("serve/{}", tech.label());
        println!(
            "{:<26} {:>12.0} {:>10} {:>12.0} {:>12}",
            label,
            s.reads_per_sec(),
            s.supersteps,
            s.snap_open_ns(),
            installs
        );
        log.raw_cell(
            &format!("{label}/load"),
            [
                ("reads_per_sec", s.reads_per_sec().into()),
                ("run_secs", s.secs.into()),
                ("supersteps", s.supersteps.into()),
                ("installs", installs.into()),
            ],
        );
        log.raw_cell(
            &format!("{label}/snap"),
            [
                ("snap_open_ns", s.snap_open_ns().into()),
                ("snap_opens", s.snap_opens.into()),
            ],
        );
        summary.push((tech.label(), s.reads_per_sec()));
        assert!(s.reads > 0, "readers must make progress during the run");
        assert!(s.snap_opens > 0, "snapshot sampler must make progress");
    }

    println!();
    let idle_rps = idle.reads_per_sec();
    for (tech, rps) in &summary {
        println!(
            "serving under {tech}: {rps:.0} reads/s live vs {idle_rps:.0} idle \
             ({:.0}% of idle throughput)",
            100.0 * rps / idle_rps.max(1e-9)
        );
    }
    log.raw_cell("serve/summary", [("idle_reads_per_sec", idle_rps.into())]);

    Ok(crate::finish(log))
}
