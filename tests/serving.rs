//! The serving layer's core promise, tested as a property: a snapshot
//! opened at any moment during a serializable run observes exactly a
//! serial prefix of the committed transaction sequence — never a torn
//! write, never a value from an uncommitted or aborted transaction.
//!
//! The oracle is [`VertexStore::export_commits`]: the flat
//! `(commit_seq, vertex, value)` log replayed up to a snapshot's
//! `read_ts` must reproduce, bit for bit, the state that snapshot served
//! while the engine was still writing. Captured snapshot views stay open
//! until the end of each case so the GC horizon cannot outrun the oracle.

use serigraph::prelude::*;
use serigraph::sg_store::SnapshotView;
use sg_graph::SplitMix64;
use std::sync::Arc;

/// Deterministic churn: every superstep folds the inbox into the value
/// and re-floods the neighbors, committing one new version per execution.
struct Churn {
    rounds: u64,
}

impl VertexProgram for Churn {
    type Value = u64;
    type Message = u64;

    fn init(&self, v: VertexId, _g: &Graph) -> u64 {
        u64::from(v.raw())
    }

    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
        let folded = msgs
            .iter()
            .fold(*ctx.value(), |acc, &m| acc.rotate_left(7).wrapping_add(m));
        ctx.set_value(folded.wrapping_add(1));
        let out = *ctx.value();
        if ctx.superstep() + 1 >= self.rounds {
            ctx.vote_to_halt();
        } else {
            ctx.send_to_all(out);
        }
    }
}

/// One captured observation: everything a concurrent reader saw through
/// a single snapshot view, plus the view itself (kept open to pin GC).
struct Observation {
    read_ts: u64,
    values: Vec<u64>,
    _view: SnapshotView<u64>,
}

/// Run `technique` on a random ring while a reader thread captures
/// whole-graph snapshots, then check every capture against the oracle.
fn snapshot_prefix_case(rng: &mut SplitMix64, technique: TechniqueKind) {
    let n = 24 + rng.gen_range(64) as u32;
    let rounds = 8 + rng.gen_range(12);
    let workers = 1 + rng.gen_range(3) as u32;
    let g = Arc::new(gen::ring(n));
    let config = EngineConfig {
        workers,
        threads_per_worker: 2,
        model: Model::Async,
        technique,
        max_supersteps: rounds + 8,
        record_history: true,
        ..Default::default()
    };
    let engine = Engine::new(Arc::clone(&g), Churn { rounds }, config).expect("engine");
    let reader = engine.reader();

    let snapper = reader.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let snap_stop = Arc::clone(&stop);
    // The run starts only once the reader holds its first snapshot, so a
    // short run on a loaded host still ends with at least one capture.
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    let capture = std::thread::spawn(move || {
        let mut obs: Vec<Observation> = Vec::new();
        while !snap_stop.load(std::sync::atomic::Ordering::Relaxed) && obs.len() < 32 {
            let view = snapper.snapshot();
            let values: Vec<u64> = (0..n)
                .map(|v| view.get(VertexId::new(v)).expect("in range"))
                .collect();
            obs.push(Observation {
                read_ts: view.read_ts(),
                values,
                _view: view,
            });
            if obs.len() == 1 {
                first_tx.send(()).expect("the run waits on it");
            }
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        obs
    });

    first_rx.recv().expect("first snapshot taken");
    let out = engine.run();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let observations = capture.join().expect("capture thread");
    assert!(out.converged, "{technique:?}: churn must converge");

    // The serving plane must not perturb the verdict the run earns.
    let history = out.history.expect("history recorded");
    assert!(
        history.is_one_copy_serializable(&g),
        "{technique:?}: run with concurrent snapshot readers must stay 1SR"
    );

    // Oracle replay: init state plus every commit at seq <= read_ts, in
    // commit order, must equal what the snapshot actually served.
    let log = reader.store().export_commits();
    assert!(!observations.is_empty(), "captured at least one snapshot");
    for (i, obs) in observations.iter().enumerate() {
        let mut state: Vec<u64> = (0..n).map(u64::from).collect();
        for &(seq, v, val) in &log {
            if seq != 0 && seq <= obs.read_ts {
                state[v as usize] = val;
            }
        }
        assert_eq!(
            state, obs.values,
            "{technique:?}: snapshot {i} at read_ts {} diverged from the \
             serial prefix oracle",
            obs.read_ts
        );
    }
}

/// Property: under every serializable technique, concurrent whole-graph
/// snapshots are serial prefixes of the commit sequence.
#[test]
fn snapshots_during_runs_see_serial_prefixes() {
    let techniques = [
        TechniqueKind::SingleToken,
        TechniqueKind::DualToken,
        TechniqueKind::VertexLock,
        TechniqueKind::PartitionLock,
    ];
    let mut rng = SplitMix64::new(0x5E4E);
    for case in 0..8 {
        let technique = techniques[case % techniques.len()];
        snapshot_prefix_case(&mut rng, technique);
    }
}

/// The monotone flank: later snapshots never observe an earlier frontier,
/// and a re-read through a held view is stable even after the run ends.
#[test]
fn held_snapshot_views_stay_stable_after_the_run() {
    let n = 48u32;
    let g = Arc::new(gen::ring(n));
    let config = EngineConfig {
        workers: 2,
        threads_per_worker: 2,
        model: Model::Async,
        technique: TechniqueKind::VertexLock,
        max_supersteps: 40,
        ..Default::default()
    };
    let engine = Engine::new(g, Churn { rounds: 12 }, config).expect("engine");
    let reader = engine.reader();

    let snapper = reader.clone();
    let capture = std::thread::spawn(move || {
        let mut views = Vec::new();
        for _ in 0..16 {
            let view = snapper.snapshot();
            let first: Vec<u64> = (0..n)
                .map(|v| view.get(VertexId::new(v)).expect("in range"))
                .collect();
            views.push((view, first));
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        views
    });

    let out = engine.run();
    let views = capture.join().expect("capture thread");
    assert!(out.converged);

    let mut last_ts = 0;
    for (view, first_read) in &views {
        assert!(
            view.read_ts() >= last_ts,
            "snapshot frontiers must be monotone"
        );
        last_ts = view.read_ts();
        let again: Vec<u64> = (0..n)
            .map(|v| view.get(VertexId::new(v)).expect("in range"))
            .collect();
        assert_eq!(
            &again, first_read,
            "a held view must serve identical values on re-read"
        );
    }
}
