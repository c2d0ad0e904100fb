//! Halt accounting: the engine decides "no message anywhere" from what its
//! stores hold once every staging buffer and buffer cache has been flushed,
//! not from a run-wide counter. A run must therefore stop in exactly the
//! superstep it always stopped in — neither early (a queued message
//! overlooked) nor late (a drained one still counted) — across flush
//! cadences, models, thread counts, and a rollback.

use serigraph::prelude::*;
use serigraph::sg_algos::validate;
use serigraph::sg_metrics::MetricValue;
use std::sync::Arc;

/// Max-id flood: every vertex adopts the largest id it has heard of.
struct MaxId;
impl VertexProgram for MaxId {
    type Value = u32;
    type Message = u32;
    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v.raw()
    }
    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
        let known = msgs.iter().copied().fold(*ctx.value(), u32::max);
        if known > *ctx.value() || ctx.superstep() == 0 {
            ctx.set_value(known);
            ctx.send_to_all(known);
        }
        ctx.vote_to_halt();
    }
}

fn config(model: Model, threads_per_worker: u32, buffer_cap: usize) -> EngineConfig {
    EngineConfig {
        workers: 3,
        model,
        threads_per_worker,
        buffer_cap,
        max_supersteps: 500,
        obs: ObsConfig {
            telemetry: true,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The last value the master set `sg_engine_pending_messages` to.
fn pending_gauge<V>(out: &Outcome<V>) -> u64 {
    let snap = out.telemetry.as_ref().expect("telemetry requested");
    match snap.get("sg_engine_pending_messages", &[]) {
        Some(MetricValue::Gauge(g)) => *g,
        other => panic!("pending gauge missing: {other:?}"),
    }
}

/// Superstep counts of the deterministic shapes — BSP always; AP with one
/// thread per worker and no size-triggered shipping (local messages are
/// read in partition order, remote ones after the barrier). They are the
/// counts the run-wide counter produced before it was removed.
const MAXID_BSP: u64 = 22;
const MAXID_AP: u64 = 19;
const WCC_BSP: u64 = 6;
const WCC_AP: u64 = 4;

#[test]
fn runs_halt_in_the_superstep_they_always_did() {
    let ring = Arc::new(gen::ring(40));
    let skewed = Arc::new(gen::preferential_attachment(150, 2, 17));
    let wcc_want = validate::wcc_reference(&skewed);
    for model in [Model::Bsp, Model::Async] {
        for tpw in [1, 2] {
            for cap in [1, usize::MAX] {
                let shape = format!("{model:?}, {tpw} threads, cap {cap}");
                let deterministic = model == Model::Bsp || (tpw == 1 && cap == usize::MAX);
                let check = |what: &str, supersteps: u64, bsp: u64, ap: u64| {
                    let pinned = if model == Model::Bsp { bsp } else { ap };
                    if deterministic {
                        assert_eq!(supersteps, pinned, "{what}: {shape}");
                    } else {
                        // Timing decides how much of a superstep's mail is
                        // read within it, never below the synchronous
                        // lower bound or above the BSP count.
                        assert!((2..=bsp).contains(&supersteps), "{what}: {shape}");
                    }
                };

                let engine = Engine::new(Arc::clone(&ring), MaxId, config(model, tpw, cap));
                let out = engine.expect("config").run();
                assert!(out.converged, "MaxId: {shape}");
                assert!(out.values.iter().all(|&v| v == 39), "MaxId: {shape}");
                assert_eq!(pending_gauge(&out), 0, "MaxId: {shape}");
                check("MaxId", out.supersteps, MAXID_BSP, MAXID_AP);

                let engine = Engine::new(Arc::clone(&skewed), Wcc, config(model, tpw, cap));
                let engine = engine.expect("config");
                let out = engine.with_combiner(Box::new(Wcc::combiner())).run();
                assert!(out.converged, "WCC: {shape}");
                assert_eq!(out.values, wcc_want, "WCC: {shape}");
                assert_eq!(pending_gauge(&out), 0, "WCC: {shape}");
                check("WCC", out.supersteps, WCC_BSP, WCC_AP);
            }
        }
    }
}

#[test]
fn the_pending_gauge_is_zero_only_at_convergence() {
    // Stopped by the cap mid-flood: the flood's frontier is still queued,
    // and the gauge — the stores' total, taken after the barrier's
    // write-all — says so.
    let ring = Arc::new(gen::ring(40));
    for model in [Model::Bsp, Model::Async] {
        for cap in [1, usize::MAX] {
            let config = EngineConfig {
                max_supersteps: 3,
                ..config(model, 2, cap)
            };
            let out = Engine::new(Arc::clone(&ring), MaxId, config)
                .expect("config")
                .run();
            assert!(!out.converged);
            assert!(pending_gauge(&out) > 0, "{model:?}, cap {cap}");
        }
    }
}

#[test]
fn a_rollback_resumes_with_the_queue_it_checkpointed() {
    // BSP is deterministic, so a recovered run's length is exact: the
    // supersteps of the clean run plus the ones redone since the
    // checkpoint. A queue total restored too low would stop it early (and
    // wrong); too high would never let it stop.
    let skewed = Arc::new(gen::preferential_attachment(150, 2, 17));
    let run = |checkpoint_every, fail_at_superstep| {
        let config = EngineConfig {
            checkpoint_every,
            fail_at_superstep,
            ..config(Model::Bsp, 2, 4)
        };
        let engine = Engine::new(Arc::clone(&skewed), Wcc, config).expect("config");
        engine.with_combiner(Box::new(Wcc::combiner())).run()
    };
    let clean = run(None, None);
    assert_eq!(clean.supersteps, WCC_BSP);
    // Checkpoints after supersteps 1, 3, 5, …; the failure after superstep
    // 4 rolls back to "about to run superstep 4": one superstep redone.
    let failed = run(Some(2), Some(4));
    assert!(failed.converged);
    assert_eq!(failed.metrics.recoveries, 1);
    assert_eq!(failed.values, clean.values);
    assert_eq!(failed.supersteps, clean.supersteps + 1);
    assert_eq!(pending_gauge(&failed), 0);
    // No periodic checkpoint: back to superstep 0, everything redone.
    let failed = run(None, Some(4));
    assert_eq!(failed.values, clean.values);
    assert_eq!(failed.supersteps, clean.supersteps + 5);
}
