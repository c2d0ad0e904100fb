//! One vertex state: every host keeps its vertices in one `PartitionData`
//! per partition, built once from the program's `init`, and seeds the
//! serving store from it — so `init` runs exactly once per vertex, however
//! the run is hosted.

use serigraph::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Max-id flood whose `init` counts its calls.
struct CountedInit(Arc<AtomicUsize>);
impl VertexProgram for CountedInit {
    type Value = u32;
    type Message = u32;
    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        self.0.fetch_add(1, Ordering::SeqCst);
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

const N: u32 = 40;

#[test]
fn the_engine_inits_each_vertex_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let config = EngineConfig {
        workers: 2,
        ..Default::default()
    };
    let program = CountedInit(Arc::clone(&calls));
    let engine = Engine::new(Arc::new(gen::ring(N)), program, config).expect("engine");
    assert_eq!(calls.load(Ordering::SeqCst), N as usize, "Engine::new");
    // The serving store answers from the same init values before the run.
    let before = engine.reader().snapshot();
    assert_eq!(before.get(VertexId::new(7)), Some(7));
    let out = engine.run();
    assert!(out.converged);
    assert!(out.values.iter().all(|&v| v == N - 1));
    assert_eq!(
        calls.load(Ordering::SeqCst),
        N as usize,
        "Engine::new + run"
    );
}

#[test]
fn the_simulator_inits_each_vertex_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let out = Runner::new(gen::ring(N))
        .workers(2)
        .simulated(SimOptions::default())
        .run_program(CountedInit(Arc::clone(&calls)))
        .expect("simulated run");
    assert!(out.converged);
    assert!(out.values.iter().all(|&v| v == N - 1));
    assert_eq!(calls.load(Ordering::SeqCst), N as usize);
}
