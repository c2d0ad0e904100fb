//! How much slower than nominal the host is right now, from a fixed kernel
//! that never calls into the product, so no change to the product can move
//! it. The reference host (a 2-vCPU guest) spends minutes at a time in
//! phases where user-mode arithmetic runs as fast as ever but everything
//! that enters the kernel or the hypervisor — wake-ups, context switches,
//! page faults — takes 1.3 to 1.6 times as long, and the workloads, which
//! block and wake at every lock hand-off and barrier, slow down with it.
//! The kernel below does nothing but block and wake; on the reference host
//! its time moved one to one with the workloads' (`perf/README.md`,
//! "Noise").

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Turns handed over per sample, there and back.
const ROUNDS: u32 = 3_000;
/// Seconds [`ROUNDS`] take on the reference host in its fast phase, pinned
/// to one vCPU: 6.3 us per round trip.
const NOMINAL_S: f64 = 0.0188;

/// Two threads hand a turn back and forth through a mutex and a condition
/// variable; returns the seconds `rounds` round trips took.
fn handoffs(rounds: u32) -> f64 {
    let turn = Arc::new((Mutex::new(0u32), Condvar::new()));
    let other = {
        let turn = Arc::clone(&turn);
        std::thread::spawn(move || {
            let (m, cv) = &*turn;
            for r in 0..rounds {
                let mut g = m.lock().expect("turn mutex");
                while *g != 2 * r + 1 {
                    g = cv.wait(g).expect("turn mutex");
                }
                *g = 2 * r + 2;
                cv.notify_one();
            }
        })
    };
    let t = Instant::now();
    let (m, cv) = &*turn;
    for r in 0..rounds {
        let mut g = m.lock().expect("turn mutex");
        *g = 2 * r + 1;
        cv.notify_one();
        while *g != 2 * r + 2 {
            g = cv.wait(g).expect("turn mutex");
        }
    }
    let s = t.elapsed().as_secs_f64();
    other.join().expect("hand-off thread");
    s
}

/// One sample, about 20 ms: 1.0 on the reference host in its fast phase,
/// 1.5 when the same hand-offs take half as long again. The caller is
/// pinned to one vCPU ([`crate::host::pin_to_last_cpu`]), so both threads
/// are: a wake-up across vCPUs costs ten times one within a vCPU.
pub fn slowdown() -> f64 {
    handoffs(ROUNDS) / NOMINAL_S
}
