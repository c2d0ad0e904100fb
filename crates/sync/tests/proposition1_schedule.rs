//! Proposition 1's barrier exchange, pinned round by round: which vertices
//! may run, what crosses workers at each barrier, and where every fork and
//! token ends up. Written against the lock's own hand-rolled pair table,
//! before it ran on `ForkTable`, and kept unedited since but for one
//! re-pin: the snapshot's tuples lost a virtual-time stamp that was always
//! 0 here, and the transcript is otherwise byte-identical. Any move of the
//! schedule shows here first.

use sg_graph::partition::HashPartitioner;
use sg_graph::{gen, ClusterLayout, PartitionMap, VertexId};
use sg_metrics::Metrics;
use sg_sync::{BspVertexLock, NetAction, QueueTransport, Synchronizer};
use std::sync::Arc;

/// FNV-1a over a transcript's bytes.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[test]
fn the_barrier_schedule_on_a_mixed_owner_graph_is_pinned() {
    let g = gen::preferential_attachment(40, 3, 11);
    let pm = PartitionMap::build(&g, ClusterLayout::new(3, 2), &HashPartitioner::default());
    let metrics = Arc::new(Metrics::new());
    let lock = BspVertexLock::new(&g, &pm, Arc::clone(&metrics));
    let net = QueueTransport::default();

    let mut transcript = String::new();
    let mut allowed_per_round = Vec::new();
    let (mut requests, mut transfers) = (0, 0);
    for s in 0..12u64 {
        let allowed: Vec<u32> = g
            .vertices()
            .filter(|&v| lock.vertex_allowed(s, v))
            .map(VertexId::raw)
            .collect();
        lock.end_superstep(s, &net);
        let actions = net.drain();
        for a in &actions {
            match a {
                NetAction::Request { .. } => requests += 1,
                NetAction::Transfer { unit, .. } => {
                    assert!(unit.is_some(), "a fork carries its unit");
                    transfers += 1;
                }
            }
        }
        transcript += &format!("{s} {allowed:?} {actions:?}\n");
        allowed_per_round.push(allowed.len());
    }
    let snapshot = lock.checkpoint().expect("the fork placement is state");
    transcript += &format!("{snapshot:?}\n");

    assert_eq!(
        allowed_per_round,
        [14, 1, 1, 1, 1, 1, 3, 3, 6, 5, 6, 7],
        "{transcript}"
    );
    let m = metrics.snapshot();
    assert_eq!(
        (m.request_tokens, m.request_tokens_remote, requests),
        (416, 285, 285),
        "{transcript}"
    );
    assert_eq!(
        (m.fork_transfers, m.fork_transfers_remote, transfers),
        (327, 226, 226),
        "{transcript}"
    );
    assert_eq!(fnv(&transcript), 0xcf23_8d0e_ba45_cdc7, "{transcript}");

    // The snapshot is the whole state: a fresh lock restored from it runs
    // the next round exactly as the original does.
    let twin = BspVertexLock::new(&g, &pm, Arc::new(Metrics::new()));
    twin.restore(&snapshot);
    assert_eq!(twin.checkpoint().as_ref(), Some(&snapshot));
    let next = |l: &BspVertexLock| -> Vec<bool> {
        g.vertices().map(|v| l.vertex_allowed(12, v)).collect()
    };
    assert_eq!(next(&twin), next(&lock));
}
