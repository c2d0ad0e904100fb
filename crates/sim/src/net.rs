//! The simulated network: a per-link latency model. The simulation holds
//! it directly, and `sg-sync`'s queue transport answers the protocol
//! objects' latency queries from it.
//!
//! Every hop — a fork transfer, a message batch, a token ring pass — pays
//! its directed link's latency. The model derives from the run's
//! [`CostModel`] and can jitter each link deterministically from a seed, so
//! a 512-worker topology is not one uniform constant but still replays
//! bit-identically.

use sg_graph::rng::mix64;
use sg_metrics::CostModel;

/// Latency/bandwidth shape of the simulated cluster network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NetModel {
    /// One-way latency between two workers, nanoseconds.
    pub(crate) mesh_latency_ns: u64,
    /// Per-message serialization/transfer cost on a remote batch,
    /// nanoseconds (the bandwidth term).
    pub(crate) per_message_ns: u64,
    /// Deterministic per-directed-link jitter, ± percent of the mesh
    /// latency. 0 = uniform links.
    pub(crate) jitter_pct: u32,
    /// Seed for the jitter hash.
    pub(crate) seed: u64,
}

impl NetModel {
    /// The wire of `cost`, each directed link jittered by ± `jitter_pct`
    /// percent of its latency, seeded by `seed` (0 percent = uniform
    /// links).
    pub(crate) fn new(cost: &CostModel, jitter_pct: u32, seed: u64) -> Self {
        Self {
            mesh_latency_ns: cost.network_latency_ns,
            per_message_ns: cost.per_remote_message_ns,
            jitter_pct,
            seed,
        }
    }

    /// One-way latency of the directed link `from -> to`.
    pub(crate) fn link_latency_ns(&self, from: u32, to: u32) -> u64 {
        if from == to {
            return 0;
        }
        self.jittered(self.mesh_latency_ns, from, to)
    }

    /// Arrival delay of an `n`-message batch on `from -> to`.
    pub(crate) fn batch_latency_ns(&self, from: u32, to: u32, n: u64) -> u64 {
        self.link_latency_ns(from, to) + n * self.per_message_ns
    }

    fn jittered(&self, base: u64, from: u32, to: u32) -> u64 {
        if self.jitter_pct == 0 || base == 0 {
            return base;
        }
        let span = base * u64::from(self.jitter_pct) / 100;
        if span == 0 {
            return base;
        }
        let h = mix64(self.seed ^ ((u64::from(from) << 32) | u64::from(to)));
        base - span + h % (2 * span + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_links_without_jitter() {
        let cost = CostModel {
            network_latency_ns: 1000,
            per_remote_message_ns: 10,
            ..CostModel::zero()
        };
        let net = NetModel::new(&cost, 0, 0);
        assert_eq!(net.link_latency_ns(0, 1), 1000);
        assert_eq!(net.link_latency_ns(7, 3), 1000);
        assert_eq!(net.link_latency_ns(4, 4), 0);
        assert_eq!(net.batch_latency_ns(0, 1, 5), 1050);
    }

    #[test]
    fn jitter_is_deterministic_per_link_and_bounded() {
        let cost = CostModel {
            network_latency_ns: 1000,
            ..CostModel::zero()
        };
        let net = NetModel::new(&cost, 20, 42);
        let mut distinct = std::collections::BTreeSet::new();
        for from in 0..8 {
            for to in 0..8 {
                if from == to {
                    continue;
                }
                let l = net.link_latency_ns(from, to);
                assert!((800..=1200).contains(&l), "latency {l} out of band");
                assert_eq!(l, net.link_latency_ns(from, to), "not deterministic");
                distinct.insert(l);
            }
        }
        assert!(distinct.len() > 1, "jitter produced uniform links");
    }
}
