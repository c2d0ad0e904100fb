//! The simulated network: a per-link latency model. The simulation holds
//! it directly, and `sg-sync`'s queue transport answers the protocol
//! objects' latency queries from it.
//!
//! The model distinguishes the worker mesh (fork transfers, message
//! batches) from the coordinator uplink (token ring passes, which the
//! paper routes through the master), and can jitter each directed link
//! deterministically from a seed — so a 512-worker topology is not one
//! uniform constant but still replays bit-identically.

use sg_metrics::CostModel;

/// SplitMix64 finalizer: a cheap, well-mixed hash for per-link jitter.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Latency/bandwidth shape of the simulated cluster network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetModel {
    /// One-way latency between two workers (the mesh), nanoseconds.
    pub mesh_latency_ns: u64,
    /// One-way latency between a worker and the coordinator (token ring
    /// passes, barrier traffic), nanoseconds. Equal to the mesh by
    /// default; raise it to model a master bottleneck.
    pub uplink_latency_ns: u64,
    /// Per-message serialization/transfer cost on a remote batch,
    /// nanoseconds (the bandwidth term).
    pub per_message_ns: u64,
    /// Deterministic per-directed-link jitter, ± percent of the mesh
    /// latency. 0 = uniform links.
    pub jitter_pct: u32,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for NetModel {
    fn default() -> Self {
        Self::from_cost(&CostModel::default())
    }
}

impl NetModel {
    /// Derive the network shape from an engine cost model (uniform links,
    /// no jitter) so sim and in-process runs charge the same wire by
    /// default.
    pub fn from_cost(cost: &CostModel) -> Self {
        Self {
            mesh_latency_ns: cost.network_latency_ns,
            uplink_latency_ns: cost.network_latency_ns,
            per_message_ns: cost.per_remote_message_ns,
            jitter_pct: 0,
            seed: 0,
        }
    }

    /// One-way latency of the directed link `from -> to`.
    pub fn link_latency_ns(&self, from: u32, to: u32) -> u64 {
        if from == to {
            return 0;
        }
        self.jittered(self.mesh_latency_ns, from, to)
    }

    /// One-way latency of the coordinator uplink as seen from `from`
    /// toward `to` (ring passes).
    pub fn uplink_latency_ns(&self, from: u32, to: u32) -> u64 {
        if from == to {
            return 0;
        }
        self.jittered(self.uplink_latency_ns, from, to)
    }

    /// Arrival delay of an `n`-message batch on `from -> to`.
    pub fn batch_latency_ns(&self, from: u32, to: u32, n: u64) -> u64 {
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
        let net = NetModel {
            mesh_latency_ns: 1000,
            uplink_latency_ns: 3000,
            per_message_ns: 10,
            jitter_pct: 0,
            seed: 0,
        };
        assert_eq!(net.link_latency_ns(0, 1), 1000);
        assert_eq!(net.link_latency_ns(7, 3), 1000);
        assert_eq!(net.link_latency_ns(4, 4), 0);
        assert_eq!(net.uplink_latency_ns(2, 0), 3000);
        assert_eq!(net.batch_latency_ns(0, 1, 5), 1050);
    }

    #[test]
    fn jitter_is_deterministic_per_link_and_bounded() {
        let net = NetModel {
            mesh_latency_ns: 1000,
            uplink_latency_ns: 1000,
            per_message_ns: 0,
            jitter_pct: 20,
            seed: 42,
        };
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
