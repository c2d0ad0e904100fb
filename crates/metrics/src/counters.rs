//! Lock-free event counters shared by the engines and synchronization
//! techniques.
//!
//! Counters use relaxed atomics: the values are aggregated statistics, not
//! synchronization points, and the engines' own barriers order them before
//! any snapshot is taken.
//!
//! Hot paths address counters through the [`Counter`] enum —
//! `m.inc(Counter::LocalMessages)` — which compiles to a direct field
//! `fetch_add` (the `match` is resolved at monomorphization time for
//! constant arguments), replacing the older closure-based accessor API.

use crate::json::Json;
use std::fmt;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! metrics {
    ($( $(#[$doc:meta])* $field:ident => $variant:ident ),+ $(,)?) => {
        /// Shared atomic counters. One instance lives per engine run; every
        /// worker thread increments it concurrently.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $( $(#[$doc])* pub $field: AtomicU64, )+
            /// Optional live-telemetry registry attached to this run.
            /// Riding on `Metrics` lets every layer that already holds an
            /// `Arc<Metrics>` (engines, techniques, fork tables, links)
            /// reach the registry without new constructor plumbing.
            telemetry: std::sync::OnceLock<std::sync::Arc<crate::telemetry::Telemetry>>,
        }

        /// A point-in-time copy of [`Metrics`], with arithmetic for
        /// computing deltas between phases.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $field: u64, )+
        }

        /// Identifies one counter field; the argument type of the hot-path
        /// [`Metrics::add`] / [`Metrics::inc`] methods.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $( $(#[$doc])* $variant, )+
        }

        impl Counter {
            /// Every counter, in declaration (= display) order.
            pub const ALL: &'static [Counter] = &[ $( Counter::$variant, )+ ];

            /// The `snake_case` field name of this counter.
            pub fn name(self) -> &'static str {
                match self {
                    $( Counter::$variant => stringify!($field), )+
                }
            }
        }

        impl Metrics {
            /// Copy the current counter values.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                }
            }

            /// Reset every counter to zero.
            pub fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )+
            }

            /// The atomic cell behind counter `c`.
            #[inline]
            pub fn cell(&self, c: Counter) -> &AtomicU64 {
                match c {
                    $( Counter::$variant => &self.$field, )+
                }
            }
        }

        impl MetricsSnapshot {
            /// Value of counter `c` in this snapshot.
            #[inline]
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $( Counter::$variant => self.$field, )+
                }
            }
        }

        impl Sub for MetricsSnapshot {
            type Output = MetricsSnapshot;
            fn sub(self, rhs: Self) -> Self {
                MetricsSnapshot {
                    $( $field: self.$field.saturating_sub(rhs.$field), )+
                }
            }
        }

        impl fmt::Display for MetricsSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $( writeln!(f, "{:<28} {:>14}", stringify!($field), self.$field)?; )+
                Ok(())
            }
        }
    };
}

metrics! {
    /// Messages delivered between vertices on the same worker (skip the
    /// buffer cache in Giraph async, Section 6.1).
    local_messages => LocalMessages,
    /// Messages destined for vertices on other workers (buffered, batched).
    remote_messages => RemoteMessages,
    /// Remote batch flushes: each is one network round of buffered messages.
    remote_batches => RemoteBatches,
    /// Fork transfers between philosophers (Chandy-Misra), any locality.
    fork_transfers => ForkTransfers,
    /// Fork transfers that crossed a worker boundary (network forks).
    fork_transfers_remote => ForkTransfersRemote,
    /// Request-token sends (Chandy-Misra), any locality.
    request_tokens => RequestTokens,
    /// Request-token sends that crossed a worker boundary.
    request_tokens_remote => RequestTokensRemote,
    /// Global-token ring passes (single- and dual-layer token passing).
    global_token_passes => GlobalTokenPasses,
    /// Local-token passes between partitions of one worker (dual-layer).
    local_token_passes => LocalTokenPasses,
    /// Global synchronization barriers executed.
    barriers => Barriers,
    /// Supersteps completed.
    supersteps => Supersteps,
    /// Vertex compute-function invocations.
    vertex_executions => VertexExecutions,
    /// Partition (or vertex) acquisitions skipped because the unit was
    /// halted with no pending messages (Section 5.4 optimization).
    halted_skips => HaltedSkips,
    /// Checkpoints written (Section 6.4 fault tolerance).
    checkpoints => Checkpoints,
    /// Checkpoint recoveries performed after an injected failure.
    recoveries => Recoveries,
    /// Remote messages merged into an already-staged message by the
    /// sender-side combiner before it ships (Giraph's classic
    /// optimization; each one is a message that never paid for a lock or
    /// the wire). Only the simulator, which prices Giraph's wire, folds
    /// sender-side: the thread engine and the networked worker combine
    /// where a batch lands, so they read 0.
    sender_combines => SenderCombines,
    /// Per-thread staged runs shipped, one batch each — on the size
    /// threshold, at superstep boundaries, or by a C1 write-all flush.
    staging_flushes => StagingFlushes,
}

impl Metrics {
    /// Create a fresh zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `c`: `m.add(Counter::LocalMessages, 3)`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.cell(c).fetch_add(n, Ordering::Relaxed);
    }

    /// Increment counter `c` by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Attach a live-telemetry registry to this run. First attach wins;
    /// returns `false` (leaving the original) if one is already attached.
    pub fn attach_telemetry(&self, t: std::sync::Arc<crate::telemetry::Telemetry>) -> bool {
        self.telemetry.set(t).is_ok()
    }

    /// The attached telemetry registry, if any. One atomic load — cheap
    /// enough to consult from instrumentation sites.
    #[inline]
    pub fn telemetry(&self) -> Option<&std::sync::Arc<crate::telemetry::Telemetry>> {
        self.telemetry.get()
    }
}

impl MetricsSnapshot {
    /// Every counter by name, as one flat JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            (Counter::ALL.iter())
                .map(|&c| (c.name().to_owned(), self.get(c).into()))
                .collect(),
        )
    }

    /// Total messages, local + remote.
    pub fn total_messages(&self) -> u64 {
        self.local_messages + self.remote_messages
    }

    /// Total synchronization-protocol transfers (forks + request tokens +
    /// ring passes) — the "communication overhead" axis of Figure 1.
    pub fn sync_transfers(&self) -> u64 {
        self.fork_transfers
            + self.request_tokens
            + self.global_token_passes
            + self.local_token_passes
    }

    /// Average remote batch size (messages per flush); 0 when no flushes.
    pub fn avg_batch_size(&self) -> f64 {
        if self.remote_batches == 0 {
            0.0
        } else {
            self.remote_messages as f64 / self.remote_batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn snapshot_reflects_increments() {
        let m = Metrics::new();
        m.inc(Counter::LocalMessages);
        m.add(Counter::RemoteMessages, 5);
        let s = m.snapshot();
        assert_eq!(s.local_messages, 1);
        assert_eq!(s.remote_messages, 5);
        assert_eq!(s.total_messages(), 6);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.add(Counter::ForkTransfers, 10);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_subtraction_gives_delta() {
        let m = Metrics::new();
        m.add(Counter::Barriers, 2);
        let before = m.snapshot();
        m.add(Counter::Barriers, 3);
        let delta = m.snapshot() - before;
        assert_eq!(delta.barriers, 3);
    }

    #[test]
    fn subtraction_saturates() {
        let a = MetricsSnapshot {
            barriers: 1,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            barriers: 5,
            ..Default::default()
        };
        assert_eq!((a - b).barriers, 0);
    }

    #[test]
    fn avg_batch_size() {
        let mut s = MetricsSnapshot::default();
        assert_eq!(s.avg_batch_size(), 0.0);
        s.remote_messages = 100;
        s.remote_batches = 4;
        assert_eq!(s.avg_batch_size(), 25.0);
    }

    #[test]
    fn sync_transfers_sums_protocol_traffic() {
        let s = MetricsSnapshot {
            fork_transfers: 3,
            request_tokens: 2,
            global_token_passes: 1,
            local_token_passes: 4,
            ..Default::default()
        };
        assert_eq!(s.sync_transfers(), 10);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let m = Arc::new(Metrics::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.inc(Counter::VertexExecutions);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.snapshot().vertex_executions, 4000);
    }

    #[test]
    fn display_lists_every_field() {
        let s = MetricsSnapshot::default();
        let text = format!("{s}");
        for name in [
            "local_messages",
            "remote_messages",
            "fork_transfers",
            "barriers",
            "halted_skips",
        ] {
            assert!(text.contains(name), "missing {name} in display output");
        }
    }

    #[test]
    fn counter_enum_covers_every_field_in_order() {
        assert_eq!(Counter::ALL.len(), 17);
        assert_eq!(Counter::ALL[0].name(), "local_messages");
        assert_eq!(Counter::ALL[14].name(), "recoveries");
        assert_eq!(Counter::ALL[15].name(), "sender_combines");
        assert_eq!(Counter::ALL[16].name(), "staging_flushes");
        // `get` agrees with the named field for every counter.
        let m = Metrics::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            m.add(c, i as u64 + 1);
        }
        let s = m.snapshot();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(s.get(c), i as u64 + 1, "{}", c.name());
        }
    }
}
