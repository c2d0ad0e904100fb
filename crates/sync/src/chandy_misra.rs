//! The hygienic dining philosophers algorithm (Chandy & Misra 1984).
//!
//! Both distributed-locking techniques reduce to this protocol — the paper
//! treats individual vertices as philosophers (Section 4.3) or whole
//! partitions as philosophers (Section 5.4). Two philosophers that share an
//! edge share a **fork**; a philosopher must hold *all* its forks to eat
//! (execute). The protocol state per pair is a fork (with a *dirty* bit)
//! and a *request token*:
//!
//! * to request a missing fork you must hold the pair's request token; the
//!   token travels to the fork holder and marks the request pending;
//! * a philosopher that is **not eating** yields a **dirty** fork
//!   immediately upon request (the fork is cleaned in transit);
//! * a **clean** fork is never yielded — its holder has priority and will
//!   eat first (this is the "hygiene" that guarantees no starvation);
//! * eating dirties all of the eater's forks; after eating, pending
//!   requests are satisfied.
//!
//! Initial placement follows Section 6.3: for each pair, the philosopher
//! with the **smaller id gets the request token** and the one with the
//! **larger id gets the dirty fork**, which makes the initial precedence
//! graph acyclic and hence the protocol deadlock-free.
//!
//! This implementation keeps the protocol state behind one mutex with one
//! condvar per philosopher. On a single-host simulation this is both simple
//! to verify and faithful: what the paper measures about these protocols is
//! *how many* fork/token transfers cross machine boundaries (counted here
//! through [`Metrics`]) and when workers must flush messages (triggered
//! here through [`SyncTransport::transfer`]), not the raw lock throughput
//! of one host.
//!
//! The table is flat arrays. Adjacency is CSR — philosopher `p`'s
//! neighbors, ascending, each with the index of the pair they share —
//! and a pair is one flag byte. A pair does not store its endpoints:
//! whoever walks to it through the adjacency knows both, and the lower
//! endpoint is the smaller id.
//!
//! The table keeps no clock. A virtual-time host works out when a granted
//! philosopher's forks arrived from the order philosophers ate in
//! (`sg_metrics::EatOrder`), walking the philosopher's fork neighbors
//! ([`ForkNeighbors`]).

use crate::transport::SyncTransport;
use sg_graph::WorkerId;
use sg_metrics::{Counter, HistogramHandle, Metrics};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, OnceLock};

/// Nanoseconds on a process-local monotonic clock (anchored at first use).
/// Only meaningful as a difference between two calls in the same process.
pub(crate) fn mono_ns() -> u64 {
    static ANCHOR: OnceLock<std::time::Instant> = OnceLock::new();
    ANCHOR
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Telemetry handles for one fork table: wall-clock acquisition wait and
/// hold (eating) time, labeled by the owning technique.
struct SyncHists {
    wait: HistogramHandle,
    hold: HistogramHandle,
}

/// Philosopher identifier: a vertex id or a partition id, depending on the
/// locking granularity.
pub type PhilId = u32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Thinking,
    Hungry,
    Eating,
}

/// Pair flag: the fork sits at the pair's lower endpoint.
const FORK_LOW: u8 = 1;
/// Pair flag: dirty forks are yielded on request; clean forks are kept.
const DIRTY: u8 = 2;
/// Pair flag: the request token sits at the pair's lower endpoint.
const TOKEN_LOW: u8 = 4;
/// Section 6.3 initialization: dirty fork to the larger id, request token
/// to the smaller id => acyclic precedence.
const INITIAL: u8 = DIRTY | TOKEN_LOW;

/// Does an endpoint hold the fork (`bit` = `FORK_LOW`) or the token
/// (`TOKEN_LOW`) of a pair with these `flags`? `low` says which endpoint is
/// asking: the pair's lower one or its higher one.
#[inline]
fn at(flags: u8, bit: u8, low: bool) -> bool {
    (flags & bit != 0) == low
}

/// `flags` with the fork or the token (`bit`, as in [`at`]) placed at the
/// pair's lower (`low`) or higher endpoint.
#[inline]
fn moved(flags: u8, bit: u8, low: bool) -> u8 {
    if low {
        flags | bit
    } else {
        flags & !bit
    }
}

struct State {
    status: Vec<Status>,
    /// `FORK_LOW | DIRTY | TOKEN_LOW` per pair.
    flags: Vec<u8>,
    /// Wall-clock ([`mono_ns`]) eat-start per philosopher; only written
    /// when telemetry is enabled. Indexed like `status`.
    eat_started: Vec<u64>,
}

/// Fork and token moves of one protocol call, added to the shared
/// [`Metrics`] once when the call ends.
#[derive(Default)]
struct Moves {
    forks: u64,
    forks_remote: u64,
    tokens: u64,
    tokens_remote: u64,
}

/// A shared fork table over `n` philosophers.
///
/// `acquire(p)` blocks the calling thread until `p` holds every fork it
/// shares with a neighbor, then marks `p` *eating*; `release(p)` hands
/// requested forks over and marks `p` *thinking*. The table asserts the
/// mutual-exclusion property (condition C2 at the chosen granularity) on
/// every eat transition.
pub struct ForkTable {
    state: Mutex<State>,
    cv: Vec<Condvar>,
    /// CSR adjacency: philosopher `p`'s `(neighbor, pair index)` entries,
    /// ascending by neighbor, are `adj[offsets[p]..offsets[p + 1]]`. Pairs
    /// are numbered in ascending `(lower, higher)` order.
    offsets: Vec<u32>,
    adj: Vec<(PhilId, u32)>,
    /// philosopher -> owning (simulated) worker machine
    owner: Vec<WorkerId>,
    metrics: Arc<Metrics>,
    /// Wait/hold histograms; set once by [`ForkTable::enable_telemetry`]
    /// when the owning technique knows its label and the [`Metrics`] has a
    /// registry attached. Absent => zero recording overhead.
    hists: OnceLock<SyncHists>,
}

/// The philosophers one philosopher shares a fork with, ascending, read
/// straight off the table's adjacency: what
/// [`Synchronizer::fork_neighbors`](crate::Synchronizer::fork_neighbors)
/// returns.
#[derive(Clone, Debug, Default)]
pub struct ForkNeighbors<'a>(std::slice::Iter<'a, (PhilId, u32)>);

impl Iterator for ForkNeighbors<'_> {
    type Item = PhilId;

    #[inline]
    fn next(&mut self) -> Option<PhilId> {
        self.0.next().map(|&(q, _)| q)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for ForkNeighbors<'_> {}

impl ForkTable {
    /// Build a table for philosophers `0..owner.len()`, where `owner[p]` is
    /// the worker machine hosting philosopher `p`. `pairs` enumerates the
    /// conflicting pairs: it calls its argument once per pair `(a, b)`,
    /// `a < b`, in ascending `(a, b)` order without repeats. It runs twice
    /// — once to size the adjacency, once to fill it in place — and must
    /// enumerate the same pairs both times.
    pub(crate) fn from_sorted_pairs(
        owner: Vec<WorkerId>,
        metrics: Arc<Metrics>,
        pairs: impl Fn(&mut dyn FnMut(PhilId, PhilId)),
    ) -> Self {
        let n = owner.len();
        let mut offsets = vec![0u32; n + 1];
        let mut num_pairs = 0usize;
        let mut last = None;
        pairs(&mut |a, b| {
            assert!(a < b && (b as usize) < n, "pair ({a}, {b}) is no pair");
            assert!(last < Some((a, b)), "pair ({a}, {b}) out of order");
            last = Some((a, b));
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
            num_pairs += 1;
        });
        assert!(num_pairs <= (u32::MAX / 2) as usize, "too many forks");
        for p in 0..n {
            offsets[p + 1] += offsets[p];
        }
        // Pairs arrive in ascending (a, b) order, so every philosopher's
        // lower neighbors are appended — ascending — before the pairs it
        // is the lower endpoint of, which follow ascending too.
        let mut adj = vec![(0 as PhilId, 0u32); 2 * num_pairs];
        let mut cursor = offsets.clone();
        let mut pair = 0u32;
        pairs(&mut |a, b| {
            for (p, q) in [(a, b), (b, a)] {
                let slot = &mut cursor[p as usize];
                adj[*slot as usize] = (q, pair);
                *slot += 1;
            }
            pair += 1;
        });
        assert_eq!(pair as usize, num_pairs, "pairs differed between passes");

        Self {
            state: Mutex::new(State {
                status: vec![Status::Thinking; n],
                flags: vec![INITIAL; num_pairs],
                eat_started: vec![0; n],
            }),
            cv: (0..n).map(|_| Condvar::new()).collect(),
            offsets,
            adj,
            owner,
            metrics,
            hists: OnceLock::new(),
        }
    }

    /// Start recording acquisition-wait and hold-time histograms
    /// (`sg_sync_acquire_wait_ns` / `sg_sync_hold_ns`, labeled
    /// `technique="<technique>"`) into the registry attached to this
    /// table's [`Metrics`]. No-op when no registry is attached — the
    /// techniques call this unconditionally at construction, and whoever
    /// wants telemetry attaches the registry *before* building them.
    pub fn enable_telemetry(&self, technique: &'static str) {
        if let Some(t) = self.metrics.telemetry() {
            let labels = [("technique", technique)];
            let _ = self.hists.set(SyncHists {
                wait: t.histogram("sg_sync_acquire_wait_ns", &labels),
                hold: t.histogram("sg_sync_hold_ns", &labels),
            });
        }
    }

    /// Number of philosophers.
    pub fn num_philosophers(&self) -> usize {
        self.owner.len()
    }

    /// Number of forks (conflicting pairs).
    pub fn num_forks(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of forks philosopher `p` shares; 0 means `p` never waits.
    #[inline]
    pub fn degree(&self, p: PhilId) -> usize {
        self.neighbors_of(p).len()
    }

    /// Worker hosting philosopher `p`.
    #[inline]
    pub fn owner_of(&self, p: PhilId) -> WorkerId {
        self.owner[p as usize]
    }

    /// The philosophers `p` shares a fork with, ascending.
    #[inline]
    pub(crate) fn neighbors(&self, p: PhilId) -> ForkNeighbors<'_> {
        ForkNeighbors(self.neighbors_of(p).iter())
    }

    /// `p`'s `(neighbor, pair index)` entries, ascending by neighbor.
    #[inline]
    fn neighbors_of(&self, p: PhilId) -> &[(PhilId, u32)] {
        let p = p as usize;
        &self.adj[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Add one protocol call's moves to the shared counters.
    fn count(&self, moves: Moves) {
        for (counter, n) in [
            (Counter::ForkTransfers, moves.forks),
            (Counter::ForkTransfersRemote, moves.forks_remote),
            (Counter::RequestTokens, moves.tokens),
            (Counter::RequestTokensRemote, moves.tokens_remote),
        ] {
            if n > 0 {
                self.metrics.add(counter, n);
            }
        }
    }

    /// One pass of the hungry-philosopher protocol for `p`: request missing
    /// forks (when `p` holds the pair's request token) and collect any
    /// immediately yielded dirty forks. Returns the number of forks `p` is
    /// still missing.
    fn scan_locked(&self, s: &mut State, p: PhilId, transport: &dyn SyncTransport) -> usize {
        let pw = self.owner_of(p);
        let mut missing = 0usize;
        let mut moves = Moves::default();
        for &(q, pair) in self.neighbors_of(p) {
            let (pair, p_low) = (pair as usize, p < q);
            let flags = s.flags[pair];
            if at(flags, FORK_LOW, p_low) {
                continue;
            }
            missing += 1;
            if !at(flags, TOKEN_LOW, p_low) {
                // The token is already with the holder: our request is
                // pending and will be satisfied on its release.
                continue;
            }
            // Send the request token to the fork holder.
            s.flags[pair] = moved(flags, TOKEN_LOW, !p_low);
            moves.tokens += 1;
            let qw = self.owner_of(q);
            if qw != pw {
                moves.tokens_remote += 1;
                transport.request(pw, qw);
            }
            // The holder yields immediately iff it is not eating and the
            // fork is dirty (hygiene rule). If it was hungry and waiting,
            // it does not need a wakeup — it lost a fork, gained nothing.
            if s.status[q as usize] != Status::Eating && flags & DIRTY != 0 {
                s.flags[pair] = moved(s.flags[pair], FORK_LOW, p_low) & !DIRTY;
                missing -= 1;
                moves.forks += 1;
                if qw != pw {
                    moves.forks_remote += 1;
                    // Write-all before the fork crosses machines (C1): the
                    // call returns once the receiver has applied the flush,
                    // and only then is the handover observable. The
                    // receiving philosopher identifies the traveling fork
                    // in traces.
                    transport.transfer(qw, pw, Some(p));
                }
                self.assert_precedence_acyclic(s);
            }
        }
        self.count(moves);
        missing
    }

    /// Transition `p` (which holds all its forks) to eating; dirties its
    /// forks and asserts mutual exclusion.
    fn start_eating_locked(&self, s: &mut State, p: PhilId) {
        s.status[p as usize] = Status::Eating;
        if self.hists.get().is_some() {
            s.eat_started[p as usize] = mono_ns();
        }
        for &(q, pair) in self.neighbors_of(p) {
            // Eating dirties every fork of the eater.
            s.flags[pair as usize] |= DIRTY;
            assert_ne!(
                s.status[q as usize],
                Status::Eating,
                "mutual exclusion violated: {p} and {q} eating together"
            );
        }
        self.assert_precedence_acyclic(s);
    }

    /// The Chandy–Misra invariant H: the precedence graph stays acyclic at
    /// *every* protocol step, not just at quiescence. Compiled in only under
    /// the `sg-invariants` feature (O(philosophers + forks) per transfer).
    #[inline]
    fn assert_precedence_acyclic(&self, s: &State) {
        #[cfg(feature = "sg-invariants")]
        assert!(
            self.precedence_acyclic(s),
            "sg-invariants: precedence graph cyclic after a fork transfer"
        );
        #[cfg(not(feature = "sg-invariants"))]
        let _ = s;
    }

    /// Block until philosopher `p` holds all its forks, then mark it
    /// eating.
    ///
    /// # Panics
    /// Panics if `p` is already hungry or eating (each philosopher is driven
    /// by one thread at a time), or if mutual exclusion would be violated —
    /// the latter indicates a protocol bug and is checked on every call.
    pub fn acquire(&self, p: PhilId, transport: &dyn SyncTransport) {
        let pi = p as usize;
        let wait_start = self.hists.get().map(|_| mono_ns());
        let mut s = self.state.lock().unwrap();
        assert_eq!(
            s.status[pi],
            Status::Thinking,
            "philosopher {p} acquired twice"
        );
        s.status[pi] = Status::Hungry;

        while self.scan_locked(&mut s, p, transport) > 0 {
            s = self.cv[pi].wait(s).unwrap();
        }
        self.start_eating_locked(&mut s, p);
        if let (Some(h), Some(t0)) = (self.hists.get(), wait_start) {
            h.wait.record(mono_ns().saturating_sub(t0));
        }
    }

    /// Non-blocking step of the acquire protocol, for single-threaded
    /// drivers (the `sg-check` model checker): marks `p` hungry on first
    /// call, runs one request/collect pass, and either transitions to
    /// eating (returning `true`, as [`ForkTable::acquire`] would) or
    /// leaves `p` hungry and returns `false`. A hungry philosopher becomes
    /// worth re-polling whenever any neighbor releases.
    ///
    /// # Panics
    /// Panics if `p` is already eating.
    pub fn try_acquire(&self, p: PhilId, transport: &dyn SyncTransport) -> bool {
        let pi = p as usize;
        let mut s = self.state.lock().unwrap();
        match s.status[pi] {
            Status::Thinking => s.status[pi] = Status::Hungry,
            Status::Hungry => {}
            Status::Eating => panic!("philosopher {p} acquired twice"),
        }
        let granted = self.scan_locked(&mut s, p, transport) == 0;
        if granted {
            self.start_eating_locked(&mut s, p);
        }
        granted
    }

    /// Neighbors whose fork `p` is currently missing — the wait-for edges a
    /// deadlock report prints. Empty unless `p` is hungry.
    pub fn waiting_on(&self, p: PhilId) -> Vec<PhilId> {
        let s = self.state.lock().unwrap();
        if s.status[p as usize] != Status::Hungry {
            return Vec::new();
        }
        self.neighbors_of(p)
            .iter()
            .filter(|&&(q, pair)| !at(s.flags[pair as usize], FORK_LOW, p < q))
            .map(|&(q, _)| q)
            .collect()
    }

    /// Mark `p` thinking and hand its requested forks to the requesters.
    ///
    /// # Panics
    /// Panics if `p` is not currently eating.
    pub fn release(&self, p: PhilId, transport: &dyn SyncTransport) {
        let pi = p as usize;
        let mut s = self.state.lock().unwrap();
        assert_eq!(s.status[pi], Status::Eating, "release without acquire");
        s.status[pi] = Status::Thinking;
        if let Some(h) = self.hists.get() {
            h.hold.record(mono_ns().saturating_sub(s.eat_started[pi]));
        }
        let pw = self.owner_of(p);
        let mut moves = Moves::default();
        for &(q, pair) in self.neighbors_of(p) {
            let (pair, p_low) = (pair as usize, p < q);
            let flags = s.flags[pair];
            // fork here + token here = a deferred request from q.
            if at(flags, FORK_LOW, p_low) && at(flags, TOKEN_LOW, p_low) {
                s.flags[pair] = moved(flags, FORK_LOW, !p_low) & !DIRTY;
                moves.forks += 1;
                let qw = self.owner_of(q);
                if qw != pw {
                    moves.forks_remote += 1;
                    // The C1 write-all, as in `scan_locked`.
                    transport.transfer(pw, qw, Some(q));
                }
                self.assert_precedence_acyclic(&s);
                self.cv[q as usize].notify_one();
            }
        }
        self.count(moves);
    }

    /// Does `p` hold every fork it shares? Proposition 1's eligibility test:
    /// under it nobody eats through [`ForkTable::acquire`], forks move only
    /// in [`ForkTable::exchange_at_barrier`].
    pub(crate) fn holds_all_forks(&self, p: PhilId) -> bool {
        let s = self.state.lock().unwrap();
        self.neighbors_of(p)
            .iter()
            .all(|&(q, pair)| at(s.flags[pair as usize], FORK_LOW, p < q))
    }

    /// Proposition 1's exchange at a global barrier. `ate(p)` and
    /// `hungry(p)` say — once per philosopher, ascending — whether `p` ran
    /// in the superstep just ended or was held back for a missing fork:
    ///
    /// 1. eating dirties the eater's forks (it held all of them, so it
    ///    becomes a source of the precedence graph);
    /// 2. every hungry philosopher, ascending, sends the request token of
    ///    each fork it lacks to the holder, along its adjacency;
    /// 3. pair by pair, each dirty fork whose holder also holds the token
    ///    is surrendered, clean — the edge keeps its direction. A clean
    ///    requested fork stays: its holder has priority and runs first.
    pub(crate) fn exchange_at_barrier(
        &self,
        mut ate: impl FnMut(PhilId) -> bool,
        mut hungry: impl FnMut(PhilId) -> bool,
        transport: &dyn SyncTransport,
    ) {
        let mut s = self.state.lock().unwrap();
        let n = self.owner.len() as PhilId;
        for p in 0..n {
            if ate(p) {
                for &(_, pair) in self.neighbors_of(p) {
                    s.flags[pair as usize] |= DIRTY;
                }
                self.assert_precedence_acyclic(&s);
            }
        }
        let mut moves = Moves::default();
        for p in (0..n).filter(|&p| hungry(p)) {
            let pw = self.owner_of(p);
            for &(q, pair) in self.neighbors_of(p) {
                let (pair, p_low) = (pair as usize, p < q);
                let flags = s.flags[pair];
                if !at(flags, FORK_LOW, p_low) && at(flags, TOKEN_LOW, p_low) {
                    s.flags[pair] = moved(flags, TOKEN_LOW, !p_low);
                    moves.tokens += 1;
                    let qw = self.owner_of(q);
                    if qw != pw {
                        moves.tokens_remote += 1;
                        transport.request(pw, qw);
                    }
                }
            }
        }
        for (a, b, pair) in self.pairs() {
            let flags = s.flags[pair];
            let low_holds = flags & FORK_LOW != 0;
            if flags & DIRTY != 0 && at(flags, TOKEN_LOW, low_holds) {
                s.flags[pair] = moved(flags, FORK_LOW, !low_holds) & !DIRTY;
                moves.forks += 1;
                let (from, to) = if low_holds { (a, b) } else { (b, a) };
                let (fw, tw) = (self.owner_of(from), self.owner_of(to));
                if fw != tw {
                    moves.forks_remote += 1;
                    // BSP flushes everything at the barrier anyway; the
                    // call keeps the C1 write-all explicit.
                    transport.transfer(fw, tw, Some(to));
                }
                self.assert_precedence_acyclic(&s);
            }
        }
        self.count(moves);
    }

    /// Is `p` currently eating? (test/diagnostic helper)
    pub fn is_eating(&self, p: PhilId) -> bool {
        self.state.lock().unwrap().status[p as usize] == Status::Eating
    }

    /// Every pair as `(lower endpoint, higher endpoint, pair index)`, in
    /// pair-index order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (PhilId, PhilId, usize)> + '_ {
        (0..self.owner.len() as PhilId).flat_map(move |a| {
            let higher = self.neighbors_of(a).iter().filter(move |&&(b, _)| a < b);
            higher.map(move |&(b, pair)| (a, b, pair as usize))
        })
    }

    /// Check structural invariants; intended for tests at quiescent points.
    ///
    /// * no two neighbors are eating;
    /// * an eating philosopher holds all its forks;
    /// * when every philosopher is thinking, the precedence graph given by
    ///   dirty-fork directions is acyclic (no deadlock is latent).
    pub fn check_invariants(&self) {
        let s = self.state.lock().unwrap();
        for (a, b, _) in self.pairs() {
            assert!(
                !(s.status[a as usize] == Status::Eating && s.status[b as usize] == Status::Eating),
                "neighbors {a} and {b} both eating"
            );
        }
        for (p, st) in s.status.iter().enumerate() {
            if *st == Status::Eating {
                for &(q, pair) in self.neighbors_of(p as PhilId) {
                    assert!(
                        at(s.flags[pair as usize], FORK_LOW, (p as PhilId) < q),
                        "eating philosopher {p} missing a fork"
                    );
                }
            }
        }
        if s.status.iter().all(|st| *st == Status::Thinking) {
            assert!(
                self.precedence_acyclic(&s),
                "precedence graph has a cycle at quiescence"
            );
        }
    }

    /// In the Chandy–Misra precedence graph, an edge points from the
    /// philosopher that will defer to the one that has priority: the holder
    /// of a *clean* fork has priority, the holder of a *dirty* fork will
    /// yield. Returns `true` if that graph is acyclic.
    fn precedence_acyclic(&self, s: &State) -> bool {
        // Edge u -> v means v has priority over u (u yields to v): along a
        // dirty fork from its holder, along a clean one towards it. Kahn's
        // algorithm over the table's own adjacency.
        let n = self.owner.len();
        let yields_to = |u: PhilId, v: PhilId, pair: u32| {
            let flags = s.flags[pair as usize];
            at(flags, FORK_LOW, u < v) == (flags & DIRTY != 0)
        };
        let mut indeg = vec![0u32; n];
        for (a, b, pair) in self.pairs() {
            let winner = if yields_to(a, b, pair as u32) { b } else { a };
            indeg[winner as usize] += 1;
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &(v, pair) in self.neighbors_of(u) {
                if yields_to(u, v, pair) {
                    indeg[v as usize] -= 1;
                    if indeg[v as usize] == 0 {
                        queue.push(v);
                    }
                }
            }
        }
        seen == n
    }
}

/// Serialized protocol state of one fork table, as recorded by the
/// Section 6.4 checkpointing mechanism ("we change Giraph to also record
/// the relevant data structures that are used by the synchronization
/// techniques"). Captured at a global barrier, when no philosopher is
/// eating and no fork or token is in transit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForkSnapshot {
    /// `(fork_at_a, dirty, token_at_a)` per pair, in pair-index order
    /// (`a` is the pair's lower endpoint).
    pairs: Vec<(bool, bool, bool)>,
}

impl ForkTable {
    /// Capture the fork/token placement. Must be called at quiescence
    /// (between supersteps); panics if any philosopher is eating.
    pub fn snapshot(&self) -> ForkSnapshot {
        let s = self.state.lock().unwrap();
        assert!(
            s.status.iter().all(|st| *st == Status::Thinking),
            "checkpoint requires quiescence"
        );
        let tuple = |&f: &u8| (f & FORK_LOW != 0, f & DIRTY != 0, f & TOKEN_LOW != 0);
        ForkSnapshot {
            pairs: s.flags.iter().map(tuple).collect(),
        }
    }

    /// Restore a previously captured placement (recovery, Section 6.4).
    pub fn restore(&self, snapshot: &ForkSnapshot) {
        let mut s = self.state.lock().unwrap();
        assert!(
            s.status.iter().all(|st| *st == Status::Thinking),
            "recovery requires quiescence"
        );
        assert_eq!(
            s.flags.len(),
            snapshot.pairs.len(),
            "snapshot shape mismatch"
        );
        for (pair, &(fork_at_a, dirty, token_at_a)) in snapshot.pairs.iter().enumerate() {
            s.flags[pair] = moved(moved(0, FORK_LOW, fork_at_a), TOKEN_LOW, token_at_a)
                | if dirty { DIRTY } else { 0 };
        }
    }
}

/// Test-side construction from an arbitrary edge list — reversed pairs,
/// repeats and self-pairs allowed — sorted into the order
/// [`ForkTable::from_sorted_pairs`] takes.
#[cfg(test)]
impl ForkTable {
    pub(crate) fn from_edges(
        owner: Vec<WorkerId>,
        edges: &[(PhilId, PhilId)],
        metrics: Arc<Metrics>,
    ) -> Self {
        let mut pairs: Vec<_> = edges.iter().map(|&(x, y)| (x.min(y), x.max(y))).collect();
        pairs.retain(|&(a, b)| a != b);
        pairs.sort_unstable();
        pairs.dedup();
        Self::from_sorted_pairs(owner, metrics, |emit| {
            pairs.iter().for_each(|&(a, b)| emit(a, b));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{NetAction, NoopTransport, QueueTransport};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn table(owner: Vec<u32>, edges: &[(u32, u32)]) -> Arc<ForkTable> {
        let owner = owner.into_iter().map(WorkerId::new).collect();
        Arc::new(ForkTable::from_edges(
            owner,
            edges,
            Arc::new(Metrics::new()),
        ))
    }

    #[test]
    fn construction_counts() {
        let t = table(vec![0, 0, 1], &[(0, 1), (1, 2), (1, 0), (2, 2)]);
        assert_eq!(t.num_philosophers(), 3);
        // (0,1) deduped with (1,0); (2,2) self-pair ignored.
        assert_eq!(t.num_forks(), 2);
    }

    /// Pairs (0,1) (0,3) (1,2) (1,3) (2,4), handed over shuffled, with
    /// repeats, reversed pairs and self-pairs.
    const MESSY: [(u32, u32); 11] = [
        (4, 2),
        (1, 0),
        (3, 3),
        (3, 1),
        (0, 3),
        (2, 1),
        (0, 1),
        (1, 3),
        (0, 0),
        (2, 4),
        (3, 0),
    ];

    #[test]
    fn messy_edge_list_yields_sorted_pairs_in_section_6_3_placement() {
        let t = table(vec![0; 5], &MESSY);
        assert_eq!(t.num_forks(), 5);
        assert_eq!(
            [0, 1, 2, 3, 4].map(|p| t.degree(p)),
            [2, 3, 2, 2, 1],
            "one fork per distinct neighbor"
        );
        // Dirty fork at the higher id, token at the lower.
        const KEPT: (bool, bool, bool) = (false, true, true); // fork at the higher id
        const TAKEN: (bool, bool, bool) = (true, true, false); // pulled to the lower id
        assert_eq!(t.snapshot().pairs, [KEPT; 5]);
        t.check_invariants();

        // Pair indices ascend with (a, b): each eater below moves exactly
        // the forks of its own pairs.
        let eat = |p| {
            t.acquire(p, &NoopTransport);
            t.release(p, &NoopTransport);
        };
        eat(0); // (0,1) and (0,3): pairs 0 and 1
        assert_eq!(t.snapshot().pairs, [TAKEN, TAKEN, KEPT, KEPT, KEPT]);
        eat(4); // (2,4): pair 4, already at 4
        assert_eq!(t.snapshot().pairs, [TAKEN, TAKEN, KEPT, KEPT, KEPT]);
        eat(2); // (1,2) and (2,4): pairs 2 and 4
        assert_eq!(t.snapshot().pairs, [TAKEN, TAKEN, KEPT, KEPT, TAKEN]);
    }

    /// Philosopher 0 on worker 0 at the center of a star whose leaves sit on
    /// workers 1, 0, 2, 1.
    fn mixed_owner_star(metrics: Arc<Metrics>) -> ForkTable {
        let owner = [0, 1, 0, 2, 1].map(WorkerId::new).to_vec();
        ForkTable::from_edges(owner, &[(3, 0), (0, 1), (4, 0), (0, 2), (1, 0)], metrics)
    }

    #[test]
    fn star_traffic_is_queued_in_ascending_neighbor_order() {
        // The order the deterministic hosts' schedules are built on
        // (tests/model_check.rs::decision_logs_are_stable).
        let [w0, w1, w2] = [0, 1, 2].map(WorkerId::new);
        let request = |from, to| NetAction::Request { from, to };
        let transfer = |from, to, unit| NetAction::Transfer {
            from,
            to,
            unit: Some(unit),
        };
        let t = mixed_owner_star(Arc::new(Metrics::new()));
        let net = QueueTransport::default();
        // Every leaf yields its dirty fork at once; leaf 2 is local.
        assert!(t.try_acquire(0, &net));
        assert_eq!(
            net.drain(),
            [
                request(w0, w1),
                transfer(w1, w0, 0),
                request(w0, w2),
                transfer(w2, w0, 0),
                request(w0, w1),
                transfer(w1, w0, 0),
            ]
        );
        // Leaves ask while the center eats, in an order of their own ...
        for leaf in [3, 1, 4] {
            assert!(!t.try_acquire(leaf, &net));
        }
        assert_eq!(
            net.drain(),
            [request(w2, w0), request(w1, w0), request(w1, w0)]
        );
        // ... and are served in the center's adjacency order.
        t.release(0, &net);
        assert_eq!(
            net.drain(),
            [
                transfer(w0, w1, 1),
                transfer(w0, w2, 3),
                transfer(w0, w1, 4)
            ]
        );
    }

    #[test]
    fn batched_counters_match_the_queued_actions() {
        let m = Arc::new(Metrics::new());
        let t = mixed_owner_star(Arc::clone(&m));
        let net = QueueTransport::default();
        assert!(t.try_acquire(0, &net)); // 4 tokens, 4 forks; 3 + 3 remote
        for leaf in [1, 2, 3] {
            assert!(!t.try_acquire(leaf, &net)); // a token each, 2 remote
        }
        t.release(0, &net); // 3 forks, 2 remote
        let actions = net.drain();
        let transfers = actions
            .iter()
            .filter(|a| matches!(a, NetAction::Transfer { .. }))
            .count() as u64;
        let requests = actions.len() as u64 - transfers;
        let s = m.snapshot();
        assert_eq!((s.fork_transfers, s.request_tokens), (7, 7));
        assert_eq!((s.fork_transfers_remote, s.request_tokens_remote), (5, 5));
        assert_eq!(
            (transfers, requests),
            (5, 5),
            "only remote moves are queued"
        );
    }

    #[test]
    fn restore_returns_the_table_to_a_snapshot() {
        let t = table(vec![0, 1, 0, 1, 0], &MESSY);
        let net = QueueTransport::default();
        let initial = t.snapshot();
        for p in [1, 3, 0] {
            t.acquire(p, &net);
            t.release(p, &net);
        }
        let moved = t.snapshot();
        assert_ne!(moved, initial);
        t.restore(&initial);
        assert_eq!(t.snapshot(), initial);
        t.restore(&moved);
        assert_eq!(t.snapshot(), moved);
        t.check_invariants();
    }

    #[test]
    fn initial_precedence_is_acyclic() {
        let t = table(vec![0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        t.check_invariants();
    }

    #[test]
    fn lone_philosopher_eats_immediately() {
        let t = table(vec![0, 0], &[]);
        t.acquire(0, &NoopTransport);
        assert!(t.is_eating(0));
        t.release(0, &NoopTransport);
        assert!(!t.is_eating(0));
    }

    #[test]
    fn sequential_pair_alternates() {
        let t = table(vec![0, 0], &[(0, 1)]);
        for _ in 0..5 {
            t.acquire(0, &NoopTransport);
            t.release(0, &NoopTransport);
            t.acquire(1, &NoopTransport);
            t.release(1, &NoopTransport);
        }
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "acquired twice")]
    fn double_acquire_panics() {
        let t = table(vec![0, 0], &[]);
        t.acquire(0, &NoopTransport);
        t.acquire(0, &NoopTransport);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_without_acquire_panics() {
        let t = table(vec![0], &[]);
        t.release(0, &NoopTransport);
    }

    #[test]
    fn cross_worker_traffic_is_queued_in_call_order() {
        // Philosophers on different workers: the request leaves first, then
        // the fork comes back carrying its unit (the C1 flush site).
        let (w0, w1) = (WorkerId::new(0), WorkerId::new(1));
        let t = table(vec![0, 1], &[(0, 1)]);
        let net = QueueTransport::default();
        // Initially the dirty fork is at 1 (larger id), token at 0.
        t.acquire(0, &net);
        assert_eq!(
            net.drain(),
            vec![
                NetAction::Request { from: w0, to: w1 },
                NetAction::Transfer {
                    from: w1,
                    to: w0,
                    unit: Some(0)
                },
            ]
        );
        t.release(0, &net);
        assert!(net.drain().is_empty(), "nobody asked for the fork back");
    }

    #[test]
    fn same_worker_transfer_records_nothing() {
        let t = table(vec![0, 0], &[(0, 1)]);
        let net = QueueTransport::default();
        t.acquire(0, &net);
        t.release(0, &net);
        assert!(net.drain().is_empty(), "no cross-worker traffic expected");
    }

    #[test]
    fn metrics_count_forks_and_tokens() {
        let m = Arc::new(Metrics::new());
        let t = ForkTable::from_edges(
            vec![WorkerId::new(0), WorkerId::new(1)],
            &[(0, 1)],
            Arc::clone(&m),
        );
        t.acquire(0, &NoopTransport); // request token + fork transfer
        t.release(0, &NoopTransport);
        let s = m.snapshot();
        assert_eq!(s.request_tokens, 1);
        assert_eq!(s.request_tokens_remote, 1);
        assert_eq!(s.fork_transfers, 1);
        assert_eq!(s.fork_transfers_remote, 1);
    }

    #[test]
    fn deferred_transfer_after_eating() {
        // 0 eats; 1 requests while 0 eats; fork arrives on 0's release.
        let t = table(vec![0, 0], &[(0, 1)]);
        t.acquire(0, &NoopTransport);
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || {
            t2.acquire(1, &NoopTransport);
            t2.release(1, &NoopTransport);
        });
        // Give the hungry thread time to lodge its request.
        thread::sleep(Duration::from_millis(50));
        assert!(!t.is_eating(1), "1 must wait while 0 eats");
        t.release(0, &NoopTransport);
        h.join().unwrap();
        t.check_invariants();
    }

    /// Run `rounds` eat cycles per philosopher on `threads` OS threads and
    /// assert completion (deadlock/starvation freedom) and mutual exclusion
    /// (asserted inside `acquire`).
    fn stress(owner: Vec<u32>, edges: &[(u32, u32)], rounds: usize) {
        let t = table(owner, edges);
        let eaten: Arc<Vec<AtomicU64>> = Arc::new(
            (0..t.num_philosophers())
                .map(|_| AtomicU64::new(0))
                .collect(),
        );
        let handles: Vec<_> = (0..t.num_philosophers() as u32)
            .map(|p| {
                let t = Arc::clone(&t);
                let eaten = Arc::clone(&eaten);
                thread::spawn(move || {
                    for _ in 0..rounds {
                        t.acquire(p, &NoopTransport);
                        eaten[p as usize].fetch_add(1, Ordering::Relaxed);
                        t.release(p, &NoopTransport);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("philosopher thread panicked");
        }
        for (p, count) in eaten.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::Relaxed),
                rounds as u64,
                "philosopher {p} starved"
            );
        }
        t.check_invariants();
    }

    #[test]
    fn stress_pair() {
        stress(vec![0, 1], &[(0, 1)], 200);
    }

    #[test]
    fn stress_triangle() {
        stress(vec![0, 0, 1], &[(0, 1), (1, 2), (0, 2)], 150);
    }

    #[test]
    fn stress_ring_of_five() {
        stress(
            vec![0, 0, 1, 1, 1],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
            100,
        );
    }

    #[test]
    fn stress_complete_k5() {
        let edges: Vec<(u32, u32)> = (0..5)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .collect();
        stress(vec![0, 1, 0, 1, 0], &edges, 80);
    }

    #[test]
    fn stress_star() {
        let edges: Vec<(u32, u32)> = (1..8).map(|i| (0, i)).collect();
        stress((0..8).map(|i| i % 3).collect(), &edges, 60);
    }

    #[test]
    fn try_acquire_steps_the_protocol_without_blocking() {
        // Initially the dirty fork sits at 1 (larger id), token at 0.
        let t = table(vec![0, 0], &[(0, 1)]);
        // 0 requests and immediately receives the dirty fork.
        assert!(t.try_acquire(0, &NoopTransport));
        assert!(t.is_eating(0));
        // 1 lodges a request against the eating 0: stays hungry.
        assert!(!t.try_acquire(1, &NoopTransport));
        assert_eq!(t.waiting_on(1), vec![0]);
        assert!(!t.is_eating(1));
        // Re-polling while still blocked is a no-op, not a panic.
        assert!(!t.try_acquire(1, &NoopTransport));
        // 0 releases: the deferred transfer hands the fork to 1.
        t.release(0, &NoopTransport);
        assert!(t.try_acquire(1, &NoopTransport));
        assert!(t.is_eating(1));
        assert!(t.waiting_on(1).is_empty());
        t.release(1, &NoopTransport);
        t.check_invariants();
    }

    #[test]
    fn try_acquire_matches_blocking_acquire() {
        // A chain, uncontended: the stepped API must leave the table where
        // the blocking one does.
        let t = table(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        assert!(t.try_acquire(0, &NoopTransport));
        t.release(0, &NoopTransport);
        let t2 = table(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        t2.acquire(0, &NoopTransport);
        t2.release(0, &NoopTransport);
        assert_eq!(t.snapshot(), t2.snapshot());
    }

    #[test]
    fn neighbors_reads_the_adjacency_ascending() {
        let t = table(vec![0; 5], &MESSY);
        let of = |p| t.neighbors(p).collect::<Vec<_>>();
        assert_eq!([of(0), of(1), of(4)], [vec![1, 3], vec![0, 2, 3], vec![2]]);
        assert_eq!(t.neighbors(1).len(), t.degree(1));
    }

    #[test]
    #[should_panic(expected = "acquired twice")]
    fn try_acquire_while_eating_panics() {
        let t = table(vec![0, 0], &[]);
        t.try_acquire(0, &NoopTransport);
        t.try_acquire(0, &NoopTransport);
    }

    #[test]
    fn telemetry_records_wait_and_hold() {
        use sg_metrics::{MetricValue, Telemetry};
        let m = Arc::new(Metrics::new());
        let tel = Arc::new(Telemetry::new());
        assert!(m.attach_telemetry(Arc::clone(&tel)));
        let t = ForkTable::from_edges(
            vec![WorkerId::new(0), WorkerId::new(0)],
            &[(0, 1)],
            Arc::clone(&m),
        );
        t.enable_telemetry("partition-lock");
        for _ in 0..3 {
            t.acquire(0, &NoopTransport);
            t.release(0, &NoopTransport);
        }
        let snap = tel.snapshot();
        let labels = [("technique", "partition-lock")];
        for name in ["sg_sync_acquire_wait_ns", "sg_sync_hold_ns"] {
            match snap.get(name, &labels) {
                Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 3, "{name}"),
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn telemetry_disabled_without_registry() {
        let t = table(vec![0, 0], &[(0, 1)]);
        t.enable_telemetry("vertex-lock"); // no registry attached: no-op
        t.acquire(0, &NoopTransport);
        t.release(0, &NoopTransport);
    }

    #[test]
    fn waiting_on_empty_for_thinking_and_eating() {
        let t = table(vec![0, 0], &[(0, 1)]);
        assert!(t.waiting_on(0).is_empty());
        t.acquire(0, &NoopTransport);
        assert!(t.waiting_on(0).is_empty());
        t.release(0, &NoopTransport);
    }

    #[test]
    fn non_neighbors_eat_concurrently() {
        // 0-1 conflict, 2 is independent: while 0 eats, 2 must be able to
        // acquire without waiting.
        let t = table(vec![0, 0, 1], &[(0, 1)]);
        t.acquire(0, &NoopTransport);
        t.acquire(2, &NoopTransport);
        assert!(t.is_eating(0) && t.is_eating(2));
        t.release(0, &NoopTransport);
        t.release(2, &NoopTransport);
    }

    #[test]
    fn halted_philosopher_does_not_block_neighbors() {
        // Philosopher 1 never acquires (models a halted partition,
        // Section 5.4's skip optimization): 0 and 2 keep making progress.
        let t = table(vec![0, 1, 2], &[(0, 1), (1, 2)]);
        for _ in 0..50 {
            t.acquire(0, &NoopTransport);
            t.release(0, &NoopTransport);
            t.acquire(2, &NoopTransport);
            t.release(2, &NoopTransport);
        }
        t.check_invariants();
    }
}
