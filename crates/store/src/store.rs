//! The versioned vertex store: two inline versions per vertex in dense,
//! lock-striped shards, older versions chained only while a snapshot may
//! read them, prefix-consistent snapshots, and GC over what was written.
//!
//! ## Layout
//!
//! Vertex `v` lives in shard `v & (STRIPES - 1)` at slot `v >> 6`, so an
//! install or a read takes exactly one stripe lock and different stripes
//! never contend. A slot holds the vertex's newest version and the one it
//! superseded, each a value and its creating XID (`xmin`). `xmax` stays
//! implicit: a version's overwriter is the next newer one. Versions older
//! than those two exist only while a snapshot can still read them, in the
//! shard's chain map. Commit visibility is the [`Tst`]'s business and
//! flips without touching a slot.
//!
//! ## Retention rule
//!
//! A version is kept while some reader can reach it. A reader reading at
//! timestamp `ts` resolves a vertex to its newest version committed at or
//! below `ts`, so a version is unreachable once a newer one is committed at
//! or below every timestamp a reader holds or will take. Aborted versions
//! are unreachable from the start. The readers are the open snapshots
//! (their `read_ts`) and [`VertexStore::read_latest`], which takes the
//! frontier *under the stripe lock it resolves under*. Every future
//! timestamp is at least today's frontier, because the frontier only grows.
//!
//! ## Install
//!
//! An install makes the new version the newest, and the old newest the
//! superseded one. The old superseded version then:
//! - is overwritten with no check at all when GC already found it dead;
//! - is overwritten (and counted as reclaimed) when no snapshot is pinned
//!   and the old newest is committed at or below the frontier, both read
//!   under the install's stripe lock;
//! - otherwise moves onto the vertex's chain.
//!
//! A run with no snapshot open therefore writes one slot per execution and
//! allocates nothing.
//!
//! ## Pin protocol
//!
//! [`VertexStore::open_snapshot`] raises `pins`, issues a `SeqCst` fence,
//! and only then reads the frontier and registers its `read_ts`. An
//! install deciding whether to overwrite reads the frontier, issues a
//! `SeqCst` fence, and only then reads `pins`. The two fences are ordered
//! one way or the other:
//! - the opener's first: the install sees the raised pin, and chains;
//! - the install's first: the opener's frontier read comes after the
//!   install's, so it is no older, and the version the install overwrote
//!   was superseded by one the snapshot sees.
//!
//! An open takes no stripe lock. Raising the pin under all 64 stripe locks
//! would order the two as well, but queues every reader behind each open:
//! on a loaded host `sg-bench serve`'s snapshot sampler then finished no
//! open during a whole writer run. A release unregisters first and lowers
//! the pin after, so the pin never counts fewer snapshots than are
//! registered.
//!
//! ## Why no install frees a version a reader can reach
//!
//! An install drops a superseded version only when its newest version `N`
//! is committed at `seq ≤ F`, with `F` the frontier read under the stripe
//! lock, or when GC found `N` committed at or below its horizon. The
//! install saw no pin, so every snapshot not yet open reads at least `F`
//! (pin protocol) and sees `N` or newer. A `read_latest` that comes
//! later takes its timestamp under the same lock, after the install, so it
//! also reads at least `F`. A `read_latest` that took its timestamp before
//! the lock could read below `seq` and find nothing: that is why the
//! timestamp is taken under the lock.
//!
//! ## GC
//!
//! The horizon is the oldest open `read_ts`, or the frontier when none is
//! open. It is read under the registry lock, so no snapshot can register
//! below a horizon in use. A pass visits only the vertices written since
//! the last pass that still hold a superseded version (a per-stripe
//! bitmap), plus the chained ones. Everything older than the newest version
//! committed at or below the horizon goes, and so does every aborted
//! version.

use crate::tst::{CommitSeq, Tst, Txn, TxnStatus, Xid};
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of shards (power of two, the PR-4 store's stripe count).
const STRIPES: usize = 64;
const STRIPE_SHIFT: u32 = 6;
/// The XID of an absent or dead version: XIDs count up from 1, so none is
/// ever allocated this value.
const NONE: Xid = Xid::MAX;

/// A vertex's inline values, newest first. Which of them are live is kept
/// beside them in [`Slot`]'s XIDs; a dead one keeps its stale value until
/// an install overwrites it.
#[derive(Debug)]
enum Inline<V> {
    Empty,
    One(V),
    Two(V, V),
}

/// One vertex: its newest version and the one that version superseded.
#[derive(Debug)]
struct Slot<V> {
    /// XID of the newest version (`NONE` when it was aborted and nothing
    /// was under it).
    cur: Xid,
    /// XID of the superseded version (`NONE` when dead or absent).
    prev: Xid,
    vals: Inline<V>,
}

/// One stripe: dense slots for its vertices plus the chains.
#[derive(Debug)]
struct Shard<V> {
    /// Per local vertex (`v >> STRIPE_SHIFT`).
    slots: Vec<Slot<V>>,
    /// Versions older than a slot's superseded one, oldest first, keyed by
    /// local vertex. Non-empty only while a snapshot pins them; a chained
    /// slot always holds two inline versions.
    chains: BTreeMap<u32, Vec<(Xid, V)>>,
    /// One bit per local vertex written since the last GC pass, or still
    /// holding a superseded version GC could not yet drop.
    dirty: Vec<u64>,
    /// Counters kept under the stripe lock the hot path already holds, so
    /// an install pays no atomic for bookkeeping.
    installs: u64,
    /// Versions overwritten by an install or dropped by GC.
    reclaimed: u64,
    /// Versions in `chains`.
    chained: u64,
}

/// Would a reader at `ts` see the version created by `xid`?
#[inline]
fn seen(tst: &Tst, xid: Xid, ts: CommitSeq) -> bool {
    xid != NONE && tst.visible(xid, ts)
}

impl<V> Shard<V> {
    fn new(len: usize) -> Self {
        Self {
            slots: (0..len)
                .map(|_| Slot {
                    cur: NONE,
                    prev: NONE,
                    vals: Inline::Empty,
                })
                .collect(),
            chains: BTreeMap::new(),
            dirty: vec![0; len.div_ceil(64)],
            installs: 0,
            reclaimed: 0,
            chained: 0,
        }
    }

    /// The value of `local` a reader at `ts` sees.
    fn resolve(&self, tst: &Tst, local: usize, ts: CommitSeq) -> Option<&V> {
        let slot = &self.slots[local];
        match &slot.vals {
            Inline::Empty => None,
            Inline::One(c) => seen(tst, slot.cur, ts).then_some(c),
            Inline::Two(c, p) => {
                if seen(tst, slot.cur, ts) {
                    Some(c)
                } else if seen(tst, slot.prev, ts) {
                    Some(p)
                } else {
                    self.chains
                        .get(&(local as u32))?
                        .iter()
                        .rev()
                        .find(|&&(xid, _)| seen(tst, xid, ts))
                        .map(|(_, v)| v)
                }
            }
        }
    }
}

impl<V> Slot<V> {
    /// GC of a slot with no chain against `horizon`. Returns the versions
    /// dropped and whether the slot must be visited again (it still holds
    /// a superseded version, or its newest is undecided).
    fn trim(&mut self, tst: &Tst, horizon: CommitSeq) -> (u64, bool) {
        let mut freed = 0;
        loop {
            if self.cur == NONE {
                return (freed, false);
            }
            match tst.status(self.cur) {
                TxnStatus::Committed(seq) if seq <= horizon => {
                    // Every reader sees this version or a newer one.
                    if self.prev != NONE {
                        self.prev = NONE;
                        freed += 1;
                    }
                    return (freed, false);
                }
                TxnStatus::Aborted => {
                    // The superseded version (if live) becomes the newest.
                    if let Inline::Two(c, p) = &mut self.vals {
                        std::mem::swap(c, p);
                    }
                    self.cur = std::mem::replace(&mut self.prev, NONE);
                    freed += 1;
                }
                status => {
                    if self.prev != NONE && tst.status(self.prev) == TxnStatus::Aborted {
                        self.prev = NONE;
                        freed += 1;
                    }
                    let undecided = status == TxnStatus::InProgress;
                    return (freed, self.prev != NONE || undecided);
                }
            }
        }
    }

    /// GC of a chained slot: lay every version out oldest first in
    /// `chain`, drop what no reader can reach, and pack the newest two back
    /// inline. Returns the versions dropped; `chain` keeps the rest.
    fn trim_chained(&mut self, tst: &Tst, chain: &mut Vec<(Xid, V)>, horizon: CommitSeq) -> u64 {
        let Inline::Two(c, p) = std::mem::replace(&mut self.vals, Inline::Empty) else {
            unreachable!("a chained slot holds two inline versions")
        };
        if self.prev != NONE {
            chain.push((self.prev, p));
        }
        if self.cur != NONE {
            chain.push((self.cur, c));
        }
        let held = chain.len();
        let anchor = chain.iter().rposition(
            |&(xid, _)| matches!(tst.status(xid), TxnStatus::Committed(s) if s <= horizon),
        );
        if let Some(a) = anchor {
            chain.drain(..a);
        }
        chain.retain(|&(xid, _)| tst.status(xid) != TxnStatus::Aborted);
        let freed = (held - chain.len()) as u64;
        (self.cur, self.prev) = (NONE, NONE);
        if let Some((xc, c)) = chain.pop() {
            self.cur = xc;
            self.vals = match chain.pop() {
                Some((xp, p)) => {
                    self.prev = xp;
                    Inline::Two(c, p)
                }
                None => Inline::One(c),
            };
        }
        freed
    }
}

/// What step 1 of a split install read, for step 2
/// ([`VertexStore::step_install_observe`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct InstallTicket {
    frontier: CommitSeq,
}

/// A prefix-consistent snapshot handle: `read_ts` captured at open.
/// Registered in the store's open-snapshot table until released, which is
/// what holds the GC horizon back. Copy on purpose — releasing is an
/// explicit store call ([`VertexStore::release_snapshot`]); the
/// [`crate::SnapshotView`] guard does it on drop for callers who want
/// RAII.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Registry id (unique per store).
    pub id: u64,
    /// Commit-log frontier at open: this snapshot sees exactly the
    /// commits with sequence ≤ `read_ts`.
    pub read_ts: CommitSeq,
}

/// Counters the serving and bench layers report.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Versions installed since creation (including bootstrap).
    pub installs: u64,
    /// Versions reclaimed: overwritten in place by an install, or dropped
    /// by GC.
    pub gc_freed: u64,
    /// Versions held and not yet found unreachable (`installs −
    /// gc_freed`).
    pub live_versions: u64,
    /// Versions older than their vertex's two inline ones, held only
    /// because a snapshot may read them.
    pub chained_versions: u64,
    /// Currently open snapshots.
    pub open_snapshots: u64,
    /// Commit-log frontier minus the GC horizon: how far the oldest open
    /// snapshot holds GC back (0 with none open).
    pub gc_horizon_lag: u64,
}

/// The MVCC vertex store. `V` is the vertex value type; the in-process
/// engine instantiates it with the program's value, the cluster worker
/// with the wire word (`u64`).
pub struct VertexStore<V> {
    tst: Tst,
    shards: Box<[Mutex<Shard<V>>]>,
    num_vertices: usize,
    /// Open snapshots: `(id, read_ts)`. Opens/releases are rare (one per
    /// serving snapshot, never per vertex), so a mutex is fine here.
    open: Mutex<Vec<(u64, CommitSeq)>>,
    /// Snapshots pinned and not yet released; see the module docs. The
    /// raise and the install's read are ordered by the `SeqCst` fences
    /// around them, so the accesses themselves are `Relaxed`. An install
    /// that still reads a count a release has lowered only chains a version
    /// it could have dropped.
    pins: AtomicU64,
    next_snap_id: AtomicU64,
}

impl<V> VertexStore<V> {
    /// An empty store for `num_vertices` vertices (no versions yet; seed
    /// initial state with [`VertexStore::install_bootstrap`]).
    pub fn new(num_vertices: usize) -> Self {
        let per_shard = num_vertices.div_ceil(STRIPES);
        Self {
            tst: Tst::new(),
            shards: (0..STRIPES)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            num_vertices,
            open: Mutex::new(Vec::new()),
            pins: AtomicU64::new(0),
            next_snap_id: AtomicU64::new(0),
        }
    }

    /// Number of vertices this store was sized for.
    pub fn len(&self) -> usize {
        self.num_vertices
    }

    /// `true` when sized for zero vertices.
    pub fn is_empty(&self) -> bool {
        self.num_vertices == 0
    }

    /// The status table (workers expose its counters as telemetry).
    pub fn tst(&self) -> &Tst {
        &self.tst
    }

    #[inline]
    fn locate(&self, v: usize) -> (&Mutex<Shard<V>>, usize) {
        debug_assert!(v < self.num_vertices, "vertex {v} out of range");
        (&self.shards[v & (STRIPES - 1)], v >> STRIPE_SHIFT)
    }

    /// Open a write transaction.
    #[inline]
    pub fn begin(&self) -> Txn {
        self.tst.begin()
    }

    /// Commit a transaction: its versions become visible to snapshots
    /// opened from now on, atomically.
    #[inline]
    pub fn commit(&self, txn: Txn) -> CommitSeq {
        self.tst.commit(txn)
    }

    /// Commit by raw XID (the recorder commit-hook path).
    #[inline]
    pub fn commit_xid(&self, xid: Xid) -> CommitSeq {
        self.tst.commit_xid(xid)
    }

    /// Abort a transaction: its versions are dead on arrival and will be
    /// dropped by the next GC pass over their vertices.
    #[inline]
    pub fn abort(&self, txn: Txn) {
        self.tst.abort(txn);
    }

    /// Install a version of vertex `v` created by `xid`, invisible until
    /// the transaction commits. What happens to the version it pushes out
    /// of the slot is the module docs' install rule. Writers to one vertex
    /// must be externally serialized (the engine's partition mutex does
    /// this); concurrent writers to different vertices only contend when
    /// they share a stripe.
    pub fn install(&self, v: usize, value: V, xid: Xid) {
        self.step_install_apply(v, value, xid, None);
    }

    /// Can a reader still reach the version that `newest` superseded?
    /// Called under `newest`'s stripe lock, after the frontier was read
    /// (see the module docs' pin protocol).
    #[inline]
    fn superseded_reachable(&self, newest: Xid, frontier: CommitSeq) -> bool {
        fence(Ordering::SeqCst);
        if self.pins.load(Ordering::Relaxed) != 0 {
            return true;
        }
        match self.tst.status(newest) {
            TxnStatus::Committed(seq) => seq > frontier,
            _ => true,
        }
    }

    /// Install the bootstrap (initial) version of `v`: XID 0, visible to
    /// every snapshot including `read_ts` 0.
    pub fn install_bootstrap(&self, v: usize, value: V) {
        self.install(v, value, 0);
    }

    /// Step 1 of an install, split off for the interleaving test: read
    /// the frontier the overwrite decision compares against. `install`
    /// reads it in step 2 instead, under the stripe lock and only when
    /// the slot holds a live superseded version; reading it earlier only
    /// makes the decision more conservative.
    #[doc(hidden)]
    pub fn step_install_observe(&self) -> InstallTicket {
        InstallTicket {
            frontier: self.tst.read_ts(),
        }
    }

    /// Step 2 of an install: take the stripe lock, decide what happens to
    /// the superseded version (module docs), write the slot.
    #[doc(hidden)]
    pub fn step_install_apply(&self, v: usize, value: V, xid: Xid, ticket: Option<InstallTicket>) {
        let (shard, local) = self.locate(v);
        let mut guard = shard.lock().unwrap();
        let s = &mut *guard;
        s.installs += 1;
        s.dirty[local / 64] |= 1 << (local % 64);
        let slot = &mut s.slots[local];
        let newest = std::mem::replace(&mut slot.cur, xid);
        match &mut slot.vals {
            Inline::Two(c, p) => {
                let superseded = std::mem::replace(p, value);
                std::mem::swap(c, p);
                if slot.prev != NONE {
                    let frontier = ticket.map_or_else(|| self.tst.read_ts(), |t| t.frontier);
                    if self.superseded_reachable(newest, frontier) {
                        s.chains
                            .entry(local as u32)
                            .or_default()
                            .push((slot.prev, superseded));
                        s.chained += 1;
                    } else {
                        s.reclaimed += 1;
                    }
                }
            }
            Inline::One(_) => {
                let Inline::One(c) = std::mem::replace(&mut slot.vals, Inline::Empty) else {
                    unreachable!()
                };
                slot.vals = Inline::Two(value, c);
            }
            Inline::Empty => slot.vals = Inline::One(value),
        }
        slot.prev = newest;
    }

    /// Latest committed value of `v` as of the current frontier, read
    /// under `v`'s stripe lock.
    pub fn read_latest(&self, v: usize) -> Option<V>
    where
        V: Clone,
    {
        self.step_read_finish(v, self.step_read_start())
    }

    /// Value of `v` visible to `snap`.
    pub fn read_at(&self, v: usize, snap: &Snapshot) -> Option<V>
    where
        V: Clone,
    {
        self.step_read_finish(v, Some(snap.read_ts))
    }

    /// Open a snapshot: pins the store against in-place overwrites, then
    /// captures the frontier and registers it so GC cannot reclaim anything
    /// the snapshot can still see. Release with
    /// [`VertexStore::release_snapshot`].
    pub fn open_snapshot(&self) -> Snapshot {
        let id = self.step_open_pin();
        self.step_open_register(id)
    }

    /// Release a snapshot, letting the GC horizon advance past it and, once
    /// none is open, installs overwrite in place again. Releasing twice (or
    /// a foreign id) is a no-op.
    pub fn release_snapshot(&self, snap: Snapshot) {
        let mut open = self.open.lock().unwrap();
        let held = open.len();
        open.retain(|&(id, _)| id != snap.id);
        if open.len() < held {
            self.pins.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The GC horizon: the oldest open snapshot's `read_ts`, or the
    /// current frontier when none are open.
    pub fn gc_horizon(&self) -> CommitSeq {
        let open = self.open.lock().unwrap();
        open.iter()
            .map(|&(_, ts)| ts)
            .min()
            .unwrap_or_else(|| self.tst.read_ts())
    }

    /// Reclaim versions no open or future snapshot can see: everything
    /// older than the newest version committed at or below the horizon,
    /// plus aborted versions. Visits only the vertices written since the
    /// last pass that still hold a superseded version, and the chained
    /// ones. Returns the number of versions dropped by this pass (an
    /// install's in-place overwrites are counted in
    /// [`StoreStats::gc_freed`], not here). Safe to call concurrently with
    /// installs and reads.
    pub fn gc(&self) -> usize {
        let horizon = self.gc_horizon();
        let mut freed = 0u64;
        for shard in self.shards.iter() {
            let mut guard = shard.lock().unwrap();
            let Shard {
                slots,
                chains,
                dirty,
                reclaimed,
                chained,
                ..
            } = &mut *guard;
            let before = *reclaimed;
            chains.retain(|&local, chain| {
                let held = chain.len() as u64;
                *reclaimed += slots[local as usize].trim_chained(&self.tst, chain, horizon);
                *chained = *chained + chain.len() as u64 - held;
                // The bitmap pass below takes the slot over once its
                // chain is gone.
                dirty[local as usize / 64] |= 1 << (local % 64);
                !chain.is_empty()
            });
            for (w, word) in dirty.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let local = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (dropped, again) = slots[local].trim(&self.tst, horizon);
                    *reclaimed += dropped;
                    if !again {
                        *word &= !(1 << (local % 64));
                    }
                }
            }
            freed += *reclaimed - before;
        }
        freed as usize
    }

    /// Fold a checksum over every vertex at `snap` with the caller's
    /// hash. The fold is an order-independent wrapping sum, so the result
    /// depends only on the visible `(vertex, value)` set — re-reading the
    /// same snapshot must reproduce it bit for bit.
    pub fn checksum_at(&self, snap: &Snapshot, hash: impl Fn(u32, &V) -> u64) -> u64
    where
        V: Clone,
    {
        self.checksum_range(snap, 0..self.num_vertices, hash)
    }

    /// [`VertexStore::checksum_at`] over a vertex subrange (cluster
    /// workers checksum only the vertices they own).
    pub fn checksum_range(
        &self,
        snap: &Snapshot,
        range: std::ops::Range<usize>,
        hash: impl Fn(u32, &V) -> u64,
    ) -> u64
    where
        V: Clone,
    {
        let mut sum = 0u64;
        for v in range {
            if let Some(val) = self.read_at(v, snap) {
                sum = sum.wrapping_add(hash(v as u32, &val));
            }
        }
        sum
    }

    /// Export every committed version the store still holds as
    /// `(commit_seq, vertex, value)`, sorted by sequence (bootstrap
    /// versions come first with seq 0) — the serial-prefix oracle. Every
    /// version an open snapshot can read is held, so replaying the list in
    /// order through a flat array of initial values reproduces, for every
    /// open snapshot, exactly the state it observes at its `read_ts`.
    /// Versions dropped before a snapshot opened were each superseded by a
    /// held version at or below its `read_ts`, so the replay overwrites
    /// them anyway.
    pub fn export_commits(&self) -> Vec<(CommitSeq, u32, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let s = shard.lock().unwrap();
            for (local, slot) in s.slots.iter().enumerate() {
                let v = ((local << STRIPE_SHIFT) | si) as u32;
                let inline = match &slot.vals {
                    Inline::Empty => [None, None],
                    Inline::One(c) => [Some((slot.cur, c)), None],
                    Inline::Two(c, p) => [Some((slot.cur, c)), Some((slot.prev, p))],
                };
                let chain = s.chains.get(&(local as u32)).into_iter().flatten();
                for (xid, val) in inline
                    .into_iter()
                    .flatten()
                    .chain(chain.map(|(x, v)| (*x, v)))
                {
                    if xid == NONE {
                        continue;
                    }
                    if let TxnStatus::Committed(seq) = self.tst.status(xid) {
                        out.push((seq, v, val.clone()));
                    }
                }
            }
        }
        out.sort_by_key(|&(seq, v, _)| (seq, v));
        out
    }

    /// Current counters, summed over the stripes (each stripe lock taken
    /// once): call it once per barrier or tick, never per execution.
    pub fn stats(&self) -> StoreStats {
        let (mut installs, mut reclaimed, mut chained) = (0, 0, 0);
        for shard in self.shards.iter() {
            let s = shard.lock().unwrap();
            installs += s.installs;
            reclaimed += s.reclaimed;
            chained += s.chained;
        }
        let open_snapshots = self.open.lock().unwrap().len() as u64;
        let horizon = self.gc_horizon();
        StoreStats {
            installs,
            gc_freed: reclaimed,
            live_versions: installs.saturating_sub(reclaimed),
            chained_versions: chained,
            open_snapshots,
            gc_horizon_lag: self.tst.read_ts().saturating_sub(horizon),
        }
    }

    // ------------------------------------------------------------------
    // Protocol steps, exposed so the interleaving test can run an
    // installer, a reader and a snapshot opener through every step order
    // by hand, as `Tst::step_*` are for committers. Production code goes
    // through `install`, `read_latest` and `open_snapshot`.
    // ------------------------------------------------------------------

    /// Step 1 of `read_latest`: what happens before the stripe lock —
    /// nothing. `Some(ts)` here would be a timestamp that an install or a
    /// GC pass can overtake before the lock.
    #[doc(hidden)]
    #[inline]
    pub fn step_read_start(&self) -> Option<CommitSeq> {
        None
    }

    /// Step 2 of a read: take `v`'s stripe lock and resolve at `ts`, or at
    /// the frontier read under the lock when `ts` is `None`.
    #[doc(hidden)]
    pub fn step_read_finish(&self, v: usize, ts: Option<CommitSeq>) -> Option<V>
    where
        V: Clone,
    {
        let (shard, local) = self.locate(v);
        let s = shard.lock().unwrap();
        let ts = ts.unwrap_or_else(|| self.tst.read_ts());
        s.resolve(&self.tst, local, ts).cloned()
    }

    /// Step 1 of `open_snapshot`: raise the pin, then the fence that pairs
    /// with the install's (module docs). Returns the snapshot's id.
    #[doc(hidden)]
    pub fn step_open_pin(&self) -> u64 {
        let id = self.next_snap_id.fetch_add(1, Ordering::Relaxed);
        self.pins.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        id
    }

    /// Step 2 of `open_snapshot`: read the frontier and register it, both
    /// under the registry lock, so GC (which computes its horizon under
    /// that lock) never works from a horizon above a snapshot it has not
    /// seen.
    #[doc(hidden)]
    pub fn step_open_register(&self, id: u64) -> Snapshot {
        let mut open = self.open.lock().unwrap();
        let read_ts = self.tst.read_ts();
        open.push((id, read_ts));
        Snapshot { id, read_ts }
    }
}

impl<V> std::fmt::Debug for VertexStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VertexStore")
            .field("num_vertices", &self.num_vertices)
            .field("tst", &self.tst)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: usize) -> VertexStore<u64> {
        let st = VertexStore::new(n);
        for v in 0..n {
            st.install_bootstrap(v, v as u64);
        }
        st
    }

    #[test]
    fn bootstrap_visible_at_ts_zero() {
        let st = seeded(100);
        let snap = st.open_snapshot();
        assert_eq!(snap.read_ts, 0);
        for v in 0..100 {
            assert_eq!(st.read_at(v, &snap), Some(v as u64));
        }
        st.release_snapshot(snap);
    }

    #[test]
    fn uncommitted_version_invisible_then_flips() {
        let st = seeded(4);
        let txn = st.begin();
        st.install(2, 99, txn.xid);
        let before = st.open_snapshot();
        assert_eq!(st.read_at(2, &before), Some(2));
        assert_eq!(st.read_latest(2), Some(2));
        st.commit(txn);
        // The old snapshot still sees the old world; a new one sees 99.
        assert_eq!(st.read_at(2, &before), Some(2));
        let after = st.open_snapshot();
        assert_eq!(st.read_at(2, &after), Some(99));
        assert_eq!(st.read_latest(2), Some(99));
        st.release_snapshot(before);
        st.release_snapshot(after);
    }

    #[test]
    fn aborted_version_never_visible_and_gcd() {
        let st = seeded(4);
        let txn = st.begin();
        st.install(1, 7, txn.xid);
        st.abort(txn);
        assert_eq!(st.read_latest(1), Some(1));
        let freed = st.gc();
        assert_eq!(freed, 1);
        assert_eq!(st.read_latest(1), Some(1));
    }

    #[test]
    fn gc_respects_open_snapshots() {
        let st = seeded(2);
        let old = st.open_snapshot();
        for i in 0..5u64 {
            let t = st.begin();
            st.install(0, 100 + i, t.xid);
            st.commit(t);
        }
        // Horizon = the open snapshot's read_ts (0): no commit sits at or
        // below it, so no node on the chain is an anchor and nothing may
        // be reclaimed — the snapshot still resolves to the bootstrap.
        let freed = st.gc();
        assert_eq!(freed, 0, "horizon 0 must keep the whole chain");
        assert_eq!(st.read_at(0, &old), Some(0));
        st.release_snapshot(old);
        let freed = st.gc();
        // Horizon now at frontier 5: anchor = newest commit, the four
        // older commits and the bootstrap node free.
        assert_eq!(freed, 5);
        assert_eq!(st.read_latest(0), Some(104));
    }

    #[test]
    fn checksum_stable_across_rereads_under_writes() {
        let st = seeded(64);
        let snap = st.open_snapshot();
        let h = |v: u32, x: &u64| crate::checksum_word(v, *x);
        let c1 = st.checksum_at(&snap, h);
        for i in 0..64usize {
            let t = st.begin();
            st.install(i, 1000 + i as u64, t.xid);
            st.commit(t);
        }
        let c2 = st.checksum_at(&snap, h);
        assert_eq!(c1, c2, "snapshot checksum drifted under writes");
        let newer = st.open_snapshot();
        assert_ne!(st.checksum_at(&newer, h), c1);
        st.release_snapshot(snap);
        st.release_snapshot(newer);
    }

    #[test]
    fn export_commits_replays_to_snapshot_states() {
        let st = seeded(8);
        let mut snaps = vec![st.open_snapshot()];
        for round in 0..10u64 {
            for v in 0..8usize {
                let t = st.begin();
                st.install(v, round * 100 + v as u64, t.xid);
                st.commit(t);
            }
            snaps.push(st.open_snapshot());
        }
        let log = st.export_commits();
        for snap in &snaps {
            // Replay the oracle prefix.
            let mut state: Vec<u64> = (0..8).map(|v| v as u64).collect();
            for &(seq, v, val) in &log {
                if seq != 0 && seq <= snap.read_ts {
                    state[v as usize] = val;
                }
            }
            for (v, &expect) in state.iter().enumerate() {
                assert_eq!(st.read_at(v, snap), Some(expect));
            }
        }
        for s in snaps {
            st.release_snapshot(s);
        }
    }

    #[test]
    fn slab_recycles_nodes() {
        let st = seeded(1);
        for i in 0..100u64 {
            let t = st.begin();
            st.install(0, i, t.xid);
            st.commit(t);
            st.gc();
        }
        let stats = st.stats();
        assert!(stats.gc_freed >= 99);
        assert_eq!(stats.live_versions, 1);
        assert_eq!(st.read_latest(0), Some(99));
    }

    #[test]
    fn concurrent_writers_and_snapshot_readers() {
        use std::sync::Arc;
        let st = Arc::new(seeded(256));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let st = Arc::clone(&st);
                std::thread::spawn(move || {
                    // Disjoint vertex ranges: per-vertex writer serialization.
                    for i in 0..2000u64 {
                        let v = (w * 64 + (i as usize % 64)) % 256;
                        let t = st.begin();
                        st.install(v, i, t.xid);
                        st.commit(t);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let st = Arc::clone(&st);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let h = |v: u32, x: &u64| crate::checksum_word(v, *x);
                    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                        let snap = st.open_snapshot();
                        let c1 = st.checksum_at(&snap, h);
                        let c2 = st.checksum_at(&snap, h);
                        assert_eq!(c1, c2, "re-read of one snapshot drifted");
                        st.release_snapshot(snap);
                        st.gc();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(st.tst().read_ts(), 8000);
    }

    /// The overwrite-or-chain protocol under every interleaving of five
    /// actors' steps, with the same hand-rolled enumeration as
    /// `tst.rs::commit_visibility_under_all_interleavings`:
    /// - an install of v0, whose newest version is committed above the
    ///   frontier when the run starts: the frontier read its decision
    ///   compares against, then the rest;
    /// - a snapshot open: pin, then register;
    /// - a second committer whose log entry (seq 1) lags the frontier,
    ///   holding it at 0 until it publishes;
    /// - a GC pass;
    /// - a `read_latest` of v0: the part before the stripe lock, then the
    ///   part under it.
    ///
    /// After every step, each open snapshot, a fresh `read_latest` of each
    /// vertex and the `export_commits` replay must give the serial-prefix
    /// value. 8!/2^3 = 5,040 schedules.
    #[test]
    fn overwrite_decision_under_all_interleavings() {
        const STEPS: [usize; 5] = [2, 2, 1, 1, 2];
        fn schedules(left: &mut [usize; 5], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if left.iter().all(|&n| n == 0) {
                out.push(prefix.clone());
                return;
            }
            for actor in 0..left.len() {
                if left[actor] > 0 {
                    left[actor] -= 1;
                    prefix.push(actor);
                    schedules(left, prefix, out);
                    prefix.pop();
                    left[actor] += 1;
                }
            }
        }
        let mut all = Vec::new();
        schedules(&mut STEPS.clone(), &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 5_040);

        const INIT: [u64; 2] = [0, 10];
        for schedule in all {
            let st = VertexStore::new(2);
            for (v, &x) in INIT.iter().enumerate() {
                st.install_bootstrap(v, x);
            }
            let tst = st.tst();
            // The lagging committer writes v1 := 11, takes seq 1 and flips
            // its status; its log entry waits for its step.
            let lag = st.begin();
            st.install(1, 11, lag.xid);
            let lag_seq = tst.step_alloc_seq();
            tst.step_publish_status(lag.xid, lag_seq);
            // v0's newest version: v0 := 1, committed at seq 2, which the
            // frontier (0) has not reached.
            let w1 = st.begin();
            st.install(0, 1, w1.xid);
            st.commit(w1);
            assert_eq!(tst.read_ts(), 0);
            let w2 = st.begin().xid;
            let writes = |xid: Xid| match xid {
                x if x == lag.xid => (1, 11),
                x if x == w2 => (0, 2),
                _ => (0, 1),
            };
            // The serial prefix: the initial values plus commits 1..=ts.
            let expect = |ts: CommitSeq| {
                let mut state = INIT;
                for seq in 1..=ts {
                    let (v, x) = writes(tst.committed_xid_at(seq).expect("below the frontier"));
                    state[v] = x;
                }
                state
            };

            let mut step = [0usize; 5];
            let mut pin: Option<u64> = None;
            let mut snaps: Vec<Snapshot> = Vec::new();
            let (mut observed, mut ticket) = (None, None);
            for &actor in &schedule {
                match (actor, step[actor]) {
                    (0, 0) => observed = Some(st.step_install_observe()),
                    (0, 1) => st.step_install_apply(0, 2, w2, observed),
                    (1, 0) => pin = Some(st.step_open_pin()),
                    (1, 1) => snaps.push(st.step_open_register(pin.unwrap())),
                    (2, 0) => {
                        tst.step_publish_log(lag.xid, lag_seq);
                        tst.step_advance_frontier();
                    }
                    (3, 0) => {
                        st.gc();
                    }
                    (4, 0) => ticket = st.step_read_start(),
                    (4, 1) => {
                        let got = st.step_read_finish(0, ticket);
                        let want = expect(tst.read_ts())[0];
                        assert_eq!(got, Some(want), "{schedule:?}: split read_latest");
                    }
                    _ => unreachable!(),
                }
                step[actor] += 1;

                let log = st.export_commits();
                for snap in &snaps {
                    let want = expect(snap.read_ts);
                    let mut replay = INIT;
                    for &(seq, v, x) in &log {
                        if seq != 0 && seq <= snap.read_ts {
                            replay[v as usize] = x;
                        }
                    }
                    assert_eq!(
                        replay, want,
                        "{schedule:?}: export replay at {}",
                        snap.read_ts
                    );
                    for (v, &x) in want.iter().enumerate() {
                        assert_eq!(
                            st.read_at(v, snap),
                            Some(x),
                            "{schedule:?}: snapshot at {} drifted on v{v}",
                            snap.read_ts
                        );
                    }
                }
                let want = expect(tst.read_ts());
                for (v, &x) in want.iter().enumerate() {
                    assert_eq!(
                        st.read_latest(v),
                        Some(x),
                        "{schedule:?}: read_latest(v{v})"
                    );
                }
            }
            // Committed, released and collected, the store holds one
            // version a vertex.
            st.commit_xid(w2);
            for snap in snaps {
                st.release_snapshot(snap);
            }
            st.gc();
            let stats = st.stats();
            assert_eq!(stats.live_versions, 2, "{schedule:?}");
            assert_eq!(stats.chained_versions, 0, "{schedule:?}");
            assert_eq!(st.read_latest(0), Some(2));
            assert_eq!(st.read_latest(1), Some(11));
        }
    }
}
