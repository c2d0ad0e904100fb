//! The transaction-status table: lock-free XID allocation, single-store
//! commit/abort transitions, and a contiguous commit frontier.
//!
//! ## Protocol
//!
//! * `begin` allocates an XID from one `fetch_add`. XID 0 is reserved for
//!   bootstrap versions (initial vertex values), visible to every
//!   snapshot.
//! * `commit` allocates a commit sequence number, then flips the
//!   transaction's status slot with **one atomic store** — the slot goes
//!   `0` (in progress) → `(seq << 2) | COMMITTED` and never changes
//!   again. No version header is touched.
//! * `abort` is the same single transition to `ABORTED`; aborts never
//!   consume a sequence number, so they cannot stall the frontier.
//! * After the status store, the committer publishes `seq → xid` into the
//!   commit log and helps advance the **frontier**: the largest `F` such
//!   that every sequence `1..=F` has a published log entry. Advancing is
//!   a cooperative CAS loop — any thread (committer or snapshot opener)
//!   may help, nobody ever waits on another thread's progress, so the
//!   table stays lock-free.
//!
//! The frontier is what makes snapshots *prefix-consistent*: a snapshot
//! captures `read_ts = frontier` at open, and every commit with sequence
//! ≤ `read_ts` is already fully published (status slots are immutable
//! once set). Two commits racing to publish out of order merely delay the
//! frontier until the gap fills; they can never make a snapshot observe
//! commit `k+1` without commit `k`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Transaction identifier. XID 0 is the bootstrap pseudo-transaction.
pub type Xid = u64;

/// Commit sequence number (1-based; 0 = "before every commit").
pub type CommitSeq = u64;

/// Decoded status of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Begun, neither committed nor aborted.
    InProgress,
    /// Committed with this sequence number.
    Committed(CommitSeq),
    /// Aborted; its versions are invisible forever.
    Aborted,
}

/// An open transaction handle from [`Tst::begin`].
#[derive(Debug)]
pub struct Txn {
    /// The allocated transaction id.
    pub xid: Xid,
}

const STATE_MASK: u64 = 0b11;
const COMMITTED: u64 = 1;
const ABORTED: u64 = 2;

/// Slots per chunk. Chunks, and the directory segments that hold them,
/// are allocated on first touch, so an idle table costs one array of
/// `SEGMENTS` empty cells and a touched one a chunk per `CHUNK` slots.
const CHUNK: usize = 1 << 10;
/// Chunks per directory segment.
const SEGMENT: usize = 1 << 8;
/// Directory segments (capacity `CHUNK * SEGMENT * SEGMENTS` = 2^26
/// transactions — far above any run this system executes; exceeding it is
/// a panic, not UB).
const SEGMENTS: usize = 1 << 8;

type Chunk = Box<[AtomicU64]>;

/// A grow-only chunked array of atomic words, indexable without locks: a
/// two-level directory, both levels filled on demand.
struct Chunked {
    segments: [OnceLock<Box<[OnceLock<Chunk>]>>; SEGMENTS],
}

impl Chunked {
    fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `(segment, chunk within it, slot within that)` of index `i`.
    #[inline]
    fn split(i: u64) -> (usize, usize, usize) {
        let i = i as usize;
        (i / CHUNK / SEGMENT, i / CHUNK % SEGMENT, i % CHUNK)
    }

    #[inline]
    fn slot(&self, i: u64) -> &AtomicU64 {
        let (s, c, k) = Self::split(i);
        assert!(s < SEGMENTS, "transaction-status table capacity exceeded");
        let segment =
            self.segments[s].get_or_init(|| (0..SEGMENT).map(|_| OnceLock::new()).collect());
        let chunk = segment[c].get_or_init(|| (0..CHUNK).map(|_| AtomicU64::new(0)).collect());
        &chunk[k]
    }

    /// Read without allocating: 0 for never-touched slots.
    #[inline]
    fn load(&self, i: u64) -> u64 {
        let (s, c, k) = Self::split(i);
        let chunk = self.segments.get(s).and_then(OnceLock::get);
        match chunk.and_then(|segment| segment[c].get()) {
            Some(chunk) => chunk[k].load(Ordering::Acquire),
            None => 0,
        }
    }
}

/// The transaction-status table. See the module docs for the protocol.
pub struct Tst {
    next_xid: AtomicU64,
    next_seq: AtomicU64,
    /// Largest sequence with a contiguous published prefix behind it.
    frontier: AtomicU64,
    /// `xid → (seq << 2) | state`, 0 = in progress.
    status: Chunked,
    /// `seq → xid`, 0 = not yet published (XIDs start at 1).
    log: Chunked,
}

impl Default for Tst {
    fn default() -> Self {
        Self::new()
    }
}

impl Tst {
    /// An empty table: no transactions, frontier 0.
    pub fn new() -> Self {
        Self {
            next_xid: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            frontier: AtomicU64::new(0),
            status: Chunked::new(),
            log: Chunked::new(),
        }
    }

    /// Open a transaction: one `fetch_add`, nothing else. Relaxed is
    /// enough — the allocation only needs uniqueness; all
    /// happens-before edges run through the status and log publishes.
    #[inline]
    pub fn begin(&self) -> Txn {
        Txn {
            xid: self.next_xid.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// Commit: one status store flips visibility, then the commit log is
    /// published and the frontier helped forward. Returns the commit
    /// sequence.
    pub fn commit(&self, txn: Txn) -> CommitSeq {
        self.commit_xid(txn.xid)
    }

    /// [`Tst::commit`] by raw XID (the engine's recorder hook commits by
    /// vertex after the handle has gone out of scope).
    pub fn commit_xid(&self, xid: Xid) -> CommitSeq {
        let seq = self.step_alloc_seq();
        self.step_publish_status(xid, seq);
        self.step_publish_log(xid, seq);
        // Fast path: no commit raced us, so the frontier sits exactly one
        // behind our sequence and a single CAS finishes the publish. A
        // gap behind us (or a helper racing ahead) falls back to the
        // cooperative loop.
        if self
            .frontier
            .compare_exchange(seq - 1, seq, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            && self.log.load(seq + 1) == 0
        {
            return seq;
        }
        self.step_advance_frontier();
        seq
    }

    /// Abort: one status store; no sequence is consumed, the frontier
    /// never waits on an aborted transaction.
    pub fn abort(&self, txn: Txn) {
        self.status.slot(txn.xid).store(ABORTED, Ordering::Release);
    }

    /// Decoded status of `xid` (XID 0 reports as committed at seq 0).
    pub fn status(&self, xid: Xid) -> TxnStatus {
        if xid == 0 {
            return TxnStatus::Committed(0);
        }
        match self.status.load(xid) {
            0 => TxnStatus::InProgress,
            s if s & STATE_MASK == COMMITTED => TxnStatus::Committed(s >> 2),
            _ => TxnStatus::Aborted,
        }
    }

    /// Is a version created by `xmin` visible at `read_ts`?
    #[inline]
    pub fn visible(&self, xmin: Xid, read_ts: CommitSeq) -> bool {
        match self.status(xmin) {
            TxnStatus::Committed(seq) => seq <= read_ts,
            _ => false,
        }
    }

    /// The current prefix-consistent read timestamp: help the frontier
    /// over any fully published commits, then read it. Every commit with
    /// sequence ≤ the returned value is immutably visible.
    pub fn read_ts(&self) -> CommitSeq {
        self.step_advance_frontier();
        self.frontier.load(Ordering::Acquire)
    }

    /// The XID that committed at `seq`, if published — the serial-prefix
    /// oracle walks the log with this.
    pub fn committed_xid_at(&self, seq: CommitSeq) -> Option<Xid> {
        match self.log.load(seq) {
            0 => None,
            x => Some(x),
        }
    }

    /// Commits published so far (= the sequence counter; the frontier may
    /// transiently lag this during a commit race).
    pub fn commits(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------------
    // Individual protocol steps, exposed so the interleaving tests can
    // drive two committers through every step order by hand (a loom-style
    // enumeration without the dependency). Production code goes through
    // `commit`/`abort`.
    // ------------------------------------------------------------------

    /// Step 1 of commit: allocate the commit sequence. Relaxed — the
    /// sequence only needs uniqueness here; publication order is
    /// enforced by the Release stores of steps 2 and 3.
    #[doc(hidden)]
    pub fn step_alloc_seq(&self) -> CommitSeq {
        self.next_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Step 2 of commit: the single visibility-flipping status store.
    /// Release, and ordered before the log publish in program order:
    /// any thread that observes the log entry (Acquire) therefore
    /// observes the committed status too.
    #[doc(hidden)]
    pub fn step_publish_status(&self, xid: Xid, seq: CommitSeq) {
        self.status
            .slot(xid)
            .store((seq << 2) | COMMITTED, Ordering::Release);
    }

    /// Step 3 of commit: publish `seq → xid` into the commit log.
    #[doc(hidden)]
    pub fn step_publish_log(&self, xid: Xid, seq: CommitSeq) {
        self.log.slot(seq).store(xid, Ordering::Release);
    }

    /// Step 4 of commit (cooperative): advance the frontier over every
    /// contiguously published sequence. Lock-free — a stalled committer
    /// only delays *its own* commit becoming readable. The CAS success
    /// ordering is Release so a frontier observer (Acquire in
    /// [`Tst::read_ts`]) inherits the log/status publishes behind it.
    #[doc(hidden)]
    pub fn step_advance_frontier(&self) {
        loop {
            let f = self.frontier.load(Ordering::Acquire);
            if self.log.load(f + 1) == 0 {
                return;
            }
            // Lost races are fine: someone else advanced past f.
            let _ = self
                .frontier
                .compare_exchange(f, f + 1, Ordering::AcqRel, Ordering::Acquire);
        }
    }
}

impl std::fmt::Debug for Tst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tst")
            .field("next_xid", &self.next_xid.load(Ordering::SeqCst))
            .field("commits", &self.next_seq.load(Ordering::SeqCst))
            .field("frontier", &self.frontier.load(Ordering::SeqCst))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_abort_lifecycle() {
        let t = Tst::new();
        let a = t.begin();
        let b = t.begin();
        assert_eq!(a.xid, 1);
        assert_eq!(b.xid, 2);
        assert_eq!(t.status(1), TxnStatus::InProgress);
        let seq = t.commit(a);
        assert_eq!(seq, 1);
        assert_eq!(t.status(1), TxnStatus::Committed(1));
        t.abort(b);
        assert_eq!(t.status(2), TxnStatus::Aborted);
        assert_eq!(t.read_ts(), 1);
        assert_eq!(t.committed_xid_at(1), Some(1));
        assert_eq!(t.committed_xid_at(2), None);
    }

    #[test]
    fn bootstrap_xid_always_visible() {
        let t = Tst::new();
        assert!(t.visible(0, 0));
        assert_eq!(t.status(0), TxnStatus::Committed(0));
    }

    #[test]
    fn visibility_follows_read_ts() {
        let t = Tst::new();
        let a = t.begin();
        let b = t.begin();
        let (xa, xb) = (a.xid, b.xid);
        t.commit(a);
        assert!(t.visible(xa, 1));
        assert!(!t.visible(xa, 0));
        assert!(!t.visible(xb, 1)); // still in progress
        t.commit(b);
        assert!(t.visible(xb, 2));
        assert!(!t.visible(xb, 1));
    }

    #[test]
    fn aborts_never_stall_the_frontier() {
        let t = Tst::new();
        let a = t.begin();
        let b = t.begin();
        t.abort(a);
        t.commit(b);
        assert_eq!(t.read_ts(), 1);
        assert_eq!(t.committed_xid_at(1), Some(2));
    }

    /// The hand-rolled interleaving enumeration for commit visibility:
    /// two committers' protocol steps are interleaved in every possible
    /// order; after *every* step a fresh snapshot is opened and its
    /// visible set must be a prefix of the commit order, and every
    /// previously opened snapshot must still see exactly what it saw
    /// when it was opened.
    #[test]
    fn commit_visibility_under_all_interleavings() {
        // Each committer runs steps: alloc seq, publish status, publish
        // log, advance frontier. Enumerate all interleavings of the two
        // 4-step sequences: C(8,4) = 70 schedules.
        fn schedules(a: usize, b: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if a == 0 && b == 0 {
                out.push(prefix.clone());
                return;
            }
            if a > 0 {
                prefix.push(0);
                schedules(a - 1, b, prefix, out);
                prefix.pop();
            }
            if b > 0 {
                prefix.push(1);
                schedules(a, b - 1, prefix, out);
                prefix.pop();
            }
        }
        let mut all = Vec::new();
        schedules(4, 4, &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 70);

        for schedule in all {
            let t = Tst::new();
            let xids = [t.begin().xid, t.begin().xid];
            let mut seqs = [0u64; 2];
            let mut step = [0usize; 2];
            // (read_ts, visible set) observed by each opened snapshot.
            let mut opened: Vec<(u64, Vec<Xid>)> = Vec::new();
            let visible_set = |t: &Tst, read_ts: u64| -> Vec<Xid> {
                xids.iter()
                    .copied()
                    .filter(|&x| t.visible(x, read_ts))
                    .collect()
            };
            let observe = |t: &Tst, opened: &mut Vec<(u64, Vec<Xid>)>| {
                // Previously opened snapshots are immutable.
                for (ts, seen) in opened.iter() {
                    assert_eq!(&visible_set(t, *ts), seen, "snapshot at {ts} drifted");
                }
                let ts = t.read_ts();
                let seen = visible_set(t, ts);
                // Prefix property: the visible set is exactly the first
                // `ts` entries of the commit log.
                let prefix: Vec<Xid> = (1..=ts).filter_map(|s| t.committed_xid_at(s)).collect();
                assert_eq!(prefix.len() as u64, ts, "frontier passed a gap");
                let mut sorted_seen = seen.clone();
                sorted_seen.sort_unstable();
                let mut sorted_prefix = prefix;
                sorted_prefix.sort_unstable();
                assert_eq!(sorted_seen, sorted_prefix, "visible set is not a prefix");
                opened.push((ts, seen));
            };
            observe(&t, &mut opened);
            for &who in &schedule {
                match step[who] {
                    0 => seqs[who] = t.step_alloc_seq(),
                    1 => t.step_publish_status(xids[who], seqs[who]),
                    2 => t.step_publish_log(xids[who], seqs[who]),
                    3 => t.step_advance_frontier(),
                    _ => unreachable!(),
                }
                step[who] += 1;
                observe(&t, &mut opened);
            }
            // Both committed: the final frontier covers both.
            assert_eq!(t.read_ts(), 2);
        }
    }

    /// The directory fills on demand: slots on either side of a chunk and
    /// a segment boundary, and the last one, keep what was stored; a slot
    /// never touched reads 0 without allocating; one past the capacity
    /// panics.
    #[test]
    fn chunk_directory_grows_on_demand() {
        let c = Chunked::new();
        let capacity = (CHUNK * SEGMENT * SEGMENTS) as u64;
        let probes = [
            0,
            CHUNK as u64 - 1,
            CHUNK as u64,
            (CHUNK * SEGMENT) as u64 - 1,
            (CHUNK * SEGMENT) as u64,
            capacity - 1,
        ];
        for (value, &i) in (1u64..).zip(&probes) {
            assert_eq!(c.load(i), 0);
            c.slot(i).store(value, Ordering::Release);
        }
        for (value, &i) in (1u64..).zip(&probes) {
            assert_eq!(c.load(i), value, "slot {i}");
        }
        assert_eq!(c.load(2 * CHUNK as u64), 0);
        assert_eq!(c.load(2 * (CHUNK * SEGMENT) as u64), 0);
        assert!(c.segments[2].get().is_none(), "a read allocated a segment");
        assert_eq!(c.load(capacity), 0);
        let past = std::panic::catch_unwind(|| {
            c.slot(capacity);
        });
        assert!(past.is_err(), "slot past the capacity");
    }

    #[test]
    fn concurrent_commits_produce_dense_log() {
        use std::sync::Arc;
        let t = Arc::new(Tst::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let txn = t.begin();
                        t.commit(txn);
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        assert_eq!(t.read_ts(), 2000);
        let mut xids: Vec<Xid> = (1..=2000).map(|s| t.committed_xid_at(s).unwrap()).collect();
        xids.sort_unstable();
        xids.dedup();
        assert_eq!(xids.len(), 2000, "a commit published twice or not at all");
    }
}
