//! # sg-store — MVCC vertex store and serializable serving layer
//!
//! The engines make *computation* serializable, but they mutate vertex
//! state in place under locks and tokens, so nothing can read the graph
//! while a run executes. This crate rebuilds vertex state as an
//! XID-versioned multi-version store so snapshot reads never block — or
//! are blocked by — compute:
//!
//! * **Transaction-status table** ([`Tst`]): lock-free, chunked atomic
//!   slots. A transaction's lifecycle is `begin` (allocate an XID) →
//!   `commit`/`abort`, and the visibility flip is **one atomic store**
//!   into the transaction's status slot — versions are never rewritten at
//!   commit. Commits additionally publish into a seq-indexed commit log
//!   whose *contiguous frontier* is advanced cooperatively (no waiting),
//!   so the set of transactions below any frontier reading is always a
//!   prefix of the commit order.
//! * **Version slots** ([`VertexStore`]): dense per-vertex slots in
//!   lock-striped shards (vertex `v` lives in shard `v & 63`, slot
//!   `v >> 6`). A slot holds the newest version and the one it superseded,
//!   each with `xmin`, the creating XID; `xmax` is implicit — a version's
//!   overwriter is the next newer one — and commit never touches a slot.
//!   While no snapshot is open an install overwrites the superseded
//!   version in place; while one is, older versions move onto a per-vertex
//!   chain until GC finds them unreachable.
//! * **Snapshots** ([`Snapshot`]): `read_ts` is the commit-log frontier
//!   captured at open; a version is visible iff its `xmin` committed with
//!   sequence ≤ `read_ts` (or is the bootstrap version, XID 0). Because
//!   the frontier only moves over fully published commits, a snapshot's
//!   visible transaction set is a *prefix of the commit order* — stable
//!   across re-reads and equal to a serial prefix of the run.
//! * **Epoch GC**: open snapshots register their `read_ts`; the horizon
//!   is the minimum open `read_ts` (or the current frontier when none are
//!   open). A version is reclaimed once a newer version committed at or
//!   below the horizon — every open and future snapshot resolves to the
//!   newer one — and aborted versions go on sight. A pass visits only the
//!   vertices written since the last one and the chained ones.
//! * **Serving** ([`GraphReader`]): point lookups, k-hop neighborhoods,
//!   and whole-graph snapshot views with stable checksums, usable from
//!   any thread while an engine writes through the store.

pub mod reader;
pub mod store;
pub mod tst;

pub use reader::{GraphReader, SnapshotView};
pub use store::{Snapshot, StoreStats, VertexStore};
pub use tst::{CommitSeq, Tst, Txn, TxnStatus, Xid};

/// Mix a `(vertex, word)` pair into a 64-bit digest (splitmix64 over the
/// packed pair). Order-independent folds of this are the wire-level
/// snapshot checksum both the cluster worker and the smoke tests use.
#[inline]
pub fn checksum_word(vertex: u32, word: u64) -> u64 {
    sg_graph::rng::mix64(word ^ (u64::from(vertex) << 32) ^ 0x9E37_79B9_7F4A_7C15)
}
