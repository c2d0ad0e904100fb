//! Message stores and staging buffers — the engine's "network".
//!
//! Mirrors the Giraph machinery of Section 6.1: each worker holds a message
//! store for incoming messages (here, one sub-store per partition so that
//! "more partitions enables more parallel modifications to the store",
//! Section 7.1), while outgoing remote messages accumulate in per-thread,
//! per-destination buffers that are flushed when full, at superstep
//! boundaries, and whenever a synchronization technique needs a write-all
//! flush before handing a fork or token to another worker (condition C1).
//!
//! A message is priced in cache lines and shared read-modify-writes, so
//! the two layers keep both to the minimum:
//!
//! 1. [`PartitionStore`] is one mutex over a flat array of slots, one per
//!    local vertex, and a slot holds its first envelope *inline*: with a
//!    combiner — at most one envelope per vertex — an insert touches the
//!    slot's cache line and nothing else. Later envelopes of a combiner-
//!    free run fill a chain of fixed-size blocks in arrival order, eight
//!    envelopes to a block (a cache line of `u32` messages): a drain reads
//!    one block per eight messages and hands the whole chain to a free
//!    list in one step, so the insert/drain cycle allocates nothing in
//!    steady state. The queued count is a plain integer under the lock;
//!    an occupancy bitmap beside it answers
//!    [`PartitionStore::has_messages`] without the lock. A whole batch
//!    goes in under one acquisition per partition through
//!    [`InboxPair::deliver_batch`], which is what keeps the single lock
//!    uncontended; the thread engine, the networked worker and the
//!    simulator all land batches there.
//! 2. [`StagingBuffers`] are per-compute-thread outbound staging areas.
//!    Sends to remote workers land here first. On the thread engine and
//!    the networked worker a send is a plain append, and the combiner
//!    folds a message once, in the receiving inbox, when its batch lands.
//!    The simulator, which prices Giraph's wire, applies the combiner
//!    *sender-side* here (Giraph's classic optimization): messages to the
//!    same destination vertex merge before they ship. A host ships a
//!    staged run as one batch into [`InboxPair::deliver_batch`] (or onto a
//!    link) on a size threshold, at superstep boundaries, and on every C1
//!    write-all flush. A threaded host holds the staging lock until the
//!    batch has landed (the engine) or is enqueued on its link (the
//!    networked worker).
//!
//! [`OutboundBuffers`], a shared per-worker-pair buffer cache, is no
//! longer on any host's path; only the datapath probe of the end-to-end
//! benchmark still drives it.

use crate::config::Model;
use crate::program::Combiner;
use sg_graph::{ClusterLayout, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_serial::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A queued message: who sent it (needed by the serializability recorder
/// and the BSP visibility swap) and its payload.
pub type Envelope<M> = (VertexId, M);

/// Sentinel for "no block" in the overflow chains.
const NIL: u32 = u32::MAX;

/// Envelopes per overflow block: one block of the colouring programs'
/// `(VertexId, u32)` envelopes is one 64-byte cache line.
const BLOCK_LEN: usize = 8;

/// One vertex's queue: the first envelope in place, any later ones in a
/// chain of [`Block`]s, filled in arrival order.
#[derive(Debug)]
struct Slot<M> {
    first: Option<Envelope<M>>,
    /// First overflow block (`NIL` = none).
    head: u32,
    /// Position of the last chained envelope, `block * BLOCK_LEN +
    /// offset`: the tail block and how full it is, in one word (meaningless
    /// while `head` is `NIL`). Every block before the tail is full.
    tail: u32,
}

/// A run of up to [`BLOCK_LEN`] chained envelopes plus the intrusive
/// chain/free-list link. A block is born full of clones of the envelope
/// that opened it, and freed blocks keep their payloads until reused
/// (messages are small values; nothing reads past a chain's tail).
#[derive(Debug)]
struct Block<M> {
    envelopes: [Envelope<M>; BLOCK_LEN],
    next: u32,
}

/// Overflow blocks, addressed by a dense index, in chunks of a fixed size:
/// growing allocates a chunk and moves nothing. (One `Vec` doubling by
/// copy left the allocator holding the old copies — several MiB of a
/// colouring run's peak.)
#[derive(Debug)]
struct Blocks<M> {
    chunks: Vec<Vec<Block<M>>>,
    len: u32,
}

/// Blocks per chunk: 1,024 envelopes.
const CHUNK_BITS: u32 = 7;
const CHUNK_MASK: u32 = (1 << CHUNK_BITS) - 1;

impl<M: Clone> Blocks<M> {
    /// A new block holding `envelope` at offset 0.
    fn push(&mut self, envelope: Envelope<M>) -> u32 {
        let idx = self.len;
        assert!(
            (idx as usize) < NIL as usize / BLOCK_LEN,
            "partition store overflow"
        );
        if idx & CHUNK_MASK == 0 {
            self.chunks.push(Vec::with_capacity(1 << CHUNK_BITS));
        }
        let mut envelopes = std::array::from_fn(|_| envelope.clone());
        envelopes[0] = envelope;
        self.chunks[(idx >> CHUNK_BITS) as usize].push(Block {
            envelopes,
            next: NIL,
        });
        self.len += 1;
        idx
    }
}

impl<M> std::ops::Index<u32> for Blocks<M> {
    type Output = Block<M>;
    #[inline]
    fn index(&self, idx: u32) -> &Block<M> {
        &self.chunks[(idx >> CHUNK_BITS) as usize][(idx & CHUNK_MASK) as usize]
    }
}

impl<M> std::ops::IndexMut<u32> for Blocks<M> {
    #[inline]
    fn index_mut(&mut self, idx: u32) -> &mut Block<M> {
        &mut self.chunks[(idx >> CHUNK_BITS) as usize][(idx & CHUNK_MASK) as usize]
    }
}

/// What a [`PartitionStore`]'s mutex guards.
#[derive(Debug)]
struct Slots<M> {
    slots: Vec<Slot<M>>,
    /// Overflow blocks; indices are stable until the block is freed.
    blocks: Blocks<M>,
    /// Head of the free list threaded through `blocks[i].next`.
    free: u32,
    /// Envelopes queued across all slots.
    count: usize,
}

impl<M: Clone> Slots<M> {
    /// Append an envelope to `local`'s overflow chain: into the tail
    /// block's next free place, or at the start of a block taken off the
    /// free list (or grown) and linked behind the tail.
    fn chain(&mut self, local: usize, envelope: Envelope<M>) {
        let slot = &mut self.slots[local];
        let at = slot.tail as usize + 1;
        if slot.head != NIL && !at.is_multiple_of(BLOCK_LEN) {
            self.blocks[(at / BLOCK_LEN) as u32].envelopes[at % BLOCK_LEN] = envelope;
            slot.tail = at as u32;
            return;
        }
        let idx = if self.free != NIL {
            let idx = self.free;
            let block = &mut self.blocks[idx];
            self.free = std::mem::replace(&mut block.next, NIL);
            block.envelopes[0] = envelope;
            idx
        } else {
            self.blocks.push(envelope)
        };
        if slot.head == NIL {
            slot.head = idx;
        } else {
            self.blocks[slot.tail / BLOCK_LEN as u32].next = idx;
        }
        slot.tail = idx * BLOCK_LEN as u32;
    }

    /// The filled part of each block of the chain from block `head` to
    /// position `tail` (a [`Slot`]'s pair), in FIFO order.
    fn runs(&self, head: u32, tail: u32) -> impl Iterator<Item = &[Envelope<M>]> {
        let (last, tail_len) = (tail / BLOCK_LEN as u32, tail as usize % BLOCK_LEN + 1);
        let mut idx = head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let block = &self.blocks[idx];
            let (run, next) = if idx == last {
                (&block.envelopes[..tail_len], NIL)
            } else {
                (&block.envelopes[..], block.next)
            };
            idx = next;
            Some(run)
        })
    }
}

/// Incoming-message store of one partition: one FIFO slot per local vertex
/// behind a single mutex.
///
/// Beside the lock sits one occupancy bit per slot, written only by the
/// lock's holder and readable by anyone. A reader that must not miss a
/// message is ordered after its writer by something stronger than the bit
/// — the technique's hand-over of the unit that guarded the write, or the
/// superstep barrier — so the bits need no ordering of their own; a reader
/// racing a writer it is *not* ordered after sees the message this
/// superstep or the next, exactly as when the probe took the lock.
#[derive(Debug)]
pub struct PartitionStore<M> {
    inner: Mutex<Slots<M>>,
    /// Bit `local % 64` of word `local / 64`: does the slot hold anything?
    occupied: Vec<AtomicU64>,
    /// Number of vertex slots.
    len: usize,
}

/// A [`PartitionStore`] with its lock held: insert or drain any number of
/// slots under the one acquisition.
pub struct LockedStore<'a, M> {
    inner: MutexGuard<'a, Slots<M>>,
    occupied: &'a [AtomicU64],
}

impl<M: Clone + Send + 'static> LockedStore<'_, M> {
    /// Set or clear `local`'s occupancy bit. Every writer holds the lock,
    /// so a load and a store do what a read-modify-write would.
    fn mark(&self, local: usize, occupied: bool) {
        let (word, bit) = (&self.occupied[local / 64], 1u64 << (local % 64));
        let was = word.load(Ordering::Relaxed);
        word.store(
            if occupied { was | bit } else { was & !bit },
            Ordering::Relaxed,
        );
    }

    /// Queue a message for local vertex `local`, applying the combiner if
    /// one is configured (keeps at most one message per vertex). Returns
    /// the sender the envelope named before the message folded into it —
    /// the fold adopts the latest sender, so whoever accounts for the
    /// absorbed message must hear of it — or `None` when the queue grew by
    /// a new envelope.
    pub fn insert(
        &mut self,
        local: usize,
        sender: VertexId,
        msg: M,
        combiner: Option<&dyn Combiner<M>>,
    ) -> Option<VertexId> {
        let slot = &mut self.inner.slots[local];
        match &mut slot.first {
            None => {
                slot.first = Some((sender, msg));
                self.mark(local, true);
            }
            Some(queued) => match combiner {
                // With a combiner the inline envelope is the only one:
                // merge into it, adopting the latest sender.
                Some(c) => {
                    let absorbed = queued.0;
                    *queued = (sender, c.combine(queued.1.clone(), msg));
                    return Some(absorbed);
                }
                None => self.inner.chain(local, (sender, msg)),
            },
        }
        self.inner.count += 1;
        None
    }

    /// Append all messages currently queued for `local` onto `out` (FIFO
    /// order), returning how many were drained. The caller owns `out` and
    /// typically reuses it across vertices — the drain path allocates
    /// nothing beyond `out`'s own growth.
    pub fn drain_into(&mut self, local: usize, out: &mut Vec<Envelope<M>>) -> usize {
        let inner = &mut *self.inner;
        let slot = &mut inner.slots[local];
        let Some(first) = slot.first.take() else {
            return 0;
        };
        let before = out.len();
        out.push(first);
        let head = std::mem::replace(&mut slot.head, NIL);
        if head != NIL {
            let tail = slot.tail;
            for run in inner.runs(head, tail) {
                out.extend_from_slice(run);
            }
            // The whole chain onto the free list at once.
            inner.blocks[tail / BLOCK_LEN as u32].next = inner.free;
            inner.free = head;
        }
        let n = out.len() - before;
        inner.count -= n;
        self.mark(local, false);
        n
    }
}

impl<M: Clone + Send + 'static> PartitionStore<M> {
    /// Store for a partition with `len` vertices.
    pub fn new(len: usize) -> Self {
        let empty = || Slot {
            first: None,
            head: NIL,
            tail: NIL,
        };
        Self {
            inner: Mutex::new(Slots {
                slots: (0..len).map(|_| empty()).collect(),
                blocks: Blocks {
                    chunks: Vec::new(),
                    len: 0,
                },
                free: NIL,
                count: 0,
            }),
            occupied: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Take the store's lock for a run of inserts or drains. Hold one
    /// store's lock at a time ([`PartitionStore::transfer_all`], alone at
    /// the barrier, is the exception).
    pub fn lock(&self) -> LockedStore<'_, M> {
        LockedStore {
            inner: self.inner.lock().expect("a store holder panicked"),
            occupied: &self.occupied,
        }
    }

    /// [`LockedStore::insert`] under an acquisition of its own.
    pub fn insert(
        &self,
        local: usize,
        sender: VertexId,
        msg: M,
        combiner: Option<&dyn Combiner<M>>,
    ) -> Option<VertexId> {
        self.lock().insert(local, sender, msg, combiner)
    }

    /// [`LockedStore::drain_into`] under an acquisition of its own.
    pub fn drain_into(&self, local: usize, out: &mut Vec<Envelope<M>>) -> usize {
        self.lock().drain_into(local, out)
    }

    /// Take all messages currently queued for `local`.
    pub fn drain(&self, local: usize) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        self.drain_into(local, &mut out);
        out
    }

    /// Does `local` have queued messages? Reads the occupancy bit, not the
    /// lock — see the type's note on who may rely on the answer.
    #[inline]
    pub fn has_messages(&self, local: usize) -> bool {
        self.occupied[local / 64].load(Ordering::Relaxed) >> (local % 64) & 1 == 1
    }

    /// Total queued messages in this store — exact, under the lock.
    pub fn total(&self) -> usize {
        self.lock().inner.count
    }

    /// Move every queued message into `dst` (same slot layout), calling
    /// `on_move(local, sender)` per envelope — the BSP barrier swap. Both
    /// stores keep their block allocations: the source's blocks return to
    /// its free list, the target allocates from its own.
    ///
    /// # Panics
    /// Panics if the stores have different slot counts.
    pub fn transfer_all(&self, dst: &Self, mut on_move: impl FnMut(usize, VertexId)) {
        assert_eq!(self.len, dst.len, "transfer between mismatched stores");
        let (mut src, mut dst) = (self.lock(), dst.lock());
        if src.inner.count == 0 {
            return;
        }
        let mut run = Vec::new();
        for local in 0..self.len {
            src.drain_into(local, &mut run);
            for (sender, msg) in run.drain(..) {
                dst.insert(local, sender, msg, None);
                on_move(local, sender);
            }
        }
    }

    /// Checkpoint support: clone every queue (slot-indexed, FIFO order).
    pub fn export(&self) -> Vec<Vec<Envelope<M>>> {
        let store = self.lock();
        let inner = &*store.inner;
        let queue = |slot: &Slot<M>| {
            let mut queue: Vec<_> = slot.first.iter().cloned().collect();
            for run in inner.runs(slot.head, slot.tail) {
                queue.extend_from_slice(run);
            }
            queue
        };
        inner.slots.iter().map(queue).collect()
    }

    /// Checkpoint support: replace every queue with a snapshot.
    pub fn restore(&self, snapshot: Vec<Vec<Envelope<M>>>) {
        assert_eq!(self.len, snapshot.len());
        let mut store = self.lock();
        let mut stale = Vec::new();
        for (local, queue) in snapshot.into_iter().enumerate() {
            store.drain_into(local, &mut stale);
            stale.clear();
            for (sender, msg) in queue {
                store.insert(local, sender, msg, None);
            }
        }
    }
}

/// Every partition's inbox and the model's visibility rule, for any host.
/// Vertices read the *current* stores. Under AP a send lands there too,
/// readable at once; under BSP it lands in the partition's *next* store
/// until [`InboxPair::flip`]. The recorder, when the run keeps one, hears
/// of each message that can be seen in flight as it turns readable: a
/// batch from another worker, a BSP send at the flip, the simulator's
/// sender-side fold. A same-worker AP send is readable before its sender's
/// transaction closes, so it is never in flight and the recorder hears
/// nothing of it (`sg_serial::recorder`'s module docs).
pub struct InboxPair<M> {
    current: Vec<PartitionStore<M>>,
    /// Under BSP, per partition, what this superstep sent; empty under AP.
    next: Vec<PartitionStore<M>>,
    layout: ClusterLayout,
    recorder: Option<Arc<Recorder>>,
}

impl<M: Clone + Send + 'static> InboxPair<M> {
    /// Inboxes for `pm`'s partitions under `model`: all of them, or with
    /// `held = Some(w)` worker `w`'s. A partition the pair does not hold
    /// gets a store with no slots, so indexing stays by global partition.
    pub fn new(
        pm: &PartitionMap,
        model: Model,
        recorder: Option<Arc<Recorder>>,
        held: Option<WorkerId>,
    ) -> Self {
        let layout = *pm.layout();
        let stores = || {
            let holds = |p| held.is_none_or(|w| layout.worker_of_partition(p) == w);
            let len = |p| if holds(p) { pm.vertices_in(p).len() } else { 0 };
            layout
                .partitions()
                .map(|p| PartitionStore::new(len(p)))
                .collect()
        };
        Self {
            current: stores(),
            next: (model == Model::Bsp).then(stores).unwrap_or_default(),
            layout,
            recorder,
        }
    }

    /// The stores vertices read now, by partition.
    pub fn current(&self) -> &[PartitionStore<M>] {
        &self.current
    }

    /// The store a send to partition `p` lands in.
    #[inline]
    pub fn landing(&self, p: usize) -> &PartitionStore<M> {
        if self.defers() {
            &self.next[p]
        } else {
            &self.current[p]
        }
    }

    /// Whether a landed message waits for [`InboxPair::flip`] (BSP): only
    /// then can a same-worker send be seen in flight, so only then does
    /// the recorder hear of it.
    #[inline]
    pub fn defers(&self) -> bool {
        !self.next.is_empty()
    }

    /// A message from `sender` landed for `to`, folding into an envelope
    /// from `folded` if the combiner merged it: readable at once, except
    /// under BSP, where the flip makes the envelope so.
    #[inline]
    pub fn landed(&self, sender: VertexId, to: VertexId, folded: Option<VertexId>) {
        if !self.defers() {
            self.readable(sender, to);
        } else if let Some(absorbed) = folded {
            self.readable(absorbed, to);
        }
    }

    /// The recorder counts `from`'s message to `to` readable. A host that
    /// folds sender-side (the simulator, the model checker) calls it for a
    /// message a combiner folded, in staging, into an envelope that now
    /// names another sender: the envelope accounts for one message when it
    /// turns readable, so the absorbed one does here.
    #[inline]
    pub fn readable(&self, from: VertexId, to: VertexId) {
        if let Some(r) = &self.recorder {
            r.on_visible(from, to);
        }
    }

    /// Land one same-worker message for `to`, in slot `(p, local)`,
    /// through the combiner. Under AP it is readable at once and the
    /// recorder hears nothing; under BSP a fold is [`InboxPair::landed`].
    #[inline]
    pub fn deliver(
        &self,
        sender: VertexId,
        to: VertexId,
        (p, local): (PartitionId, u32),
        msg: M,
        combiner: Option<&dyn Combiner<M>>,
    ) {
        let folded = self
            .landing(p.index())
            .insert(local as usize, sender, msg, combiner);
        if self.defers() {
            self.landed(sender, to, folded);
        }
    }

    /// Land a batch for worker `receiver`: `routed[i]` at `slots[i]`, the
    /// [`PartitionMap::slot_of`] of its destination, through the combiner.
    /// One lock acquisition per destination partition, one store's lock at
    /// a time; within a partition the batch's order is kept, so folds see
    /// what [`InboxPair::deliver`] per message shows them. Every message
    /// of a batch was in flight, so each is [`InboxPair::landed`].
    pub fn deliver_batch(
        &self,
        receiver: WorkerId,
        slots: &[(PartitionId, u32)],
        routed: &[Routed<M>],
        combiner: Option<&dyn Combiner<M>>,
    ) {
        debug_assert_eq!(slots.len(), routed.len());
        for p in self.layout.partitions_of_worker(receiver) {
            let mut store = None;
            for (&(q, local), (to, sender, msg)) in slots.iter().zip(routed) {
                if q == p {
                    let store = store.get_or_insert_with(|| self.landing(p.index()).lock());
                    let folded = store.insert(local as usize, *sender, msg.clone(), combiner);
                    self.landed(*sender, *to, folded);
                }
            }
        }
    }

    /// The BSP barrier: what this superstep sent becomes readable.
    pub fn flip(&self, pm: &PartitionMap) {
        for (p, (next, current)) in self.next.iter().zip(&self.current).enumerate() {
            let vertices = pm.vertices_in(PartitionId::new(p as u32));
            next.transfer_all(current, |local, sender| {
                self.readable(sender, vertices[local])
            });
        }
    }

    /// Envelopes queued in every store. With every staging buffer shipped
    /// — at a barrier, or with every barrierless thread parked — this is
    /// every message there is.
    pub fn queued(&self) -> usize {
        let stores = self.current.iter().chain(&self.next);
        stores.map(PartitionStore::total).sum()
    }
}

/// A message routed to another worker, waiting in the sender's buffer
/// cache: destination vertex, original sender, payload.
pub type Routed<M> = (VertexId, VertexId, M);

/// Per-(source worker, destination worker) buffer caches, fed in batches by
/// the per-thread [`StagingBuffers`].
///
/// No engine path uses it: every host ships a staged run straight into
/// [`InboxPair::deliver_batch`]. It remains, signature unchanged, because
/// the end-to-end benchmark's message-datapath probe drives it; ROADMAP
/// item 1 deletes it when that probe moves to the batch path.
#[derive(Debug)]
pub struct OutboundBuffers<M> {
    bufs: Vec<Vec<Mutex<Vec<Routed<M>>>>>,
}

impl<M: Send> OutboundBuffers<M> {
    /// Buffers for a `workers`-machine cluster.
    pub fn new(workers: usize) -> Self {
        Self {
            bufs: (0..workers)
                .map(|_| (0..workers).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        }
    }

    /// Drain `staged` into the (from, to) buffer under a single lock
    /// acquisition. Every time the buffer reaches `cap` it is swapped out
    /// and returned as a ready-to-ship batch — the caller delivers those
    /// batches after the lock is released, exactly as the per-message
    /// threshold flush used to.
    pub fn push_batch(
        &self,
        from: usize,
        to: usize,
        staged: &mut Vec<Routed<M>>,
        cap: usize,
    ) -> Vec<Vec<Routed<M>>> {
        if staged.is_empty() {
            return Vec::new();
        }
        let mut full = Vec::new();
        let mut b = self.bufs[from][to].lock().unwrap();
        for r in staged.drain(..) {
            b.push(r);
            if b.len() >= cap {
                full.push(std::mem::take(&mut *b));
            }
        }
        full
    }

    /// Take everything buffered from `from` to `to`.
    pub fn take(&self, from: usize, to: usize) -> Vec<Routed<M>> {
        std::mem::take(&mut *self.bufs[from][to].lock().unwrap())
    }
}

/// Per-compute-thread outbound staging: remote sends land here before they
/// touch any shared state, and ship one batch per destination run. Built
/// with `combine` and staged with a combiner, it folds **sender-side** —
/// messages to the same destination vertex merge in place (first-insertion
/// order is preserved, so flush order stays deterministic for a given send
/// order) — and only the survivors ship. The simulator and the model
/// checker stage so, as Giraph does; the thread engine and the networked
/// worker build it with `combine = false`, so a send is an append and the
/// receiving inbox does the one fold.
///
/// Each engine compute thread owns one staging buffer for the whole run.
/// The engine keeps them behind per-thread mutexes rather than true
/// thread-locals because a C1 write-all flush can be triggered *by another
/// thread* (a fork request arriving through the synchronization technique
/// must flush the holder's pending messages before the fork moves); the
/// mutex is uncontended on the hot path. A run is taken and shipped under
/// that mutex, so a write-all that takes it never finds the buffer empty
/// while a batch taken from it is still on its way.
#[derive(Debug)]
pub struct StagingBuffers<M> {
    dests: Vec<StagedDest<M>>,
    combine: bool,
}

#[derive(Debug)]
struct StagedDest<M> {
    /// Staged messages in first-staged order (the flush order).
    run: Vec<Routed<M>>,
    /// Destination vertex -> index into `run`, for sender-side combining.
    /// Unused (empty) when the run has no combiner.
    index: RunIndex,
}

/// Where in a staged run each destination vertex sits: an open-addressed
/// table of `(epoch, position)` buckets probed linearly from a
/// multiplicative hash of the vertex id. A bucket is live only while its
/// epoch is the table's, so a flush empties the table by moving on to the
/// next epoch. The key is not stored: `run[position].0` is.
#[derive(Debug)]
struct RunIndex {
    buckets: Vec<(u32, u32)>,
    /// Never 0, the epoch of a bucket that was never written.
    epoch: u32,
}

/// Buckets of a run's first table; it doubles whenever the run outgrows
/// half of it.
const INDEX_MIN_BUCKETS: usize = 64;

impl RunIndex {
    fn new() -> Self {
        Self {
            buckets: Vec::new(),
            epoch: 1,
        }
    }

    /// First bucket probed for `to` in a table of `len` buckets (a power of
    /// two): the top bits of the id times 2^32 / φ.
    #[inline]
    fn home(to: VertexId, len: usize) -> usize {
        (to.raw().wrapping_mul(0x9E37_79B9) >> (32 - len.trailing_zeros())) as usize
    }

    /// The live bucket of `to`, or the empty one where it belongs.
    #[inline]
    fn probe<M>(&self, to: VertexId, run: &[Routed<M>]) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = Self::home(to, self.buckets.len());
        loop {
            let (epoch, at) = self.buckets[b];
            if epoch != self.epoch || run[at as usize].0 == to {
                return b;
            }
            b = (b + 1) & mask;
        }
    }

    /// Position of `to` in `run`, entering it as `run.len()` — where the
    /// caller is about to push it — when it is not there yet.
    #[inline]
    fn position_or_enter<M>(&mut self, to: VertexId, run: &[Routed<M>]) -> Option<usize> {
        if run.len() * 2 >= self.buckets.len() {
            self.grow(run);
        }
        let b = self.probe(to, run);
        let (epoch, at) = self.buckets[b];
        if epoch == self.epoch {
            return Some(at as usize);
        }
        self.buckets[b] = (self.epoch, run.len() as u32);
        None
    }

    /// Double the table and re-enter the run: at most half full afterwards.
    fn grow<M>(&mut self, run: &[Routed<M>]) {
        let len = (self.buckets.len() * 2).max(INDEX_MIN_BUCKETS);
        self.buckets = vec![(0, 0); len];
        for (at, routed) in run.iter().enumerate() {
            let b = self.probe(routed.0, run);
            self.buckets[b] = (self.epoch, at as u32);
        }
    }

    /// Forget every entry. Epochs are reused only after a wrap, and the
    /// wrap wipes the buckets that could still carry them.
    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.buckets.fill((0, 0));
            self.epoch = 1;
        }
    }
}

impl<M: Clone + Send + 'static> StagingBuffers<M> {
    /// Staging for sends into a `workers`-machine cluster; `combine` turns
    /// on sender-side combining (a host that folds sender-side passes
    /// `true` iff the run has a combiner; the wall-clock hosts pass
    /// `false`).
    pub fn new(workers: usize, combine: bool) -> Self {
        Self {
            dests: (0..workers)
                .map(|_| StagedDest {
                    run: Vec::new(),
                    index: RunIndex::new(),
                })
                .collect(),
            combine,
        }
    }

    /// Stage one routed message for `to_worker`. Returns `(folded,
    /// staged)`: the sender a staged envelope named before the sender-side
    /// combiner merged this message into it, adopting its sender (`None`:
    /// a new envelope was staged), and how many envelopes are now staged
    /// for that destination (the caller's threshold check).
    pub fn stage(
        &mut self,
        to_worker: usize,
        routed: Routed<M>,
        combiner: Option<&dyn Combiner<M>>,
    ) -> (Option<VertexId>, usize) {
        let dest = &mut self.dests[to_worker];
        if let (true, Some(c)) = (self.combine, combiner) {
            if let Some(at) = dest.index.position_or_enter(routed.0, &dest.run) {
                let staged = &mut dest.run[at];
                let absorbed = std::mem::replace(&mut staged.1, routed.1);
                staged.2 = c.combine(staged.2.clone(), routed.2);
                return (Some(absorbed), dest.run.len());
            }
        }
        dest.run.push(routed);
        (None, dest.run.len())
    }

    /// Envelopes staged for `to_worker`.
    pub fn staged(&self, to_worker: usize) -> usize {
        self.dests[to_worker].run.len()
    }

    /// Envelopes staged across all destinations.
    pub fn total_staged(&self) -> usize {
        self.dests.iter().map(|d| d.run.len()).sum()
    }

    /// Hand the staged run for `to_worker` to the caller to ship, resetting
    /// the combining index. The caller must leave the returned `Vec` empty
    /// (`clear` or `drain` keeps its capacity for the next run) before it
    /// lets the buffer go.
    pub fn take_run(&mut self, to_worker: usize) -> &mut Vec<Routed<M>> {
        let dest = &mut self.dests[to_worker];
        dest.index.clear();
        &mut dest.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MinCombiner;

    fn v(raw: u32) -> VertexId {
        VertexId::new(raw)
    }

    #[test]
    fn insert_and_drain() {
        let s = PartitionStore::new(2);
        s.insert(0, v(9), 10u64, None);
        s.insert(0, v(8), 20, None);
        s.insert(1, v(9), 30, None);
        assert!(s.has_messages(0));
        assert_eq!(s.total(), 3);
        assert_eq!(s.drain(0), vec![(v(9), 10), (v(8), 20)]);
        assert!(!s.has_messages(0));
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn combiner_collapses_queue() {
        let s = PartitionStore::new(1);
        let c = MinCombiner;
        assert_eq!(s.insert(0, v(1), 10u64, Some(&c)), None);
        assert_eq!(s.insert(0, v(2), 5, Some(&c)), Some(v(1)));
        assert_eq!(s.insert(0, v(3), 7, Some(&c)), Some(v(2)));
        assert_eq!(s.drain(0), [(v(3), 5)]);
    }

    /// Random operation sequences against a queue-of-queues reference:
    /// FIFO order across the inline envelope and the overflow chain, the
    /// occupancy bits, the count, the barrier swap and the checkpoint pair.
    #[test]
    fn store_matches_a_queue_of_queues_model() {
        use sg_graph::SplitMix64;
        use std::collections::VecDeque;
        type Model = Vec<VecDeque<Envelope<u64>>>;
        let agrees = |store: &PartitionStore<u64>, model: &Model, what: &str| {
            assert_eq!(
                store.total(),
                model.iter().map(VecDeque::len).sum::<usize>()
            );
            for (local, queue) in model.iter().enumerate() {
                assert_eq!(store.has_messages(local), !queue.is_empty(), "{what}");
            }
            let exported: Model = store.export().into_iter().map(Into::into).collect();
            assert_eq!(&exported, model, "{what}");
        };
        for (case, combine) in [(0u64, false), (1, true), (2, false), (3, true)] {
            let mut rng = SplitMix64::new(0x5107 + case);
            let len = 1 + rng.gen_index(70);
            let (store, other) = (PartitionStore::new(len), PartitionStore::new(len));
            let mut model: Model = vec![VecDeque::new(); len];
            let mut other_model = model.clone();
            let mut high_water = 0;
            let combiner = combine.then_some(&MinCombiner as &dyn Combiner<u64>);
            for step in 0..4_000u32 {
                let what = format!("case {case} step {step}");
                let local = rng.gen_index(len);
                match rng.gen_index(20) {
                    0..=11 => {
                        let (sender, msg) = (v(step), rng.gen_range(1_000));
                        let folded = store.insert(local, sender, msg, combiner);
                        match (model[local].back_mut(), combine) {
                            (Some(last), true) => {
                                assert_eq!(folded, Some(last.0), "{what}");
                                *last = (sender, last.1.min(msg));
                            }
                            _ => {
                                model[local].push_back((sender, msg));
                                assert_eq!(folded, None, "{what}");
                            }
                        }
                    }
                    12..=16 => {
                        let mut out = vec![(v(0), 7)]; // appended to, not cleared
                        let n = store.drain_into(local, &mut out);
                        let want: Vec<_> = model[local].drain(..).collect();
                        assert_eq!((n, &out[1..]), (want.len(), &want[..]), "{what}");
                    }
                    17 => {
                        // The barrier swap, there and back: what `other`
                        // already held stays ahead of what moves in.
                        let mut moved = Vec::new();
                        store.transfer_all(&other, |local, sender| moved.push((local, sender)));
                        let want: Vec<_> = model
                            .iter()
                            .enumerate()
                            .flat_map(|(l, q)| q.iter().map(move |e| (l, e.0)))
                            .collect();
                        assert_eq!(moved, want, "{what}");
                        for (from, to) in model.iter_mut().zip(&mut other_model) {
                            to.append(from);
                        }
                        agrees(&other, &other_model, &what);
                        agrees(&store, &model, &what);
                        // (The swap never combines, and the engine only
                        // swaps into drained stores: a combined store is
                        // not handed a second envelope this way either.)
                        if !combine && rng.gen_bool(0.5) {
                            other.transfer_all(&store, |_, _| {});
                            std::mem::swap(&mut model, &mut other_model);
                            other_model.iter_mut().for_each(VecDeque::clear);
                        }
                    }
                    18 => {
                        // Roll back to a snapshot after diverging from it.
                        let snapshot = store.export();
                        store.insert(local, v(step), 1, combiner);
                        store.drain(rng.gen_index(len));
                        store.restore(snapshot);
                    }
                    _ => agrees(&store, &model, &what),
                }
                let blocks_needed = |m: &Model| -> usize {
                    m.iter()
                        .map(|q| q.len().saturating_sub(1).div_ceil(BLOCK_LEN))
                        .sum()
                };
                high_water = high_water.max(blocks_needed(&model));
                // Overflow blocks are reused, not leaked: no more are
                // allocated than the chains ever filled at once (plus what
                // a rollback's scratch insert may have opened).
                let blocks = store.lock().inner.blocks.len as usize;
                assert!(
                    blocks <= high_water + 1,
                    "{what}: {blocks} blocks, peak {high_water}"
                );
                assert!(!combine || blocks == 0, "{what}: a combined slot chained");
            }
            agrees(&store, &model, "end");
        }
    }

    /// Blocks allocated, and blocks on the free list.
    fn block_census<M: Clone + Send + 'static>(store: &PartitionStore<M>) -> (u32, u32) {
        let locked = store.lock();
        let inner = &*locked.inner;
        let mut free = 0;
        let mut idx = inner.free;
        while idx != NIL {
            free += 1;
            idx = inner.blocks[idx].next;
        }
        (inner.blocks.len, free)
    }

    #[test]
    fn a_slot_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<Slot<f64>>(), 32);
    }

    /// One slot, every queue length from empty to past the third block
    /// boundary: FIFO through the inline envelope and every block edge, and
    /// each drain's blocks serve the next, longer queue.
    #[test]
    fn every_block_boundary_keeps_fifo() {
        let s = PartitionStore::new(1);
        for n in 0..=3 * BLOCK_LEN as u64 + 1 {
            let want: Vec<_> = (0..n).map(|i| (v(i as u32), 100 + i)).collect();
            {
                let mut locked = s.lock();
                for &(sender, msg) in &want {
                    assert_eq!(locked.insert(0, sender, msg, None), None);
                }
            }
            assert_eq!(s.total(), n as usize);
            assert_eq!(s.has_messages(0), n > 0);
            let exported = s.export();
            assert_eq!(exported[0], want, "export, {n} queued");
            let mut out = vec![(v(0), 0)];
            assert_eq!(s.drain_into(0, &mut out), n as usize);
            assert_eq!(out[1..], want[..], "drain, {n} queued");
            assert_eq!(s.total(), 0);
            assert!(!s.has_messages(0));
            let chained = (n as usize).saturating_sub(1);
            let (blocks, free) = block_census(&s);
            assert_eq!(blocks as usize, chained.div_ceil(BLOCK_LEN), "{n} queued");
            assert_eq!(free, blocks, "a drain frees the whole chain");
        }
    }

    /// Multi-block chains freed by drains are what the refills chain
    /// through: the same blocks, whatever the new queues' shapes.
    #[test]
    fn freed_chains_are_reused_by_refills() {
        let s = PartitionStore::new(4);
        let fill = |lens: [usize; 4], base: u64| {
            let mut locked = s.lock();
            for (local, &len) in lens.iter().enumerate() {
                for i in 0..len as u64 {
                    locked.insert(local, v(local as u32), base + i, None);
                }
            }
        };
        let drain_all = |lens: [usize; 4], base: u64| {
            for (local, &len) in lens.iter().enumerate() {
                let want: Vec<_> = (0..len as u64)
                    .map(|i| (v(local as u32), base + i))
                    .collect();
                assert_eq!(s.drain(local), want, "slot {local}");
            }
        };
        // 1 + 2K + 1, 1 + 3K and 1 + K + 3 envelopes chain 3, 3 and 2 blocks.
        let k = BLOCK_LEN;
        let first = [2 * k + 2, 3 * k + 1, 0, k + 4];
        fill(first, 0);
        assert_eq!(block_census(&s), (8, 0));
        drain_all(first, 0);
        assert_eq!(block_census(&s), (8, 8));
        // All eight blocks behind one slot, then spread thin over four.
        for (lens, base) in [([0, 0, 8 * k + 1, 0], 1_000), ([k + 1, 2, k, 3], 2_000)] {
            fill(lens, base);
            let chained: usize = lens.iter().map(|&l| l.saturating_sub(1).div_ceil(k)).sum();
            assert_eq!(block_census(&s), (8, 8 - chained as u32), "{lens:?}");
            drain_all(lens, base);
            assert_eq!(block_census(&s), (8, 8));
        }
        // Half drained and refilled: the refill takes the freed blocks and
        // the undrained chain stays intact and in order.
        fill(first, 3_000);
        s.drain(0);
        s.drain(3);
        fill([2 * k + 1, 0, 0, 0], 4_000);
        assert_eq!(block_census(&s), (8, 3));
        let slot = |local: u32, len: u64, base: u64| (0..len).map(move |i| (v(local), base + i));
        assert!(s.drain(0).into_iter().eq(slot(0, 2 * k as u64 + 1, 4_000)));
        assert!(s.drain(1).into_iter().eq(slot(1, 3 * k as u64 + 1, 3_000)));
        assert_eq!(block_census(&s), (8, 8));
    }

    /// The checkpoint pair and the barrier swap on queues that end on, just
    /// before and just past block edges, into targets whose tail blocks are
    /// part full.
    #[test]
    fn export_restore_and_transfer_cross_block_edges() {
        let k = BLOCK_LEN;
        let lens = [k, k + 1, k + 2, 2 * k + 1, 2 * k + 2, 1];
        let queue =
            |local: usize, base: u64| (0..lens[local] as u64).map(move |i| (v(i as u32), base + i));
        let a = PartitionStore::new(lens.len());
        for local in 0..lens.len() {
            for (sender, msg) in queue(local, 0) {
                a.insert(local, sender, msg, None);
            }
        }
        let snapshot = a.export();
        for (local, q) in snapshot.iter().enumerate() {
            assert!(q.iter().copied().eq(queue(local, 0)), "export {local}");
        }
        let b = PartitionStore::new(lens.len());
        b.insert(1, v(9), 9, None);
        b.insert(4, v(9), 9, None);
        b.restore(snapshot.clone());
        assert_eq!(b.export(), snapshot, "restore");

        // Into targets already holding 3 envelopes a slot: what moves in
        // queues behind them, across the targets' part-full tail blocks.
        let c = PartitionStore::new(lens.len());
        for local in 0..lens.len() {
            for i in 0..3 {
                c.insert(local, v(50), 50 + i, None);
            }
        }
        let mut moved = 0;
        b.transfer_all(&c, |_, _| moved += 1);
        assert_eq!((moved, b.total()), (lens.iter().sum::<usize>(), 0));
        for local in 0..lens.len() {
            let held = (0..3).map(|i| (v(50), 50 + i));
            assert!(
                c.drain(local).into_iter().eq(held.chain(queue(local, 0))),
                "slot {local}"
            );
        }
        // The source's blocks all went back to its free list.
        let (blocks, free) = block_census(&b);
        assert_eq!(free, blocks);
    }

    /// A message type that is not `Copy`: new blocks are filled with clones
    /// of the envelope that opened them, and neither those clones nor a
    /// freed block's leftovers ever reach a reader.
    #[test]
    fn clone_filled_blocks_carry_owned_messages() {
        let s = PartitionStore::new(2);
        let text = |round: usize, i: usize| format!("round {round} message {i}");
        for (round, n) in [2 * BLOCK_LEN + 3, BLOCK_LEN + 1, 3 * BLOCK_LEN]
            .into_iter()
            .enumerate()
        {
            for i in 0..n {
                s.insert(i % 2, v(i as u32), text(round, i), None);
            }
            for local in 0..2 {
                let want: Vec<_> = (local..n)
                    .step_by(2)
                    .map(|i| (v(i as u32), text(round, i)))
                    .collect();
                assert_eq!(s.export()[local], want, "round {round} export");
                assert_eq!(s.drain(local), want, "round {round} drain");
            }
        }
    }

    /// Four threads insert at once, two per call and two through the
    /// locked view; the join orders the main thread after all of them, so
    /// the unlocked probe must then be exact.
    #[test]
    fn concurrent_inserts_leave_exact_bits_and_count() {
        const LEN: usize = 300;
        let store = PartitionStore::new(LEN);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    // Thread t owns the locals ≡ t (mod 8) — every word of
                    // the bitmap is shared by all four — and hits each
                    // three times.
                    let mine = (0..LEN).filter(|l| l % 8 == t);
                    for chunk in mine.collect::<Vec<_>>().chunks(16) {
                        if t % 2 == 0 {
                            for i in 0..3 {
                                chunk.iter().for_each(|&l| {
                                    store.insert(l, v(t as u32), i, None);
                                });
                            }
                        } else {
                            let mut locked = store.lock();
                            for i in 0..3 {
                                chunk.iter().for_each(|&l| {
                                    locked.insert(l, v(t as u32), i, None);
                                });
                            }
                        }
                    }
                });
            }
        });
        let inserted = |l: usize| l % 8 < 4;
        for local in 0..LEN {
            assert_eq!(store.has_messages(local), inserted(local), "local {local}");
        }
        assert_eq!(store.total(), 3 * (0..LEN).filter(|&l| inserted(l)).count());
        let mut locked = store.lock();
        let mut out = Vec::new();
        for local in 0..LEN {
            out.clear();
            let n = locked.drain_into(local, &mut out);
            assert_eq!(n, if inserted(local) { 3 } else { 0 });
            assert!(out.iter().map(|e| e.1).eq(0..n as u64), "FIFO per slot");
        }
        drop(locked);
        assert_eq!(store.total(), 0);
        assert!(store
            .occupied
            .iter()
            .all(|w| w.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn transfer_all_moves_and_counts() {
        let a = PartitionStore::new(2);
        let b = PartitionStore::new(2);
        a.insert(0, v(0), 1u64, None);
        a.insert(1, v(0), 2, None);
        b.insert(1, v(9), 7, None); // pre-existing target message stays first
        let mut moved = Vec::new();
        a.transfer_all(&b, |local, sender| moved.push((local, sender)));
        assert_eq!(a.total(), 0);
        assert_eq!(b.total(), 3);
        let mut moved_sorted = moved.clone();
        moved_sorted.sort();
        assert_eq!(moved_sorted, vec![(0, v(0)), (1, v(0))]);
        assert_eq!(b.drain(0), vec![(v(0), 1)]);
        assert_eq!(b.drain(1), vec![(v(9), 7), (v(0), 2)]);
    }

    #[test]
    fn export_restore_roundtrip() {
        let s = PartitionStore::new(5);
        s.insert(0, v(1), 10u64, None);
        s.insert(0, v(2), 20, None);
        s.insert(4, v(3), 30, None);
        let snapshot = s.export();
        assert_eq!(snapshot[0], vec![(v(1), 10), (v(2), 20)]);
        assert_eq!(snapshot[4], vec![(v(3), 30)]);
        s.insert(2, v(9), 99, None); // diverge, then roll back
        let t = PartitionStore::new(5);
        t.insert(3, v(7), 70, None); // stale content must vanish
        t.restore(snapshot);
        assert_eq!(t.total(), 3);
        assert!(!t.has_messages(3));
        assert_eq!(t.drain(0), vec![(v(1), 10), (v(2), 20)]);
        assert_eq!(t.drain(4), vec![(v(3), 30)]);
    }

    /// `deliver_batch` lands a batch as `deliver` per message does: the
    /// same envelopes in the same order, the same `queued()` and the same
    /// recorder ledger — for batches spanning the receiver's partitions,
    /// with and without a combiner, under AP and under BSP (where the batch
    /// waits in the next store until `flip`), and in a pair that holds the
    /// receiver's partitions only.
    #[test]
    fn batch_insert_equals_per_message_deliver() {
        use sg_graph::partition::HashPartitioner;
        use sg_graph::{gen, SplitMix64};
        let g = Arc::new(gen::erdos_renyi(90, 700, true, 0xBA7C));
        let pm = PartitionMap::build(&g, ClusterLayout::new(2, 3), &HashPartitioner::new(7));
        let receiver = WorkerId::new(1);
        let edges: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(_, v)| pm.worker_of(v) == receiver)
            .collect();
        let theirs: Vec<_> = pm.layout().partitions_of_worker(WorkerId::new(0)).collect();
        let ours: Vec<_> = pm.layout().partitions_of_worker(receiver).collect();
        // Each pair's stores, as the receiver's vertices would read them
        // now and after the barrier, and the C1 freshness test of each.
        let observe = |pair: &InboxPair<u64>, rec: &Recorder| {
            let stores = |p: &PartitionId| {
                (
                    pair.current()[p.index()].export(),
                    pair.landing(p.index()).export(),
                )
            };
            let stale = ours.iter().flat_map(|&p| pm.vertices_in(p)).map(|&v| {
                let txn = rec.begin(v);
                rec.end(txn);
                rec.history().txns().last().unwrap().stale_reads.clone()
            });
            (
                pair.queued(),
                ours.iter().map(stores).collect::<Vec<_>>(),
                stale.collect::<Vec<_>>(),
            )
        };
        let cases = [Model::Async, Model::Bsp]
            .into_iter()
            .flat_map(|m| [(m, false), (m, true)])
            .flat_map(|(m, c)| [(m, c, None), (m, c, Some(receiver))]);
        for (case, (model, combine, held)) in (1..).zip(cases) {
            let mut rng = SplitMix64::new(0xD17 + case);
            let combiner = combine.then_some(&MinCombiner as &dyn Combiner<u64>);
            let inboxes = |held| {
                let rec = Arc::new(Recorder::new(Arc::clone(&g)));
                (
                    InboxPair::new(&pm, model, Some(Arc::clone(&rec)), held),
                    rec,
                )
            };
            let ((one, one_rec), (batch, batch_rec)) = (inboxes(None), inboxes(held));
            for &p in theirs.iter().filter(|_| held.is_some()) {
                assert!(batch.current()[p.index()].export().is_empty(), "not held");
            }
            for round in 0..4 {
                let what = format!("case {case} round {round}");
                let routed: Vec<Routed<u64>> = (0..1 + rng.gen_index(300))
                    .map(|_| {
                        let (from, to) = edges[rng.gen_index(edges.len())];
                        (to, from, rng.gen_range(1_000))
                    })
                    .collect();
                // A same-worker AP send records nothing, so the
                // per-message side records a send only under BSP.
                for &(to, from, _) in &routed {
                    if model == Model::Bsp {
                        one_rec.on_send(from, to);
                    }
                    batch_rec.on_send(from, to);
                }
                for &(to, from, m) in &routed {
                    one.deliver(from, to, pm.slot_of(to), m, combiner);
                }
                let slots: Vec<_> = routed.iter().map(|r| pm.slot_of(r.0)).collect();
                let reached = slots
                    .iter()
                    .map(|s| s.0)
                    .collect::<std::collections::BTreeSet<_>>();
                assert!(reached.len() > 1, "{what}: one partition");
                batch.deliver_batch(receiver, &slots, &routed, combiner);
                let landed = observe(&one, &one_rec);
                assert_eq!(observe(&batch, &batch_rec), landed, "{what}");
                one.flip(&pm);
                batch.flip(&pm);
                assert_eq!(
                    observe(&batch, &batch_rec),
                    observe(&one, &one_rec),
                    "{what}: flipped"
                );
                if model == Model::Bsp && round == 0 {
                    assert_ne!(landed.0, 0, "{what}");
                    assert!(
                        landed.2.iter().any(|s| !s.is_empty()),
                        "{what}: unread until the flip"
                    );
                }
                // Drain, so the next round's batch meets empty and
                // half-full slots alike.
                for &p in ours.iter().filter(|_| rng.gen_bool(0.5)) {
                    for pair in [&one, &batch] {
                        let store = &pair.current()[p.index()];
                        (0..pm.vertices_in(p).len()).for_each(|l| drop(store.drain(l)));
                    }
                }
            }
        }
    }

    #[test]
    fn push_batch_ships_full_batches_at_cap() {
        let o = OutboundBuffers::new(2);
        let mut staged: Vec<Routed<u64>> = (0..7).map(|i| (v(i), v(0), u64::from(i))).collect();
        let full = o.push_batch(0, 1, &mut staged, 3);
        assert!(staged.is_empty());
        // 7 staged at cap 3: two full batches ship, one message remains.
        assert_eq!(full.iter().map(Vec::len).collect::<Vec<_>>(), vec![3, 3]);
        assert_eq!(o.take(0, 1), vec![(v(6), v(0), 6)]);
        assert!(o.take(0, 1).is_empty());
    }

    #[test]
    fn push_batch_below_cap_only_buffers() {
        let o = OutboundBuffers::new(2);
        let mut staged: Vec<Routed<u64>> = vec![(v(1), v(0), 1)];
        assert!(o.push_batch(0, 1, &mut staged, usize::MAX).is_empty());
        assert!(o.take(1, 0).is_empty(), "buffers are per direction");
        assert_eq!(o.take(0, 1).len(), 1);
    }

    #[test]
    fn staging_combines_sender_side() {
        let c = MinCombiner;
        let mut st = StagingBuffers::new(2, true);
        assert_eq!(st.stage(1, (v(7), v(0), 10u64), Some(&c)), (None, 1));
        // The second message to v7 merges, reporting the sender it replaced.
        assert_eq!(st.stage(1, (v(7), v(1), 3), Some(&c)), (Some(v(0)), 1));
        assert_eq!(st.stage(1, (v(8), v(2), 5), Some(&c)), (None, 2));
        assert_eq!(st.total_staged(), 2);
        let run = st.take_run(1);
        assert_eq!(run.as_slice(), &[(v(7), v(1), 3), (v(8), v(2), 5)]);
        run.clear();
        // After a flush the index is reset: the same vertex stages afresh.
        assert_eq!(st.stage(1, (v(7), v(3), 9), Some(&c)).0, None);
        assert_eq!(st.total_staged(), 1);
    }

    /// The first `n` vertex ids (from 1) whose home bucket in a table of
    /// `len` is `v(0)`'s.
    fn colliding_with_v0(len: usize, n: usize) -> Vec<VertexId> {
        let home = RunIndex::home(v(0), len);
        let same = (1..).map(v).filter(|&k| RunIndex::home(k, len) == home);
        same.take(n).collect()
    }

    #[test]
    fn staging_index_keeps_colliding_keys_apart() {
        let c = MinCombiner;
        let mut st = StagingBuffers::new(1, true);
        let mut keys = colliding_with_v0(INDEX_MIN_BUCKETS, 9);
        keys.push(v(0));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                st.stage(0, (k, v(1), 100 + i as u64), Some(&c)),
                (None, i + 1)
            );
        }
        // Each merges into its own envelope, wherever probing put it.
        for (i, &k) in keys.iter().enumerate().rev() {
            assert_eq!(
                st.stage(0, (k, v(2), i as u64), Some(&c)),
                (Some(v(1)), keys.len())
            );
        }
        let want = keys.iter().enumerate().map(|(i, &k)| (k, v(2), i as u64));
        assert!(st.take_run(0).drain(..).eq(want));
    }

    #[test]
    fn staging_index_outgrows_its_first_table() {
        // Nothing flushes on size (`buffer_cap = usize::MAX`): the run, and
        // the table with it, grows for as long as the superstep stages.
        let c = MinCombiner;
        let mut st = StagingBuffers::new(2, true);
        let n = 5 * INDEX_MIN_BUCKETS as u32;
        let key = |i: u32| v(i.wrapping_mul(2_654_435_761) % 10_007);
        let mut first_seen = Vec::new();
        for round in 0..3u64 {
            for i in 0..n {
                let (folded, staged) = st.stage(1, (key(i), v(i), 10 - round), Some(&c));
                let grew = folded.is_none();
                assert_eq!(
                    grew,
                    !first_seen.contains(&key(i)),
                    "round {round} send {i}"
                );
                if grew {
                    first_seen.push(key(i));
                }
                assert_eq!(staged, first_seen.len());
            }
        }
        assert!(
            first_seen.len() > INDEX_MIN_BUCKETS,
            "the table had to grow"
        );
        // Flush order is first-staged order; every envelope kept the
        // minimum and the last sender.
        let run = st.take_run(1);
        assert!(run.iter().map(|r| r.0).eq(first_seen.iter().copied()));
        assert!(run.iter().all(|r| r.2 == 8));
        let last_sender = |k| (0..n).rev().find(|&i| key(i) == k).map(v);
        assert!(run.iter().all(|r| Some(r.1) == last_sender(r.0)));
    }

    #[test]
    fn staging_index_forgets_a_flushed_run_even_across_an_epoch_wrap() {
        let c = MinCombiner;
        let mut st = StagingBuffers::new(1, true);
        let stage_and_flush = |st: &mut StagingBuffers<u64>, keys: &[VertexId]| {
            for &k in keys {
                let (folded, _) = st.stage(0, (k, v(9), 5), Some(&c));
                assert_eq!(folded, None, "{k:?} resurfaced from an earlier run");
                assert_eq!(st.stage(0, (k, v(8), 5), Some(&c)).0, Some(v(9)));
            }
            let run = st.take_run(0);
            assert!(run.drain(..).eq(keys.iter().map(|&k| (k, v(8), 5))));
        };
        // The first run stamps its buckets with the first epoch. 2^32 - 2
        // flushes later — of runs that never probe those buckets — that
        // epoch number comes round again, and what the first run left
        // behind must not answer for the run that gets it.
        let (early, late) = ([v(1), v(2), v(3)], [v(4), v(5)]);
        stage_and_flush(&mut st, &early);
        let first_epoch = 1..st.dests[0].index.epoch;
        st.dests[0].index.epoch = u32::MAX;
        stage_and_flush(&mut st, &late);
        assert!(first_epoch.contains(&st.dests[0].index.epoch), "wrapped");
        stage_and_flush(&mut st, &early);
        stage_and_flush(&mut st, &late);
    }

    #[test]
    fn staging_without_combiner_keeps_every_message() {
        let mut st = StagingBuffers::new(2, false);
        st.stage(0, (v(1), v(0), 1u64), None);
        st.stage(0, (v(1), v(0), 2), None);
        assert_eq!(st.total_staged(), 2);
        assert_eq!(st.take_run(0).len(), 2);
    }

    #[test]
    fn staging_flush_through_outbound_preserves_multiset() {
        // stage -> push_batch -> take: nothing lost, nothing duplicated.
        let mut st = StagingBuffers::new(2, false);
        let o = OutboundBuffers::new(2);
        for i in 0..10u64 {
            st.stage(1, (v((i % 3) as u32), v(0), i), None);
        }
        let mut shipped: Vec<Routed<u64>> = Vec::new();
        for batch in o.push_batch(0, 1, st.take_run(1), 4) {
            shipped.extend(batch);
        }
        shipped.extend(o.take(0, 1));
        assert_eq!(st.total_staged(), 0);
        assert!(o.take(0, 1).is_empty());
        let mut payloads: Vec<u64> = shipped.iter().map(|r| r.2).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..10).collect::<Vec<_>>());
    }
}
