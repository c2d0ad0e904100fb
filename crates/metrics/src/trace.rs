//! Structured event tracing: a lock-free, per-worker-sharded ring buffer of
//! typed engine events, a Chrome `trace_event` exporter, and a stall
//! watchdog.
//!
//! Counters ([`crate::Metrics`]) say *how much* happened; traces say *when
//! and where*. Every event is stamped with the worker that produced it, the
//! superstep it happened in, and its interval on the host's clock — wall
//! nanoseconds since the run started on the thread engine and the cluster,
//! virtual nanoseconds on the simulator, the GAS engine and the model
//! checker — so a run can be replayed on a timeline (e.g. in Perfetto /
//! `chrome://tracing`) and a token-ring serial chain or a fork convoy is
//! visible as such.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when off.** Engines hold a [`Trace`] handle; a
//!    disabled handle is a `None` and every record call is one branch.
//! 2. **Lock-free when on.** Each worker writes to its own shard (a bounded
//!    ring), so tracing never introduces cross-worker synchronization that
//!    would perturb the schedules being observed. Within a shard, a relaxed
//!    `fetch_add` claims a slot; the slot's four words are themselves
//!    relaxed atomics, so even a same-worker multi-thread race (engine
//!    threads share their worker's shard) is memory-safe — on ring wrap a
//!    torn event is possible in principle, but events are diagnostics, not
//!    control flow.
//! 3. **Bounded memory.** The ring keeps the most recent `capacity` events
//!    per worker; `total_recorded` still counts everything, so exporters can
//!    say how much was dropped.

use crate::json::{self, Json};
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened. The discriminant is packed into one byte in the ring.
///
/// Cross-worker kinds (`BatchFlush`, `ForkTransfer`, `RequestToken`,
/// `RingPass`) additionally carry the destination worker in
/// [`TraceEvent::peer`], so a recorded run forms a happens-before DAG over
/// the host's time: the event's interval is the edge from the recording worker
/// to the peer, and `ts + dur` is the arrival instant at the peer. The
/// [`crate::critical_path`] module reconstructs that DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// One vertex-program invocation; `arg` = messages consumed.
    VertexExecute = 0,
    /// Outgoing messages produced by one vertex; `arg` = message count.
    MessageSend = 1,
    /// A remote batch flush; `arg` = messages in the batch.
    BatchFlush = 2,
    /// A Chandy–Misra fork handed to another philosopher's worker
    /// ([`TraceEvent::peer`]); `arg` = the receiving protocol unit. The
    /// thread engine traces only hops that pay a write-all flush.
    ForkTransfer = 3,
    /// A request token sent cross-worker ([`TraceEvent::peer`]); not
    /// traced by the thread engine.
    RequestToken = 4,
    /// A global-token ring pass; `arg` = receiving worker.
    RingPass = 5,
    /// Time spent blocked acquiring a lock/fork set; `dur` = wait.
    LockWait = 6,
    /// Worker reached the superstep barrier; `dur` = its wait for the
    /// superstep's straggler (the skew the barrier absorbed).
    BarrierWait = 7,
    /// A checkpoint was written; `arg` = superstep.
    Checkpoint = 8,
    /// A checkpoint was restored after a failure; `arg` = superstep.
    Recovery = 9,
    /// A vertex program's own annotation (`Context::trace_marker`);
    /// `arg` = the program's tag.
    UserMarker = 10,
    /// One scheduling decision of the `sg-check` explorer: `arg` = the
    /// chosen index into the enabled-event set, `dur` = set size.
    ScheduleDecision = 11,
    /// One per-state invariant check of the `sg-check` explorer;
    /// `arg` = 0 when the state passed, 1 when a violation was found.
    InvariantCheck = 12,
}

/// A byte that is not the discriminant of any [`TraceEventKind`] — what
/// [`TraceEventKind::try_from`] returns for corrupt or foreign trace data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownTraceKind(pub u8);

impl fmt::Display for UnknownTraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown trace event kind byte {}", self.0)
    }
}

impl std::error::Error for UnknownTraceKind {}

impl TryFrom<u8> for TraceEventKind {
    type Error = UnknownTraceKind;

    /// The explicit inverse of `kind as u8`. Every discriminant is matched;
    /// anything else is an error, never a silent `UserMarker`.
    fn try_from(b: u8) -> Result<TraceEventKind, UnknownTraceKind> {
        Ok(match b {
            0 => TraceEventKind::VertexExecute,
            1 => TraceEventKind::MessageSend,
            2 => TraceEventKind::BatchFlush,
            3 => TraceEventKind::ForkTransfer,
            4 => TraceEventKind::RequestToken,
            5 => TraceEventKind::RingPass,
            6 => TraceEventKind::LockWait,
            7 => TraceEventKind::BarrierWait,
            8 => TraceEventKind::Checkpoint,
            9 => TraceEventKind::Recovery,
            10 => TraceEventKind::UserMarker,
            11 => TraceEventKind::ScheduleDecision,
            12 => TraceEventKind::InvariantCheck,
            other => return Err(UnknownTraceKind(other)),
        })
    }
}

// `ALL` and `try_from` must cover the same contiguous discriminant range;
// adding a variant without extending both fails here at compile time.
const _: () = assert!(TraceEventKind::ALL.len() == TraceEventKind::COUNT);

impl TraceEventKind {
    /// Number of event kinds (discriminants are `0..COUNT`).
    pub const COUNT: usize = 13;

    /// Every kind, in discriminant order.
    pub const ALL: [TraceEventKind; TraceEventKind::COUNT] = [
        TraceEventKind::VertexExecute,
        TraceEventKind::MessageSend,
        TraceEventKind::BatchFlush,
        TraceEventKind::ForkTransfer,
        TraceEventKind::RequestToken,
        TraceEventKind::RingPass,
        TraceEventKind::LockWait,
        TraceEventKind::BarrierWait,
        TraceEventKind::Checkpoint,
        TraceEventKind::Recovery,
        TraceEventKind::UserMarker,
        TraceEventKind::ScheduleDecision,
        TraceEventKind::InvariantCheck,
    ];

    /// Inverse of [`TraceEventKind::name`] — used when parsing exported
    /// traces back in.
    pub fn from_name(name: &str) -> Option<TraceEventKind> {
        TraceEventKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == name)
    }

    /// Stable display name (used as the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::VertexExecute => "vertex_execute",
            TraceEventKind::MessageSend => "message_send",
            TraceEventKind::BatchFlush => "batch_flush",
            TraceEventKind::ForkTransfer => "fork_transfer",
            TraceEventKind::RequestToken => "request_token",
            TraceEventKind::RingPass => "ring_pass",
            TraceEventKind::LockWait => "lock_wait",
            TraceEventKind::BarrierWait => "barrier_wait",
            TraceEventKind::Checkpoint => "checkpoint",
            TraceEventKind::Recovery => "recovery",
            TraceEventKind::UserMarker => "user_marker",
            TraceEventKind::ScheduleDecision => "schedule_decision",
            TraceEventKind::InvariantCheck => "invariant_check",
        }
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Worker (shard) that recorded the event.
    pub worker: u32,
    /// Superstep (or round) the event belongs to.
    pub superstep: u64,
    /// Event type.
    pub kind: TraceEventKind,
    /// Start on the host's clock, nanoseconds.
    pub ts_ns: u64,
    /// Duration, nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Kind-specific payload (message count, lock unit, fork pair id, …).
    pub arg: u64,
    /// Destination worker of a cross-worker event (`BatchFlush`,
    /// `ForkTransfer`, `RequestToken`, `RingPass`): the happens-before
    /// edge target. `None` for worker-local events.
    pub peer: Option<u32>,
}

impl TraceEvent {
    /// End/arrival instant: for cross-worker events, the time the
    /// payload lands at [`TraceEvent::peer`].
    #[inline]
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }
}

/// Encoding of `peer` inside the meta word: 0 = none, otherwise worker+1,
/// in 16 bits (so up to 65535 workers — far beyond any simulated cluster).
const PEER_NONE: u64 = 0;

#[inline]
fn pack_peer(peer: Option<u32>) -> u64 {
    match peer {
        None => PEER_NONE,
        Some(w) => u64::from(w) + 1,
    }
}

/// One worker's bounded event ring. Four relaxed words per slot:
/// `meta = kind | (peer+1) << 8 | superstep << 24`, then `ts`, `dur`, `arg`.
struct Shard {
    cursor: AtomicU64,
    slots: Vec<[AtomicU64; 4]>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            cursor: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn record(
        &self,
        superstep: u64,
        kind: TraceEventKind,
        ts: u64,
        dur: u64,
        arg: u64,
        peer: Option<u32>,
    ) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[i];
        let meta = (kind as u64) | (pack_peer(peer) << 8) | (superstep << 24);
        slot[0].store(meta, Ordering::Relaxed);
        slot[1].store(ts, Ordering::Relaxed);
        slot[2].store(dur, Ordering::Relaxed);
        slot[3].store(arg, Ordering::Relaxed);
    }

    fn decode(&self, worker: u32, slot: usize) -> TraceEvent {
        let s = &self.slots[slot];
        let meta = s[0].load(Ordering::Relaxed);
        let peer_bits = (meta >> 8) & 0xFFFF;
        TraceEvent {
            worker,
            superstep: meta >> 24,
            // The meta word is written by a single atomic store, so the
            // kind byte is always one `record` produced — decode may trust
            // it.
            kind: TraceEventKind::try_from((meta & 0xFF) as u8)
                .expect("trace ring slot holds a kind `record` never wrote"),
            ts_ns: s[1].load(Ordering::Relaxed),
            dur_ns: s[2].load(Ordering::Relaxed),
            arg: s[3].load(Ordering::Relaxed),
            peer: if peer_bits == PEER_NONE {
                None
            } else {
                Some((peer_bits - 1) as u32)
            },
        }
    }
}

/// Lock-free, per-worker-sharded bounded trace buffer.
pub struct TraceBuffer {
    shards: Vec<Shard>,
}

impl TraceBuffer {
    /// A buffer with one ring of `capacity` events per worker.
    pub fn new(workers: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            shards: (0..workers).map(|_| Shard::new(capacity)).collect(),
        }
    }

    /// Number of worker shards.
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Ring capacity per worker.
    pub fn capacity(&self) -> usize {
        self.shards.first().map_or(0, |s| s.slots.len())
    }

    /// Record one worker-local event into `worker`'s shard.
    #[inline]
    pub fn record(
        &self,
        worker: u32,
        superstep: u64,
        kind: TraceEventKind,
        ts_ns: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        self.shards[worker as usize].record(superstep, kind, ts_ns, dur_ns, arg, None);
    }

    /// Record one cross-worker event: `peer` is the destination worker the
    /// payload (batch, fork, token) is headed to, making the event a
    /// happens-before edge `worker → peer` arriving at `ts_ns + dur_ns`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_peer(
        &self,
        worker: u32,
        superstep: u64,
        kind: TraceEventKind,
        ts_ns: u64,
        dur_ns: u64,
        arg: u64,
        peer: u32,
    ) {
        self.shards[worker as usize].record(superstep, kind, ts_ns, dur_ns, arg, Some(peer));
    }

    /// Total events ever recorded by `worker` (including any the ring has
    /// since overwritten).
    pub fn total_recorded(&self, worker: usize) -> u64 {
        self.shards[worker].cursor.load(Ordering::Relaxed)
    }

    /// Events currently retained for `worker`, oldest first.
    pub fn events(&self, worker: usize) -> Vec<TraceEvent> {
        let shard = &self.shards[worker];
        let cap = shard.slots.len();
        let total = shard.cursor.load(Ordering::Relaxed) as usize;
        let n = total.min(cap);
        let start = if total > cap { total % cap } else { 0 };
        (0..n)
            .map(|i| shard.decode(worker as u32, (start + i) % cap))
            .collect()
    }

    /// The last `n` retained events of `worker`, oldest first.
    pub fn last_events(&self, worker: usize, n: usize) -> Vec<TraceEvent> {
        let mut e = self.events(worker);
        if e.len() > n {
            e.drain(..e.len() - n);
        }
        e
    }

    /// All retained events of all workers, by worker then chronology.
    pub fn all_events(&self) -> Vec<TraceEvent> {
        (0..self.shards.len())
            .flat_map(|w| self.events(w))
            .collect()
    }

    /// Human-readable dump of the last `per_worker` events of every worker —
    /// what the stall watchdog prints.
    pub fn dump_last(&self, per_worker: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for w in 0..self.shards.len() {
            let total = self.total_recorded(w);
            let events = self.last_events(w, per_worker);
            let _ = writeln!(
                out,
                "worker {w}: {total} events recorded, last {}:",
                events.len()
            );
            for e in events {
                let peer = e.peer.map(|p| format!(" -> w{p}")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  [ss {:>4}] {:<15} ts={} dur={} arg={}{peer}",
                    e.superstep,
                    e.kind.name(),
                    crate::simtime::fmt_sim_ns(e.ts_ns),
                    crate::simtime::fmt_sim_ns(e.dur_ns),
                    e.arg
                );
            }
        }
        out
    }

    /// Write the whole buffer as Chrome `trace_event` JSON (the
    /// `traceEvents` array format), loadable in Perfetto or
    /// `chrome://tracing`. The host's clock maps to the trace clock (µs);
    /// workers map to threads of one process.
    pub fn write_chrome_trace<W: Write>(&self, w: W) -> io::Result<()> {
        self.write_chrome_trace_with_meta(w, &[])
    }

    /// [`TraceBuffer::write_chrome_trace`] plus a `serigraph_run` metadata
    /// record carrying run-identity key/value pairs (technique, workload,
    /// exact makespan, schema version) — what `sg-trace diff`/`check` use
    /// to refuse incompatible comparisons.
    pub fn write_chrome_trace_with_meta<W: Write>(
        &self,
        w: W,
        meta: &[(&str, String)],
    ) -> io::Result<()> {
        let metadata = |name: &str, tid: u32, args: Json| {
            Json::obj([
                ("name", name.into()),
                ("ph", "M".into()),
                ("pid", 0u64.into()),
                ("tid", tid.into()),
                ("args", args),
            ])
        };
        let named = |name: String| Json::obj([("name", name.into())]);
        let run = (!meta.is_empty()).then(|| {
            let args = meta.iter().map(|(k, v)| (k.to_string(), v.as_str().into()));
            metadata("serigraph_run", 0, Json::Obj(args.collect()))
        });
        let workers = 0..self.num_workers() as u32;
        let threads = workers
            .clone()
            .map(|w| metadata("thread_name", w, named(format!("worker {w}"))));
        let events = workers.flat_map(|w| self.events(w as usize)).map(|e| {
            let mut args = Json::obj([("superstep", e.superstep.into()), ("arg", e.arg.into())]);
            if let Some(p) = e.peer {
                args.push("peer", p);
            }
            let mut doc = Json::obj([("name", e.kind.name().into())]);
            if e.dur_ns > 0 {
                doc.push("ph", "X");
                doc.push("ts", e.ts_ns as f64 / 1_000.0);
                doc.push("dur", e.dur_ns as f64 / 1_000.0);
            } else {
                doc.push("ph", "i");
                doc.push("s", "t");
                doc.push("ts", e.ts_ns as f64 / 1_000.0);
            }
            doc.push("pid", 0u64);
            doc.push("tid", e.worker);
            doc.push("args", args);
            doc
        });
        // The process-name metadata record always comes first.
        let process = metadata("process_name", 0, named("serigraph virtual cluster".into()));
        let records = std::iter::once(process)
            .chain(run)
            .chain(threads)
            .chain(events);
        json::write_streaming_object(
            w,
            &[("displayTimeUnit", "ms".into())],
            "traceEvents",
            records,
        )
    }
}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("workers", &self.num_workers())
            .field("capacity", &self.capacity())
            .field(
                "recorded",
                &(0..self.num_workers())
                    .map(|w| self.total_recorded(w))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// The handle engines carry. Disabled: a `None`, one branch per record call.
/// Enabled: an [`Arc<TraceBuffer>`].
#[derive(Clone, Debug, Default)]
pub struct Trace(Option<Arc<TraceBuffer>>);

impl Trace {
    /// A disabled handle; recording is a no-op.
    pub fn disabled() -> Self {
        Trace(None)
    }

    /// An enabled handle over a fresh buffer.
    pub fn enabled(workers: usize, capacity: usize) -> Self {
        Trace(Some(Arc::new(TraceBuffer::new(workers, capacity))))
    }

    /// Is event collection live?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying buffer, if enabled.
    pub fn buffer(&self) -> Option<&Arc<TraceBuffer>> {
        self.0.as_ref()
    }

    /// Record one worker-local event (no-op when disabled).
    #[inline]
    pub fn record(
        &self,
        worker: u32,
        superstep: u64,
        kind: TraceEventKind,
        ts_ns: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        if let Some(b) = &self.0 {
            b.record(worker, superstep, kind, ts_ns, dur_ns, arg);
        }
    }

    /// Record one cross-worker event whose payload lands on worker `peer`
    /// at `ts_ns + dur_ns` (no-op when disabled).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_peer(
        &self,
        worker: u32,
        superstep: u64,
        kind: TraceEventKind,
        ts_ns: u64,
        dur_ns: u64,
        arg: u64,
        peer: u32,
    ) {
        if let Some(b) = &self.0 {
            b.record_peer(worker, superstep, kind, ts_ns, dur_ns, arg, peer);
        }
    }
}

impl From<Option<Arc<TraceBuffer>>> for Trace {
    /// A handle over `buffer`: enabled iff there is one.
    fn from(buffer: Option<Arc<TraceBuffer>>) -> Self {
        Trace(buffer)
    }
}

/// A stall/deadlock watchdog: samples a monotone progress counter on a
/// background thread; if the counter stops moving for `stall_after` of wall
/// time, fires `on_stall` once (engines pass a closure that dumps the last
/// N trace events per worker) and latches the [`Watchdog::stalled`] flag —
/// so a wedged run (e.g. a fork-cycle bug in a synchronization technique)
/// produces a diagnostic instead of hanging silently.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    stalled: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching. `progress` must strictly increase while the observed
    /// system is making progress (e.g. the sum of all counters);
    /// `on_stall` runs at most once, on the watchdog
    /// thread.
    pub fn spawn(
        poll: Duration,
        stall_after: Duration,
        progress: impl Fn() -> u64 + Send + 'static,
        on_stall: impl FnOnce() + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stalled = Arc::new(AtomicBool::new(false));
        let stop_t = Arc::clone(&stop);
        let stalled_t = Arc::clone(&stalled);
        let handle = std::thread::Builder::new()
            .name("sg-watchdog".into())
            .spawn(move || {
                let mut last = progress();
                let mut last_change = Instant::now();
                loop {
                    if stop_t.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(poll);
                    if stop_t.load(Ordering::SeqCst) {
                        return;
                    }
                    let cur = progress();
                    if cur != last {
                        last = cur;
                        last_change = Instant::now();
                    } else if last_change.elapsed() >= stall_after {
                        stalled_t.store(true, Ordering::SeqCst);
                        on_stall();
                        return;
                    }
                }
            })
            .expect("spawn watchdog thread");
        Self {
            stop,
            stalled,
            handle: Some(handle),
        }
    }

    /// Has a stall been detected so far?
    pub fn stalled(&self) -> bool {
        self.stalled.load(Ordering::SeqCst)
    }

    /// Stop the watchdog thread and return whether a stall was detected.
    pub fn stop(mut self) -> bool {
        self.shutdown();
        self.stalled()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl TraceBuffer {
    /// Rebuild a buffer from decoded events, sharding by each event's
    /// `worker` id — the inverse of [`TraceBuffer::all_events`] (up to ring
    /// eviction). Used to re-materialize merged cross-process traces for
    /// Chrome export.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let workers = events.iter().map(|e| e.worker + 1).max().unwrap_or(1) as usize;
        let mut per_worker = vec![0usize; workers];
        for e in events {
            per_worker[e.worker as usize] += 1;
        }
        let capacity = per_worker.iter().copied().max().unwrap_or(0).max(1);
        let buf = TraceBuffer::new(workers, capacity);
        for e in events {
            buf.shards[e.worker as usize].record(
                e.superstep,
                e.kind,
                e.ts_ns,
                e.dur_ns,
                e.arg,
                e.peer,
            );
        }
        buf
    }
}

/// Merge traces recorded by several *processes*, each with its own private
/// worker-id space starting at 0, into one trace with a global id space.
///
/// Process `i`'s workers are namespaced by the running offset
/// `offsets[i] = Σ_{j<i} worker_count(j)` (a process's worker count is its
/// highest recorded worker id + 1), so ids from different processes never
/// collide; `peer` references are remapped with the same offset because
/// they point into the recording process's own id space. Returns the merged
/// events and the per-process offsets for callers that need to translate
/// other per-process data (breakdowns, histories) into the same space.
pub fn merge_process_events(sources: &[Vec<TraceEvent>]) -> (Vec<TraceEvent>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(sources.len());
    let mut merged = Vec::with_capacity(sources.iter().map(Vec::len).sum());
    let mut next = 0u32;
    for events in sources {
        offsets.push(next);
        let span = events.iter().map(|e| e.worker + 1).max().unwrap_or(0);
        for e in events {
            let mut e = *e;
            e.worker += next;
            e.peer = e.peer.map(|p| p + next);
            merged.push(e);
        }
        next += span;
    }
    (merged, offsets)
}

/// Merge traces from processes that each recorded with a *pre-assigned*
/// global worker rank: events keep their recorded `worker`/`peer` ids
/// (already global, e.g. the `sg-cluster` runtime where process `i` *is*
/// worker `i`), and the result is ordered by worker then chronology, the
/// same order [`TraceBuffer::all_events`] produces.
pub fn merge_ranked_events(sources: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let mut merged: Vec<TraceEvent> = sources.iter().flatten().copied().collect();
    merged.sort_by_key(|a| (a.worker, a.ts_ns, a.superstep));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let b = TraceBuffer::new(2, 16);
        b.record(0, 3, TraceEventKind::VertexExecute, 100, 200, 5);
        b.record(1, 3, TraceEventKind::RingPass, 400, 0, 0);
        let e0 = b.events(0);
        assert_eq!(e0.len(), 1);
        assert_eq!(e0[0].kind, TraceEventKind::VertexExecute);
        assert_eq!(e0[0].superstep, 3);
        assert_eq!(e0[0].ts_ns, 100);
        assert_eq!(e0[0].dur_ns, 200);
        assert_eq!(e0[0].arg, 5);
        assert_eq!(e0[0].worker, 0);
        assert_eq!(b.events(1)[0].kind, TraceEventKind::RingPass);
    }

    #[test]
    fn ring_keeps_last_capacity_events() {
        let b = TraceBuffer::new(1, 4);
        for i in 0..10u64 {
            b.record(0, 0, TraceEventKind::MessageSend, i, 0, i);
        }
        assert_eq!(b.total_recorded(0), 10);
        let events = b.events(0);
        assert_eq!(events.len(), 4);
        // The oldest-first window of the last 4.
        assert_eq!(
            events.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            b.last_events(0, 2)
                .iter()
                .map(|e| e.arg)
                .collect::<Vec<_>>(),
            vec![8, 9]
        );
    }

    #[test]
    fn kind_roundtrips_through_packing() {
        // Every discriminant — ALL is const-asserted to cover them all.
        let b = TraceBuffer::new(1, 16);
        for (i, &k) in TraceEventKind::ALL.iter().enumerate() {
            b.record(0, i as u64, k, 0, 0, 0);
        }
        let events = b.events(0);
        for (i, &k) in TraceEventKind::ALL.iter().enumerate() {
            assert_eq!(events[i].kind, k);
            assert_eq!(events[i].superstep, i as u64);
            assert_eq!(events[i].peer, None);
        }
    }

    #[test]
    fn kind_byte_roundtrip_is_explicit_over_all_discriminants() {
        for &k in &TraceEventKind::ALL {
            assert_eq!(TraceEventKind::try_from(k as u8), Ok(k));
            assert_eq!(TraceEventKind::from_name(k.name()), Some(k));
        }
        // Bytes beyond the last discriminant are rejected, never silently
        // mapped to UserMarker.
        for b in TraceEventKind::COUNT as u8..=u8::MAX {
            assert_eq!(TraceEventKind::try_from(b), Err(UnknownTraceKind(b)));
        }
        assert_eq!(TraceEventKind::from_name("not_a_kind"), None);
    }

    #[test]
    fn merge_namespaces_worker_ids_per_process() {
        // Two processes, each recording workers {0, 1} with peer edges
        // inside their own id space: merged ids must not collide.
        let mk = |arg| {
            let b = TraceBuffer::new(2, 8);
            b.record_peer(0, 1, TraceEventKind::BatchFlush, 10, 5, arg, 1);
            b.record(1, 1, TraceEventKind::VertexExecute, 20, 5, arg);
            [b.events(0), b.events(1)].concat()
        };
        let (merged, offsets) = merge_process_events(&[mk(1), mk(2)]);
        assert_eq!(offsets, vec![0, 2]);
        assert_eq!(merged.len(), 4);
        let workers: Vec<u32> = merged.iter().map(|e| e.worker).collect();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        // Peer edges stay inside their process's namespaced range.
        assert_eq!(merged[0].peer, Some(1));
        assert_eq!(merged[2].peer, Some(3));
        // Round-trips through a buffer for Chrome export.
        let buf = TraceBuffer::from_events(&merged);
        assert_eq!(buf.num_workers(), 4);
        assert_eq!(buf.all_events(), merged);
    }

    #[test]
    fn merge_namespaced_skips_empty_sources() {
        let b = TraceBuffer::new(1, 8);
        b.record(0, 0, TraceEventKind::BarrierWait, 1, 0, 0);
        let (merged, offsets) = merge_process_events(&[vec![], b.events(0)]);
        assert_eq!(offsets, vec![0, 0]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].worker, 0);
    }

    #[test]
    fn merge_ranked_keeps_global_ids_and_sorts() {
        let a = TraceBuffer::new(2, 8); // process 0 = worker 0
        a.record_peer(0, 0, TraceEventKind::BatchFlush, 30, 5, 0, 1);
        let b = TraceBuffer::new(2, 8); // process 1 = worker 1
        b.record(1, 0, TraceEventKind::VertexExecute, 10, 5, 0);
        let merged = merge_ranked_events(&[a.events(0), b.events(1)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].worker, 0);
        assert_eq!(merged[0].peer, Some(1));
        assert_eq!(merged[1].worker, 1);
    }

    #[test]
    fn peer_roundtrips_through_packing() {
        let b = TraceBuffer::new(3, 16);
        b.record_peer(0, 9, TraceEventKind::BatchFlush, 100, 50, 7, 2);
        b.record_peer(1, 9, TraceEventKind::RingPass, 10, 20, 0, 0);
        b.record(2, 9, TraceEventKind::LockWait, 5, 5, 3);
        let e = b.events(0)[0];
        assert_eq!(e.peer, Some(2));
        assert_eq!(e.superstep, 9);
        assert_eq!(e.arg, 7);
        assert_eq!(e.end_ns(), 150);
        // Worker 0 as a peer is distinguishable from "no peer".
        assert_eq!(b.events(1)[0].peer, Some(0));
        assert_eq!(b.events(2)[0].peer, None);
    }

    #[test]
    fn per_worker_sharding_is_deterministic_under_concurrency() {
        // Each thread writes its own worker's shard; concurrency across
        // shards must not mix, drop, or reorder anything.
        let b = Arc::new(TraceBuffer::new(4, 1024));
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        b.record(w, i, TraceEventKind::VertexExecute, i * 10, 1, u64::from(w));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..4usize {
            let events = b.events(w);
            assert_eq!(events.len(), 500);
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.worker, w as u32);
                assert_eq!(e.superstep, i as u64, "in-order within shard");
                assert_eq!(e.ts_ns, i as u64 * 10);
                assert_eq!(e.arg, w as u64);
            }
        }
    }

    #[test]
    fn concurrent_writers_to_one_shard_lose_nothing_below_capacity() {
        let b = Arc::new(TraceBuffer::new(1, 8192));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        b.record(0, 0, TraceEventKind::MessageSend, 0, 0, t * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.total_recorded(0), 4000);
        let mut args: Vec<u64> = b.events(0).iter().map(|e| e.arg).collect();
        args.sort_unstable();
        assert_eq!(args, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.record(0, 0, TraceEventKind::VertexExecute, 0, 0, 0);
        assert!(t.buffer().is_none());
    }

    #[test]
    fn chrome_trace_is_valid_json_shape() {
        let b = TraceBuffer::new(2, 16);
        b.record(0, 0, TraceEventKind::VertexExecute, 1_000, 2_000, 3);
        b.record(1, 1, TraceEventKind::RingPass, 5_000, 0, 0);
        let mut out = Vec::new();
        b.write_chrome_trace(&mut out).unwrap();
        let doc = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let records = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // process_name, two thread_names, two events.
        assert_eq!(records.len(), 5);
        let field = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
        let (exec, pass) = (&records[3], &records[4]);
        assert_eq!(field(exec, "name"), Json::from("vertex_execute"));
        assert_eq!(field(exec, "ph"), Json::from("X"));
        assert_eq!(field(exec, "ts"), Json::Num(1.0));
        assert_eq!(field(exec, "dur"), Json::Num(2.0));
        assert_eq!(field(exec, "tid"), Json::U64(0));
        assert_eq!(field(&field(exec, "args"), "arg"), Json::U64(3));
        assert_eq!(field(pass, "ph"), Json::from("i"));
        assert_eq!(field(pass, "tid"), Json::U64(1));
        assert_eq!(field(pass, "dur"), Json::Null);
        assert_eq!(field(&field(pass, "args"), "superstep"), Json::U64(1));
    }

    #[test]
    fn watchdog_fires_on_artificial_stall_and_not_on_progress() {
        use std::sync::Mutex;
        // Stalled: progress constant.
        let dumped = Arc::new(Mutex::new(String::new()));
        let d2 = Arc::clone(&dumped);
        let b = Arc::new(TraceBuffer::new(1, 8));
        b.record(0, 7, TraceEventKind::LockWait, 10, 90, 0);
        let b2 = Arc::clone(&b);
        let wd = Watchdog::spawn(
            Duration::from_millis(5),
            Duration::from_millis(30),
            || 42,
            move || {
                *d2.lock().unwrap() = b2.dump_last(4);
            },
        );
        let t0 = Instant::now();
        while !wd.stalled() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wd.stop(), "watchdog must detect the artificial stall");
        let dump = dumped.lock().unwrap().clone();
        assert!(dump.contains("worker 0"), "dump: {dump}");
        assert!(dump.contains("lock_wait"), "dump: {dump}");

        // Progressing: counter moves every poll; no stall within the window.
        let ticks = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&ticks);
        let wd = Watchdog::spawn(
            Duration::from_millis(5),
            Duration::from_millis(60),
            move || t2.fetch_add(1, Ordering::SeqCst),
            || panic!("must not fire while progressing"),
        );
        std::thread::sleep(Duration::from_millis(120));
        assert!(!wd.stop());
    }

    #[test]
    fn dump_last_reports_totals() {
        let b = TraceBuffer::new(2, 4);
        for i in 0..9 {
            b.record(0, i, TraceEventKind::MessageSend, 0, 0, 0);
        }
        let dump = b.dump_last(2);
        assert!(dump.contains("worker 0: 9 events recorded, last 2:"));
        assert!(dump.contains("worker 1: 0 events recorded, last 0:"));
    }
}
