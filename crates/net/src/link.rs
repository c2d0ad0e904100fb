//! Connection management: framed control-plane connections and the
//! resilient peer-to-peer data links.
//!
//! Control-plane connections (worker ↔ coordinator) ride plain TCP and
//! are assumed reliable — a lost coordinator is a lost run.
//!
//! Data-plane links (worker ↔ worker) survive injected faults. Every
//! *sequenced* frame (vertex batches, flush fences) carries a
//! per-direction sequence number starting at 1 and is buffered until
//! acknowledged; the receiver applies frames strictly in
//! sequence (duplicates and gaps are dropped) and reports its applied
//! watermark in `FlushAck.ack_through`. Unsequenced frames (seq 0 —
//! handshakes, acks, heartbeats) are idempotent and fire-and-forget.
//! A C1 write-all fence is a sequenced `FlushPing`: once its seq is
//! acknowledged, everything staged before it has been *applied* by the
//! peer, which is exactly the receipt the write-all barrier needs.
//! Lost connections are re-dialed by the lower-ranked side with
//! exponential backoff (10ms doubling to 500ms); the resume handshake
//! exchanges each side's next expected seq and the unacked tail is
//! retransmitted.
//!
//! ## Data-plane v2: pooled buffers and vectored writes
//!
//! Every sequenced frame is encoded exactly once at send time into a
//! buffer drawn from a per-link [`BufPool`] — a batch flush's entries
//! straight from the sender's staged messages ([`PeerLink::send_batch`]);
//! the encoded bytes live in the retransmit tail until acknowledged, so a
//! retransmit (fence retry or post-redial resume) replays the *identical*
//! bytes — no re-encode, no allocation, no fresh Lamport stamp. Batch
//! flushes are lazily staged and
//! submitted in one `write_vectored` call when a latency-sensitive frame
//! follows (fence pings, acks, heartbeats — they ride behind the staged
//! batches in the same syscall) or when the staged run exceeds
//! [`COALESCE_FRAMES`]/[`COALESCE_BYTES`]. Fault-injection
//! actions are still claimed at `send` time in frame-index order
//! (determinism) and applied at submission time.

use std::collections::VecDeque;
use std::io::{BufReader, IoSlice, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{FaultAction, FaultInjector};
use crate::wire::{
    batch_view, check_version, peek_header, read_frame, read_frame_into, BatchFrame, BatchView,
    Frame, Message, PROTOCOL_VERSION,
};
use crate::{Clock, NetError};
use sg_metrics::{CounterHandle, GaugeHandle, HistogramHandle, Telemetry};

/// How long a fence waits between retransmit attempts.
const FENCE_RETRY: Duration = Duration::from_millis(100);
/// Initial redial backoff; doubles per failure up to [`DIAL_BACKOFF_MAX`].
const DIAL_BACKOFF_MIN: Duration = Duration::from_millis(10);
/// Redial backoff cap.
const DIAL_BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Handshake read timeout (a dead acceptor must not hang the dialer).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
/// Idle threshold after which the maintenance tick sends a heartbeat.
const HEARTBEAT_IDLE: Duration = Duration::from_millis(300);
/// Staged batch frames that force a vectored submission on their own.
const COALESCE_FRAMES: usize = 64;
/// Staged batch bytes that force a vectored submission on their own.
const COALESCE_BYTES: usize = 256 << 10;
/// Max `IoSlice`s per `write_vectored` call (kernels cap iovcnt at
/// `IOV_MAX`, typically 1024; stay safely below).
const IOV_CHUNK: usize = 512;
/// Free-list cap of a [`BufPool`]; excess buffers are dropped.
const POOL_MAX: usize = 64;
/// Buffers larger than this are not retained by the pool (one huge setup
/// frame must not pin memory for the whole run).
const POOL_MAX_BUF: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

/// Shared write half of a framed control-plane connection. Reads happen
/// on a dedicated thread via [`FrameReader`].
pub struct CtrlConn {
    /// Stream plus a reusable encode scratch buffer (control sends are
    /// serialized by this lock anyway, so the scratch rides along free).
    writer: Mutex<(TcpStream, Vec<u8>)>,
    seq: AtomicU64,
    clock: Arc<Clock>,
}

impl CtrlConn {
    /// Wrap a connected stream; returns the writer plus a cloned read
    /// half for the caller's reader thread.
    pub fn new(stream: TcpStream, clock: Arc<Clock>) -> std::io::Result<(Self, TcpStream)> {
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok((
            Self {
                writer: Mutex::new((stream, Vec::new())),
                seq: AtomicU64::new(1),
                clock,
            },
            read_half,
        ))
    }

    /// Frame and send one message. `msg` is encoded into the connection's
    /// reusable scratch buffer — no per-send allocation.
    pub fn send(&self, msg: &Message) -> std::io::Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let mut w = self.writer.lock().unwrap();
        let (stream, scratch) = &mut *w;
        // Clock ticked under the lock so control-plane frame clocks are
        // monotone in the order the bytes hit the wire.
        crate::wire::encode_frame_into(seq, self.clock.tick(), msg, scratch);
        stream.write_all(scratch)
    }

    /// The Lamport clock every send on this connection ticks.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Shut the connection down (unblocks the reader thread too).
    pub fn close(&self) {
        let w = self.writer.lock().unwrap();
        let _ = w.0.shutdown(Shutdown::Both);
    }
}

/// Blocking framed reader over one stream; joins the Lamport clock on
/// every received frame before handing the message to the caller.
pub struct FrameReader {
    reader: BufReader<TcpStream>,
    clock: Arc<Clock>,
}

impl FrameReader {
    pub fn new(stream: TcpStream, clock: Arc<Clock>) -> Self {
        Self {
            reader: BufReader::new(stream),
            clock,
        }
    }

    /// Next message, `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> Result<Option<Message>, NetError> {
        match read_frame(&mut self.reader)? {
            None => Ok(None),
            Some(Err(e)) => Err(NetError::Wire(e)),
            Some(Ok(frame)) => {
                self.clock.join(frame.clock);
                Ok(Some(frame.msg))
            }
        }
    }
}

/// Read one frame with a deadline — used only during handshakes. Reads
/// the raw stream unbuffered (`read_frame` is `read_exact`-only) so no
/// bytes belonging to post-handshake frames are swallowed.
fn read_frame_timeout(stream: &TcpStream, timeout: Duration) -> Result<Frame, NetError> {
    stream.set_read_timeout(Some(timeout))?;
    let mut raw = stream;
    let result = match read_frame(&mut raw)? {
        None => Err(NetError::Protocol("peer closed during handshake".into())),
        Some(Err(e)) => Err(NetError::Wire(e)),
        Some(Ok(frame)) => Ok(frame),
    };
    stream.set_read_timeout(None)?;
    result
}

fn write_handshake(
    stream: &TcpStream,
    clock: &Clock,
    rank: u32,
    resume_from: u64,
) -> std::io::Result<()> {
    let frame = Frame {
        seq: 0,
        clock: clock.tick(),
        msg: Message::PeerHello {
            version: PROTOCOL_VERSION,
            rank,
            resume_from,
        },
    };
    (&mut (&*stream)).write_all(&frame.encode())
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

/// A process-local monotonic nanosecond clock. Heartbeats carry this value
/// as an opaque echo; the peer reflects it back and only the original
/// sender interprets it, so no cross-host clock agreement is needed.
pub(crate) fn mono_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-link wire telemetry: registered once per peer at link construction,
/// recorded from the send/recv paths with lock-free handles.
struct LinkStats {
    frames_out: CounterHandle,
    bytes_out: CounterHandle,
    frames_in: CounterHandle,
    bytes_in: CounterHandle,
    retransmits: CounterHandle,
    dup_reacks: CounterHandle,
    redials: CounterHandle,
    queue_depth: GaugeHandle,
    rtt: HistogramHandle,
    /// Pool misses: a frame buffer had to be freshly allocated.
    pool_allocs: CounterHandle,
    /// Pool hits: a frame buffer was served from the free list.
    pool_reuses: CounterHandle,
    /// Vectored socket submissions (≈ send-path syscalls).
    writevs: CounterHandle,
}

impl LinkStats {
    fn new(t: &Telemetry, peer_rank: u32) -> Self {
        let peer = peer_rank.to_string();
        let labels: &[(&str, &str)] = &[("peer", &peer)];
        LinkStats {
            frames_out: t.counter("sg_link_frames_out_total", labels),
            bytes_out: t.counter("sg_link_bytes_out_total", labels),
            frames_in: t.counter("sg_link_frames_in_total", labels),
            bytes_in: t.counter("sg_link_bytes_in_total", labels),
            retransmits: t.counter("sg_link_retransmits_total", labels),
            dup_reacks: t.counter("sg_link_dup_reacks_total", labels),
            redials: t.counter("sg_link_redials_total", labels),
            queue_depth: t.gauge("sg_link_send_queue_depth", labels),
            rtt: t.histogram("sg_link_rtt_ns", labels),
            pool_allocs: t.counter("sg_link_pool_allocs_total", labels),
            pool_reuses: t.counter("sg_link_pool_reuses_total", labels),
            writevs: t.counter("sg_link_writev_total", labels),
        }
    }
}

/// A free list of reusable frame buffers shared by the send path and the
/// retransmit tail. After warm-up every steady-state send is served from
/// the free list — the [`BufPool::allocs`] counter goes flat, which is
/// exactly what `steady_state_sends_reuse_pooled_buffers` asserts.
pub struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
    allocs: AtomicU64,
    reuses: AtomicU64,
}

impl BufPool {
    fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Pop a cleared buffer; the flag reports whether it was a fresh
    /// allocation (pool miss).
    fn get(&self) -> (Vec<u8>, bool) {
        if let Some(mut b) = self.free.lock().unwrap().pop() {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            b.clear();
            return (b, false);
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        (Vec::new(), true)
    }

    fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_BUF {
            return;
        }
        let mut free = self.free.lock().unwrap();
        if free.len() < POOL_MAX {
            free.push(buf);
        }
    }

    /// Pre-provision buffers so the free list holds at least `n` entries
    /// of at least `capacity` bytes each. Bounded by [`POOL_MAX`] /
    /// [`POOL_MAX_BUF`]; the up-front allocations count in
    /// [`BufPool::stats`] like any other pool miss, which keeps the
    /// steady-state alloc assertion honest — after priming, a workload
    /// whose concurrent frame demand stays within `n` never allocates.
    fn prime(&self, n: usize, capacity: usize) {
        let capacity = capacity.min(POOL_MAX_BUF);
        let mut free = self.free.lock().unwrap();
        let want = n.min(POOL_MAX);
        while free.len() < want {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            free.push(Vec::with_capacity(capacity.max(1)));
        }
    }

    /// `(fresh allocations, free-list reuses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.reuses.load(Ordering::Relaxed),
        )
    }
}

/// Receiver-side callbacks a [`PeerLink`] delivers applied frames to.
/// Invoked on the link's reader thread, strictly in frame-seq order.
pub trait PeerHandler: Send + Sync + 'static {
    /// A batch of vertex messages. Payload slices borrow the link's
    /// receive buffer — copy out what must outlive the call.
    fn on_batch(&self, from: u32, batch: BatchView<'_>);
}

/// One sequenced frame in the retransmit tail: wire bytes encoded exactly
/// once at send time (pooled buffer), the fault action claimed for it,
/// and whether it has been submitted on the current connection.
struct SentFrame {
    seq: u64,
    bytes: Vec<u8>,
    fault: FaultAction,
    written: bool,
}

struct SendHalf {
    stream: Option<TcpStream>,
    /// Bumped on every (re)attach so stale reader threads stand down.
    generation: u64,
    /// Seq assigned to the next sequenced frame (starts at 1).
    next_seq: u64,
    /// Highest seq the peer has acknowledged *applying*.
    acked: u64,
    /// Unacked sequenced frames, oldest first (the retransmit tail; the
    /// not-yet-written suffix doubles as the vectored-write stage).
    buffer: VecDeque<SentFrame>,
    /// Bytes in not-yet-written sequenced frames.
    staged_bytes: usize,
    /// Not-yet-written sequenced frame count.
    staged_frames: usize,
    /// Encoded unsequenced frames (acks, heartbeats) awaiting the next
    /// submission; they ride behind the staged batches.
    ctrl: Vec<Vec<u8>>,
    backoff: Duration,
    next_dial: Instant,
    last_write: Instant,
}

struct LinkInner {
    my_rank: u32,
    peer_rank: u32,
    peer_addr: String,
    /// Lower rank dials; the other side accepts (and re-accepts).
    dialer: bool,
    clock: Arc<Clock>,
    fault: Arc<FaultInjector>,
    handler: Arc<dyn PeerHandler>,
    send: Mutex<SendHalf>,
    cv: Condvar,
    /// Next sequenced incoming frame we will apply.
    recv_next: AtomicU64,
    shutdown: AtomicBool,
    /// Frame-buffer pool shared by sends and the retransmit tail.
    pool: BufPool,
    /// Wire stats, when a telemetry registry was attached.
    stats: Option<LinkStats>,
    /// One reader thread per attached connection, pushed under the `send`
    /// lock; `shutdown` joins them.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl LinkInner {
    fn pool_get(&self) -> Vec<u8> {
        let (buf, fresh) = self.pool.get();
        if let Some(st) = &self.stats {
            if fresh {
                st.pool_allocs.inc();
            } else {
                st.pool_reuses.inc();
            }
        }
        buf
    }
}

/// One resilient full-duplex link to a peer worker.
#[derive(Clone)]
pub struct PeerLink {
    inner: Arc<LinkInner>,
}

impl PeerLink {
    pub fn new(
        my_rank: u32,
        peer_rank: u32,
        peer_addr: String,
        clock: Arc<Clock>,
        fault: Arc<FaultInjector>,
        handler: Arc<dyn PeerHandler>,
        telemetry: Option<&Telemetry>,
    ) -> Self {
        let now = Instant::now();
        Self {
            inner: Arc::new(LinkInner {
                my_rank,
                peer_rank,
                peer_addr,
                dialer: my_rank < peer_rank,
                clock,
                fault,
                handler,
                send: Mutex::new(SendHalf {
                    stream: None,
                    generation: 0,
                    next_seq: 1,
                    acked: 0,
                    buffer: VecDeque::new(),
                    staged_bytes: 0,
                    staged_frames: 0,
                    ctrl: Vec::new(),
                    backoff: DIAL_BACKOFF_MIN,
                    next_dial: now,
                    last_write: now,
                }),
                cv: Condvar::new(),
                recv_next: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                pool: BufPool::new(),
                stats: telemetry.map(|t| LinkStats::new(t, peer_rank)),
                readers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This link's frame-buffer pool counters: `(allocs, reuses)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.inner.pool.stats()
    }

    /// Pre-provision the frame-buffer pool with `n` buffers of
    /// `capacity` bytes. Callers that know their per-fence frame demand
    /// (the worker's outbound stage) prime once at startup
    /// so even the very first superstep's sends — and every control ack
    /// racing them — come off the free list.
    pub fn prime_pool(&self, n: usize, capacity: usize) {
        self.inner.pool.prime(n, capacity);
    }

    pub fn peer_rank(&self) -> u32 {
        self.inner.peer_rank
    }

    pub fn is_dialer(&self) -> bool {
        self.inner.dialer
    }

    pub fn is_connected(&self) -> bool {
        self.inner.send.lock().unwrap().stream.is_some()
    }

    /// Next incoming sequenced frame this side will apply — the
    /// `resume_from` value the accept-side handshake reports.
    pub fn recv_next(&self) -> u64 {
        self.inner.recv_next.load(Ordering::SeqCst)
    }

    /// Dial the peer and run the resume handshake. Dialer side only.
    pub fn dial(&self) -> Result<(), NetError> {
        debug_assert!(self.inner.dialer);
        let redial = self.inner.send.lock().unwrap().generation > 0;
        let stream = TcpStream::connect(&self.inner.peer_addr)?;
        stream.set_nodelay(true)?;
        write_handshake(
            &stream,
            &self.inner.clock,
            self.inner.my_rank,
            self.inner.recv_next.load(Ordering::SeqCst),
        )?;
        let reply = read_frame_timeout(&stream, HANDSHAKE_TIMEOUT)?;
        self.inner.clock.join(reply.clock);
        if let Message::PeerHello { version, .. } = reply.msg {
            check_version(version)?;
        }
        match reply.msg {
            Message::PeerHello {
                rank, resume_from, ..
            } if rank == self.inner.peer_rank => {
                if redial {
                    if let Some(st) = &self.inner.stats {
                        st.redials.inc();
                    }
                }
                self.attach(stream, resume_from);
                Ok(())
            }
            other => Err(NetError::Protocol(format!(
                "bad handshake reply from rank {}: kind {}",
                self.inner.peer_rank,
                other.kind()
            ))),
        }
    }

    /// Adopt an accepted replacement connection (acceptor side; the
    /// listener already consumed the peer's `PeerHello` and replied).
    /// `TCP_NODELAY` is mandatory on every data-plane socket — fence
    /// round-trips ride on it — so failing to set it fails the accept
    /// (the dialer side already errors on the same condition).
    pub fn accept(&self, stream: TcpStream, peer_resume_from: u64) -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        self.attach(stream, peer_resume_from);
        Ok(())
    }

    /// Install a live stream: prune what the peer already applied,
    /// retransmit the rest, and start a reader thread for this
    /// connection generation. A link already shut down refuses the
    /// stream.
    fn attach(&self, stream: TcpStream, peer_resume_from: u64) {
        let reader_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut s = self.inner.send.lock().unwrap();
        if self.inner.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let generation;
        {
            if let Some(old) = s.stream.take() {
                let _ = old.shutdown(Shutdown::Both);
            }
            s.generation += 1;
            generation = s.generation;
            s.backoff = DIAL_BACKOFF_MIN;
            if peer_resume_from > 0 {
                s.acked = s.acked.max(peer_resume_from - 1);
            }
            while s.buffer.front().is_some_and(|f| f.seq <= s.acked) {
                let f = s.buffer.pop_front().unwrap();
                if !f.written {
                    s.staged_frames -= 1;
                    s.staged_bytes -= f.bytes.len();
                }
                self.inner.pool.put(f.bytes);
            }
            s.stream = Some(stream);
            retransmit_locked(&self.inner, &mut s);
            self.inner.cv.notify_all();
        }
        // Spawned and registered under the send lock, so a `shutdown`
        // either finds the handle or made this attach refuse.
        let inner = Arc::clone(&self.inner);
        let reader = std::thread::Builder::new()
            .name(format!(
                "sg-net-link-{}-{}",
                self.inner.my_rank, self.inner.peer_rank
            ))
            .spawn(move || reader_loop(inner, reader_stream, generation))
            .expect("spawn link reader");
        self.inner.readers.lock().unwrap().push(reader);
    }

    /// Send a sequenced frame; returns its seq. The frame is encoded
    /// exactly once into a pooled buffer and held in the retransmit tail
    /// until acknowledged, so a dead connection only delays it — and any
    /// retransmit replays the identical bytes. Fault injection claims its
    /// action here (deterministic frame-index order) and applies it at
    /// submission time. Batch flushes are staged for a coalesced vectored
    /// submission; any other frame submits the stage immediately, riding
    /// behind the staged batches in the same syscall.
    pub fn send(&self, msg: Message) -> u64 {
        let is_batch = matches!(msg, Message::BatchFlush { .. });
        let mut s = self.inner.send.lock().unwrap();
        let seq = s.next_seq;
        s.next_seq += 1;
        let mut bytes = self.inner.pool_get();
        let clock = self.inner.clock.tick();
        crate::wire::encode_frame_into(seq, clock, &msg, &mut bytes);
        self.stage_locked(&mut s, seq, bytes, is_batch);
        seq
    }

    /// [`PeerLink::send`] for a `BatchFlush` of about `entries` messages
    /// that `fill` writes straight into the pooled frame buffer: each entry
    /// is encoded once, into the bytes that go on the wire and stay in the
    /// retransmit tail. The frame equals what
    /// `send(Message::BatchFlush { batch })` would encode for a `batch` of
    /// the same entries.
    pub fn send_batch(&self, entries: usize, fill: impl FnOnce(&mut BatchFrame<'_>)) -> u64 {
        let mut bytes = self.inner.pool_get();
        let mut s = self.inner.send.lock().unwrap();
        let seq = s.next_seq;
        s.next_seq += 1;
        let clock = self.inner.clock.tick();
        let mut frame = BatchFrame::begin(&mut bytes, seq, clock, entries);
        fill(&mut frame);
        frame.finish();
        self.stage_locked(&mut s, seq, bytes, true);
        seq
    }

    /// Claim the frame's fault action and queue it in the retransmit tail;
    /// submit unless it is a batch that may wait to coalesce.
    fn stage_locked(&self, s: &mut SendHalf, seq: u64, bytes: Vec<u8>, is_batch: bool) {
        let fault = if self.inner.fault.is_active() {
            self.inner.fault.next().1
        } else {
            FaultAction::Deliver
        };
        s.staged_bytes += bytes.len();
        s.staged_frames += 1;
        s.buffer.push_back(SentFrame {
            seq,
            bytes,
            fault,
            written: false,
        });
        if let Some(st) = &self.inner.stats {
            st.queue_depth.set(s.buffer.len() as u64);
        }
        if !is_batch || s.staged_frames >= COALESCE_FRAMES || s.staged_bytes >= COALESCE_BYTES {
            flush_locked(&self.inner, s);
        }
    }

    /// Fire-and-forget unsequenced frame (acks, heartbeats): never
    /// buffered, never faulted, errors ignored (the sequenced machinery
    /// recovers state). Encoded into a pooled buffer and submitted in the
    /// same vectored write as any staged batches — acks ride behind the
    /// data they follow.
    fn send_unsequenced(&self, msg: Message) {
        let mut s = self.inner.send.lock().unwrap();
        let mut bytes = self.inner.pool_get();
        crate::wire::encode_frame_into(0, self.inner.clock.tick(), &msg, &mut bytes);
        s.ctrl.push(bytes);
        flush_locked(&self.inner, &mut s);
    }

    /// C1 write-all fence: send a sequenced `FlushPing` and block until
    /// the peer acknowledges applying it (and therefore everything
    /// staged before it). Retransmits on an interval; re-dials if this
    /// side owns dialing. Errs only after `timeout`.
    pub fn flush_fence(&self, flush_seq: u64, timeout: Duration) -> Result<(), NetError> {
        let ping_seq = self.send(Message::FlushPing { flush_seq });
        let deadline = Instant::now() + timeout;
        let mut s = self.inner.send.lock().unwrap();
        loop {
            if s.acked >= ping_seq {
                return Ok(());
            }
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Err(NetError::Protocol("link shut down during fence".into()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Protocol(format!(
                    "flush fence to rank {} timed out (acked {}, fence {})",
                    self.inner.peer_rank, s.acked, ping_seq
                )));
            }
            let (guard, wait) = self
                .inner
                .cv
                .wait_timeout(s, FENCE_RETRY.min(deadline - now))
                .unwrap();
            s = guard;
            if wait.timed_out() && s.acked < ping_seq {
                if s.stream.is_none() && self.inner.dialer {
                    drop(s);
                    let _ = self.dial();
                    s = self.inner.send.lock().unwrap();
                } else {
                    retransmit_locked(&self.inner, &mut s);
                }
            }
        }
    }

    /// Periodic upkeep, driven by the mesh maintenance thread: re-dial a
    /// dead connection (dialer side, with backoff) and heartbeat idle
    /// live ones so half-dead sockets are detected and retransmit
    /// buffers stay pruned.
    pub fn maintain(&self) {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let needs_dial = {
            let mut s = self.inner.send.lock().unwrap();
            if s.stream.is_none() {
                self.inner.dialer && now >= s.next_dial
            } else {
                if now.duration_since(s.last_write) >= HEARTBEAT_IDLE {
                    let hb = Message::Heartbeat { echo_ns: mono_ns() };
                    let mut bytes = self.inner.pool_get();
                    crate::wire::encode_frame_into(0, self.inner.clock.tick(), &hb, &mut bytes);
                    s.ctrl.push(bytes);
                    flush_locked(&self.inner, &mut s);
                }
                false
            }
        };
        if needs_dial && self.dial().is_err() {
            let mut s = self.inner.send.lock().unwrap();
            s.next_dial = now + s.backoff;
            s.backoff = (s.backoff * 2).min(DIAL_BACKOFF_MAX);
        }
    }

    /// Graceful shutdown: close the socket, wake fences, stop upkeep, and
    /// join every reader thread except the calling one. Once this
    /// returns, the handler gets no further callback from this link.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut s = self.inner.send.lock().unwrap();
            if let Some(stream) = s.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            self.inner.cv.notify_all();
        }
        let readers = std::mem::take(&mut *self.inner.readers.lock().unwrap());
        let me = std::thread::current().id();
        for reader in readers {
            if reader.thread().id() != me {
                // A reader's panic has already reported itself on stderr.
                let _ = reader.join();
            }
        }
    }
}

/// What a vectored submission pass does after writing its slices: stop,
/// sleep out a delay fault, or kill the connection.
enum FlushAfter {
    Done,
    Delay(usize, Duration),
    Kill(usize),
}

/// Submit everything staged — unwritten sequenced frames (their claimed
/// fault actions applied here, in frame order) followed by pending
/// unsequenced control frames — in as few `write_vectored` calls as
/// possible. On a write error the stream is declared dead; unwritten
/// sequenced frames stay staged (the retransmit tail recovers them) and
/// control frames are discarded (idempotent, fire-and-forget).
fn flush_locked(inner: &LinkInner, s: &mut SendHalf) {
    loop {
        if s.stream.is_none() {
            for buf in s.ctrl.drain(..) {
                inner.pool.put(buf);
            }
            return;
        }
        // Plan this pass: frame indices to write (duplicate faults listed
        // twice, drops skipped) up to the first delay/kill boundary.
        let start = s.buffer.len() - s.staged_frames;
        let mut plan: Vec<usize> = Vec::new();
        let mut after = FlushAfter::Done;
        for i in start..s.buffer.len() {
            match s.buffer[i].fault {
                FaultAction::Deliver => plan.push(i),
                FaultAction::Duplicate => {
                    plan.push(i);
                    plan.push(i);
                }
                FaultAction::Drop => {}
                FaultAction::Delay(d) => {
                    after = FlushAfter::Delay(i, d);
                    break;
                }
                FaultAction::Kill => {
                    after = FlushAfter::Kill(i);
                    break;
                }
            }
        }
        let include_ctrl = matches!(after, FlushAfter::Done);
        let (result, wrote_bytes, wrote_frames) = {
            let SendHalf {
                stream,
                buffer,
                ctrl,
                ..
            } = &mut *s;
            let stream = stream.as_mut().unwrap();
            let mut bufs: Vec<&[u8]> = plan.iter().map(|&i| buffer[i].bytes.as_slice()).collect();
            if include_ctrl {
                bufs.extend(ctrl.iter().map(|b| b.as_slice()));
            }
            let total: usize = bufs.iter().map(|b| b.len()).sum();
            let n = bufs.len() as u64;
            (writev_all(stream, &bufs), total, n)
        };
        match result {
            Ok(calls) => {
                if wrote_frames > 0 {
                    s.last_write = Instant::now();
                    if let Some(st) = &inner.stats {
                        st.frames_out.add(wrote_frames);
                        st.bytes_out.add(wrote_bytes as u64);
                        st.writevs.add(calls);
                    }
                }
            }
            Err(_) => {
                if let Some(stream) = s.stream.take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                for buf in s.ctrl.drain(..) {
                    inner.pool.put(buf);
                }
                return;
            }
        }
        // Everything up to the fault boundary is no longer staged
        // (dropped frames included: their "write" is the injected loss;
        // the fence retransmit path redelivers them).
        let until = match after {
            FlushAfter::Done => s.buffer.len(),
            FlushAfter::Delay(i, _) | FlushAfter::Kill(i) => i,
        };
        for i in start..until {
            s.staged_frames -= 1;
            s.staged_bytes -= s.buffer[i].bytes.len();
            s.buffer[i].written = true;
        }
        match after {
            FlushAfter::Done => {
                for buf in s.ctrl.drain(..) {
                    inner.pool.put(buf);
                }
                return;
            }
            FlushAfter::Delay(i, d) => {
                // Deliver the delayed frame on the next pass.
                s.buffer[i].fault = FaultAction::Deliver;
                std::thread::sleep(d);
            }
            FlushAfter::Kill(i) => {
                // The killed frame was never written; it survives staged
                // for the post-redial retransmit and delivers normally
                // then.
                s.buffer[i].fault = FaultAction::Deliver;
                if let Some(stream) = s.stream.take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                for buf in s.ctrl.drain(..) {
                    inner.pool.put(buf);
                }
                return;
            }
        }
    }
}

/// Write every buffer fully via `write_vectored`, chunking at
/// [`IOV_CHUNK`] (kernel `IOV_MAX` safety) and resuming partial writes.
/// Returns the number of syscalls made.
fn writev_all(stream: &mut TcpStream, bufs: &[&[u8]]) -> std::io::Result<u64> {
    let mut calls = 0u64;
    let mut i = 0; // first buffer with unwritten bytes
    let mut off = 0; // bytes of bufs[i] already written
    while i < bufs.len() {
        if bufs[i].len() == off {
            i += 1;
            off = 0;
            continue;
        }
        let end = bufs.len().min(i + IOV_CHUNK);
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(end - i);
        slices.push(IoSlice::new(&bufs[i][off..]));
        for b in &bufs[i + 1..end] {
            slices.push(IoSlice::new(b));
        }
        let mut n = stream.write_vectored(&slices)?;
        calls += 1;
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        while n > 0 {
            let rem = bufs[i].len() - off;
            if n >= rem {
                n -= rem;
                i += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(calls)
}

/// Rewrite every unacked sequenced frame verbatim from its stored bytes
/// (fence retry / post-reconnect) — byte-identical to the original
/// transmission, no re-encode, no allocation. Bypasses fault injection:
/// retransmits model the recovery path, not new sends.
fn retransmit_locked(inner: &LinkInner, s: &mut SendHalf) {
    if s.stream.is_none() || s.buffer.is_empty() {
        return;
    }
    // A frame queued while the link had no stream yet (a rank that starts
    // computing before its acceptor has adopted the connection) goes out
    // here for the first time: written, but not a retransmit.
    let resent = s.buffer.iter().filter(|f| f.written).count() as u64;
    let (result, wrote_bytes, wrote_frames) = {
        let SendHalf { stream, buffer, .. } = &mut *s;
        let stream = stream.as_mut().unwrap();
        let bufs: Vec<&[u8]> = buffer.iter().map(|f| f.bytes.as_slice()).collect();
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let n = bufs.len() as u64;
        (writev_all(stream, &bufs), total, n)
    };
    match result {
        Ok(calls) => {
            s.last_write = Instant::now();
            for f in s.buffer.iter_mut() {
                f.written = true;
            }
            s.staged_frames = 0;
            s.staged_bytes = 0;
            if let Some(st) = &inner.stats {
                st.frames_out.add(wrote_frames);
                st.bytes_out.add(wrote_bytes as u64);
                st.writevs.add(calls);
                st.retransmits.add(resent);
            }
        }
        Err(_) => {
            if let Some(stream) = s.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

fn reader_loop(inner: Arc<LinkInner>, stream: TcpStream, generation: u64) {
    let link = PeerLink {
        inner: Arc::clone(&inner),
    };
    let mut reader = BufReader::new(stream);
    // Reused across frames: the raw payload buffer — the zero-copy,
    // alloc-free receive path. Batch payloads are handed to the handler as
    // borrowed views of this buffer and never decoded into owned messages.
    let (mut payload, mut scratch) = (Vec::new(), Vec::new());
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let wire_len = match read_frame_into(&mut reader, &mut payload) {
            Ok(Some(Ok(n))) => n,
            // EOF, socket error, or a malformed frame all mean the same
            // thing for this connection: it is done. Sequenced state
            // survives in the buffers; a reconnect resumes it.
            Ok(Some(Err(_))) | Ok(None) | Err(_) => break,
        };
        let Ok(header) = peek_header(&payload) else {
            break;
        };
        inner.clock.join(header.clock);
        if let Some(st) = &inner.stats {
            st.frames_in.inc();
            st.bytes_in.add(wire_len as u64);
        }
        if header.seq == 0 {
            let Ok(frame) = Frame::decode(&payload) else {
                break;
            };
            match frame.msg {
                Message::FlushAck { ack_through, .. } => {
                    prune_acked(&inner, ack_through);
                }
                Message::HeartbeatAck {
                    echo_ns,
                    ack_through,
                } => {
                    if let Some(st) = &inner.stats {
                        st.rtt.record(mono_ns().saturating_sub(echo_ns));
                    }
                    prune_acked(&inner, ack_through);
                }
                Message::Heartbeat { echo_ns } => {
                    let applied = inner.recv_next.load(Ordering::SeqCst) - 1;
                    link.send_unsequenced(Message::HeartbeatAck {
                        echo_ns,
                        ack_through: applied,
                    });
                }
                // Stray handshake or anything else unsequenced: ignore.
                _ => {}
            }
            continue;
        }
        let expected = inner.recv_next.load(Ordering::SeqCst);
        if header.seq < expected {
            // Duplicate (dup fault or retransmit overlap). Already
            // applied — duplicate batches are not even decoded, but a
            // duplicated fence must still get its receipt.
            if let Some(st) = &inner.stats {
                st.dup_reacks.inc();
            }
            if !header.is_batch() {
                if let Ok(Frame {
                    msg: Message::FlushPing { flush_seq },
                    ..
                }) = Frame::decode(&payload)
                {
                    link.send_unsequenced(Message::FlushAck {
                        flush_seq,
                        ack_through: expected - 1,
                    });
                }
            }
            continue;
        }
        if header.seq > expected {
            // Gap (a dropped frame): ignore; the sender's fence logic
            // retransmits everything unacked, in order.
            continue;
        }
        if header.is_batch() {
            // Zero-copy apply: hand the handler a validated view borrowing
            // the receive buffer. Validation happens BEFORE the watermark
            // advances — a malformed batch must not count as applied, so
            // the fence retransmit path redelivers it.
            match batch_view(&payload, &mut scratch) {
                Ok(view) => {
                    inner.recv_next.store(expected + 1, Ordering::SeqCst);
                    inner.handler.on_batch(inner.peer_rank, view);
                }
                Err(_) => break,
            }
            continue;
        }
        let Ok(frame) = Frame::decode(&payload) else {
            break;
        };
        inner.recv_next.store(expected + 1, Ordering::SeqCst);
        if let Message::FlushPing { flush_seq } = frame.msg {
            // The sequential read loop guarantees every earlier frame
            // was applied before this receipt is produced.
            link.send_unsequenced(Message::FlushAck {
                flush_seq,
                ack_through: expected,
            });
        }
    }
    // Declare the connection dead only if it is still the live one.
    let mut s = inner.send.lock().unwrap();
    if s.generation == generation {
        if let Some(stream) = s.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        inner.cv.notify_all();
    }
}

/// Advance the acked watermark and prune the retransmit buffer. Shared by
/// `FlushAck` and `HeartbeatAck` handling.
fn prune_acked(inner: &LinkInner, ack_through: u64) {
    let mut s = inner.send.lock().unwrap();
    if ack_through > s.acked {
        s.acked = ack_through;
        while s.buffer.front().is_some_and(|f| f.seq <= ack_through) {
            let f = s.buffer.pop_front().unwrap();
            if !f.written {
                s.staged_frames -= 1;
                s.staged_bytes -= f.bytes.len();
            }
            inner.pool.put(f.bytes);
        }
        if let Some(st) = &inner.stats {
            st.queue_depth.set(s.buffer.len() as u64);
        }
        inner.cv.notify_all();
    }
}

/// Accept-side handshake: read the dialer's `PeerHello`, reply with ours.
/// Returns `(rank, peer_resume_from)` so the mesh can route the stream to
/// its link (via [`PeerLink::accept`]).
pub fn accept_handshake(
    stream: &TcpStream,
    clock: &Clock,
    my_rank: u32,
    my_resume_from: impl Fn(u32) -> u64,
) -> Result<(u32, u64), NetError> {
    let hello = read_frame_timeout(stream, HANDSHAKE_TIMEOUT)?;
    clock.join(hello.clock);
    match hello.msg {
        Message::PeerHello {
            version,
            rank,
            resume_from,
        } => {
            check_version(version)?;
            write_handshake(stream, clock, my_rank, my_resume_from(rank))?;
            Ok((rank, resume_from))
        }
        other => Err(NetError::Protocol(format!(
            "expected PeerHello, got kind {}",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MsgBatch;
    use std::net::TcpListener;

    type RecordedBatch = (u32, Vec<(u32, u32, u64)>);

    struct CountingHandler {
        batches: Mutex<Vec<RecordedBatch>>,
    }

    impl CountingHandler {
        fn new() -> Arc<Self> {
            Arc::new(Self {
                batches: Mutex::new(Vec::new()),
            })
        }
    }

    impl PeerHandler for CountingHandler {
        fn on_batch(&self, from: u32, batch: BatchView<'_>) {
            let msgs: Vec<(u32, u32, u64)> = batch
                .iter()
                .map(|(to, src, payload)| {
                    (to, src, u64::from_le_bytes(payload.try_into().unwrap()))
                })
                .collect();
            self.batches.lock().unwrap().push((from, msgs));
        }
    }

    /// Shorthand: a `BatchFlush` of `(to, from, u64 payload)` triples.
    fn batch(entries: &[(u32, u32, u64)]) -> Message {
        let mut b = MsgBatch::new();
        for &(to, from, val) in entries {
            b.push(to, from, &val.to_le_bytes());
        }
        Message::BatchFlush { batch: b }
    }

    /// Build a connected pair of links over real loopback sockets, with
    /// a fault plan on side A. Side A records telemetry.
    fn linked_pair(
        fault_a: FaultInjector,
    ) -> (
        PeerLink,
        PeerLink,
        Arc<CountingHandler>,
        Arc<CountingHandler>,
        Arc<Telemetry>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let clock_a = Arc::new(Clock::new());
        let clock_b = Arc::new(Clock::new());
        let ha = CountingHandler::new();
        let hb = CountingHandler::new();
        let telemetry_a = Arc::new(Telemetry::new());
        let a = PeerLink::new(
            0,
            1,
            addr,
            Arc::clone(&clock_a),
            Arc::new(fault_a),
            ha.clone() as Arc<dyn PeerHandler>,
            Some(&telemetry_a),
        );
        let b = PeerLink::new(
            1,
            0,
            String::new(),
            Arc::clone(&clock_b),
            Arc::new(FaultInjector::none()),
            hb.clone() as Arc<dyn PeerHandler>,
            None,
        );
        // Acceptor loop for side B: keep accepting replacement
        // connections like the worker mesh listener does.
        {
            let b = b.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    let b2 = b.clone();
                    let Ok((_rank, resume)) = accept_handshake(&stream, &clock_b, 1, |_| {
                        b2.inner.recv_next.load(Ordering::SeqCst)
                    }) else {
                        continue;
                    };
                    let _ = b.accept(stream, resume);
                }
            });
        }
        a.dial().expect("initial dial");
        (a, b, ha, hb, telemetry_a)
    }

    #[test]
    fn batches_flow_and_fence_acknowledges_application() {
        let (a, _b, _ha, hb, _ta) = linked_pair(FaultInjector::none());
        a.send(batch(&[(7, 3, 42)]));
        a.flush_fence(1, Duration::from_secs(5)).unwrap();
        let batches = hb.batches.lock().unwrap();
        assert_eq!(batches.as_slice(), &[(0, vec![(7, 3, 42)])]);
    }

    /// A handler that parks inside its first batch until released.
    struct ParkingHandler {
        entered: Mutex<Option<std::sync::mpsc::Sender<()>>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        calls: AtomicU64,
    }

    impl PeerHandler for ParkingHandler {
        fn on_batch(&self, _from: u32, _batch: BatchView<'_>) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if let Some(entered) = self.entered.lock().unwrap().take() {
                entered.send(()).unwrap();
                let _ = self.release.lock().unwrap().recv();
            }
        }
    }

    #[test]
    fn shutdown_joins_every_reader() {
        use std::sync::mpsc;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let hb = Arc::new(ParkingHandler {
            entered: Mutex::new(Some(entered_tx)),
            release: Mutex::new(release_rx),
            calls: AtomicU64::new(0),
        });
        let a = PeerLink::new(
            0,
            1,
            addr,
            Arc::new(Clock::new()),
            Arc::new(FaultInjector::none()),
            CountingHandler::new() as Arc<dyn PeerHandler>,
            None,
        );
        let b = PeerLink::new(
            1,
            0,
            String::new(),
            Arc::new(Clock::new()),
            Arc::new(FaultInjector::none()),
            hb.clone() as Arc<dyn PeerHandler>,
            None,
        );
        let acceptor = {
            let b = b.clone();
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let clock = Clock::new();
                let (_rank, resume) =
                    accept_handshake(&stream, &clock, 1, |_| b.recv_next()).unwrap();
                b.accept(stream, resume).unwrap();
            })
        };
        a.dial().expect("dial");
        acceptor.join().unwrap();

        // B's reader is inside the handler when B shuts down. (A ping
        // submits the staged batch without waiting for its receipt.)
        a.send(batch(&[(7, 3, 42)]));
        a.send(Message::FlushPing { flush_seq: 1 });
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let closer = {
            let b = b.clone();
            std::thread::spawn(move || {
                b.shutdown();
                done_tx.send(()).unwrap();
            })
        };
        assert!(
            done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "shutdown returned while a reader was still in the handler"
        );
        release_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        closer.join().unwrap();
        // No reader of B is left: each would hold a reference to the link.
        assert_eq!(Arc::strong_count(&b.inner), 1);
        a.send(batch(&[(7, 3, 43)]));
        a.shutdown();
        assert_eq!(hb.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_frame_recovered_by_fence_retransmit() {
        // Frame index 0 (the first batch) is dropped on the wire.
        let plan = crate::fault::parse_fault_plan("drop=0").unwrap();
        let (a, _b, _ha, hb, _ta) = linked_pair(FaultInjector::new(plan));
        a.send(batch(&[(1, 0, 9)]));
        a.send(batch(&[(2, 0, 11)]));
        a.flush_fence(1, Duration::from_secs(10)).unwrap();
        let batches = hb.batches.lock().unwrap();
        assert_eq!(
            batches.as_slice(),
            &[(0, vec![(1, 0, 9)]), (0, vec![(2, 0, 11)])],
            "both batches applied exactly once, in order, despite the drop"
        );
    }

    #[test]
    fn duplicated_frame_applied_once() {
        let plan = crate::fault::parse_fault_plan("dup=0").unwrap();
        let (a, _b, _ha, hb, _ta) = linked_pair(FaultInjector::new(plan));
        a.send(batch(&[(4, 2, 5)]));
        a.flush_fence(1, Duration::from_secs(10)).unwrap();
        assert_eq!(hb.batches.lock().unwrap().len(), 1);
    }

    #[test]
    fn killed_connection_redials_and_resumes() {
        let plan = crate::fault::parse_fault_plan("kill=1").unwrap();
        let (a, _b, _ha, hb, _ta) = linked_pair(FaultInjector::new(plan));
        a.send(batch(&[(1, 0, 1)]));
        // This send claims the kill fault; the connection dies at
        // submission time and the frame stays buffered.
        a.send(batch(&[(2, 0, 2)]));
        a.flush_fence(1, Duration::from_secs(10)).unwrap();
        let batches = hb.batches.lock().unwrap();
        assert_eq!(batches.len(), 2, "both batches survive the kill");
        assert!(a.is_connected(), "link re-established");
    }

    #[test]
    fn nodelay_enabled_on_both_sides() {
        let (a, b, _ha, _hb, _ta) = linked_pair(FaultInjector::none());
        // B's stream is installed asynchronously by the acceptor thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.is_connected() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let a_nodelay = {
            let s = a.inner.send.lock().unwrap();
            s.stream.as_ref().unwrap().nodelay().unwrap()
        };
        let b_nodelay = {
            let s = b.inner.send.lock().unwrap();
            s.stream.as_ref().unwrap().nodelay().unwrap()
        };
        assert!(
            a_nodelay && b_nodelay,
            "TCP_NODELAY must be set on both sides of a data-plane link"
        );
    }

    #[test]
    fn steady_state_sends_reuse_pooled_buffers() {
        let (a, _b, _ha, hb, _ta) = linked_pair(FaultInjector::none());
        // Round 0 warms the pool; after it, every send must be served
        // from the free list (each fence ack returns the round's buffers).
        let mut allocs_warm = 0;
        for round in 0..6u64 {
            for i in 0..40u64 {
                a.send(batch(&[(1, 0, round * 40 + i)]));
            }
            a.flush_fence(round + 1, Duration::from_secs(5)).unwrap();
            if round == 0 {
                allocs_warm = a.pool_stats().0;
            }
        }
        let (allocs, reuses) = a.pool_stats();
        assert_eq!(
            allocs, allocs_warm,
            "steady-state sends must not allocate frame buffers"
        );
        assert!(reuses >= 200, "expected pooled reuse, got {reuses}");
        assert_eq!(hb.batches.lock().unwrap().len(), 240);
    }

    /// A raw acceptor that records every sequenced frame's exact wire
    /// payload, withholding the first fence ack to force a full
    /// retransmit pass on the live stream. Every recurrence of a seq must
    /// be byte-identical — the encode-once pooled tail guarantees it.
    #[test]
    fn retransmit_replays_byte_identical_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        type Recorded = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;
        let recorded: Recorded = Arc::new(Mutex::new(Vec::new()));
        {
            let recorded = Arc::clone(&recorded);
            std::thread::spawn(move || {
                let clock_b = Clock::new();
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { break };
                    if read_frame_timeout(&stream, HANDSHAKE_TIMEOUT).is_err()
                        || write_handshake(&stream, &clock_b, 1, 1).is_err()
                    {
                        continue;
                    }
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut payload = Vec::new();
                    let mut pings = 0u32;
                    while let Ok(Some(Ok(_))) = read_frame_into(&mut reader, &mut payload) {
                        let header = peek_header(&payload).unwrap();
                        if header.seq == 0 {
                            continue;
                        }
                        recorded.lock().unwrap().push((header.seq, payload.clone()));
                        if let Ok(Frame {
                            msg: Message::FlushPing { flush_seq },
                            seq,
                            ..
                        }) = Frame::decode(&payload)
                        {
                            pings += 1;
                            if pings == 1 {
                                // Withhold the first receipt: the fence
                                // retries and retransmits the whole tail.
                                continue;
                            }
                            let ack = Frame {
                                seq: 0,
                                clock: clock_b.tick(),
                                msg: Message::FlushAck {
                                    flush_seq,
                                    ack_through: seq,
                                },
                            };
                            if (&stream).write_all(&ack.encode()).is_err() {
                                break;
                            }
                        }
                    }
                }
            });
        }
        let a = PeerLink::new(
            0,
            1,
            addr,
            Arc::new(Clock::new()),
            Arc::new(FaultInjector::none()),
            CountingHandler::new() as Arc<dyn PeerHandler>,
            None,
        );
        a.dial().unwrap();
        a.send(batch(&[(1, 0, 0xAABB)]));
        a.send(batch(&[(2, 0, 0xCCDD)]));
        // The worker's path: entries written straight into the frame.
        a.send_batch(2, |frame| {
            for (to, val) in [(3u32, 0xEEFFu64), (4, 0x1122)] {
                frame.push(to, 0, |buf| buf.extend_from_slice(&val.to_le_bytes()));
            }
        });
        a.flush_fence(1, Duration::from_secs(10)).unwrap();
        let recorded = recorded.lock().unwrap();
        let mut by_seq: std::collections::HashMap<u64, Vec<&Vec<u8>>> =
            std::collections::HashMap::new();
        for (seq, bytes) in recorded.iter() {
            by_seq.entry(*seq).or_default().push(bytes);
        }
        assert!(
            recorded.len() > by_seq.len(),
            "expected at least one retransmitted frame"
        );
        let written_in_place = by_seq.get(&3).expect("the in-place batch arrived");
        let Frame { msg, .. } = Frame::decode(written_in_place[0]).unwrap();
        assert_eq!(msg, batch(&[(3, 0, 0xEEFF), (4, 0, 0x1122)]));
        for (seq, copies) in &by_seq {
            for c in copies.iter().skip(1) {
                assert_eq!(
                    *c, copies[0],
                    "seq {seq} retransmitted with different bytes"
                );
            }
        }
    }
}
