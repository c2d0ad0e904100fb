//! Length-prefixed frame codec for the sg-net wire protocol.
//!
//! Every frame on a socket is `[u32 LE payload length][payload]`; the
//! payload is `[kind: u8][seq: u64 LE][clock: u64 LE][body]`. `seq` is the
//! per-connection frame sequence number (receivers deduplicate on it, so
//! retransmitted and fault-injected duplicate frames are idempotent);
//! `clock` is the sender's Lamport clock, joined by the receiver on every
//! frame so transaction timestamps from different processes are comparable.
//!
//! Each layout is written once. A frame kind is its [`Message`] variant's
//! field list plus its kind byte, a payload struct is its field list, and
//! `wire_messages!`/`wire_struct!` derive from that one declaration the
//! kind byte, the encoder and the decoder: both walk the fields in
//! declaration order through one private `Field` trait, whose impls fix how
//! each field type looks on the wire.
//!
//! Decoding never panics and never trusts a length field: a malformed,
//! truncated, or oversized frame yields a [`WireError`]. Every collection
//! length is validated against the bytes actually remaining before any
//! allocation happens, at the minimum encoded size the element type
//! declares (`Field::MIN`), never at a hand-counted one.
//!
//! The data-plane hot path is built for zero-copy: batch-flush bodies are
//! a flat run of length-delimited entries ([`MsgBatch`]), so a receiver
//! can walk borrowed `&[u8]` payload slices straight out of its receive
//! buffer ([`BatchView`], [`peek_header`], [`read_frame_into`]) without
//! materializing a typed `Message` or allocating per message. Senders
//! write each message once, straight into the pooled buffer of the frame
//! that carries it ([`BatchFrame`]).

use std::fmt;

/// Hard cap on a single frame payload. Far above anything the runtime
/// emits (the largest frames are graph setup and batch flushes, both far
/// smaller); primarily a guard against hostile or corrupt length prefixes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Protocol version byte carried in `Hello`/`PeerHello`; bumped on any
/// incompatible codec change.
///
/// History: v1 was the original PR-5 codec. v2 added the heartbeat echo
/// timestamp (`Heartbeat`/`HeartbeatAck`, making link RTT measurable), the
/// `TelemetryUpload` control frame, and the `telemetry_interval_ms` field
/// of [`RunSpec`]. v3 added the streaming audit plane: the `AuditUpload`
/// control frame (incremental Lamport-watermarked transaction batches) and
/// the `audit_interval_ms` field of [`RunSpec`]. v4 added the serving
/// plane: `QueryRequest`/`QueryResponse` control frames, letting the
/// coordinator serve point lookups, neighborhoods, and consistent MVCC
/// snapshots over workers' vertex stores while the run executes. v5 is the
/// data-plane rebuild: `BatchFlush` and `ValuesUpload` carry
/// length-delimited variable-size payloads instead of one fixed `u64` word
/// per message (unblocking MIS/PageRank over the cluster); it also gave
/// `PeerHello` a `features` capability word whose only bit negotiated an
/// optional compressed batch frame. v6 removed that frame (never enabled,
/// never measured) and the word with it. v7 ships the graph in `Setup` as
/// its out-CSR (`offsets`, `targets`) instead of an edge list the worker
/// had to sort back into one. v8 carries each fact once: `AuditUpload` is
/// the one transaction stream (the halt-time history frame is gone), request
/// tokens are no longer relayed worker to worker (both relay frames are
/// gone), and `Halt`, `BarrierVote` and `QueryRequest` lost the fields no
/// receiver read.
pub const PROTOCOL_VERSION: u8 = 8;

/// The one handshake version check — the coordinator's on `Hello`, both
/// mesh ends' on `PeerHello`: a peer speaking any other wire is refused
/// outright.
pub(crate) fn check_version(theirs: u8) -> Result<(), WireError> {
    if theirs == PROTOCOL_VERSION {
        return Ok(());
    }
    Err(WireError::VersionMismatch {
        ours: PROTOCOL_VERSION,
        theirs,
    })
}

/// Codec failure. All variants are recoverable at the connection level
/// (the connection is dropped and re-established; the process never
/// panics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message was fully decoded.
    Truncated,
    /// Unknown message kind byte.
    BadKind(u8),
    /// A length prefix exceeded [`MAX_FRAME_LEN`] or the bytes remaining.
    BadLength(u64),
    /// Bytes remained after a complete message was decoded.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Handshake peer speaks a different protocol version. Not recoverable
    /// by reconnecting: the peer is rejected outright.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u8,
        /// The version byte the peer presented.
        theirs: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadLength(n) => write!(f, "implausible length field {n}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Field codec: how each field type looks on the wire

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    /// Everything left.
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    /// A collection length, validated against the bytes left assuming each
    /// element occupies at least `min_elem` bytes — so a corrupt length
    /// can never trigger a huge allocation.
    fn len(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.0.len() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    /// A `u32` length, then that many bytes, borrowed.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len(<u8 as Field>::MIN)?;
        self.take(n)
    }

    fn finish(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// One field type's wire form. Frame bodies and payload structs are
/// sequences of these, encoded and decoded in declaration order.
trait Field: Sized {
    /// The fewest bytes any value encodes to: what a collection's length
    /// guard charges per element.
    const MIN: usize;
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
int_field!(u8, u32, u64);

/// One byte; any nonzero byte decodes as `true`.
impl Field for bool {
    const MIN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u8::get(r)? != 0)
    }
}

/// A `u32` byte length, then UTF-8.
impl Field for String {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// A `u32` count, then the elements; the count is checked against
/// `count × T::MIN` before anything is allocated.
impl<T: Field> Field for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for x in self {
            x.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len(T::MIN)?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A `u8` tag (0 = `None`, anything else = `Some`), then the value.
impl<T: Field> Field for Option<T> {
    const MIN: usize = 1;
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u8.put(buf),
            Some(x) => {
                1u8.put(buf);
                x.put(buf);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::get(r)? {
            0 => None,
            _ => Some(T::get(r)?),
        })
    }
}

impl<T: Field> Field for Box<T> {
    const MIN: usize = T::MIN;
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
}

/// Declares a payload struct and derives its `Field` impl from the field
/// list: the fields in declaration order, `MIN` their sum.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $S:ident {
            $( $(#[$fmeta:meta])* pub $f:ident : $t:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $S {
            $( $(#[$fmeta])* pub $f: $t ),*
        }

        impl Field for $S {
            const MIN: usize = 0 $( + <$t as Field>::MIN )*;
            fn put(&self, buf: &mut Vec<u8>) {
                $( self.$f.put(buf); )*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $( $f: Field::get(r)? ),* })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Batch-flush body: flat, length-delimited message entries

/// A batch entry: `to`, `from`, then the payload as a `u32` length and its
/// bytes — laid out as this tuple would be.
const ENTRY_MIN: usize = <(u32, (u32, Vec<u8>)) as Field>::MIN;

/// An owned batch of remote vertex messages, stored *in wire format*: a
/// flat byte run of `[to: u32][from: u32][len: u32][payload: len bytes]`
/// entries — what a `BatchFlush` decodes to. The worker never builds one:
/// it writes its entries straight into the frame ([`BatchFrame`]), and
/// receivers that want zero-copy access parse a [`BatchView`] over the
/// receive buffer instead of decoding to this type at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsgBatch {
    count: u32,
    bytes: Vec<u8>,
}

impl MsgBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one message. `payload` is the message's [`WireCodec`]
    /// encoding (zero-length payloads are legal).
    ///
    /// [`WireCodec`]: sg_engine::WireCodec
    pub fn push(&mut self, to: u32, from: u32, payload: &[u8]) {
        put_entry(&mut self.bytes, to, from, |buf| {
            buf.extend_from_slice(payload)
        });
        self.count += 1;
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the entry bytes (the frame body minus the count word).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Drop all entries, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.count = 0;
        self.bytes.clear();
    }

    /// Iterate `(to, from, payload)` entries as borrowed slices.
    pub fn iter(&self) -> BatchEntries<'_> {
        BatchEntries {
            entries: Reader(&self.bytes),
            remaining: self.count,
        }
    }
}

/// The one batch-entry encoder, behind [`MsgBatch::push`] and
/// [`BatchFrame::push`]: `to`, `from`, then the bytes `payload` appends,
/// behind their `u32` length.
fn put_entry(buf: &mut Vec<u8>, to: u32, from: u32, payload: impl FnOnce(&mut Vec<u8>)) {
    to.put(buf);
    from.put(buf);
    let at = buf.len();
    0u32.put(buf);
    payload(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A `BatchFlush` frame written in place, with no [`MsgBatch`] in between:
/// [`BatchFrame::begin`] lays down the length prefix, the header and a
/// count, [`BatchFrame::push`] appends each entry through the encoder
/// [`MsgBatch::push`] uses, and [`BatchFrame::finish`] fills in the count
/// and the length. The bytes equal
/// `encode_frame_into(seq, clock, &Message::BatchFlush { batch }, out)` for
/// a `batch` of the same entries — the sender's one encode per batch.
pub struct BatchFrame<'a> {
    out: &'a mut Vec<u8>,
    count: u32,
    /// Entries the caller means to push: the first one sizes the frame.
    expected: usize,
}

impl<'a> BatchFrame<'a> {
    /// Byte offset of the entry count: after the length prefix and header.
    const COUNT_AT: usize = 4 + <FrameHeader as Field>::MIN;

    /// Start a frame in `out` (cleared first) for about `entries` pushes.
    pub fn begin(out: &'a mut Vec<u8>, seq: u64, clock: u64, entries: usize) -> Self {
        out.clear();
        0u32.put(out);
        let kind = K_BATCH_FLUSH;
        FrameHeader { kind, seq, clock }.put(out);
        0u32.put(out);
        Self {
            out,
            count: 0,
            expected: entries,
        }
    }

    /// Append one message; `payload` appends its [`WireCodec`] encoding
    /// (zero bytes are legal).
    ///
    /// [`WireCodec`]: sg_engine::WireCodec
    pub fn push(&mut self, to: u32, from: u32, payload: impl FnOnce(&mut Vec<u8>)) {
        let at = self.out.len();
        put_entry(self.out, to, from, payload);
        if self.count == 0 {
            // Size the frame from its first entry (exactly, when every
            // payload has one length), so a pooled buffer is not rounded up
            // to the next power of two by doubling as the entries land.
            let rest = self.expected.saturating_sub(1);
            self.out.reserve(rest.saturating_mul(self.out.len() - at));
        }
        self.count += 1;
    }

    /// Fill in the entry count and the length prefix: the frame is done.
    pub fn finish(self) {
        let at = Self::COUNT_AT;
        self.out[at..at + 4].copy_from_slice(&self.count.to_le_bytes());
        let n = (self.out.len() - 4) as u32;
        self.out[..4].copy_from_slice(&n.to_le_bytes());
    }
}

/// The count, then the entry bytes in one `memcpy`; decoding parses a
/// [`BatchView`] over the rest of the frame and copies it once.
impl Field for MsgBatch {
    const MIN: usize = 4;
    fn put(&self, buf: &mut Vec<u8>) {
        self.count.put(buf);
        buf.extend_from_slice(&self.bytes);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BatchView::parse(r.rest())?.to_owned_batch())
    }
}

/// A borrowed, validated view over a `BatchFlush` frame body — the
/// zero-copy receive path. [`BatchView::parse`] checks every entry bound
/// once up front; iteration then yields `(to, from, payload)` with payload
/// slices borrowing the underlying receive buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchView<'a> {
    count: u32,
    entries: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Parse and validate a batch body (the bytes after the frame header).
    /// The declared count must exactly tile the remaining bytes.
    pub fn parse(body: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader(body);
        let count = r.len(ENTRY_MIN)? as u32;
        let entries = r.rest();
        // Validate every entry bound now so iteration is infallible.
        let mut e = Reader(entries);
        for _ in 0..count {
            <(u32, u32)>::get(&mut e)?;
            e.bytes()?;
        }
        e.finish()?;
        Ok(Self { count, entries })
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate `(to, from, payload)` with payloads borrowing the buffer.
    pub fn iter(&self) -> BatchEntries<'a> {
        BatchEntries {
            entries: Reader(self.entries),
            remaining: self.count,
        }
    }

    /// Copy into an owned [`MsgBatch`] (one allocation for the whole
    /// batch).
    pub fn to_owned_batch(&self) -> MsgBatch {
        MsgBatch {
            count: self.count,
            bytes: self.entries.to_vec(),
        }
    }
}

/// Iterator over batch entries; yields `(to, from, payload)`.
///
/// Entries were bounds-checked at construction ([`BatchView::parse`]) or
/// are structurally valid ([`MsgBatch::push`]), so iteration is
/// infallible.
pub struct BatchEntries<'a> {
    entries: Reader<'a>,
    remaining: u32,
}

impl<'a> Iterator for BatchEntries<'a> {
    type Item = (u32, u32, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.remaining = self.remaining.checked_sub(1)?;
        let (to, from) = <(u32, u32)>::get(&mut self.entries).ok()?;
        Some((to, from, self.entries.bytes().ok()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for BatchEntries<'_> {}

// ---------------------------------------------------------------------------
// Protocol payload structures

wire_struct! {
    /// Deterministic fault-injection plan for one worker's *data-plane* sends.
    /// Frame indices count every frame this worker sends to peers over the
    /// whole run (starting at 0), making injections exactly reproducible.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        /// Swallow these sends (the frame stays in the retransmit buffer, so
        /// recovery must come from the timeout/retry path).
        pub drop_frames: Vec<u64>,
        /// Send these frames twice (receiver-side seq dedup must absorb it).
        pub duplicate_frames: Vec<u64>,
        /// Delay these sends by the paired number of milliseconds.
        pub delay_frames: Vec<(u64, u64)>,
        /// Hard-close the underlying socket immediately before this send —
        /// the mid-superstep connection-drop experiment.
        pub kill_at_frame: Option<u64>,
    }
}

impl FaultPlan {
    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        !self.drop_frames.is_empty()
            || !self.duplicate_frames.is_empty()
            || !self.delay_frames.is_empty()
            || self.kill_at_frame.is_some()
    }
}

wire_struct! {
    /// Everything a worker process needs to run its share of the computation,
    /// shipped by the coordinator in the `Setup` frame.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct RunSpec {
        /// Vertex count of the (directed) graph.
        pub num_vertices: u32,
        /// The graph's out-CSR, as `Graph::out_csr` returns it and
        /// `Graph::from_sorted_csr` takes (and checks) it: `num_vertices + 1`
        /// offsets into `targets`.
        pub offsets: Vec<u64>,
        /// Out-edge targets, one ascending run per vertex.
        pub targets: Vec<u32>,
        /// Vertex -> partition assignment (global partition ids; worker of a
        /// partition is `partition / partitions_per_worker`).
        pub assignment: Vec<u32>,
        /// Cluster shape.
        pub workers: u32,
        /// Partitions per worker.
        pub partitions_per_worker: u32,
        /// `TechniqueKind` label (decoded by the runtime, not the codec).
        pub technique: String,
        /// Workload name ("coloring", "wcc", "sssp").
        pub workload: String,
        /// Workload argument (SSSP source, PageRank threshold bits; 0 otherwise).
        pub workload_arg: u64,
        /// Superstep cap.
        pub max_supersteps: u64,
        /// Remote staging buffer capacity before an eager batch flush.
        pub buffer_cap: u64,
        /// Record per-vertex transaction intervals for the 1SR check; they
        /// reach the coordinator as `AuditUpload` frames.
        pub record_history: bool,
        /// Trace ring capacity per worker; 0 disables tracing.
        pub trace_capacity: u64,
        /// Coordinator's wall-clock epoch (ns since `UNIX_EPOCH`); workers
        /// stamp trace events relative to it so one merged timeline emerges.
        pub epoch_ns: u64,
        /// Fault plan for *this* worker's data-plane connections.
        pub fault: FaultPlan,
        /// How often (ms) this worker ships a `TelemetryUpload` snapshot frame
        /// to the coordinator; 0 disables periodic shipping (a final snapshot
        /// is always uploaded at halt).
        pub telemetry_interval_ms: u64,
        /// How often (ms) this worker ships an `AuditUpload` frame carrying
        /// the transactions recorded since the last one plus its Lamport
        /// watermark; 0 ships them all at halt. Requires `record_history`.
        pub audit_interval_ms: u64,
    }
}

wire_struct! {
    /// One recorded transaction interval, uploaded for the merged 1SR check.
    /// Timestamps are composite Lamport stamps (`lamport << 8 | rank`), giving
    /// a process-unique total order consistent with happens-before.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WireTxn {
        /// Executed vertex.
        pub vertex: u32,
        /// Transaction start stamp.
        pub start: u64,
        /// Transaction end stamp (half-open interval).
        pub end: u64,
        /// In-neighbors whose updates were received but not yet applied at
        /// start — observable C1 staleness.
        pub stale: Vec<u32>,
    }
}

wire_struct! {
    /// One trace event, uploaded for the merged Chrome trace.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WireTraceEvent {
        /// Recording worker (global rank).
        pub worker: u32,
        /// Superstep.
        pub superstep: u64,
        /// `TraceEventKind` byte.
        pub kind: u8,
        /// Start, ns since the run epoch.
        pub ts_ns: u64,
        /// Duration, ns.
        pub dur_ns: u64,
        /// Kind-specific payload.
        pub arg: u64,
        /// Destination worker for cross-worker events (`u32::MAX` = none).
        pub peer: u32,
    }
}

wire_struct! {
    /// One flattened telemetry metric row, shipped in `TelemetryUpload` frames.
    /// `kind` is a [`sg_metrics::MetricKind`] tag; `values` is the kind's flat
    /// encoding (`[v]` for counters/gauges, `[count, sum, b0..]` for
    /// histograms) as produced by `MetricValue::to_values`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WireMetricRow {
        /// Metric family name.
        pub name: String,
        /// Label pairs.
        pub labels: Vec<(String, String)>,
        /// Metric kind tag.
        pub kind: u8,
        /// Flattened values.
        pub values: Vec<u64>,
    }
}

impl WireMetricRow {
    /// Flatten a registry snapshot into wire rows.
    pub fn from_snapshot(snap: &sg_metrics::TelemetrySnapshot) -> Vec<WireMetricRow> {
        snap.rows
            .iter()
            .map(|r| WireMetricRow {
                name: r.name.clone(),
                labels: r.labels.clone(),
                kind: r.value.kind().as_u8(),
                values: r.value.to_values(),
            })
            .collect()
    }

    /// Rebuild a snapshot from wire rows; rows with an unknown kind tag or
    /// malformed value vector are dropped (forward compatibility).
    pub fn to_snapshot(rows: &[WireMetricRow]) -> sg_metrics::TelemetrySnapshot {
        sg_metrics::TelemetrySnapshot {
            rows: rows
                .iter()
                .filter_map(|r| {
                    let kind = sg_metrics::MetricKind::from_u8(r.kind)?;
                    let value = sg_metrics::MetricValue::from_values(kind, &r.values)?;
                    Some(sg_metrics::MetricRow {
                        name: r.name.clone(),
                        labels: r.labels.clone(),
                        value,
                    })
                })
                .collect(),
        }
    }
}

/// Declares [`Message`] — each variant's field list and `= kind byte` —
/// and derives from it `Message::kind`, the body encoder (`Field::put`
/// over the fields in order) and the body decoder (`Field::get` in the
/// same order; any other byte is [`WireError::BadKind`]). A byte given to
/// two kinds is an unreachable decode arm, which the lint gate refuses.
macro_rules! wire_messages {
    (
        $(#[$meta:meta])*
        pub enum Message {
            $(
                $(#[$vmeta:meta])*
                $V:ident $({
                    $( $(#[$fmeta:meta])* $f:ident : $t:ty ),* $(,)?
                })? = $kind:tt
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Message {
            $(
                $(#[$vmeta])*
                $V $({ $( $(#[$fmeta])* $f: $t ),* })?,
            )*
        }

        impl Message {
            /// The message's kind byte (stable wire identity).
            pub fn kind(&self) -> u8 {
                match self {
                    $( Message::$V { .. } => $kind, )*
                }
            }

            fn put_body(&self, buf: &mut Vec<u8>) {
                match self {
                    $( Message::$V $({ $($f),* })? => { $($( $f.put(buf); )*)? } )*
                }
            }

            fn get_body(byte: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match byte {
                    $( $kind => Message::$V $({ $( $f: Field::get(r)? ),* })?, )*
                    other => return Err(WireError::BadKind(other)),
                })
            }
        }
    };
}

/// `BatchFlush`'s kind byte: the one the zero-copy receive path dispatches
/// on without decoding the frame.
const K_BATCH_FLUSH: u8 = 20;

wire_messages! {
    /// A typed protocol message. Control-plane messages travel on the
    /// coordinator link; data-plane messages on the worker-to-worker mesh.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Message {
        // -- control plane: worker -> coordinator ---------------------------
        /// Worker `rank` joined; `data_addr` is its peer-mesh listener.
        Hello {
            /// Codec version; mismatches abort the handshake.
            version: u8,
            /// Global worker rank.
            rank: u32,
            /// `host:port` of this worker's data-plane listener.
            data_addr: String,
        } = 1,
        /// Compute for `superstep` finished and all staged batches flushed.
        ComputeDone {
            /// The completed superstep.
            superstep: u64,
        } = 2,
        /// Quiescent state report (phase two of the barrier).
        BarrierVote {
            /// The completed superstep.
            superstep: u64,
            /// Vertices still active (unhalted or with undelivered input).
            active: u64,
        } = 3,
        /// Blocking lock-acquire request for a partition or vertex unit.
        AcquireUnit {
            /// Unit id in the technique's unit space.
            unit: u32,
        } = 4,
        /// Unit released after the unit's vertices committed.
        ReleaseUnit {
            /// Unit id.
            unit: u32,
        } = 5,
        /// The C1 write-all flush requested by `FlushForks` completed: the
        /// receiving worker acknowledged applying every staged update.
        FlushDone {
            /// Echo of the coordinator's flush request id.
            flush_seq: u64,
        } = 6,
        /// Final vertex values for this worker's vertices.
        ValuesUpload {
            /// `(vertex, value)` pairs; the value is its variable-length
            /// `WireCodec` byte encoding.
            values: Vec<(u32, Vec<u8>)>,
        } = 7,
        // Kinds 8, 17 and 23 carried v7's history upload and request-token
        // relay; they now decode as `BadKind`.
        /// Final counter values, summed into the cluster totals.
        MetricsUpload {
            /// Counter values in `Counter::ALL` order.
            counters: Vec<u64>,
        } = 9,
        /// Retained trace events for the merged Chrome trace.
        TraceUpload {
            /// Decoded events from this worker's ring.
            events: Vec<WireTraceEvent>,
        } = 10,
        /// Live telemetry snapshot (periodic during the run, final at halt).
        TelemetryUpload {
            /// Flattened registry rows.
            rows: Vec<WireMetricRow>,
        } = 25,
        /// The one transaction stream: every transaction recorded since the
        /// last upload, plus this worker's Lamport watermark — a composite
        /// stamp strictly below every stamp any *future* transaction from this
        /// worker can carry. The coordinator merges the frames into the
        /// post-hoc history and, with the audit plane on, its audit hub merges
        /// them live by advancing a frontier = min watermark across workers.
        AuditUpload {
            /// Transactions recorded since the previous `AuditUpload`.
            txns: Vec<WireTxn>,
            /// Composite Lamport watermark (`lamport << 8 | rank`).
            watermark: u64,
        } = 27,

        /// Answer to a `QueryRequest` (worker -> coordinator).
        QueryResponse {
            /// Echo of the request id.
            id: u64,
            /// 1 = served; 0 = the worker could not satisfy it (e.g. unknown
            /// snapshot handle after a worker restart, or a vertex the graph
            /// does not have).
            ok: u8,
            /// Op-dependent values (wire-encoded vertex values for lookups and
            /// snapshot reads, in request order; `u64::MAX` marks a vertex
            /// with no committed version).
            values: Vec<u64>,
            /// Op-dependent scalar: snapshot `read_ts` for `SnapOpen`, the
            /// store checksum for `SnapChecksum`, else 0.
            checksum: u64,
            /// Vertices this worker owns (checksum combining weight).
            count: u64,
        } = 29,

        // -- control plane: coordinator -> worker ---------------------------
        /// Serving-plane query against this worker's MVCC vertex store
        /// (coordinator -> worker). `op` selects the operation; see
        /// [`QUERY_OP_MULTI_LOOKUP`] and friends for the operand meanings.
        QueryRequest {
            /// Coordinator-chosen id echoed in the response.
            id: u64,
            /// Operation selector (`QUERY_OP_*`).
            op: u8,
            /// First operand (snapshot handle for snapshot ops).
            a: u64,
            /// Vertices to resolve (for lookups and snapshot reads).
            vertices: Vec<u32>,
        } = 28,
        /// Full run description (graph, partitioning, technique, faults).
        Setup {
            /// The run spec.
            spec: Box<RunSpec>,
        } = 11,
        /// Data-plane addresses of every worker.
        PeerMap {
            /// `(rank, host:port)` for each worker.
            peers: Vec<(u32, String)>,
        } = 12,
        /// Begin computing `superstep`.
        StartSuperstep {
            /// The superstep to run.
            superstep: u64,
        } = 13,
        /// All workers reached quiescence; report your barrier vote.
        ReportRequest {
            /// The superstep being voted on.
            superstep: u64,
        } = 14,
        /// The blocking acquire for `unit` succeeded; compute may proceed.
        UnitGranted {
            /// Unit id.
            unit: u32,
        } = 15,
        /// Perform a C1 write-all flush to `target` (a fork or token is about
        /// to hand over); reply `FlushDone { flush_seq }` once `target`
        /// acknowledged applying everything.
        FlushForks {
            /// Receiving worker of the fork/token.
            target: u32,
            /// Protocol unit traveling: the philosopher id of a fork, 0 for a
            /// token (recorded as the trace event's argument).
            unit: u64,
            /// True for a token ring pass, false for a Chandy-Misra fork.
            token: bool,
            /// Coordinator-chosen id echoed in `FlushDone`.
            flush_seq: u64,
        } = 16,
        /// The run is over; upload results and shut down.
        Halt = 18,

        // -- data plane: worker <-> worker ----------------------------------
        /// Mesh handshake: identifies the dialing worker and, on reconnect,
        /// the next frame seq it expects from the peer.
        PeerHello {
            /// Codec version.
            version: u8,
            /// Dialing worker's rank.
            rank: u32,
            /// Next frame seq expected from the peer (0 on first connect).
            resume_from: u64,
        } = 19,
        /// A batch of remote vertex messages with variable-length payloads.
        /// On the receive hot path this frame is *not* decoded to `Message` —
        /// the link parses a [`BatchView`] over the receive buffer instead.
        BatchFlush {
            /// The wire-format entries.
            batch: MsgBatch,
        } = K_BATCH_FLUSH,
        /// Flush fence: the receiver replies `FlushAck` only after applying
        /// every earlier frame on this connection (the write-all receipt).
        FlushPing {
            /// Sender-chosen fence id.
            flush_seq: u64,
        } = 21,
        /// All frames up to and including `ack_through` were applied.
        FlushAck {
            /// Echo of the fence id.
            flush_seq: u64,
            /// Highest contiguous frame seq applied (retransmit-buffer prune
            /// point).
            ack_through: u64,
        } = 22,
        /// Keepalive. `echo_ns` is an opaque sender-local monotonic timestamp;
        /// the receiver reflects it verbatim in `HeartbeatAck` so the sender
        /// can measure the link round-trip time.
        Heartbeat {
            /// Sender's monotonic clock at send time (opaque to the receiver).
            echo_ns: u64,
        } = 24,
        /// Heartbeat reply: reflects the echo and carries the receiver's
        /// retransmit-buffer prune point (like `FlushAck`, without a fence).
        HeartbeatAck {
            /// Verbatim echo of the heartbeat's `echo_ns`.
            echo_ns: u64,
            /// Highest contiguous frame seq the receiver has applied.
            ack_through: u64,
        } = 26,
    }
}

/// `QueryRequest` op: resolve `vertices` at the latest committed frontier.
pub const QUERY_OP_MULTI_LOOKUP: u8 = 0;
/// `QueryRequest` op: open a snapshot, pinning GC; the response's
/// `checksum` field carries the worker-local `read_ts`.
pub const QUERY_OP_SNAP_OPEN: u8 = 1;
/// `QueryRequest` op: resolve `vertices` in snapshot `a`.
pub const QUERY_OP_SNAP_READ: u8 = 2;
/// `QueryRequest` op: release snapshot `a`.
pub const QUERY_OP_SNAP_CLOSE: u8 = 3;
/// `QueryRequest` op: checksum every owned vertex in snapshot `a`.
pub const QUERY_OP_SNAP_CHECKSUM: u8 = 4;

/// One frame as it travels on a connection: the link sequence number, the
/// sender's Lamport clock, and the typed message.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Per-connection sequence number (dedup + retransmit identity).
    pub seq: u64,
    /// Sender's Lamport clock at send time.
    pub clock: u64,
    /// The payload.
    pub msg: Message,
}

impl Frame {
    /// Encode including the 4-byte length prefix — exactly the bytes
    /// written to the socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Encode into a caller-owned buffer (cleared first), including the
    /// 4-byte length prefix — the pooled, alloc-free send path.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame_into(self.seq, self.clock, &self.msg, out);
    }

    /// Decode a payload (the bytes *after* the length prefix). Rejects
    /// unknown kinds, truncation, bad lengths, and trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(WireError::BadLength(payload.len() as u64));
        }
        let mut r = Reader(payload);
        let FrameHeader { kind, seq, clock } = FrameHeader::get(&mut r)?;
        let msg = Message::get_body(kind, &mut r)?;
        r.finish()?;
        Ok(Frame { seq, clock, msg })
    }
}

/// Encode a frame into a caller-owned buffer (cleared first) without
/// taking ownership of the message — the pooled send path's entry point.
pub fn encode_frame_into(seq: u64, clock: u64, msg: &Message, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0, 0, 0, 0]);
    let kind = msg.kind();
    FrameHeader { kind, seq, clock }.put(out);
    msg.put_body(out);
    let n = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&n.to_le_bytes());
}

wire_struct! {
    /// A frame header peeked off a raw payload without decoding the body —
    /// the zero-copy receive path's dispatch point.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FrameHeader {
        /// Message kind byte.
        pub kind: u8,
        /// Per-connection sequence number.
        pub seq: u64,
        /// Sender's Lamport clock at send time.
        pub clock: u64,
    }
}

impl FrameHeader {
    /// Is this a data-plane batch flush? Such payloads can be walked
    /// with [`batch_view`] without allocating.
    pub fn is_batch(&self) -> bool {
        self.kind == K_BATCH_FLUSH
    }
}

/// Peek the 17-byte frame header off a payload (bytes after the length
/// prefix) without touching the body.
pub fn peek_header(payload: &[u8]) -> Result<FrameHeader, WireError> {
    FrameHeader::get(&mut Reader(payload))
}

/// Borrow a validated [`BatchView`] out of a batch-flush payload (bytes
/// after the length prefix; header must satisfy [`FrameHeader::is_batch`]).
/// The view borrows `payload` — no per-message allocation. `_scratch` is
/// unread: it was the inflate buffer of the removed compressed frame, and
/// the parameter stays because `perf/` (not editable) calls this signature.
pub fn batch_view<'a>(
    payload: &'a [u8],
    _scratch: &mut Vec<u8>,
) -> Result<BatchView<'a>, WireError> {
    let mut r = Reader(payload);
    match FrameHeader::get(&mut r)?.kind {
        K_BATCH_FLUSH => BatchView::parse(r.rest()),
        other => Err(WireError::BadKind(other)),
    }
}

/// Read one length-prefixed frame from `r`. `Ok(None)` on clean EOF at a
/// frame boundary; io errors and codec errors are distinct failures so the
/// caller can decide between reconnect and protocol abort.
pub fn read_frame<R: std::io::Read>(
    r: &mut R,
) -> std::io::Result<Option<Result<Frame, WireError>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.map(|res| res.and_then(|_| Frame::decode(&payload))))
}

/// Read one frame's payload into a caller-owned buffer (resized to fit,
/// reused across calls — the alloc-free receive path). Returns the total
/// wire size (length prefix + payload); the payload occupies `buf` in
/// full. `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame_into<R: std::io::Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<Result<usize, WireError>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_LEN {
        return Ok(Some(Err(WireError::BadLength(n as u64))));
    }
    buf.resize(n, 0);
    r.read_exact(buf)?;
    Ok(Some(Ok(n + 4)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload_is_truncated_not_panic() {
        assert_eq!(Frame::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut payload = vec![200u8];
        payload.extend_from_slice(&[0u8; 16]);
        assert_eq!(Frame::decode(&payload), Err(WireError::BadKind(200)));
    }

    #[test]
    fn length_prefix_capped() {
        let mut buf: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        let got = read_frame(&mut buf).unwrap().unwrap();
        assert!(matches!(got, Err(WireError::BadLength(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let f = Frame {
            seq: 1,
            clock: 2,
            msg: Message::Heartbeat { echo_ns: 7 },
        };
        let mut bytes = f.encode();
        bytes.push(0xAB);
        // Fix up the length prefix to cover the trailing byte.
        let n = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&n.to_le_bytes());
        assert_eq!(Frame::decode(&bytes[4..]), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn query_frames_round_trip() {
        for msg in [
            Message::QueryRequest {
                id: 7,
                op: QUERY_OP_SNAP_READ,
                a: 42,
                vertices: vec![0, 5, 99],
            },
            Message::QueryRequest {
                id: 8,
                op: QUERY_OP_SNAP_OPEN,
                a: 0,
                vertices: vec![],
            },
            Message::QueryResponse {
                id: 7,
                ok: 1,
                values: vec![u64::MAX, 3, 17],
                checksum: 0xDEAD_BEEF,
                count: 12,
            },
        ] {
            let f = Frame {
                seq: 4,
                clock: 5,
                msg,
            };
            let bytes = f.encode();
            assert_eq!(Frame::decode(&bytes[4..]).unwrap(), f);
        }
    }

    #[test]
    fn heartbeat_and_telemetry_round_trip() {
        for msg in [
            Message::Heartbeat { echo_ns: 123456789 },
            Message::HeartbeatAck {
                echo_ns: 123456789,
                ack_through: 42,
            },
            Message::TelemetryUpload {
                rows: vec![
                    WireMetricRow {
                        name: "sg_link_frames_out_total".into(),
                        labels: vec![("peer".into(), "2".into())],
                        kind: 0,
                        values: vec![99],
                    },
                    WireMetricRow {
                        name: "sg_link_rtt_ns".into(),
                        labels: vec![],
                        kind: 2,
                        values: vec![3, 21, 0, 1, 2],
                    },
                ],
            },
        ] {
            let f = Frame {
                seq: 9,
                clock: 10,
                msg,
            };
            let bytes = f.encode();
            assert_eq!(Frame::decode(&bytes[4..]).unwrap(), f);
        }
    }

    #[test]
    fn telemetry_rows_round_trip_through_snapshot() {
        let t = sg_metrics::Telemetry::new();
        t.counter("frames", &[("peer", "1")]).add(4);
        t.gauge("depth", &[]).set(2);
        t.histogram("rtt", &[("peer", "1")]).record(1000);
        let snap = t.snapshot();
        let rows = WireMetricRow::from_snapshot(&snap);
        assert_eq!(WireMetricRow::to_snapshot(&rows), snap);
    }

    #[test]
    fn audit_upload_round_trips() {
        let f = Frame {
            seq: 3,
            clock: 99,
            msg: Message::AuditUpload {
                txns: vec![
                    WireTxn {
                        vertex: 7,
                        start: (5 << 8) | 1,
                        end: (6 << 8) | 1,
                        stale: vec![2, 4],
                    },
                    WireTxn {
                        vertex: 8,
                        start: (7 << 8) | 1,
                        end: (9 << 8) | 1,
                        stale: vec![],
                    },
                ],
                watermark: (10 << 8) | 1,
            },
        };
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), f);
        // Empty batch (pure watermark bump) round-trips too.
        let f = Frame {
            seq: 4,
            clock: 100,
            msg: Message::AuditUpload {
                txns: vec![],
                watermark: u64::MAX,
            },
        };
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), f);
    }

    #[test]
    fn truncated_audit_upload_rejected() {
        let f = Frame {
            seq: 1,
            clock: 1,
            msg: Message::AuditUpload {
                txns: vec![WireTxn {
                    vertex: 1,
                    start: 2,
                    end: 3,
                    stale: vec![],
                }],
                watermark: 9,
            },
        };
        let bytes = f.encode();
        // Drop the trailing watermark bytes: must be Truncated, not panic.
        assert_eq!(
            Frame::decode(&bytes[4..bytes.len() - 8]),
            Err(WireError::Truncated)
        );
        // An implausible txn count must be BadLength before allocation.
        let kind = Message::AuditUpload {
            txns: vec![],
            watermark: 0,
        }
        .kind();
        let mut payload = vec![kind];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&payload),
            Err(WireError::BadLength(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn collection_length_validated_before_allocation() {
        // A BatchFlush claiming 2^32-1 entries with a 4-byte body must be
        // rejected as BadLength, not attempt a 64 GiB allocation.
        let mut payload = vec![K_BATCH_FLUSH];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&payload),
            Err(WireError::BadLength(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn msg_batch_round_trips_variable_payloads() {
        let mut batch = MsgBatch::new();
        batch.push(7, 1, &[]);
        batch.push(8, 2, &[0xAB]);
        batch.push(9, 3, &42u64.to_le_bytes());
        let big = vec![0x5A; 4096];
        batch.push(10, 4, &big);
        assert_eq!(batch.len(), 4);

        let f = Frame {
            seq: 11,
            clock: 12,
            msg: Message::BatchFlush {
                batch: batch.clone(),
            },
        };
        let bytes = f.encode();
        let decoded = Frame::decode(&bytes[4..]).unwrap();
        assert_eq!(decoded, f);

        // Zero-copy view over the same payload sees identical entries.
        let hdr = peek_header(&bytes[4..]).unwrap();
        assert!(hdr.is_batch());
        assert_eq!((hdr.seq, hdr.clock), (11, 12));
        let mut scratch = Vec::new();
        let view = batch_view(&bytes[4..], &mut scratch).unwrap();
        let got: Vec<(u32, u32, Vec<u8>)> =
            view.iter().map(|(t, f, p)| (t, f, p.to_vec())).collect();
        assert_eq!(
            got,
            vec![
                (7, 1, vec![]),
                (8, 2, vec![0xAB]),
                (9, 3, 42u64.to_le_bytes().to_vec()),
                (10, 4, big),
            ]
        );
    }

    #[test]
    fn batch_view_rejects_malformed_entries() {
        // Entry header truncated mid-way.
        let mut body = Vec::new();
        1u32.put(&mut body);
        body.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            BatchView::parse(&body),
            Err(WireError::BadLength(_)) | Err(WireError::Truncated)
        ));

        // Payload length pointing past the end.
        let mut body = Vec::new();
        1u32.put(&mut body);
        1u32.put(&mut body);
        2u32.put(&mut body);
        100u32.put(&mut body); // claims 100 payload bytes, none follow
        assert_eq!(BatchView::parse(&body), Err(WireError::BadLength(100)));

        // Count smaller than the bytes present: trailing garbage.
        let mut batch = MsgBatch::new();
        batch.push(1, 2, &[9]);
        batch.push(3, 4, &[8]);
        let mut body = Vec::new();
        1u32.put(&mut body); // claim one entry, provide two
        body.extend_from_slice(&batch.bytes);
        assert_eq!(BatchView::parse(&body), Err(WireError::TrailingBytes(13)));
    }

    #[test]
    fn values_upload_round_trips_variable_payloads() {
        let f = Frame {
            seq: 5,
            clock: 6,
            msg: Message::ValuesUpload {
                values: vec![
                    (0, vec![]),
                    (1, vec![2]),
                    (2, 7.5f64.to_bits().to_le_bytes().to_vec()),
                ],
            },
        };
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes[4..]).unwrap(), f);
        // Implausible count rejected before allocation.
        let kind = Message::ValuesUpload { values: vec![] }.kind();
        let mut payload = vec![kind];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&payload),
            Err(WireError::BadLength(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let mut batch = MsgBatch::new();
        batch.push(1, 2, &[1, 2, 3]);
        let frames = [
            Frame {
                seq: 1,
                clock: 2,
                msg: Message::BatchFlush { batch },
            },
            Frame {
                seq: 3,
                clock: 4,
                msg: Message::Heartbeat { echo_ns: 9 },
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.encode_into(&mut buf);
            assert_eq!(buf, f.encode());
        }
    }
}
