//! The worker runtime: one process (or thread) per rank, executing vertex
//! programs over its partitions and exchanging messages with its peers
//! over the TCP mesh.
//!
//! A worker runs four threads:
//!
//! * the **compute** thread (the one `worker_main` occupies) — executes
//!   supersteps on `StartSuperstep`, answers `ReportRequest` barrier
//!   votes, blocks on `UnitGranted` during lock RPCs, and performs the
//!   result uploads at `Halt`;
//! * the **dispatcher** thread — reads the control connection; barrier
//!   and grant frames forward to the compute thread, while `FlushForks`
//!   (the C1 write-all on fork/token surrender) is serviced *inline*:
//!   ship what is staged for the target, fence until the peer
//!   acknowledges application, then report `FlushDone` —
//!   this must run while the compute thread is busy or blocked;
//! * the **mesh accept** thread — blocked in `accept`, adopts incoming
//!   (and replacement) data-plane connections as they arrive; teardown
//!   wakes it with a connection of its own;
//! * the **maintenance** thread — heartbeats idle links, re-dials dead
//!   ones with backoff, and ships the transaction log every
//!   `audit_interval_ms`, waiting out each tick on a channel that teardown
//!   drops, so it ends as soon as the run does.
//!
//! None of them sleeps on a timer: a rank comes up as fast as its peers
//! dial and goes down as soon as it has uploaded.
//!
//! The compute thread *hosts* the shared superstep cycle rather than
//! transcribing it: [`sg_sync::PartitionWalk`] decides which vertex runs
//! next and where the acquire/release brackets go, [`sg_engine::Cycle`]
//! follows the walk and runs the vertex transaction on the rank's
//! [`PartitionData`] — one per partition it owns, the vertex state every
//! host keeps — and this module supplies how it waits and the rest of the
//! IO: the lock RPC, the serving plane a value is published to, the
//! remote path, Lamport stamps. Remote messages
//! are staged *before* the walk's release step, so the release-triggered
//! write-all finds them. Workers run one compute thread each — rank is
//! worker is thread, which is the paper's single-threaded-worker setting.
//!
//! The datapath is the thread engine's, fed through the program's canonical
//! combiner (the one `Runner` attaches in-process) where a message lands,
//! in the receiving rank's inbox. Remote sends stage typed in a
//! [`StagingBuffers`], appended without folding, under one staging lock
//! per execution — taken at the vertex's first remote send, dropped at its
//! close, never held across a lock RPC, as the engine's `PartitionHost`
//! holds it — and are encoded only when a run ships: at `buffer_cap`, at
//! the C1 write-all and at the end of the superstep, all through [`ship`],
//! each message once, straight into the link's pooled frame buffer.
//! Incoming messages land in an [`InboxPair`]
//! that holds this rank's partitions: the cycle delivers a local send
//! there itself; a peer's batch is decoded on the link reader that
//! received it and landed with [`InboxPair::deliver_batch`] — the compute
//! thread and the readers share no rank-wide lock, and bytes exist only on
//! the wire.
//! What a peer sends that this rank cannot take — a vertex it does not own,
//! a payload that does not decode — is counted in
//! `sg_worker_rejected_messages_total`, never dropped silently.
//!
//! An untraced execution reads no clock: `sg_worker_compute_ns_total` grows
//! by each partition walk's wall time less its lock waits, added at the
//! walk's lock RPCs and at its end. A traced run also times each execution
//! for its `VertexExecute` span.
//!
//! With `record_history` on, every execution's Lamport interval goes into
//! one log, [`AuditShip`], and leaves it once, in `AuditUpload` frames:
//! the maintenance thread's periodic ships, then the drain at `Halt`.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use sg_algos::{DeltaPageRank, GreedyColoring, GreedyMis, Sssp, Wcc};
use sg_engine::state::PartitionData;
use sg_engine::store::{InboxPair, StagingBuffers};
use sg_engine::{
    build_synchronizer, AggregatorSet, Combiner, Cycle, Env, Executed, Host, Model, StoreGauges,
    VertexProgram, WireCodec,
};
use sg_graph::{ClusterLayout, Graph, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{Counter, CounterHandle, GaugeHandle, Metrics, Telemetry, Trace, TraceEventKind};
use sg_sync::{LockGranularity, TechniqueKind};

use crate::cluster::GOODBYE_SUPERSTEP;
use crate::fault::FaultInjector;
use crate::link::{accept_handshake, CtrlConn, FrameReader, PeerHandler, PeerLink};
use crate::wire::{
    BatchView, Message, RunSpec, WireMetricRow, WireTraceEvent, WireTxn, PROTOCOL_VERSION,
    QUERY_OP_MULTI_LOOKUP, QUERY_OP_SNAP_CHECKSUM, QUERY_OP_SNAP_CLOSE, QUERY_OP_SNAP_OPEN,
    QUERY_OP_SNAP_READ,
};
use crate::{stamp, Clock, NetError};
use sg_store::{checksum_word, Snapshot, VertexStore};

const CONNECT_RETRIES: u32 = 100;
const CONNECT_RETRY_DELAY: Duration = Duration::from_millis(50);
const FENCE_TIMEOUT: Duration = Duration::from_secs(20);
const UPLOAD_CHUNK: usize = 1 << 16;

/// Entry point for one worker rank. Connects to the coordinator at
/// `coord_addr`, receives the run spec, executes, uploads, returns.
/// Runs identically as a thread (SpawnMode::Threads) or as a process
/// main (the `sg-cluster` binary's hidden worker mode).
pub fn worker_main(coord_addr: &str, rank: u32) -> Result<(), NetError> {
    let clock = Arc::new(Clock::new());
    let stream = connect_retry(coord_addr)?;
    let (ctrl, read_half) = CtrlConn::new(stream, Arc::clone(&clock))?;
    let ctrl = Arc::new(ctrl);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = listener.local_addr()?.to_string();
    ctrl.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank,
        data_addr,
    })?;
    let mut reader = FrameReader::new(read_half, Arc::clone(&clock));
    let spec = match reader.recv()? {
        Some(Message::Setup { spec }) => *spec,
        other => {
            return Err(NetError::Protocol(format!(
                "expected Setup, got {:?}",
                other.map(|m| m.kind())
            )))
        }
    };
    let peers = match reader.recv()? {
        Some(Message::PeerMap { peers }) => peers,
        other => {
            return Err(NetError::Protocol(format!(
                "expected PeerMap, got {:?}",
                other.map(|m| m.kind())
            )))
        }
    };
    // Each program with the combiner `Runner` gives it in-process.
    let (workload, arg) = (spec.workload.clone(), spec.workload_arg);
    let joined = Joined {
        rank,
        spec,
        peers,
        listener,
        ctrl,
        reader,
    };
    match workload.as_str() {
        "coloring" => run_worker(GreedyColoring, None, joined),
        "wcc" => run_worker(Wcc, Some(Box::new(Wcc::combiner())), joined),
        "sssp" => {
            let program = Sssp::new(VertexId::new(arg as u32));
            run_worker(program, Some(Box::new(Sssp::combiner())), joined)
        }
        "mis" => run_worker(GreedyMis, None, joined),
        "pagerank" => {
            // The convergence threshold ships as the f64 bit pattern in
            // the workload argument word.
            let program = DeltaPageRank::new(f64::from_bits(arg));
            run_worker(program, Some(Box::new(DeltaPageRank::combiner())), joined)
        }
        other => Err(NetError::Protocol(format!("unknown workload `{other}`"))),
    }
}

/// A rank the coordinator has set up: what `worker_main` hands `run_worker`
/// besides the program.
struct Joined {
    rank: u32,
    spec: RunSpec,
    peers: Vec<(u32, String)>,
    /// The data-plane listener whose address went out in `Hello`.
    listener: TcpListener,
    ctrl: Arc<CtrlConn>,
    reader: FrameReader,
}

fn connect_retry(addr: &str) -> Result<TcpStream, NetError> {
    let mut last = None;
    for _ in 0..CONNECT_RETRIES {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(CONNECT_RETRY_DELAY);
            }
        }
    }
    Err(NetError::Protocol(format!(
        "coordinator {addr} unreachable: {}",
        last.map(|e| e.to_string()).unwrap_or_default()
    )))
}

/// Wall clock relative to the coordinator's epoch (same host for the
/// loopback clusters; remote hosts get whatever NTP gives them).
fn wall_ns(epoch_ns: u64) -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        .saturating_sub(epoch_ns)
}

/// Remote sends staged as the engine stages them, plus per peer whether a
/// batch went to it since its last fence: what the write-all must fence.
type Staged<M> = (StagingBuffers<M>, Vec<bool>);

/// This worker's live-telemetry handles (the registry itself rides on
/// [`Metrics`]): progress gauges set at barrier votes, plus two counters —
/// compute time between lock RPCs, lock wait per lock RPC — from which
/// `sg-top` derives busy/blocked percentages against the uptime gauge.
struct WorkerTelemetry {
    registry: Arc<Telemetry>,
    superstep: GaugeHandle,
    active: GaugeHandle,
    pending: GaugeHandle,
    staged: GaugeHandle,
    uptime_ns: GaugeHandle,
    compute_ns: CounterHandle,
    lock_wait_ns: CounterHandle,
    /// The serving store's `sg_store_*` gauges, set once per maintenance
    /// tick.
    store: StoreGauges,
}

impl WorkerTelemetry {
    fn new(registry: Arc<Telemetry>) -> Self {
        let t = &registry;
        WorkerTelemetry {
            superstep: t.gauge("sg_worker_superstep", &[]),
            active: t.gauge("sg_worker_active_vertices", &[]),
            pending: t.gauge("sg_worker_pending_messages", &[]),
            staged: t.gauge("sg_worker_staged_messages", &[]),
            uptime_ns: t.gauge("sg_worker_uptime_ns", &[]),
            compute_ns: t.counter("sg_worker_compute_ns_total", &[]),
            lock_wait_ns: t.counter("sg_worker_lock_wait_ns_total", &[]),
            store: StoreGauges::new(t),
            registry,
        }
    }
}

/// The worker's one transaction log, kept whenever `record_history` is on:
/// completed transactions stage here until they ship — every
/// `audit_interval_ms` from the maintenance thread, the rest at `Halt` —
/// and `inflight` pins the watermark below any execution still open. A
/// ship sends its frame under `buf`'s lock, so frames leave in the order
/// they were taken.
struct AuditShip {
    buf: Mutex<Vec<WireTxn>>,
    /// Pre-start Lamport snapshot of the transaction the compute thread
    /// is currently inside; `u64::MAX` when idle. Stored *before* the
    /// start tick, cleared *after* the record is staged, so a shipped
    /// watermark never exceeds the start of a transaction that ships
    /// later.
    inflight: AtomicU64,
}

/// The worker's half of the serving plane: an MVCC store over
/// wire-encoded vertex values, written through by every vertex execution
/// and read by the dispatcher when coordinator `QueryRequest` frames
/// arrive. Snapshot handles are coordinator-chosen, so one logical
/// cluster snapshot pins a local snapshot on every worker.
struct Serve {
    vstore: Arc<VertexStore<u64>>,
    /// Vertices this rank owns (checksum domain), ascending.
    owned: Vec<u32>,
    /// Coordinator handle -> local pinned snapshot.
    snaps: Mutex<HashMap<u64, Snapshot>>,
}

/// State shared between the compute thread, the dispatcher, and the
/// link reader threads.
struct Shared<M> {
    rank: u32,
    ctrl: Arc<CtrlConn>,
    clock: Arc<Clock>,
    /// The program's combiner, applied where a message lands in `inboxes`
    /// (`staging` only appends).
    combiner: Option<Box<dyn Combiner<M>>>,
    staging: Mutex<Staged<M>>,
    /// This rank's partitions' inboxes (AP visibility).
    inboxes: InboxPair<M>,
    metrics: Arc<Metrics>,
    trace: Trace,
    epoch_ns: u64,
    superstep: AtomicU64,
    fence_seq: AtomicU64,
    buffer_cap: usize,
    wtel: WorkerTelemetry,
    /// The transaction log, when `record_history` is on.
    log: Option<AuditShip>,
    serve: Serve,
}

impl<M> Shared<M> {
    fn staged(&self) -> MutexGuard<'_, Staged<M>> {
        self.staging.lock().expect("a staging holder panicked")
    }

    fn next_fence(&self) -> u64 {
        self.fence_seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Ship one incremental audit batch. Watermark promise: every
    /// transaction this rank ships *later* starts at or above it. Read
    /// order matters — clock before inflight before the buffer take —
    /// see the safety argument on [`AuditShip::inflight`].
    fn ship_audit(&self) {
        let Some(log) = &self.log else { return };
        let clock_now = self.clock.now();
        let inflight = log.inflight.load(Ordering::SeqCst);
        let watermark = stamp(clock_now.min(inflight), self.rank);
        let mut buf = log.buf.lock().unwrap();
        let txns = std::mem::take(&mut *buf);
        let _ = self.ctrl.send(&Message::AuditUpload { txns, watermark });
    }

    /// Stamp the uptime gauge and ship a registry snapshot to the
    /// coordinator over the control plane. Called from the maintenance
    /// thread (periodic frames) and once more at halt.
    fn send_telemetry(&self) {
        self.wtel.uptime_ns.set(wall_ns(self.epoch_ns));
        let rows = WireMetricRow::from_snapshot(&self.wtel.registry.snapshot());
        let _ = self.ctrl.send(&Message::TelemetryUpload { rows });
    }
}

/// Applies incoming batches straight into the inboxes (AP-model arrival
/// visibility, like the engine's store application), decoding each payload
/// here, on the link reader, out of the link's receive buffer.
struct InboxHandler<M> {
    shared: Arc<Shared<M>>,
    pm: Arc<PartitionMap>,
    num_vertices: usize,
    /// `sg_worker_rejected_messages_total`.
    rejected: CounterHandle,
}

impl<M: WireCodec> PeerHandler for InboxHandler<M> {
    fn on_batch(&self, _from: u32, batch: BatchView<'_>) {
        let (shared, me) = (&*self.shared, WorkerId::new(self.shared.rank));
        let mut slots = Vec::with_capacity(batch.len());
        let mut routed = Vec::with_capacity(batch.len());
        for (to, from, payload) in batch.iter() {
            // Peer input may name any id: take this rank's vertices only.
            let to = VertexId::new(to);
            let slot = (to.index() < self.num_vertices).then(|| self.pm.slot_of(to));
            let mine = slot.filter(|&(p, _)| self.pm.worker_of_partition(p) == me);
            if let (Some(slot), Some(msg)) = (mine, M::decode(payload)) {
                slots.push(slot);
                routed.push((to, VertexId::new(from), msg));
            }
        }
        let rejected = (batch.len() - routed.len()) as u64;
        if rejected > 0 {
            self.rejected.add(rejected);
        }
        let combiner = shared.combiner.as_deref();
        shared.inboxes.deliver_batch(me, &slots, &routed, combiner);
    }
}

/// Frames the dispatcher forwards to the compute thread.
enum Cmd {
    Start(u64),
    Report(u64),
    Granted(u32),
    Halt,
    Disconnected,
}

fn run_worker<P>(
    program: P,
    combiner: Option<Box<dyn Combiner<P::Message>>>,
    joined: Joined,
) -> Result<(), NetError>
where
    P: VertexProgram,
    P::Value: WireCodec,
    P::Message: WireCodec,
{
    let Joined {
        rank,
        mut spec,
        peers,
        listener,
        ctrl,
        reader,
    } = joined;
    let clock = Arc::clone(ctrl.clock());
    let technique = TechniqueKind::from_label(&spec.technique)
        .ok_or_else(|| NetError::Protocol(format!("unknown technique `{}`", spec.technique)))?;
    let (offsets, targets) = (
        std::mem::take(&mut spec.offsets),
        std::mem::take(&mut spec.targets),
    );
    let graph = Graph::from_sorted_csr(spec.num_vertices, offsets, targets)
        .map_err(|e| NetError::Protocol(format!("Setup graph: {e}")))?;
    let (layout, assignment) = checked_layout(&spec, rank)?;
    // The mesh indexes its links by rank: each of 0..workers exactly once.
    let mut ranks: Vec<u32> = peers.iter().map(|&(peer, _)| peer).collect();
    ranks.sort_unstable();
    if !ranks.iter().copied().eq(0..spec.workers) {
        let want = spec.workers;
        let why = format!("PeerMap: ranks {ranks:?}, want each of 0..{want} once");
        return Err(NetError::Protocol(why));
    }
    let pm = Arc::new(PartitionMap::from_assignment(&graph, layout, assignment));
    let metrics = Arc::new(Metrics::new());
    // Per-worker live-telemetry registry, attached before the technique
    // replica is built (techniques grab their handles at construction).
    let telemetry = Arc::new(Telemetry::new());
    metrics.attach_telemetry(Arc::clone(&telemetry));
    // Stateless replica: token holders are pure functions of the
    // superstep, so gating/granularity/skip queries answer locally; lock
    // acquisition state lives only at the coordinator.
    let replica = build_synchronizer(technique, &graph, &pm, Arc::clone(&metrics));
    let n = graph.num_vertices() as usize;
    let trace = if spec.trace_capacity > 0 {
        Trace::enabled(spec.workers as usize, spec.trace_capacity as usize)
    } else {
        Trace::disabled()
    };

    // The serving-plane store, bootstrapped below from the vertex state of
    // the partitions this rank owns.
    let vstore = Arc::new(VertexStore::new(n));
    let mut owned: Vec<u32> = Vec::new();
    for p in pm.layout().partitions_of_worker(WorkerId::new(rank)) {
        owned.extend(pm.vertices_in(p).iter().map(|v| v.raw()));
    }
    owned.sort_unstable();

    let workers = spec.workers as usize;
    let shared = Arc::new(Shared {
        rank,
        ctrl: Arc::clone(&ctrl),
        clock: Arc::clone(&clock),
        staging: Mutex::new((StagingBuffers::new(workers, false), vec![false; workers])),
        inboxes: InboxPair::new(&pm, Model::Async, None, Some(WorkerId::new(rank))),
        combiner,
        metrics: Arc::clone(&metrics),
        trace,
        epoch_ns: spec.epoch_ns,
        superstep: AtomicU64::new(0),
        fence_seq: AtomicU64::new(0),
        buffer_cap: spec.buffer_cap.max(1) as usize,
        wtel: WorkerTelemetry::new(Arc::clone(&telemetry)),
        log: spec.record_history.then(|| AuditShip {
            buf: Mutex::new(Vec::new()),
            inflight: AtomicU64::new(u64::MAX),
        }),
        serve: Serve {
            vstore,
            owned,
            snaps: Mutex::new(HashMap::new()),
        },
    });

    // The mesh: one resilient link per peer; one fault injector shared by
    // all of them so the fault plan's frame indices count every
    // data-plane frame this worker sends, in order.
    let fault = Arc::new(FaultInjector::new(spec.fault.clone()));
    let handler: Arc<dyn PeerHandler> = Arc::new(InboxHandler {
        shared: Arc::clone(&shared),
        pm: Arc::clone(&pm),
        num_vertices: n,
        rejected: telemetry.counter("sg_worker_rejected_messages_total", &[]),
    });
    let mut link_vec: Vec<Option<PeerLink>> = vec![None; workers];
    for &(peer, ref addr) in &peers {
        if peer == rank {
            continue;
        }
        let link = PeerLink::new(
            rank,
            peer,
            addr.clone(),
            Arc::clone(&clock),
            Arc::clone(&fault),
            Arc::clone(&handler),
            Some(&telemetry),
        );
        // Known steady demand per fence: the staged outbound batch (caps
        // at `buffer_cap` entries of modest payloads), the fence ping,
        // and control acks racing them. Priming here means even the
        // first superstep's sends come off the free list.
        link.prime_pool(8, 21 + shared.buffer_cap * 64);
        link_vec[peer as usize] = Some(link);
    }
    let links: Arc<Vec<Option<PeerLink>>> = Arc::new(link_vec);
    let shutdown = Arc::new(AtomicBool::new(false));

    // Accept thread: adopts initial and replacement connections, blocked in
    // `accept` until one arrives. Teardown wakes it with a connection of
    // its own once `shutdown` is set.
    let data_addr = listener.local_addr()?;
    let accept_handle = {
        let links = Arc::clone(&links);
        let clock = Arc::clone(&clock);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name(format!("sg-net-accept-{rank}"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let handshake = accept_handshake(&stream, &clock, rank, |peer| {
                        links
                            .get(peer as usize)
                            .and_then(|l| l.as_ref())
                            .map_or(1, |l| l.recv_next())
                    });
                    if let Ok((peer, resume)) = handshake {
                        if let Some(Some(link)) = links.get(peer as usize) {
                            let _ = link.accept(stream, resume);
                        }
                    }
                }
            })
            .expect("spawn accept thread")
    };

    // Dial the peers this rank is responsible for (lower rank dials).
    for link in links.iter().flatten() {
        if link.is_dialer() {
            let _ = link.dial(); // maintenance retries failures
        }
    }

    // The vertex state of the partitions this rank owns, at init values,
    // seeds the store before the dispatcher starts, so a pre-superstep-0
    // query already answers. It is built once the mesh is up: allocated
    // before it, these vectors land where they raise the process's peak
    // RSS (by 2.5 MiB on `pagerank-plock-net`, through heap placement).
    let parts: Vec<_> = (pm.layout().partitions_of_worker(WorkerId::new(rank)))
        .map(|p| PartitionData::init(&program, &graph, &pm, p))
        .collect();
    let vstore = &shared.serve.vstore;
    for d in &parts {
        for (v, value) in d.vertices.iter().zip(&d.values) {
            vstore.install_bootstrap(v.index(), value.to_word());
        }
    }

    // Maintenance thread: heartbeats + redial with backoff, plus the
    // periodic telemetry frames when the coordinator asked for them. It
    // waits out each tick on `stop`, which teardown drops, so it ends at
    // once rather than at its next tick.
    let (stop, stopped) = mpsc::channel::<()>();
    let maintenance_handle = {
        let links = Arc::clone(&links);
        let shared = Arc::clone(&shared);
        let interval_ms = spec.telemetry_interval_ms;
        let audit_ms = spec.audit_interval_ms;
        std::thread::Builder::new()
            .name(format!("sg-net-maint-{rank}"))
            .spawn(move || {
                let mut last_upload = std::time::Instant::now();
                let mut last_audit = std::time::Instant::now();
                // Audit batches ride the maintenance loop too, so the
                // effective cadence is max(audit_ms, the loop's tick).
                let tick = if audit_ms > 0 {
                    Duration::from_millis(audit_ms.min(100))
                } else {
                    Duration::from_millis(100)
                };
                loop {
                    for link in links.iter().flatten() {
                        link.maintain();
                    }
                    if interval_ms > 0 && last_upload.elapsed().as_millis() as u64 >= interval_ms {
                        last_upload = std::time::Instant::now();
                        shared.send_telemetry();
                    }
                    if audit_ms > 0 && last_audit.elapsed().as_millis() as u64 >= audit_ms {
                        last_audit = std::time::Instant::now();
                        shared.ship_audit();
                    }
                    // Serving-plane GC: reclaim versions below the oldest
                    // pinned snapshot, off the compute path.
                    shared.serve.vstore.gc();
                    shared.wtel.store.set(&shared.serve.vstore);
                    if let Ok(()) | Err(RecvTimeoutError::Disconnected) = stopped.recv_timeout(tick)
                    {
                        break;
                    }
                }
            })
            .expect("spawn maintenance thread")
    };

    // Dispatcher thread: owns the control-plane reader.
    let (tx, rx) = mpsc::channel::<Cmd>();
    let dispatcher_handle = {
        let shared = Arc::clone(&shared);
        let links = Arc::clone(&links);
        std::thread::Builder::new()
            .name(format!("sg-net-dispatch-{rank}"))
            .spawn(move || dispatcher(shared, links, reader, tx))
            .expect("spawn dispatcher thread")
    };

    // The wire-routed programs use no aggregators; the coordinator keeps
    // the history, from the Lamport stamps `close` records.
    let no_aggregators = AggregatorSet::new();
    let mut cycle = Cycle::new(Env {
        program: &program,
        graph: &graph,
        pm: &pm,
        sync: &*replica,
        inboxes: &shared.inboxes,
        combiner: shared.combiner.as_deref(),
        aggregators: &no_aggregators,
        trace: &shared.trace,
        recorder: None,
        metrics: &metrics,
    });
    let result = Compute {
        host: RankHost {
            shared: &shared,
            links: &links,
            rx: &rx,
            pm: &pm,
            per_vertex: replica.granularity() == LockGranularity::Vertex,
            superstep: 0,
            mark: 0,
            failed: None,
            opened: 0,
            staged: None,
        },
        parts,
    }
    .run(&mut cycle);

    shutdown.store(true, Ordering::SeqCst);
    drop(stop);
    for link in links.iter().flatten() {
        link.shutdown();
    }
    ctrl.close();
    let _ = dispatcher_handle.join();
    // A listener this process can no longer reach leaves its thread behind
    // rather than hanging the rank.
    if TcpStream::connect(data_addr).is_ok() {
        let _ = accept_handle.join();
    }
    let _ = maintenance_handle.join();
    result
}

/// The cluster shape and vertex assignment a `Setup` names, checked before
/// anything is built from them: the coordinator is outside this process,
/// and `ClusterLayout::new` and `PartitionMap::from_assignment` assert
/// what is checked here.
fn checked_layout(
    spec: &RunSpec,
    rank: u32,
) -> Result<(ClusterLayout, Vec<PartitionId>), NetError> {
    let malformed = |what: String| Err(NetError::Protocol(format!("Setup {what}")));
    let (workers, ppw) = (spec.workers, spec.partitions_per_worker);
    let Some(partitions) = workers.checked_mul(ppw).filter(|&np| np > 0) else {
        return malformed(format!("layout: {workers} workers x {ppw} partitions"));
    };
    if let Err(why) = crate::check_workers(workers) {
        return malformed(format!("layout: {why}"));
    }
    if rank >= workers {
        return malformed(format!("layout: {workers} workers, this is rank {rank}"));
    }
    if spec.assignment.len() != spec.num_vertices as usize {
        let (have, want) = (spec.assignment.len(), spec.num_vertices);
        return malformed(format!("assignment: {have} entries for {want} vertices"));
    }
    if let Some(v) = spec.assignment.iter().position(|&p| p >= partitions) {
        let p = spec.assignment[v];
        return malformed(format!(
            "assignment: vertex {v} in partition {p} of {partitions}"
        ));
    }
    let assignment = spec.assignment.iter().map(|&p| PartitionId::new(p));
    Ok((ClusterLayout::new(workers, ppw), assignment.collect()))
}

/// Control-plane reader loop. `FlushForks` and `QueryRequest` are
/// serviced here — while the compute thread is mid-superstep or blocked
/// inside an acquire — everything else forwards to the compute thread.
fn dispatcher<M: WireCodec>(
    shared: Arc<Shared<M>>,
    links: Arc<Vec<Option<PeerLink>>>,
    mut reader: FrameReader,
    tx: mpsc::Sender<Cmd>,
) {
    loop {
        let msg = match reader.recv() {
            Ok(Some(msg)) => msg,
            Ok(None) | Err(_) => {
                let _ = tx.send(Cmd::Disconnected);
                return;
            }
        };
        let cmd = match msg {
            Message::StartSuperstep { superstep } => {
                shared.superstep.store(superstep, Ordering::SeqCst);
                shared.wtel.superstep.set(superstep);
                Some(Cmd::Start(superstep))
            }
            Message::ReportRequest { superstep } => Some(Cmd::Report(superstep)),
            Message::UnitGranted { unit } => Some(Cmd::Granted(unit)),
            Message::Halt => Some(Cmd::Halt),
            Message::FlushForks {
                target,
                unit,
                token,
                flush_seq,
            } => {
                handle_flush(&shared, &links, target, unit, token, flush_seq);
                None
            }
            Message::QueryRequest {
                id,
                op,
                a,
                vertices,
            } => {
                // Serviced inline like FlushForks: queries must answer
                // while the compute thread is mid-superstep — that is the
                // entire point of the serving plane.
                answer_query(&shared, id, op, a, &vertices);
                None
            }
            _ => None,
        };
        if let Some(cmd) = cmd {
            if tx.send(cmd).is_err() {
                return;
            }
        }
    }
}

/// Answer one serving-plane query against this worker's MVCC store and
/// send the `QueryResponse` on the control link. Lookups and snapshot
/// reads resolve the requested vertices (`u64::MAX` = no committed
/// version here — e.g. a vertex another rank owns); checksums fold
/// [`checksum_word`] over this rank's owned vertices only, so the
/// coordinator combines disjoint domains with a wrapping sum. A vertex the
/// graph does not have is refused (`ok: 0`) like an unknown op.
fn answer_query<M>(shared: &Shared<M>, id: u64, op: u8, a: u64, vertices: &[u32]) {
    let serve = &shared.serve;
    let count = serve.owned.len() as u64;
    let refused = Message::QueryResponse {
        id,
        ok: 0,
        values: Vec::new(),
        checksum: 0,
        count,
    };
    let in_graph = vertices.iter().all(|&v| (v as usize) < serve.vstore.len());
    let resp = match op {
        _ if !in_graph => refused,
        QUERY_OP_MULTI_LOOKUP => Message::QueryResponse {
            id,
            ok: 1,
            values: vertices
                .iter()
                .map(|&v| serve.vstore.read_latest(v as usize).unwrap_or(u64::MAX))
                .collect(),
            checksum: 0,
            count,
        },
        QUERY_OP_SNAP_OPEN => {
            let snap = serve.vstore.open_snapshot();
            serve.snaps.lock().unwrap().insert(a, snap);
            Message::QueryResponse {
                id,
                ok: 1,
                values: Vec::new(),
                checksum: snap.read_ts,
                count,
            }
        }
        QUERY_OP_SNAP_READ | QUERY_OP_SNAP_CHECKSUM => {
            let snap = serve.snaps.lock().unwrap().get(&a).copied();
            match snap {
                Some(snap) if op == QUERY_OP_SNAP_READ => Message::QueryResponse {
                    id,
                    ok: 1,
                    values: vertices
                        .iter()
                        .map(|&v| serve.vstore.read_at(v as usize, &snap).unwrap_or(u64::MAX))
                        .collect(),
                    checksum: snap.read_ts,
                    count,
                },
                Some(snap) => {
                    let sum = serve.owned.iter().fold(0u64, |acc, &v| {
                        match serve.vstore.read_at(v as usize, &snap) {
                            Some(w) => acc.wrapping_add(checksum_word(v, w)),
                            None => acc,
                        }
                    });
                    Message::QueryResponse {
                        id,
                        ok: 1,
                        values: Vec::new(),
                        checksum: sum,
                        count,
                    }
                }
                None => refused,
            }
        }
        QUERY_OP_SNAP_CLOSE => {
            let snap = serve.snaps.lock().unwrap().remove(&a);
            if let Some(snap) = snap {
                serve.vstore.release_snapshot(snap);
            }
            Message::QueryResponse {
                id,
                ok: 1,
                values: Vec::new(),
                checksum: 0,
                count,
            }
        }
        _ => refused,
    };
    let _ = shared.ctrl.send(&resp);
}

/// The C1 write-all, serviced on the dispatcher thread: ship what is
/// staged for `target`, fence until applied, then report `FlushDone` so the
/// coordinator's `transfer` returns and the fork/token moves.
fn handle_flush<M: WireCodec>(
    shared: &Shared<M>,
    links: &[Option<PeerLink>],
    target: u32,
    unit: u64,
    token: bool,
    flush_seq: u64,
) {
    let t0 = wall_ns(shared.epoch_ns);
    let Some(Some(link)) = links.get(target as usize) else {
        return;
    };
    // The staging guard drops with the statement, before the fence.
    ship(shared, links, &mut shared.staged(), target as usize);
    let fence = shared.next_fence();
    match link.flush_fence(fence, FENCE_TIMEOUT) {
        Ok(()) => {
            let s = shared.superstep.load(Ordering::SeqCst);
            let dur = wall_ns(shared.epoch_ns).saturating_sub(t0);
            let kind = if token {
                TraceEventKind::RingPass
            } else {
                TraceEventKind::ForkTransfer
            };
            shared
                .trace
                .record_peer(shared.rank, s, kind, t0, dur, unit, target);
            let _ = shared.ctrl.send(&Message::FlushDone { flush_seq });
        }
        Err(e) => {
            // Withhold FlushDone: the coordinator's flush wait times out
            // and fails the run with a diagnostic naming both ends.
            eprintln!(
                "sg-net worker {}: write-all to {} failed: {e}",
                shared.rank, target
            );
        }
    }
}

/// The compute thread's state: the vertex state of the partitions this
/// rank owns, and the networked [`Host`] it runs them with.
struct Compute<'a, P: VertexProgram> {
    host: RankHost<'a, P::Message>,
    /// The partitions this rank owns, ascending.
    parts: Vec<PartitionData<P::Value>>,
}

/// The networked [`Host`]: the cluster handles the compute thread does IO
/// through — the coordinator's lock grants, the serving plane a value is
/// published to, the links a remote message ships on — and its record of
/// the open transaction and of the compute time not yet counted.
struct RankHost<'a, M> {
    shared: &'a Shared<M>,
    links: &'a [Option<PeerLink>],
    rx: &'a mpsc::Receiver<Cmd>,
    pm: &'a PartitionMap,
    /// Vertex-grain technique: a unit is a vertex, and only p-boundary
    /// vertices are philosophers.
    per_vertex: bool,
    /// The superstep being walked.
    superstep: u64,
    /// When the compute time not yet added to `sg_worker_compute_ns_total`
    /// began, on [`wall_ns`].
    mark: u64,
    /// A lock RPC's failure: it paused the walk and ends the superstep.
    failed: Option<NetError>,
    /// Lamport stamp the open transaction started at.
    opened: u64,
    /// The staging lock, held from a vertex's first remote send to its
    /// close: taken once per execution, not once per message, and never
    /// across a lock RPC.
    staged: Option<MutexGuard<'a, Staged<M>>>,
}

impl<P> Compute<'_, P>
where
    P: VertexProgram,
    P::Value: WireCodec,
    P::Message: WireCodec,
{
    fn run(mut self, cycle: &mut Cycle<'_, P>) -> Result<(), NetError> {
        let shared = self.host.shared;
        loop {
            match self.host.rx.recv() {
                Ok(Cmd::Start(s)) => {
                    self.run_superstep(cycle, s)?;
                    flush_all(shared, self.host.links)?;
                    shared.ctrl.send(&Message::ComputeDone { superstep: s })?;
                }
                Ok(Cmd::Report(s)) => {
                    let active = self.barrier_vote();
                    shared.ctrl.send(&Message::BarrierVote {
                        superstep: s,
                        active,
                    })?;
                }
                Ok(Cmd::Halt) => return self.upload(),
                Ok(Cmd::Granted(unit)) => {
                    return Err(NetError::Protocol(format!(
                        "unsolicited UnitGranted({unit}) outside an acquire"
                    )));
                }
                Ok(Cmd::Disconnected) | Err(_) => {
                    return Err(NetError::Protocol("coordinator connection lost".into()));
                }
            }
        }
    }

    /// Quiescent-state vote: a vertex is active if it has undelivered input
    /// or has not voted to halt. Beside it the progress gauges are set,
    /// `sg_worker_pending_messages` to the envelopes queued — the stores'
    /// `total()`, after combining.
    fn barrier_vote(&self) -> u64 {
        let shared = self.host.shared;
        let mut active = 0u64;
        let mut pending = 0u64;
        for d in &self.parts {
            let store = &shared.inboxes.current()[d.partition().index()];
            pending += store.total() as u64;
            active += d.awake_count(store) as u64;
        }
        shared.wtel.active.set(active);
        shared.wtel.pending.set(pending);
        let staged = shared.staged().0.total_staged();
        shared.wtel.staged.set(staged as u64);
        shared.wtel.uptime_ns.set(wall_ns(shared.epoch_ns));
        active
    }

    /// Result uploads, chunked to stay far under the frame cap, terminated
    /// by the goodbye marker. Every chunk is moved into its frame: nothing
    /// the run produced is copied on the way out.
    fn upload(self) -> Result<(), NetError> {
        let shared = self.host.shared;
        let owned = (self.parts.iter()).flat_map(|d| d.vertices.iter().zip(&d.values));
        // `ValuesUpload` owns each value's bytes, so each is encoded into
        // its own buffer once and never again.
        let pairs = owned.map(|(v, value)| {
            let mut payload = Vec::new();
            value.encode_into(&mut payload);
            (v.raw(), payload)
        });
        upload_chunks(shared, pairs, |values, _| Message::ValuesUpload { values })?;
        // The log's drain: compute is quiescent, so everything staged ships,
        // and the last chunk's watermark closes the rank's stream — the
        // coordinator's frontier stops waiting on it even before the goodbye
        // lands. The lock is held throughout, so no periodic ship slips a
        // watermark in between; every earlier chunk promises nothing (0).
        if let Some(log) = &shared.log {
            let mut buf = log.buf.lock().unwrap();
            upload_chunks(shared, buf.drain(..), |txns, last| {
                let watermark = if last { u64::MAX } else { 0 };
                Message::AuditUpload { txns, watermark }
            })?;
        }
        let snapshot = shared.metrics.snapshot();
        shared.ctrl.send(&Message::MetricsUpload {
            counters: Counter::ALL.iter().map(|&c| snapshot.get(c)).collect(),
        })?;
        // Final telemetry frame: the coordinator's post-run aggregate (and the
        // BENCH_net.json snapshot) must include everything up to halt.
        shared.send_telemetry();
        if let Some(buffer) = shared.trace.buffer() {
            let events = buffer.events(shared.rank as usize).into_iter();
            let events = events.map(|e| WireTraceEvent {
                worker: e.worker,
                superstep: e.superstep,
                kind: e.kind as u8,
                ts_ns: e.ts_ns,
                dur_ns: e.dur_ns,
                arg: e.arg,
                peer: e.peer.unwrap_or(u32::MAX),
            });
            upload_chunks(shared, events, |events, _| Message::TraceUpload { events })?;
        }
        shared.ctrl.send(&Message::ComputeDone {
            superstep: GOODBYE_SUPERSTEP,
        })?;
        Ok(())
    }

    /// Walk each owned partition in superstep `s`. A lock RPC that fails
    /// pauses the walk, and its error ends the superstep.
    /// `sg_worker_compute_ns_total` grows by each walk's wall time less its
    /// lock waits, added at each lock RPC and at the walk's end.
    fn run_superstep(&mut self, cycle: &mut Cycle<'_, P>, s: u64) -> Result<(), NetError> {
        let host = &mut self.host;
        let shared = host.shared;
        host.superstep = s;
        for data in &mut self.parts {
            let mut walk = cycle.walk(data);
            host.mark = wall_ns(shared.epoch_ns);
            let flow = cycle.run_partition(host, &mut walk, data, s, shared.rank);
            if let Some(e) = host.failed.take() {
                return Err(e);
            }
            debug_assert!(flow.is_continue(), "paused by no failed RPC");
            let walked = wall_ns(shared.epoch_ns).saturating_sub(host.mark);
            shared.wtel.compute_ns.add(walked);
        }
        Ok(())
    }
}

impl<M> RankHost<'_, M> {
    /// Only p-boundary vertices are philosophers; the technique's acquire
    /// is a no-op for the rest (free in-process), so their round trip to
    /// the coordinator's fork table is skipped.
    fn needs_rpc(&self, unit: u32) -> bool {
        !self.per_vertex || self.pm.is_p_boundary(VertexId::new(unit))
    }

    /// Blocking lock RPC: request the unit, wait for the grant. The
    /// compute time up to the request is counted; the wait is lock wait.
    fn acquire_unit_rpc(&mut self, unit: u32) -> Result<(), NetError> {
        debug_assert!(self.staged.is_none(), "staging lock held across a lock RPC");
        let shared = self.shared;
        let t0 = wall_ns(shared.epoch_ns);
        shared.ctrl.send(&Message::AcquireUnit { unit })?;
        match self.rx.recv() {
            Ok(Cmd::Granted(u)) if u == unit => {}
            Ok(Cmd::Granted(u)) => {
                return Err(NetError::Protocol(format!(
                    "grant for unit {u} while waiting on {unit}"
                )))
            }
            Ok(Cmd::Disconnected) | Err(_) => {
                return Err(NetError::Protocol(
                    "coordinator connection lost during acquire".into(),
                ))
            }
            Ok(_) => {
                return Err(NetError::Protocol(
                    "barrier frame while waiting on a grant".into(),
                ))
            }
        }
        let dur = wall_ns(shared.epoch_ns).saturating_sub(t0);
        shared.wtel.lock_wait_ns.add(dur);
        shared.wtel.compute_ns.add(t0.saturating_sub(self.mark));
        self.mark = t0 + dur;
        let kind = TraceEventKind::LockWait;
        (shared.trace).record(shared.rank, self.superstep, kind, t0, dur, unit.into());
        Ok(())
    }

    /// Go on, or keep `done`'s error for the superstep to end with and
    /// pause the walk.
    fn flow(&mut self, done: Result<(), NetError>) -> ControlFlow<()> {
        let Err(e) = done else {
            return ControlFlow::Continue(());
        };
        self.failed = Some(e);
        ControlFlow::Break(())
    }
}

impl<P> Host<P> for RankHost<'_, P::Message>
where
    P: VertexProgram,
    P::Value: WireCodec,
    P::Message: WireCodec,
{
    fn acquire(&mut self, unit: u32) -> ControlFlow<()> {
        let done = self.needs_rpc(unit).then(|| self.acquire_unit_rpc(unit));
        self.flow(done.unwrap_or(Ok(())))
    }

    fn release(&mut self, unit: u32) -> ControlFlow<()> {
        let ctrl = &self.shared.ctrl;
        let done = self
            .needs_rpc(unit)
            .then(|| ctrl.send(&Message::ReleaseUnit { unit }));
        self.flow(done.unwrap_or(Ok(())).map_err(NetError::from))
    }

    /// Untraced, an execution reads no clock; traced, it is timed for its
    /// `VertexExecute` span.
    fn execute(&mut self, run: impl FnOnce(&mut Self, u64) -> Executed) -> ControlFlow<()> {
        let shared = self.shared;
        if shared.trace.is_enabled() {
            let t0 = wall_ns(shared.epoch_ns);
            let ran = run(self, t0);
            let dur = wall_ns(shared.epoch_ns).saturating_sub(t0);
            let kind = TraceEventKind::VertexExecute;
            (shared.trace).record(shared.rank, self.superstep, kind, t0, dur, ran.consumed);
        } else {
            run(self, 0);
        }
        ControlFlow::Continue(())
    }

    /// Messages just drained arrived on link readers that joined the
    /// sender's clock first, so this tick orders after every sender write.
    fn open(&mut self, _v: VertexId) {
        if let Some(log) = &self.shared.log {
            log.inflight
                .store(self.shared.clock.now(), Ordering::SeqCst);
        }
        self.opened = self.shared.clock.tick();
    }

    /// Publish the execution's result to the serving plane: one MVCC
    /// transaction, committed here, so a serving snapshot's visible set is
    /// always a prefix of this worker's committed executions.
    fn publish(&mut self, data: &PartitionData<P::Value>, local: usize) {
        let (vstore, v) = (&self.shared.serve.vstore, data.vertices[local]);
        let txn = vstore.begin();
        vstore.install(v.index(), data.values[local].to_word(), txn.xid);
        vstore.commit(txn);
    }

    /// Append under the staging lock the vertex's first remote send took;
    /// nothing folds here, the peer's inbox combines. A run that reaches
    /// the cap ships at once, and its peer is owed a fence at the next
    /// write-all.
    fn send_remote(&mut self, to_worker: u32, from: VertexId, to: VertexId, msg: P::Message) {
        let (shared, w) = (self.shared, to_worker as usize);
        let staged = self.staged.get_or_insert_with(|| shared.staged());
        let (_, n) = staged.0.stage(w, (to, from, msg), None);
        if n >= shared.buffer_cap {
            let owed = ship(shared, self.links, staged, w);
            staged.1[w] = owed;
        }
    }

    /// Release the staging lock — a `FlushForks` write-all waiting on it
    /// now finds the whole execution's messages staged — and log the
    /// transaction.
    fn close(&mut self, v: VertexId) {
        self.staged = None;
        let (shared, start) = (self.shared, self.opened);
        let end = shared.clock.tick();
        if let Some(log) = &shared.log {
            // Stage before clearing inflight: a watermark computed in
            // between still sees either the open interval or the staged
            // record, never neither.
            log.buf.lock().unwrap().push(WireTxn {
                vertex: v.raw(),
                start: stamp(start, shared.rank),
                end: stamp(end, shared.rank),
                stale: Vec::new(),
            });
            log.inflight.store(u64::MAX, Ordering::SeqCst);
        }
    }
}

/// Send `items` to the coordinator in frames of at most [`UPLOAD_CHUNK`],
/// each chunk collected straight into the frame that carries it; `frame`
/// is told whether its chunk is the last. At least one frame goes, empty
/// when `items` is.
fn upload_chunks<M, T>(
    shared: &Shared<M>,
    items: impl Iterator<Item = T>,
    frame: impl Fn(Vec<T>, bool) -> Message,
) -> Result<(), NetError> {
    let mut items = items.peekable();
    loop {
        let chunk: Vec<T> = items.by_ref().take(UPLOAD_CHUNK).collect();
        let last = items.peek().is_none();
        shared.ctrl.send(&frame(chunk, last))?;
        if last {
            return Ok(());
        }
    }
}

/// End-of-superstep write-all: every peer that received traffic since its
/// last fence gets the residual batch plus a fence, so `ComputeDone`
/// means "all my messages are applied" — the invariant both the barrier
/// votes and the BSP-style message visibility rely on.
fn flush_all<M: WireCodec>(shared: &Shared<M>, links: &[Option<PeerLink>]) -> Result<(), NetError> {
    for (peer, link) in links.iter().enumerate() {
        let Some(link) = link else { continue };
        // The staging guard drops with the statement, before the fence.
        if ship(shared, links, &mut shared.staged(), peer) {
            link.flush_fence(shared.next_fence(), FENCE_TIMEOUT)?;
        }
    }
    Ok(())
}

/// Ship what is staged for `peer`, under the staging lock the caller
/// holds: take the run, clear the peer's fence bit, and enqueue one
/// `BatchFlush` on the link, each surviving entry encoded straight into
/// the link's pooled frame buffer ([`PeerLink::send_batch`]). Returns
/// whether the peer is owed a fence: a batch went now, or one went since
/// its last fence.
///
/// Take, clear and enqueue are one critical section, and that is C1: a
/// `FlushForks` write-all on the dispatcher waits for the lock, so its
/// fence is sequenced on the link after every batch taken before it, and
/// the bit it clears never stands for a batch still unsent.
fn ship<M: WireCodec>(
    shared: &Shared<M>,
    links: &[Option<PeerLink>],
    (staging, sent): &mut Staged<M>,
    peer: usize,
) -> bool {
    let run = staging.take_run(peer);
    let owed = std::mem::take(&mut sent[peer]) || !run.is_empty();
    let (Some(Some(link)), false) = (links.get(peer), run.is_empty()) else {
        run.clear();
        return owed;
    };
    shared.metrics.inc(Counter::RemoteBatches);
    if shared.trace.is_enabled() {
        shared.trace.record_peer(
            shared.rank,
            shared.superstep.load(Ordering::Relaxed),
            TraceEventKind::BatchFlush,
            wall_ns(shared.epoch_ns),
            0,
            run.len() as u64,
            peer as u32,
        );
    }
    link.send_batch(run.len(), |frame| {
        for (to, from, msg) in run.drain(..) {
            frame.push(to.raw(), from.raw(), |buf| msg.encode_into(buf));
        }
    });
    owed
}
