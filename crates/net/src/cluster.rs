//! The coordinator: cluster configuration, process/thread launch, the
//! superstep driver, and the [`SyncTransport`] that carries the
//! synchronization techniques over TCP.
//!
//! The coordinator hosts the *unmodified* [`Synchronizer`] — the same
//! token rings and Chandy-Misra fork tables the in-process engine builds
//! — and drives it from worker RPCs: `AcquireUnit`/`ReleaseUnit` frames
//! feed a per-worker executor thread that blocks inside
//! `Synchronizer::acquire_unit` exactly like an engine thread would, and
//! the technique's `transfer` calls become real network traffic: a
//! `FlushForks` request to the surrendering worker, a batched write-all
//! over the mesh and an application receipt, and only then does the fork
//! or token move. A `request` sends nothing: the fork table it updates is
//! here, and request tokens guard no data.
//!
//! Transactions arrive once, as `AuditUpload` frames: the coordinator
//! merges them into the post-hoc [`History`] and, with the audit plane on,
//! hands the same frames to the [`AuditHub`].

use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sg_engine::{build_synchronizer, EngineConfig, TechniqueKind};
use sg_graph::{Graph, PartitionId, PartitionMap, VertexId, WorkerId};
use sg_metrics::{
    merge_ranked_events, Counter, Json, Metrics, MetricsSnapshot, TraceEvent, TraceEventKind,
};
use sg_serial::{History, HistorySummary, TxnRecord};
use sg_sync::{SyncTransport, Synchronizer};

use crate::audit::{AuditConfig, AuditHub};
use crate::link::{CtrlConn, FrameReader};
use crate::telemetry::{QueryService, TelemetryHub, TelemetryServer};
use crate::wire::{
    check_version, read_frame, FaultPlan, Message, RunSpec, WireMetricRow, WireTraceEvent, WireTxn,
    QUERY_OP_MULTI_LOOKUP, QUERY_OP_SNAP_CHECKSUM, QUERY_OP_SNAP_CLOSE, QUERY_OP_SNAP_OPEN,
    QUERY_OP_SNAP_READ,
};
use crate::{Clock, NetError};

/// `ComputeDone.superstep` sentinel a worker sends after its uploads: the
/// upload stream is complete and the control connection may close.
pub(crate) const GOODBYE_SUPERSTEP: u64 = u64::MAX;

const SETUP_TIMEOUT: Duration = Duration::from_secs(30);
const BARRIER_TIMEOUT: Duration = Duration::from_secs(120);
const UPLOAD_TIMEOUT: Duration = Duration::from_secs(60);
const FLUSH_TIMEOUT: Duration = Duration::from_secs(30);

/// The workload a cluster run executes (the program dispatch happens on
/// the workers; the coordinator only routes the name).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// Greedy graph coloring (the paper's running example).
    Coloring,
    /// Weakly connected components by min-label propagation.
    Wcc,
    /// Single-source shortest paths; the argument is the source vertex.
    Sssp(u32),
    /// Greedy maximal independent set (empty-payload messages).
    Mis,
    /// Delta PageRank; the argument is the forwarding threshold.
    Pagerank(f64),
}

impl Workload {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Coloring => "coloring",
            Workload::Wcc => "wcc",
            Workload::Sssp(_) => "sssp",
            Workload::Mis => "mis",
            Workload::Pagerank(_) => "pagerank",
        }
    }

    /// Wire argument (SSSP source, PageRank threshold bits; 0 otherwise).
    pub fn arg(self) -> u64 {
        match self {
            Workload::Sssp(s) => u64::from(s),
            Workload::Pagerank(t) => t.to_bits(),
            _ => 0,
        }
    }

    /// Inverse of [`Workload::name`]/[`Workload::arg`].
    pub fn parse(name: &str, arg: u64) -> Option<Workload> {
        match name {
            "coloring" => Some(Workload::Coloring),
            "wcc" => Some(Workload::Wcc),
            "sssp" => Some(Workload::Sssp(arg as u32)),
            "mis" => Some(Workload::Mis),
            "pagerank" => Some(Workload::Pagerank(f64::from_bits(arg))),
            _ => None,
        }
    }
}

/// How worker ranks are brought up.
#[derive(Clone, Debug)]
pub enum SpawnMode {
    /// Workers are threads of this process calling [`crate::worker_main`]
    /// — same wire protocol, same real loopback sockets, no fork/exec.
    /// The default; what the integration tests use.
    Threads,
    /// Workers are real OS processes: `exe args... --coord <addr> --rank
    /// <r>`. The `sg-cluster` binary points `exe` at itself.
    Processes {
        /// Binary to launch.
        exe: PathBuf,
        /// Arguments placed before `--coord`/`--rank` (e.g. a worker
        /// subcommand name).
        args: Vec<String>,
    },
}

/// Configuration for one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Worker count (one process/thread each). Must be 1..=255 — history
    /// stamps reserve one byte for the rank.
    pub workers: u32,
    /// Partitions per worker.
    pub partitions_per_worker: u32,
    /// Synchronization technique. `BspVertexLock` is not supported (its
    /// sub-superstep schedule is an engine-internal construct).
    pub technique: TechniqueKind,
    /// What to compute.
    pub workload: Workload,
    /// Superstep cap.
    pub max_supersteps: u64,
    /// Remote staging capacity before an eager batch flush.
    pub buffer_cap: u64,
    /// Seed for the default hash partitioner.
    pub partition_seed: u64,
    /// Explicit vertex -> partition assignment (overrides the seed).
    pub explicit_partitions: Option<Vec<u32>>,
    /// Record per-vertex transaction intervals and run the merged 1SR
    /// check at the coordinator.
    pub record_history: bool,
    /// Trace ring capacity per worker; 0 disables tracing.
    pub trace_capacity: u64,
    /// Coordinator listen address (`127.0.0.1:0` = loopback, any port).
    pub bind_addr: String,
    /// Threads or real processes.
    pub spawn: SpawnMode,
    /// Per-rank fault plans for the data plane.
    pub faults: Vec<(u32, FaultPlan)>,
    /// Serve the live telemetry plane over HTTP at this address
    /// (`127.0.0.1:0` = any port; the bound address is printed). `None`
    /// disables the listener — workers still upload a final snapshot.
    pub telemetry_addr: Option<String>,
    /// How often workers ship telemetry snapshot frames, in milliseconds.
    /// 0 = final snapshot only (the default when no listener is up).
    pub telemetry_interval_ms: u64,
    /// How often workers stream `AuditUpload` transaction batches to the
    /// coordinator's [`AuditHub`], in milliseconds. 0 disables the
    /// streaming audit plane (workers ship their transactions at halt and
    /// the post-hoc check still runs when `record_history` is on); nonzero
    /// requires `record_history`.
    pub audit_interval_ms: u64,
    /// JSONL file receiving audit violation sentinels and threshold
    /// alerts. Only consulted when the audit plane is on.
    pub audit_log: Option<String>,
    /// Automation hook: receives the telemetry listener's bound address
    /// (`host:port`) once it is up — lets a test or harness query a
    /// `:0`-bound listener without parsing stderr. `None` for normal runs.
    pub telemetry_addr_tx: Option<std::sync::mpsc::Sender<String>>,
}

impl ClusterConfig {
    /// A loopback thread-mode config. It shares the in-process engine's
    /// partition seed but not its other defaults: 2 partitions per worker,
    /// at most 200 supersteps (the engine allows 100,000), staged runs ship
    /// at 64 messages (the engine's at 512), and `record_history` is on
    /// (the engine's is off), so the coordinator checks the merged history.
    /// Tracing, live telemetry, the audit plane and fault injection are off.
    pub fn new(workers: u32, technique: TechniqueKind, workload: Workload) -> Self {
        Self {
            workers,
            partitions_per_worker: 2,
            technique,
            workload,
            max_supersteps: 200,
            buffer_cap: 64,
            partition_seed: 0xC0FFEE,
            explicit_partitions: None,
            record_history: true,
            trace_capacity: 0,
            bind_addr: "127.0.0.1:0".into(),
            spawn: SpawnMode::Threads,
            faults: Vec::new(),
            telemetry_addr: None,
            telemetry_interval_ms: 0,
            audit_interval_ms: 0,
            audit_log: None,
            telemetry_addr_tx: None,
        }
    }
}

/// Everything a finished cluster run reports.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Final vertex values as variable-length wire payloads
    /// ([`WireCodec`](sg_engine::WireCodec) encoding), indexed by vertex
    /// id.
    pub values: Vec<Vec<u8>>,
    /// Supersteps executed.
    pub supersteps: u64,
    /// Converged (vs. hitting the superstep cap)?
    pub converged: bool,
    /// Cluster-wide counter totals (workers' counters summed into the
    /// coordinator technique's).
    pub metrics: MetricsSnapshot,
    /// Merged transaction history, when `record_history` was on.
    pub history: Option<History>,
    /// Merged trace events (already in global worker-rank space), when
    /// `trace_capacity` was nonzero.
    pub trace_events: Vec<TraceEvent>,
    /// Coordinator wall-clock from first `StartSuperstep` to `Halt`.
    pub makespan_ns: u64,
    /// Final cluster-wide telemetry view: the coordinator's own registry
    /// merged with every worker's last uploaded snapshot, each row tagged
    /// with a `worker` label.
    pub telemetry: Option<sg_metrics::TelemetrySnapshot>,
    /// The streaming auditor's final verdict, when `audit_interval_ms`
    /// was nonzero. By construction equal to the post-hoc check over
    /// [`ClusterOutcome::history`].
    pub audit: Option<HistorySummary>,
}

impl ClusterOutcome {
    /// Decode the value vector into a program's value type.
    ///
    /// Panics if a payload does not decode as `V` — the workload routed
    /// to the cluster determines the encoding, so a mismatch here is a
    /// caller bug, not a runtime condition.
    pub fn typed_values<V: sg_engine::WireCodec>(&self) -> Vec<V> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                V::decode(payload).unwrap_or_else(|| {
                    panic!("vertex {i} payload does not decode as the requested value type")
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Coordinator state
// ---------------------------------------------------------------------------

/// Everything the per-worker reader threads and the superstep driver
/// share, under one mutex (the coordination rates are superstep-scale, so
/// one lock keeps the ordering trivially sound).
struct CoordState {
    compute_done: u32,
    votes: u32,
    active_total: u64,
    goodbyes: u32,
    values: Vec<Option<Vec<u8>>>,
    txns: Vec<WireTxn>,
    events: Vec<TraceEvent>,
    next_flush: u64,
    flush_done: HashSet<u64>,
    failed: Option<String>,
}

struct Coord {
    state: Mutex<CoordState>,
    cv: Condvar,
    conns: Vec<Arc<CtrlConn>>,
    metrics: Arc<Metrics>,
    hub: Arc<TelemetryHub>,
    audit: Option<Arc<AuditHub>>,
    query: QueryHub,
    halting: AtomicBool,
    num_vertices: u32,
}

impl Coord {
    fn fail(&self, why: String) {
        let mut st = self.state.lock().unwrap();
        if st.failed.is_none() {
            st.failed = Some(why);
        }
        self.cv.notify_all();
    }

    fn send(&self, rank: u32, msg: &Message) {
        if self.conns[rank as usize].send(msg).is_err() {
            self.fail(format!("control connection to worker {rank} is dead"));
        }
    }

    /// Wait until `pred` yields `Some(T)` or the run fails / times out.
    fn wait_for<T>(
        &self,
        what: &str,
        timeout: Duration,
        mut pred: impl FnMut(&mut CoordState) -> Option<T>,
    ) -> Result<T, NetError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(err) = &st.failed {
                return Err(NetError::Protocol(err.clone()));
            }
            if let Some(v) = pred(&mut st) {
                return Ok(v);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Protocol(format!("timed out waiting for {what}")));
            }
            st = self
                .cv
                .wait_timeout(st, (deadline - now).min(Duration::from_millis(200)))
                .unwrap()
                .0;
        }
    }
}

/// Lock acquire/release requests, executed in arrival order per worker.
/// The worker's reader thread holds the sending end; when it ends, so does
/// the executor.
enum ExecReq {
    Acquire(u32),
    Release(u32),
}

/// The socket-backed [`SyncTransport`]. Fork/token movement sends a
/// `FlushForks` request to the surrendering worker and blocks until that
/// worker reports the receiver applied everything — the C1 write-all
/// receipt, stretched over TCP.
struct CoordTransport {
    coord: Arc<Coord>,
}

impl SyncTransport for CoordTransport {
    fn transfer(&self, from: WorkerId, to: WorkerId, unit: Option<u32>) {
        let flush_seq = {
            let mut st = self.coord.state.lock().unwrap();
            st.next_flush += 1;
            st.next_flush
        };
        self.coord.send(
            from.raw(),
            &Message::FlushForks {
                target: to.raw(),
                unit: unit.map_or(0, u64::from),
                token: unit.is_none(),
                flush_seq,
            },
        );
        // A failed wait poisons the run via `fail`; the techniques' ()
        // return type means the driver loop surfaces the error instead.
        let result = self.coord.wait_for("flush receipt", FLUSH_TIMEOUT, |st| {
            st.flush_done.remove(&flush_seq).then_some(())
        });
        if result.is_err() {
            self.coord.fail(format!(
                "write-all flush {} -> {} never acknowledged",
                from.raw(),
                to.raw()
            ));
        }
    }

    /// Nothing crosses the wire. The request token lives in the fork table
    /// this coordinator hosts and guards no data. A conflict between ranks
    /// is ordered by the fork's own chain (`ReleaseUnit`, `FlushForks`, the
    /// write-all fence, `FlushDone`, `UnitGranted`), and the technique
    /// counts request tokens itself.
    fn request(&self, _from: WorkerId, _to: WorkerId) {}
}

// ---------------------------------------------------------------------------
// Serving plane: response correlation + the GET /query service
// ---------------------------------------------------------------------------

/// How long an HTTP serving thread waits for a worker's `QueryResponse`
/// before reporting the query failed.
const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Cap on the vertices one k-hop expansion resolves, so a high `k` on a
/// dense graph cannot turn a point query into a whole-graph scan.
const KHOP_LIMIT: usize = 100_000;

/// One worker's answer to a serving-plane request.
struct QueryReply {
    ok: bool,
    values: Vec<u64>,
    checksum: u64,
    count: u64,
}

/// Correlates `QueryResponse` frames — which arrive on the per-worker
/// reader threads — with the HTTP serving thread that issued the matching
/// `QueryRequest`s. Ids are allocated here, never reused, and a reply for
/// an id nobody registered (e.g. after a timeout) is dropped silently.
#[derive(Default)]
struct QueryHub {
    next_id: AtomicU64,
    pending: Mutex<HashMap<u64, Option<QueryReply>>>,
    cv: Condvar,
}

impl QueryHub {
    /// Allocate a request id and register interest in its response.
    fn begin(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        self.pending.lock().unwrap().insert(id, None);
        id
    }

    /// Deliver a worker's response to whoever is waiting on `id`.
    fn complete(&self, id: u64, reply: QueryReply) {
        let mut pending = self.pending.lock().unwrap();
        if let Some(slot) = pending.get_mut(&id) {
            *slot = Some(reply);
            self.cv.notify_all();
        }
    }

    /// Block until response `id` lands (or [`QUERY_TIMEOUT`] passes),
    /// deregistering the id either way.
    fn wait(&self, id: u64) -> Option<QueryReply> {
        let deadline = Instant::now() + QUERY_TIMEOUT;
        let mut pending = self.pending.lock().unwrap();
        loop {
            if pending.get(&id).is_some_and(|slot| slot.is_some()) {
                return pending.remove(&id).flatten();
            }
            let now = Instant::now();
            if now >= deadline {
                pending.remove(&id);
                return None;
            }
            pending = self.cv.wait_timeout(pending, deadline - now).unwrap().0;
        }
    }
}

/// The coordinator-side `GET /query` handler: parses the query string,
/// routes serving-plane ops to the owning workers over the control plane,
/// and merges their replies into one JSON document.
///
/// Vertex state is single-owner, which makes the distributed-snapshot
/// argument local: `op=snapshot` pins each worker's own MVCC commit
/// frontier, and since no vertex is writable from two workers the union
/// of the per-worker snapshots is a consistent global view. Checksums
/// fold with wrapping addition over disjoint owned sets, so two equal
/// sums at the same handle certify the same visible global state.
struct ClusterQueryService {
    coord: Arc<Coord>,
    graph: Arc<Graph>,
    pm: Arc<PartitionMap>,
    workers: u32,
    next_snap: AtomicU64,
}

/// Value of `key` in an `a=1&b=2` query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        kv.split_once('=')
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
    })
}

/// A wire value, or `None` for the no-committed-version sentinel (served
/// as `null`).
fn committed(w: u64) -> Option<u64> {
    (w != u64::MAX).then_some(w)
}

impl ClusterQueryService {
    /// Send one request per `(rank, vertices)` pair, then collect every
    /// reply. Requests go out before the first wait so the workers
    /// resolve them concurrently.
    fn fan_out(
        &self,
        op: u8,
        a: u64,
        batches: Vec<(u32, Vec<u32>)>,
    ) -> Result<Vec<(u32, Vec<u32>, QueryReply)>, String> {
        let sent: Vec<(u64, u32, Vec<u32>)> = batches
            .into_iter()
            .map(|(rank, vertices)| {
                let id = self.coord.query.begin();
                self.coord.send(
                    rank,
                    &Message::QueryRequest {
                        id,
                        op,
                        a,
                        vertices: vertices.clone(),
                    },
                );
                (id, rank, vertices)
            })
            .collect();
        let mut out = Vec::with_capacity(sent.len());
        for (id, rank, vertices) in sent {
            let reply =
                self.coord.query.wait(id).ok_or_else(|| {
                    format!("worker {rank} did not answer within {QUERY_TIMEOUT:?}")
                })?;
            if !reply.ok {
                return Err(format!(
                    "worker {rank} rejected the request (op {op}, operand {a})"
                ));
            }
            out.push((rank, vertices, reply));
        }
        Ok(out)
    }

    /// Resolve `vertices` — at the latest committed frontier, or inside
    /// snapshot `snap` — returning `(vertex, wire value)` pairs sorted by
    /// vertex id.
    fn resolve(&self, vertices: &[u32], snap: Option<u64>) -> Result<Vec<(u32, u64)>, String> {
        let mut per_worker: HashMap<u32, Vec<u32>> = HashMap::new();
        for &v in vertices {
            per_worker
                .entry(self.pm.worker_of(VertexId::new(v)).raw())
                .or_default()
                .push(v);
        }
        let (op, a) = match snap {
            Some(handle) => (QUERY_OP_SNAP_READ, handle),
            None => (QUERY_OP_MULTI_LOOKUP, 0),
        };
        let mut out = Vec::with_capacity(vertices.len());
        for (rank, vs, reply) in self.fan_out(op, a, per_worker.into_iter().collect())? {
            if reply.values.len() != vs.len() {
                return Err(format!(
                    "worker {rank} answered {} values for {} vertices",
                    reply.values.len(),
                    vs.len()
                ));
            }
            out.extend(vs.into_iter().zip(reply.values));
        }
        out.sort_unstable_by_key(|&(v, _)| v);
        Ok(out)
    }

    /// Parse and bounds-check a vertex-id parameter.
    fn vertex_param(&self, query: &str, key: &str) -> Result<u32, String> {
        let v: u32 = query_param(query, key)
            .ok_or_else(|| format!("missing parameter '{key}'"))?
            .parse()
            .map_err(|_| format!("parameter '{key}' is not a vertex id"))?;
        if u64::from(v) >= u64::from(self.graph.num_vertices()) {
            return Err(format!(
                "vertex {v} out of range (graph has {} vertices)",
                self.graph.num_vertices()
            ));
        }
        Ok(v)
    }

    /// The vertices within `k` hops of `v` (including `v`), capped at
    /// [`KHOP_LIMIT`].
    fn khop_frontier(&self, v: u32, k: u32) -> Vec<u32> {
        let mut seen: HashSet<u32> = HashSet::from([v]);
        let mut frontier = vec![v];
        for _ in 0..k {
            let mut next = Vec::new();
            for &u in &frontier {
                for t in self.graph.out_neighbors(VertexId::new(u)) {
                    if seen.len() >= KHOP_LIMIT {
                        break;
                    }
                    if seen.insert(t.raw()) {
                        next.push(t.raw());
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let mut all: Vec<u32> = seen.into_iter().collect();
        all.sort_unstable();
        all
    }

    fn all_ranks(&self) -> Vec<(u32, Vec<u32>)> {
        (0..self.workers).map(|r| (r, Vec::new())).collect()
    }

    fn snap_param(&self, query: &str) -> Result<u64, String> {
        query_param(query, "snap")
            .ok_or_else(|| "missing parameter 'snap'".to_string())?
            .parse()
            .map_err(|_| "parameter 'snap' is not a snapshot handle".to_string())
    }
}

impl QueryService for ClusterQueryService {
    fn handle(&self, query: &str) -> Result<Json, String> {
        match query_param(query, "op") {
            Some("lookup") => {
                let v = self.vertex_param(query, "v")?;
                let snap = match query_param(query, "snap") {
                    Some(_) => Some(self.snap_param(query)?),
                    None => None,
                };
                let resolved = self.resolve(&[v], snap)?;
                Ok(Json::obj([
                    ("op", "lookup".into()),
                    ("vertex", v.into()),
                    ("value", committed(resolved[0].1).into()),
                ]))
            }
            Some("khop") => {
                let v = self.vertex_param(query, "v")?;
                let k: u32 = query_param(query, "k")
                    .ok_or_else(|| "missing parameter 'k'".to_string())?
                    .parse()
                    .map_err(|_| "parameter 'k' is not a hop count".to_string())?;
                let snap = match query_param(query, "snap") {
                    Some(_) => Some(self.snap_param(query)?),
                    None => None,
                };
                let vertices = self.khop_frontier(v, k);
                let resolved = self.resolve(&vertices, snap)?;
                let rows = resolved
                    .iter()
                    .map(|&(u, w)| Json::obj([("v", u.into()), ("value", committed(w).into())]));
                Ok(Json::obj([
                    ("op", "khop".into()),
                    ("v", v.into()),
                    ("k", k.into()),
                    ("count", resolved.len().into()),
                    ("vertices", rows.collect()),
                ]))
            }
            Some("snapshot") => {
                let handle = self.next_snap.fetch_add(1, Ordering::SeqCst) + 1;
                let mut replies = self.fan_out(QUERY_OP_SNAP_OPEN, handle, self.all_ranks())?;
                replies.sort_unstable_by_key(|&(rank, ..)| rank);
                // Each worker reports its pinned local read frontier in
                // the `checksum` field of the SnapOpen reply.
                let read_ts = replies.iter().map(|(_, _, r)| r.checksum);
                Ok(Json::obj([
                    ("op", "snapshot".into()),
                    ("snap", handle.into()),
                    ("read_ts", read_ts.collect()),
                ]))
            }
            Some("checksum") => {
                let handle = self.snap_param(query)?;
                let replies = self.fan_out(QUERY_OP_SNAP_CHECKSUM, handle, self.all_ranks())?;
                let mut checksum = 0u64;
                let mut count = 0u64;
                for (_, _, r) in &replies {
                    checksum = checksum.wrapping_add(r.checksum);
                    count += r.count;
                }
                Ok(Json::obj([
                    ("op", "checksum".into()),
                    ("snap", handle.into()),
                    ("checksum", checksum.into()),
                    ("count", count.into()),
                ]))
            }
            Some("close") => {
                let handle = self.snap_param(query)?;
                self.fan_out(QUERY_OP_SNAP_CLOSE, handle, self.all_ranks())?;
                Ok(Json::obj([("op", "close".into()), ("snap", handle.into())]))
            }
            Some(other) => Err(format!(
                "unknown op '{other}' (expected lookup, khop, snapshot, checksum, or close)"
            )),
            None => Err("missing parameter 'op'".into()),
        }
    }
}

// ---------------------------------------------------------------------------
// run_cluster
// ---------------------------------------------------------------------------

/// Launch the cluster, drive the run to completion, and merge results.
pub fn run_cluster(graph: &Graph, cfg: &ClusterConfig) -> Result<ClusterOutcome, NetError> {
    validate(cfg)?;
    // The engine's placement rule, so a cluster run and an in-process run
    // of one configuration partition identically (and reject the same
    // malformed explicit vectors).
    let placement = EngineConfig {
        workers: cfg.workers,
        partitions_per_worker: Some(cfg.partitions_per_worker),
        partition_seed: cfg.partition_seed,
        explicit_partitions: cfg
            .explicit_partitions
            .as_ref()
            .map(|parts| parts.iter().map(|&p| PartitionId::new(p)).collect()),
        ..EngineConfig::default()
    };
    let pm = Arc::new(
        placement
            .partition_map(graph)
            .map_err(|e| NetError::Config(e.to_string()))?,
    );
    let assignment: Vec<u32> = graph.vertices().map(|v| pm.partition_of(v).raw()).collect();

    let listener = TcpListener::bind(&cfg.bind_addr)?;
    let coord_addr = listener.local_addr()?.to_string();

    // Bring the ranks up before accepting: processes exec, threads call
    // worker_main directly over the same sockets.
    let mut children = Vec::new();
    let mut threads = Vec::new();
    match &cfg.spawn {
        SpawnMode::Threads => {
            for rank in 0..cfg.workers {
                let addr = coord_addr.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("sg-net-worker-{rank}"))
                        .spawn(move || crate::worker::worker_main(&addr, rank))
                        .expect("spawn worker thread"),
                );
            }
        }
        SpawnMode::Processes { exe, args } => {
            for rank in 0..cfg.workers {
                let child = std::process::Command::new(exe)
                    .args(args)
                    .arg("--coord")
                    .arg(&coord_addr)
                    .arg("--rank")
                    .arg(rank.to_string())
                    .spawn()
                    .map_err(|e| {
                        NetError::Config(format!("spawning worker process {rank}: {e}"))
                    })?;
                children.push(child);
            }
        }
    }

    let run = drive(graph, cfg, &pm, &assignment, listener);

    // Reap whatever we launched, success or not.
    for child in &mut children {
        if run.is_err() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    for handle in threads {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                if run.is_ok() {
                    return Err(NetError::Protocol(format!("worker thread failed: {e}")));
                }
            }
            Err(_) => {
                if run.is_ok() {
                    return Err(NetError::Protocol("worker thread panicked".into()));
                }
            }
        }
    }
    run
}

fn validate(cfg: &ClusterConfig) -> Result<(), NetError> {
    crate::check_workers(cfg.workers).map_err(NetError::Config)?;
    if cfg.partitions_per_worker == 0 {
        return Err(NetError::Config(
            "partitions_per_worker must be >= 1".into(),
        ));
    }
    if cfg.technique == TechniqueKind::BspVertexLock {
        return Err(NetError::Config(
            "bsp-vertex-lock schedules sub-supersteps inside the engine and has no \
             cluster-runtime equivalent"
                .into(),
        ));
    }
    if cfg.max_supersteps == 0 {
        return Err(NetError::Config("max_supersteps must be >= 1".into()));
    }
    if cfg.audit_interval_ms > 0 && !cfg.record_history {
        return Err(NetError::Config(
            "the streaming audit plane needs record_history: workers have no \
             transactions to stream otherwise"
                .into(),
        ));
    }
    Ok(())
}

/// Phase 1 of [`drive`]: each rank's control connection and data-plane
/// address, indexed by rank. An acceptor thread hands each connection over
/// as it lands, so the wait ends with the last `Hello` (or at
/// [`SETUP_TIMEOUT`]) rather than on a polling tick; a connection of our
/// own then wakes the acceptor out of `accept` so it ends.
fn collect_hellos(
    listener: TcpListener,
    workers: u32,
    clock: &Clock,
) -> Result<Vec<Option<(TcpStream, String)>>, NetError> {
    let addr = listener.local_addr()?;
    let (arrived, arrivals) = mpsc::channel();
    let acceptor = std::thread::Builder::new()
        .name("sg-net-coord-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if arrived.send(stream).is_err() {
                    return;
                }
            }
        })
        .expect("spawn coordinator acceptor");
    let hellos = read_hellos(&arrivals, workers, clock);
    drop(arrivals);
    if TcpStream::connect(addr).is_ok() {
        let _ = acceptor.join();
    }
    hellos
}

/// Read one `Hello` off each connection `arrivals` hands over until every
/// rank has joined. Raw frame reads are safe here: a worker sends nothing
/// after `Hello` until it sees `Setup`.
fn read_hellos(
    arrivals: &mpsc::Receiver<std::io::Result<TcpStream>>,
    workers: u32,
    clock: &Clock,
) -> Result<Vec<Option<(TcpStream, String)>>, NetError> {
    let deadline = Instant::now() + SETUP_TIMEOUT;
    let mut pending: Vec<Option<(TcpStream, String)>> = (0..workers).map(|_| None).collect();
    for joined in 0..workers {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok(stream) = arrivals.recv_timeout(wait) else {
            return Err(NetError::Protocol(format!(
                "only {joined}/{workers} workers joined within {SETUP_TIMEOUT:?}"
            )));
        };
        let stream = stream?;
        let mut raw = &stream;
        let hello = match read_frame(&mut raw)? {
            Some(Ok(frame)) => frame,
            _ => return Err(NetError::Protocol("bad Hello frame".into())),
        };
        clock.join(hello.clock);
        match hello.msg {
            Message::Hello {
                version,
                rank,
                data_addr,
            } => {
                check_version(version)?;
                let slot = pending
                    .get_mut(rank as usize)
                    .ok_or_else(|| NetError::Protocol(format!("rank {rank} out of range")))?;
                if slot.is_some() {
                    return Err(NetError::Protocol(format!("duplicate rank {rank}")));
                }
                *slot = Some((stream, data_addr));
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Hello, got kind {}",
                    other.kind()
                )))
            }
        }
    }
    Ok(pending)
}

/// Accept the workers, run setup + the superstep loop, merge results.
fn drive(
    graph: &Graph,
    cfg: &ClusterConfig,
    pm: &Arc<PartitionMap>,
    assignment: &[u32],
    listener: TcpListener,
) -> Result<ClusterOutcome, NetError> {
    let clock = Arc::new(Clock::new());

    // Phase 1: collect one Hello per rank.
    let pending = collect_hellos(listener, cfg.workers, &clock)?;

    // Phase 2: wrap control connections, ship Setup + PeerMap.
    let epoch_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut conns = Vec::with_capacity(cfg.workers as usize);
    let mut readers = Vec::with_capacity(cfg.workers as usize);
    let mut peer_addrs = Vec::with_capacity(cfg.workers as usize);
    for (rank, slot) in pending.into_iter().enumerate() {
        let (stream, data_addr) = slot.expect("all ranks joined");
        let (ctrl, read_half) = CtrlConn::new(stream, Arc::clone(&clock))?;
        conns.push(Arc::new(ctrl));
        readers.push(read_half);
        peer_addrs.push((rank as u32, data_addr));
    }

    // One spec for every rank — only the fault plan differs — and the graph
    // in it as the CSR it already is.
    let (offsets, targets) = graph.out_csr();
    let mut setup = Message::Setup {
        spec: Box::new(RunSpec {
            num_vertices: graph.num_vertices(),
            offsets: offsets.to_vec(),
            targets: targets.iter().map(|t| t.raw()).collect(),
            assignment: assignment.to_vec(),
            workers: cfg.workers,
            partitions_per_worker: cfg.partitions_per_worker,
            technique: cfg.technique.label().to_string(),
            workload: cfg.workload.name().to_string(),
            workload_arg: cfg.workload.arg(),
            max_supersteps: cfg.max_supersteps,
            buffer_cap: cfg.buffer_cap,
            record_history: cfg.record_history,
            trace_capacity: cfg.trace_capacity,
            epoch_ns,
            telemetry_interval_ms: cfg.telemetry_interval_ms,
            audit_interval_ms: cfg.audit_interval_ms,
            fault: FaultPlan::default(),
        }),
    };
    for rank in 0..cfg.workers {
        let plan = cfg.faults.iter().find(|(r, _)| *r == rank);
        if let Message::Setup { spec } = &mut setup {
            spec.fault = plan.map(|(_, f)| f.clone()).unwrap_or_default();
        }
        conns[rank as usize].send(&setup)?;
        conns[rank as usize].send(&Message::PeerMap {
            peers: peer_addrs.clone(),
        })?;
    }

    // Phase 3: shared state, reader + executor threads, the technique.
    // The coordinator gets its own live registry (the sync techniques it
    // hosts record wait/hold/token-pass latencies into it) and a hub that
    // collects every worker's snapshot frames for the scrape endpoint.
    let metrics = Arc::new(Metrics::new());
    let hub = Arc::new(TelemetryHub::new(
        cfg.workers as usize,
        Arc::new(sg_metrics::Telemetry::new()),
    ));
    metrics.attach_telemetry(Arc::clone(hub.registry()));
    // The audit hub merges streamed transaction batches by watermark and
    // keeps the live Theorem 1 verdict; its gauges live on the same
    // registry the scrape endpoint already serves.
    let audit = if cfg.audit_interval_ms > 0 {
        let acfg = AuditConfig {
            sentinel_path: cfg.audit_log.clone(),
            ..AuditConfig::default()
        };
        Some(Arc::new(AuditHub::new(
            Arc::new(graph.clone()),
            assignment.to_vec(),
            cfg.workers as usize,
            hub.registry(),
            acfg,
        )?))
    } else {
        None
    };
    let coord = Arc::new(Coord {
        state: Mutex::new(CoordState {
            compute_done: 0,
            votes: 0,
            active_total: 0,
            goodbyes: 0,
            values: vec![None; graph.num_vertices() as usize],
            txns: Vec::new(),
            events: Vec::new(),
            next_flush: 0,
            flush_done: HashSet::new(),
            failed: None,
        }),
        cv: Condvar::new(),
        conns,
        metrics: Arc::clone(&metrics),
        hub: Arc::clone(&hub),
        audit: audit.clone(),
        query: QueryHub::default(),
        halting: AtomicBool::new(false),
        num_vertices: graph.num_vertices(),
    });
    // The HTTP listener starts after the control connections exist so the
    // /query service can route to live workers from its first request.
    let server = match &cfg.telemetry_addr {
        Some(addr) => {
            let service: Arc<dyn QueryService> = Arc::new(ClusterQueryService {
                coord: Arc::clone(&coord),
                graph: Arc::new(graph.clone()),
                pm: Arc::clone(pm),
                workers: cfg.workers,
                next_snap: AtomicU64::new(0),
            });
            let srv = TelemetryServer::start(addr, Arc::clone(&hub), audit.clone(), Some(service))?;
            eprintln!("telemetry: serving http://{}/metrics", srv.addr);
            if audit.is_some() {
                eprintln!("audit: serving http://{}/audit", srv.addr);
            }
            eprintln!("serving: queries at http://{}/query", srv.addr);
            if let Some(tx) = &cfg.telemetry_addr_tx {
                let _ = tx.send(srv.addr.to_string());
            }
            Some(srv)
        }
        None => None,
    };
    let sync = build_synchronizer(cfg.technique, graph, pm, Arc::clone(&metrics));
    let transport = CoordTransport {
        coord: Arc::clone(&coord),
    };
    let mut service_threads = Vec::new();
    for (rank, read_half) in readers.into_iter().enumerate() {
        let rank = rank as u32;
        let (exec, requests) = mpsc::channel();
        let (coord2, clock2) = (Arc::clone(&coord), Arc::clone(&clock));
        service_threads.push(
            std::thread::Builder::new()
                .name(format!("sg-net-coord-read-{rank}"))
                .spawn(move || reader_thread(rank, read_half, clock2, coord2, exec))
                .expect("spawn coordinator reader"),
        );
        let (coord2, sync2) = (Arc::clone(&coord), Arc::clone(&sync));
        service_threads.push(
            std::thread::Builder::new()
                .name(format!("sg-net-coord-exec-{rank}"))
                .spawn(move || executor_thread(rank, coord2, requests, sync2))
                .expect("spawn coordinator executor"),
        );
    }

    // Phase 4: the superstep driver (two-phase barrier per superstep).
    let start = Instant::now();
    let mut superstep = 0u64;
    let converged;
    loop {
        for rank in 0..cfg.workers {
            coord.send(rank, &Message::StartSuperstep { superstep });
        }
        coord.wait_for("compute-done barrier", BARRIER_TIMEOUT, |st| {
            (st.compute_done >= cfg.workers).then(|| st.compute_done = 0)
        })?;
        for rank in 0..cfg.workers {
            coord.send(rank, &Message::ReportRequest { superstep });
        }
        let active = coord.wait_for("barrier votes", BARRIER_TIMEOUT, |st| {
            (st.votes >= cfg.workers).then(|| {
                st.votes = 0;
                std::mem::take(&mut st.active_total)
            })
        })?;
        sync.end_superstep(superstep, &transport);
        // end_superstep may have initiated flushes that failed; surface it.
        coord.wait_for("post-superstep health", Duration::from_millis(1), |_| {
            Some(())
        })?;
        metrics.inc(Counter::Barriers);
        metrics.inc(Counter::Supersteps);
        superstep += 1;
        if active == 0 {
            converged = true;
            break;
        }
        if superstep >= cfg.max_supersteps {
            converged = false;
            break;
        }
    }
    let makespan_ns = start.elapsed().as_nanos() as u64;

    // Phase 5: halt, collect uploads, tear down.
    coord.halting.store(true, Ordering::SeqCst);
    for rank in 0..cfg.workers {
        coord.send(rank, &Message::Halt);
    }
    coord.wait_for("worker uploads", UPLOAD_TIMEOUT, |st| {
        (st.goodbyes >= cfg.workers).then_some(())
    })?;
    // Closing the connections ends each reader thread, which drops its
    // executor's sender and so ends the executor too.
    for conn in &coord.conns {
        conn.close();
    }
    for handle in service_threads {
        let _ = handle.join();
    }

    let mut st = coord.state.lock().unwrap();
    if let Some(err) = st.failed.take() {
        return Err(NetError::Protocol(err));
    }
    let mut values = Vec::with_capacity(st.values.len());
    for (i, v) in st.values.iter_mut().enumerate() {
        values.push(v.take().ok_or_else(|| {
            NetError::Protocol(format!("vertex {i} missing from uploaded values"))
        })?);
    }
    let history = if cfg.record_history {
        let mut txns: Vec<TxnRecord> = st
            .txns
            .drain(..)
            .map(|t| TxnRecord {
                vertex: VertexId::new(t.vertex),
                start: t.start,
                end: t.end,
                stale_reads: t.stale.into_iter().map(VertexId::new).collect(),
            })
            .collect();
        txns.sort_by_key(|t| t.start);
        Some(History::new(txns))
    } else {
        None
    };
    let trace_events = merge_ranked_events(&[std::mem::take(&mut st.events)]);
    drop(st);

    // Every worker's goodbye was preceded by its final AuditUpload drain
    // (the last chunk's watermark = MAX) and a final TelemetryUpload, so
    // finalize here releases everything and the aggregate is the complete
    // end-of-run view — the same data the last live scrape would have served.
    let audit_summary = audit.as_ref().map(|a| {
        let s = a.finalize();
        eprintln!(
            "audit: final live verdict 1SR={} ({} txns, {} C1, {} C2, SG {})",
            if s.one_copy_serializable { "yes" } else { "NO" },
            s.transactions,
            s.c1_violations,
            s.c2_violations,
            if s.serialization_graph_acyclic {
                "acyclic"
            } else {
                "CYCLIC"
            }
        );
        s
    });
    let telemetry = hub.aggregate();
    if let Some(server) = server {
        server.stop();
    }

    Ok(ClusterOutcome {
        values,
        supersteps: superstep,
        converged,
        metrics: metrics.snapshot(),
        history,
        trace_events,
        makespan_ns,
        telemetry: Some(telemetry),
        audit: audit_summary,
    })
}

/// Per-worker control-plane reader: dispatches barrier state, lock RPCs
/// (to the rank's executor, through `exec`), flush receipts, and result
/// uploads into the shared state.
fn reader_thread(
    rank: u32,
    read_half: TcpStream,
    clock: Arc<Clock>,
    coord: Arc<Coord>,
    exec: mpsc::Sender<ExecReq>,
) {
    let mut reader = FrameReader::new(read_half, clock);
    let mut clean_exit = false;
    loop {
        let msg = match reader.recv() {
            Ok(Some(msg)) => msg,
            Ok(None) => break,
            Err(_) => break,
        };
        match msg {
            Message::ComputeDone { superstep } if superstep == GOODBYE_SUPERSTEP => {
                // The rank's audit stream is complete: it no longer
                // holds the merge frontier back.
                if let Some(a) = &coord.audit {
                    a.finish_rank(rank as usize);
                }
                let mut st = coord.state.lock().unwrap();
                st.goodbyes += 1;
                coord.cv.notify_all();
                clean_exit = true;
            }
            Message::ComputeDone { .. } => {
                let mut st = coord.state.lock().unwrap();
                st.compute_done += 1;
                coord.cv.notify_all();
            }
            Message::BarrierVote { active, .. } => {
                let mut st = coord.state.lock().unwrap();
                st.votes += 1;
                st.active_total += active;
                coord.cv.notify_all();
            }
            // A dead executor never grants; the run times out at its barrier.
            Message::AcquireUnit { unit } => exec.send(ExecReq::Acquire(unit)).unwrap_or(()),
            Message::ReleaseUnit { unit } => exec.send(ExecReq::Release(unit)).unwrap_or(()),
            Message::FlushDone { flush_seq } => {
                let mut st = coord.state.lock().unwrap();
                st.flush_done.insert(flush_seq);
                coord.cv.notify_all();
            }
            Message::ValuesUpload { values } => {
                let mut st = coord.state.lock().unwrap();
                for (v, w) in values {
                    if let Some(slot) = st.values.get_mut(v as usize) {
                        *slot = Some(w);
                    }
                }
            }
            Message::AuditUpload { txns, watermark } => {
                // The post-hoc History indexes per-vertex arrays by these
                // fields: a malformed transaction ends the run here.
                if let Some(why) = txns.iter().find_map(|t| malformed(t, coord.num_vertices)) {
                    coord.fail(format!(
                        "rank {rank} uploaded a transaction with {why} ({} vertices)",
                        coord.num_vertices
                    ));
                    continue;
                }
                if let Some(a) = &coord.audit {
                    a.ingest(rank as usize, &txns, watermark);
                }
                coord.state.lock().unwrap().txns.extend(txns);
            }
            Message::MetricsUpload { counters } => {
                // Worker counters sum straight into the cluster totals
                // (`Counter::ALL` order is the wire order).
                for (c, v) in Counter::ALL.iter().zip(counters) {
                    if v > 0 {
                        coord.metrics.add(*c, v);
                    }
                }
            }
            Message::TraceUpload { events } => {
                let mut st = coord.state.lock().unwrap();
                st.events
                    .extend(events.iter().filter_map(decode_trace_event));
            }
            Message::TelemetryUpload { rows } => {
                coord
                    .hub
                    .store(rank as usize, WireMetricRow::to_snapshot(&rows));
            }
            Message::QueryResponse {
                id,
                ok,
                values,
                checksum,
                count,
            } => {
                coord.query.complete(
                    id,
                    QueryReply {
                        ok: ok == 1,
                        values,
                        checksum,
                        count,
                    },
                );
            }
            _ => {}
        }
    }
    if !clean_exit && !coord.halting.load(Ordering::SeqCst) {
        coord.fail(format!("worker {rank} disconnected mid-run"));
    }
}

/// Which field of `t` cannot belong to a run over `num_vertices` vertices,
/// if any.
fn malformed(t: &WireTxn, num_vertices: u32) -> Option<String> {
    if t.vertex >= num_vertices {
        return Some(format!("vertex {} out of range", t.vertex));
    }
    if let Some(s) = t.stale.iter().find(|&&s| s >= num_vertices) {
        return Some(format!("stale-read witness {s} out of range"));
    }
    (t.end <= t.start).then(|| format!("end {} not after start {}", t.end, t.start))
}

fn decode_trace_event(e: &WireTraceEvent) -> Option<TraceEvent> {
    Some(TraceEvent {
        worker: e.worker,
        superstep: e.superstep,
        kind: TraceEventKind::try_from(e.kind).ok()?,
        ts_ns: e.ts_ns,
        dur_ns: e.dur_ns,
        arg: e.arg,
        peer: (e.peer != u32::MAX).then_some(e.peer),
    })
}

/// Per-worker lock executor: runs blocking `acquire_unit` calls on the
/// coordinator's technique (exactly like an engine worker thread would)
/// and sends the grant when the unit is held.
fn executor_thread(
    rank: u32,
    coord: Arc<Coord>,
    requests: mpsc::Receiver<ExecReq>,
    sync: Arc<dyn Synchronizer>,
) {
    let transport = CoordTransport {
        coord: Arc::clone(&coord),
    };
    for req in requests {
        match req {
            ExecReq::Acquire(unit) => {
                sync.acquire_unit(unit, &transport);
                coord.send(rank, &Message::UnitGranted { unit });
            }
            ExecReq::Release(unit) => sync.release_unit(unit, 0, &transport),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::gen;

    fn outcome(technique: TechniqueKind, workload: Workload) -> ClusterOutcome {
        let g = gen::paper_c4();
        let cfg = ClusterConfig::new(2, technique, workload);
        run_cluster(&g, &cfg).expect("cluster run")
    }

    /// The label is what crosses the wire in `RunSpec::technique`; a kind
    /// whose label does not map back would start workers on the wrong
    /// protocol (or none).
    #[test]
    fn every_technique_label_round_trips() {
        for kind in TechniqueKind::ALL {
            assert_eq!(TechniqueKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(TechniqueKind::from_label("no-such-technique"), None);
    }

    #[test]
    fn thread_mode_coloring_single_token_is_proper_and_1sr() {
        let out = outcome(TechniqueKind::SingleToken, Workload::Coloring);
        assert!(out.converged);
        let colors: Vec<u32> = out.typed_values();
        assert_eq!(
            sg_algos::validate::coloring_conflicts(&gen::paper_c4(), &colors),
            0
        );
        let h = out.history.expect("history recorded");
        assert!(h.is_one_copy_serializable(&gen::paper_c4()));
    }

    #[test]
    fn thread_mode_wcc_partition_lock_converges() {
        let out = outcome(TechniqueKind::PartitionLock, Workload::Wcc);
        assert!(out.converged);
        let labels: Vec<u32> = out.typed_values();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn cluster_outcome_carries_final_telemetry() {
        let out = outcome(TechniqueKind::PartitionLock, Workload::Coloring);
        let t = out.telemetry.expect("final telemetry aggregate");
        // Every worker shipped a goodbye snapshot: per-worker progress
        // gauges and per-link wire counters must be present for both
        // ranks, and the coordinator-hosted technique recorded waits.
        for rank in ["0", "1"] {
            assert!(
                t.get("sg_worker_superstep", &[("worker", rank)]).is_some(),
                "missing worker {rank} superstep gauge"
            );
        }
        let frames: u64 = t
            .rows
            .iter()
            .filter(|r| r.name == "sg_link_frames_out_total")
            .map(|r| match &r.value {
                sg_metrics::MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum();
        assert!(frames > 0, "no data-plane frames counted");
        assert!(
            t.rows.iter().any(|r| r.name == "sg_sync_acquire_wait_ns"
                && r.labels.iter().any(|(k, v)| k == "worker" && v == "coord")),
            "coordinator sync histograms missing"
        );
    }

    #[test]
    fn scrape_endpoint_serves_during_run() {
        // The server binds before workers launch, so a scrape mid-run (or
        // right after) sees live rows; here we just assert the listener
        // comes up wired to the hub and serves the coordinator rows.
        let g = gen::paper_c4();
        let mut cfg = ClusterConfig::new(2, TechniqueKind::SingleToken, Workload::Coloring);
        cfg.telemetry_addr = Some("127.0.0.1:0".into());
        cfg.telemetry_interval_ms = 50;
        let out = run_cluster(&g, &cfg).expect("cluster run");
        assert!(out.converged);
        let t = out.telemetry.expect("final telemetry aggregate");
        assert!(t.rows.iter().any(|r| r.name == "sg_sync_token_pass_ns"
            && r.labels
                .iter()
                .any(|(k, v)| k == "technique" && v == "single-token")));
    }

    #[test]
    fn query_hub_correlates_out_of_order_replies() {
        let hub = QueryHub::default();
        let a = hub.begin();
        let b = hub.begin();
        assert_ne!(a, b);
        hub.complete(
            b,
            QueryReply {
                ok: true,
                values: vec![7],
                checksum: 0,
                count: 1,
            },
        );
        hub.complete(
            a,
            QueryReply {
                ok: false,
                values: vec![],
                checksum: 9,
                count: 0,
            },
        );
        // A reply for an id nobody registered is dropped, not stored.
        hub.complete(
            999,
            QueryReply {
                ok: true,
                values: vec![],
                checksum: 0,
                count: 0,
            },
        );
        let ra = hub.wait(a).expect("reply a");
        let rb = hub.wait(b).expect("reply b");
        assert!(!ra.ok && ra.checksum == 9);
        assert!(rb.ok && rb.values == [7]);
        assert!(hub.pending.lock().unwrap().is_empty());
    }

    #[test]
    fn query_endpoint_serves_lookups_and_snapshots_mid_run() {
        // SSSP on a directed ring advances one hop per superstep, so the
        // run stays busy for thousands of supersteps (about a second)
        // while the serving thread queries it over HTTP: long enough that
        // the queries still land mid-run under a loaded test harness.
        let g = gen::ring(4_000);
        let mut cfg = ClusterConfig::new(2, TechniqueKind::VertexLock, Workload::Sssp(0));
        cfg.max_supersteps = 10_000;
        cfg.telemetry_addr = Some("127.0.0.1:0".into());
        let (tx, rx) = std::sync::mpsc::channel();
        cfg.telemetry_addr_tx = Some(tx);
        let g2 = g.clone();
        let run = std::thread::spawn(move || run_cluster(&g2, &cfg));
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("listener address");
        let get = |path: &str| crate::http_get(&addr, path, Duration::from_secs(5));

        // Point lookup at the latest committed frontier: the source
        // vertex commits distance 0 in the first superstep.
        let body = get("/query?op=lookup&v=0").expect("lookup");
        assert!(body.contains("\"vertex\":0"), "bad lookup body: {body}");

        // k-hop neighborhood resolves across both workers: the ring is
        // symmetric, so 3 hops from vertex 0 reach {0, ±1, ±2, ±3}.
        let body = get("/query?op=khop&v=0&k=3").expect("khop");
        assert!(body.contains("\"count\":7"), "bad khop body: {body}");

        // Consistent snapshot: open pins every worker's frontier; two
        // checksums of the same handle — taken while the run keeps
        // committing — must certify the identical visible state.
        let body = get("/query?op=snapshot").expect("snapshot open");
        assert!(body.contains("\"snap\":1"), "bad snapshot body: {body}");
        let c1 = get("/query?op=checksum&snap=1").expect("first checksum");
        let c2 = get("/query?op=checksum&snap=1").expect("second checksum");
        assert_eq!(c1, c2, "snapshot checksum drifted between reads");
        assert!(c1.contains("\"count\":4000"), "bad checksum body: {c1}");
        let body = get("/query?op=close&snap=1").expect("snapshot close");
        assert!(body.contains("\"op\":\"close\""));

        // Bad requests surface as HTTP 400s, not hangs.
        assert!(get("/query?op=nope").is_err());
        assert!(get("/query?op=lookup&v=99999").is_err());

        let out = run.join().unwrap().expect("cluster run");
        assert!(out.converged);
        let h = out.history.expect("history recorded");
        assert!(h.is_one_copy_serializable(&g));
    }
}
