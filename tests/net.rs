//! The networked runtime, end to end: wire-codec round trips over every
//! protocol message, malformed-input rejection, loopback TCP clusters
//! running all four techniques with results cross-checked against the
//! in-process engine, and deterministic fault injection (dropped,
//! duplicated, delayed frames; a killed connection mid-run) recovering to
//! the same answers.

use serigraph::prelude::*;
use serigraph::sg_algos::{validate, MisState};
use serigraph::sg_net::link::accept_handshake;
use serigraph::sg_net::wire::{
    batch_view, peek_header, read_frame, FaultPlan, WireMetricRow, WireTraceEvent, WireTxn,
    MAX_FRAME_LEN,
};
use serigraph::sg_net::{
    parse_fault_plan, run_cluster, Clock, ClusterConfig, ClusterOutcome, Frame, Message, MsgBatch,
    NetError, RunSpec, SpawnMode, WireCodec, WireError, Workload, PROTOCOL_VERSION,
};
use serigraph::sg_sim::simulate;
use serigraph::NetworkOptions;
use std::sync::Arc;

const TECHNIQUES: [Technique; 4] = [
    Technique::SingleToken,
    Technique::DualToken,
    Technique::VertexLock,
    Technique::PartitionLock,
];

// ---------------------------------------------------------------------------
// Frame codec

/// One representative of every protocol message, exercising every field
/// codec (strings, pair lists, nested structs, bools, the boxed spec).
fn every_message() -> Vec<Message> {
    vec![
        Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 3,
            data_addr: "127.0.0.1:4567".into(),
        },
        Message::ComputeDone { superstep: 9 },
        Message::BarrierVote {
            superstep: 9,
            active: 17,
            pending: 4,
        },
        Message::AcquireUnit { unit: 42 },
        Message::ReleaseUnit { unit: 42 },
        Message::FlushDone { flush_seq: 7 },
        Message::ValuesUpload {
            values: vec![(0, vec![11, 0, 0, 0]), (5, Vec::new())],
        },
        Message::HistoryUpload {
            txns: vec![WireTxn {
                vertex: 2,
                start: 0x100,
                end: 0x203,
                stale: vec![1, 3],
            }],
        },
        Message::MetricsUpload {
            counters: vec![0, 1, 2, 3],
        },
        Message::TraceUpload {
            events: vec![WireTraceEvent {
                worker: 1,
                superstep: 2,
                kind: 1,
                ts_ns: 100,
                dur_ns: 50,
                arg: 7,
                peer: u32::MAX,
            }],
        },
        Message::Setup {
            spec: Box::new(RunSpec {
                num_vertices: 4,
                edges: vec![(0, 1), (1, 0)],
                assignment: vec![0, 0, 1, 1],
                workers: 2,
                partitions_per_worker: 1,
                technique: "single-token".into(),
                workload: "coloring".into(),
                workload_arg: 0,
                max_supersteps: 100,
                buffer_cap: 64,
                record_history: true,
                trace_capacity: 0,
                epoch_ns: 123,
                fault: FaultPlan {
                    drop_frames: vec![1],
                    duplicate_frames: vec![2],
                    delay_frames: vec![(3, 10)],
                    kill_at_frame: Some(4),
                },
                telemetry_interval_ms: 250,
                audit_interval_ms: 25,
            }),
        },
        Message::PeerMap {
            peers: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
        },
        Message::StartSuperstep { superstep: 1 },
        Message::ReportRequest { superstep: 1 },
        Message::UnitGranted { unit: 8 },
        Message::FlushForks {
            target: 1,
            unit: 5,
            token: true,
            flush_seq: 12,
        },
        Message::RequestTokenRelay { target: 1 },
        Message::Halt {
            converged: true,
            supersteps: 33,
        },
        Message::PeerHello {
            version: PROTOCOL_VERSION,
            rank: 1,
            resume_from: 6,
        },
        Message::BatchFlush {
            batch: batch_of(&[(1, 2, &3u64.to_le_bytes()), (4, 5, &[])]),
        },
        Message::FlushPing { flush_seq: 2 },
        Message::FlushAck {
            flush_seq: 2,
            ack_through: 14,
        },
        Message::RequestToken,
        Message::TelemetryUpload {
            rows: vec![WireMetricRow {
                name: "sg_worker_superstep".into(),
                labels: vec![("worker".into(), "1".into())],
                kind: 1,
                values: vec![5],
            }],
        },
        Message::Heartbeat { echo_ns: 123_456 },
        Message::HeartbeatAck {
            echo_ns: 123_456,
            ack_through: 88,
        },
        Message::AuditUpload {
            txns: vec![WireTxn {
                vertex: 4,
                start: 0x301,
                end: 0x402,
                stale: vec![],
            }],
            watermark: 0x500,
        },
        Message::QueryRequest {
            id: 9,
            op: 2,
            a: 3,
            b: 0,
            vertices: vec![1, 2, 3],
        },
        Message::QueryResponse {
            id: 9,
            ok: 1,
            values: vec![7, u64::MAX],
            checksum: 0xABCD,
            count: 2,
        },
    ]
}

/// Build a [`MsgBatch`] from `(to, from, payload)` triples.
fn batch_of(entries: &[(u32, u32, &[u8])]) -> MsgBatch {
    let mut b = MsgBatch::new();
    for &(to, from, payload) in entries {
        b.push(to, from, payload);
    }
    b
}

#[test]
fn every_message_kind_round_trips_through_the_codec() {
    let msgs = every_message();
    // All 29 kinds, no duplicates: the list genuinely covers the protocol.
    let mut kinds: Vec<u8> = msgs.iter().map(Message::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 29, "message list must cover every wire kind");

    for (i, msg) in msgs.into_iter().enumerate() {
        let frame = Frame {
            seq: i as u64 + 1,
            clock: 1000 + i as u64,
            msg,
        };
        let bytes = frame.encode();
        // Via the raw payload decoder (skip the 4-byte length prefix)...
        let decoded = Frame::decode(&bytes[4..]).expect("decode");
        assert_eq!(decoded, frame);
        // ...and via the socket-facing reader.
        let mut cursor = &bytes[..];
        let read = read_frame(&mut cursor)
            .expect("io")
            .expect("not eof")
            .expect("well-formed");
        assert_eq!(read, frame);
    }
}

#[test]
fn a_stream_of_frames_reads_back_in_order_and_ends_cleanly() {
    let mut stream = Vec::new();
    let frames: Vec<Frame> = every_message()
        .into_iter()
        .enumerate()
        .map(|(i, msg)| Frame {
            seq: i as u64,
            clock: i as u64,
            msg,
        })
        .collect();
    for f in &frames {
        stream.extend_from_slice(&f.encode());
    }
    let mut r = &stream[..];
    for f in &frames {
        assert_eq!(&read_frame(&mut r).unwrap().unwrap().unwrap(), f);
    }
    assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
}

#[test]
fn truncated_frames_error_cleanly_at_every_cut_point() {
    for msg in every_message() {
        let frame = Frame {
            seq: 1,
            clock: 2,
            msg,
        };
        let bytes = frame.encode();
        // Any strict prefix of the payload must decode to an error, never
        // a panic and never a bogus success.
        for cut in 0..bytes.len().saturating_sub(4) {
            let err = Frame::decode(&bytes[4..4 + cut]);
            assert!(
                err.is_err(),
                "kind {} truncated to {cut} bytes decoded anyway",
                frame.msg.kind()
            );
        }
        // A mid-frame EOF through the reader is UnexpectedEof, not Ok(None).
        if bytes.len() > 5 {
            let mut short = &bytes[..bytes.len() - 1];
            assert!(read_frame(&mut short).is_err());
        }
    }
}

#[test]
fn malformed_frames_error_cleanly() {
    // Unknown kind byte.
    let mut bytes = Frame {
        seq: 1,
        clock: 1,
        msg: Message::Heartbeat { echo_ns: 0 },
    }
    .encode();
    bytes[4] = 0xEE;
    assert!(matches!(
        Frame::decode(&bytes[4..]),
        Err(WireError::BadKind(0xEE))
    ));

    // Trailing garbage after a complete message.
    let mut bytes = Frame {
        seq: 1,
        clock: 1,
        msg: Message::ComputeDone { superstep: 3 },
    }
    .encode();
    bytes.extend_from_slice(&[0, 0, 0]);
    let payload = &bytes[4..];
    assert!(matches!(
        Frame::decode(payload),
        Err(WireError::TrailingBytes(3))
    ));

    // An implausible length prefix is rejected before any allocation.
    let huge = [0xFF, 0xFF, 0xFF, 0xFF, 1];
    let mut r = &huge[..];
    assert!(matches!(
        read_frame(&mut r).expect("no io error").expect("not eof"),
        Err(WireError::BadLength(_))
    ));

    // A non-UTF-8 string field.
    let mut bytes = Frame {
        seq: 1,
        clock: 1,
        msg: Message::Hello {
            version: 1,
            rank: 0,
            data_addr: "ab".into(),
        },
    }
    .encode();
    let addr_at = bytes.len() - 2;
    bytes[addr_at] = 0xFF;
    bytes[addr_at + 1] = 0xFE;
    assert!(matches!(
        Frame::decode(&bytes[4..]),
        Err(WireError::BadUtf8)
    ));
}

#[test]
fn duplicated_frame_bytes_decode_to_identical_frames() {
    // The link layer dedups by seq; the codec itself must parse a
    // back-to-back duplicate into two equal frames (what a `dup=N` fault
    // puts on the wire).
    let frame = Frame {
        seq: 5,
        clock: 9,
        msg: Message::BatchFlush {
            batch: batch_of(&[(1, 2, &3u64.to_le_bytes())]),
        },
    };
    let mut stream = frame.encode();
    stream.extend_from_slice(&frame.encode());
    let mut r = &stream[..];
    let a = read_frame(&mut r).unwrap().unwrap().unwrap();
    let b = read_frame(&mut r).unwrap().unwrap().unwrap();
    assert_eq!(a, b);
    assert_eq!(a, frame);
}

#[test]
fn batch_frames_round_trip_zero_copy_at_random_payload_sizes() {
    // Deterministic LCG; payload sizes sweep the interesting boundaries
    // (empty, sub-word, cache-line, KiB-scale).
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for round in 0..32u64 {
        let n = (rng() % 40) as usize + 1;
        let mut batch = MsgBatch::new();
        let mut expect: Vec<(u32, u32, Vec<u8>)> = Vec::new();
        for _ in 0..n {
            let to = (rng() % 1000) as u32;
            let from = (rng() % 1000) as u32;
            let len = match rng() % 4 {
                0 => 0,
                1 => (rng() % 9) as usize,
                2 => (rng() % 512) as usize,
                _ => (rng() % 4096) as usize,
            };
            let payload: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
            batch.push(to, from, &payload);
            expect.push((to, from, payload));
        }
        let frame = Frame {
            seq: round + 1,
            clock: 7,
            msg: Message::BatchFlush {
                batch: batch.clone(),
            },
        };
        let bytes = frame.encode();
        // The receive hot path: peek the fixed header, then parse a
        // borrowed view over the frame bytes — no per-message copy.
        let payload = &bytes[4..];
        let header = peek_header(payload).expect("header");
        assert!(header.is_batch());
        assert_eq!(header.seq, round + 1);
        let mut scratch = Vec::new();
        let view = batch_view(payload, &mut scratch).expect("batch view");
        assert_eq!(view.len(), expect.len());
        for (got, want) in view.iter().zip(&expect) {
            assert_eq!(got, (want.0, want.1, want.2.as_slice()));
        }
        assert_eq!(view.to_owned_batch(), batch);
    }
}

#[test]
fn oversized_and_truncated_batches_are_rejected_with_typed_errors() {
    // A length prefix past MAX_FRAME_LEN is rejected before any allocation.
    let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
    bytes.push(20);
    let mut r = &bytes[..];
    assert!(matches!(
        read_frame(&mut r).expect("no io error").expect("not eof"),
        Err(WireError::BadLength(_))
    ));

    let frame = Frame {
        seq: 1,
        clock: 1,
        msg: Message::BatchFlush {
            batch: batch_of(&[(1, 2, b"hello"), (3, 4, &[0; 64])]),
        },
    };
    let bytes = frame.encode();
    let payload = &bytes[4..];
    let mut scratch = Vec::new();
    assert!(batch_view(payload, &mut scratch).is_ok());
    // Any strict prefix of the body fails with a typed error, never a
    // panic and never a short parse (17 = frame header, always intact
    // after read_frame_into).
    for cut in 17..payload.len() {
        assert!(
            batch_view(&payload[..cut], &mut scratch).is_err(),
            "cut at {cut} parsed anyway"
        );
    }
    // A batch claiming more entries than its bytes hold is Truncated...
    let mut lying = payload.to_vec();
    lying[17..21].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        batch_view(&lying, &mut scratch),
        Err(WireError::Truncated)
    ));
    // ...and one claiming fewer leaves trailing bytes.
    let mut lying = payload.to_vec();
    lying[17..21].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        batch_view(&lying, &mut scratch),
        Err(WireError::TrailingBytes(_))
    ));
}

#[test]
fn wire_codec_value_types_round_trip() {
    fn rt<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode_into(&mut buf);
        assert_eq!(T::decode(&buf), Some(v));
    }
    rt(0u32);
    rt(7u32);
    rt(u32::MAX);
    rt(0u64);
    rt(u64::MAX);
    rt(0.0f64);
    rt(-1.5f64);
    rt(f64::MAX);
    rt(());
    rt(MisState::Undecided);
    rt(MisState::In);
    rt(MisState::Out);
    // Wrong-width or garbage payloads decode to None, never panic.
    assert_eq!(u32::decode(&[1, 2, 3]), None);
    assert_eq!(u64::decode(&[0; 7]), None);
    assert_eq!(f64::decode(&[]), None);
    assert_eq!(<() as WireCodec>::decode(&[0]), None);
    assert_eq!(MisState::decode(&[3]), None);
    assert_eq!(MisState::decode(&[]), None);
}

#[test]
fn handshake_rejects_a_v5_peer_outright() {
    use std::io::Write as _;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let dialer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        let stale = Frame {
            seq: 0,
            clock: 1,
            msg: Message::PeerHello {
                version: 5,
                rank: 1,
                resume_from: 0,
            },
        };
        s.write_all(&stale.encode()).expect("write hello");
        s
    });
    let (stream, _) = listener.accept().expect("accept");
    let clock = Clock::new();
    let err = accept_handshake(&stream, &clock, 0, |_| 0).expect_err("v5 must be rejected");
    match err {
        NetError::Wire(WireError::VersionMismatch { ours, theirs }) => {
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, 5);
        }
        other => panic!("expected a version mismatch, got {other}"),
    }
    drop(dialer.join().unwrap());
}

// ---------------------------------------------------------------------------
// Loopback clusters

/// A 2-worker split of the paper's 4-cycle: one partition per worker,
/// shared explicitly with the in-process engine for exact comparisons.
fn c4_assignment() -> Vec<u32> {
    vec![0, 0, 1, 1]
}

fn cluster(graph: &Graph, technique: Technique, workload: Workload) -> ClusterOutcome {
    let mut cfg = ClusterConfig::new(2, technique, workload);
    cfg.partitions_per_worker = 1;
    cfg.explicit_partitions = Some(c4_assignment());
    run_cluster(graph, &cfg).expect("cluster run")
}

/// An explicit assignment that is too short, or names a partition the
/// layout does not have, is a configuration error on every host — the
/// thread engine, the simulator and the cluster share one placement rule —
/// never a panic.
#[test]
fn malformed_explicit_partitions_are_errors_on_every_host() {
    let g = Arc::new(gen::paper_c4());
    for bad in [vec![0, 0, 1], vec![0, 0, 1, 2]] {
        let config = EngineConfig {
            workers: 2,
            partitions_per_worker: Some(1),
            explicit_partitions: Some(bad.iter().map(|&p| PartitionId::new(p)).collect()),
            ..EngineConfig::default()
        };
        assert!(
            matches!(
                Engine::new(Arc::clone(&g), GreedyColoring, config.clone()),
                Err(EngineError::InvalidConfig(_))
            ),
            "engine accepted {bad:?}"
        );
        assert!(
            matches!(
                simulate(
                    Arc::clone(&g),
                    GreedyColoring,
                    None,
                    &config,
                    &SimOptions::default()
                ),
                Err(EngineError::InvalidConfig(_))
            ),
            "simulator accepted {bad:?}"
        );
        let mut cfg = ClusterConfig::new(2, Technique::PartitionLock, Workload::Coloring);
        cfg.partitions_per_worker = 1;
        cfg.explicit_partitions = Some(bad.clone());
        assert!(
            matches!(run_cluster(&g, &cfg), Err(NetError::Config(_))),
            "cluster accepted {bad:?}"
        );
    }
}

#[test]
fn all_four_techniques_color_properly_and_serializably_over_tcp() {
    let g = gen::paper_c4();
    for technique in TECHNIQUES {
        let out = cluster(&g, technique, Workload::Coloring);
        assert!(out.converged, "{technique:?} did not converge");
        let colors: Vec<u32> = out.typed_values();
        assert_eq!(
            validate::coloring_conflicts(&g, &colors),
            0,
            "{technique:?} produced conflicts"
        );
        let history = out.history.expect("history recorded");
        assert!(
            history.is_one_copy_serializable(&g),
            "{technique:?} violated 1SR over the wire"
        );
    }
}

#[test]
fn token_techniques_match_the_in_process_engine_exactly() {
    // Token passing with one compute thread per worker is deterministic:
    // cross-worker neighbor reads are token-serialized. So the three hosts
    // of the one superstep cycle — thread engine, simulator, cluster —
    // must agree bit for bit on values, supersteps and every message
    // counter, and the two virtual-time hosts on the makespan to the
    // nanosecond. The expected numbers were measured before the hosts
    // shared that cycle, when each still hand-wrote its own loop.
    let cases = [
        (
            gen::paper_c4(),
            c4_assignment(),
            [5, 9, 4, 4, 2],
            12_542_280,
        ),
        (
            gen::grid(6, 6),
            (0..36).map(|v| (v / 3) % 2).collect(),
            [5, 105, 108, 12, 2],
            12_556_560,
        ),
    ];
    let tally = |supersteps: u64, m: &serigraph::sg_metrics::MetricsSnapshot| {
        [
            supersteps,
            m.vertex_executions,
            m.local_messages,
            m.remote_messages,
            m.remote_batches,
        ]
    };
    for (g, assignment, counts, makespan_ns) in cases {
        for technique in [Technique::SingleToken, Technique::DualToken] {
            let config = EngineConfig {
                workers: 2,
                partitions_per_worker: Some(1),
                threads_per_worker: 1,
                technique,
                explicit_partitions: Some(
                    assignment.iter().map(|&p| PartitionId::new(p)).collect(),
                ),
                ..EngineConfig::default()
            };
            let graph = Arc::new(g.clone());
            let local = Engine::new(Arc::clone(&graph), GreedyColoring, config.clone())
                .expect("engine config")
                .run();
            let sim = simulate(graph, GreedyColoring, None, &config, &SimOptions::default())
                .expect("sim config")
                .outcome;
            let mut cfg = ClusterConfig::new(2, technique, Workload::Coloring);
            cfg.partitions_per_worker = 1;
            cfg.explicit_partitions = Some(assignment.clone());
            let wire = run_cluster(&g, &cfg).expect("cluster run");

            let at = format!("{technique:?} on {} vertices", g.num_vertices());
            assert!(local.converged && sim.converged && wire.converged, "{at}");
            assert_eq!(sim.values, local.values, "{at}: sim vs engine values");
            assert_eq!(
                wire.typed_values::<u32>(),
                local.values,
                "{at}: networked and in-process colorings diverged"
            );
            assert_eq!(
                tally(local.supersteps, &local.metrics),
                counts,
                "{at}: engine"
            );
            assert_eq!(tally(sim.supersteps, &sim.metrics), counts, "{at}: sim");
            assert_eq!(
                tally(wire.supersteps, &wire.metrics),
                counts,
                "{at}: cluster"
            );
            assert_eq!(local.makespan_ns, makespan_ns, "{at}: engine makespan");
            assert_eq!(sim.makespan_ns, makespan_ns, "{at}: sim makespan");
        }
    }
}

#[test]
fn wcc_and_sssp_agree_with_the_in_process_engine() {
    let g = gen::grid(4, 4);
    for technique in [Technique::SingleToken, Technique::PartitionLock] {
        let cfg = ClusterConfig::new(2, technique, Workload::Wcc);
        let wire = run_cluster(&g, &cfg).expect("cluster wcc");
        assert!(wire.converged);
        // WCC converges to the component-minimum label regardless of
        // schedule: every vertex of the grid must read 0.
        assert!(wire.typed_values::<u32>().iter().all(|&c| c == 0));
    }
    let cfg = ClusterConfig::new(2, Technique::DualToken, Workload::Sssp(0));
    let wire = run_cluster(&g, &cfg).expect("cluster sssp");
    let local = Runner::new(g.clone())
        .workers(2)
        .technique(Technique::DualToken)
        .run_sssp(VertexId::new(0))
        .expect("in-process sssp");
    assert_eq!(
        wire.typed_values::<u64>(),
        local.values,
        "shortest-path distances are schedule-independent and must agree"
    );
}

#[test]
fn runner_networked_routes_through_the_cluster() {
    let g = gen::paper_c4();
    let out = Runner::new(g.clone())
        .workers(2)
        .partitions_per_worker(1)
        .technique(Technique::VertexLock)
        .record_history(true)
        .networked(NetworkOptions {
            spawn: SpawnMode::Threads,
            ..NetworkOptions::default()
        })
        .run_coloring()
        .expect("networked runner");
    assert!(out.converged);
    assert_eq!(validate::coloring_conflicts(&g, &out.values), 0);
    assert!(out.history.expect("history").is_one_copy_serializable(&g));
    assert!(
        out.metrics
            .get(serigraph::sg_metrics::Counter::VertexExecutions)
            > 0
    );
}

#[test]
fn networked_runner_rejects_unsupported_programs() {
    let err = Runner::new(gen::paper_c4())
        .networked(NetworkOptions::default())
        .run_triangles()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)));
}

// ---------------------------------------------------------------------------
// Variable-length payload workloads (MIS, PageRank)

#[test]
fn networked_mis_matches_the_in_process_engine_exactly() {
    let g = gen::paper_c4();
    let parts: Vec<PartitionId> = c4_assignment().into_iter().map(PartitionId::new).collect();
    for technique in [Technique::SingleToken, Technique::DualToken] {
        let wire = cluster(&g, technique, Workload::Mis);
        assert!(wire.converged, "{technique:?} did not converge");
        let states: Vec<MisState> = wire.typed_values();
        let local = Runner::new(g.clone())
            .workers(2)
            .partitions_per_worker(1)
            .threads_per_worker(1)
            .technique(technique)
            .explicit_partitions(parts.clone())
            .run_mis()
            .expect("in-process mis");
        assert_eq!(
            states, local.values,
            "{technique:?}: MIS decisions diverged between TCP and in-process"
        );
        let members = serigraph::sg_algos::mis::membership(&states);
        assert!(validate::is_maximal_independent_set(&g, &members));
        let history = wire.history.expect("history recorded");
        assert!(history.is_one_copy_serializable(&g));
    }
}

/// Alternate a directed ring of `n` between two workers: every edge
/// crosses workers, so every vertex is a boundary vertex and execution is
/// fully token-gated — a pure function of the superstep. That makes the
/// f64 message-fold grouping deterministic, which bitwise comparisons
/// need (an internal vertex could consume a racing in-flight batch in
/// either of two supersteps, shifting sums by an ULP).
fn ring_alternating(n: u32) -> Vec<u32> {
    (0..n).map(|v| v % 2).collect()
}

#[test]
fn networked_pagerank_matches_a_combiner_free_in_process_run_bit_for_bit() {
    // A directed ring has in-degree 1, so every vertex folds exactly one
    // message per update and the f64 sums are order-independent: the
    // networked run must reproduce the in-process engine's doubles bit
    // for bit. The in-process side runs WITHOUT the combiner — the wire
    // path folds messages in `compute`, not in a combiner.
    let g = gen::ring(12);
    let threshold = 1e-4;
    let assignment = ring_alternating(12);
    let mut cfg = ClusterConfig::new(2, Technique::SingleToken, Workload::Pagerank(threshold));
    cfg.partitions_per_worker = 1;
    cfg.explicit_partitions = Some(assignment.clone());
    let wire = run_cluster(&g, &cfg).expect("cluster pagerank");
    assert!(wire.converged);
    let local = Runner::new(g.clone())
        .workers(2)
        .partitions_per_worker(1)
        .threads_per_worker(1)
        .technique(Technique::SingleToken)
        .explicit_partitions(assignment.into_iter().map(PartitionId::new).collect())
        .run_program(DeltaPageRank::new(threshold))
        .expect("in-process pagerank");
    let ranks: Vec<f64> = wire.typed_values();
    assert_eq!(ranks.len(), local.values.len());
    for (v, (w, l)) in ranks.iter().zip(&local.values).enumerate() {
        assert_eq!(
            w.to_bits(),
            l.to_bits(),
            "vertex {v}: networked {w} != in-process {l}"
        );
    }
}

#[test]
fn runner_networked_routes_mis_and_pagerank() {
    let g = gen::paper_c4();
    let out = Runner::new(g.clone())
        .workers(2)
        .technique(Technique::SingleToken)
        .networked(NetworkOptions {
            spawn: SpawnMode::Threads,
            ..NetworkOptions::default()
        })
        .run_mis()
        .expect("networked mis");
    assert!(out.converged);
    let members = serigraph::sg_algos::mis::membership(&out.values);
    assert!(validate::is_maximal_independent_set(&g, &members));

    let out = Runner::new(gen::ring(8))
        .workers(2)
        .technique(Technique::PartitionLock)
        .networked(NetworkOptions {
            spawn: SpawnMode::Threads,
            ..NetworkOptions::default()
        })
        .run_pagerank(1e-3)
        .expect("networked pagerank");
    assert!(out.converged);
    let mass: f64 = out.values.iter().sum();
    assert!((mass - 8.0).abs() < 0.1, "pagerank mass drifted: {mass}");
}

// ---------------------------------------------------------------------------
// Fault injection

#[test]
fn a_killed_connection_mid_run_recovers_and_still_serializes() {
    let g = gen::grid(4, 4);
    for technique in [Technique::SingleToken, Technique::PartitionLock] {
        let mut cfg = ClusterConfig::new(2, technique, Workload::Coloring);
        // Hard-kill worker 0's data connection at its third data-plane
        // frame: the link redials, resumes from the receiver's watermark,
        // and retransmits the unacked tail.
        cfg.faults = vec![(0, parse_fault_plan("kill=2").expect("fault spec"))];
        let out = run_cluster(&g, &cfg).expect("faulted run");
        assert!(out.converged, "{technique:?} with a killed connection");
        let colors: Vec<u32> = out.typed_values();
        assert_eq!(validate::coloring_conflicts(&g, &colors), 0);
        assert!(out.history.expect("history").is_one_copy_serializable(&g));
    }
}

#[test]
fn dropped_duplicated_and_delayed_frames_are_absorbed() {
    let g = gen::grid(4, 4);
    let mut cfg = ClusterConfig::new(2, Technique::DualToken, Workload::Coloring);
    cfg.faults = vec![
        (
            0,
            parse_fault_plan("drop=0,dup=1,delay=2:30").expect("spec"),
        ),
        (1, parse_fault_plan("drop=1,dup=2").expect("spec")),
    ];
    let out = run_cluster(&g, &cfg).expect("faulted run");
    assert!(out.converged);
    let colors: Vec<u32> = out.typed_values();
    assert_eq!(validate::coloring_conflicts(&g, &colors), 0);
    assert!(out.history.expect("history").is_one_copy_serializable(&g));

    // Determinism under token passing: the faulted run's values match a
    // fault-free run of the same configuration.
    let clean = run_cluster(
        &g,
        &ClusterConfig::new(2, Technique::DualToken, Workload::Coloring),
    )
    .expect("clean run");
    assert_eq!(out.values, clean.values);
}

#[test]
fn faults_on_pooled_links_replay_variable_length_payloads_byte_identically() {
    // PageRank ships 8-byte f64 payloads through the pooled retransmit
    // tail; a faulted run must land on exactly the clean run's encoded
    // value bytes — dropped frames recovered by fence retransmit, the
    // duplicate deduplicated, the killed connection redialed and resumed.
    let g = gen::ring(12);
    let threshold = 1e-4;
    let assignment = ring_alternating(12);
    let mut cfg = ClusterConfig::new(2, Technique::SingleToken, Workload::Pagerank(threshold));
    cfg.partitions_per_worker = 1;
    cfg.explicit_partitions = Some(assignment.clone());
    cfg.faults = vec![
        (0, parse_fault_plan("drop=1,dup=3,kill=6").expect("spec")),
        (1, parse_fault_plan("drop=2,delay=4:20").expect("spec")),
    ];
    let faulted = run_cluster(&g, &cfg).expect("faulted run");
    assert!(faulted.converged);
    cfg.faults = Vec::new();
    let clean = run_cluster(&g, &cfg).expect("clean run");
    assert_eq!(
        faulted.values, clean.values,
        "retransmitted variable-length payloads must replay byte-identically"
    );
}

// ---------------------------------------------------------------------------
// Streaming audit plane

/// Acceptance gate for the live audit plane: for every real technique the
/// final streamed verdict equals the post-hoc Theorem 1 check over the
/// merged history — exact summary equality, not just the 1SR bit.
#[test]
fn live_audit_verdict_matches_post_hoc_for_every_technique() {
    let g = gen::paper_c4();
    for technique in TECHNIQUES {
        let mut cfg = ClusterConfig::new(2, technique, Workload::Coloring);
        cfg.partitions_per_worker = 1;
        cfg.explicit_partitions = Some(c4_assignment());
        cfg.audit_interval_ms = 5;
        let out = run_cluster(&g, &cfg).expect("cluster run");
        let live = out.audit.expect("live audit verdict");
        let post = out.history.expect("history").summarize(&g);
        assert_eq!(
            live, post,
            "{technique:?}: live and post-hoc verdicts diverged"
        );
        assert!(live.one_copy_serializable, "{technique:?} must serialize");
    }
}

/// The unsynchronized control: no technique, four workers, buffered remote
/// delivery. The audit stream must carry the violation to the coordinator
/// (stale reads at minimum — Section 3.5 lazy replica updates), the live
/// verdict must agree with the post-hoc check, and every violation must
/// leave a sentinel line in the JSONL log.
#[test]
fn unsynchronized_control_is_flagged_by_the_live_audit() {
    let g = gen::grid(4, 4);
    let log = std::env::temp_dir().join(format!("sg-audit-sentinel-{}.jsonl", std::process::id()));
    let mut cfg = ClusterConfig::new(4, Technique::None, Workload::Coloring);
    cfg.audit_interval_ms = 5;
    cfg.audit_log = Some(log.to_string_lossy().into_owned());
    let out = run_cluster(&g, &cfg).expect("cluster run");
    let live = out.audit.expect("live audit verdict");
    let post = out.history.expect("history").summarize(&g);
    assert_eq!(live, post, "live and post-hoc verdicts diverged");
    assert!(
        !live.one_copy_serializable,
        "plain AP across 4 workers must violate 1SR"
    );
    // Which condition trips first is timing-dependent (stale reads vs
    // neighbor overlap vs a cycle), but at least one must have.
    assert!(live.c1_violations + live.c2_violations > 0 || !live.serialization_graph_acyclic);
    let sentinels = std::fs::read_to_string(&log).expect("sentinel log written");
    let _ = std::fs::remove_file(&log);
    assert!(
        sentinels.lines().any(|l| l.contains("\"kind\"")),
        "violations must leave JSONL sentinel lines, got: {sentinels:?}"
    );
}

/// The audit plane refuses to run blind: a nonzero interval without
/// history recording is a configuration error, not a silent no-op.
#[test]
fn audit_without_history_is_rejected() {
    let mut cfg = ClusterConfig::new(2, Technique::VertexLock, Workload::Coloring);
    cfg.record_history = false;
    cfg.audit_interval_ms = 5;
    let err = run_cluster(&gen::paper_c4(), &cfg).unwrap_err();
    assert!(format!("{err}").contains("record_history"));
}
