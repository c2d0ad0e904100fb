//! The networked runtime, end to end: wire-codec round trips over every
//! protocol message, malformed-input rejection, loopback TCP clusters
//! running all four techniques with results cross-checked against the
//! in-process engine, and deterministic fault injection (dropped,
//! duplicated, delayed frames; a killed connection mid-run) recovering to
//! the same answers.

use serigraph::prelude::*;
use serigraph::sg_algos::{validate, MisState};
use serigraph::sg_net::link::{accept_handshake, CtrlConn, FrameReader, PeerHandler, PeerLink};
use serigraph::sg_net::wire::{
    batch_view, peek_header, read_frame, FaultPlan, WireMetricRow, WireTraceEvent, WireTxn,
    MAX_FRAME_LEN, QUERY_OP_MULTI_LOOKUP,
};
use serigraph::sg_net::{
    parse_fault_plan, run_cluster, worker_main, BatchFrame, BatchView, Clock, ClusterConfig,
    ClusterOutcome, FaultInjector, Frame, Message, MsgBatch, NetError, RunSpec, SpawnMode,
    WireCodec, WireError, Workload, PROTOCOL_VERSION,
};
use serigraph::sg_sim::simulate;
use serigraph::NetworkOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        },
        Message::AcquireUnit { unit: 42 },
        Message::ReleaseUnit { unit: 42 },
        Message::FlushDone { flush_seq: 7 },
        Message::ValuesUpload {
            values: vec![(0, vec![11, 0, 0, 0]), (5, Vec::new())],
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
                offsets: vec![0, 1, 2, 2, 2],
                targets: vec![1, 0],
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
        Message::Halt,
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
                stale: vec![1, 3],
            }],
            watermark: 0x500,
        },
        Message::QueryRequest {
            id: 9,
            op: 2,
            a: 3,
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
    // All 26 kinds, no duplicates: the list genuinely covers the protocol.
    let mut kinds: Vec<u8> = msgs.iter().map(Message::kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 26, "message list must cover every wire kind");

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

/// The exact v8 bytes of [`every_message`] as the hand-written codec wrote
/// them, length prefix included: frame `i` at seq `i + 1`, clock `1000 + i`.
/// A layout change made to the encoder and the decoder at once survives
/// every round trip; it cannot survive this.
const V8_GOLDEN: [&str; 26] = [
    // Hello (kind 1)
    "28000000010100000000000000e80300000000000008030000000e0000003132372e302e302e313a\
     34353637",
    // ComputeDone (kind 2)
    "19000000020200000000000000e9030000000000000900000000000000",
    // BarrierVote (kind 3)
    "21000000030300000000000000ea0300000000000009000000000000001100000000000000",
    // AcquireUnit (kind 4)
    "15000000040400000000000000eb030000000000002a000000",
    // ReleaseUnit (kind 5)
    "15000000050500000000000000ec030000000000002a000000",
    // FlushDone (kind 6)
    "19000000060600000000000000ed030000000000000700000000000000",
    // ValuesUpload (kind 7)
    "29000000070700000000000000ee030000000000000200000000000000040000000b000000050000\
     0000000000",
    // MetricsUpload (kind 9)
    "35000000090800000000000000ef0300000000000004000000000000000000000001000000000000\
     0002000000000000000300000000000000",
    // TraceUpload (kind 10)
    "3e0000000a0900000000000000f00300000000000001000000010000000200000000000000016400\
     00000000000032000000000000000700000000000000ffffffff",
    // Setup (kind 11)
    "f30000000b0a00000000000000f10300000000000004000000050000000000000000000000010000\
     00000000000200000000000000020000000000000002000000000000000200000001000000000000\
     00040000000000000000000000010000000100000002000000010000000c00000073696e676c652d\
     746f6b656e08000000636f6c6f72696e670000000000000000640000000000000040000000000000\
     000100000000000000007b0000000000000001000000010000000000000001000000020000000000\
     00000100000003000000000000000a00000000000000010400000000000000fa0000000000000019\
     00000000000000",
    // PeerMap (kind 12)
    "3b0000000c0b00000000000000f20300000000000002000000000000000b0000003132372e302e30\
     2e313a31010000000b0000003132372e302e302e313a32",
    // StartSuperstep (kind 13)
    "190000000d0c00000000000000f3030000000000000100000000000000",
    // ReportRequest (kind 14)
    "190000000e0d00000000000000f4030000000000000100000000000000",
    // UnitGranted (kind 15)
    "150000000f0e00000000000000f50300000000000008000000",
    // FlushForks (kind 16)
    "26000000100f00000000000000f603000000000000010000000500000000000000010c0000000000\
     0000",
    // Halt (kind 18)
    "11000000121000000000000000f703000000000000",
    // PeerHello (kind 19)
    "1e000000131100000000000000f80300000000000008010000000600000000000000",
    // BatchFlush (kind 20)
    "35000000141200000000000000f90300000000000002000000010000000200000008000000030000\
     0000000000040000000500000000000000",
    // FlushPing (kind 21)
    "19000000151300000000000000fa030000000000000200000000000000",
    // FlushAck (kind 22)
    "21000000161400000000000000fb0300000000000002000000000000000e00000000000000",
    // TelemetryUpload (kind 25)
    "4c000000191500000000000000fc03000000000000010000001300000073675f776f726b65725f73\
     75706572737465700100000006000000776f726b6572010000003101010000000500000000000000",
    // Heartbeat (kind 24)
    "19000000181600000000000000fd0300000000000040e2010000000000",
    // HeartbeatAck (kind 26)
    "210000001a1700000000000000fe0300000000000040e20100000000005800000000000000",
    // AuditUpload (kind 27)
    "3d0000001b1800000000000000ff0300000000000001000000040000000103000000000000020400\
     00000000000200000001000000030000000005000000000000",
    // QueryRequest (kind 28)
    "320000001c1900000000000000000400000000000009000000000000000203000000000000000300\
     0000010000000200000003000000",
    // QueryResponse (kind 29)
    "3e0000001d1a00000000000000010400000000000009000000000000000102000000070000000000\
     0000ffffffffffffffffcdab0000000000000200000000000000",
];

#[test]
fn every_message_kind_encodes_to_its_v8_golden_bytes() {
    for (i, (msg, want)) in every_message().into_iter().zip(V8_GOLDEN).enumerate() {
        let frame = Frame {
            seq: i as u64 + 1,
            clock: 1000 + i as u64,
            msg,
        };
        let got: String = frame.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, want, "kind {} left its v8 layout", frame.msg.kind());
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
    // Unknown kind bytes, the three v8 retired (history upload, request-token
    // relay, request token) among them.
    for kind in [0xEE, 8, 17, 23] {
        let mut bytes = Frame {
            seq: 1,
            clock: 1,
            msg: Message::Heartbeat { echo_ns: 0 },
        }
        .encode();
        bytes[4] = kind;
        assert_eq!(Frame::decode(&bytes[4..]), Err(WireError::BadKind(kind)));
    }

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

/// The worker's send path writes each entry straight into the frame
/// ([`BatchFrame`]): the bytes must be exactly what encoding a
/// `BatchFlush` of the same entries gives, and the receive path must read
/// the entries back — at zero entries, one, zero-length payloads and a
/// full 512-message run.
#[test]
fn a_batch_written_in_place_is_the_encoded_batch_flush_frame() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let word = |i: u32| {
        u64::from(i)
            .wrapping_mul(0x0101_0101)
            .to_le_bytes()
            .to_vec()
    };
    type Entries = Vec<(u32, u32, Vec<u8>)>;
    let cases: Vec<(&str, Entries)> = vec![
        ("empty", Vec::new()),
        ("one entry", vec![(7, 3, 42u64.to_le_bytes().to_vec())]),
        (
            "zero-length payloads",
            (0..5).map(|i| (i, 9 - i, Vec::new())).collect(),
        ),
        (
            "512 entries",
            (0..512u32)
                .map(|i| {
                    let len = (rng() % 24) as usize;
                    let payload = if i % 3 == 0 {
                        word(i)
                    } else {
                        vec![i as u8; len]
                    };
                    (rng() as u32, rng() as u32, payload)
                })
                .collect(),
        ),
    ];
    for (name, entries) in cases {
        let (seq, clock) = (0x0102_0304_0506_0708, u64::MAX - 5);
        let mut direct = vec![0xEE; 3]; // begin clears what the pool left
        let mut frame = BatchFrame::begin(&mut direct, seq, clock, entries.len());
        for (to, from, payload) in &entries {
            frame.push(*to, *from, |buf| buf.extend_from_slice(payload));
        }
        frame.finish();

        let mut batch = MsgBatch::new();
        for (to, from, payload) in &entries {
            batch.push(*to, *from, payload);
        }
        let mut encoded = Vec::new();
        let msg = Message::BatchFlush { batch };
        serigraph::sg_net::wire::encode_frame_into(seq, clock, &msg, &mut encoded);
        assert_eq!(direct, encoded, "{name}: bytes differ");

        let payload = &direct[4..];
        let header = peek_header(payload).expect("header");
        assert!(header.is_batch() && header.seq == seq && header.clock == clock);
        let view = batch_view(payload, &mut Vec::new()).expect("batch view");
        assert_eq!(view.len(), entries.len(), "{name}");
        for (got, want) in view.iter().zip(&entries) {
            assert_eq!(got, (want.0, want.1, want.2.as_slice()), "{name}");
        }
        let decoded = Frame::decode(payload).expect("decodes as a frame");
        assert_eq!(decoded.msg, msg, "{name}");
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
    // Every earlier wire is refused the same way, the one just before this
    // one (v7: transactions shipped twice, request tokens relayed) included.
    for stale_version in [5, PROTOCOL_VERSION - 1] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let dialer = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            let stale = Frame {
                seq: 0,
                clock: 1,
                msg: Message::PeerHello {
                    version: stale_version,
                    rank: 1,
                    resume_from: 0,
                },
            };
            s.write_all(&stale.encode()).expect("write hello");
            s
        });
        let (stream, _) = listener.accept().expect("accept");
        let clock = Clock::new();
        let err = accept_handshake(&stream, &clock, 0, |_| 0).expect_err("must be rejected");
        match err {
            NetError::Wire(WireError::VersionMismatch { ours, theirs }) => {
                assert_eq!(ours, PROTOCOL_VERSION);
                assert_eq!(theirs, stale_version);
            }
            other => panic!("expected a version mismatch, got {other}"),
        }
        drop(dialer.join().unwrap());
    }
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

/// Bring-up and teardown wait on the events they are for — a `Hello`, a
/// peer's dial, the end of the run — not on polling ticks: a 2-rank run on
/// a 16-vertex graph ends well inside the 100 ms the maintenance thread
/// sleeps between passes. The fastest of five runs is what is bounded, so
/// one slow scheduling on a loaded host does not fail it.
#[test]
fn a_small_cluster_run_waits_out_no_timer() {
    let g = gen::grid(4, 4);
    let cfg = ClusterConfig::new(2, Technique::PartitionLock, Workload::Coloring);
    let fastest = (0..5)
        .map(|_| {
            let t = Instant::now();
            run_cluster(&g, &cfg).expect("cluster run");
            t.elapsed()
        })
        .min()
        .expect("five runs");
    assert!(
        fastest < Duration::from_millis(90),
        "fastest of five runs took {fastest:?}"
    );
}

/// An untraced run reads no clock per execution, yet still reports its
/// compute time: each rank's `sg_worker_compute_ns_total` (its partition
/// walks less their lock waits) is nonzero and fits inside the run.
#[test]
fn an_untraced_run_still_counts_its_compute_time() {
    let g = gen::grid(8, 8);
    for technique in [Technique::VertexLock, Technique::DualToken] {
        let cfg = ClusterConfig::new(2, technique, Workload::Coloring);
        let t = Instant::now();
        let out = run_cluster(&g, &cfg).expect("cluster run");
        let wall = t.elapsed().as_nanos() as u64;
        assert!(out.trace_events.is_empty(), "the run must be untraced");
        let telemetry = out.telemetry.expect("final telemetry");
        for rank in ["0", "1"] {
            let compute = telemetry.get("sg_worker_compute_ns_total", &[("worker", rank)]);
            let Some(serigraph::sg_metrics::MetricValue::Counter(ns)) = compute else {
                panic!("{technique:?}: rank {rank} reported no compute counter: {compute:?}");
            };
            assert!(
                *ns > 0 && *ns <= wall,
                "{technique:?}: rank {rank} computed {ns} ns of a {wall} ns run"
            );
        }
    }
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
    // counter, and the simulator — the one virtual-time host — on the
    // makespan to the nanosecond. The expected numbers were measured
    // before the hosts shared that cycle, when each still hand-wrote its
    // own loop.
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
fn networked_pagerank_matches_the_in_process_runner_bit_for_bit() {
    // A directed ring has in-degree 1, so every vertex folds exactly one
    // message per update — the combiner both hosts run has nothing to
    // merge and the f64 sums are order-independent: the networked run must
    // reproduce `Runner::run_pagerank`'s doubles bit for bit.
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
        .run_pagerank(threshold)
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

/// Where in-degree is far above 1 the combiner really merges, on both
/// hosts. `min` is order-free, so WCC and SSSP over TCP equal the
/// in-process engine exactly whatever the schedule; PageRank's sums are
/// not, so it is held to the fixed point with the benchmark's tolerances
/// (`perf/src/run.rs`, `pagerank_ok`).
#[test]
fn combined_inboxes_agree_with_the_in_process_engine_on_a_skewed_graph() {
    let directed = gen::rmat(10, 8_000, gen::datasets::SKEW, 0x5EED);
    let undirected = directed.to_undirected();
    let hub = undirected
        .vertices()
        .max_by_key(|&v| undirected.in_degree(v));
    assert!(undirected.in_degree(hub.expect("vertices")) > 100);
    let on = |g: &Graph, technique: Technique, tcp: bool| {
        let runner = Runner::new(g.clone())
            .workers(2)
            .partitions_per_worker(2)
            .threads_per_worker(1)
            .technique(technique);
        if tcp {
            runner.networked(NetworkOptions::default())
        } else {
            runner
        }
    };
    let lock = Technique::PartitionLock;
    let (wire, local) = (on(&undirected, lock, true), on(&undirected, lock, false));
    let (w, l) = (
        wire.run_wcc().expect("tcp"),
        local.run_wcc().expect("local"),
    );
    assert!(w.converged && l.converged);
    assert_eq!(w.values, l.values, "WCC labels diverged");
    let source = VertexId::new(0);
    let (w, l) = (wire.run_sssp(source), local.run_sssp(source));
    assert_eq!(w.expect("tcp").values, l.expect("local").values, "SSSP");

    let ranks = on(&directed, lock, true).run_pagerank(0.01).expect("tcp");
    assert!(ranks.converged);
    let want = validate::pagerank_reference(&directed, 1e-9, 500);
    let (mut short, mut total) = (0.0f64, 0.0f64);
    for (v, (got, want)) in ranks.values.iter().zip(&want).enumerate() {
        assert!(
            got.is_finite() && *got <= want + 1e-6,
            "vertex {v} overshot"
        );
        assert!((want - got) / want <= 0.25, "vertex {v}: {got} vs {want}");
        short += want - got;
        total += want;
    }
    assert!(short / total <= 0.15, "{short} of {total} mass missing");

    // Under token passing with one compute thread per worker the schedule
    // is a function of the superstep, so the two hosts must send exactly
    // the same messages — counted at the send, before any combining — and
    // neither folds sender-side: the receiver's inbox combines.
    let token = Technique::SingleToken;
    let w = on(&undirected, token, true).run_wcc().expect("tcp");
    let l = on(&undirected, token, false).run_wcc().expect("local");
    assert_eq!(w.values, l.values);
    assert!(l.metrics.remote_messages > 0);
    assert_eq!(w.metrics.local_messages, l.metrics.local_messages);
    assert_eq!(w.metrics.remote_messages, l.metrics.remote_messages);
    assert_eq!(
        (w.metrics.sender_combines, l.metrics.sender_combines),
        (0, 0)
    );
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
// One real rank, hand-driven

/// Rank 1 of a two-rank WCC run with no technique (no lock RPCs, no
/// gating), as a real `worker_main` thread; the test is its coordinator
/// and its only peer. The graph is 0–1 and 2–3: the test "owns" vertex 0,
/// the worker owns 1, 2 and 3.
struct Puppet {
    ctrl: CtrlConn,
    reader: FrameReader,
    /// Rank 0's end of the data-plane link, dialled by the test.
    link: PeerLink,
    fences: u64,
    worker: std::thread::JoinHandle<Result<(), NetError>>,
}

/// What rank 1 sends rank 0 is of no interest here.
struct Ignore;
impl PeerHandler for Ignore {
    fn on_batch(&self, _from: u32, _batch: BatchView<'_>) {}
}

/// Play coordinator to a real `worker_main` rank 1 up to the end of
/// bring-up: take its `Hello`, send it the puppet's `Setup` — as `edit`
/// leaves it — and the peer map, as `edit_peers` leaves it. Every read on
/// the control link is bounded, so a rank that stops answering fails the
/// test instead of hanging it.
fn greet(
    edit: impl FnOnce(&mut RunSpec),
    edit_peers: impl FnOnce(&mut Vec<(u32, String)>),
) -> (
    CtrlConn,
    FrameReader,
    String,
    Arc<Clock>,
    std::thread::JoinHandle<Result<(), NetError>>,
) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let coord_addr = listener.local_addr().expect("addr").to_string();
    let worker = std::thread::spawn(move || worker_main(&coord_addr, 1));
    let (stream, _) = listener.accept().expect("worker connects");
    let clock = Arc::new(Clock::new());
    let (ctrl, read_half) = CtrlConn::new(stream, Arc::clone(&clock)).expect("ctrl");
    let bound = Some(Duration::from_secs(10));
    read_half.set_read_timeout(bound).expect("read timeout");
    let mut reader = FrameReader::new(read_half, Arc::clone(&clock));
    let Some(Message::Hello {
        rank: 1, data_addr, ..
    }) = reader.recv().expect("hello")
    else {
        panic!("expected rank 1's Hello");
    };
    let graph = Graph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    let (offsets, targets) = graph.out_csr();
    let mut spec = RunSpec {
        num_vertices: 4,
        offsets: offsets.to_vec(),
        targets: targets.iter().map(|t| t.raw()).collect(),
        assignment: vec![0, 1, 1, 1],
        workers: 2,
        partitions_per_worker: 1,
        technique: "none".into(),
        workload: "wcc".into(),
        workload_arg: 0,
        max_supersteps: 100,
        buffer_cap: 64,
        record_history: false,
        trace_capacity: 0,
        epoch_ns: 0,
        fault: FaultPlan::default(),
        telemetry_interval_ms: 0,
        audit_interval_ms: 0,
    };
    edit(&mut spec);
    let setup = Message::Setup {
        spec: Box::new(spec),
    };
    ctrl.send(&setup).expect("setup");
    // The lower rank dials, so rank 1 never uses rank 0's address.
    let mut peers = vec![(0, "127.0.0.1:1".to_string()), (1, data_addr.clone())];
    edit_peers(&mut peers);
    ctrl.send(&Message::PeerMap { peers }).expect("peer map");
    (ctrl, reader, data_addr, clock, worker)
}

impl Puppet {
    fn join() -> Puppet {
        let (ctrl, reader, data_addr, clock, worker) = greet(|_| {}, |_| {});
        let fault = Arc::new(FaultInjector::none());
        let link = PeerLink::new(0, 1, data_addr, clock, fault, Arc::new(Ignore), None);
        // The worker's accept thread starts after it has built its graph.
        let deadline = Instant::now() + Duration::from_secs(10);
        while link.dial().is_err() {
            assert!(Instant::now() < deadline, "rank 1 never accepted");
            std::thread::sleep(Duration::from_millis(10));
        }
        Puppet {
            ctrl,
            reader,
            link,
            fences: 0,
            worker,
        }
    }

    /// Ship one batch as rank 0 and wait until rank 1 has applied it.
    fn deliver(&mut self, entries: &[(u32, u32, &[u8])]) {
        let batch = batch_of(entries);
        self.link.send(Message::BatchFlush { batch });
        self.fences += 1;
        let timeout = Duration::from_secs(10);
        self.link.flush_fence(self.fences, timeout).expect("fence");
    }

    /// Rank 1's barrier vote: its active vertices. The vote also sets the
    /// rank's `sg_worker_pending_messages`, which [`Puppet::halt`] reads.
    fn vote(&mut self) -> u64 {
        let ask = Message::ReportRequest { superstep: 0 };
        self.ctrl.send(&ask).expect("report request");
        match self.reader.recv().expect("vote") {
            Some(Message::BarrierVote { active, .. }) => active,
            other => panic!("expected a vote, got {other:?}"),
        }
    }

    fn superstep(&mut self, superstep: u64) {
        let start = Message::StartSuperstep { superstep };
        self.ctrl.send(&start).expect("start");
        match self.reader.recv().expect("compute done") {
            Some(Message::ComputeDone { superstep: s }) if s == superstep => {}
            other => panic!("expected ComputeDone({superstep}), got {other:?}"),
        }
    }

    /// Halt the rank; returns its WCC labels by vertex and, from its final
    /// telemetry, `sg_worker_rejected_messages_total` and the
    /// `sg_worker_pending_messages` its last vote set.
    fn halt(mut self) -> (Vec<(u32, u32)>, u64, u64) {
        self.ctrl.send(&Message::Halt).expect("halt");
        let (mut labels, mut gauges) = (Vec::new(), None);
        loop {
            match self
                .reader
                .recv()
                .expect("upload")
                .expect("goodbye before EOF")
            {
                Message::ValuesUpload { values } => labels.extend(
                    values
                        .iter()
                        .map(|(v, bytes)| (*v, u32::decode(bytes).expect("a u32 label"))),
                ),
                Message::TelemetryUpload { rows } => {
                    let row = |name: &str| {
                        let row = rows.iter().find(|r| r.name == name);
                        row.map(|r| r.values[0]).expect("the row is exported")
                    };
                    gauges = Some((
                        row("sg_worker_rejected_messages_total"),
                        row("sg_worker_pending_messages"),
                    ));
                }
                Message::ComputeDone {
                    superstep: u64::MAX,
                } => break,
                _ => {}
            }
        }
        self.link.shutdown();
        self.worker.join().expect("worker thread").expect("worker");
        let (rejected, pending) = gauges.expect("final telemetry");
        (labels, rejected, pending)
    }
}

/// What a peer sends that the rank cannot take is counted, the rest of
/// the same batch lands, and nothing panics.
#[test]
fn forged_batch_entries_are_counted_and_the_rest_still_land() {
    let mut rank1 = Puppet::join();
    let label = |l: u32| l.to_le_bytes();
    rank1.deliver(&[
        (1, 0, &label(0)),  // well-formed, from its real neighbour
        (0, 0, &label(0)),  // vertex 0 is rank 0's own
        (99, 0, &label(0)), // no such vertex
        (1, 0, &[1, 2, 3]), // three bytes are not a u32
        (2, 0, &[]),        // nor are none
        (3, 0, &label(2)),  // well-formed
    ]);
    assert_eq!(rank1.vote(), 3);
    rank1.superstep(0);
    let (labels, rejected, pending) = rank1.halt();
    assert_eq!(pending, 2, "two entries landed");
    assert_eq!(rejected, 4);
    // Vertex 1 took the 0 it was sent; 3 kept what 2 sent it (2) over the
    // peer's equal 2.
    assert_eq!(labels, [(1, 0), (2, 2), (3, 2)]);
}

/// `pending` is the stores' `total()`: what is queued after combining. A
/// message merged into the slot of a vertex that has voted to halt wakes
/// it like any other, and the rank still drains to quiescence.
#[test]
fn a_combined_inbox_votes_its_envelopes_and_reaches_quiescence() {
    let label = |l: u32| l.to_le_bytes();
    let three: [(u32, u32, &[u8]); 3] = [(2, 0, &label(9)), (2, 0, &label(7)), (2, 0, &label(8))];
    let mut rank1 = Puppet::join();
    rank1.deliver(&three);
    assert_eq!(rank1.vote(), 3);
    let (_, _, pending) = rank1.halt();
    assert_eq!(pending, 1, "three messages, one envelope");

    let mut rank1 = Puppet::join();
    rank1.deliver(&three);
    assert_eq!(rank1.vote(), 3);
    // Superstep 0: 2 and 3 exchange labels; the run leaves 3's announcement
    // of 2 queued at 2, which has halted.
    rank1.superstep(0);
    assert_eq!(rank1.vote(), 1);
    // Merge a smaller label into that slot, and one into 3's empty one.
    rank1.deliver(&[(2, 0, &label(1)), (3, 0, &label(1))]);
    assert_eq!(rank1.vote(), 2);
    rank1.superstep(1);
    // 2 woke, adopted 1 and told 3; 3 adopted it and told 2, which has
    // halted again: one message is left, and the next superstep consumes it.
    assert_eq!(rank1.vote(), 1);
    rank1.superstep(2);
    assert_eq!(rank1.vote(), 0, "quiescent");
    let (labels, rejected, pending) = rank1.halt();
    assert_eq!(pending, 0, "quiescent");
    assert_eq!(labels, [(1, 1), (2, 1), (3, 1)]);
    assert_eq!(rejected, 0);
}

/// `stamp` keeps one byte of the rank, so a rank refuses a `Setup` naming
/// more than 255 workers before it sizes anything by that count: ranks 0
/// and 256 would stamp identical transaction intervals.
#[test]
fn a_setup_naming_more_than_255_workers_is_refused() {
    let (_ctrl, _reader, _, _, worker) = greet(|s| s.workers = 300, |_| {});
    match worker.join().expect("the rank must not panic") {
        Err(NetError::Protocol(why)) => {
            assert!(
                why.starts_with("Setup layout: ") && why.contains("1..=255"),
                "{why}"
            );
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn a_malformed_setup_is_a_protocol_error_not_a_panic() {
    // What `ClusterLayout::new` and `PartitionMap::from_assignment` assert,
    // a rank checks first: its coordinator is another process.
    type Edit = fn(&mut RunSpec);
    let cases: [(&str, Edit); 5] = [
        ("assignment: 3 entries for 4", |s| s.assignment.truncate(3)),
        ("assignment: vertex 2 in partition 2 of 2", |s| {
            s.assignment[2] = 2
        }),
        ("layout: 0 workers", |s| s.workers = 0),
        ("layout: 2 workers x 0", |s| s.partitions_per_worker = 0),
        ("layout: 65536 workers x 65536", |s| {
            (s.workers, s.partitions_per_worker) = (1 << 16, 1 << 16)
        }),
    ];
    for (want, edit) in cases {
        let (_ctrl, _reader, _, _, worker) = greet(edit, |_| {});
        match worker.join().expect("the rank must not panic") {
            Err(NetError::Protocol(why)) => {
                assert!(why.starts_with("Setup ") && why.contains(want), "{why}");
            }
            other => panic!("{want}: expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn a_malformed_peer_map_is_a_protocol_error_not_a_panic() {
    // The mesh indexes its links by rank: a map must name each of 0..workers
    // exactly once, and a rank checks that before it builds a link.
    type Edit = fn(&mut Vec<(u32, String)>);
    let cases: [(&str, Edit); 3] = [
        ("[0, 1, 7]", |p| p.push((7, "127.0.0.1:7".into()))),
        ("[1, 1]", |p| p[0].0 = 1),
        ("[1]", |p| drop(p.remove(0))),
    ];
    for (want, edit) in cases {
        let (_ctrl, _reader, _, _, worker) = greet(|_| {}, edit);
        match worker.join().expect("the rank must not panic") {
            Err(NetError::Protocol(why)) => {
                assert!(why.starts_with("PeerMap: ") && why.contains(want), "{why}");
            }
            other => panic!("{want}: expected a protocol error, got {other:?}"),
        }
    }
}

/// A query naming a vertex the graph does not have is refused (`ok: 0`),
/// not a panic on the thread that serves the control link: the rank goes
/// on to answer the next query and halts cleanly.
#[test]
fn an_out_of_range_query_vertex_is_refused() {
    let mut rank1 = Puppet::join();
    for (id, vertices, ok) in [(1, vec![4, u32::MAX], 0), (2, vec![1, 3], 1)] {
        let ask = Message::QueryRequest {
            id,
            op: QUERY_OP_MULTI_LOOKUP,
            a: 0,
            vertices,
        };
        rank1.ctrl.send(&ask).expect("query");
        match rank1.reader.recv().expect("the rank answers") {
            Some(Message::QueryResponse {
                id: got,
                ok: served,
                values,
                ..
            }) => {
                assert_eq!((got, served), (id, ok));
                assert_eq!(values.len(), 2 * usize::from(ok));
            }
            other => panic!("expected query {id}'s answer, got {other:?}"),
        }
    }
    let (labels, rejected, _) = rank1.halt();
    assert_eq!((labels.len(), rejected), (3, 0));
}

/// Play rank 0 of a one-rank run against a real coordinator at `addr`:
/// upload `txns` right after bring-up, then answer every barrier (nothing
/// active) and the halt, as a worker that got its transactions wrong but
/// the protocol right would. Hands a clone of its socket to `hang_up`, and
/// returns when either end closes it.
fn puppet_worker(
    addr: String,
    txns: Vec<WireTxn>,
    num_vertices: u32,
    hang_up: std::sync::mpsc::Sender<std::net::TcpStream>,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match std::net::TcpStream::connect(&addr) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("coordinator never listened on {addr}: {e}"),
        }
    };
    hang_up
        .send(stream.try_clone().expect("clone"))
        .expect("hand over");
    let clock = Arc::new(Clock::new());
    let (ctrl, read_half) = CtrlConn::new(stream, Arc::clone(&clock)).expect("ctrl");
    read_half
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = FrameReader::new(read_half, clock);
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        rank: 0,
        data_addr: "127.0.0.1:1".into(),
    };
    ctrl.send(&hello).expect("hello");
    while let Ok(Some(msg)) = reader.recv() {
        let reply = match msg {
            Message::PeerMap { .. } => vec![Message::AuditUpload {
                txns: txns.clone(),
                watermark: u64::MAX,
            }],
            Message::StartSuperstep { superstep } => vec![Message::ComputeDone { superstep }],
            Message::ReportRequest { superstep } => vec![Message::BarrierVote {
                superstep,
                active: 0,
            }],
            Message::Halt => vec![
                Message::ValuesUpload {
                    values: (0..num_vertices)
                        .map(|v| (v, v.to_le_bytes().to_vec()))
                        .collect(),
                },
                Message::ComputeDone {
                    superstep: u64::MAX,
                },
            ],
            _ => vec![],
        };
        for m in &reply {
            if ctrl.send(m).is_err() {
                return;
            }
        }
    }
}

/// A transaction a rank uploads is checked where it enters the
/// coordinator: an out-of-range vertex or stale-read witness, or an empty
/// interval, ends the run with a protocol error naming the rank and the
/// field — it never reaches the post-hoc `History`, whose per-vertex
/// arrays it would index out of bounds.
#[test]
fn a_malformed_uploaded_transaction_is_a_protocol_error_not_a_panic() {
    let g = Graph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    let txn = |vertex, stale: Vec<u32>, start, end| WireTxn {
        vertex,
        start,
        end,
        stale,
    };
    let cases = [
        ("vertex 9 out of range", txn(9, vec![], 256, 512)),
        (
            "stale-read witness 4 out of range",
            txn(1, vec![0, 4], 256, 512),
        ),
        ("end 256 not after start 512", txn(1, vec![], 512, 256)),
    ];
    for (want, bad) in cases {
        // A port for the coordinator to bind, so the puppet knows where to dial.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port")
            .to_string();
        let mut cfg = ClusterConfig::new(1, Technique::None, Workload::Wcc);
        cfg.partitions_per_worker = 1;
        cfg.bind_addr = addr.clone();
        // The one "worker process" exits at once; the puppet plays rank 0.
        cfg.spawn = SpawnMode::Processes {
            exe: "true".into(),
            args: vec![],
        };
        let good = txn(0, vec![1], 1 << 8, 2 << 8);
        let (hang_up, socket) = std::sync::mpsc::channel();
        let puppet = std::thread::spawn(move || puppet_worker(addr, vec![good, bad], 4, hang_up));
        let run = run_cluster(&g, &cfg);
        // A failed run leaves the control link open: close it for both ends.
        let _ = socket.recv().map(|s| s.shutdown(std::net::Shutdown::Both));
        puppet.join().expect("the puppet must not panic");
        match run {
            Err(NetError::Protocol(why)) => {
                assert!(
                    why.contains("rank 0") && why.contains(want),
                    "{want}: {why}"
                );
            }
            Err(e) => panic!("{want}: expected a protocol error, got {e}"),
            Ok(out) => {
                // What a caller does with the run's history.
                let summary = out.history.expect("history").summarize(&g);
                panic!("{want}: the run accepted the upload: {summary:?}");
            }
        }
    }
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

/// A transaction crosses the wire once, in an `AuditUpload` frame, and
/// every one arrives — with the audit plane on and with it off, and when a
/// rank records more than one upload chunk (65,536) of them: the merged
/// history holds one record per execution, and the live verdict is the
/// post-hoc one.
#[test]
fn each_transaction_crosses_the_wire_once() {
    let g = gen::ring(140_000);
    for audit_interval_ms in [0, 20] {
        let mut cfg = ClusterConfig::new(2, Technique::PartitionLock, Workload::Coloring);
        cfg.audit_interval_ms = audit_interval_ms;
        let out = run_cluster(&g, &cfg).expect("cluster run");
        let history = out.history.expect("history");
        assert_eq!(history.len() as u64, out.metrics.vertex_executions);
        // A stamp's low byte is the rank that recorded it.
        let rank0 = history.txns().iter().filter(|t| t.start & 0xFF == 0);
        assert!(rank0.count() > 1 << 16, "rank 0 must ship several chunks");
        if audit_interval_ms > 0 {
            let live = out.audit.expect("live audit verdict");
            assert_eq!(live, history.summarize(&g));
            assert!(live.one_copy_serializable);
        }
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
