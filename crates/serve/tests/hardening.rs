//! Malformed-input hardening: hostile bytes on the wire and corrupt
//! artifacts must produce ERROR frames or clean disconnects — never a
//! daemon panic. Each scenario is followed by a proof of life (a fresh
//! connection that PINGs successfully).

mod common;

use common::expect_error;
use pit_infer::{compile_generic, InferencePlan};
use pit_models::{GenericTcn, GenericTcnConfig};
use pit_nas::SearchableNetwork;
use pit_serve::{
    Client, ClientFrame, ErrorCode, ServeEngine, ServeError, Server, ServerConfig, ServerFrame,
    ServerHandle, MAX_MODEL_NAME,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const RECV_TIMEOUT: Duration = Duration::from_secs(10);

fn tiny_plan() -> Arc<InferencePlan> {
    let mut rng = StdRng::seed_from_u64(0);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    net.set_dilations(&[2, 4]);
    Arc::new(compile_generic(&net))
}

fn spawn_server() -> (SocketAddr, ServerHandle) {
    let server =
        Server::bind(ServeEngine::F32(tiny_plan()), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    (addr, server.spawn())
}

/// The daemon still answers a PING on a *new* connection.
fn assert_alive(addr: SocketAddr) {
    let mut probe = Client::connect(addr).expect("daemon accepts connections");
    probe.ping(42).expect("ping");
    assert!(
        matches!(
            probe.recv_timeout(RECV_TIMEOUT).expect("transport"),
            Some(ServerFrame::Pong { token: 42 })
        ),
        "daemon must keep serving after hostile input"
    );
}

#[test]
fn truncated_frame_then_disconnect_does_not_kill_the_daemon() {
    let (addr, handle) = spawn_server();
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        // A length prefix promising 100 bytes, then only 3, then hang up.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0x01, 0x02, 0x03]).unwrap();
    }
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected_without_unbounded_allocation() {
    let (addr, handle) = spawn_server();
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 64]).unwrap();
        // The server may send an ERROR and/or just drop us; either way it
        // must survive.
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn malformed_trace_body_is_a_bad_frame_not_a_panic() {
    let (addr, handle) = spawn_server();
    {
        let mut raw = TcpStream::connect(addr).expect("connect");
        // TRACE promises a u32 stream id; deliver only two bytes of it.
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(&[0x09, 0x01, 0x02]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
    }
    // A well-formed TRACE on a fresh connection still answers.
    let mut client = Client::connect(addr).expect("connect");
    let events = client.trace(0).expect("trace");
    assert!(events.is_empty(), "fresh connection has no stream events");
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn unknown_opcode_gets_an_error_and_the_connection_survives() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    // Hand-craft a frame with opcode 0x7E.
    let mut raw = TcpStream::connect(addr).expect("second connect");
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x7E]).unwrap();
    drop(raw);
    // The well-behaved client still works throughout.
    client.ping(7).expect("ping");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Pong { token: 7 })
    ));
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn unknown_opcode_error_arrives_on_the_offending_connection() {
    use pit_serve::protocol::{decode_server, FrameReader, ReadOutcome};
    let (addr, handle) = spawn_server();
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x7F]).unwrap();
    raw.flush().unwrap();
    raw.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    let mut reader = FrameReader::new(raw);
    let body = loop {
        match reader.poll().expect("read") {
            ReadOutcome::Frame(body) => break body,
            ReadOutcome::WouldBlock => continue,
            ReadOutcome::Eof => panic!("server hung up instead of replying"),
        }
    };
    match decode_server(&body).expect("reply decodes") {
        ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("expected unknown-opcode error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn push_before_open_is_an_unknown_stream_error() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.push(3, 1, &[0.5]).expect("send");
    expect_error(&mut client, ErrorCode::UnknownStream);
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn close_before_open_is_an_unknown_stream_error() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.close(3).expect("send");
    expect_error(&mut client, ErrorCode::UnknownStream);
    handle.shutdown();
}

#[test]
fn duplicate_open_is_rejected() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.open(1).expect("send");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { stream_id: 1 })
    ));
    client.open(1).expect("send");
    expect_error(&mut client, ErrorCode::DuplicateStream);
    handle.shutdown();
}

#[test]
fn wrong_channel_count_is_a_bad_frame() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("send");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { .. })
    ));
    // The tiny plan takes 1 channel; push 3-channel samples.
    client.push(0, 3, &[0.1, 0.2, 0.3]).expect("send");
    expect_error(&mut client, ErrorCode::BadFrame);
    handle.shutdown();
}

/// Hand-crafts a PUSH_N frame body: opcode 0x07, channels, an entry count
/// (overridable to lie), `(stream_id, count)` pairs, then samples.
fn raw_push_n(
    channels: u32,
    n_override: Option<u32>,
    entries: &[(u32, u32)],
    samples: &[f32],
) -> Vec<u8> {
    let mut body = vec![0x07];
    body.extend_from_slice(&channels.to_le_bytes());
    body.extend_from_slice(&n_override.unwrap_or(entries.len() as u32).to_le_bytes());
    for &(sid, count) in entries {
        body.extend_from_slice(&sid.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
    }
    for v in samples {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

#[test]
fn truncated_push_body_is_a_bad_frame_not_a_panic() {
    let (addr, handle) = spawn_server();
    let mut raw = TcpStream::connect(addr).expect("connect");
    // PUSH_N claiming 4 timesteps × 1 channel but carrying one value.
    raw.write_all(&raw_push_n(1, None, &[(0, 4)], &[1.0]))
        .unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn malformed_push_n_counts_error_without_killing_the_daemon() {
    let (addr, handle) = spawn_server();
    // Each case on its own raw connection; the daemon must survive all.
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("zero entries", raw_push_n(1, None, &[], &[])),
        ("zero channels", raw_push_n(0, None, &[(0, 1)], &[0.5])),
        ("zero-count entry", raw_push_n(1, None, &[(0, 0)], &[])),
        (
            "entry count lies past the payload",
            raw_push_n(1, Some(u32::MAX), &[(0, 1)], &[0.5]),
        ),
        (
            "counts sum past the frame bound",
            raw_push_n(1, None, &[(0, u32::MAX), (1, u32::MAX)], &[0.5]),
        ),
        (
            "payload shorter than the counts claim",
            raw_push_n(1, None, &[(0, 4)], &[0.5]),
        ),
    ];
    for (label, frame) in cases {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&frame).unwrap();
        raw.flush().unwrap();
        // The reply must be a BAD_FRAME error on the offending connection.
        use pit_serve::protocol::{decode_server, FrameReader, ReadOutcome};
        raw.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
        let mut reader = FrameReader::new(raw);
        let body = loop {
            match reader.poll().expect("read") {
                ReadOutcome::Frame(body) => break body,
                ReadOutcome::WouldBlock => continue,
                ReadOutcome::Eof => panic!("{label}: server hung up instead of replying"),
            }
        };
        match decode_server(&body).unwrap_or_else(|e| panic!("{label}: reply decodes ({e})")) {
            ServerFrame::Error { code, .. } => {
                assert_eq!(code, ErrorCode::BadFrame, "{label}")
            }
            other => panic!("{label}: expected BAD_FRAME, got {other:?}"),
        }
    }
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn push_n_with_an_unknown_stream_rejects_the_whole_frame() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { stream_id: 0 })
    ));
    // Stream 1 was never opened: the whole batch must be refused — stream
    // 0's timesteps must not half-apply.
    client
        .push_n(1, &[(0, 2), (1, 2)], &[0.1, 0.2, 0.3, 0.4])
        .expect("send");
    expect_error(&mut client, ErrorCode::UnknownStream);
    client.stats().expect("stats");
    let Some(ServerFrame::StatsJson { json }) = client.recv_timeout(RECV_TIMEOUT).unwrap() else {
        panic!("expected stats json")
    };
    let snap = pit_serve::StatsSnapshot::from_json_str(&json).expect("parses");
    assert_eq!(
        snap.timesteps_in, 0,
        "a rejected PUSH_N must not enqueue any entry"
    );
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn random_garbage_streams_never_panic_the_daemon() {
    let (addr, handle) = spawn_server();
    let mut state = 0x12345678u32;
    for round in 0..8 {
        let mut raw = TcpStream::connect(addr).expect("connect");
        let mut junk = Vec::with_capacity(512);
        for _ in 0..512 {
            // Tiny xorshift so the junk is deterministic.
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            junk.push(state as u8);
        }
        // Prefix half the rounds with a plausible small length so the
        // garbage lands in the decoder rather than the length check.
        if round % 2 == 0 {
            let _ = raw.write_all(&64u32.to_le_bytes());
        }
        let _ = raw.write_all(&junk);
        drop(raw);
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn open_with_an_unknown_model_is_refused_and_the_id_stays_free() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.open_with_model(0, "no-such-model").expect("send");
    expect_error(&mut client, ErrorCode::UnknownModel);
    // The refused OPEN must not half-claim the stream id.
    client.open(0).expect("send");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { stream_id: 0 })
    ));
    assert_alive(addr);
    handle.shutdown();
}

/// Hand-crafts an OPEN body: opcode 0x01, stream id, then raw bytes posing
/// as the v3 model-name field.
fn raw_open(stream_id: u32, name_field: &[u8]) -> Vec<u8> {
    let mut body = vec![0x01];
    body.extend_from_slice(&stream_id.to_le_bytes());
    body.extend_from_slice(name_field);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

#[test]
fn malformed_open_model_name_fields_are_bad_frames() {
    use pit_serve::protocol::{decode_server, FrameReader, ReadOutcome};
    let (addr, handle) = spawn_server();
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("zero-length model name", raw_open(0, &[0, 0])),
        ("name length past the body", raw_open(0, &[200, 0, b'm'])),
        ("truncated length prefix", raw_open(0, &[5])),
        ("invalid UTF-8 name", raw_open(0, &[2, 0, 0xFF, 0xFE])),
        (
            "trailing bytes after the name",
            raw_open(0, &[1, 0, b'm', b'x']),
        ),
    ];
    for (label, frame) in cases {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&frame).unwrap();
        raw.flush().unwrap();
        raw.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
        let mut reader = FrameReader::new(raw);
        let body = loop {
            match reader.poll().expect("read") {
                ReadOutcome::Frame(body) => break body,
                ReadOutcome::WouldBlock => continue,
                ReadOutcome::Eof => panic!("{label}: server hung up instead of replying"),
            }
        };
        match decode_server(&body).unwrap_or_else(|e| panic!("{label}: reply decodes ({e})")) {
            ServerFrame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame, "{label}"),
            other => panic!("{label}: expected BAD_FRAME, got {other:?}"),
        }
    }
    assert_alive(addr);
    handle.shutdown();
}

/// The client refuses names the OPEN wire field cannot represent — a
/// typed [`ServeError::Protocol`] instead of release-mode length
/// truncation emitting a malformed frame the server bounces as BadFrame.
#[test]
fn client_rejects_unrepresentable_model_names_before_encoding() {
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    for name in [String::new(), "m".repeat(MAX_MODEL_NAME + 1)] {
        match client.open_with_model(0, name) {
            Err(ServeError::Protocol(_)) => {}
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    // The longest representable name still goes out on the wire (and is
    // simply unknown to the registry).
    client
        .open_with_model(0, "m".repeat(MAX_MODEL_NAME))
        .expect("send");
    expect_error(&mut client, ErrorCode::UnknownModel);
    assert_alive(addr);
    handle.shutdown();
}

#[test]
fn replace_while_busy_is_refused_but_the_registry_still_grows() {
    let dir = std::env::temp_dir().join(format!("pit-serve-replace-busy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan = tiny_plan();
    let path = dir.join("model.json");
    std::fs::write(&path, plan.to_artifact_string()).expect("write artifact");

    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { .. })
    ));
    // Same name as the booted model → replace → refused while stream 0 is
    // open on it.
    client
        .send(&ClientFrame::LoadModel {
            path: path.display().to_string(),
        })
        .expect("send");
    expect_error(&mut client, ErrorCode::StreamsActive);
    // The refusal must not have half-registered anything: a second client
    // listing models still sees exactly one entry.
    let mut probe = Client::connect(addr).expect("connect");
    let listed = probe.list_models().expect("LIST_MODELS");
    assert_eq!(listed.len(), 1, "{listed:?}");
    assert!(listed[0].default);
    assert_alive(addr);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_artifacts_fail_to_boot_with_an_error() {
    let dir = std::env::temp_dir().join(format!("pit-serve-hardening-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let plan = tiny_plan();
    let good = plan.to_artifact_string();

    // Bad base64 payload.
    let bad_b64 = good.replacen("\"weight\": \"", "\"weight\": \"####", 1);
    // Wrong tensor length (valid base64 of too few floats).
    let start = good.find("\"weight\": \"").unwrap() + "\"weight\": \"".len();
    let end = start + good[start..].find('"').unwrap();
    let mut short = good.clone();
    short.replace_range(start..end, &pit_tensor::json::encode_f32s(&[0.5]));
    // Not JSON at all.
    let not_json = "\u{90}\u{0}this is not an artifact".to_string();

    for (name, text) in [
        ("bad_b64.json", bad_b64),
        ("short.json", short),
        ("not_json.json", not_json),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write corrupt artifact");
        let err = Server::bind_artifact(&path, ServerConfig::default())
            .err()
            .unwrap_or_else(|| panic!("{name} must be rejected"));
        assert!(!err.is_empty());
    }

    // Non-regular files (directories, FIFOs, device nodes) must be refused
    // before any read — a LOAD_MODEL of /dev/zero must not hang the boot.
    let err = Server::bind_artifact(&dir, ServerConfig::default())
        .err()
        .expect("a directory must be rejected");
    assert!(err.contains("regular file"), "{err}");

    // And LOAD_MODEL of a corrupt file at runtime errors without killing
    // the daemon.
    let (addr, handle) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client
        .send(&ClientFrame::LoadModel {
            path: dir.join("bad_b64.json").display().to_string(),
        })
        .expect("send");
    expect_error(&mut client, ErrorCode::LoadFailed);
    assert_alive(addr);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The read-progress deadline reaps a slow loris — a connection that
/// sends part of a length prefix and stalls — while a slow-but-honest
/// client that completes a frame inside every deadline window stays
/// connected. Regression test for the resource hold: before the deadline
/// existed, the stalled socket pinned its edge slot and outbuf forever.
#[test]
fn slow_loris_partial_frame_is_reaped_but_honest_slow_clients_are_not() {
    use std::io::Read;
    use std::time::Instant;

    let server = Server::bind(
        ServeEngine::F32(tiny_plan()),
        ServerConfig {
            read_progress_timeout: Some(Duration::from_millis(250)),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // The loris: 3 bytes of a 4-byte length prefix, then silence.
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.write_all(&64u32.to_le_bytes()[..3]).unwrap();
    loris.flush().unwrap();

    // The honest client pings through six deadline windows.
    let mut client = Client::connect(addr).expect("connect");
    for token in 0..6u64 {
        client.ping(token).expect("ping");
        assert!(matches!(
            client.recv_timeout(RECV_TIMEOUT).expect("transport"),
            Some(ServerFrame::Pong { token: t }) if t == token
        ));
        std::thread::sleep(Duration::from_millis(100));
    }

    // The loris socket got hung up on (EOF or RST both count as reaped).
    loris
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = [0u8; 16];
    loop {
        match loris.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                assert!(Instant::now() < deadline, "loris was never reaped");
            }
            Err(_) => break,
        }
    }

    assert_alive(addr);
    let stats = handle.shutdown();
    assert_eq!(stats.connections_expired, 1, "the loris is counted");
    assert!(
        stats.connections_errored >= 1,
        "expired is a sub-category of errored"
    );
}
