//! Chaos suite: seeded fault scenarios against a live daemon. Every
//! scenario drives a misbehaving client population (slow-loris drips,
//! header-then-stall peers, mid-batch RSTs, readers that never drain)
//! and/or a deterministic server-side fault plan (forced `WouldBlock`
//! reads, skipped flushes, stalled waves, delayed shard wakeups), then
//! proves the same three things:
//!
//! 1. the daemon is alive — a fresh connection PINGs and `/healthz` says
//!    `serving`;
//! 2. the books balance — stats reach `settled` with zero open streams
//!    on both the shard gauge and the per-model edge gauge (no leaked
//!    slots);
//! 3. surviving streams are bit-exact against a solo `QuantizedSession`.
//!
//! All randomness comes from `ChaosRng` with seeds committed below, so a
//! failing interleaving replays exactly. Each scenario dumps the
//! daemon's event trace to `$CHAOS_TRACE_DIR` (default: the cargo
//! target tmpdir) before asserting, so CI can upload the schedule that
//! broke.

mod common;

use common::expect_error;
use pit_infer::{compile_temponet, QuantizedPlan, QuantizedSession};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_serve::chaos::{self, ChaosRng, FaultPlan};
use pit_serve::protocol::{decode_server, encode_client, entry_runs, FrameReader, ReadOutcome};
use pit_serve::{
    http_get, Client, ClientFrame, CloseReason, ErrorCode, ServeEngine, Server, ServerConfig,
    ServerFrame, ServerHandle, StatsSnapshot,
};
use pit_tensor::init;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const C: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_secs(30);
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// One quantized plan shared by every scenario (quantization is the
/// expensive part; the scenarios only differ in how they abuse it).
fn fixture() -> Arc<QuantizedPlan> {
    static PLAN: OnceLock<Arc<QuantizedPlan>> = OnceLock::new();
    Arc::clone(PLAN.get_or_init(|| {
        let cfg = TempoNetConfig::scaled(8, 64);
        let mut rng = StdRng::seed_from_u64(61);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let plan = compile_temponet(&net);
        let mut rng = StdRng::seed_from_u64(62);
        let x = init::uniform(&mut rng, &[1, C, 64], 1.0);
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantize"))
    }))
}

/// Boots the fixture with the telemetry sidecar forced on (the epilogue
/// needs `/healthz` and `/trace`).
fn boot(mut config: ServerConfig) -> (SocketAddr, SocketAddr, ServerHandle) {
    config.metrics_addr = Some("127.0.0.1:0".into());
    let server = Server::bind(ServeEngine::I8(fixture()), config).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics_addr().expect("sidecar bound");
    (addr, metrics, server.spawn())
}

/// What a solo session emits for `input` — the bit-exactness oracle.
fn solo(input: &[f32]) -> Vec<Vec<f32>> {
    let mut session = QuantizedSession::new(fixture());
    input.chunks(C).filter_map(|s| session.push(s)).collect()
}

fn stream_input(seed: u64, steps: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(7_000 + seed);
    (0..steps * C).map(|_| rng.gen::<f32>() - 0.5).collect()
}

/// A complete wire frame (`encode_client` already length-prefixes) for
/// raw-socket clients.
fn frame_bytes(frame: &ClientFrame) -> Vec<u8> {
    encode_client(frame)
}

/// A complete one-entry PUSH_N frame carrying `samples` for `stream_id`.
fn push_bytes(stream_id: u32, samples: &[f32]) -> Vec<u8> {
    frame_bytes(&ClientFrame::PushN {
        channels: C as u32,
        entries: vec![(stream_id, (samples.len() / C) as u32)],
        samples: samples.to_vec(),
    })
}

/// Collects `want` output vectors for a single stream, skipping OPENED
/// acks; anything else (an ERROR, a CLOSED) fails the scenario.
fn collect_emissions(client: &mut Client, stream_id: u32, want: usize) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    while out.len() < want {
        match client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport healthy")
            .expect("emissions arrive before the timeout")
        {
            ServerFrame::EmitN {
                dim,
                entries,
                outputs,
            } => {
                for (sid, run) in entry_runs(dim, &entries, &outputs) {
                    assert_eq!(sid, stream_id, "emission for the wrong stream");
                    out.extend(run.chunks_exact(dim as usize).map(<[f32]>::to_vec));
                }
            }
            ServerFrame::Opened { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    out
}

/// Collects `want` output vectors across several streams of one
/// connection, tallied per stream id.
fn collect_tally(client: &mut Client, want: usize) -> HashMap<u32, Vec<Vec<f32>>> {
    let mut out: HashMap<u32, Vec<Vec<f32>>> = HashMap::new();
    let mut n = 0;
    while n < want {
        match client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport healthy")
            .expect("emissions arrive before the timeout")
        {
            ServerFrame::EmitN {
                dim,
                entries,
                outputs,
            } => {
                for (sid, run) in entry_runs(dim, &entries, &outputs) {
                    let per = out.entry(sid).or_default();
                    for chunk in run.chunks_exact(dim as usize) {
                        per.push(chunk.to_vec());
                        n += 1;
                    }
                }
            }
            ServerFrame::Opened { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    out
}

/// Blocks (with frame-by-frame polling) until the next server frame on a
/// raw socket's reply stream.
fn read_frame(reader: &mut FrameReader<TcpStream>) -> ServerFrame {
    loop {
        match reader.poll().expect("read") {
            ReadOutcome::Frame(body) => return decode_server(&body).expect("reply decodes"),
            ReadOutcome::WouldBlock => std::thread::sleep(Duration::from_millis(2)),
            ReadOutcome::Eof => panic!("server hung up instead of replying"),
        }
    }
}

/// Polls until `stream`'s peer hangs up, failing after 15 s.
fn await_hangup(stream: &TcpStream, who: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !chaos::peer_hung_up(stream).expect("hangup probe") {
        assert!(Instant::now() < deadline, "{who} was never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Saves the daemon's event trace under `$CHAOS_TRACE_DIR` (default: the
/// cargo target tmpdir) so a failing schedule can be replayed from the
/// CI artifact. Best-effort: trace dumping must never fail a scenario.
fn dump_trace(name: &str, metrics: SocketAddr) {
    let dir = std::env::var_os("CHAOS_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-traces"));
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Ok((200, body)) = http_get(metrics, "/trace") {
        let _ = std::fs::write(dir.join(format!("{name}.json")), body);
    }
}

/// The post-scenario invariant every test ends with: trace dumped, daemon
/// answers PING on a fresh connection, `/healthz` reports serving, and
/// stats reach `settled` with zero open streams on both the shard gauge
/// and the per-model edge gauge. Returns the settled snapshot for
/// scenario-specific counter asserts.
fn epilogue(name: &str, addr: SocketAddr, metrics: SocketAddr) -> StatsSnapshot {
    dump_trace(name, metrics);
    let mut probe = Client::connect(addr).expect("daemon accepts connections");
    probe.ping(42).expect("ping");
    assert!(
        matches!(
            probe.recv_timeout(RECV_TIMEOUT).expect("transport"),
            Some(ServerFrame::Pong { token: 42 })
        ),
        "daemon must answer PING after the scenario"
    );
    let (status, body) = http_get(metrics, "/healthz").expect("healthz reachable");
    assert_eq!(status, 200, "healthz after chaos: {body}");
    assert!(body.contains("serving"), "healthz after chaos: {body}");

    let deadline = Instant::now() + SETTLE_TIMEOUT;
    loop {
        probe.stats().expect("stats request");
        let json = loop {
            match probe
                .recv_timeout(RECV_TIMEOUT)
                .expect("transport")
                .expect("stats reply")
            {
                ServerFrame::StatsJson { json } => break json,
                _ => continue,
            }
        };
        let snap = StatsSnapshot::from_json_str(&json).expect("stats parse");
        let edge_open: u64 = snap.models.iter().map(|m| m.streams_open).sum();
        if snap.settled && snap.streams_open == 0 && edge_open == 0 {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "never settled with zero open streams: {json}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Scenario 1 — slow loris: three connections send 1–3 bytes of a length
/// prefix and stall forever. The read-progress deadline reaps all three
/// (counted in `connections_expired`) while an honest client streams
/// bit-exact through the reaping.
#[test]
fn slow_loris_header_stall_is_expired() {
    let (addr, metrics, handle) = boot(ServerConfig {
        read_progress_timeout: Some(Duration::from_millis(250)),
        ..ServerConfig::default()
    });
    let mut rng = ChaosRng::new(0xC4A0_5001);
    let lorises: Vec<TcpStream> = (0..3)
        .map(|_| chaos::partial_frame_header(addr, 1 + rng.below(3) as usize).expect("loris"))
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    let input = stream_input(1, 24);
    for round in 0..3 {
        client
            .push(0, C as u32, &input[round * 8 * C..(round + 1) * 8 * C])
            .expect("push");
        std::thread::sleep(Duration::from_millis(120));
    }
    let got = collect_emissions(&mut client, 0, 3);
    assert_eq!(got, solo(&input), "honest stream rides out the reaping");

    for loris in &lorises {
        await_hangup(loris, "loris connection");
    }
    client.close(0).expect("close");

    let snap = epilogue("slow_loris_header_stall", addr, metrics);
    assert_eq!(snap.connections_expired, 3, "every loris counted");
    assert!(
        snap.connections_errored >= 3,
        "expired is a sub-category of errored: {snap:?}"
    );
    handle.shutdown();
}

/// Scenario 2 — frameless idle: a connection that never sends a byte is
/// expired by the same deadline, while a control connection that
/// completes a PING inside every window outlives several sweeps.
#[test]
fn frameless_idle_connection_is_expired() {
    let (addr, metrics, handle) = boot(ServerConfig {
        read_progress_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let silent = TcpStream::connect(addr).expect("connect");
    let mut pinger = Client::connect(addr).expect("connect");
    for token in 0..8u64 {
        pinger.ping(token).expect("ping");
        assert!(matches!(
            pinger.recv_timeout(RECV_TIMEOUT).expect("transport"),
            Some(ServerFrame::Pong { token: t }) if t == token
        ));
        std::thread::sleep(Duration::from_millis(100));
    }
    // Eight 100 ms windows have passed — four full deadlines. The silent
    // socket must be gone; the pinger just proved it is not.
    await_hangup(&silent, "silent connection");
    let snap = epilogue("frameless_idle", addr, metrics);
    assert_eq!(snap.connections_expired, 1, "only the silent conn expires");
    handle.shutdown();
}

/// Scenario 3 — RST storm: six victims open streams, push a seeded number
/// of complete frames, then abort with a TCP RST mid-frame. Two survivor
/// connections stream through the storm and must stay bit-exact; every
/// victim's slots are reclaimed.
#[test]
fn mid_push_rst_storm_leaves_survivors_bit_exact() {
    const VICTIMS: usize = 6;
    let (addr, metrics, handle) = boot(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    });

    let victims: Vec<_> = (0..VICTIMS)
        .map(|v| {
            std::thread::spawn(move || {
                let mut rng = ChaosRng::new(0xC4A0_5003 ^ v as u64);
                let mut raw = TcpStream::connect(addr).expect("victim connects");
                for sid in 0..2u32 {
                    raw.write_all(&frame_bytes(&ClientFrame::Open {
                        stream_id: sid,
                        model: None,
                    }))
                    .expect("open");
                }
                let input = stream_input(100 + v as u64, 8);
                for _ in 0..rng.below(3) {
                    raw.write_all(&push_bytes(0, &input)).expect("push");
                }
                // Cut the last PUSH_N mid-frame, then abort with an RST.
                let push = push_bytes(1, &input);
                let cut = 1 + rng.below(push.len() as u64 - 1) as usize;
                raw.write_all(&push[..cut]).expect("partial push");
                raw.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(rng.below(20)));
                chaos::rst_close(raw);
            })
        })
        .collect();

    let survivors: Vec<_> = (0..2)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("survivor connects");
                for sid in 0..2u32 {
                    client.open(sid).expect("open");
                }
                let inputs: Vec<Vec<f32>> = (0..2)
                    .map(|sid| stream_input(200 + conn * 2 + sid, 16))
                    .collect();
                for round in 0..2 {
                    for (sid, input) in inputs.iter().enumerate() {
                        client
                            .push(
                                sid as u32,
                                C as u32,
                                &input[round * 8 * C..(round + 1) * 8 * C],
                            )
                            .expect("push");
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                let got = collect_tally(&mut client, 4);
                for (sid, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        got[&(sid as u32)],
                        solo(input),
                        "survivor {conn} stream {sid} must be bit-exact through the storm"
                    );
                }
                for sid in 0..2u32 {
                    client.close(sid).expect("close");
                }
            })
        })
        .collect();

    for t in victims {
        t.join().expect("victim thread");
    }
    for t in survivors {
        t.join().expect("survivor thread");
    }

    let snap = epilogue("mid_push_rst_storm", addr, metrics);
    assert!(
        snap.connections_errored >= VICTIMS as u64,
        "every RST counts as an errored connection: {snap:?}"
    );
    handle.shutdown();
}

/// Scenario 4 — non-draining reader: with waves artificially stalled, a
/// client fills its pending cap without reading a single EMIT_N, and the
/// overflow PUSH_N bounces with `Backpressure`. Once it finally drains, the
/// admitted 64 steps (and nothing else) come back bit-exact.
#[test]
fn non_draining_reader_hits_backpressure_then_drains_bit_exact() {
    let faults = FaultPlan {
        wave_stall: Some(Duration::from_millis(100)),
        ..FaultPlan::default()
    }
    .build();
    let (addr, metrics, handle) = boot(ServerConfig {
        shards: 1,
        max_pending_per_conn: 64,
        faults: Some(Arc::clone(&faults)),
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    let input = stream_input(4, 64);
    client
        .push(0, C as u32, &input)
        .expect("push fills the cap");
    client
        .push(0, C as u32, &stream_input(5, 8))
        .expect("overflow push sends");
    match client
        .recv_timeout(RECV_TIMEOUT)
        .expect("transport")
        .expect("opened ack")
    {
        ServerFrame::Opened { stream_id: 0 } => {}
        other => panic!("expected OPENED, got {other:?}"),
    }
    expect_error(&mut client, ErrorCode::Backpressure);

    let got = collect_emissions(&mut client, 0, 8);
    assert_eq!(
        got,
        solo(&input),
        "only the admitted 64 steps flow; the refused burst never enqueues"
    );
    assert!(
        faults.injected_faults() > 0,
        "the wave stall must actually fire"
    );
    client.close(0).expect("close");

    let snap = epilogue("non_draining_reader_backpressure", addr, metrics);
    assert!(snap.frames_rejected >= 1, "the bounce is counted: {snap:?}");
    handle.shutdown();
}

/// Reply order, pinned: with the only shard held asleep, an OPEN, a PUSH_N
/// that fills the pending cap and an over-cap PUSH_N arrive in one write.
/// The edge refuses the third with `Backpressure` straight away; the
/// OPENED for the first must still come back ahead of that refusal, because
/// the edge writes it while admitting the OPEN. When the shard wrote
/// OPENED, it was still asleep when the refusal went out.
#[test]
fn opened_precedes_a_later_admission_error_while_the_shard_is_held() {
    let faults = FaultPlan {
        shard_wakeup_delay: Some(Duration::from_millis(200)),
        ..FaultPlan::default()
    }
    .build();
    let (addr, metrics, handle) = boot(ServerConfig {
        shards: 1,
        max_pending_per_conn: 8,
        faults: Some(Arc::clone(&faults)),
        ..ServerConfig::default()
    });

    let input = stream_input(10, 8);
    let mut wire = frame_bytes(&ClientFrame::Open {
        stream_id: 0,
        model: None,
    });
    wire.extend(push_bytes(0, &input));
    wire.extend(push_bytes(0, &stream_input(11, 8)));
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(RECV_TIMEOUT)).expect("timeout");
    raw.write_all(&wire).expect("three frames in one write");
    let mut reply = FrameReader::new(raw.try_clone().expect("clone"));
    match read_frame(&mut reply) {
        ServerFrame::Opened { stream_id: 0 } => {}
        other => panic!("expected OPENED first, got {other:?}"),
    }
    match read_frame(&mut reply) {
        ServerFrame::Error {
            code: ErrorCode::Backpressure,
            ..
        } => {}
        other => panic!("expected the Backpressure refusal, got {other:?}"),
    }
    // The admitted burst flows once the shard wakes; the refused one never
    // enqueues.
    match read_frame(&mut reply) {
        ServerFrame::EmitN { dim, outputs, .. } => {
            let got: Vec<Vec<f32>> = outputs
                .chunks_exact(dim as usize)
                .map(<[f32]>::to_vec)
                .collect();
            assert_eq!(got, solo(&input));
        }
        other => panic!("expected EMIT_N, got {other:?}"),
    }
    assert!(
        faults.injected_faults() > 0,
        "the shard wakeup delay must actually fire"
    );
    drop(reply);
    drop(raw);

    epilogue("opened_precedes_admission_error", addr, metrics);
    handle.shutdown();
}

/// Scenario 5 — life after an idle eviction, pinned: the edge evicts an
/// idle stream, and the client, told by `CLOSED(IdleEvicted)`, CLOSEs the
/// dead id and reopens it. The CLOSE is refused with `UnknownStream`; the
/// reincarnated stream serves bit-exact across more than the idle timeout
/// of pushes (each one resets its clock), and the budget counts it exactly
/// once.
#[test]
fn reopen_after_idle_eviction_is_served_and_counted_once() {
    let (addr, metrics, handle) = boot(ServerConfig {
        shards: 1,
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr).expect("connect");
    client.open(5).expect("open");
    let first = stream_input(50, 8);
    client.push(5, C as u32, &first).expect("push");
    let got = collect_emissions(&mut client, 5, 1);
    assert_eq!(got, solo(&first));

    // Go idle until the edge evicts; the shard replies CLOSED.
    match client
        .recv_timeout(RECV_TIMEOUT)
        .expect("transport")
        .expect("eviction notice")
    {
        ServerFrame::Closed {
            stream_id: 5,
            reason: CloseReason::IdleEvicted,
        } => {}
        other => panic!("expected idle eviction, got {other:?}"),
    }

    // CLOSE the already-evicted stream: the edge no longer holds it...
    client.close(5).expect("close");
    expect_error(&mut client, ErrorCode::UnknownStream);
    // ...and reincarnate the id.
    client.open(5).expect("reopen");
    match client
        .recv_timeout(RECV_TIMEOUT)
        .expect("transport")
        .expect("reopen ack")
    {
        ServerFrame::Opened { stream_id: 5 } => {}
        other => panic!("expected OPENED, got {other:?}"),
    }

    // Keep the reincarnation busy for 600 ms, four idle timeouts.
    let second = stream_input(51, 80);
    for round in 0..10 {
        client
            .push(5, C as u32, &second[round * 8 * C..(round + 1) * 8 * C])
            .expect("push");
        std::thread::sleep(Duration::from_millis(60));
    }
    let got = collect_emissions(&mut client, 5, 10);
    assert_eq!(
        got,
        solo(&second),
        "an active reincarnated stream is never evicted"
    );

    // The edge-authoritative gauge counts exactly one open stream.
    client.stats().expect("stats");
    let json = loop {
        match client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport")
            .expect("stats reply")
        {
            ServerFrame::StatsJson { json } => break json,
            ServerFrame::EmitN { .. } => continue,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let snap = StatsSnapshot::from_json_str(&json).expect("stats parse");
    assert_eq!(
        snap.models.iter().map(|m| m.streams_open).sum::<u64>(),
        1,
        "exactly the reincarnated stream is on the books: {json}"
    );

    client.close(5).expect("close");
    match client
        .recv_timeout(RECV_TIMEOUT)
        .expect("transport")
        .expect("close ack")
    {
        ServerFrame::Closed {
            stream_id: 5,
            reason: CloseReason::ByClient,
        } => {}
        other => panic!("expected CLOSED, got {other:?}"),
    }

    epilogue("reopen_after_idle_eviction", addr, metrics);
    handle.shutdown();
}

/// Scenario 6 — seeded lifecycle fuzz: three workers per seed run rounds
/// of open → push → verify, then a seeded choice of clean CLOSE, abrupt
/// disconnect with the stream open, or going idle and absorbing the
/// eviction — under light I/O faults, across two committed seeds.
#[test]
fn seeded_lifecycle_fuzz_settles_clean() {
    for &seed in &[0xC4A0_5006u64, 0xFACE_FEED] {
        let faults = FaultPlan {
            read_wouldblock_every: 5,
            write_skip_every: 3,
            ..FaultPlan::default()
        }
        .build();
        let (addr, metrics, handle) = boot(ServerConfig {
            shards: 3,
            idle_timeout: Some(Duration::from_millis(300)),
            faults: Some(Arc::clone(&faults)),
            ..ServerConfig::default()
        });

        let workers: Vec<_> = (0..3u64)
            .map(|w| std::thread::spawn(move || fuzz_worker(addr, seed ^ (w << 32) ^ w)))
            .collect();
        for t in workers {
            t.join().expect("fuzz worker");
        }

        assert!(
            faults.injected_faults() > 0,
            "seed {seed:#x}: the fault cadences must actually fire"
        );
        epilogue(&format!("lifecycle_fuzz_{seed:x}"), addr, metrics);
        handle.shutdown();
    }
}

fn fuzz_worker(addr: SocketAddr, seed: u64) {
    let mut rng = ChaosRng::new(seed);
    let mut client = Client::connect(addr).expect("connect");
    for round in 0..6u32 {
        let sid = round;
        client.open(sid).expect("open");
        let input = stream_input(seed.wrapping_mul(31).wrapping_add(round as u64), 8);
        client.push(sid, C as u32, &input).expect("push");
        let got = collect_emissions(&mut client, sid, 1);
        assert_eq!(got, solo(&input), "seed {seed:#x} round {round}");
        match rng.below(3) {
            0 => {
                client.close(sid).expect("close");
                match client
                    .recv_timeout(RECV_TIMEOUT)
                    .expect("transport")
                    .expect("close ack")
                {
                    ServerFrame::Closed {
                        stream_id,
                        reason: CloseReason::ByClient,
                    } => assert_eq!(stream_id, sid),
                    other => panic!("expected CLOSED, got {other:?}"),
                }
            }
            1 => {
                // Abandon the connection with the stream still open; the
                // disconnect teardown must release its slot.
                let replacement = Client::connect(addr).expect("reconnect");
                drop(std::mem::replace(&mut client, replacement));
            }
            _ => {
                // Go idle and absorb the eviction.
                match client
                    .recv_timeout(RECV_TIMEOUT)
                    .expect("transport")
                    .expect("eviction notice")
                {
                    ServerFrame::Closed {
                        stream_id,
                        reason: CloseReason::IdleEvicted,
                    } => assert_eq!(stream_id, sid),
                    other => panic!("expected eviction, got {other:?}"),
                }
            }
        }
    }
}

/// Scenario 7 — forced I/O faults: every 3rd edge read fakes
/// `WouldBlock`, every 7th fakes `Interrupted`, every 2nd flush
/// opportunity is skipped. Frame reassembly and the POLLOUT re-arm path
/// must keep eight concurrent streams bit-exact.
#[test]
fn forced_read_write_faults_stay_bit_exact() {
    let faults = FaultPlan {
        read_wouldblock_every: 3,
        read_interrupt_every: 7,
        write_skip_every: 2,
        ..FaultPlan::default()
    }
    .build();
    let (addr, metrics, handle) = boot(ServerConfig {
        shards: 2,
        faults: Some(Arc::clone(&faults)),
        ..ServerConfig::default()
    });
    run_bit_exact_sweep(addr, 4, 300);
    assert!(
        faults.injected_faults() > 0,
        "the I/O fault cadences must actually fire"
    );
    epilogue("forced_io_faults", addr, metrics);
    handle.shutdown();
}

/// Scenario 8 — slow shard: every wave flush stalls 2 ms and every shard
/// wakeup is delayed 500 µs, widening every edge/shard race window while
/// load flows. Streams must still be bit-exact and the books settle.
#[test]
fn wave_stall_and_slow_shard_stay_bit_exact_under_load() {
    let faults = FaultPlan {
        wave_stall: Some(Duration::from_millis(2)),
        shard_wakeup_delay: Some(Duration::from_micros(500)),
        ..FaultPlan::default()
    }
    .build();
    let (addr, metrics, handle) = boot(ServerConfig {
        shards: 2,
        faults: Some(Arc::clone(&faults)),
        ..ServerConfig::default()
    });
    run_bit_exact_sweep(addr, 2, 400);
    assert!(
        faults.injected_faults() > 0,
        "the stall faults must actually fire"
    );
    epilogue("wave_stall_slow_shard", addr, metrics);
    handle.shutdown();
}

/// Shared load shape for the fault-seam scenarios: `conns` connections ×
/// 2 streams × 16 steps in 2 ragged rounds, every stream checked
/// bit-exact against a solo session.
fn run_bit_exact_sweep(addr: SocketAddr, conns: u64, seed_base: u64) {
    let workers: Vec<_> = (0..conns)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for sid in 0..2u32 {
                    client.open(sid).expect("open");
                }
                let inputs: Vec<Vec<f32>> = (0..2)
                    .map(|sid| stream_input(seed_base + conn * 2 + sid, 16))
                    .collect();
                for round in 0..2 {
                    for (sid, input) in inputs.iter().enumerate() {
                        client
                            .push(
                                sid as u32,
                                C as u32,
                                &input[round * 8 * C..(round + 1) * 8 * C],
                            )
                            .expect("push");
                    }
                }
                let got = collect_tally(&mut client, 4);
                for (sid, input) in inputs.iter().enumerate() {
                    assert_eq!(
                        got[&(sid as u32)],
                        solo(input),
                        "conn {conn} stream {sid} must be bit-exact under faults"
                    );
                }
                for sid in 0..2u32 {
                    client.close(sid).expect("close");
                }
            })
        })
        .collect();
    for t in workers {
        t.join().expect("sweep worker");
    }
}

/// Scenario 9 — glacial but honest: a client that drips whole frames one
/// byte at a time, always completing each frame inside the deadline,
/// survives the reaper and gets bit-exact emissions — while a loris on
/// the same daemon (never completing its frame) is expired.
#[test]
fn drip_fed_valid_frames_survive_the_reaper() {
    let (addr, metrics, handle) = boot(ServerConfig {
        read_progress_timeout: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    });
    let loris = chaos::partial_frame_header(addr, 2).expect("loris");

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(RECV_TIMEOUT)).expect("timeout");
    let mut reply = FrameReader::new(raw.try_clone().expect("clone"));
    for token in 0..2u64 {
        chaos::drip(
            &mut raw,
            &frame_bytes(&ClientFrame::Ping { token }),
            Duration::from_millis(15),
        )
        .expect("drip ping");
        match read_frame(&mut reply) {
            ServerFrame::Pong { token: t } => assert_eq!(t, token),
            other => panic!("expected PONG, got {other:?}"),
        }
    }
    chaos::drip(
        &mut raw,
        &frame_bytes(&ClientFrame::Open {
            stream_id: 0,
            model: None,
        }),
        Duration::from_millis(15),
    )
    .expect("drip open");
    let input = stream_input(9, 8);
    chaos::drip(&mut raw, &push_bytes(0, &input), Duration::from_millis(2)).expect("drip push");

    let want = solo(&input);
    let got = loop {
        match read_frame(&mut reply) {
            ServerFrame::Opened { .. } => continue,
            ServerFrame::EmitN { dim, outputs, .. } => {
                break outputs
                    .chunks_exact(dim as usize)
                    .map(<[f32]>::to_vec)
                    .collect::<Vec<_>>()
            }
            other => panic!("expected EMIT_N, got {other:?}"),
        }
    };
    assert_eq!(got, want, "dripped stream must be bit-exact");

    await_hangup(&loris, "loris connection");
    raw.write_all(&frame_bytes(&ClientFrame::Close { stream_id: 0 }))
        .expect("close");
    match read_frame(&mut reply) {
        ServerFrame::Closed {
            stream_id: 0,
            reason: CloseReason::ByClient,
        } => {}
        other => panic!("expected CLOSED, got {other:?}"),
    }
    drop(raw);

    let snap = epilogue("drip_fed_survivor", addr, metrics);
    assert_eq!(
        snap.connections_expired, 1,
        "the loris expires, the dripper does not: {snap:?}"
    );
    handle.shutdown();
}
