//! End-to-end loopback tests: a real daemon on an ephemeral port, real TCP
//! clients, and emissions checked against solo `Session` /
//! `QuantizedSession` runs — within 1e-5 for f32, bit-for-bit for int8.

mod common;

use common::{collect_emissions, quantized_plan, searched_plan};
use pit_infer::{QuantizedSession, Session};
use pit_serve::protocol::entry_runs;
use pit_serve::{
    Client, ClientFrame, CloseReason, ErrorCode, ServeEngine, Server, ServerConfig, ServerFrame,
    StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const C: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

fn random_stream(rng: &mut StdRng, steps: usize) -> Vec<f32> {
    (0..steps * C).map(|_| rng.gen::<f32>() - 0.5).collect()
}

fn assert_f32_close(got: &[Vec<f32>], want: &[Vec<f32>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: emission count");
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.len(), b.len(), "{label}: output dim");
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5, "{label}: {x} vs {y}");
        }
    }
}

/// 16 concurrent client threads (one connection + one stream each), ragged
/// stream lengths and staggered open/close, against one daemon. Shared
/// scenario for both engines.
fn sixteen_ragged_streams(
    engine: ServeEngine,
    config: ServerConfig,
    mut solo: impl FnMut(&[f32]) -> Vec<Vec<f32>>,
) {
    const STREAMS: usize = 16;
    let server = Server::bind(engine, config).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut rng = StdRng::seed_from_u64(7);
    // Ragged lengths: 8..=68 steps, deliberately crossing the pooled
    // emission period (8) unevenly.
    let inputs: Vec<Vec<f32>> = (0..STREAMS)
        .map(|i| random_stream(&mut rng, 8 + 4 * i))
        .collect();

    let dim = 1usize;
    let workers: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, input)| {
            std::thread::spawn(move || -> Vec<Vec<f32>> {
                // Stagger connects and disconnects.
                std::thread::sleep(Duration::from_millis((i as u64 % 5) * 3));
                let mut client = Client::connect(addr).expect("connect");
                client.open(i as u32).expect("open");
                let steps = input.len() / C;
                // Push in ragged bursts: single samples for even streams,
                // multi-step bursts for odd ones.
                let burst = if i % 2 == 0 { 1 } else { 5 };
                let mut pushed = 0;
                while pushed < steps {
                    let take = burst.min(steps - pushed);
                    client
                        .push(i as u32, C as u32, &input[pushed * C..(pushed + take) * C])
                        .expect("push");
                    pushed += take;
                }
                let want = steps / 8; // three stride-2 pools → emit every 8
                let out = collect_emissions(&mut client, want, dim);
                assert_eq!(out.len(), want, "no extra emissions expected");
                client.close(i as u32).expect("close");
                out
            })
        })
        .collect();

    let results: Vec<Vec<Vec<f32>>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();

    let stats = handle.shutdown();
    assert_eq!(stats.streams_opened, STREAMS as u64);
    assert_eq!(
        stats.timesteps_in,
        inputs.iter().map(|i| (i.len() / C) as u64).sum::<u64>()
    );
    assert!(stats.waves > 0);

    for (i, (input, got)) in inputs.iter().zip(results.iter()).enumerate() {
        let want = solo(input);
        assert_f32_close(got, &want, &format!("stream {i}"));
    }
}

#[test]
fn f32_sixteen_ragged_streams_match_solo_sessions() {
    let plan = searched_plan(1);
    let solo_plan = Arc::clone(&plan);
    sixteen_ragged_streams(
        ServeEngine::F32(plan),
        ServerConfig::default(),
        move |input| {
            let mut session = Session::new(Arc::clone(&solo_plan));
            input.chunks(C).filter_map(|s| session.push(s)).collect()
        },
    );
}

#[test]
fn f32_ragged_streams_across_four_shards_match_solo_sessions() {
    let plan = searched_plan(21);
    let solo_plan = Arc::clone(&plan);
    sixteen_ragged_streams(
        ServeEngine::F32(plan),
        ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        },
        move |input| {
            let mut session = Session::new(Arc::clone(&solo_plan));
            input.chunks(C).filter_map(|s| session.push(s)).collect()
        },
    );
}

#[test]
fn i8_sixteen_ragged_streams_match_solo_sessions_bit_for_bit() {
    let plan = searched_plan(2);
    let qplan = quantized_plan(&plan, 3);
    let solo_plan = Arc::clone(&qplan);
    // The shared scenario checks 1e-5; int8 must actually be bit-exact, so
    // re-check equality inside the solo closure by returning the session's
    // own outputs and comparing exactly below.
    let server = Server::bind(ServeEngine::I8(Arc::clone(&qplan)), ServerConfig::default())
        .expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut rng = StdRng::seed_from_u64(11);
    let inputs: Vec<Vec<f32>> = (0..16)
        .map(|i| random_stream(&mut rng, 16 + 3 * i))
        .collect();
    let workers: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, input)| {
            std::thread::spawn(move || -> Vec<Vec<f32>> {
                let mut client = Client::connect(addr).expect("connect");
                client.open(900 + i as u32).expect("open");
                let steps = input.len() / C;
                client.push(900 + i as u32, C as u32, &input).expect("push");
                let out = collect_emissions(&mut client, steps / 8, 1);
                assert_eq!(out.len(), steps / 8, "no extra emissions expected");
                out
            })
        })
        .collect();
    let results: Vec<Vec<Vec<f32>>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    handle.shutdown();

    for (i, (input, got)) in inputs.iter().zip(results.iter()).enumerate() {
        let mut session = QuantizedSession::new(Arc::clone(&solo_plan));
        let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
        assert_eq!(got, &want, "stream {i} must be bit-exact");
    }
}

/// Drains frames until every stream in `want` reached its expected output
/// count, demuxing EMIT_N frames per stream.
fn collect_demuxed(
    client: &mut Client,
    want: &std::collections::HashMap<u32, usize>,
) -> std::collections::HashMap<u32, Vec<Vec<f32>>> {
    let mut out: std::collections::HashMap<u32, Vec<Vec<f32>>> = std::collections::HashMap::new();
    let done = |out: &std::collections::HashMap<u32, Vec<Vec<f32>>>| {
        want.iter()
            .all(|(sid, &n)| out.get(sid).map_or(n == 0, |v| v.len() >= n))
    };
    while !done(&out) {
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
                for (stream_id, run) in entry_runs(dim, &entries, &outputs) {
                    let per = out.entry(stream_id).or_default();
                    for chunk in run.chunks_exact(dim as usize) {
                        per.push(chunk.to_vec());
                    }
                }
            }
            ServerFrame::Opened { .. } | ServerFrame::Closed { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for (sid, &n) in want {
        assert_eq!(
            out.get(sid).map_or(0, Vec::len),
            n,
            "stream {sid}: no extra emissions expected"
        );
    }
    out
}

/// 32 streams spread over 4 connections and 4 shards, several streams per
/// connection, pushed in interleaved bursts — the demux (stream → shard at
/// OPEN, per-stream reassembly on EMIT_N) must keep every stream bit-exact
/// with a solo int8 session.
#[test]
fn i8_multi_connection_streams_across_four_shards_are_bit_exact() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 8;
    let plan = searched_plan(31);
    let qplan = quantized_plan(&plan, 32);
    let server = Server::bind(
        ServeEngine::I8(Arc::clone(&qplan)),
        ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut rng = StdRng::seed_from_u64(33);
    // Ragged: stream s on conn c runs 8..=64 steps.
    let inputs: Vec<Vec<Vec<f32>>> = (0..CONNS)
        .map(|c| {
            (0..PER_CONN)
                .map(|s| random_stream(&mut rng, 8 + 8 * ((c + 2 * s) % 8)))
                .collect()
        })
        .collect();

    let workers: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(c, conn_inputs)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for s in 0..PER_CONN {
                    client.open(s as u32).expect("open");
                }
                // Interleave bursts of 4 timesteps round-robin across the
                // connection's streams, so shards see mixed arrivals.
                let mut offsets = [0usize; PER_CONN];
                loop {
                    let mut progressed = false;
                    for (s, input) in conn_inputs.iter().enumerate() {
                        let steps = input.len() / C;
                        if offsets[s] < steps {
                            let take = 4.min(steps - offsets[s]);
                            client
                                .push(
                                    s as u32,
                                    C as u32,
                                    &input[offsets[s] * C..(offsets[s] + take) * C],
                                )
                                .expect("push");
                            offsets[s] += take;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                let want: std::collections::HashMap<u32, usize> = conn_inputs
                    .iter()
                    .enumerate()
                    .map(|(s, input)| (s as u32, input.len() / C / 8))
                    .collect();
                let out = collect_demuxed(&mut client, &want);
                (c, out)
            })
        })
        .collect();

    let results: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    let stats = handle.shutdown();
    assert_eq!(stats.streams_opened, (CONNS * PER_CONN) as u64);
    assert_eq!(stats.shards, 4);

    for (c, out) in results {
        for (s, input) in inputs[c].iter().enumerate() {
            let mut session = QuantizedSession::new(Arc::clone(&qplan));
            let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|x| session.push(x)).collect();
            assert_eq!(
                out.get(&(s as u32)).map_or(0, Vec::len),
                want.len(),
                "conn {c} stream {s}: emission count"
            );
            assert_eq!(
                out[&(s as u32)],
                want,
                "conn {c} stream {s} must be bit-exact"
            );
        }
    }
}

/// PUSH_N batches several streams' timesteps into one frame; the demuxed
/// EMIT_N replies stay bit-exact with solo int8 sessions.
#[test]
fn push_n_batches_serve_bit_exact_and_reply_with_emit_n() {
    const STREAMS: usize = 6;
    const STEPS: usize = 32;
    let plan = searched_plan(41);
    let qplan = quantized_plan(&plan, 42);
    let server = Server::bind(
        ServeEngine::I8(Arc::clone(&qplan)),
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut rng = StdRng::seed_from_u64(43);
    let inputs: Vec<Vec<f32>> = (0..STREAMS)
        .map(|_| random_stream(&mut rng, STEPS))
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    for s in 0..STREAMS {
        client.open(s as u32).expect("open");
    }
    // Push all streams 8 timesteps at a time through single PUSH_N frames.
    for round in 0..STEPS / 8 {
        let entries: Vec<(u32, u32)> = (0..STREAMS).map(|s| (s as u32, 8)).collect();
        let samples: Vec<f32> = inputs
            .iter()
            .flat_map(|input| input[round * 8 * C..(round + 1) * 8 * C].iter().copied())
            .collect();
        client.push_n(C as u32, &entries, &samples).expect("push_n");
    }
    let want: std::collections::HashMap<u32, usize> =
        (0..STREAMS as u32).map(|s| (s, STEPS / 8)).collect();
    let out = collect_demuxed(&mut client, &want);
    handle.shutdown();

    for (s, input) in inputs.iter().enumerate() {
        let mut session = QuantizedSession::new(Arc::clone(&qplan));
        let solo: Vec<Vec<f32>> = input.chunks(C).filter_map(|x| session.push(x)).collect();
        assert_eq!(out[&(s as u32)], solo, "stream {s} must be bit-exact");
    }
}

/// A connection with streams pinned across all shards drops mid-sweep
/// (queued timesteps unflushed). Every shard must reclaim its slots and the
/// server-wide budget must free up for a new connection.
#[test]
fn mid_sweep_disconnect_reclaims_slots_on_every_shard() {
    const STREAMS: usize = 8;
    let plan = searched_plan(51);
    let server = Server::bind(
        ServeEngine::F32(plan),
        ServerConfig {
            shards: 4,
            max_streams: STREAMS,
            // Slow tick: the disconnect lands while pushes are queued.
            tick: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut rng = StdRng::seed_from_u64(53);
    {
        let mut doomed = Client::connect(addr).expect("connect");
        for s in 0..STREAMS {
            doomed.open(s as u32).expect("open");
        }
        // Read the OPENED acks before vanishing: a socket dropped with
        // unread replies resets the connection, and a reset may discard
        // frames still in flight toward the server — the test pins down
        // slot reclamation, not TCP loss semantics.
        for _ in 0..STREAMS {
            assert!(matches!(
                doomed.recv_timeout(RECV_TIMEOUT).unwrap(),
                Some(ServerFrame::Opened { .. })
            ));
        }
        for s in 0..STREAMS {
            let input = random_stream(&mut rng, 8);
            doomed.push(s as u32, C as u32, &input).expect("push");
        }
        // Dropped here, mid-sweep: no CLOSE frames, timesteps still queued.
    }

    // All eight slots must come back; cleanup is asynchronous, so retry.
    let mut client = Client::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + RECV_TIMEOUT;
    let mut opened = 0u32;
    while opened < STREAMS as u32 {
        client.open(100 + opened).expect("open");
        match client.recv_timeout(RECV_TIMEOUT).unwrap() {
            Some(ServerFrame::Opened { stream_id }) => {
                assert_eq!(stream_id, 100 + opened);
                opened += 1;
            }
            Some(ServerFrame::Error {
                code: ErrorCode::ServerFull,
                ..
            }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.streams_opened, 2 * STREAMS as u64);
    assert_eq!(stats.streams_open, 0);
    assert_eq!(stats.shards, 4);
}

#[test]
fn graceful_drain_delivers_pending_emissions_and_closed_frames() {
    let plan = searched_plan(4);
    let solo_plan = Arc::clone(&plan);
    let server = Server::bind(
        ServeEngine::F32(plan),
        ServerConfig {
            // A slow tick so the shutdown lands while timesteps are queued.
            tick: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut rng = StdRng::seed_from_u64(13);
    let input = random_stream(&mut rng, 16);
    let mut client = Client::connect(addr).expect("connect");
    client.open(5).expect("open");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { stream_id: 5 })
    ));
    // First burst flushes in the immediate first wave; the second lands
    // inside the 250 ms tick window and is still queued at shutdown — the
    // drain must flush it.
    client.push(5, C as u32, &input[..8 * C]).expect("push");
    std::thread::sleep(Duration::from_millis(30));
    client.push(5, C as u32, &input[8 * C..]).expect("push");
    std::thread::sleep(Duration::from_millis(30));
    let stats = handle.shutdown();
    assert_eq!(stats.timesteps_in, 16);
    assert_eq!(stats.emissions_out, 2);

    let mut outputs = Vec::new();
    let mut closed = false;
    while let Ok(Some(frame)) = client.recv_timeout(Duration::from_secs(2)) {
        match frame {
            ServerFrame::EmitN { outputs: o, .. } => {
                outputs.extend(o.chunks_exact(1).map(|c| c.to_vec()))
            }
            ServerFrame::Closed { stream_id, reason } => {
                assert_eq!(stream_id, 5);
                assert_eq!(reason, CloseReason::Drained);
                closed = true;
            }
            other => panic!("unexpected frame {other:?}"),
        }
        if closed && outputs.len() >= 2 {
            break;
        }
    }
    assert!(closed, "drain must notify the stream");
    let mut session = Session::new(solo_plan);
    let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
    assert_f32_close(&outputs, &want, "drained stream");
}

/// The edge's idle clock: an idle stream is evicted (traced as one `evict`
/// whose count is the close reason) and its id is free again, while a
/// stream on another connection that pushes every third of the timeout,
/// for more than three timeouts, is never evicted.
#[test]
fn idle_streams_are_evicted_and_slots_recycled() {
    const IDLE: Duration = Duration::from_millis(150);
    let plan = searched_plan(5);
    let server = Server::bind(
        ServeEngine::F32(plan),
        ServerConfig {
            idle_timeout: Some(IDLE),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open(1).expect("open");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { stream_id: 1 })
    ));
    let active = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.open(2).expect("open");
        let mut rng = StdRng::seed_from_u64(55);
        const PUSHES: usize = 10;
        for _ in 0..PUSHES {
            client
                .push(2, C as u32, &random_stream(&mut rng, 8))
                .expect("push");
            std::thread::sleep(IDLE / 3);
        }
        // Every frame until the CLOSE is acknowledged: OPENED, emissions,
        // and no eviction.
        client.close(2).expect("close");
        let mut emitted = 0;
        loop {
            match client.recv_timeout(RECV_TIMEOUT).unwrap() {
                Some(ServerFrame::Opened { stream_id: 2 }) => {}
                Some(ServerFrame::EmitN { dim, outputs, .. }) => {
                    emitted += outputs.len() / dim as usize
                }
                Some(ServerFrame::Closed {
                    stream_id: 2,
                    reason: CloseReason::ByClient,
                }) => break,
                other => panic!("active stream got {other:?}"),
            }
        }
        assert_eq!(emitted, PUSHES, "one emission per 8-step push");
    });
    // Stop pushing; the stream must be evicted.
    let frame = client.recv_timeout(RECV_TIMEOUT).unwrap();
    assert!(
        matches!(
            frame,
            Some(ServerFrame::Closed {
                stream_id: 1,
                reason: CloseReason::IdleEvicted,
            })
        ),
        "expected eviction, got {frame:?}"
    );
    let events = client.trace(1).expect("trace");
    let evictions: Vec<_> = events.iter().filter(|e| e.event == "evict").collect();
    assert_eq!(evictions.len(), 1, "{events:?}");
    assert_eq!(evictions[0].count, CloseReason::IdleEvicted as u64);
    active.join().expect("active stream");
    // The id is free again on this connection.
    client.open(1).expect("reopen");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { stream_id: 1 })
    ));
    let stats = handle.shutdown();
    assert_eq!(stats.streams_evicted, 1);
    assert_eq!(stats.streams_opened, 3);
}

#[test]
fn backpressure_cap_rejects_oversized_pushes() {
    let plan = searched_plan(6);
    let server = Server::bind(
        ServeEngine::F32(plan),
        ServerConfig {
            max_pending_per_conn: 12,
            // A leisurely tick so later bursts land while earlier ones are
            // still queued.
            tick: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    let mut rng = StdRng::seed_from_u64(17);
    let burst = random_stream(&mut rng, 8);
    // Three 8-step bursts against a 12-step cap: wherever the first wave
    // lands relative to these, at least one burst finds ≥ 8 steps already
    // queued and must be rejected.
    client.push(0, C as u32, &burst).expect("push 1");
    client.push(0, C as u32, &burst).expect("push 2");
    client.push(0, C as u32, &burst).expect("push 3");
    let mut saw_backpressure = false;
    for _ in 0..8 {
        match client.recv_timeout(Duration::from_secs(2)).unwrap() {
            Some(ServerFrame::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::Backpressure);
                saw_backpressure = true;
                break;
            }
            Some(_) => {}
            None => break,
        }
    }
    assert!(saw_backpressure, "a burst must trip the cap");
    let stats = handle.shutdown();
    assert!(
        stats.frames_rejected >= 1,
        "rejected: {}",
        stats.frames_rejected
    );
    assert!(
        stats.timesteps_in <= 16,
        "rejected bursts must not enqueue (got {})",
        stats.timesteps_in
    );
}

#[test]
fn stats_frame_reports_live_counters() {
    let plan = searched_plan(8);
    let server = Server::bind(ServeEngine::F32(plan), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    let mut rng = StdRng::seed_from_u64(19);
    client
        .push(0, C as u32, &random_stream(&mut rng, 16))
        .expect("push");
    let out = collect_emissions(&mut client, 2, 1);
    assert_eq!(out.len(), 2, "no extra emissions expected");
    client.ping(0xDEAD).expect("ping");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Pong { token: 0xDEAD })
    ));
    client.stats().expect("stats");
    let Some(ServerFrame::StatsJson { json }) = client.recv_timeout(RECV_TIMEOUT).unwrap() else {
        panic!("expected stats json")
    };
    let snap = StatsSnapshot::from_json_str(&json).expect("stats json parses");
    assert_eq!(snap.kind, "f32");
    assert_eq!(snap.model, "TEMPONet-plan");
    assert_eq!(snap.streams_open, 1);
    assert_eq!(snap.timesteps_in, 16);
    assert_eq!(snap.emissions_out, 2);
    assert!(snap.waves > 0 && snap.wave_p50_ns > 0);
    assert!(snap.wave_occupancy > 0.0);
    handle.shutdown();
}

#[test]
fn server_boots_from_artifact_file_and_hot_swaps_models() {
    let plan = searched_plan(9);
    let qplan = quantized_plan(&plan, 10);
    let dir = std::env::temp_dir().join(format!("pit-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let f32_path = dir.join("model_f32.json");
    let i8_path = dir.join("model_i8.json");
    std::fs::write(&f32_path, plan.to_artifact_string()).expect("write f32 artifact");
    std::fs::write(&i8_path, qplan.to_artifact_string()).expect("write i8 artifact");

    // Boot from the f32 file.
    let server = Server::bind_artifact(&f32_path, ServerConfig::default()).expect("boot");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).expect("connect");

    // Replacing the model a live stream runs on must be refused...
    client.open(0).expect("open");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { .. })
    ));
    client
        .send(&ClientFrame::LoadModel {
            path: f32_path.display().to_string(),
        })
        .expect("send");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Error {
            code: ErrorCode::StreamsActive,
            ..
        })
    ));

    // ...but loading a *differently named* artifact while that stream is
    // still open is an add, not a replace, and goes through.
    client
        .send(&ClientFrame::LoadModel {
            path: i8_path.display().to_string(),
        })
        .expect("send");
    let Some(ServerFrame::ModelLoaded { name }) = client.recv_timeout(RECV_TIMEOUT).unwrap() else {
        panic!("expected model add")
    };
    assert_eq!(name, "TEMPONet-plan-int8");

    // After closing, the same-name replace goes through too.
    client.close(0).expect("close");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Closed { .. })
    ));
    client
        .send(&ClientFrame::LoadModel {
            path: f32_path.display().to_string(),
        })
        .expect("send");
    let Some(ServerFrame::ModelLoaded { name }) = client.recv_timeout(RECV_TIMEOUT).unwrap() else {
        panic!("expected model swap")
    };
    assert_eq!(name, "TEMPONet-plan");

    // A nonexistent path fails cleanly, daemon stays up.
    client
        .send(&ClientFrame::LoadModel {
            path: dir.join("missing.json").display().to_string(),
        })
        .expect("send");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Error {
            code: ErrorCode::LoadFailed,
            ..
        })
    ));

    // And the added int8 model actually serves, selected by name.
    client
        .open_with_model(1, "TEMPONet-plan-int8")
        .expect("open on i8");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { .. })
    ));
    let mut rng = StdRng::seed_from_u64(23);
    let input = random_stream(&mut rng, 8);
    client.push(1, C as u32, &input).expect("push");
    let got = collect_emissions(&mut client, 1, 1);
    assert_eq!(got.len(), 1, "no extra emissions expected");
    let mut session = QuantizedSession::new(qplan);
    let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
    assert_eq!(got, want, "added model must serve bit-exactly");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disconnect_without_close_frees_the_streams() {
    let plan = searched_plan(12);
    let server = Server::bind(
        ServeEngine::F32(plan),
        ServerConfig {
            max_streams: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    {
        let mut doomed = Client::connect(addr).expect("connect");
        doomed.open(0).expect("open");
        doomed.open(1).expect("open");
        assert!(matches!(
            doomed.recv_timeout(RECV_TIMEOUT).unwrap(),
            Some(ServerFrame::Opened { .. })
        ));
        assert!(matches!(
            doomed.recv_timeout(RECV_TIMEOUT).unwrap(),
            Some(ServerFrame::Opened { .. })
        ));
        // Dropped here: the TCP connection closes without CLOSE frames.
    }

    // The server must reclaim both slots; a new client can fill the pool.
    let mut client = Client::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + RECV_TIMEOUT;
    loop {
        client.open(7).expect("open");
        match client.recv_timeout(RECV_TIMEOUT).unwrap() {
            Some(ServerFrame::Opened { stream_id: 7 }) => break,
            Some(ServerFrame::Error {
                code: ErrorCode::ServerFull,
                ..
            }) if std::time::Instant::now() < deadline => {
                // Disconnect cleanup is asynchronous; retry.
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.streams_open, 0);
}
