//! The full serving story, end to end: search result → weight-bearing
//! artifact on disk → long-running TCP daemon → a fleet of concurrent
//! client streams — with emissions verified against solo sessions.
//!
//! 1. compile a searched TEMPONet into an f32 plan, calibrate + quantize it,
//!    and write **both** as `pit-arch/2` artifacts (weights included);
//! 2. boot `pit-serve` from the int8 artifact *file* — the daemon never
//!    sees model code, a searched network or calibration data;
//! 3. drive 16 concurrent client connections with ragged stream lengths
//!    and staggered open/close, and assert every emission is bit-for-bit
//!    identical to a solo `QuantizedSession`;
//! 4. grow the registry over the wire (LOAD_MODEL adds the f32 artifact
//!    beside the int8 model), open a stream on it by name (protocol v3)
//!    and verify the f32 engine serves within 1e-5 of a solo `Session`;
//! 5. batch several streams into single protocol-v2 PUSH_N frames through
//!    a `ClientBuilder` client and demux the coalesced EMIT_N replies;
//! 6. read the STATS counters (aggregated across the wave-batcher shards),
//!    scrape the HTTP telemetry sidecar (`/healthz`, Prometheus `/metrics`)
//!    and drain gracefully.
//!
//! Run with: `cargo run --release --example serving_daemon`

use pit::prelude::*;
use pit_infer::{compile_temponet, QuantizedPlan, QuantizedSession};
use pit_serve::protocol::entry_runs;
use pit_serve::{Client, ClientBuilder, ClientFrame, ServerConfig, ServerFrame, StatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const C: usize = 4;
const STREAMS: usize = 16;
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// One blocking HTTP GET against the telemetry sidecar; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("sidecar reachable");
    stream.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: example\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("request sent");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response read");
    let text = String::from_utf8(response).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "sidecar answered 200: {head}"
    );
    body.to_string()
}

fn main() {
    // 1. A searched TEMPONet (random weights stand in for a trained model;
    //    the numerics of serving are identical), compiled and quantized.
    let config = TempoNetConfig::scaled(8, 64);
    let mut rng = StdRng::seed_from_u64(0);
    let net = TempoNet::new(&mut rng, &config);
    net.set_dilations(&[2, 4, 4, 8, 8, 16, 16]);
    let plan = Arc::new(compile_temponet(&net));
    let calibration = pit_tensor::init::uniform(&mut rng, &[1, C, 64], 1.0);
    let qplan = Arc::new(
        QuantizedPlan::quantize(&plan, std::slice::from_ref(&calibration)).expect("plan quantizes"),
    );

    let dir = std::env::temp_dir().join(format!("pit-serving-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let f32_path = dir.join("temponet_f32.pit2.json");
    let i8_path = dir.join("temponet_i8.pit2.json");
    std::fs::write(&f32_path, plan.to_artifact_string()).expect("write f32 artifact");
    std::fs::write(&i8_path, qplan.to_artifact_string()).expect("write i8 artifact");
    println!(
        "artifacts             : {} ({} bytes f32) / {} ({} bytes i8)",
        f32_path.display(),
        std::fs::metadata(&f32_path).unwrap().len(),
        i8_path.display(),
        std::fs::metadata(&i8_path).unwrap().len(),
    );

    // 2. Boot the daemon from the int8 artifact file, on an ephemeral port:
    //    one event-driven edge thread owning every socket, four wave-batcher
    //    shards owning the session pools.
    let server = pit_serve::Server::bind_artifact(
        &i8_path,
        ServerConfig {
            shards: 4,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("daemon boots from the artifact");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();
    println!("daemon                : listening on {addr} (kind i8, 4 shards, booted from file)");
    println!("telemetry             : sidecar on http://{metrics_addr}");

    // 3. Sixteen concurrent client connections, ragged lengths (24..=84
    //    steps), staggered connects, bursty pushes — every emission must be
    //    bit-for-bit a solo QuantizedSession's output.
    let mut rng = StdRng::seed_from_u64(1);
    let inputs: Vec<Vec<f32>> = (0..STREAMS)
        .map(|i| {
            (0..(24 + 4 * i) * C)
                .map(|_| rng.gen::<f32>() - 0.5)
                .collect()
        })
        .collect();
    let started = Instant::now();
    let workers: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, input)| {
            std::thread::spawn(move || -> Vec<Vec<f32>> {
                std::thread::sleep(Duration::from_millis((i % 4) as u64 * 2));
                let mut client = Client::connect(addr).expect("connect");
                client.open(i as u32).expect("open");
                let steps = input.len() / C;
                let burst = 1 + i % 7; // ragged push sizes
                let mut pushed = 0;
                while pushed < steps {
                    let take = burst.min(steps - pushed);
                    client
                        .push(i as u32, C as u32, &input[pushed * C..(pushed + take) * C])
                        .expect("push");
                    pushed += take;
                }
                let mut outputs = Vec::new();
                while outputs.len() < steps / 8 {
                    match client
                        .recv_timeout(RECV_TIMEOUT)
                        .expect("transport")
                        .expect("emissions before timeout")
                    {
                        ServerFrame::EmitN {
                            outputs: o, dim, ..
                        } => {
                            outputs.extend(o.chunks_exact(dim as usize).map(|c| c.to_vec()));
                        }
                        ServerFrame::Opened { .. } => {}
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
                client.close(i as u32).expect("close");
                outputs
            })
        })
        .collect();
    let results: Vec<Vec<Vec<f32>>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let mut timesteps = 0usize;
    for (i, (input, got)) in inputs.iter().zip(results.iter()).enumerate() {
        timesteps += input.len() / C;
        let mut solo = QuantizedSession::new(Arc::clone(&qplan));
        let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| solo.push(s)).collect();
        assert_eq!(
            got, &want,
            "stream {i}: daemon must be bit-exact vs solo i8"
        );
    }
    let elapsed = started.elapsed();
    println!(
        "i8 fleet              : {STREAMS} ragged streams, {timesteps} timesteps in {:.1} ms \
         ({:.0} timesteps/s) — all emissions bit-exact vs solo sessions",
        elapsed.as_secs_f64() * 1e3,
        timesteps as f64 / elapsed.as_secs_f64()
    );

    // 4. Grow the registry over the wire: the f32 artifact has a different
    // name than the serving int8 plan, so LOAD_MODEL adds it beside the
    // original (a same-name load would be a replace, refused while that
    // model has open streams). New streams then pick it by name.
    let mut client = Client::connect(addr).expect("connect");
    client
        .send(&ClientFrame::LoadModel {
            path: f32_path.display().to_string(),
        })
        .expect("send");
    let f32_name = match client.recv_timeout(RECV_TIMEOUT).unwrap() {
        Some(ServerFrame::ModelLoaded { name }) => {
            println!("hot load              : registry grew — {name} (f32) now servable");
            name
        }
        other => panic!("load failed: {other:?}"),
    };
    let f32_input: Vec<f32> = (0..32 * C).map(|_| rng.gen::<f32>() - 0.5).collect();
    client.open_with_model(0, &f32_name).expect("open");
    client.push(0, C as u32, &f32_input).expect("push");
    let mut got = Vec::new();
    while got.len() < 32 / 8 {
        match client.recv_timeout(RECV_TIMEOUT).unwrap().expect("frames") {
            ServerFrame::EmitN { outputs, dim, .. } => {
                got.extend(outputs.chunks_exact(dim as usize).map(|c| c.to_vec()));
            }
            ServerFrame::Opened { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let mut solo = Session::new(Arc::clone(&plan));
    let want: Vec<Vec<f32>> = f32_input.chunks(C).filter_map(|s| solo.push(s)).collect();
    for (a, b) in got.iter().zip(want.iter()) {
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5, "f32 serving parity: {x} vs {y}");
        }
    }
    println!("f32 parity            : name-selected engine matches solo Session within 1e-5");

    // 5. Protocol v2: a builder-configured client batches four streams into
    //    one PUSH_N frame per 8-step round; the server coalesces each
    //    wave's replies for the connection into EMIT_N frames. The
    //    builder's default_model routes every plain open() to the f32 entry.
    const V2_STREAMS: usize = 4;
    const V2_STEPS: usize = 32;
    let mut v2 = ClientBuilder::new()
        .connect_timeout(Duration::from_secs(5))
        .read_timeout(RECV_TIMEOUT)
        .write_batch(8)
        .default_model(&f32_name)
        .connect(addr)
        .expect("connect v2 client");
    let v2_inputs: Vec<Vec<f32>> = (0..V2_STREAMS)
        .map(|_| (0..V2_STEPS * C).map(|_| rng.gen::<f32>() - 0.5).collect())
        .collect();
    for sid in 0..V2_STREAMS as u32 {
        v2.open(100 + sid).expect("open");
    }
    for round in 0..V2_STEPS / 8 {
        let entries: Vec<(u32, u32)> = (0..V2_STREAMS as u32).map(|sid| (100 + sid, 8)).collect();
        let samples: Vec<f32> = v2_inputs
            .iter()
            .flat_map(|input| input[round * 8 * C..(round + 1) * 8 * C].iter().copied())
            .collect();
        v2.push_n(C as u32, &entries, &samples).expect("push_n");
    }
    let mut v2_out: std::collections::HashMap<u32, Vec<Vec<f32>>> = Default::default();
    let mut emit_n_frames = 0usize;
    while v2_out.len() < V2_STREAMS || v2_out.values().any(|v| v.len() < V2_STEPS / 8) {
        match v2.recv().expect("v2 frames") {
            ServerFrame::EmitN {
                dim,
                entries,
                outputs,
            } => {
                emit_n_frames += 1;
                for (sid, run) in entry_runs(dim, &entries, &outputs) {
                    v2_out
                        .entry(sid)
                        .or_default()
                        .extend(run.chunks_exact(dim as usize).map(|c| c.to_vec()));
                }
            }
            ServerFrame::Opened { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for (s, input) in v2_inputs.iter().enumerate() {
        let mut solo = Session::new(Arc::clone(&plan));
        let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|x| solo.push(x)).collect();
        let got = &v2_out[&(100 + s as u32)];
        assert_eq!(got.len(), want.len(), "v2 stream {s}: emission count");
        for (a, b) in got.iter().zip(want.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-5, "v2 stream {s} parity: {x} vs {y}");
            }
        }
    }
    println!(
        "protocol v2           : {V2_STREAMS} streams x {V2_STEPS} steps over PUSH_N, \
         {emit_n_frames} coalesced EMIT_N frames back — 1e-5 parity vs solo sessions"
    );

    // 6. Live stats, then graceful drain.
    client.stats().expect("stats");
    let Some(ServerFrame::StatsJson { json }) = client.recv_timeout(RECV_TIMEOUT).unwrap() else {
        panic!("expected stats")
    };
    let snap = StatsSnapshot::from_json_str(&json).expect("stats parse");
    println!(
        "stats                 : {} waves over {} shards, occupancy {:.1}, \
         wave p50 {} ns / p99 {} ns",
        snap.waves, snap.shards, snap.wave_occupancy, snap.wave_p50_ns, snap.wave_p99_ns
    );
    // The HTTP sidecar sees the same atomics: /healthz says serving, and
    // the Prometheus exposition carries the totals the STATS frame reported.
    let healthz = http_get(metrics_addr, "/healthz");
    assert!(healthz.contains("\"serving\""), "healthz: {healthz}");
    let metrics = http_get(metrics_addr, "/metrics");
    let waves_line = metrics
        .lines()
        .find(|l| l.starts_with("pit_serve_waves_total "))
        .expect("waves family exported");
    println!(
        "telemetry             : healthz serving, scrape {} bytes, {waves_line}",
        metrics.len()
    );

    let stats = handle.shutdown();
    println!("drained               : {stats}");
    assert_eq!(stats.streams_open, 0, "drain closes every stream");
    assert_eq!(stats.streams_opened, STREAMS as u64 + 1 + V2_STREAMS as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
