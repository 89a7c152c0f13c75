//! Multi-model registry end to end: one daemon serving an f32 plan and its
//! int8 lowering side by side, streams selecting per-OPEN — interleaved
//! traffic must match solo sessions (1e-5 for f32, bit-for-bit for int8),
//! stats must break down per model, and per-stream channel validation must
//! follow each stream's own model.

mod common;

use common::{collect_emissions, quantized_plan, searched_plan};
use pit_infer::{compile, QuantizedSession, Session};
use pit_models::{GenericTcn, GenericTcnConfig};
use pit_nas::SearchableNetwork;
use pit_serve::{
    Client, ClientFrame, ErrorCode, ServeEngine, Server, ServerConfig, ServerFrame, StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const C: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

fn random_stream(rng: &mut StdRng, steps: usize, channels: usize) -> Vec<f32> {
    (0..steps * channels)
        .map(|_| rng.gen::<f32>() - 0.5)
        .collect()
}

/// Two models — the f32 plan and its int8 lowering — in one registry;
/// 8 threads alternate between them on interleaved connections. Every f32
/// stream matches a solo `Session` within 1e-5; every int8 stream matches
/// a solo `QuantizedSession` bit for bit. The shutdown snapshot carries a
/// per-model breakdown whose counters sum to the totals.
#[test]
fn f32_and_i8_models_interleave_and_match_solo_sessions() {
    let plan = searched_plan(41);
    let qplan = quantized_plan(&plan, 42);
    let server = Server::bind_models(
        vec![
            ("fp".into(), ServeEngine::F32(Arc::clone(&plan))),
            ("q8".into(), ServeEngine::I8(Arc::clone(&qplan))),
        ],
        "fp",
        ServerConfig::default(),
    )
    .expect("bind registry");
    let addr = server.local_addr();
    let handle = server.spawn();

    const STREAMS: usize = 8;
    let mut rng = StdRng::seed_from_u64(5);
    let inputs: Vec<Vec<f32>> = (0..STREAMS)
        .map(|i| random_stream(&mut rng, 16 + 8 * i, C))
        .collect();

    let workers: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, input)| {
            std::thread::spawn(move || -> Vec<Vec<f32>> {
                std::thread::sleep(Duration::from_millis((i as u64 % 3) * 5));
                let mut client = Client::connect(addr).expect("connect");
                let model = if i % 2 == 0 { "fp" } else { "q8" };
                client.open_with_model(i as u32, model).expect("open");
                let steps = input.len() / C;
                // Ragged bursts so waves interleave both models.
                let burst = if i % 2 == 0 { 3 } else { 7 };
                let mut pushed = 0;
                while pushed < steps {
                    let take = burst.min(steps - pushed);
                    client
                        .push(i as u32, C as u32, &input[pushed * C..(pushed + take) * C])
                        .expect("push");
                    pushed += take;
                }
                let out = collect_emissions(&mut client, steps / 8, 1);
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
    for (i, (input, got)) in inputs.iter().zip(results.iter()).enumerate() {
        if i % 2 == 0 {
            let mut session = Session::new(Arc::clone(&plan));
            let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
            assert_eq!(got.len(), want.len(), "f32 stream {i}: emission count");
            for (a, b) in got.iter().zip(want.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x - y).abs() < 1e-5, "f32 stream {i}: {x} vs {y}");
                }
            }
        } else {
            let mut session = QuantizedSession::new(Arc::clone(&qplan));
            let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
            assert_eq!(got, &want, "i8 stream {i} must be bit-exact");
        }
    }

    // Per-model breakdown: both models saw traffic and the counters sum to
    // the connection-level totals.
    assert_eq!(stats.models.len(), 2);
    let fp = stats.models.iter().find(|m| m.name == "fp").expect("fp");
    let q8 = stats.models.iter().find(|m| m.name == "q8").expect("q8");
    assert_eq!(fp.kind, "f32");
    assert_eq!(q8.kind, "i8");
    assert_eq!(fp.streams_opened, (STREAMS / 2) as u64);
    assert_eq!(q8.streams_opened, (STREAMS / 2) as u64);
    assert_eq!(
        fp.timesteps_in + q8.timesteps_in,
        stats.timesteps_in,
        "model breakdown sums to the totals"
    );
    assert_eq!(fp.emissions_out + q8.emissions_out, stats.emissions_out);
    assert!(fp.waves > 0 && q8.waves > 0);
}

/// The registry lists over the wire: LIST_MODELS returns every model with
/// its geometry, exactly one marked default, and live stream gauges.
#[test]
fn list_models_reports_the_registry_with_live_gauges() {
    let plan = searched_plan(43);
    let qplan = quantized_plan(&plan, 44);
    let server = Server::bind_models(
        vec![
            ("fp".into(), ServeEngine::F32(Arc::clone(&plan))),
            ("q8".into(), ServeEngine::I8(qplan)),
        ],
        "q8",
        ServerConfig::default(),
    )
    .expect("bind registry");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open_with_model(0, "fp").expect("open");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { .. })
    ));
    let listed = client.list_models().expect("LIST_MODELS");
    assert_eq!(listed.len(), 2);
    let fp = listed.iter().find(|m| m.name == "fp").expect("fp listed");
    let q8 = listed.iter().find(|m| m.name == "q8").expect("q8 listed");
    assert_eq!(fp.kind, "f32");
    assert_eq!(fp.input_channels, C);
    assert_eq!(fp.output_dim, 1);
    assert!(fp.receptive_field > 0);
    assert_eq!(fp.streams_open, 1);
    assert_eq!(q8.streams_open, 0);
    assert!(!fp.default);
    assert!(q8.default, "the configured default is q8");

    // A model-less OPEN lands on the default.
    client.open(1).expect("open default");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Opened { .. })
    ));
    let listed = client.list_models().expect("LIST_MODELS");
    let q8 = listed.iter().find(|m| m.name == "q8").expect("q8 listed");
    assert_eq!(q8.streams_open, 1);

    handle.shutdown();
}

/// Regression for the registry channel-count audit: with models of
/// *different* input widths in one registry, PUSH validation must follow
/// the stream's own model — the 1-channel stream takes 1-channel pushes
/// and refuses 4-channel ones, and vice versa, on the same connection.
#[test]
fn push_channel_validation_follows_each_streams_model() {
    let narrow = {
        let mut rng = StdRng::seed_from_u64(3);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        net.set_dilations(&[2, 4]);
        Arc::new(compile(&net))
    };
    assert_eq!(narrow.input_channels(), 1);
    let wide = searched_plan(45);
    assert_eq!(wide.input_channels(), C);

    let server = Server::bind_models(
        vec![
            ("narrow".into(), ServeEngine::F32(narrow)),
            ("wide".into(), ServeEngine::F32(wide)),
        ],
        "narrow",
        ServerConfig::default(),
    )
    .expect("bind registry");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open_with_model(0, "narrow").expect("open");
    client.open_with_model(1, "wide").expect("open");
    for _ in 0..2 {
        assert!(matches!(
            client.recv_timeout(RECV_TIMEOUT).unwrap(),
            Some(ServerFrame::Opened { .. })
        ));
    }

    // Wrong width for the stream's model → BadFrame, even though the other
    // registry model would accept it.
    client.push(0, C as u32, &[0.1; C]).expect("send");
    match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
        Some(ServerFrame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("narrow"), "{message}");
        }
        other => panic!("expected BadFrame, got {other:?}"),
    }
    client.push(1, 1, &[0.1]).expect("send");
    match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
        Some(ServerFrame::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("wide"), "{message}");
        }
        other => panic!("expected BadFrame, got {other:?}"),
    }

    // The right widths flow on both streams of the same connection.
    client.push(0, 1, &[0.5, 0.5]).expect("send");
    client.push(1, C as u32, &[0.5; 2 * C]).expect("send");
    // The edge answers STATS as soon as it has *forwarded* the pushes; the
    // timestep counters are bumped on the shard threads. The snapshot's
    // `settled` flag says whether any routed events or queued timesteps
    // are still in flight — poll on it rather than on counter values.
    let deadline = Instant::now() + RECV_TIMEOUT;
    let snap = loop {
        client.stats().expect("stats");
        let json = loop {
            match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
                Some(ServerFrame::StatsJson { json }) => break json,
                Some(ServerFrame::EmitN { .. }) => continue,
                other => panic!("unexpected frame {other:?}"),
            }
        };
        let snap = StatsSnapshot::from_json_str(&json).expect("stats parse");
        if snap.settled {
            break snap;
        }
        assert!(
            Instant::now() < deadline,
            "shards never processed the pushes: {json}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(snap.timesteps_in, 4, "2 narrow + 2 wide steps enqueued");
    let narrow_stats = snap.models.iter().find(|m| m.name == "narrow").unwrap();
    let wide_stats = snap.models.iter().find(|m| m.name == "wide").unwrap();
    assert_eq!(narrow_stats.timesteps_in, 2);
    assert_eq!(wide_stats.timesteps_in, 2);

    handle.shutdown();
}

/// LOAD_MODEL while traffic is live: four workers stream against the
/// booted f32 model while the main thread *adds* an int8 model to the
/// registry, serves a stream on it, then *replaces* it — all mid-flight.
/// The untouched f32 streams must match solo sessions as if the registry
/// never changed, the int8 stream must be bit-exact, and the shutdown
/// snapshot's per-model breakdown must stay consistent with the totals.
#[test]
fn load_model_during_live_traffic_leaves_streams_bit_exact() {
    let plan = searched_plan(46);
    let qplan = quantized_plan(&plan, 47);
    let dir = std::env::temp_dir().join(format!("pit-serve-chaos-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let i8_path = dir.join("model_i8.json");
    std::fs::write(&i8_path, qplan.to_artifact_string()).expect("write i8 artifact");

    let server = Server::bind_models(
        vec![("fp".into(), ServeEngine::F32(Arc::clone(&plan)))],
        "fp",
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Four workers keep f32 traffic flowing for the whole registry dance:
    // 4 rounds of 8 steps with sleeps in between (~90 ms of live pushes).
    const WORKERS: usize = 4;
    let mut rng = StdRng::seed_from_u64(48);
    let inputs: Vec<Vec<f32>> = (0..WORKERS)
        .map(|_| random_stream(&mut rng, 32, C))
        .collect();
    let threads: Vec<_> = inputs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, input)| {
            std::thread::spawn(move || -> Vec<Vec<f32>> {
                let mut client = Client::connect(addr).expect("connect");
                client.open(i as u32).expect("open");
                for round in 0..4 {
                    client
                        .push(
                            i as u32,
                            C as u32,
                            &input[round * 8 * C..(round + 1) * 8 * C],
                        )
                        .expect("push");
                    std::thread::sleep(Duration::from_millis(30));
                }
                let out = collect_emissions(&mut client, 4, 1);
                client.close(i as u32).expect("close");
                out
            })
        })
        .collect();

    // Mid-traffic: LOAD_MODEL adds the int8 artifact beside "fp"...
    std::thread::sleep(Duration::from_millis(15));
    let mut control = Client::connect(addr).expect("connect");
    control
        .send(&ClientFrame::LoadModel {
            path: i8_path.display().to_string(),
        })
        .expect("send");
    let Some(ServerFrame::ModelLoaded { name }) = control.recv_timeout(RECV_TIMEOUT).unwrap()
    else {
        panic!("expected the int8 model to load as an add")
    };
    // ...a stream on the fresh model serves bit-exact while f32 pushes
    // are still in flight...
    control.open_with_model(100, &name).expect("open");
    let q_input = random_stream(&mut rng, 8, C);
    control.push(100, C as u32, &q_input).expect("push");
    let got = collect_emissions(&mut control, 1, 1);
    let mut q_session = QuantizedSession::new(Arc::clone(&qplan));
    let q_want: Vec<Vec<f32>> = q_input
        .chunks(C)
        .filter_map(|s| q_session.push(s))
        .collect();
    assert_eq!(got, q_want, "the hot-loaded int8 stream must be bit-exact");
    control.close(100).expect("close");
    assert!(matches!(
        control.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Closed { stream_id: 100, .. })
    ));
    // ...and with its stream closed, reloading the same artifact is an
    // atomic replace, still under live f32 traffic.
    control
        .send(&ClientFrame::LoadModel {
            path: i8_path.display().to_string(),
        })
        .expect("send");
    let Some(ServerFrame::ModelLoaded { name: swapped }) =
        control.recv_timeout(RECV_TIMEOUT).unwrap()
    else {
        panic!("expected the int8 model to replace in place")
    };
    assert_eq!(swapped, name);

    let results: Vec<Vec<Vec<f32>>> = threads
        .into_iter()
        .map(|t| t.join().expect("worker"))
        .collect();
    for (i, (input, got)) in inputs.iter().zip(results.iter()).enumerate() {
        let mut session = Session::new(Arc::clone(&plan));
        let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
        assert_eq!(got.len(), want.len(), "f32 stream {i}: emission count");
        for (a, b) in got.iter().zip(want.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "f32 stream {i} must be untouched by the registry dance: {x} vs {y}"
                );
            }
        }
    }

    // Per-model books survive both the add and the replace: counters key
    // the model entry, not the engine instance.
    let stats = handle.shutdown();
    assert_eq!(stats.models.len(), 2);
    let fp = stats.models.iter().find(|m| m.name == "fp").expect("fp");
    let q8 = stats.models.iter().find(|m| m.name == name).expect("i8");
    assert_eq!(fp.streams_opened, WORKERS as u64);
    assert_eq!(q8.streams_opened, 1);
    assert_eq!(fp.timesteps_in, (WORKERS * 32) as u64);
    assert_eq!(q8.timesteps_in, 8);
    assert_eq!(fp.timesteps_in + q8.timesteps_in, stats.timesteps_in);
    assert_eq!(fp.emissions_out + q8.emissions_out, stats.emissions_out);
    assert_eq!(fp.streams_open, 0);
    assert_eq!(q8.streams_open, 0);
}
