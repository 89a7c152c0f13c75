//! The thousand-stream sweep: 1024 concurrent streams (32 connections ×
//! 32 streams each) against one daemon — event-driven edge, four
//! wave-batcher shards — with every stream's emissions checked bit-exactly
//! against a solo int8 session. No per-connection server threads exist to
//! make this cheap; the edge multiplexes all 32 sockets in one poll loop.

use pit_infer::{compile, InferencePlan, QuantizedPlan, QuantizedSession};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_serve::protocol::entry_runs;
use pit_serve::{Client, ServeEngine, Server, ServerConfig, ServerFrame};
use pit_tensor::init;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const C: usize = 4;
const CONNS: usize = 32;
const PER_CONN: usize = 32;
const STEPS: usize = 16;
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

fn quantized_fixture() -> Arc<QuantizedPlan> {
    let cfg = TempoNetConfig::scaled(8, 64);
    let mut rng = StdRng::seed_from_u64(61);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan: InferencePlan = compile(&net);
    let x = init::uniform(&mut rng, &[1, C, 64], 1.0);
    Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap())
}

/// Deterministic per-stream input so workers and the solo checker agree
/// without sharing buffers.
fn stream_input(conn: usize, stream: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(7_000 + (conn * PER_CONN + stream) as u64);
    (0..STEPS * C).map(|_| rng.gen::<f32>() - 0.5).collect()
}

#[test]
fn thousand_stream_sweep_is_bit_exact_under_the_event_driven_edge() {
    let qplan = quantized_fixture();
    let server = Server::bind(
        ServeEngine::I8(Arc::clone(&qplan)),
        ServerConfig {
            shards: 4,
            max_streams: CONNS * PER_CONN,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let workers: Vec<_> = (0..CONNS)
        .map(|conn| {
            std::thread::spawn(move || -> HashMap<u32, Vec<Vec<f32>>> {
                let mut client = Client::connect(addr).expect("connect");
                for s in 0..PER_CONN {
                    client.open(s as u32).expect("open");
                }
                let inputs: Vec<Vec<f32>> = (0..PER_CONN).map(|s| stream_input(conn, s)).collect();
                // Protocol v2 at scale: each 8-step round ships one PUSH_N
                // frame carrying all 32 streams of this connection.
                for round in 0..STEPS / 8 {
                    let entries: Vec<(u32, u32)> = (0..PER_CONN).map(|s| (s as u32, 8)).collect();
                    let samples: Vec<f32> = inputs
                        .iter()
                        .flat_map(|input| input[round * 8 * C..(round + 1) * 8 * C].iter().copied())
                        .collect();
                    client.push_n(C as u32, &entries, &samples).expect("push_n");
                }
                let want_per_stream = STEPS / 8;
                let mut out: HashMap<u32, Vec<Vec<f32>>> = HashMap::new();
                let done = |out: &HashMap<u32, Vec<Vec<f32>>>| {
                    out.len() == PER_CONN && out.values().all(|v| v.len() >= want_per_stream)
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
                                out.entry(stream_id)
                                    .or_default()
                                    .extend(run.chunks_exact(dim as usize).map(|c| c.to_vec()));
                            }
                        }
                        ServerFrame::Opened { .. } | ServerFrame::Closed { .. } => {}
                        other => panic!("conn {conn}: unexpected frame {other:?}"),
                    }
                }
                for s in 0..PER_CONN {
                    client.close(s as u32).expect("close");
                }
                out
            })
        })
        .collect();

    let results: Vec<HashMap<u32, Vec<Vec<f32>>>> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();

    let stats = handle.shutdown();
    assert_eq!(stats.streams_opened, (CONNS * PER_CONN) as u64);
    assert_eq!(stats.timesteps_in, (CONNS * PER_CONN * STEPS) as u64);
    assert_eq!(stats.emissions_out, (CONNS * PER_CONN * STEPS / 8) as u64);
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.streams_open, 0);
    assert!(stats.waves > 0);

    // Every one of the 1024 streams, bit for bit.
    for (conn, out) in results.iter().enumerate() {
        for s in 0..PER_CONN {
            let input = stream_input(conn, s);
            let mut session = QuantizedSession::new(Arc::clone(&qplan));
            let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|x| session.push(x)).collect();
            assert_eq!(
                out[&(s as u32)],
                want,
                "conn {conn} stream {s} must be bit-exact"
            );
        }
    }
}
