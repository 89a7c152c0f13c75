//! The machine-readable performance harness behind the `bench_json` binary.
//!
//! [`run_suites`] times the convolution kernels (im2col/GEMM vs the naive
//! seed oracle), the PIT masked-training path (fused vs unfused vs the true
//! dilated deployment network) and one full PIT search step;
//! [`infer_suite`] times the serving side (offline tape replay vs the
//! compiled streaming engine of `pit-infer`), [`quant_suite`] the int8
//! serving path against its f32 twin, [`serve_suite`] the `pit-serve`
//! TCP daemon end to end over loopback, and [`scale_suite`] the daemon's
//! throughput as the stream fleet grows 16 → 4096 across batcher shards.
//! [`run_named_suites`] selects suites by name. [`records_to_json`]/[`records_from_json`] move the
//! records through the hand-rolled [`crate::json`] writer (the serde stub
//! cannot serialise), and [`compare`] diffs a fresh run against a
//! committed baseline (`BENCH_conv.json`, `BENCH_infer.json`,
//! `BENCH_int8.json`, `BENCH_serve.json`, `BENCH_scale.json`) — the
//! regression gate CI runs on every push.

use crate::json::Json;
use crate::report::Table;
use pit_nas::PitConv1d;
use pit_nn::layers::CausalConv1d;
use pit_nn::{Layer, Mode};
use pit_tensor::{init, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One timed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which suite produced the record (`conv`, `masking`, `search`).
    pub suite: String,
    /// Operation name, including the implementation variant
    /// (e.g. `conv1d_forward/fast`).
    pub op: String,
    /// Human-readable geometry (e.g. `N8 C32->32 T256 K9 d4`).
    pub shape: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Work rate; unit given by `throughput_unit`.
    pub throughput: f64,
    /// `gflop/s` for kernels with a known flop count, `iter/s` otherwise.
    pub throughput_unit: String,
}

impl BenchRecord {
    /// The identity used to match records between baseline and current runs.
    pub fn key(&self) -> String {
        format!("{}::{}::{}", self.suite, self.op, self.shape)
    }
}

/// Timing-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Samples taken; the median is reported.
    pub samples: usize,
    /// Target wall-clock per sample, used to pick the iteration count.
    pub target_sample_ns: u64,
}

impl MeasureOpts {
    /// Fast preset used by `--quick` and CI.
    pub fn quick() -> Self {
        Self {
            samples: 5,
            target_sample_ns: 20_000_000,
        }
    }

    /// Slower, lower-variance preset for `--full`.
    pub fn full() -> Self {
        Self {
            samples: 11,
            target_sample_ns: 100_000_000,
        }
    }
}

/// Times `f`: one warmup call, an iteration count chosen to fill
/// `target_sample_ns`, then the median over `samples` samples of the mean
/// nanoseconds per iteration.
pub fn measure(opts: &MeasureOpts, mut f: impl FnMut()) -> f64 {
    // Warmup + single-shot estimate.
    let start = Instant::now();
    f();
    let est = start.elapsed().as_nanos().max(1) as u64;
    let iters = (opts.target_sample_ns / est).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn record(suite: &str, op: &str, shape: String, ns: f64, flops: Option<f64>) -> BenchRecord {
    let (throughput, unit) = match flops {
        Some(fl) => (fl / ns, "gflop/s"),
        None => (1e9 / ns, "iter/s"),
    };
    BenchRecord {
        suite: suite.to_string(),
        op: op.to_string(),
        shape,
        ns_per_iter: ns,
        throughput,
        throughput_unit: unit.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Suites
// ---------------------------------------------------------------------------

struct ConvCase {
    n: usize,
    c_in: usize,
    c_out: usize,
    t: usize,
    k: usize,
    dilation: usize,
}

impl ConvCase {
    fn shape(&self) -> String {
        format!(
            "N{} C{}->{} T{} K{} d{}",
            self.n, self.c_in, self.c_out, self.t, self.k, self.dilation
        )
    }

    /// Flops of the dense forward pass (one multiply + one add per tap).
    fn flops(&self) -> f64 {
        2.0 * (self.n * self.c_out * self.c_in * self.k * self.t) as f64
    }
}

/// Raw-kernel suite: the im2col/GEMM convolution against the seed's naive
/// nested loops, for forward, input gradient and weight gradient.
pub fn conv_suite(opts: &MeasureOpts, quick: bool) -> Vec<BenchRecord> {
    // First case is the acceptance geometry of the PR that introduced this
    // harness; keep it stable so the trajectory stays comparable.
    let mut cases = vec![ConvCase {
        n: 8,
        c_in: 32,
        c_out: 32,
        t: 256,
        k: 9,
        dilation: 4,
    }];
    if !quick {
        cases.push(ConvCase {
            n: 16,
            c_in: 64,
            c_out: 64,
            t: 512,
            k: 17,
            dilation: 8,
        });
    }
    let mut rng = StdRng::seed_from_u64(42);
    let mut out = Vec::new();
    for case in &cases {
        let x = init::uniform(&mut rng, &[case.n, case.c_in, case.t], 1.0);
        let w = init::uniform(&mut rng, &[case.c_out, case.c_in, case.k], 1.0);
        let b = init::uniform(&mut rng, &[case.c_out], 1.0);
        let g = init::uniform(&mut rng, &[case.n, case.c_out, case.t], 1.0);
        let x_dims = x.dims().to_vec();
        let flops = Some(case.flops());
        let d = case.dilation;

        let ns = measure(opts, || {
            std::hint::black_box(x.conv1d_causal(&w, Some(&b), d).unwrap());
        });
        out.push(record(
            "conv",
            "conv1d_forward/fast",
            case.shape(),
            ns,
            flops,
        ));
        let ns = measure(opts, || {
            std::hint::black_box(x.conv1d_causal_naive(&w, Some(&b), d).unwrap());
        });
        out.push(record(
            "conv",
            "conv1d_forward/naive",
            case.shape(),
            ns,
            flops,
        ));

        let ns = measure(opts, || {
            std::hint::black_box(Tensor::conv1d_causal_grad_input(&g, &w, &x_dims, d).unwrap());
        });
        out.push(record(
            "conv",
            "conv1d_grad_input/fast",
            case.shape(),
            ns,
            flops,
        ));
        let ns = measure(opts, || {
            std::hint::black_box(
                Tensor::conv1d_causal_grad_input_naive(&g, &w, &x_dims, d).unwrap(),
            );
        });
        out.push(record(
            "conv",
            "conv1d_grad_input/naive",
            case.shape(),
            ns,
            flops,
        ));

        let ns = measure(opts, || {
            std::hint::black_box(Tensor::conv1d_causal_grad_weight(&x, &g, case.k, d).unwrap());
        });
        out.push(record(
            "conv",
            "conv1d_grad_weight/fast",
            case.shape(),
            ns,
            flops,
        ));
        let ns = measure(opts, || {
            std::hint::black_box(
                Tensor::conv1d_causal_grad_weight_naive(&x, &g, case.k, d).unwrap(),
            );
        });
        out.push(record(
            "conv",
            "conv1d_grad_weight/naive",
            case.shape(),
            ns,
            flops,
        ));
    }
    out
}

/// Masked-training suite: one forward+backward step of a `PitConv1d` layer
/// through the fused mask kernel versus the unfused `W ⊙ M` composition,
/// versus the true dilated convolution the search would deploy.
pub fn masking_suite(opts: &MeasureOpts, quick: bool) -> Vec<BenchRecord> {
    let rf_max = 33usize;
    let (n, c, t) = if quick { (4, 16, 64) } else { (8, 32, 256) };
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::uniform(&mut rng, &[n, c, t], 1.0);
    let mut out = Vec::new();
    for dilation in [1usize, 16] {
        let masked = PitConv1d::new(&mut rng, c, c, rf_max, "bench");
        masked.set_dilation(dilation);
        let alive = (rf_max - 1) / dilation + 1;
        let dilated = CausalConv1d::new(&mut rng, c, c, alive, dilation);
        let shape = format!("N{n} C{c}->{c} T{t} rf{rf_max} d{dilation}");
        let flops = Some(2.0 * (n * c * c * rf_max * t) as f64);

        let ns = measure(opts, || {
            let mut tape = Tape::new();
            let vx = tape.constant(x.clone());
            let y = masked.forward(&mut tape, vx, Mode::Train);
            let loss = tape.sum(y);
            tape.backward(loss);
        });
        out.push(record(
            "masking",
            "masked_step/fused",
            shape.clone(),
            ns,
            flops,
        ));

        let ns = measure(opts, || {
            let mut tape = Tape::new();
            let vx = tape.constant(x.clone());
            let w = tape.param(masked.weight_param());
            let b = tape.param(masked.bias_param());
            let m = masked.mask(&mut tape);
            let wm = tape.mul_time_mask(w, m);
            let y = tape.conv1d_causal(vx, wm, Some(b), 1);
            let loss = tape.sum(y);
            tape.backward(loss);
        });
        out.push(record(
            "masking",
            "masked_step/unfused",
            shape.clone(),
            ns,
            flops,
        ));

        let ns = measure(opts, || {
            let mut tape = Tape::new();
            let vx = tape.constant(x.clone());
            let y = dilated.forward(&mut tape, vx, Mode::Train);
            let loss = tape.sum(y);
            tape.backward(loss);
        });
        out.push(record("masking", "true_dilated_step", shape, ns, flops));
    }
    out
}

/// Search-cost suite: one full PIT search step (masked forward, task loss,
/// size regulariser, backward, Adam update) at the quick experiment scale.
pub fn search_suite(opts: &MeasureOpts) -> Vec<BenchRecord> {
    use crate::experiments::{build_benchmark, build_network, pit_config};
    use crate::{ExperimentScale, SeedKind};
    use pit_nas::{SearchableNetwork, SizeRegularizer};
    use pit_nn::{Adam, LossKind, Optimizer};

    let scale = ExperimentScale::quick();
    let bench = build_benchmark(SeedKind::TempoNet, &scale);
    let batch = bench
        .train
        .gather(&(0..scale.batch_size.min(bench.train.len())).collect::<Vec<_>>());
    let net = build_network(SeedKind::TempoNet, &scale, 0);
    let cfg = pit_config(&scale, 1e-4, 0);
    let regularizer = SizeRegularizer::new(cfg.lambda);
    let mut opt = Adam::new(net.params(), cfg.learning_rate);
    let shape = format!(
        "TempoNet/quick B{} T{}",
        batch.inputs.dims()[0],
        scale.temponet_window
    );
    let ns = measure(opts, || {
        opt.zero_grad();
        let mut tape = Tape::new();
        let x = tape.constant(batch.inputs.clone());
        let pred = net.forward(&mut tape, x, Mode::Train);
        let task = LossKind::Mae.apply(&mut tape, pred, &batch.targets);
        let reg = regularizer.term(&mut tape, &net.pit_layers());
        let total = tape.add(task, reg);
        tape.backward(total);
        opt.step();
    });
    vec![record("search", "pit_search_step", shape, ns, None)]
}

/// Streaming-inference suite: what one new timestep of a searched PPG model
/// costs under four serving strategies.
///
/// * `offline_replay/step` — re-run the offline masked forward (tape) over
///   the full window to produce one new prediction: the only serving path
///   that existed before `pit-infer`;
/// * `plan_offline/window` — the compiled plan's tape-free forward over a
///   whole window (throughput amortised over its timesteps);
/// * `stream/step` — one stateful [`pit_infer::Session`] ring-buffer step;
/// * `sessions32/step` — a 32-stream [`pit_infer::SessionPool`] fed one
///   sample per stream and flushed (cost per timestep). The flush runs each
///   stream through the same step as `stream/step`, so the two should sit
///   close; the gap is the pool's queueing and emission copies.
///
/// The committed `BENCH_infer.json` baseline is the acceptance evidence that
/// `stream/step` beats `offline_replay/step` by well over an order of
/// magnitude.
pub fn infer_suite(opts: &MeasureOpts) -> Vec<BenchRecord> {
    use pit_infer::{compile_temponet, Session, SessionPool};
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use std::sync::Arc;

    let cfg = TempoNetConfig::scaled(8, 64);
    let t = cfg.input_length;
    let mut rng = StdRng::seed_from_u64(9);
    let net = TempoNet::new(&mut rng, &cfg);
    // Stand-in for a search result: the paper's hand-tuned dilations.
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile_temponet(&net));
    let x = init::uniform(&mut rng, &[1, cfg.input_channels, t], 1.0);
    // Column-major sample stream for the stateful paths.
    let columns: Vec<Vec<f32>> = (0..t)
        .map(|tt| {
            (0..cfg.input_channels)
                .map(|ci| x.data()[ci * t + tt])
                .collect()
        })
        .collect();
    let shape = format!("TEMPONet/8 C{} T{t}", cfg.input_channels);
    let step_record = |op: &str, ns: f64, steps_per_iter: f64| BenchRecord {
        suite: "infer".into(),
        op: op.into(),
        shape: shape.clone(),
        ns_per_iter: ns,
        throughput: steps_per_iter * 1e9 / ns,
        throughput_unit: "steps/s".into(),
    };
    let mut out = Vec::new();

    // 1. Tape replay of the full window per new sample.
    let ns = measure(opts, || {
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        std::hint::black_box(net.forward(&mut tape, vx, Mode::Eval));
    });
    out.push(step_record("offline_replay/step", ns, 1.0));

    // 2. Compiled plan, offline over the whole window.
    let ns = measure(opts, || {
        std::hint::black_box(plan.forward(&x).unwrap());
    });
    out.push(step_record("plan_offline/window", ns, t as f64));

    // 3. Stateful streaming, one ring-buffer step per sample.
    let mut session = Session::new(Arc::clone(&plan));
    let mut step_out = vec![0.0f32; plan.output_dim()];
    let mut cursor = 0usize;
    let ns = measure(opts, || {
        session.push_into(&columns[cursor], &mut step_out);
        std::hint::black_box(step_out[0]);
        cursor = (cursor + 1) % t;
    });
    out.push(step_record("stream/step", ns, 1.0));

    // 4. Pooled sessions: 32 streams, one sample each, one flush.
    const STREAMS: usize = 32;
    let mut pool = SessionPool::new(Arc::clone(&plan), STREAMS);
    let mut cursor = 0usize;
    let ns = measure(opts, || {
        for sid in 0..STREAMS {
            pool.push(sid, &columns[(cursor + sid) % t]);
        }
        std::hint::black_box(pool.flush());
        cursor = (cursor + 1) % t;
    });
    out.push(step_record("sessions32/step", ns / STREAMS as f64, 1.0));
    out
}

/// Quantized-serving suite: the f32 streaming step against its int8
/// counterpart on the same searched PPG model — the acceptance evidence for
/// the int8 serving path.
///
/// * `stream_f32/step` — one stateful f32 [`pit_infer::Session`] step;
/// * `stream_i8/step` — the same engine's [`pit_infer::QuantizedSession`]
///   step: `i8` ring buffers, seam quantization and exact `i8·i8→i32`
///   accumulation;
/// * `sessions32_i8/step` — a 32-stream [`pit_infer::QuantizedSessionPool`]
///   fed one sample per stream and flushed through the `stream_i8/step`
///   step (cost per timestep).
///
/// `stream_f32/step` is the suite's anchor, so CI's gate against the
/// committed `BENCH_int8.json` catches the int8 paths drifting relative to
/// the f32 step.
pub fn quant_suite(opts: &MeasureOpts) -> Vec<BenchRecord> {
    use pit_infer::{
        compile_temponet, QuantizedPlan, QuantizedSession, QuantizedSessionPool, Session,
    };
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use std::sync::Arc;

    let cfg = TempoNetConfig::scaled(8, 64);
    let t = cfg.input_length;
    let mut rng = StdRng::seed_from_u64(9);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile_temponet(&net));
    let x = init::uniform(&mut rng, &[1, cfg.input_channels, t], 1.0);
    let qplan = Arc::new(
        QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("benchmark plan quantizes"),
    );
    let columns: Vec<Vec<f32>> = (0..t)
        .map(|tt| {
            (0..cfg.input_channels)
                .map(|ci| x.data()[ci * t + tt])
                .collect()
        })
        .collect();
    let shape = format!("TEMPONet/8 C{} T{t}", cfg.input_channels);
    let step_record = |op: &str, ns: f64| BenchRecord {
        suite: "quant".into(),
        op: op.into(),
        shape: shape.clone(),
        ns_per_iter: ns,
        throughput: 1e9 / ns,
        throughput_unit: "steps/s".into(),
    };
    let mut out = Vec::new();

    // 1. The f32 streaming step (the quantized path's comparison anchor).
    let mut session = Session::new(Arc::clone(&plan));
    let mut step_out = vec![0.0f32; plan.output_dim()];
    let mut cursor = 0usize;
    let ns = measure(opts, || {
        session.push_into(&columns[cursor], &mut step_out);
        std::hint::black_box(step_out[0]);
        cursor = (cursor + 1) % t;
    });
    out.push(step_record("stream_f32/step", ns));

    // 2. The int8 streaming step.
    let mut qsession = QuantizedSession::new(Arc::clone(&qplan));
    let mut cursor = 0usize;
    let ns = measure(opts, || {
        qsession.push_into(&columns[cursor], &mut step_out);
        std::hint::black_box(step_out[0]);
        cursor = (cursor + 1) % t;
    });
    out.push(step_record("stream_i8/step", ns));

    // 3. Pooled int8 sessions: 32 streams, one sample each, one flush.
    const STREAMS: usize = 32;
    let mut pool = QuantizedSessionPool::new(Arc::clone(&qplan), STREAMS);
    let mut cursor = 0usize;
    let ns = measure(opts, || {
        for sid in 0..STREAMS {
            pool.push(sid, &columns[(cursor + sid) % t]);
        }
        std::hint::black_box(pool.flush());
        cursor = (cursor + 1) % t;
    });
    let mut rec = step_record("sessions32_i8/step", ns / STREAMS as f64);
    rec.throughput = STREAMS as f64 * 1e9 / ns;
    out.push(rec);
    out
}

/// Serving-daemon suite: end-to-end loopback throughput and flush latency of
/// the `pit-serve` TCP daemon on the same searched PPG model as the
/// `infer`/`quant` suites.
///
/// * `loopback_f32/step` — one timestep end to end (client encode → TCP →
///   edge → shard queue → pool flush, stream by stream through the solo
///   step → TCP → client decode), 16 concurrent streams pushed in 64-step
///   bursts over one connection. This is the suite's machine-speed anchor
///   (the `_f32/step` rule of [`compare`]).
/// * `loopback_i8/step` — the same fleet on the int8 engine.
/// * `serve_ping/rtt` — a PING/PONG round trip through the batcher thread:
///   the control-path floor under the loopback numbers.
/// * `wave_f32/p50` — the server's own median flush latency over the f32
///   run (from its STATS counters): what one shard tick's pool flush
///   costs, excluding the wire. The p99 is deliberately *not* a gated record — it swings
///   several-fold run to run even on idle hardware (it measures scheduler
///   tail noise, not kernels) and lives in the STATS frame instead.
/// * `model_switch/open` — a protocol-v3 named OPEN/CLOSE round trip
///   alternating between a two-model registry's entries: the per-stream
///   cost of model selection.
/// * `loopback_tel_f32/step` — the f32 loopback re-run with the telemetry
///   sidecar bound (`metrics_addr` set): the delta against
///   `loopback_f32/step` is what the observability layer costs the hot
///   path.
/// * `serve_metrics/scrape` — one full HTTP `GET /metrics` round trip
///   (connect → request → read to EOF) against a daemon holding 256 open
///   streams with seeded counters and histograms: what a Prometheus
///   scrape costs.
pub fn serve_suite(opts: &MeasureOpts) -> Vec<BenchRecord> {
    use pit_infer::{compile_temponet, QuantizedPlan};
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use pit_serve::{Client, ServeEngine, Server, ServerConfig, ServerFrame, StatsSnapshot};
    use std::sync::Arc;

    const STREAMS: usize = 16;
    const BURST: usize = 64; // steps per stream per iteration

    let cfg = TempoNetConfig::scaled(8, 64);
    let c_in = cfg.input_channels;
    let mut rng = StdRng::seed_from_u64(9);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile_temponet(&net));
    let x = init::uniform(&mut rng, &[1, c_in, cfg.input_length], 1.0);
    let qplan = Arc::new(
        QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("benchmark plan quantizes"),
    );
    // One 64-step burst per stream, reused every iteration (sessions are
    // stateful; emission cadence is 8, so 64 steps always yield 8 outputs).
    let mut burst = Vec::with_capacity(BURST * c_in);
    for t in 0..BURST {
        for ci in 0..c_in {
            burst.push(x.data()[ci * cfg.input_length + t]);
        }
    }
    let shape = format!("TEMPONet/8 C{c_in} {STREAMS}x{BURST} steps");
    let record = |op: &str, ns_per_step: f64| BenchRecord {
        suite: "serve".into(),
        op: op.into(),
        shape: shape.clone(),
        ns_per_iter: ns_per_step,
        throughput: 1e9 / ns_per_step,
        throughput_unit: "steps/s".into(),
    };

    /// Pushes the burst to all streams and drains the expected emissions —
    /// one full loopback iteration.
    fn loopback_iter(client: &mut Client, burst: &[f32], c_in: usize) {
        for sid in 0..STREAMS as u32 {
            client.push(sid, c_in as u32, burst).expect("push");
        }
        let want = STREAMS * BURST / 8;
        let mut got = 0usize;
        while got < want {
            match client
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("transport")
                .expect("emissions before timeout")
            {
                ServerFrame::EmitN { entries, .. } => {
                    got += entries.iter().map(|&(_, n)| n as usize).sum::<usize>()
                }
                ServerFrame::Opened { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    let run_engine = |engine: ServeEngine, op: &str, want_stats: bool, config: ServerConfig| {
        let server = Server::bind(engine, config).expect("bind loopback");
        let addr = server.local_addr();
        let handle = server.spawn();
        let mut client = Client::connect(addr).expect("connect");
        for sid in 0..STREAMS as u32 {
            client.open(sid).expect("open");
        }
        let ns = measure(opts, || loopback_iter(&mut client, &burst, c_in));
        let mut out = vec![record(op, ns / (STREAMS * BURST) as f64)];
        if want_stats {
            client.stats().expect("stats");
            let json = loop {
                match client
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .expect("transport")
                    .expect("stats reply")
                {
                    ServerFrame::StatsJson { json } => break json,
                    _ => continue,
                }
            };
            let snap = StatsSnapshot::from_json_str(&json).expect("stats parse");
            // A wave latency is not a per-timestep figure: publish its rate
            // as plain iterations, not steps.
            let mut wave = record("wave_f32/p50", snap.wave_p50_ns as f64);
            wave.throughput_unit = "iter/s".into();
            out.push(wave);
        }
        handle.shutdown();
        out
    };

    let mut out = Vec::new();
    out.extend(run_engine(
        ServeEngine::F32(Arc::clone(&plan)),
        "loopback_f32/step",
        true,
        ServerConfig::default(),
    ));
    out.extend(run_engine(
        ServeEngine::I8(Arc::clone(&qplan)),
        "loopback_i8/step",
        false,
        ServerConfig::default(),
    ));
    // The same f32 loopback with the telemetry sidecar bound: histograms,
    // trace ring and the idle HTTP listener all live — the delta against
    // `loopback_f32/step` is the observability overhead on the hot path.
    out.extend(run_engine(
        ServeEngine::F32(Arc::clone(&plan)),
        "loopback_tel_f32/step",
        false,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    ));

    // Control-path round trip: PING through the batcher and back.
    let server = Server::bind(ServeEngine::F32(Arc::clone(&plan)), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    let mut token = 0u64;
    let ns = measure(opts, || {
        token += 1;
        client.ping(token).expect("ping");
        loop {
            match client
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("transport")
                .expect("pong")
            {
                ServerFrame::Pong { token: t } if t == token => break,
                _ => continue,
            }
        }
    });
    handle.shutdown();
    let mut rec = record("serve_ping/rtt", ns);
    rec.throughput_unit = "iter/s".into();
    out.push(rec);

    // Per-stream model selection (protocol v3): a named OPEN → OPENED →
    // CLOSE → CLOSED round trip alternating between the two registry
    // models — what switching models costs a client per stream.
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
    let mut client = Client::connect(addr).expect("connect");
    let mut flips = 0u64;
    let ns = measure(opts, || {
        flips += 1;
        let model = if flips.is_multiple_of(2) { "fp" } else { "q8" };
        client.open_with_model(7, model).expect("open");
        loop {
            match client
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("transport")
                .expect("opened")
            {
                ServerFrame::Opened { .. } => break,
                _ => continue,
            }
        }
        client.close(7).expect("close");
        loop {
            match client
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("transport")
                .expect("closed")
            {
                ServerFrame::Closed { .. } => break,
                _ => continue,
            }
        }
    });
    handle.shutdown();
    let mut rec = record("model_switch/open", ns);
    rec.throughput_unit = "iter/s".into();
    out.push(rec);

    // Prometheus scrape under load: 256 open streams with seeded counters
    // and per-model histograms, then one full `GET /metrics` round trip
    // (connect → request → read to EOF) per iteration.
    const SCRAPE_STREAMS: usize = 256;
    let server = Server::bind(
        ServeEngine::I8(Arc::clone(&qplan)),
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    for sid in 0..SCRAPE_STREAMS as u32 {
        client.open(sid).expect("open");
    }
    // Seed every stream's counters with one 8-step burst (one emission).
    let seed = &burst[..8 * c_in];
    for sid in 0..SCRAPE_STREAMS as u32 {
        client.push(sid, c_in as u32, seed).expect("push");
    }
    let mut got = 0usize;
    while got < SCRAPE_STREAMS {
        match client
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("transport")
            .expect("emissions before timeout")
        {
            ServerFrame::EmitN { entries, .. } => {
                got += entries.iter().map(|&(_, n)| n as usize).sum::<usize>()
            }
            ServerFrame::Opened { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let ns = measure(opts, || {
        let (status, body) = pit_serve::http_get(metrics_addr, "/metrics").expect("scrape");
        assert_eq!(status, 200, "scrape succeeded");
        std::hint::black_box(body.len());
    });
    handle.shutdown();
    let mut rec = record("serve_metrics/scrape", ns);
    rec.throughput_unit = "iter/s".into();
    out.push(rec);
    out
}

/// Thousand-stream scaling suite: ops/sec of the event-driven daemon as the
/// fleet grows 16 → 256 → 1024 → 4096 streams, plus a 1-shard/4-shard A/B
/// at 1024 streams. Clients push protocol-v2 PUSH_N frames (8 steps per
/// stream per round) from several connection threads and drain the
/// coalesced EMIT_N replies; a round completes when every stream's emission
/// arrived, so the numbers are honest end-to-end serving throughput,
/// including the wave tick.
///
/// * `scale16_f32/step` — small-fleet f32 run; the suite's machine-speed
///   anchor (the `_f32/step` rule of [`compare`]).
/// * `scale256_i8/step`, `scale1024_i8/step`, `scale4096_i8/step` — the
///   int8 sweep (1024/4096 on four shards).
/// * `shard1_1024_i8/step` — 1024 streams forced onto a single shard: the
///   contrast against `scale1024_i8/step` isolates what sharding buys.
///   On a single-core recording host the two land close together; the gap
///   opens with physical cores.
pub fn scale_suite(opts: &MeasureOpts) -> Vec<BenchRecord> {
    use pit_infer::{compile_temponet, QuantizedPlan};
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use pit_serve::{Client, ServeEngine, Server, ServerConfig, ServerFrame};
    use std::sync::{Arc, Barrier};

    let cfg = TempoNetConfig::scaled(8, 64);
    let c_in = cfg.input_channels;
    let mut rng = StdRng::seed_from_u64(9);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile_temponet(&net));
    let x = init::uniform(&mut rng, &[1, c_in, cfg.input_length], 1.0);
    let qplan = Arc::new(
        QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("benchmark plan quantizes"),
    );
    // One 8-step burst (the emission period), reused by every stream.
    let mut burst = Vec::with_capacity(8 * c_in);
    for t in 0..8 {
        for ci in 0..c_in {
            burst.push(x.data()[ci * cfg.input_length + t]);
        }
    }
    let burst = Arc::new(burst);

    // Boots a daemon, spreads `streams` over `conns` connection threads,
    // and times `samples` phases of `rounds` push-all/drain-all rounds
    // (after one warmup phase). Returns median ns per timestep.
    let scale_run =
        |engine: ServeEngine, streams: usize, conns: usize, shards: usize, rounds: usize| -> f64 {
            let per_conn = streams / conns;
            let server = Server::bind(
                engine,
                ServerConfig {
                    max_streams: streams,
                    shards,
                    ..ServerConfig::default()
                },
            )
            .expect("bind loopback");
            let addr = server.local_addr();
            let handle = server.spawn();
            let phases = opts.samples + 1; // phase 0 is warmup
            let barrier = Arc::new(Barrier::new(conns + 1));
            let workers: Vec<_> = (0..conns)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let burst = Arc::clone(&burst);
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        for sid in 0..per_conn as u32 {
                            client.open(sid).expect("open");
                        }
                        let entries: Vec<(u32, u32)> =
                            (0..per_conn as u32).map(|sid| (sid, 8)).collect();
                        let samples: Vec<f32> =
                            (0..per_conn).flat_map(|_| burst.iter().copied()).collect();
                        for _ in 0..phases {
                            barrier.wait(); // phase start
                            for _ in 0..rounds {
                                client
                                    .push_n(c_in as u32, &entries, &samples)
                                    .expect("push_n");
                                // One emission per stream per 8-step round.
                                let mut got = 0usize;
                                while got < per_conn {
                                    match client
                                        .recv_timeout(std::time::Duration::from_secs(60))
                                        .expect("transport")
                                        .expect("emissions before timeout")
                                    {
                                        ServerFrame::EmitN { entries, .. } => {
                                            got += entries
                                                .iter()
                                                .map(|&(_, n)| n as usize)
                                                .sum::<usize>()
                                        }
                                        ServerFrame::Opened { .. } => {}
                                        other => panic!("unexpected frame {other:?}"),
                                    }
                                }
                            }
                            barrier.wait(); // phase end
                        }
                    })
                })
                .collect();
            let mut timed = Vec::with_capacity(opts.samples);
            for phase in 0..phases {
                barrier.wait(); // release workers into the phase
                let start = Instant::now();
                barrier.wait(); // workers done
                if phase > 0 {
                    let steps = (streams * rounds * 8) as f64;
                    timed.push(start.elapsed().as_nanos() as f64 / steps);
                }
            }
            for w in workers {
                w.join().expect("scale worker");
            }
            handle.shutdown();
            timed.sort_by(|a, b| a.total_cmp(b));
            timed[timed.len() / 2]
        };

    let record = |op: &str, streams: usize, conns: usize, shards: usize, ns: f64| BenchRecord {
        suite: "scale".into(),
        op: op.into(),
        shape: format!("TEMPONet/8 C{c_in} {streams} streams x{conns} conns shards{shards}"),
        ns_per_iter: ns,
        throughput: 1e9 / ns,
        throughput_unit: "steps/s".into(),
    };

    let mut out = Vec::new();
    let ns = scale_run(ServeEngine::F32(Arc::clone(&plan)), 16, 4, 1, 32);
    out.push(record("scale16_f32/step", 16, 4, 1, ns));
    let ns = scale_run(ServeEngine::I8(Arc::clone(&qplan)), 256, 8, 4, 8);
    out.push(record("scale256_i8/step", 256, 8, 4, ns));
    let ns = scale_run(ServeEngine::I8(Arc::clone(&qplan)), 1024, 32, 1, 4);
    out.push(record("shard1_1024_i8/step", 1024, 32, 1, ns));
    let ns = scale_run(ServeEngine::I8(Arc::clone(&qplan)), 1024, 32, 4, 4);
    out.push(record("scale1024_i8/step", 1024, 32, 4, ns));
    let ns = scale_run(ServeEngine::I8(Arc::clone(&qplan)), 4096, 32, 4, 2);
    out.push(record("scale4096_i8/step", 4096, 32, 4, ns));
    out
}

/// Runs the training-side suites (the `BENCH_conv.json` record set).
pub fn run_suites(quick: bool) -> Vec<BenchRecord> {
    let names: Vec<String> = ["conv", "masking", "search"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    run_named_suites(&names, quick).expect("default suite names are valid")
}

/// Runs suites by name (`conv`, `masking`, `search`, `infer`, `quant`,
/// `serve`, `scale`).
///
/// # Errors
///
/// Returns the first unknown suite name.
pub fn run_named_suites(names: &[String], quick: bool) -> Result<Vec<BenchRecord>, String> {
    let opts = if quick {
        MeasureOpts::quick()
    } else {
        MeasureOpts::full()
    };
    let mut records = Vec::new();
    for name in names {
        match name.as_str() {
            "conv" => records.extend(conv_suite(&opts, quick)),
            "masking" => records.extend(masking_suite(&opts, quick)),
            "search" => records.extend(search_suite(&opts)),
            "infer" => records.extend(infer_suite(&opts)),
            "quant" => records.extend(quant_suite(&opts)),
            "serve" => records.extend(serve_suite(&opts)),
            "scale" => records.extend(scale_suite(&opts)),
            other => return Err(format!("unknown suite '{other}'")),
        }
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// JSON round trip
// ---------------------------------------------------------------------------

/// Serialises records to the committed `BENCH_conv.json` schema.
pub fn records_to_json(records: &[BenchRecord], mode: &str) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("pit-bench/1".into())),
        ("mode".into(), Json::Str(mode.into())),
        (
            "records".into(),
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("suite".into(), Json::Str(r.suite.clone())),
                            ("op".into(), Json::Str(r.op.clone())),
                            ("shape".into(), Json::Str(r.shape.clone())),
                            ("ns_per_iter".into(), Json::Num(r.ns_per_iter)),
                            ("throughput".into(), Json::Num(r.throughput)),
                            (
                                "throughput_unit".into(),
                                Json::Str(r.throughput_unit.clone()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `mode` a `BENCH_conv.json` document was recorded with
/// (`quick`/`full`), when present.
pub fn document_mode(doc: &Json) -> Option<&str> {
    doc.get("mode").and_then(Json::as_str)
}

/// Parses a `BENCH_conv.json` document back into records.
///
/// # Errors
///
/// Returns a message naming the first missing or ill-typed field.
pub fn records_from_json(doc: &Json) -> Result<Vec<BenchRecord>, String> {
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or("missing 'records' array")?;
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let text = |field: &str| -> Result<String, String> {
                r.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("record {i}: missing string field '{field}'"))
            };
            let num = |field: &str| -> Result<f64, String> {
                r.get(field)
                    .and_then(Json::as_f64)
                    .ok_or(format!("record {i}: missing number field '{field}'"))
            };
            Ok(BenchRecord {
                suite: text("suite")?,
                op: text("op")?,
                shape: text("shape")?,
                ns_per_iter: num("ns_per_iter")?,
                throughput: num("throughput")?,
                throughput_unit: text("throughput_unit")?,
            })
        })
        .collect()
}

/// Per-record medians of repeated runs of the same suites: the form every
/// committed baseline takes. Each run is its records and the `mode` it was
/// recorded with. For each record, the result holds the whole record of the
/// run with the median `ns_per_iter` (the lower middle run for an even
/// count), so its throughput still matches its time. Records keep the first
/// run's order.
///
/// # Errors
///
/// Refuses an empty list, and runs whose modes or record sets differ.
pub fn median_records(
    runs: &[(Vec<BenchRecord>, Option<String>)],
) -> Result<Vec<BenchRecord>, String> {
    let ((first, mode), rest) = runs.split_first().ok_or("no runs given")?;
    let key_set = |records: &[BenchRecord]| {
        let mut keys: Vec<String> = records.iter().map(BenchRecord::key).collect();
        keys.sort();
        keys
    };
    let keys = key_set(first);
    for (i, (records, run_mode)) in rest.iter().enumerate() {
        if run_mode != mode {
            return Err(format!(
                "run {} was recorded in mode {run_mode:?}, run 1 in {mode:?}",
                i + 2
            ));
        }
        if key_set(records) != keys {
            return Err(format!(
                "run {} has a different record set from run 1",
                i + 2
            ));
        }
    }
    Ok(first
        .iter()
        .map(|record| {
            let key = record.key();
            let mut same: Vec<&BenchRecord> = runs
                .iter()
                .filter_map(|(records, _)| records.iter().find(|r| r.key() == key))
                .collect();
            same.sort_by(|a, b| a.ns_per_iter.total_cmp(&b.ns_per_iter));
            same[(same.len() - 1) / 2].clone()
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------------

/// Verdict for one baseline record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    Missing,
}

/// One row of a baseline comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    pub key: String,
    pub baseline_ns: f64,
    pub current_ns: Option<f64>,
    /// `current / baseline` after normalisation (1.0 = unchanged).
    pub ratio: Option<f64>,
    pub verdict: Verdict,
}

/// Result of diffing a current run against a committed baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    pub rows: Vec<CompareRow>,
    /// Machine-speed factor divided out of the ratios (1.0 when not
    /// normalising).
    pub speed_factor: f64,
    pub tolerance: f64,
}

impl CompareReport {
    /// `true` when no baseline record regressed or went missing.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.verdict == Verdict::Pass)
    }

    /// Renders the comparison as an aligned table plus a one-line summary.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!("bench compare (tolerance {:.2}x)", self.tolerance),
            &["op::shape", "baseline ns", "current ns", "ratio", "verdict"],
        );
        for row in &self.rows {
            table.row(&[
                row.key.clone(),
                format!("{:.0}", row.baseline_ns),
                row.current_ns
                    .map(|ns| format!("{ns:.0}"))
                    .unwrap_or_else(|| "-".into()),
                row.ratio
                    .map(|r| format!("{r:.2}x"))
                    .unwrap_or_else(|| "-".into()),
                match row.verdict {
                    Verdict::Pass => "ok".into(),
                    Verdict::Regressed => "REGRESSED".into(),
                    Verdict::Missing => "MISSING".into(),
                },
            ]);
        }
        let failures = self
            .rows
            .iter()
            .filter(|r| r.verdict != Verdict::Pass)
            .count();
        format!(
            "{}machine speed factor: {:.2} | {} of {} checks failed\n",
            table.render(),
            self.speed_factor,
            failures,
            self.rows.len()
        )
    }
}

/// Diffs `current` against `baseline`.
///
/// Every baseline record must appear in the current run and take at most
/// `tolerance ×` its baseline time. With `normalize`, a machine-speed factor
/// is divided out first, so the gate measures *relative* kernel regressions
/// rather than the raw speed of the CI machine — the right setting for
/// cross-machine comparisons.
///
/// The factor is the median current/baseline ratio over the *anchor*
/// records when any exist — ops ending in `/naive` (the frozen seed
/// kernels) or in `_f32/step` (the f32 serving step the quant suite
/// measures against). Anchors never speed up with the optimised paths and
/// do not thread, so they pin pure machine speed; using the optimised
/// records would let a uniform regression of the fast kernels normalise
/// itself away. With no anchors the median over all records is used.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    tolerance: f64,
    normalize: bool,
) -> CompareReport {
    let lookup = |records: &[BenchRecord], key: &str| -> Option<f64> {
        records
            .iter()
            .find(|r| r.key() == key)
            .map(|r| r.ns_per_iter)
    };
    let is_anchor = |op: &str| op.ends_with("/naive") || op.ends_with("_f32/step");
    let ratios_of = |anchor_only: bool| -> Vec<f64> {
        let mut ratios: Vec<f64> = baseline
            .iter()
            .filter(|b| !anchor_only || is_anchor(&b.op))
            .filter_map(|b| lookup(current, &b.key()).map(|cur| cur / b.ns_per_iter))
            .collect();
        ratios.sort_by(|a, b| a.total_cmp(b));
        ratios
    };
    let speed_factor = if normalize {
        let anchors = ratios_of(true);
        let ratios = if anchors.is_empty() {
            ratios_of(false)
        } else {
            anchors
        };
        if ratios.is_empty() {
            1.0
        } else {
            ratios[ratios.len() / 2]
        }
    } else {
        1.0
    };
    let rows = baseline
        .iter()
        .map(|b| {
            let key = b.key();
            let current_ns = lookup(current, &key);
            let ratio = current_ns.map(|cur| cur / b.ns_per_iter / speed_factor);
            let verdict = match ratio {
                None => Verdict::Missing,
                Some(r) if r > tolerance => Verdict::Regressed,
                Some(_) => Verdict::Pass,
            };
            CompareRow {
                key,
                baseline_ns: b.ns_per_iter,
                current_ns,
                ratio,
                verdict,
            }
        })
        .collect();
    CompareReport {
        rows,
        speed_factor,
        tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            suite: "conv".into(),
            op: op.into(),
            shape: "N1".into(),
            ns_per_iter: ns,
            throughput: 1e9 / ns,
            throughput_unit: "iter/s".into(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_records() {
        let records = vec![rec("a/fast", 1200.0), rec("b/naive", 34567.5)];
        let doc = records_to_json(&records, "quick");
        let text = doc.render();
        let parsed = records_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn records_from_json_rejects_missing_fields() {
        let doc = Json::parse(r#"{"records": [{"op": "x"}]}"#).unwrap();
        let err = records_from_json(&doc).unwrap_err();
        assert!(err.contains("suite"), "{err}");
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_beyond() {
        let baseline = vec![rec("a", 1000.0), rec("b", 1000.0)];
        let ok = vec![rec("a", 1500.0), rec("b", 900.0)];
        assert!(compare(&baseline, &ok, 2.0, false).passed());
        let slow = vec![rec("a", 2500.0), rec("b", 900.0)];
        let report = compare(&baseline, &slow, 2.0, false);
        assert!(!report.passed());
        assert_eq!(report.rows[0].verdict, Verdict::Regressed);
        assert_eq!(report.rows[1].verdict, Verdict::Pass);
    }

    #[test]
    fn compare_flags_missing_records() {
        let baseline = vec![rec("a", 1000.0), rec("gone", 1000.0)];
        let current = vec![rec("a", 1000.0)];
        let report = compare(&baseline, &current, 2.0, false);
        assert!(!report.passed());
        assert_eq!(report.rows[1].verdict, Verdict::Missing);
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn median_records_keep_the_median_runs_whole_record() {
        let quick = Some("quick".to_string());
        let mut slow_b = rec("b", 900.0);
        slow_b.throughput = 7.0;
        let runs = vec![
            (vec![rec("a", 300.0), rec("b", 100.0)], quick.clone()),
            (vec![slow_b.clone(), rec("a", 100.0)], quick.clone()),
            (vec![rec("a", 200.0), rec("b", 900.5)], quick.clone()),
        ];
        let median = median_records(&runs).unwrap();
        // First run's order; each record is the median run's, unchanged.
        assert_eq!(median, vec![rec("a", 200.0), slow_b]);
        // An even count takes the lower middle run.
        assert_eq!(median_records(&runs[..2]).unwrap()[0], rec("a", 100.0));
    }

    #[test]
    fn median_records_refuse_mixed_modes_and_record_sets() {
        let quick = Some("quick".to_string());
        let run = (vec![rec("a", 1.0), rec("b", 1.0)], quick.clone());
        let full = (run.0.clone(), Some("full".to_string()));
        let err = median_records(&[run.clone(), full]).unwrap_err();
        assert!(err.contains("mode"), "{err}");
        let fewer = (vec![rec("a", 1.0)], quick.clone());
        let err = median_records(&[run.clone(), fewer]).unwrap_err();
        assert!(err.contains("record set"), "{err}");
        let other = (vec![rec("a", 1.0), rec("c", 1.0)], quick);
        assert!(median_records(&[run, other]).is_err());
        assert!(median_records(&[]).is_err());
    }

    #[test]
    fn normalization_divides_out_machine_speed() {
        // The whole machine is 3x slower: raw comparison fails, normalised
        // passes because every kernel kept its relative cost.
        let baseline = vec![rec("a", 1000.0), rec("b", 2000.0), rec("c", 500.0)];
        let slower = vec![rec("a", 3000.0), rec("b", 6000.0), rec("c", 1500.0)];
        assert!(!compare(&baseline, &slower, 2.0, false).passed());
        let report = compare(&baseline, &slower, 2.0, true);
        assert!((report.speed_factor - 3.0).abs() < 1e-9);
        assert!(report.passed());
        // A kernel-specific regression still fails after normalisation.
        let one_bad = vec![rec("a", 3000.0), rec("b", 2000.0), rec("c", 500.0)];
        assert!(!compare(&baseline, &one_bad, 2.0, true).passed());
    }

    #[test]
    fn normalization_anchors_on_naive_reference_records() {
        let baseline = vec![
            rec("conv/naive", 1000.0),
            rec("conv/fast", 1000.0),
            rec("grads/fast", 1000.0),
        ];
        // A multi-core runner: the threaded fast kernels got 4x faster, the
        // serial naive anchors did not. The anchor keeps the fast speedup
        // from being mistaken for machine speed — everything passes.
        let multicore = vec![
            rec("conv/naive", 1000.0),
            rec("conv/fast", 250.0),
            rec("grads/fast", 250.0),
        ];
        let report = compare(&baseline, &multicore, 2.0, true);
        assert!((report.speed_factor - 1.0).abs() < 1e-9);
        assert!(report.passed());
        // A uniform regression of every fast kernel must NOT normalise
        // itself away: the naive anchor pins the machine factor at 1.
        let fast_rot = vec![
            rec("conv/naive", 1000.0),
            rec("conv/fast", 3000.0),
            rec("grads/fast", 3000.0),
        ];
        assert!(!compare(&baseline, &fast_rot, 2.0, true).passed());
    }

    #[test]
    fn normalization_anchors_on_the_f32_serving_step() {
        // The quant suite has no /naive records; its f32 step is the anchor.
        let baseline = vec![rec("stream_f32/step", 1000.0), rec("stream_i8/step", 400.0)];
        // The int8 path regresses 3x while the anchor holds: the gate must
        // trip — a median over all records would absorb half of it.
        let bad = vec![
            rec("stream_f32/step", 1000.0),
            rec("stream_i8/step", 1200.0),
        ];
        assert!(!compare(&baseline, &bad, 2.0, true).passed());
        // A uniformly slower machine still normalises away.
        let slow = vec![
            rec("stream_f32/step", 3000.0),
            rec("stream_i8/step", 1200.0),
        ];
        assert!(compare(&baseline, &slow, 2.0, true).passed());
    }

    #[test]
    fn measure_reports_plausible_time() {
        let opts = MeasureOpts {
            samples: 3,
            target_sample_ns: 100_000,
        };
        let mut acc = 0u64;
        let ns = measure(&opts, || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert!(ns > 0.0 && ns < 1e7, "implausible ns/iter: {ns}");
    }
}
