//! The `search` workload: one PIT search (warmup → search → finetune, one
//! λ) of TEMPONet on synthetic PPG-Dalia, then the searched net compiled to
//! an f32 plan and a calibrated int8 plan, both written as `pit-arch/2`,
//! and the exported f32 plan timed on single held-out windows: search cost
//! beside the deployment latency of what the search found. No serving layer
//! runs.

use crate::measure::{cpu_seconds, median, ms, peak_rss_mb, percentile, Sheet, Tracer};
use pit_datasets::{PpgDaliaConfig, PpgDaliaGenerator};
use pit_infer::{
    compile_temponet, InferencePlan, PlanArtifact, QuantizedPlan, QuantizedSession, Session,
};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::{PitConfig, PitOutcome, PitSearch, SearchableNetwork, SizeRegularizer};
use pit_nn::{Adam, Dataset, Layer, LossKind, Mode, Optimizer, Trainer};
use pit_tensor::{Param, Tape, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TEMPONet channels are the paper's divided by this.
const DIVISOR: usize = 2;
/// Timesteps per PPG window.
const WINDOW: usize = 128;
/// Synthetic PPG-Dalia windows (70/15/15 train/val/test split).
const WINDOWS: usize = 256;
const BATCH: usize = 32;
const LAMBDA: f32 = 5e-4;
const LOSS: LossKind = LossKind::Mae;
/// Identical set-ups (dataset synthesis + network init) per run, about
/// 0.5 s in all.
const SETUPS: usize = 201;
/// Search-phase steps driven call by call in the traced run.
const SAMPLED_STEPS: usize = 12;
/// Calibration windows of the int8 lowering, taken from the training set.
const CALIBRATION: usize = 8;
/// Largest deployment request, in windows. Right after each search, one
/// request of every size from 1 to this many windows goes through the
/// search's exported f32 plan as one offline forward, in a seeded order.
/// Sizes spread the latencies the way varied traffic does, so their tail is
/// set by request size, not by the few requests a co-tenant of the host
/// happened to slow.
const DEPLOY_SIZES: usize = 64;
/// Passes over every request size after each search (about 1.8 s in all),
/// so deployment samples cover about a fifth of the window.
const DEPLOY_PASSES: usize = 4;
/// Registry name of the exported f32 plan; the int8 plan is `<name>-int8`.
/// Every search of a run overwrites the same two artifacts.
const PLAN: &str = "pit-temponet-searched";

fn pit_config(seed: u64) -> PitConfig {
    PitConfig {
        lambda: LAMBDA,
        warmup_epochs: 2,
        search_epochs: 6,
        finetune_epochs: 2,
        patience: None,
        batch_size: BATCH,
        learning_rate: 5e-3,
        gamma_learning_rate: 0.05,
        seed,
    }
}

/// The un-searched TEMPONet, initialised from a stream of `seed` kept apart
/// from the dataset's.
fn network(seed: u64) -> TempoNet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07E3_02E7);
    TempoNet::new(&mut rng, &TempoNetConfig::scaled(DIVISOR, WINDOW))
}

/// A `[C, T]` dataset sample as a `[1, C, T]` window.
fn window(ds: &Dataset, i: usize) -> Tensor {
    let (x, _) = ds.sample(i);
    let mut dims = vec![1];
    dims.extend_from_slice(x.dims());
    x.reshape(&dims).expect("sample reshapes to one window")
}

/// One search, from input to written artifacts.
struct Searched {
    /// Seed of the network's initialisation and the search's shuffling.
    seed: u64,
    wall: Duration,
    cpu: f64,
    outcome: PitOutcome,
    plan: InferencePlan,
    qplan: QuantizedPlan,
    calibration: Vec<Tensor>,
    compile_ms: f64,
    quantize_ms: f64,
    artifact_ms: f64,
}

fn search_once(
    seed: u64,
    train: &Dataset,
    val: &Dataset,
    work: &Path,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Searched, String> {
    let net = network(seed);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let outcome = PitSearch::new(pit_config(seed)).run(&net, train, val, LOSS);
    let t1 = Instant::now();
    let plan = compile_temponet(&net).with_name(PLAN);
    let t2 = Instant::now();
    let calibration: Vec<Tensor> = (0..CALIBRATION.min(train.len()))
        .map(|i| window(train, i))
        .collect();
    let qplan = QuantizedPlan::quantize(&plan, &calibration)?;
    let t3 = Instant::now();
    for (name, text) in [
        (plan.name(), plan.to_artifact_string()),
        (qplan.name(), qplan.to_artifact_string()),
    ] {
        let path = work.join(format!("{name}.pit2.json"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let t4 = Instant::now();
    let cpu = cpu_seconds() - cpu0;

    if tracer.on() {
        tracer.span("search", request, true, t0, t4);
        let mut at = t0;
        for (name, took) in [
            ("nas.warmup", outcome.timings.warmup),
            ("nas.search", outcome.timings.search),
            ("nas.finetune", outcome.timings.finetune),
        ] {
            tracer.span(name, request, false, at, at + took);
            at += took;
        }
        tracer.span("export.compile", request, false, t1, t2);
        tracer.span("export.quantize", request, false, t2, t3);
        tracer.span("export.artifact", request, false, t3, t4);
    }
    Ok(Searched {
        seed,
        wall: t4 - t0,
        cpu,
        outcome,
        plan,
        qplan,
        calibration,
        compile_ms: ms(t1, t2),
        quantize_ms: ms(t2, t3),
        artifact_ms: ms(t3, t4),
    })
}

/// Streams a `[1, C, T]` window step by step; returns every emission.
fn stream_f32(plan: &Arc<InferencePlan>, x: &Tensor) -> Vec<Vec<f32>> {
    let (c, t) = (x.dims()[1], x.dims()[2]);
    let mut session = Session::new(Arc::clone(plan));
    (0..t)
        .filter_map(|i| {
            let step: Vec<f32> = (0..c).map(|ch| x.data()[ch * t + i]).collect();
            session.push(&step)
        })
        .collect()
}

fn stream_i8(plan: &Arc<QuantizedPlan>, x: &Tensor) -> Vec<Vec<f32>> {
    let (c, t) = (x.dims()[1], x.dims()[2]);
    let mut session = QuantizedSession::new(Arc::clone(plan));
    (0..t)
        .filter_map(|i| {
            let step: Vec<f32> = (0..c).map(|ch| x.data()[ch * t + i]).collect();
            session.push(&step)
        })
        .collect()
}

/// The correctness gate of one search: a finite loss; the exported f32
/// plan streams within 1e-5 of its offline forward, relative to the
/// output's magnitude when that exceeds 1; the int8 plan stays within its
/// `error_bound()` of the f32 forward on the calibration windows.
fn check_outputs(s: &Searched, sheet: &mut Sheet) {
    let seed = s.seed;
    let o = &s.outcome;
    sheet.check(o.val_loss.is_finite() && o.train_loss.is_finite(), || {
        format!(
            "seed {seed}: search loss is not finite: train {} val {}",
            o.train_loss, o.val_loss
        )
    });
    let plan = Arc::new(s.plan.clone());
    let qplan = Arc::new(s.qplan.clone());
    for (i, x) in s.calibration.iter().enumerate() {
        let offline = plan.forward(x).map(|y| y.data().to_vec());
        let streamed = stream_f32(&plan, x);
        let (ok, detail) = match (&offline, streamed.last()) {
            (Ok(want), Some(got)) => (
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(w, g)| (w - g).abs() <= 1e-5 * w.abs().max(1.0)),
                format!("{got:?} vs {want:?}"),
            ),
            _ => (false, "no output".into()),
        };
        sheet.check(ok, || {
            format!(
                "seed {seed}, window {i}: f32 stream differs from the offline forward: {detail}"
            )
        });
        let quantized = stream_i8(&qplan, x);
        let bound = s.qplan.error_bound();
        let ok = match (&offline, quantized.last()) {
            (Ok(want), Some(got)) => want
                .iter()
                .zip(got)
                .all(|(w, g)| (w - g).abs() <= bound + 1e-5 * w.abs().max(1.0)),
            _ => false,
        };
        sheet.check(ok, || {
            format!("seed {seed}, window {i}: int8 output beyond error_bound {bound}")
        });
    }
}

/// Both artifacts of search `s`, the last one written, load back and stream
/// bit-identically to the plans that wrote them.
fn check_artifacts(s: &Searched, work: &Path, sheet: &mut Sheet) {
    let seed = s.seed;
    let (plan, qplan) = (Arc::new(s.plan.clone()), Arc::new(s.qplan.clone()));
    let x = &s.calibration[0];
    let f32_back = PlanArtifact::load(&work.join(format!("{}.pit2.json", s.plan.name())));
    sheet.check(
        matches!(&f32_back, Ok(PlanArtifact::F32(p)) if stream_f32(&Arc::new(p.clone()), x) == stream_f32(&plan, x)),
        || format!("seed {seed}: the f32 artifact does not load back identically"),
    );
    let i8_back = PlanArtifact::load(&work.join(format!("{}.pit2.json", s.qplan.name())));
    sheet.check(
        matches!(&i8_back, Ok(PlanArtifact::I8(p)) if stream_i8(&Arc::new(p.clone()), x) == stream_i8(&qplan, x)),
        || format!("seed {seed}: the int8 artifact does not load back identically"),
    );
}

/// Drives sampled search-phase steps through the same public calls
/// `PitSearch` makes, timing each call: (forward, loss, regularizer,
/// backward, optimizer) medians in ms, and the median eval pass in ms.
fn sample_train_steps(
    seed: u64,
    train: &Dataset,
    val: &Dataset,
    tracer: &mut Tracer,
) -> ([f64; 5], f64) {
    let net = network(seed);
    let gammas: Vec<Param> = net
        .pit_layers()
        .iter()
        .map(|l| l.gamma_param().clone())
        .collect();
    let weights: Vec<Param> = net
        .params()
        .into_iter()
        .filter(|p| !gammas.iter().any(|g| g.same_param(p)))
        .collect();
    let cfg = pit_config(seed);
    let mut opt = Adam::new(weights, cfg.learning_rate);
    let mut gamma_opt = Adam::new(gammas, cfg.gamma_learning_rate);
    let regularizer = SizeRegularizer::new(cfg.lambda);
    let mut rng = StdRng::seed_from_u64(seed);
    let batches = train.batches(BATCH, Some(&mut rng));
    let mut calls: [Vec<f64>; 5] = Default::default();
    for (i, batch) in batches.iter().cycle().take(SAMPLED_STEPS).enumerate() {
        let request = 1_000 + i as u64;
        let t0 = Instant::now();
        opt.zero_grad();
        gamma_opt.zero_grad();
        let mut tape = Tape::new();
        let x = tape.constant(batch.inputs.clone());
        let pred = net.forward(&mut tape, x, Mode::Train);
        let t1 = Instant::now();
        let task = LOSS.apply(&mut tape, pred, &batch.targets);
        let t2 = Instant::now();
        let reg = regularizer.term(&mut tape, &net.pit_layers());
        let total = tape.add(task, reg);
        let t3 = Instant::now();
        tape.backward(total);
        let t4 = Instant::now();
        opt.step();
        gamma_opt.step();
        let t5 = Instant::now();
        let stamps = [t0, t1, t2, t3, t4, t5];
        let names = [
            "train.forward",
            "train.loss",
            "train.regularizer",
            "train.backward",
            "train.optimizer",
        ];
        tracer.span("train.step", request, true, t0, t5);
        for (k, name) in names.iter().enumerate() {
            tracer.span(name, request, false, stamps[k], stamps[k + 1]);
            calls[k].push(ms(stamps[k], stamps[k + 1]));
        }
    }
    let evals: Vec<f64> = (0..3)
        .map(|i| {
            let t0 = Instant::now();
            std::hint::black_box(Trainer::evaluate(&net, val, LOSS, BATCH));
            let t1 = Instant::now();
            tracer.span("train.eval", 2_000 + i, true, t0, t1);
            ms(t0, t1)
        })
        .collect();
    (calls.map(|c| median(&c)), median(&evals))
}

/// Timesteps one search trains on: every epoch of every phase runs the
/// whole training set forward and backward.
fn trained_steps(outcome: &PitOutcome, train: &Dataset) -> f64 {
    let (w, s, f) = outcome.epochs_run;
    ((w + s + f) * train.len() * WINDOW) as f64
}

/// Times [`DEPLOY_PASSES`] passes of one offline forward of `plan` over
/// each of `requests`, each pass in an order shuffled from `seed`; appends
/// each latency in nanoseconds.
fn deploy_latencies(plan: &InferencePlan, requests: &[Tensor], seed: u64, out: &mut Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<&Tensor> = requests.iter().collect();
    for _ in 0..DEPLOY_PASSES {
        order.shuffle(&mut rng);
        for x in &order {
            let t0 = Instant::now();
            std::hint::black_box(plan.forward(std::hint::black_box(x)).is_ok());
            out.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Runs searches until `secs` have passed (at least one), timing the
/// deployment latency of each search's exported plan after it. Search `i`
/// of the window starts from its own seed, derived from `seed`, so the
/// deployment latencies cover as many searched networks as the window has
/// searches. Returns the searches and every deployment latency, ascending,
/// in nanoseconds.
fn window_searches(
    seed: u64,
    secs: f64,
    data: &Splits,
    work: &Path,
    tracer: &mut Tracer,
) -> Result<(Vec<Searched>, Vec<u64>), String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut deploy = Vec::new();
    while runs.is_empty() || start.elapsed().as_secs_f64() < secs {
        let searched = search_once(
            seed.wrapping_mul(1_000_003).wrapping_add(runs.len() as u64),
            &data.train,
            &data.val,
            work,
            tracer,
            runs.len() as u64,
        )?;
        deploy_latencies(&searched.plan, &data.requests, searched.seed, &mut deploy);
        runs.push(searched);
    }
    deploy.sort_unstable();
    Ok((runs, deploy))
}

/// The generated data of one run.
struct Splits {
    train: Dataset,
    val: Dataset,
    /// The deployment requests: the first `k` windows of the recording as
    /// one `[k, C, T]` batch, for every `k` in `1..=DEPLOY_SIZES`.
    requests: Vec<Tensor>,
}

/// The synthetic PPG-Dalia recording of `seed`.
fn recording(seed: u64) -> PpgDaliaGenerator {
    PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: WINDOWS,
        window_len: WINDOW,
        seed,
        ..PpgDaliaConfig::paper()
    })
}

/// Runs the search workload and fills `sheet` with its metrics.
///
/// # Errors
///
/// Returns a message when a search cannot be exported; failed correctness
/// checks are counted in `sheet` instead.
pub fn run(
    seed: u64,
    secs: f64,
    trace: bool,
    work: &Path,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut synth = Vec::with_capacity(SETUPS);
    let mut data = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (train, val, _test) = recording(seed).generate_splits();
        let t1 = Instant::now();
        std::hint::black_box(network(seed));
        let t2 = Instant::now();
        setups.push((t2 - t0).as_secs_f64());
        synth.push(ms(t0, t1));
        data = Some((train, val));
    }
    let (train, val) = data.expect("at least one set-up");
    let all = recording(seed)
        .generate()
        .batches(WINDOWS, None::<&mut StdRng>)
        .swap_remove(0)
        .inputs;
    let (c, t) = (all.dims()[1], all.dims()[2]);
    let requests = (1..=DEPLOY_SIZES)
        .map(|k| Tensor::from_vec(all.data()[..k * c * t].to_vec(), &[k, c, t]))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("deployment request: {e}"))?;
    let data = Splits {
        train,
        val,
        requests,
    };
    sheet.put("setup_s", median(&setups), "s");

    // Every figure covers the whole window: all its searches, and every
    // deployment latency timed after them.
    let origin = Instant::now();
    let mut off = Tracer::new(origin, false);
    let (plain, deploy) = window_searches(seed, secs, &data, work, &mut off)?;
    sheet.attempted += plain.len() as u64;
    let runs = plain.len() as f64;
    let wall: f64 = plain.iter().map(|s| s.wall.as_secs_f64()).sum();
    let cpu: f64 = plain.iter().map(|s| s.cpu).sum();
    let steps: f64 = plain
        .iter()
        .map(|s| trained_steps(&s.outcome, &data.train))
        .sum();
    let steps_per_s = steps / wall;
    sheet.put("steps_per_s", steps_per_s, "1/s");
    sheet.put(
        "latency_p50_us",
        percentile(&deploy, 0.5) as f64 / 1e3,
        "us",
    );
    sheet.put(
        "latency_p90_us",
        percentile(&deploy, 0.9) as f64 / 1e3,
        "us",
    );
    sheet.put("latency_samples", deploy.len() as f64, "count");
    sheet.put("cpu_us_per_step", cpu * 1e6 / steps, "us");
    // The mean search in plain seconds, for reading; the result carries the
    // same figures as `steps_per_s` and `cpu_us_per_step`.
    sheet.put("search_s", wall / runs, "s");
    sheet.put("cpu_s", cpu / runs, "s");
    for searched in &plain {
        check_outputs(searched, sheet);
    }
    check_artifacts(plain.last().expect("at least one search"), work, sheet);

    if trace {
        let mut tracer = Tracer::new(origin, true);
        let (traced, _) = window_searches(seed, secs, &data, work, &mut tracer)?;
        sheet.attempted += traced.len() as u64;
        let med = |f: &dyn Fn(&Searched) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        sheet.put("data.synth_ms", median(&synth), "ms");
        sheet.put(
            "nas.warmup_s",
            med(&|s| s.outcome.timings.warmup.as_secs_f64()),
            "s",
        );
        sheet.put(
            "nas.search_s",
            med(&|s| s.outcome.timings.search.as_secs_f64()),
            "s",
        );
        sheet.put(
            "nas.finetune_s",
            med(&|s| s.outcome.timings.finetune.as_secs_f64()),
            "s",
        );
        sheet.put(
            "nas.effective_params",
            traced[0].outcome.effective_params as f64,
            "count",
        );
        sheet.put("export.compile_ms", med(&|s| s.compile_ms), "ms");
        sheet.put("export.quantize_ms", med(&|s| s.quantize_ms), "ms");
        sheet.put("export.artifact_ms", med(&|s| s.artifact_ms), "ms");
        let traced_steps: f64 = traced
            .iter()
            .map(|s| trained_steps(&s.outcome, &data.train))
            .sum();
        let traced_wall: f64 = traced.iter().map(|s| s.wall.as_secs_f64()).sum();
        sheet.put(
            "trace.overhead_pct",
            (steps_per_s - traced_steps / traced_wall) / steps_per_s * 100.0,
            "%",
        );
        sheet.put(
            "trace.request_self_us",
            tracer.median_root_self_ns("search") / 1e3,
            "us",
        );

        let (calls, eval) = sample_train_steps(seed, &data.train, &data.val, &mut tracer);
        for (name, value) in [
            "train.forward_ms",
            "train.loss_ms",
            "train.regularizer_ms",
            "train.backward_ms",
            "train.optimizer_ms",
        ]
        .iter()
        .zip(calls)
        {
            sheet.put(name, value, "ms");
        }
        sheet.put("train.eval_ms", eval, "ms");
        sheet.put("trace.spans", tracer.len() as f64, "count");
        crate::report_spans(&tracer, work, "search", seed);
    }
    sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}
