//! Ragged-workload coverage for the session pools: streams of unequal
//! lengths that *join and finish between flushes* must match per-session
//! streaming exactly. The uniform parity tests elsewhere never shrink or
//! grow the active set between flushes; real serving traffic does little
//! else. The pool runs every stream through the solo step, so pooled and
//! solo emissions are bit-identical in both precisions.

use pit_infer::{compile, InferencePlan, Plan, Precision, QuantizedPlan, Session, SessionPool};
use pit_models::{GenericTcn, GenericTcnConfig, ResTcn, ResTcnConfig, TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One stream's lifetime inside the ragged schedule: it joins at round
/// `start` and contributes `len` samples, one per round.
#[derive(Debug, Clone, Copy)]
struct Lifetime {
    start: usize,
    len: usize,
}

/// Builds per-stream inputs and a staggered schedule: stream `sid` is silent
/// until `start`, pushes one sample per round while alive, then goes silent —
/// so streams join and finish at different flushes.
fn ragged_inputs(
    rng: &mut StdRng,
    streams: usize,
    c: usize,
    max_len: usize,
) -> (Vec<Vec<f32>>, Vec<Lifetime>) {
    let inputs: Vec<Vec<f32>> = (0..streams)
        .map(|_| (0..max_len * c).map(|_| rng.gen::<f32>() - 0.5).collect())
        .collect();
    let lifetimes: Vec<Lifetime> = (0..streams)
        .map(|sid| Lifetime {
            start: rng.gen_range(0..max_len / 2) * (sid % 3),
            len: rng.gen_range(1..=max_len),
        })
        .collect();
    (inputs, lifetimes)
}

/// Drives the ragged schedule through a pool and through solo sessions of
/// either precision; emissions must agree stream by stream, bit for bit.
fn assert_ragged_parity<P: Precision>(
    plan: Arc<Plan<P>>,
    streams: usize,
    max_len: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = plan.input_channels();
    let (inputs, lifetimes) = ragged_inputs(&mut rng, streams, c, max_len);

    let mut pool = SessionPool::new(Arc::clone(&plan), streams);
    let mut pooled: Vec<Vec<Vec<f32>>> = vec![Vec::new(); streams];
    let rounds = lifetimes.iter().map(|l| l.start + l.len).max().unwrap();
    for round in 0..rounds {
        for (sid, life) in lifetimes.iter().enumerate() {
            if round >= life.start && round < life.start + life.len {
                let t = round - life.start;
                pool.push(sid, &inputs[sid][t * c..(t + 1) * c]);
            }
        }
        for (sid, out) in pool.flush() {
            pooled[sid].push(out);
        }
    }
    assert_eq!(pool.pending_steps(), 0);

    for (sid, life) in lifetimes.iter().enumerate() {
        let mut solo = Session::new(Arc::clone(&plan));
        let outs: Vec<Vec<f32>> = inputs[sid][..life.len * c]
            .chunks(c)
            .filter_map(|sample| solo.push(sample))
            .collect();
        assert_eq!(outs, pooled[sid], "stream {sid} ({life:?})");
    }
}

/// Calibration windows wide enough to cover any ragged stream prefix.
fn calibration_windows(rng: &mut StdRng, c: usize, t: usize) -> Vec<Tensor> {
    (0..3)
        .map(|_| init::uniform(rng, &[1, c, t], 1.0))
        .collect()
}

/// Lowers `plan` to int8, calibrated on random windows of length `t`.
fn quantized(rng: &mut StdRng, plan: &InferencePlan, t: usize) -> Arc<QuantizedPlan> {
    let windows = calibration_windows(rng, plan.input_channels(), t);
    Arc::new(QuantizedPlan::quantize(plan, &windows).expect("quantizes"))
}

/// A ResTcn whose first block changes width (a 1×1 downsample on the skip)
/// under a per-step head.
fn restcn_plan(rng: &mut StdRng) -> InferencePlan {
    let cfg = ResTcnConfig {
        hidden_channels: 6,
        input_channels: 3,
        output_channels: 3,
        dropout: 0.0,
        ..ResTcnConfig::paper()
    };
    let net = ResTcn::new(rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = compile(&net);
    assert!(
        plan.blocks().iter().any(|b| matches!(
            b,
            pit_infer::PlanBlock::Residual {
                downsample: Some(_),
                ..
            }
        )),
        "the case needs a downsample projection"
    );
    plan
}

#[test]
fn ragged_temponet_pool_matches_solo_sessions() {
    // Strided pooling + Fc window head: which streams emit depends both on
    // ragged queues *and* on per-session pool phase.
    let mut rng = StdRng::seed_from_u64(50);
    let cfg = TempoNetConfig::scaled(8, 64);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    assert_ragged_parity(Arc::new(compile(&net)), 6, 48, 51);
}

#[test]
fn ragged_restcn_pool_matches_solo_sessions() {
    let mut rng = StdRng::seed_from_u64(52);
    let plan = restcn_plan(&mut rng);
    assert_ragged_parity(Arc::new(plan), 5, 30, 53);
}

#[test]
fn ragged_generic_pool_matches_solo_sessions() {
    let mut rng = StdRng::seed_from_u64(54);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    net.set_dilations(&[4, 8]);
    assert_ragged_parity(Arc::new(compile(&net)), 7, 25, 55);
}

#[test]
fn ragged_quantized_temponet_pool_is_bit_exact() {
    let mut rng = StdRng::seed_from_u64(56);
    let cfg = TempoNetConfig::scaled(8, 64);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let qplan = quantized(&mut rng, &compile(&net), 64);
    assert_ragged_parity(qplan, 6, 48, 57);
}

#[test]
fn ragged_quantized_restcn_pool_is_bit_exact() {
    // Residual blocks, the 1×1 downsample and a per-step head on the int8
    // pool, against solo int8 sessions.
    let mut rng = StdRng::seed_from_u64(62);
    let plan = restcn_plan(&mut rng);
    let qplan = quantized(&mut rng, &plan, 30);
    assert_ragged_parity(qplan, 5, 30, 63);
}

#[test]
fn ragged_quantized_generic_pool_is_bit_exact() {
    let mut rng = StdRng::seed_from_u64(58);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    net.set_dilations(&[4, 8]);
    let qplan = quantized(&mut rng, &compile(&net), 32);
    assert_ragged_parity(qplan, 7, 25, 59);
}

#[test]
fn wide_columns_pool_matches_solo_in_both_precisions() {
    // Channels up to 64: ring columns wider than the gather's fixed-copy
    // pad take the slice-copy path.
    let mut rng = StdRng::seed_from_u64(64);
    let cfg = TempoNetConfig::scaled(2, 64);
    assert!(cfg.channels.iter().any(|&c| c > 16));
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = compile(&net);
    let qplan = quantized(&mut rng, &plan, 64);
    assert_ragged_parity(Arc::new(plan), 4, 40, 65);
    assert_ragged_parity(qplan, 4, 40, 66);
}

#[test]
fn burst_flush_returns_each_stream_together_in_slot_order() {
    // One flush over unequal backlogs: session 0 queues 4 samples, session
    // 1 queues 2, session 2 queues 1. The flush runs each stream's backlog
    // to the end before the next, so its results come grouped by stream,
    // streams in ascending slot order, each stream in time order.
    let mut rng = StdRng::seed_from_u64(60);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    net.set_dilations(&[2, 4]);
    let plan = Arc::new(compile(&net));
    let mut pool = SessionPool::new(Arc::clone(&plan), 3);
    let samples: Vec<f32> = (0..4).map(|i| 0.1 * i as f32 - 0.15).collect();
    for (sid, n) in [(0usize, 4usize), (1, 2), (2, 1)] {
        for s in samples.iter().take(n) {
            pool.push(sid, &[*s]);
        }
    }
    assert_eq!(pool.pending_steps(), 7);
    let results = pool.flush();
    let order: Vec<usize> = results.iter().map(|(sid, _)| *sid).collect();
    assert_eq!(order, [0, 0, 0, 0, 1, 1, 2], "stream-major order");
    let mut want = Vec::new();
    for (sid, n) in [(0usize, 4usize), (1, 2), (2, 1)] {
        let mut solo = Session::new(Arc::clone(&plan));
        want.extend(
            samples
                .iter()
                .take(n)
                .filter_map(|s| solo.push(&[*s]))
                .map(|out| (sid, out)),
        );
    }
    assert_eq!(results, want);
}
