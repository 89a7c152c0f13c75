//! Quantized↔f32 parity, pinned by the analytically derived error bound.
//!
//! Every test calibrates the f32 plan on the exact windows it then streams
//! (so the bound's "activations stay inside the calibrated ranges" premise
//! holds by construction), lowers to int8 and asserts that every streamed
//! quantized output sits within [`QuantizedPlan::error_bound`] of the f32
//! engine — plus a hair of slack for the f32 rounding the integer-side
//! analysis does not model (the bound governs seam/weight rounding; the
//! dequantize multiplies and the f32 reference itself carry ~1e-7-relative
//! float noise).

use pit_infer::{
    compile, Calibration, CompiledConv, InferencePlan, PlanHead, QuantizedPlan, QuantizedSession,
    QuantizedSessionPool, Session,
};
use pit_models::{GenericTcn, GenericTcnConfig, ResTcn, ResTcnConfig, TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_tensor::{init, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Slack added on top of the analytic bound for f32 rounding outside the
/// integer analysis (dequantize multiplies, reference arithmetic).
fn tolerance(bound: f32) -> f32 {
    bound * 1.001 + 1e-4
}

/// Streams `x` (`[1, C, T]`) through an f32 and an int8 session; asserts the
/// emission schedules are identical and every quantized output is within the
/// plan's error bound of the f32 output. Returns the largest |f32 − int8|
/// seen, so callers can also assert the int8 path genuinely quantizes.
fn assert_streaming_parity(
    plan: &Arc<InferencePlan>,
    qplan: &Arc<QuantizedPlan>,
    x: &Tensor,
) -> f32 {
    let (c, t) = (x.dims()[1], x.dims()[2]);
    let tol = tolerance(qplan.error_bound());
    let mut f32_session = Session::new(Arc::clone(plan));
    let mut i8_session = QuantizedSession::new(Arc::clone(qplan));
    let mut sample = vec![0.0f32; c];
    let mut emissions = 0usize;
    let mut max_diff = 0.0f32;
    for tt in 0..t {
        for ci in 0..c {
            sample[ci] = x.data()[ci * t + tt];
        }
        let f = f32_session.push(&sample);
        let q = i8_session.push(&sample);
        assert_eq!(
            f.is_some(),
            q.is_some(),
            "emission schedules diverged at t={tt}"
        );
        if let (Some(f), Some(q)) = (f, q) {
            emissions += 1;
            for (co, (&fv, &qv)) in f.iter().zip(q.iter()).enumerate() {
                assert!(
                    (fv - qv).abs() <= tol,
                    "t={tt} co={co}: f32 {fv} vs int8 {qv} exceeds bound {} (tol {tol})",
                    qplan.error_bound()
                );
                max_diff = max_diff.max((fv - qv).abs());
            }
        }
    }
    assert!(emissions > 0, "stream never emitted");
    max_diff
}

/// Builds a head-only plan around one compiled convolution.
fn conv_plan(conv: CompiledConv) -> InferencePlan {
    InferencePlan::new(
        "conv-quant-parity",
        conv.in_channels(),
        Vec::new(),
        PlanHead::PerStep(conv),
    )
}

#[test]
fn quantized_conv_parity_on_odd_geometries() {
    // (c_in, c_out, k, dilation, t): the acceptance geometries — K = 1,
    // dilation larger than the sequence, single channel — plus
    // tiling-hostile lengths.
    let cases = [
        (1usize, 1usize, 1usize, 1usize, 1usize), // everything degenerate
        (3, 4, 1, 3, 16),                         // K = 1
        (2, 3, 3, 7, 4),                          // dilation > T
        (1, 1, 5, 2, 9),                          // single channel
        (2, 2, 2, 8, 16),                         // receptive field == T
        (5, 3, 4, 2, 33),                         // T not a multiple of the tile
        (1, 6, 9, 4, 20),                         // wide fan-out
    ];
    let mut rng = StdRng::seed_from_u64(40);
    for (c_in, c_out, k, d, t) in cases {
        let w = init::uniform(&mut rng, &[c_out, c_in, k], 1.0);
        let b = init::uniform(&mut rng, &[c_out], 1.0);
        let x = init::uniform(&mut rng, &[1, c_in, t], 1.0);
        let plan = Arc::new(conv_plan(CompiledConv::new(w, b, d)));
        let qplan =
            Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
        assert_streaming_parity(&plan, &qplan, &x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-conv plans over random geometry (covering K = 1, dilation far
    /// beyond T and single-channel cases by construction): every streamed
    /// int8 output honours the analytic bound.
    #[test]
    fn quantized_conv_respects_the_analytic_bound(
        c_in in 1usize..4,
        c_out in 1usize..5,
        k in 1usize..6,
        d in 1usize..9,
        t in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = init::uniform(&mut rng, &[c_out, c_in, k], 1.0);
        let b = init::uniform(&mut rng, &[c_out], 1.0);
        let x = init::uniform(&mut rng, &[1, c_in, t], 1.0);
        let plan = Arc::new(conv_plan(CompiledConv::new(w, b, d)));
        let qplan = Arc::new(
            QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"),
        );
        prop_assert!(qplan.error_bound().is_finite());
        assert_streaming_parity(&plan, &qplan, &x);
    }

    /// Pooling quantized sessions is *bit-exact* against solo quantized
    /// sessions: the pool runs every stream through the solo step.
    #[test]
    fn quantized_pool_is_bit_exact_with_solo_sessions(
        c_in in 1usize..3,
        c_out in 1usize..4,
        k in 1usize..5,
        d in 1usize..6,
        streams in 1usize..6,
        t in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = init::uniform(&mut rng, &[c_out, c_in, k], 1.0);
        let b = init::uniform(&mut rng, &[c_out], 1.0);
        let inputs: Vec<Tensor> = (0..streams)
            .map(|_| init::uniform(&mut rng, &[1, c_in, t], 1.0))
            .collect();
        let plan = Arc::new(conv_plan(CompiledConv::new(w, b, d)));
        let qplan = Arc::new(QuantizedPlan::quantize(&plan, &inputs).expect("quantizes"));

        let mut pool = QuantizedSessionPool::new(Arc::clone(&qplan), streams);
        let mut pooled: Vec<Vec<Vec<f32>>> = vec![Vec::new(); streams];
        let mut sample = vec![0.0f32; c_in];
        for tt in 0..t {
            for (sid, x) in inputs.iter().enumerate() {
                for ci in 0..c_in {
                    sample[ci] = x.data()[ci * t + tt];
                }
                pool.push(sid, &sample);
            }
            for (sid, out) in pool.flush() {
                pooled[sid].push(out);
            }
        }
        for (sid, x) in inputs.iter().enumerate() {
            let mut solo = QuantizedSession::new(Arc::clone(&qplan));
            let mut outs = Vec::new();
            for tt in 0..t {
                for ci in 0..c_in {
                    sample[ci] = x.data()[ci * t + tt];
                }
                if let Some(out) = solo.push(&sample) {
                    outs.push(out);
                }
            }
            prop_assert_eq!(&outs, &pooled[sid], "stream {} diverged", sid);
        }
    }
}

#[test]
fn quantized_temponet_streams_within_bound_and_shrinks_state() {
    let mut rng = StdRng::seed_from_u64(41);
    let cfg = TempoNetConfig::scaled(8, 64);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    let max_diff = assert_streaming_parity(&plan, &qplan, &x);
    // A real int8 path shows *some* quantization error (a zero diff would
    // mean the f32 kernels ran), bounded above by the analytic bound.
    assert!(max_diff > 0.0, "suspiciously exact: int8 path ran f32?");
    assert!(qplan.error_bound() > 0.0);
    // The acceptance claims: ~4x smaller per-stream state (i8 rings dominate;
    // only the small f32 pool windows keep it under exactly 4x) and ~4x
    // smaller weight payload.
    let f32_state = plan.session_state_bytes();
    let ratio = f32_state as f64 / qplan.session_state_bytes() as f64;
    assert!(ratio > 3.0, "state ratio {ratio:.2} not ~4x");
    let weight_ratio = (4 * plan.num_weights()) as f64 / qplan.weight_bytes() as f64;
    assert!(weight_ratio > 3.0, "weight ratio {weight_ratio:.2} not ~4x");
    assert_eq!(qplan.output_dim(), plan.output_dim());
    assert_eq!(qplan.input_channels(), plan.input_channels());
    assert!(qplan.name().ends_with("-int8"));
}

#[test]
fn quantized_wide_temponet_streams_within_bound() {
    // Channels up to 64: columns wider than the ring gather's fixed-copy pad.
    let mut rng = StdRng::seed_from_u64(46);
    let cfg = TempoNetConfig::scaled(2, 64);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    assert_streaming_parity(&plan, &qplan, &x);
}

#[test]
#[should_panic(expected = "channels, plan needs")]
fn quantized_session_rejects_a_wider_sample() {
    let plan = conv_plan(CompiledConv::new(
        Tensor::zeros(&[1, 2, 1]),
        Tensor::zeros(&[1]),
        1,
    ));
    let x = Tensor::zeros(&[1, 2, 4]);
    let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes");
    let _ = QuantizedSession::new(Arc::new(qplan)).push(&[0.0; 3]);
}

#[test]
#[should_panic(expected = "channels, plan needs")]
fn quantized_pool_rejects_a_narrower_sample() {
    let plan = conv_plan(CompiledConv::new(
        Tensor::zeros(&[1, 2, 1]),
        Tensor::zeros(&[1]),
        1,
    ));
    let x = Tensor::zeros(&[1, 2, 4]);
    let qplan = QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes");
    QuantizedSessionPool::new(Arc::new(qplan), 1).push(0, &[0.0]);
}

#[test]
fn quantized_restcn_streams_within_bound() {
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = ResTcnConfig {
        hidden_channels: 8,
        input_channels: 5,
        output_channels: 5,
        dropout: 0.0,
        ..ResTcnConfig::paper()
    };
    let net = ResTcn::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 5, 40], 1.0);
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    assert_streaming_parity(&plan, &qplan, &x);
}

#[test]
fn quantized_generic_streams_within_bound() {
    let mut rng = StdRng::seed_from_u64(43);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    net.set_dilations(&[4, 8]);
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 1, 32], 1.0);
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    assert_streaming_parity(&plan, &qplan, &x);
}

#[test]
fn fc_head_mid_fill_emissions_respect_the_bound() {
    // Adversarial Fc head: hidden = -f[0] + f[1] cancels on the aligned
    // full window ([1.0, 1.01] → 0.01) but spikes on the zero-padded
    // mid-fill window ([0, 1.0] → 1.0). Calibration must cover the streamed
    // (ring) window positions, not just the offline full-window activation —
    // otherwise the output seam saturates ~100x beyond the bound at t=0.
    use pit_infer::Dense;
    let hidden = Dense::new(
        Tensor::from_vec(vec![-1.0, 1.0], &[2, 1]).unwrap(),
        Tensor::zeros(&[1]),
    );
    let output = Dense::new(
        Tensor::from_vec(vec![1.0], &[1, 1]).unwrap(),
        Tensor::zeros(&[1]),
    );
    let plan = Arc::new(InferencePlan::new(
        "fc-midfill",
        1,
        Vec::new(),
        PlanHead::Fc {
            hidden,
            output,
            channels: 1,
            window: 2,
        },
    ));
    let x = Tensor::from_vec(vec![1.0, 1.01], &[1, 1, 2]).unwrap();
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    assert_streaming_parity(&plan, &qplan, &x);
}

#[test]
fn quantized_session_reset_restores_the_zero_state() {
    let mut rng = StdRng::seed_from_u64(44);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 1, 12], 1.0);
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    let mut session = QuantizedSession::new(Arc::clone(&qplan));
    let stream = |s: &mut QuantizedSession| -> Vec<Vec<f32>> {
        (0..12).filter_map(|t| s.push(&[x.data()[t]])).collect()
    };
    let first = stream(&mut session);
    session.reset();
    let second = stream(&mut session);
    assert_eq!(first, second);
}

#[test]
fn calibration_must_match_the_plan_it_lowers() {
    let mut rng = StdRng::seed_from_u64(45);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 1, 8], 1.0);
    let cal = Calibration::collect(&plan, std::slice::from_ref(&x)).unwrap();
    assert_eq!(cal.len(), plan.num_seams());

    // A calibration for a different plan (different seam count) is rejected.
    let w = Tensor::zeros(&[1, 1, 1]);
    let other = Arc::new(conv_plan(CompiledConv::new(w, Tensor::zeros(&[1]), 1)));
    assert_ne!(other.num_seams(), plan.num_seams());
    let err = QuantizedPlan::new(&other, &cal).unwrap_err();
    assert!(err.contains("seams"), "{err}");

    // A window with the wrong channel count fails calibration cleanly.
    let bad = Tensor::zeros(&[1, 3, 8]);
    assert!(Calibration::collect(&plan, std::slice::from_ref(&bad)).is_err());

    // No windows at all is rejected too — all-zero ranges would silently
    // crush every activation onto three codes.
    assert!(Calibration::collect(&plan, &[]).is_err());
    assert!(QuantizedPlan::quantize(&plan, &[]).is_err());
}

#[test]
fn all_zero_plan_quantizes_exactly() {
    // Zero weights quantize losslessly: the bound collapses to zero and the
    // quantized stream is exactly the (all-bias) f32 stream.
    let w = Tensor::zeros(&[2, 1, 3]);
    let b = Tensor::from_vec(vec![0.25, -0.5], &[2]).unwrap();
    let plan = Arc::new(conv_plan(CompiledConv::new(w, b, 2)));
    let x = Tensor::from_vec((0..10).map(|i| i as f32 * 0.1).collect(), &[1, 1, 10]).unwrap();
    let qplan =
        Arc::new(QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("quantizes"));
    assert_eq!(qplan.error_bound(), 0.0);
    assert_streaming_parity(&plan, &qplan, &x);
}
