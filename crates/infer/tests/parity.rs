//! Parity tests: streaming one-timestep-at-a-time must match the offline
//! masked forward and the compiled plan's offline forward within `1e-5`,
//! including on odd geometries (K = 1, dilation beyond the sequence, single
//! channels, lengths that don't divide the kernel tiling, columns wider than
//! the ring gather's fixed-copy pad).

use pit_infer::{compile, CompiledConv, InferencePlan, PlanHead, Session, SessionPool};
use pit_models::{ResTcn, ResTcnConfig, TempoNet, TempoNetConfig};
use pit_nas::{PitConv1d, SearchableNetwork};
use pit_nn::{Layer, Mode};
use pit_tensor::ops::mask::gamma_len;
use pit_tensor::{init, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Wraps a single compiled convolution as a head-only plan.
fn conv_plan(conv: &CompiledConv) -> Arc<InferencePlan> {
    Arc::new(InferencePlan::new(
        "conv-parity",
        conv.in_channels(),
        Vec::new(),
        PlanHead::PerStep(conv.clone()),
    ))
}

/// Streams `x` (`[1, C, T]`) through a fresh session one sample at a time,
/// returning every emission.
fn stream_plan(plan: &Arc<InferencePlan>, x: &Tensor) -> Vec<Vec<f32>> {
    let (c, t) = (x.dims()[1], x.dims()[2]);
    let mut session = Session::new(Arc::clone(plan));
    let mut sample = vec![0.0f32; c];
    let mut outputs = Vec::with_capacity(t);
    for tt in 0..t {
        for ci in 0..c {
            sample[ci] = x.data()[ci * t + tt];
        }
        outputs.extend(session.push(&sample));
    }
    outputs
}

/// Streams `x` through a head-only plan around `conv`, returning the
/// `[C_out, T]` outputs.
fn stream_conv(conv: &CompiledConv, x: &Tensor) -> Vec<Vec<f32>> {
    stream_plan(&conv_plan(conv), x)
}

fn assert_columns_match(offline: &Tensor, streamed: &[Vec<f32>], tol: f32, label: &str) {
    let (c_out, t) = (offline.dims()[1], offline.dims()[2]);
    assert_eq!(streamed.len(), t, "{label}: emission count");
    for (tt, col) in streamed.iter().enumerate() {
        for co in 0..c_out {
            let want = offline.data()[co * t + tt];
            assert!(
                (col[co] - want).abs() < tol,
                "{label}: t={tt} co={co}: streamed {} vs offline {want}",
                col[co]
            );
        }
    }
}

#[test]
fn streaming_matches_offline_on_odd_geometries() {
    // (c_in, c_out, k, dilation, t): the checklist geometries — K = 1,
    // dilation larger than the sequence, single channel — plus tiling-hostile
    // lengths.
    let cases = [
        (1usize, 1usize, 1usize, 1usize, 1usize), // everything degenerate
        (3, 4, 1, 3, 16),                         // K = 1
        (2, 3, 3, 7, 4),                          // dilation > T
        (1, 1, 5, 2, 9),                          // single channel
        (2, 2, 2, 8, 16),                         // receptive field == T
        (5, 3, 4, 2, 33),                         // T not a multiple of the tile
        (1, 6, 9, 4, 20),                         // wide fan-out
    ];
    let mut rng = StdRng::seed_from_u64(0);
    for (c_in, c_out, k, d, t) in cases {
        let w = init::uniform(&mut rng, &[c_out, c_in, k], 1.0);
        let b = init::uniform(&mut rng, &[c_out], 1.0);
        let conv = CompiledConv::new(w.clone(), b.clone(), d);
        let x = init::uniform(&mut rng, &[1, c_in, t], 1.0);
        let offline = x.conv1d_causal(&w, Some(&b), d).unwrap();
        let plan_offline = conv.forward_offline(&x).unwrap();
        assert!(
            offline.approx_eq(&plan_offline, 1e-5),
            "plan offline mismatch on c{c_in}->{c_out} k{k} d{d} t{t}"
        );
        let streamed = stream_conv(&conv, &x);
        assert_columns_match(
            &offline,
            &streamed,
            1e-5,
            &format!("c{c_in}->{c_out} k{k} d{d} t{t}"),
        );
    }
}

#[test]
fn wide_columns_stream_like_offline() {
    // Channels up to 64: ring columns wider than the gather's fixed-copy
    // pad take the slice-copy path. A per-step head checks every column.
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = ResTcnConfig {
        hidden_channels: 24,
        input_channels: 20,
        output_channels: 20,
        dropout: 0.0,
        ..ResTcnConfig::paper()
    };
    let net = ResTcn::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, 20, 32], 1.0);
    let offline = plan.forward(&x).unwrap();
    assert_columns_match(&offline, &stream_plan(&plan, &x), 1e-5, "wide restcn");

    let cfg = TempoNetConfig::scaled(2, 64);
    assert!(cfg.channels.iter().any(|&c| c > 16));
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = Arc::new(compile(&net));
    let x = init::uniform(&mut rng, &[1, cfg.input_channels, 64], 1.0);
    let offline = plan.forward(&x).unwrap();
    let last = stream_plan(&plan, &x).pop().expect("the head emits");
    assert!(
        (last[0] - offline.data()[0]).abs() < 1e-5,
        "wide temponet: streamed {} vs offline {}",
        last[0],
        offline.data()[0]
    );
}

#[test]
fn nan_sample_stays_nan_offline_and_streamed() {
    // A linear output has no ReLU clamp, so a NaN input must come out as NaN
    // on the offline forward, the solo step and the pool's wave alike.
    let mut rng = StdRng::seed_from_u64(2);
    let w = init::uniform(&mut rng, &[2, 2, 1], 1.0);
    let b = init::uniform(&mut rng, &[2], 1.0);
    let plan = conv_plan(&CompiledConv::new(w, b, 1));
    let sample = [f32::NAN, 1.0];
    let x = Tensor::from_vec(sample.to_vec(), &[1, 2, 1]).unwrap();
    let offline = plan.forward(&x).unwrap();
    assert!(
        offline.data().iter().all(|v| v.is_nan()),
        "offline {offline:?}"
    );
    let solo = Session::new(Arc::clone(&plan)).push(&sample).unwrap();
    assert!(solo.iter().all(|v| v.is_nan()), "solo {solo:?}");
    let mut pool = SessionPool::new(plan, 1);
    pool.push(0, &sample);
    let flushed = pool.flush();
    assert_eq!(flushed.len(), 1);
    assert!(flushed[0].1.iter().all(|v| v.is_nan()), "pool {flushed:?}");
}

#[test]
#[should_panic(expected = "channels, plan needs")]
fn session_rejects_a_wider_sample() {
    // One input-width contract: a longer sample is an error, not a silent
    // truncation.
    let conv = CompiledConv::new(Tensor::zeros(&[1, 2, 1]), Tensor::zeros(&[1]), 1);
    let _ = Session::new(conv_plan(&conv)).push(&[0.0; 3]);
}

#[test]
#[should_panic(expected = "channels, plan needs")]
fn pool_rejects_a_narrower_sample() {
    let conv = CompiledConv::new(Tensor::zeros(&[1, 2, 1]), Tensor::zeros(&[1]), 1);
    SessionPool::new(conv_plan(&conv), 1).push(0, &[0.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A searchable layer at a random legal dilation: the offline masked
    /// forward (tape), the compiled plan's offline forward and the streamed
    /// per-step outputs agree within 1e-5.
    #[test]
    fn masked_compiled_and_streamed_agree(
        rf_exp in 1usize..5,
        choice in 0usize..6,
        c_in in 1usize..4,
        c_out in 1usize..5,
        t in 1usize..40,
        seed in 0u64..1000,
    ) {
        let rf_max = (1usize << rf_exp) + 1;
        let l = gamma_len(rf_max);
        let d = 1usize << (choice % l);
        let mut rng = StdRng::seed_from_u64(seed);
        let searchable = PitConv1d::new(&mut rng, c_in, c_out, rf_max, "parity");
        searchable.set_dilation(d);

        let x = init::uniform(&mut rng, &[1, c_in, t], 1.0);
        // 1. Offline masked forward through the tape (the training path).
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let y = searchable.forward(&mut tape, vx, Mode::Eval);
        let masked = tape.value(y).clone();

        // 2. The compiled plan's offline forward (true dilation, no tape).
        let compiled = CompiledConv::from_searchable(&searchable);
        prop_assert_eq!(compiled.kernel(), (rf_max - 1) / d + 1);
        let plan_offline = compiled.forward_offline(&x).unwrap();
        prop_assert!(
            masked.approx_eq(&plan_offline, 1e-5),
            "compiled offline diverged (rf {}, d {})", rf_max, d
        );

        // 2b. Tape-free mask extraction: the dense weights convolved under
        // the extracted binarised mask (fused masked kernel, no tape) must
        // equal the tape-built masked forward too.
        let mask_values = searchable.time_mask_values();
        prop_assert_eq!(
            mask_values.iter().filter(|&&m| m == 1.0).count(),
            compiled.kernel(),
            "extracted mask keeps a different tap count than the compiled plan"
        );
        let mask = Tensor::from_vec(mask_values, &[rf_max]).unwrap();
        let extracted = x
            .conv1d_causal_masked(
                &searchable.weight_param().value(),
                &mask,
                Some(&searchable.bias_param().value()),
                1,
            )
            .unwrap();
        prop_assert!(
            masked.approx_eq(&extracted, 1e-5),
            "extracted-mask forward diverged (rf {}, d {})", rf_max, d
        );

        // 3. Streaming one timestep at a time.
        let streamed = stream_conv(&compiled, &x);
        for (tt, col) in streamed.iter().enumerate() {
            for co in 0..c_out {
                let want = masked.data()[co * t + tt];
                prop_assert!(
                    (col[co] - want).abs() < 1e-5,
                    "stream diverged at t={} co={} (rf {}, d {})", tt, co, rf_max, d
                );
            }
        }
    }

    /// Batching sessions in a pool never changes any stream's outputs, for
    /// random conv geometry and stream count.
    #[test]
    fn session_pool_matches_solo_sessions(
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
        let conv = CompiledConv::new(w, b, d);
        let plan = Arc::new(InferencePlan::new(
            "pool-parity",
            c_in,
            Vec::new(),
            PlanHead::PerStep(conv),
        ));
        let inputs: Vec<Tensor> = (0..streams)
            .map(|_| init::uniform(&mut rng, &[1, c_in, t], 1.0))
            .collect();

        let mut pool = SessionPool::new(Arc::clone(&plan), streams);
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
            let solo = stream_conv(match plan.head() {
                PlanHead::PerStep(conv) => conv,
                _ => unreachable!(),
            }, x);
            // The pool runs the solo step: equality is exact.
            prop_assert_eq!(&solo, &pooled[sid], "stream {} diverged", sid);
        }
    }
}
