//! Int8 serving of a searched PPG heart-rate model: the deployment contract
//! of the PIT story (search → tiny dilated TCN → int8 execution on the
//! edge), end to end:
//!
//! 1. persist the searched architecture as `pit-arch/1` JSON and load it
//!    back — no re-search needed;
//! 2. compile the trained network into an f32 [`InferencePlan`] (γ masks →
//!    true dilations, batch norm folded);
//! 3. **calibrate** activation ranges over representative windows and
//!    **quantize** into a [`QuantizedPlan`] — int8 weights with
//!    per-output-channel scales, one activation scale per layer seam, and
//!    an *analytic* parity bound against the f32 plan;
//! 4. stream both precisions side by side through the one engine:
//!    identical emission schedule, outputs within the bound, ~4x smaller
//!    weights and per-stream state;
//! 5. serve a fleet of int8 streams through a [`QuantizedSessionPool`],
//!    bit-exact against solo int8 sessions.
//!
//! Run with: `cargo run --release --example quantized_serving`

use pit::prelude::*;
use pit_infer::{compile, QuantizedPlan, QuantizedSession, QuantizedSessionPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A scaled TEMPONet carrying a searched dilation assignment (a real
    // pipeline would train first; weights here are random but the numerics
    // of the quantized path are identical).
    let config = TempoNetConfig::scaled(8, 64);
    let searched = vec![2, 4, 4, 8, 8, 16, 16];
    let mut rng = StdRng::seed_from_u64(0);
    let net = TempoNet::new(&mut rng, &config);
    net.set_dilations(&searched);

    // 1. Architecture round trip through pit-arch/1 JSON.
    let json = net.descriptor(config.input_length).to_json_string();
    let loaded = NetworkDescriptor::from_json_str(&json).expect("descriptor parses back");
    println!(
        "searched architecture : dilations {searched:?} ({} layers, {} bytes of JSON)",
        loaded.len(),
        json.len()
    );

    // 2. Compile to the f32 plan.
    let plan = Arc::new(compile(&net));

    // 3. Calibrate on representative PPG windows, then lower to int8.
    let generator = PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: 8,
        window_len: 64,
        ..PpgDaliaConfig::paper()
    });
    let (windows, _, _) = generator.generate_splits();
    let calibration: Vec<_> = (0..4).map(|i| windows.gather(&[i]).inputs).collect();
    let qplan = Arc::new(QuantizedPlan::quantize(&plan, &calibration).expect("plan quantizes"));
    let f32_weight_bytes = 4 * plan.num_weights();
    let f32_state_bytes = plan.session_state_bytes();
    println!(
        "quantized plan        : {} -> {} weight bytes ({:.1}x), {} -> {} state bytes/stream ({:.1}x)",
        f32_weight_bytes,
        qplan.weight_bytes(),
        f32_weight_bytes as f64 / qplan.weight_bytes() as f64,
        f32_state_bytes,
        qplan.session_state_bytes(),
        f32_state_bytes as f64 / qplan.session_state_bytes() as f64,
    );

    // 4. Stream one calibration window in both precisions.
    let x = &calibration[0]; // [1, 4, 64]
    let mut f32_session = Session::new(Arc::clone(&plan));
    let mut i8_session = QuantizedSession::new(Arc::clone(&qplan));
    let mut sample = [0.0f32; 4];
    let (mut f32_last, mut i8_last) = (Vec::new(), Vec::new());
    for t in 0..64 {
        for (ci, slot) in sample.iter_mut().enumerate() {
            *slot = x.data()[ci * 64 + t];
        }
        let f = f32_session.push(&sample);
        let q = i8_session.push(&sample);
        assert_eq!(f.is_some(), q.is_some(), "emission schedules must match");
        if let (Some(f), Some(q)) = (f, q) {
            f32_last = f;
            i8_last = q;
        }
    }
    let diff = (f32_last[0] - i8_last[0]).abs();
    let bound = qplan.error_bound();
    println!(
        "int8 parity           : f32 {:.4} vs int8 {:.4} (|diff| {:.2e} <= analytic bound {:.2e})",
        f32_last[0], i8_last[0], diff, bound
    );
    assert!(
        diff <= bound * 1.001 + 1e-4,
        "quantized output out of bound"
    );

    // Step-time comparison (single stream, steady state). The two sessions
    // take turns over several rounds and the medians are printed, so one
    // slow round (a preempted thread, a cold cache) does not set the ratio.
    const ROUNDS: usize = 11;
    let steps = 20_000usize;
    let mut out = vec![0.0f32; plan.output_dim()];
    let time_steps = |f: &mut dyn FnMut(usize)| {
        let start = Instant::now();
        for t in 0..steps {
            f(t);
        }
        start.elapsed().as_nanos() as f64 / steps as f64
    };
    let (mut f32_ns, mut i8_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        f32_ns.push(time_steps(&mut |t| {
            for (ci, slot) in sample.iter_mut().enumerate() {
                *slot = x.data()[ci * 64 + (t % 64)];
            }
            f32_session.push_into(&sample, &mut out);
        }));
        i8_ns.push(time_steps(&mut |t| {
            for (ci, slot) in sample.iter_mut().enumerate() {
                *slot = x.data()[ci * 64 + (t % 64)];
            }
            i8_session.push_into(&sample, &mut out);
        }));
    }
    let mut ratios: Vec<f64> = i8_ns.iter().zip(&f32_ns).map(|(i, f)| i / f).collect();
    println!(
        "step time             : f32 {:.0} ns vs int8 {:.0} ns (int8/f32 {:.2}), medians of {ROUNDS} alternating rounds",
        median(&mut f32_ns),
        median(&mut i8_ns),
        median(&mut ratios)
    );

    // 5. Batch-of-sessions int8 serving: 16 concurrent PPG streams.
    const STREAMS: usize = 16;
    const STEPS: usize = 256;
    let mut pool = QuantizedSessionPool::new(Arc::clone(&qplan), STREAMS);
    let mut predictions = 0usize;
    let start = Instant::now();
    for t in 0..STEPS {
        for sid in 0..STREAMS {
            for (ci, slot) in sample.iter_mut().enumerate() {
                *slot = x.data()[ci * 64 + (t + sid) % 64];
            }
            pool.push(sid, &sample);
        }
        predictions += pool.flush().len();
    }
    let elapsed = start.elapsed();
    println!(
        "int8 session pool     : {STREAMS} streams x {STEPS} steps -> {predictions} predictions \
         in {:.1} ms ({:.0} timesteps/s)",
        elapsed.as_secs_f64() * 1e3,
        (STREAMS * STEPS) as f64 / elapsed.as_secs_f64()
    );
}

/// The middle value of an odd-length sample.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}
