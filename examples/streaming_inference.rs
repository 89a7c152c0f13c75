//! Serving a searched PPG heart-rate model sample-by-sample.
//!
//! The PIT search's output is an architecture (a dilation per layer). This
//! example shows the full serving path `pit-infer` adds on top of it:
//!
//! 1. persist the searched architecture as JSON (`NetworkDescriptor`) and
//!    load it back — no re-search needed;
//! 2. compile the trained network into an [`InferencePlan`]: γ masks fold
//!    into true dilations, batch norm fuses into the conv weights;
//! 3. verify streaming parity: pushing a window one sample at a time equals
//!    the offline forward;
//! 4. serve a fleet of concurrent PPG streams through a [`SessionPool`],
//!    which flushes each stream's queued samples through the solo step.
//!
//! Run with: `cargo run --release --example streaming_inference`

use pit::prelude::*;
use pit_infer::compile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A scaled TEMPONet carrying a searched dilation assignment (the paper's
    // PIT result for the PPG task; a real pipeline would train first).
    let config = TempoNetConfig::scaled(8, 64);
    let searched = vec![2, 4, 4, 8, 8, 16, 16];
    let mut rng = StdRng::seed_from_u64(0);
    let net = TempoNet::new(&mut rng, &config);
    net.set_dilations(&searched);
    println!("searched architecture : dilations {searched:?}");

    // 1. Architecture round trip: save as JSON, load, re-validate.
    let json = net.descriptor(config.input_length).to_json_string();
    let loaded = NetworkDescriptor::from_json_str(&json).expect("descriptor parses back");
    let geometry = InferencePlan::from_descriptor(&loaded).expect("geometry compiles");
    println!(
        "descriptor JSON       : {} bytes, {} layers, geometry round-trips (rf {})",
        json.len(),
        loaded.len(),
        geometry.receptive_field()
    );

    // 2. Compile the trained network: masks -> true dilations, BN folded.
    let plan = Arc::new(compile(&net));
    println!(
        "compiled plan         : {} weights (searchable net stores {}), {} state floats/stream",
        plan.num_weights(),
        net.num_weights(),
        plan.session_state_bytes() / 4
    );

    // 3. Parity: stream one window sample-by-sample vs the offline forward.
    let generator = PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: 8,
        window_len: 64,
        ..PpgDaliaConfig::paper()
    });
    let (windows, _, _) = generator.generate_splits();
    let x = windows.gather(&[0]).inputs; // one [1, 4, 64] PPG window
    let offline = plan.forward(&x).expect("offline forward");
    let mut session = Session::new(Arc::clone(&plan));
    let mut sample = [0.0f32; 4];
    let mut last = Vec::new();
    for t in 0..64 {
        for (ci, slot) in sample.iter_mut().enumerate() {
            *slot = x.data()[ci * 64 + t];
        }
        if let Some(out) = session.push(&sample) {
            last = out;
        }
    }
    let diff = (last[0] - offline.data()[0]).abs();
    println!(
        "streaming parity      : offline {:.4}, streamed {:.4} (|diff| {:.2e})",
        offline.data()[0],
        last[0],
        diff
    );
    assert!(diff < 1e-5, "streaming must match the offline forward");

    // 4. Batch-of-sessions serving: 16 concurrent PPG streams.
    const STREAMS: usize = 16;
    const STEPS: usize = 256;
    let mut pool = SessionPool::new(Arc::clone(&plan), STREAMS);
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
    let steps = (STREAMS * STEPS) as f64;
    println!(
        "session pool          : {STREAMS} streams x {STEPS} steps -> {predictions} predictions \
         in {:.1} ms ({:.0} timesteps/s)",
        elapsed.as_secs_f64() * 1e3,
        steps / elapsed.as_secs_f64()
    );
}
