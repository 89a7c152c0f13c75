//! Fixtures shared by the `pit-serve` integration suites. Each suite
//! includes this module with `mod common;` and uses the helpers it needs;
//! the receive helpers wait up to the including suite's `RECV_TIMEOUT`.
#![allow(dead_code)]

use pit_infer::{compile_temponet, InferencePlan, QuantizedPlan};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_serve::{Client, ErrorCode, ServerFrame};
use pit_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use super::RECV_TIMEOUT;

/// A seeded 4-channel TEMPONet at its hand-tuned dilations, compiled to
/// an f32 plan.
pub fn searched_plan(seed: u64) -> Arc<InferencePlan> {
    let cfg = TempoNetConfig::scaled(8, 64);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    Arc::new(compile_temponet(&net))
}

/// `plan` lowered to int8, calibrated on one seeded 64-step window.
pub fn quantized_plan(plan: &InferencePlan, seed: u64) -> Arc<QuantizedPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = init::uniform(&mut rng, &[1, plan.input_channels(), 64], 1.0);
    Arc::new(QuantizedPlan::quantize(plan, std::slice::from_ref(&x)).unwrap())
}

/// Drains EMIT_N frames for one single-stream client until at least `want`
/// output vectors of width `dim` arrived (OPENED and CLOSED frames are
/// skipped). A frame can carry more than the remainder; callers that
/// demand an exact count assert it themselves.
pub fn collect_emissions(client: &mut Client, want: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    while out.len() < want {
        match client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport healthy")
            .expect("emissions arrive before the timeout")
        {
            ServerFrame::EmitN { outputs, .. } => {
                for chunk in outputs.chunks_exact(dim) {
                    out.push(chunk.to_vec());
                }
            }
            ServerFrame::Opened { .. } | ServerFrame::Closed { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    out
}

/// The next frame is an ERROR carrying `want`.
pub fn expect_error(client: &mut Client, want: ErrorCode) {
    match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
        Some(ServerFrame::Error { code, .. }) => assert_eq!(code, want),
        other => panic!("expected {want:?} error, got {other:?}"),
    }
}
