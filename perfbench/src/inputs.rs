//! Seeded inputs of the serving workloads. Everything the daemon receives is
//! drawn here from `--seed`: the weights of the served TEMPONet/8, the
//! calibration windows of its int8 lowering, every stream's waveform and the
//! stream→model assignment.

use pit_infer::{compile_temponet, QuantizedPlan};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Input channels per timestep (PPG + 3-axis accelerometer).
pub const CHANNELS: usize = 4;
/// Timesteps per push; TEMPONet's three stride-2 pools emit once per 8.
pub const STEPS_PER_PUSH: usize = 8;
/// Length of every stream's waveform cycle, a multiple of
/// [`STEPS_PER_PUSH`] so a push never wraps mid-way.
const CYCLE: usize = 64;
/// Registry name of the f32 model; the int8 model is `<name>-int8`.
pub const MODEL: &str = "temponet8";

/// The generated inputs of one serving run.
pub struct ServingInputs {
    /// `pit-arch/2` artifact of the f32 model.
    pub f32_artifact: PathBuf,
    /// `pit-arch/2` artifact of the calibrated int8 model.
    pub i8_artifact: PathBuf,
    /// Registry name of the int8 model.
    pub i8_name: String,
    /// Whether stream `s` is served by the int8 model (exactly half are).
    pub is_i8: Vec<bool>,
    /// `streams × CYCLE × CHANNELS` samples, timestep-major per stream.
    waves: Vec<f32>,
}

impl ServingInputs {
    /// Draws the inputs for `streams` streams from `seed` and writes the two
    /// artifacts into `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when quantization or an artifact write fails.
    pub fn generate(seed: u64, streams: usize, dir: &Path) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let plan = compile_temponet(&net).with_name(MODEL);
        let windows: Vec<Tensor> = (0..4)
            .map(|_| init::uniform(&mut rng, &[1, CHANNELS, 64], 0.5))
            .collect();
        let qplan = QuantizedPlan::quantize(&plan, &windows)?;

        let f32_artifact = dir.join(format!("{MODEL}.pit2.json"));
        let i8_artifact = dir.join(format!("{}.pit2.json", qplan.name()));
        std::fs::write(&f32_artifact, plan.to_artifact_string())
            .map_err(|e| format!("cannot write {}: {e}", f32_artifact.display()))?;
        std::fs::write(&i8_artifact, qplan.to_artifact_string())
            .map_err(|e| format!("cannot write {}: {e}", i8_artifact.display()))?;

        let mut is_i8: Vec<bool> = (0..streams).map(|s| s % 2 == 1).collect();
        is_i8.shuffle(&mut rng);

        // A PPG-like waveform per stream: a cardiac sinusoid with its own
        // rate and phase plus noise on channel 0, smoothed random walks on
        // the three accelerometer channels. Values stay within ±0.5.
        let mut waves = Vec::with_capacity(streams * CYCLE * CHANNELS);
        for _ in 0..streams {
            let rate = rng.gen_range(0.02f32..0.08) * std::f32::consts::TAU;
            let phase = rng.gen_range(0.0f32..std::f32::consts::TAU);
            let mut accel = [0.0f32; 3];
            for t in 0..CYCLE {
                let noise = rng.gen_range(-0.05f32..0.05);
                waves.push(0.4 * (phase + rate * t as f32).sin() + noise);
                for a in &mut accel {
                    *a = (0.9 * *a + 0.1 * rng.gen_range(-1.0f32..1.0)).clamp(-0.5, 0.5);
                    waves.push(*a);
                }
            }
        }
        Ok(Self {
            f32_artifact,
            i8_artifact,
            i8_name: qplan.name().to_string(),
            is_i8,
            waves,
        })
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.is_i8.len()
    }

    /// Registry model serving stream `s`.
    pub fn model_of(&self, s: usize) -> &str {
        if self.is_i8[s] {
            &self.i8_name
        } else {
            MODEL
        }
    }

    /// The [`STEPS_PER_PUSH`] timesteps of stream `s`'s push number `push`
    /// (counted from OPEN), `STEPS_PER_PUSH × CHANNELS` values.
    pub fn push_samples(&self, s: usize, push: u64) -> &[f32] {
        let t = (push as usize * STEPS_PER_PUSH) % CYCLE;
        let start = (s * CYCLE + t) * CHANNELS;
        &self.waves[start..start + STEPS_PER_PUSH * CHANNELS]
    }
}
