//! The ground-truth side of the harness: loaded zoo artifacts, their
//! structural emission cadence, and solo-session replay.
//!
//! The driver needs to know, per model, how many emissions the daemon
//! owes for a burst of timesteps — that cadence is structural (a causal
//! plan warms up over its receptive field, then emits once per step),
//! not input-dependent, so the table is built once per model by pushing
//! zeros through a private session and counting. Verification replays a
//! sampled session's exact inputs through a fresh solo session per
//! segment and demands the daemon's outputs match: bit-exact for int8
//! plans (integer arithmetic has one right answer), ≤ 1e-5 absolute for
//! f32 (the daemon computes the same graph in the same order, but keep a
//! guard band for future kernel reassociation).

use crate::workload::ModelSpec;
use pit_infer::quant::QuantizedSession;
use pit_infer::{PlanArtifact, Session, ZooManifest};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Absolute tolerance for f32 model verification.
pub const F32_TOLERANCE: f32 = 1e-5;

enum LoadedPlan {
    F32(Arc<pit_infer::InferencePlan>),
    I8(Arc<pit_infer::quant::QuantizedPlan>),
}

/// One zoo model with its oracle machinery.
pub struct OracleModel {
    /// Registry name (what OPEN selects).
    pub name: String,
    /// `"f32"` or `"i8"`.
    pub kind: &'static str,
    /// Input channels per timestep.
    pub channels: usize,
    /// Output vector width per emission.
    pub output_dim: usize,
    plan: LoadedPlan,
    /// `cum[n]` = emissions a fresh stream has produced after `n` steps.
    cum: Vec<u64>,
}

impl OracleModel {
    fn fresh_session(&self) -> OracleSession {
        match &self.plan {
            LoadedPlan::F32(p) => OracleSession::F32(Session::new(Arc::clone(p))),
            LoadedPlan::I8(p) => OracleSession::I8(QuantizedSession::new(Arc::clone(p))),
        }
    }
}

enum OracleSession {
    F32(Session),
    I8(QuantizedSession),
}

impl OracleSession {
    fn push(&mut self, sample: &[f32]) -> Option<Vec<f32>> {
        match self {
            OracleSession::F32(s) => s.push(sample),
            OracleSession::I8(s) => s.push(sample),
        }
    }
}

/// All zoo models loaded for a run, indexed the way workload events
/// index them.
pub struct ModelTable {
    models: Vec<OracleModel>,
}

impl ModelTable {
    /// Loads every artifact a `pit-zoo/1` manifest names (rooted at
    /// `base`, the manifest's directory) and probes each model's
    /// emission cadence out to `max_steps` timesteps.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable or malformed artifacts, or a
    /// manifest/artifact disagreement on channels.
    pub fn load(manifest: &ZooManifest, base: &Path, max_steps: usize) -> Result<Self, String> {
        let mut models = Vec::with_capacity(manifest.models.len());
        for entry in &manifest.models {
            let artifact = PlanArtifact::load(&entry.artifact_path(base))?;
            if artifact.input_channels() != entry.input_channels {
                return Err(format!(
                    "model '{}': manifest says {} input channels, artifact has {}",
                    entry.name,
                    entry.input_channels,
                    artifact.input_channels()
                ));
            }
            let (plan, kind) = match artifact {
                PlanArtifact::F32(p) => (LoadedPlan::F32(Arc::new(p)), "f32"),
                PlanArtifact::I8(p) => (LoadedPlan::I8(Arc::new(p)), "i8"),
            };
            let mut model = OracleModel {
                name: entry.name.clone(),
                kind,
                channels: entry.input_channels,
                output_dim: entry.output_dim,
                plan,
                cum: Vec::new(),
            };
            model.cum = probe_cadence(&model, max_steps);
            models.push(model);
        }
        Ok(Self { models })
    }

    /// The models as workload specs, in manifest order (the index space
    /// shared with workload events).
    pub fn specs(&self) -> Vec<ModelSpec> {
        self.models
            .iter()
            .map(|m| ModelSpec {
                name: m.name.clone(),
                channels: m.channels,
            })
            .collect()
    }

    /// The model at workload index `idx`.
    pub fn get(&self, idx: usize) -> &OracleModel {
        &self.models[idx]
    }

    /// Models loaded.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the table is empty (it never is after a successful load —
    /// manifests require at least one model).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Emissions a fresh stream of model `idx` owes for steps
    /// `(from, to]` — what one PUSH advancing a stream from `from` to
    /// `to` total steps must eventually produce.
    pub fn expected_emissions(&self, idx: usize, from: usize, to: usize) -> u64 {
        let cum = &self.models[idx].cum;
        let at = |n: usize| -> u64 {
            if n < cum.len() {
                cum[n]
            } else {
                // Past the probed horizon the cadence is steady-state:
                // one emission per step.
                cum[cum.len() - 1] + (n - (cum.len() - 1)) as u64
            }
        };
        at(to) - at(from)
    }

    /// Replays one segment's inputs through a fresh solo session and
    /// returns the concatenated emissions.
    pub fn replay_segment(&self, idx: usize, inputs: &[f32]) -> Vec<f32> {
        let model = &self.models[idx];
        let mut session = model.fresh_session();
        let mut out = Vec::new();
        for sample in inputs.chunks_exact(model.channels) {
            if let Some(v) = session.push(sample) {
                out.extend_from_slice(&v);
            }
        }
        out
    }

    /// Compares the daemon's outputs for one segment against the solo
    /// replay: `None` when they agree (bit-exact for i8, ≤
    /// [`F32_TOLERANCE`] for f32), else a description of the first
    /// divergence.
    pub fn check_segment(&self, idx: usize, inputs: &[f32], served: &[f32]) -> Option<String> {
        let model = &self.models[idx];
        let expect = self.replay_segment(idx, inputs);
        if expect.len() != served.len() {
            return Some(format!(
                "model '{}': oracle emitted {} values, daemon {}",
                model.name,
                expect.len(),
                served.len()
            ));
        }
        for (i, (&want, &got)) in expect.iter().zip(served).enumerate() {
            let ok = match model.kind {
                "i8" => want.to_bits() == got.to_bits(),
                _ => (want - got).abs() <= F32_TOLERANCE,
            };
            if !ok {
                return Some(format!(
                    "model '{}' ({}): value {i} diverges: oracle {want:e}, daemon {got:e}",
                    model.name, model.kind
                ));
            }
        }
        None
    }

    /// Median-of-three nanoseconds per solo f32 inference step — the
    /// machine-speed anchor for normalised bench comparison (`_f32/step`
    /// matches the bench harness's anchor rule). `None` when the zoo has
    /// no f32 model.
    pub fn anchor_ns_per_step(&self) -> Option<f64> {
        let (idx, model) = self
            .models
            .iter()
            .enumerate()
            .find(|(_, m)| m.kind == "f32")?;
        let steps = 2_000usize;
        let zeros = vec![0.0f32; model.channels];
        let mut runs = [0f64; 3];
        for r in runs.iter_mut() {
            let mut session = self.models[idx].fresh_session();
            let start = Instant::now();
            for _ in 0..steps {
                std::hint::black_box(session.push(std::hint::black_box(&zeros)));
            }
            *r = start.elapsed().as_nanos() as f64 / steps as f64;
        }
        runs.sort_by(f64::total_cmp);
        Some(runs[1])
    }
}

/// Pushes `max_steps` zero timesteps through a fresh session and records
/// the cumulative emission count after each step.
fn probe_cadence(model: &OracleModel, max_steps: usize) -> Vec<u64> {
    let mut session = model.fresh_session();
    let zeros = vec![0.0f32; model.channels];
    let mut cum = Vec::with_capacity(max_steps + 1);
    cum.push(0u64);
    let mut total = 0u64;
    for _ in 0..max_steps {
        if session.push(&zeros).is_some() {
            total += 1;
        }
        cum.push(total);
    }
    cum
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_infer::quant::QuantizedPlan;
    use pit_infer::{compile, InferencePlan};
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use pit_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const C: usize = 4;

    fn plan(seed: u64) -> InferencePlan {
        let cfg = TempoNetConfig::scaled(8, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        compile(&net)
    }

    fn table(seed: u64) -> (ModelTable, tempdir::TempDir) {
        let dir = tempdir::TempDir::new();
        let p = plan(seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let x = init::uniform(&mut rng, &[1, C, 64], 1.0);
        let q = QuantizedPlan::quantize(&p, std::slice::from_ref(&x)).unwrap();
        std::fs::write(dir.path().join("m-f32.pit2.json"), p.to_artifact_string()).unwrap();
        std::fs::write(dir.path().join("m-i8.pit2.json"), q.to_artifact_string()).unwrap();
        let manifest = ZooManifest::new(
            p.name().to_string(),
            vec![
                zoo_entry(p.name(), "m-f32.pit2.json", "f32", &p),
                zoo_entry(q.name(), "m-i8.pit2.json", "i8", &p),
            ],
        )
        .unwrap();
        let t = ModelTable::load(&manifest, dir.path(), 128).unwrap();
        (t, dir)
    }

    fn zoo_entry(name: &str, file: &str, kind: &str, p: &InferencePlan) -> pit_infer::ZooEntry {
        pit_infer::ZooEntry {
            name: name.to_string(),
            path: file.to_string(),
            kind: kind.to_string(),
            seed: 1,
            lambda: 0.0,
            params: 0,
            receptive_field: p.receptive_field(),
            val_loss: 0.0,
            error_bound: 0.0,
            input_channels: p.input_channels(),
            output_dim: p.output_dim(),
        }
    }

    // A throwaway temp dir; std has no tempdir, so lean on the target dir.
    mod tempdir {
        pub struct TempDir(std::path::PathBuf);
        impl TempDir {
            pub fn new() -> Self {
                let dir = std::env::temp_dir().join(format!(
                    "pit-replay-oracle-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                std::fs::create_dir_all(&dir).unwrap();
                Self(dir)
            }
            pub fn path(&self) -> &std::path::Path {
                &self.0
            }
        }
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn cadence_table_matches_receptive_field_warmup() {
        let (t, _dir) = table(31);
        // No emissions until the plan warms up, then one per step.
        assert_eq!(t.expected_emissions(0, 0, 1), 0);
        let total = t.expected_emissions(0, 0, 128);
        assert!(total > 0 && total < 128, "total={total}");
        // Steady state: exactly one emission per step, including past the
        // probed horizon.
        assert_eq!(t.expected_emissions(0, 127, 128), 1);
        assert_eq!(t.expected_emissions(0, 128, 130), 2);
        assert_eq!(t.expected_emissions(0, 500, 510), 10);
        // Additivity over splits.
        assert_eq!(
            t.expected_emissions(0, 0, 64) + t.expected_emissions(0, 64, 128),
            t.expected_emissions(0, 0, 128)
        );
    }

    #[test]
    fn replay_check_accepts_itself_and_flags_tampering() {
        let (t, _dir) = table(32);
        let mut rng = SplitMixLocal(99);
        let inputs: Vec<f32> = (0..64 * C).map(|_| rng.next_f32()).collect();
        for idx in 0..t.len() {
            let served = t.replay_segment(idx, &inputs);
            assert!(!served.is_empty());
            assert!(t.check_segment(idx, &inputs, &served).is_none());
            // Tamper with one value beyond tolerance: must be caught.
            let mut bad = served.clone();
            bad[served.len() / 2] += 1e-3;
            assert!(t.check_segment(idx, &inputs, &bad).is_some());
            // Wrong length: caught.
            assert!(t.check_segment(idx, &inputs, &served[1..]).is_some());
        }
    }

    #[test]
    fn anchor_timing_is_positive() {
        let (t, _dir) = table(33);
        let ns = t.anchor_ns_per_step().expect("zoo has an f32 model");
        assert!(ns > 0.0);
    }

    struct SplitMixLocal(u64);
    impl SplitMixLocal {
        fn next_f32(&mut self) -> f32 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        }
    }
}
