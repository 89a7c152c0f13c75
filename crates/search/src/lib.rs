//! # pit-search
//!
//! The search half of the search-to-serve pipeline: run the three-phase PIT
//! procedure ([`pit_nas::PitSearch`], Algorithm 1 of the DAC 2021 paper)
//! across many `(seed, λ)` combinations in parallel on the persistent
//! worker pool, keep the Pareto-optimal points of the accuracy-vs-size
//! plane, then calibrate and int8-quantize each survivor and write the
//! whole set out as an **artifact library**: a directory of `pit-arch/2`
//! model files plus a `pit-zoo/1` manifest (`zoo.json`,
//! [`pit_infer::ZooManifest`]) that `pit-serve --zoo` boots directly.
//!
//! Every Pareto point yields *two* registry models — the f32 plan and its
//! calibrated int8 lowering — so even a single-point front produces a
//! multi-model zoo with a meaningful accuracy/footprint choice per stream.
//!
//! The search task is self-contained: a synthetic multi-channel lag
//! regression ([`lag_dataset`]) whose target mixes one live channel with a
//! lag-4 echo of another, searched over a two-layer [`GenericTcn`]. Small λ
//! keeps the dense kernels; large λ prunes towards dilated, smaller models
//! — the spread that makes the Pareto front non-trivial.

use pit_infer::{compile, InferencePlan, QuantizedPlan, ZooEntry, ZooManifest};
use pit_models::{GenericTcn, GenericTcnConfig};
use pit_nas::{pareto_front, PitConfig, PitOutcome, PitSearch};
use pit_nn::{Dataset, LossKind};
use pit_tensor::{init, pool, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Input channels of the synthetic search task.
pub const CHANNELS: usize = 2;
/// Timesteps per training sample.
pub const WINDOW: usize = 24;
/// RNG seed of the shared train/validation data (fixed so every combo
/// trains on identical data and val losses are comparable).
const DATA_SEED: u64 = 0xD47A;
/// RNG seed of the calibration windows used for int8 quantization.
const CAL_SEED: u64 = 0xCA11;

/// One searched, Pareto-surviving architecture: the outcome of a PIT run
/// plus its compiled streaming plan, named uniquely for the registry.
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// RNG seed the combo trained with.
    pub seed: u64,
    /// Regulariser strength λ of the combo.
    pub lambda: f32,
    /// The three-phase search outcome (sizes, losses, timings).
    pub outcome: PitOutcome,
    /// The compiled f32 plan, renamed to [`point_name`].
    pub plan: InferencePlan,
}

/// Configuration of one library build: which combos to search and how hard.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// `(seed, λ)` pairs, one PIT run each.
    pub combos: Vec<(u64, f32)>,
    /// Warmup epochs per run.
    pub warmup_epochs: usize,
    /// Pruning (search) epochs per run.
    pub search_epochs: usize,
    /// Fine-tuning epochs per run.
    pub finetune_epochs: usize,
    /// Training samples to synthesize.
    pub samples: usize,
    /// Parallel search jobs (capped by the worker pool and combo count).
    pub jobs: usize,
}

impl LibraryConfig {
    /// The CI-sized build: two fixed-seed combos at the λ extremes, a
    /// couple of epochs each. Finishes in seconds and still yields a
    /// ≥ 2-model library (f32 + int8 per point).
    pub fn quick() -> Self {
        Self {
            combos: vec![(17, 0.0), (29, 25.0)],
            warmup_epochs: 1,
            search_epochs: 5,
            finetune_epochs: 1,
            samples: 48,
            jobs: 2,
        }
    }

    /// The default build: two seeds across three λ decades.
    pub fn full() -> Self {
        Self {
            combos: vec![
                (17, 0.0),
                (29, 0.0),
                (17, 0.05),
                (29, 0.05),
                (17, 5.0),
                (29, 5.0),
            ],
            warmup_epochs: 2,
            search_epochs: 10,
            finetune_epochs: 3,
            samples: 96,
            jobs: pool::max_threads(),
        }
    }
}

/// The registry name of a combo's f32 model (the int8 sibling gets the
/// usual `-int8` suffix when quantized).
pub fn point_name(seed: u64, lambda: f32) -> String {
    // λ renders as a plain decimal ("0.05"), fine inside a name.
    format!("pit-s{seed}-l{lambda}")
}

/// The searched network seed: two searchable convolutions over
/// [`CHANNELS`] inputs, regression head of one output.
fn tcn_config() -> GenericTcnConfig {
    GenericTcnConfig {
        input_channels: CHANNELS,
        channels: vec![4, 4],
        rf_max: vec![9, 9],
        outputs: 1,
    }
}

/// Synthesizes the multi-channel lag-regression dataset: per sample,
/// `CHANNELS × WINDOW` uniform inputs and the scalar target
/// `mean_t(x₀[t] + x₁[t−4])` — solvable only with lag-4 context, which is
/// what makes dilation search non-degenerate.
pub fn lag_dataset(samples: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new();
    for _ in 0..samples {
        let x: Vec<f32> = (0..CHANNELS * WINDOW)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let (c0, c1) = x.split_at(WINDOW);
        let mut y = 0.0f32;
        for t in 0..WINDOW {
            y += c0[t] + if t >= 4 { c1[t - 4] } else { 0.0 };
        }
        y /= WINDOW as f32;
        ds.push(
            Tensor::from_vec(x, &[CHANNELS, WINDOW]).expect("sample shape"),
            Tensor::from_vec(vec![y], &[1]).expect("target shape"),
        );
    }
    ds
}

/// Runs one PIT search per combo — in parallel on the persistent worker
/// pool — and returns the Pareto-optimal points of the
/// (effective params, validation loss) plane, smallest model first.
///
/// Every combo trains on the same fixed-seed dataset, so validation losses
/// are directly comparable and the Pareto filter is meaningful.
pub fn run_library_search(cfg: &LibraryConfig) -> Vec<SearchPoint> {
    let data = lag_dataset(cfg.samples, DATA_SEED);
    let (train, val) = data.split(0.75);
    let n = cfg.combos.len();
    if n == 0 {
        return Vec::new();
    }

    // One worker-pool chunk per combo; the f32 buffer is just the carrier
    // the pool hands out disjoint indices through.
    let slots: Mutex<Vec<Option<SearchPoint>>> = Mutex::new((0..n).map(|_| None).collect());
    let threads = pool::max_threads().min(cfg.jobs.max(1)).min(n);
    let mut carrier = vec![0.0f32; n];
    pool::for_each_chunk(&mut carrier, 1, threads, |i, _| {
        let (seed, lambda) = cfg.combos[i];
        let pit_cfg = PitConfig {
            lambda,
            warmup_epochs: cfg.warmup_epochs,
            search_epochs: cfg.search_epochs,
            finetune_epochs: cfg.finetune_epochs,
            patience: None,
            batch_size: 12,
            learning_rate: 0.02,
            gamma_learning_rate: 0.05,
            seed,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = GenericTcn::new(&mut rng, &tcn_config());
        let outcome = PitSearch::new(pit_cfg).run(&net, &train, &val, LossKind::Mse);
        let plan = compile(&net).with_name(point_name(seed, lambda));
        slots.lock().expect("search slot lock")[i] = Some(SearchPoint {
            seed,
            lambda,
            outcome,
            plan,
        });
    });
    let points: Vec<SearchPoint> = slots
        .into_inner()
        .expect("search slots")
        .into_iter()
        .flatten()
        .collect();

    // Keep the Pareto front of the accuracy-vs-size plane.
    let plane: Vec<_> = points
        .iter()
        .map(|p| p.outcome.to_pareto_point(p.plan.name()))
        .collect();
    let front = pareto_front(&plane);
    let mut kept: Vec<SearchPoint> = points
        .into_iter()
        .filter(|p| front.iter().any(|f| f.label == p.plan.name()))
        .collect();
    kept.sort_by_key(|p| p.outcome.effective_params);
    kept
}

/// Writes the artifact library for `points` into `out_dir`: per point one
/// f32 `pit-arch/2` file and one calibrated int8 file, plus the `zoo.json`
/// manifest tying them together. The default model is the f32 point with
/// the lowest validation loss.
///
/// Returns the manifest and the path of the written `zoo.json`.
///
/// # Errors
///
/// Returns a message when `points` is empty, a file cannot be written, or
/// quantization fails.
pub fn write_library(
    points: &[SearchPoint],
    out_dir: &Path,
) -> Result<(ZooManifest, PathBuf), String> {
    if points.is_empty() {
        return Err("no search points to write".into());
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let mut rng = StdRng::seed_from_u64(CAL_SEED);
    let windows: Vec<Tensor> = (0..4)
        .map(|_| init::uniform(&mut rng, &[1, CHANNELS, WINDOW], 1.0))
        .collect();

    let mut entries = Vec::with_capacity(points.len() * 2);
    for point in points {
        let plan = &point.plan;
        let f32_file = format!("{}.pit2.json", plan.name());
        std::fs::write(out_dir.join(&f32_file), plan.to_artifact_string())
            .map_err(|e| format!("cannot write {f32_file}: {e}"))?;
        entries.push(ZooEntry {
            name: plan.name().to_string(),
            path: f32_file,
            kind: "f32".into(),
            seed: point.seed,
            lambda: point.lambda,
            params: point.outcome.effective_params,
            receptive_field: plan.receptive_field(),
            val_loss: point.outcome.val_loss,
            error_bound: 0.0,
            input_channels: plan.input_channels(),
            output_dim: plan.output_dim(),
        });

        let qplan = QuantizedPlan::quantize(plan, &windows)
            .map_err(|e| format!("quantizing {}: {e}", plan.name()))?;
        let i8_file = format!("{}.pit2.json", qplan.name());
        std::fs::write(out_dir.join(&i8_file), qplan.to_artifact_string())
            .map_err(|e| format!("cannot write {i8_file}: {e}"))?;
        entries.push(ZooEntry {
            name: qplan.name().to_string(),
            path: i8_file,
            kind: "i8".into(),
            seed: point.seed,
            lambda: point.lambda,
            params: point.outcome.effective_params,
            receptive_field: qplan.receptive_field(),
            val_loss: point.outcome.val_loss,
            error_bound: qplan.error_bound(),
            input_channels: qplan.input_channels(),
            output_dim: qplan.output_dim(),
        });
    }

    let default = entries
        .iter()
        .filter(|e| e.kind == "f32")
        .min_by(|a, b| a.val_loss.total_cmp(&b.val_loss))
        .map(|e| e.name.clone())
        .expect("at least one f32 entry");
    let manifest = ZooManifest::new(default, entries)?;
    let manifest_path = manifest.save(out_dir)?;
    Ok((manifest, manifest_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_dataset_is_deterministic_and_shaped() {
        let a = lag_dataset(8, 3);
        let b = lag_dataset(8, 3);
        assert_eq!(a.len(), 8);
        let (xa, ya) = a.sample(0);
        let (xb, yb) = b.sample(0);
        assert_eq!(xa.dims(), &[CHANNELS, WINDOW]);
        assert_eq!(ya.dims(), &[1]);
        assert_eq!(xa.data(), xb.data());
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn point_names_are_unique_per_combo() {
        let quick = LibraryConfig::quick();
        let names: Vec<String> = quick
            .combos
            .iter()
            .map(|&(s, l)| point_name(s, l))
            .collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "{names:?}");
    }

    #[test]
    fn empty_library_is_refused() {
        let err = write_library(&[], Path::new("/tmp/never-created")).unwrap_err();
        assert!(err.contains("no search points"), "{err}");
    }
}
