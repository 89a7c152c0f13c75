//! Implementations of the paper's experiments (Fig. 4, Table I–III, Fig. 5).

use crate::report::{format_dilations, format_params, Table};
use crate::scale::{ExperimentScale, SeedKind};
use pit_baselines::{ProxylessConfig, ProxylessOutcome, ProxylessSearch, ProxylessSupernet};
use pit_datasets::{NottinghamConfig, NottinghamGenerator, PpgDaliaConfig, PpgDaliaGenerator};
use pit_hw::{Deployment, Gap8Config};
use pit_models::{NetworkDescriptor, ResTcnConfig, Tcn, TempoNetConfig};
use pit_nas::pareto::{pareto_front, pick_small_medium_large, ParetoPoint};
use pit_nas::{PitConfig, PitOutcome, PitSearch, SearchSpace, SearchableNetwork};
use pit_nn::{Adam, Dataset, Layer, LossKind, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Benchmark construction
// ---------------------------------------------------------------------------

/// A benchmark = dataset splits + loss, for one of the two seeds.
pub struct Benchmark {
    /// Which seed/benchmark this is.
    pub kind: SeedKind,
    /// Training split.
    pub train: Dataset,
    /// Validation split (drives early stopping and architecture selection).
    pub val: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    /// Task loss.
    pub loss: LossKind,
}

/// The scaled ResTCN configuration for a given experiment scale.
pub fn restcn_config(scale: &ExperimentScale) -> ResTcnConfig {
    ResTcnConfig {
        input_channels: scale.restcn_keys,
        output_channels: scale.restcn_keys,
        hidden_channels: scale.restcn_hidden,
        ..ResTcnConfig::paper()
    }
}

/// The scaled TEMPONet configuration for a given experiment scale.
pub fn temponet_config(scale: &ExperimentScale) -> TempoNetConfig {
    TempoNetConfig::scaled(scale.temponet_divisor, scale.temponet_window)
}

/// Hand-tuned dilations of the original network of the given kind.
pub fn hand_tuned_dilations(kind: SeedKind, scale: &ExperimentScale) -> Vec<usize> {
    match kind {
        SeedKind::ResTcn => restcn_config(scale).hand_tuned_dilations(),
        SeedKind::TempoNet => temponet_config(scale).hand_tuned_dilations(),
    }
}

/// Builds the synthetic benchmark for one seed kind.
pub fn build_benchmark(kind: SeedKind, scale: &ExperimentScale) -> Benchmark {
    match kind {
        SeedKind::ResTcn => {
            let gen = NottinghamGenerator::new(NottinghamConfig {
                num_keys: scale.restcn_keys,
                seq_len: scale.restcn_seq_len,
                num_sequences: scale.restcn_sequences,
                seed: scale.seed,
                ..NottinghamConfig::paper()
            });
            let (train, val, test) = gen.generate_splits();
            Benchmark {
                kind,
                train,
                val,
                test,
                loss: LossKind::FrameNll,
            }
        }
        SeedKind::TempoNet => {
            let gen = PpgDaliaGenerator::new(PpgDaliaConfig {
                num_windows: scale.temponet_windows,
                window_len: scale.temponet_window,
                seed: scale.seed,
                ..PpgDaliaConfig::paper()
            });
            let (train, val, test) = gen.generate_splits();
            Benchmark {
                kind,
                train,
                val,
                test,
                loss: LossKind::Mae,
            }
        }
    }
}

/// Builds a freshly initialised seed network of the given kind.
pub fn build_network(kind: SeedKind, scale: &ExperimentScale, seed: u64) -> Tcn {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        SeedKind::ResTcn => Tcn::new(&mut rng, &restcn_config(scale)),
        SeedKind::TempoNet => Tcn::new(&mut rng, &temponet_config(scale)),
    }
}

/// The **paper-scale** network of the given kind with explicit dilations:
/// its descriptor (at the input length it deploys at) and its deployable
/// weight count. The GAP8 deployment study (Table III) uses it so that
/// latency and energy refer to the architecture the paper deploys even
/// when the training runs were scaled down.
pub fn paper_scale(kind: SeedKind, dilations: &[usize]) -> (NetworkDescriptor, usize) {
    let mut rng = StdRng::seed_from_u64(0);
    let (net, t) = match kind {
        SeedKind::ResTcn => (Tcn::new(&mut rng, &ResTcnConfig::paper()), 128),
        SeedKind::TempoNet => {
            let cfg = TempoNetConfig::paper();
            (Tcn::new(&mut rng, &cfg), cfg.input_length)
        }
    };
    net.set_dilations(dilations);
    (net.descriptor(t), net.effective_weights())
}

/// The PIT search configuration derived from an experiment scale.
pub fn pit_config(scale: &ExperimentScale, lambda: f32, warmup: usize) -> PitConfig {
    PitConfig {
        lambda,
        warmup_epochs: warmup,
        search_epochs: scale.search_epochs,
        finetune_epochs: scale.finetune_epochs,
        patience: Some(50),
        batch_size: scale.batch_size,
        learning_rate: scale.learning_rate,
        gamma_learning_rate: if scale.quick { 0.1 } else { 0.01 },
        seed: scale.seed,
    }
}

/// Trains a fixed-dilation reference network (the seed or the hand-tuned
/// model) for the same total budget as one PIT run and returns its
/// accuracy-vs-size point together with the wall-clock training time.
pub fn train_reference(
    kind: SeedKind,
    scale: &ExperimentScale,
    bench: &Benchmark,
    dilations: &[usize],
    label: &str,
) -> (ParetoPoint, Duration) {
    let net = build_network(kind, scale, scale.seed.wrapping_add(777));
    net.set_dilations(dilations);
    net.freeze_all();
    let start = Instant::now();
    let trainer = Trainer::new(TrainConfig {
        epochs: scale.warmup_epochs + scale.search_epochs + scale.finetune_epochs,
        batch_size: scale.batch_size,
        shuffle: true,
        patience: Some(50),
        seed: scale.seed,
    });
    let mut opt = Adam::new(net.params(), scale.learning_rate);
    let _ = trainer.train(&net, &bench.train, Some(&bench.val), bench.loss, &mut opt);
    let elapsed = start.elapsed();
    let loss = Trainer::evaluate(&net, &bench.val, bench.loss, scale.batch_size);
    (
        ParetoPoint::new(net.effective_weights(), loss, dilations.to_vec(), label),
        elapsed,
    )
}

// ---------------------------------------------------------------------------
// Fig. 4 — Pareto frontiers
// ---------------------------------------------------------------------------

/// Result of one Fig. 4 exploration (one seed network).
pub struct Fig4Result {
    /// Which benchmark this is.
    pub kind: SeedKind,
    /// The un-dilated seed reference (black square in the figure).
    pub seed_point: ParetoPoint,
    /// The hand-tuned reference (triangle in the figure).
    pub hand_point: ParetoPoint,
    /// Every PIT outcome of the λ × warmup sweep.
    pub pit_points: Vec<ParetoPoint>,
    /// Non-dominated subset of the PIT points.
    pub front: Vec<ParetoPoint>,
    /// Raw PIT outcomes (with timings), aligned with `pit_points`.
    pub outcomes: Vec<PitOutcome>,
    /// Size of the dilation search space explored implicitly.
    pub search_space_size: u128,
}

impl Fig4Result {
    /// Selects the small / medium / large representatives used by
    /// Tables I–III (medium = closest in size to the hand-tuned network).
    pub fn small_medium_large(&self) -> Option<(ParetoPoint, ParetoPoint, ParetoPoint)> {
        let candidates = if self.front.is_empty() {
            &self.pit_points
        } else {
            &self.front
        };
        pick_small_medium_large(candidates, self.hand_point.params)
    }
}

/// Runs the full design-space exploration of Fig. 4 for one seed network:
/// trains the seed and hand-tuned references, then one PIT search per
/// (λ, warmup) combination.
pub fn fig4(kind: SeedKind, scale: &ExperimentScale) -> Fig4Result {
    let bench = build_benchmark(kind, scale);
    let space = match kind {
        SeedKind::ResTcn => SearchSpace::new(restcn_config(scale).rf_max_per_layer()),
        SeedKind::TempoNet => SearchSpace::new(temponet_config(scale).rf_max_per_layer()),
    };

    let seed_dilations = vec![1usize; space.num_layers()];
    let (seed_point, _) = train_reference(kind, scale, &bench, &seed_dilations, "seed d=1");
    let hand = hand_tuned_dilations(kind, scale);
    let (hand_point, _) = train_reference(kind, scale, &bench, &hand, "hand-tuned");

    let mut outcomes = Vec::with_capacity(scale.exploration_runs());
    let mut pit_points = Vec::with_capacity(scale.exploration_runs());
    for (i, &lambda) in scale.lambdas.iter().enumerate() {
        for (j, &warmup) in scale.warmups.iter().enumerate() {
            let run_seed = scale
                .seed
                .wrapping_add((i * scale.warmups.len() + j) as u64 + 1);
            let net = build_network(kind, scale, run_seed);
            let cfg = PitConfig {
                seed: run_seed,
                ..pit_config(scale, lambda, warmup)
            };
            let outcome = PitSearch::new(cfg).run(&net, &bench.train, &bench.val, bench.loss);
            pit_points.push(outcome.to_pareto_point(format!("λ={lambda:.0e}, wu={warmup}")));
            outcomes.push(outcome);
        }
    }
    let front = pareto_front(&pit_points);
    Fig4Result {
        kind,
        seed_point,
        hand_point,
        pit_points,
        front,
        outcomes,
        search_space_size: space.size(),
    }
}

/// Renders a Fig. 4 result as a printable table (one row per evaluated
/// architecture, the textual equivalent of the scatter plot).
pub fn fig4_table(result: &Fig4Result) -> Table {
    let metric = result.kind.metric();
    let mut table = Table::new(
        format!(
            "Fig. 4 — {} Pareto exploration (search space: {} dilation combinations)",
            result.kind.name(),
            result.search_space_size
        ),
        &["architecture", "# params", metric, "dilations", "on front"],
    );
    let mut push = |p: &ParetoPoint, on_front: bool| {
        table.row(&[
            p.label.clone(),
            format_params(p.params),
            format!("{:.4}", p.loss),
            format_dilations(&p.dilations),
            if on_front { "yes".into() } else { "".into() },
        ]);
    };
    push(&result.seed_point, false);
    push(&result.hand_point, false);
    for p in &result.pit_points {
        let on_front = result
            .front
            .iter()
            .any(|f| f.params == p.params && f.loss == p.loss);
        push(p, on_front);
    }
    table
}

// ---------------------------------------------------------------------------
// Table I — learned dilations
// ---------------------------------------------------------------------------

/// Builds Table I: the per-layer dilations of the hand-tuned network and of
/// the small / medium / large PIT outputs, for one seed.
pub fn table1(result: &Fig4Result, scale: &ExperimentScale) -> Table {
    let mut table = Table::new(
        format!("Table I — dilations found for {}", result.kind.name()),
        &["network", "PIT dilations"],
    );
    table.row(&[
        format!("{} dil=hand-tuned", result.kind.name()),
        format_dilations(&hand_tuned_dilations(result.kind, scale)),
    ]);
    if let Some((small, medium, large)) = result.small_medium_large() {
        for (name, p) in [("small", small), ("medium", medium), ("large", large)] {
            table.row(&[
                format!("PIT {} {}", result.kind.name(), name),
                format_dilations(&p.dilations),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Table II — PIT vs ProxylessNAS
// ---------------------------------------------------------------------------

/// Runs the ProxylessNAS baseline on the TEMPONet benchmark at one
/// size-penalty setting and returns the outcome.
pub fn run_proxyless(scale: &ExperimentScale, size_weight: f32, seed: u64) -> ProxylessOutcome {
    let bench = build_benchmark(SeedKind::TempoNet, scale);
    let cfg = ProxylessConfig {
        size_weight,
        epochs: scale.proxyless_epochs,
        batch_size: scale.batch_size,
        learning_rate: scale.learning_rate,
        arch_learning_rate: 0.1,
        finetune_epochs: scale.finetune_epochs,
        seed,
        ..ProxylessConfig::temponet_like(&temponet_config(scale))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut supernet = ProxylessSupernet::new(&mut rng, &cfg);
    ProxylessSearch::new(cfg).run(&mut supernet, &bench.train, &bench.val, LossKind::Mae)
}

/// Builds Table II: small / medium / large architectures found by PIT and by
/// the ProxylessNAS baseline on TEMPONet / PPG-Dalia.
///
/// Both tools receive the same total epoch budget per target size
/// (the ProxylessNAS budget of the experiment scale), so the comparison
/// matches the paper's "same training algorithm parameters" setup.
pub fn table2(scale: &ExperimentScale) -> Table {
    let bench = build_benchmark(SeedKind::TempoNet, scale);
    let mut table = Table::new(
        "Table II — PIT vs ProxylessNAS (TEMPONet seed, PPG-Dalia)",
        &[
            "size",
            "ProxylessNAS # weights",
            "ProxylessNAS MAE",
            "PIT # weights",
            "PIT MAE",
        ],
    );
    // Three target sizes: aggressive, moderate and no size pressure.
    let targets: [(&str, f32, f32); 3] = [
        ("small", 3e-2, 1.0),
        ("medium", 1e-3, 0.05),
        ("large", 0.0, 0.0),
    ];
    for (i, (name, lambda, size_weight)) in targets.into_iter().enumerate() {
        let run_seed = scale.seed.wrapping_add(90 + i as u64);
        let proxy = run_proxyless(scale, size_weight, run_seed);

        // PIT with a matched epoch budget.
        let pit_epochs = scale.proxyless_epochs;
        let net = build_network(SeedKind::TempoNet, scale, run_seed.wrapping_add(1));
        let cfg = PitConfig {
            seed: run_seed.wrapping_add(1),
            warmup_epochs: scale.warmup_epochs,
            search_epochs: pit_epochs.saturating_sub(scale.warmup_epochs + scale.finetune_epochs),
            finetune_epochs: scale.finetune_epochs,
            ..pit_config(scale, lambda, scale.warmup_epochs)
        };
        let pit = PitSearch::new(cfg).run(&net, &bench.train, &bench.val, bench.loss);

        table.row(&[
            name.to_string(),
            format_params(proxy.params),
            format!("{:.4}", proxy.val_loss),
            format_params(pit.effective_params),
            format!("{:.4}", pit.val_loss),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 5 — search-time comparison
// ---------------------------------------------------------------------------

/// One row of the Fig. 5 comparison.
pub struct SearchCostRow {
    /// Target size label (small / medium / large).
    pub target: &'static str,
    /// Wall-clock time of the PIT search.
    pub pit: Duration,
    /// Wall-clock time of the ProxylessNAS search.
    pub proxyless: Duration,
    /// Wall-clock time of training the chosen architecture alone.
    pub plain_training: Duration,
}

/// Runs the Fig. 5 experiment: for three size targets, measures the
/// wall-clock time of a PIT search, of a ProxylessNAS search over the same
/// space, and of a single plain training of the selected architecture
/// (true dilated convolutions, no search).
pub fn fig5(scale: &ExperimentScale) -> (Vec<SearchCostRow>, Table) {
    let bench = build_benchmark(SeedKind::TempoNet, scale);
    let cfg = temponet_config(scale);
    let targets: [(&'static str, f32, f32); 3] = [
        ("small", 3e-2, 1.0),
        ("medium", 1e-3, 0.05),
        ("large", 0.0, 0.0),
    ];
    let mut rows = Vec::with_capacity(3);
    for (i, (name, lambda, size_weight)) in targets.into_iter().enumerate() {
        // PIT search.
        let run_seed = scale.seed.wrapping_add(200 + i as u64);
        let net = build_network(SeedKind::TempoNet, scale, run_seed);
        let pit_cfg = PitConfig {
            seed: run_seed,
            ..pit_config(scale, lambda, scale.warmup_epochs)
        };
        let pit_start = Instant::now();
        let outcome = PitSearch::new(pit_cfg).run(&net, &bench.train, &bench.val, bench.loss);
        let pit_time = pit_start.elapsed();

        // ProxylessNAS search over the same space.
        let proxy_start = Instant::now();
        let _ = run_proxyless(scale, size_weight, run_seed.wrapping_add(1));
        let proxy_time = proxy_start.elapsed();

        // Plain training of the architecture PIT found (deployable network,
        // true dilated convolutions), for the same schedule length.
        let mut rng = StdRng::seed_from_u64(run_seed.wrapping_add(2));
        let concrete = Tcn::concrete(&mut rng, &cfg, &outcome.dilations);
        let plain_start = Instant::now();
        let trainer = Trainer::new(TrainConfig {
            epochs: scale.warmup_epochs + scale.search_epochs + scale.finetune_epochs,
            batch_size: scale.batch_size,
            shuffle: true,
            patience: Some(50),
            seed: run_seed,
        });
        let mut opt = Adam::new(concrete.params(), scale.learning_rate);
        let _ = trainer.train(
            &concrete,
            &bench.train,
            Some(&bench.val),
            bench.loss,
            &mut opt,
        );
        let plain_time = plain_start.elapsed();

        rows.push(SearchCostRow {
            target: name,
            pit: pit_time,
            proxyless: proxy_time,
            plain_training: plain_time,
        });
    }

    let mut table = Table::new(
        "Fig. 5 — search time (TEMPONet seed, PPG-Dalia)",
        &[
            "target",
            "PIT [s]",
            "ProxylessNAS [s]",
            "plain training [s]",
            "Proxyless / PIT",
            "PIT / plain",
        ],
    );
    for row in &rows {
        table.row(&[
            row.target.to_string(),
            format!("{:.1}", row.pit.as_secs_f64()),
            format!("{:.1}", row.proxyless.as_secs_f64()),
            format!("{:.1}", row.plain_training.as_secs_f64()),
            format!(
                "{:.1}x",
                row.proxyless.as_secs_f64() / row.pit.as_secs_f64().max(1e-9)
            ),
            format!(
                "{:.1}x",
                row.pit.as_secs_f64() / row.plain_training.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    (rows, table)
}

// ---------------------------------------------------------------------------
// Table III — deployment on GAP8
// ---------------------------------------------------------------------------

/// Builds Table III for one seed: weights, task loss, latency and energy on
/// the GAP8 model for the seed, the hand-tuned network and the PIT
/// small / medium / large outputs.
///
/// Latency and energy always refer to the **paper-scale** architecture with
/// the given dilations (the network the paper actually deploys); the loss
/// column is the one measured on the (possibly scaled-down) training runs.
pub fn table3(result: &Fig4Result, scale: &ExperimentScale) -> Table {
    let deployment = Deployment::new(Gap8Config::paper());
    let metric = result.kind.metric();
    let mut table = Table::new(
        format!("Table III — GAP8 deployment ({})", result.kind.name()),
        &[
            "network",
            "# weights",
            metric,
            "latency [ms]",
            "energy [mJ]",
            "fits L2",
        ],
    );
    let mut push = |name: String, dilations: &[usize], loss: f32| {
        let (desc, params) = paper_scale(result.kind, dilations);
        let report = deployment.analyze(&desc);
        table.row(&[
            name,
            format_params(params),
            format!("{loss:.4}"),
            format!("{:.1}", report.latency_ms),
            format!("{:.1}", report.energy_mj),
            if report.fits_in_l2 {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    };
    let seed_dils = vec![1usize; result.seed_point.dilations.len()];
    push(
        format!("{} dil=1", result.kind.name()),
        &seed_dils,
        result.seed_point.loss,
    );
    push(
        format!("{} dil=hand-tuned", result.kind.name()),
        &hand_tuned_dilations(result.kind, scale),
        result.hand_point.loss,
    );
    if let Some((small, medium, large)) = result.small_medium_large() {
        for (name, p) in [("s.", small), ("m.", medium), ("l.", large)] {
            push(
                format!("PIT {} {}", result.kind.name(), name),
                &p.dilations,
                p.loss,
            );
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal scale so the end-to-end experiment code can run in unit tests.
    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            restcn_keys: 13,
            restcn_seq_len: 16,
            restcn_sequences: 12,
            restcn_hidden: 4,
            temponet_divisor: 16,
            temponet_window: 32,
            temponet_windows: 24,
            warmup_epochs: 1,
            search_epochs: 1,
            finetune_epochs: 0,
            batch_size: 8,
            learning_rate: 5e-3,
            lambdas: vec![0.0, 1.0],
            warmups: vec![0],
            proxyless_epochs: 1,
            seed: 0,
            quick: true,
        }
    }

    #[test]
    fn benchmark_construction_shapes() {
        let scale = tiny_scale();
        let music = build_benchmark(SeedKind::ResTcn, &scale);
        assert_eq!(music.train.input_dims().unwrap(), vec![13, 16]);
        assert_eq!(music.loss, LossKind::FrameNll);
        let ppg = build_benchmark(SeedKind::TempoNet, &scale);
        assert_eq!(ppg.train.input_dims().unwrap(), vec![4, 32]);
        assert_eq!(ppg.loss, LossKind::Mae);
        assert!(!ppg.test.is_empty());
    }

    #[test]
    fn paper_descriptor_and_params_track_dilations() {
        let hand = TempoNetConfig::paper().hand_tuned_dilations();
        let seed = vec![1usize; 7];
        let (d_hand, p_hand) = paper_scale(SeedKind::TempoNet, &hand);
        let (d_seed, p_seed) = paper_scale(SeedKind::TempoNet, &seed);
        assert!(p_hand < p_seed);
        assert!(d_hand.total_macs() < d_seed.total_macs());
    }

    #[test]
    fn fig4_tiny_end_to_end_on_temponet() {
        let scale = tiny_scale();
        let result = fig4(SeedKind::TempoNet, &scale);
        assert_eq!(result.pit_points.len(), 2);
        assert!(!result.front.is_empty());
        assert!(result.search_space_size > 1);
        assert!(result.seed_point.loss.is_finite());
        assert!(result.hand_point.params < result.seed_point.params);
        let rendered = fig4_table(&result).render();
        assert!(rendered.contains("Pareto exploration"));
        let t1 = table1(&result, &scale);
        assert!(t1.render().contains("hand-tuned"));
        let t3 = table3(&result, &scale);
        assert!(t3.render().contains("GAP8"));
        assert!(t3.len() >= 2);
    }
}
