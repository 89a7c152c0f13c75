//! The three-phase PIT training procedure (Algorithm 1 of the paper).

use crate::network::SearchableNetwork;
use crate::pareto::ParetoPoint;
use crate::regularizer::SizeRegularizer;
use pit_nn::{Adam, Dataset, EarlyStopping, LossKind, Mode, Optimizer, TrainConfig, Trainer};
use pit_tensor::{Param, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Hyper-parameters of one PIT search run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PitConfig {
    /// Strength λ of the size regulariser (Eq. 6). Larger values push the
    /// search towards smaller (more dilated) models.
    pub lambda: f32,
    /// Number of warmup epochs (weights only, γ fixed at 1).
    pub warmup_epochs: usize,
    /// Maximum number of pruning epochs (weights + γ, regularised loss).
    pub search_epochs: usize,
    /// Number of fine-tuning epochs (weights only, γ frozen at the found values).
    pub finetune_epochs: usize,
    /// Early-stopping patience, in epochs of non-improving validation loss,
    /// applied during the pruning phase (`None` disables early stopping).
    pub patience: Option<usize>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate shared by all phases.
    pub learning_rate: f32,
    /// Adam learning rate of the architecture (γ) parameters during the
    /// pruning phase. DMaskingNAS methods typically move their architecture
    /// parameters faster than the weights; the paper's long schedules hide
    /// this, but with short schedules a dedicated γ step size is required for
    /// the binarised γ to cross the 0.5 threshold at all.
    pub gamma_learning_rate: f32,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl Default for PitConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-5,
            warmup_epochs: 5,
            search_epochs: 20,
            finetune_epochs: 5,
            patience: Some(10),
            batch_size: 32,
            learning_rate: 1e-3,
            gamma_learning_rate: 1e-2,
            seed: 0,
        }
    }
}

/// Wall-clock time spent in each phase of Algorithm 1.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Warmup phase duration.
    pub warmup: Duration,
    /// Pruning (search) phase duration.
    pub search: Duration,
    /// Fine-tuning phase duration.
    pub finetune: Duration,
}

impl PhaseTimings {
    /// Total duration across all three phases.
    pub fn total(&self) -> Duration {
        self.warmup + self.search + self.finetune
    }
}

/// The result of one PIT search run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PitOutcome {
    /// Learned dilation of every searchable layer, in network order.
    pub dilations: Vec<usize>,
    /// Number of weights of the pruned (deployable) model.
    pub effective_params: usize,
    /// Number of weights of the un-pruned seed model.
    pub total_params: usize,
    /// Validation loss of the fine-tuned model.
    pub val_loss: f32,
    /// Final training loss.
    pub train_loss: f32,
    /// Wall-clock timings per phase.
    pub timings: PhaseTimings,
    /// Regulariser strength that produced this outcome.
    pub lambda: f32,
    /// Warmup epochs that produced this outcome.
    pub warmup_epochs: usize,
    /// Epochs actually run in each phase (warmup, search, fine-tune).
    pub epochs_run: (usize, usize, usize),
}

impl PitOutcome {
    /// Converts the outcome into a point of the accuracy-vs-size plane.
    pub fn to_pareto_point(&self, label: impl Into<String>) -> ParetoPoint {
        ParetoPoint::new(
            self.effective_params,
            self.val_loss,
            self.dilations.clone(),
            label,
        )
    }

    /// Compression factor with respect to the un-pruned seed.
    pub fn compression(&self) -> f32 {
        self.total_params as f32 / self.effective_params.max(1) as f32
    }
}

/// Runs the PIT search (Algorithm 1): warmup → pruning → fine-tuning.
#[derive(Debug, Clone)]
pub struct PitSearch {
    config: PitConfig,
}

impl PitSearch {
    /// Creates a search driver with the given configuration.
    pub fn new(config: PitConfig) -> Self {
        Self { config }
    }

    /// The search configuration.
    pub fn config(&self) -> &PitConfig {
        &self.config
    }

    /// Splits the network parameters into (weights, γ) sets.
    fn split_params<N: SearchableNetwork>(net: &N) -> (Vec<Param>, Vec<Param>) {
        let gammas: Vec<Param> = net
            .pit_layers()
            .iter()
            .map(|l| l.gamma_param().clone())
            .collect();
        let weights: Vec<Param> = net
            .params()
            .into_iter()
            .filter(|p| !gammas.iter().any(|g| g.same_param(p)))
            .collect();
        (weights, gammas)
    }

    /// Runs the full three-phase procedure on `net` and returns the outcome.
    ///
    /// The network is trained in place: after the call its weights are the
    /// fine-tuned weights and its γ parameters are frozen at the learned
    /// dilation pattern.
    pub fn run<N: SearchableNetwork>(
        &self,
        net: &N,
        train: &Dataset,
        val: &Dataset,
        loss: LossKind,
    ) -> PitOutcome {
        let cfg = &self.config;
        let (weight_params, gamma_params) = Self::split_params(net);

        // ------------------------------------------------------------------
        // Phase 1 — warmup: weights only, plain task loss.
        // ------------------------------------------------------------------
        let warmup_start = Instant::now();
        let mut warmup_epochs_run = 0usize;
        if cfg.warmup_epochs > 0 {
            let trainer = Trainer::new(TrainConfig {
                epochs: cfg.warmup_epochs,
                batch_size: cfg.batch_size,
                shuffle: true,
                patience: None,
                seed: cfg.seed,
            });
            let mut opt = Adam::new(weight_params.clone(), cfg.learning_rate);
            let report = trainer.train(net, train, Some(val), loss, &mut opt);
            warmup_epochs_run = report.epochs_run;
        }
        let warmup_time = warmup_start.elapsed();

        // ------------------------------------------------------------------
        // Phase 2 — pruning: weights + γ, task loss + size regulariser.
        // ------------------------------------------------------------------
        let search_start = Instant::now();
        let regularizer = SizeRegularizer::new(cfg.lambda);
        let mut opt = Adam::new(weight_params.clone(), cfg.learning_rate);
        let mut gamma_opt = Adam::new(gamma_params, cfg.gamma_learning_rate);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
        let mut stopper = cfg.patience.map(EarlyStopping::new);
        let mut search_epochs_run = 0usize;
        let mut last_train_loss = f32::NAN;
        for _epoch in 0..cfg.search_epochs {
            let batches = train.batches(cfg.batch_size, Some(&mut rng));
            let mut epoch_loss = 0.0f64;
            let mut seen = 0usize;
            for batch in &batches {
                opt.zero_grad();
                gamma_opt.zero_grad();
                let mut tape = Tape::new();
                let x = tape.constant(batch.inputs.clone());
                let pred = net.forward(&mut tape, x, Mode::Train);
                let task = loss.apply(&mut tape, pred, &batch.targets);
                let reg = regularizer.term(&mut tape, &net.pit_layers());
                let total = tape.add(task, reg);
                epoch_loss += tape.value(task).item() as f64 * batch.len() as f64;
                seen += batch.len();
                tape.backward(total);
                opt.step();
                gamma_opt.step();
            }
            last_train_loss = (epoch_loss / seen.max(1) as f64) as f32;
            search_epochs_run += 1;
            let val_loss = Trainer::evaluate(net, val, loss, cfg.batch_size);
            if let Some(stopper) = &mut stopper {
                if stopper.update(val_loss) {
                    break;
                }
            }
        }
        let search_time = search_start.elapsed();

        // ------------------------------------------------------------------
        // Phase 3 — fine-tuning: γ frozen, weights only, plain task loss.
        // ------------------------------------------------------------------
        let finetune_start = Instant::now();
        net.freeze_all();
        let mut finetune_epochs_run = 0usize;
        if cfg.finetune_epochs > 0 {
            let trainer = Trainer::new(TrainConfig {
                epochs: cfg.finetune_epochs,
                batch_size: cfg.batch_size,
                shuffle: true,
                patience: None,
                seed: cfg.seed.wrapping_add(2),
            });
            let mut opt = Adam::new(weight_params, cfg.learning_rate);
            let report = trainer.train(net, train, Some(val), loss, &mut opt);
            finetune_epochs_run = report.epochs_run;
        }
        let finetune_time = finetune_start.elapsed();

        let val_loss = Trainer::evaluate(net, val, loss, cfg.batch_size);
        PitOutcome {
            dilations: net.dilations(),
            effective_params: net.effective_weights(),
            total_params: net.total_weights() - net.gamma_weights(),
            val_loss,
            train_loss: last_train_loss,
            timings: PhaseTimings {
                warmup: warmup_time,
                search: search_time,
                finetune: finetune_time,
            },
            lambda: cfg.lambda,
            warmup_epochs: cfg.warmup_epochs,
            epochs_run: (warmup_epochs_run, search_epochs_run, finetune_epochs_run),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::PitConv1d;
    use pit_nn::Layer;
    use pit_tensor::{Tensor, Var};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A single searchable convolution followed by global pooling — the
    /// target only depends on x[t] and x[t-4], so the search should keep a
    /// dilation that covers lag 4 while pruning the rest.
    struct LagNet {
        conv: PitConv1d,
    }

    impl LagNet {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            Self {
                conv: PitConv1d::new(&mut rng, 1, 4, 9, "lag"),
            }
        }
    }

    impl Layer for LagNet {
        fn forward(&self, tape: &mut Tape, input: Var, mode: Mode) -> Var {
            let h = self.conv.forward(tape, input, mode);
            let h = tape.relu(h);
            let pooled = tape.global_avg_pool_time(h); // [N, 4]
                                                       // Sum channels to produce a single regression output per sample.
            let n = tape.dims(pooled)[0];
            let w = tape.constant(Tensor::ones(&[4, 1]));
            let out = tape.matmul(pooled, w);
            tape.reshape(out, &[n, 1])
        }

        fn params(&self) -> Vec<pit_tensor::Param> {
            self.conv.params()
        }
    }

    impl SearchableNetwork for LagNet {
        fn pit_layers(&self) -> Vec<&PitConv1d> {
            vec![&self.conv]
        }
    }

    fn lag_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            // Target: mean over t of (x[t] + x[t-4]) — requires lag-4 information.
            let mut y = 0.0f32;
            for t in 0..16 {
                y += x[t] + if t >= 4 { x[t - 4] } else { 0.0 };
            }
            y /= 16.0;
            ds.push(
                Tensor::from_vec(x, &[1, 16]).unwrap(),
                Tensor::from_vec(vec![y], &[1]).unwrap(),
            );
        }
        ds
    }

    #[test]
    fn config_default_is_sane() {
        let cfg = PitConfig::default();
        assert!(cfg.lambda > 0.0);
        assert!(cfg.batch_size > 0);
        assert!(cfg.learning_rate > 0.0);
    }

    #[test]
    fn split_params_separates_gamma() {
        let net = LagNet::new(0);
        let (weights, gammas) = PitSearch::split_params(&net);
        assert_eq!(gammas.len(), 1);
        assert_eq!(weights.len(), 2); // conv weight + bias
        assert!(gammas[0].same_param(net.pit_layers()[0].gamma_param()));
    }

    #[test]
    fn run_produces_frozen_network_and_consistent_outcome() {
        let net = LagNet::new(1);
        let data = lag_dataset(48, 3);
        let (train, val) = data.split(0.75);
        let cfg = PitConfig {
            lambda: 1e-4,
            warmup_epochs: 2,
            search_epochs: 4,
            finetune_epochs: 2,
            patience: None,
            batch_size: 16,
            learning_rate: 0.01,
            gamma_learning_rate: 0.01,
            seed: 0,
        };
        let outcome = PitSearch::new(cfg).run(&net, &train, &val, LossKind::Mse);
        assert!(net.pit_layers()[0].is_frozen());
        assert_eq!(outcome.epochs_run, (2, 4, 2));
        assert_eq!(outcome.dilations.len(), 1);
        assert!(outcome.dilations[0].is_power_of_two());
        assert!(outcome.effective_params <= outcome.total_params);
        assert!(outcome.val_loss.is_finite());
        assert!(outcome.compression() >= 1.0);
        assert!(outcome.timings.total() >= outcome.timings.search);
        let point = outcome.to_pareto_point("test");
        assert_eq!(point.params, outcome.effective_params);
    }

    #[test]
    fn strong_regularisation_prunes_more_than_weak() {
        let data = lag_dataset(48, 5);
        let (train, val) = data.split(0.75);
        let base = PitConfig {
            warmup_epochs: 1,
            search_epochs: 15,
            finetune_epochs: 1,
            patience: None,
            batch_size: 16,
            learning_rate: 0.05,
            gamma_learning_rate: 0.05,
            seed: 7,
            lambda: 0.0,
        };

        let weak_net = LagNet::new(11);
        let weak = PitSearch::new(PitConfig {
            lambda: 0.0,
            ..base.clone()
        })
        .run(&weak_net, &train, &val, LossKind::Mse);
        let strong_net = LagNet::new(11);
        let strong = PitSearch::new(PitConfig {
            lambda: 10.0,
            ..base
        })
        .run(&strong_net, &train, &val, LossKind::Mse);

        // A huge lambda must push gamma to zero -> maximum dilation -> fewer params.
        assert!(
            strong.effective_params < weak.effective_params,
            "strong {} vs weak {}",
            strong.effective_params,
            weak.effective_params
        );
        assert_eq!(strong.dilations[0], 8);
    }
}
