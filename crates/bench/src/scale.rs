//! Experiment scaling presets.
//!
//! The paper's experiments train multi-hundred-thousand-parameter networks
//! for tens of epochs on a GPU. This reproduction runs the same experiments
//! through a pure-Rust engine, so every binary supports two scales:
//!
//! * **quick** (default) — scaled-down datasets and seed networks with the
//!   same topology, dilation search space and loss functions; finishes in
//!   minutes on a laptop (`docs/experimental_setup.md` lists the fixed
//!   seeds and the commands behind every committed number);
//! * **full** (`--full`) — paper-sized seeds (150-channel ResTCN,
//!   32/64/128-channel TEMPONet, 256-sample windows) and longer schedules;
//!   only the patient should run this through the interpreter-free but
//!   unvectorised engine.

use serde::{Deserialize, Serialize};

/// Which seed network / benchmark an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedKind {
    /// ResTCN on the (synthetic) Nottingham polyphonic-music task.
    ResTcn,
    /// TEMPONet on the (synthetic) PPG-Dalia heart-rate task.
    TempoNet,
}

impl SeedKind {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            SeedKind::ResTcn => "ResTCN",
            SeedKind::TempoNet => "TEMPONet",
        }
    }

    /// The metric name the paper reports for this benchmark.
    pub fn metric(&self) -> &'static str {
        match self {
            SeedKind::ResTcn => "NLL",
            SeedKind::TempoNet => "MAE",
        }
    }
}

/// All knobs that differ between the quick and the full reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Whether this is the quick preset.
    pub quick: bool,

    /// Number of piano keys of the synthetic Nottingham data.
    pub restcn_keys: usize,
    /// Frames per Nottingham sequence.
    pub restcn_seq_len: usize,
    /// Number of Nottingham sequences.
    pub restcn_sequences: usize,
    /// Hidden channels of the ResTCN seed.
    pub restcn_hidden: usize,

    /// Channel divisor of the TEMPONet seed (1 = paper scale).
    pub temponet_divisor: usize,
    /// PPG window length in samples.
    pub temponet_window: usize,
    /// Number of PPG windows.
    pub temponet_windows: usize,

    /// Warmup epochs of the PIT schedule.
    pub warmup_epochs: usize,
    /// Pruning epochs of the PIT schedule.
    pub search_epochs: usize,
    /// Fine-tuning epochs of the PIT schedule.
    pub finetune_epochs: usize,
    /// Mini-batch size (the paper uses 128).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Regularisation strengths swept for the Pareto exploration.
    pub lambdas: Vec<f32>,
    /// Warmup lengths swept for the Pareto exploration.
    pub warmups: Vec<usize>,
    /// Epochs of the ProxylessNAS baseline search.
    pub proxyless_epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The quick preset (default for every binary).
    pub fn quick() -> Self {
        Self {
            quick: true,
            restcn_keys: 16,
            restcn_seq_len: 32,
            restcn_sequences: 48,
            restcn_hidden: 12,
            temponet_divisor: 8,
            temponet_window: 64,
            temponet_windows: 96,
            warmup_epochs: 2,
            search_epochs: 6,
            finetune_epochs: 2,
            batch_size: 16,
            learning_rate: 5e-3,
            lambdas: vec![0.0, 1e-4, 3e-3, 3e-2],
            warmups: vec![0, 2],
            proxyless_epochs: 40,
            seed: 0,
        }
    }

    /// The paper-scale preset (`--full`).
    pub fn full() -> Self {
        Self {
            quick: false,
            restcn_keys: 88,
            restcn_seq_len: 128,
            restcn_sequences: 200,
            restcn_hidden: 150,
            temponet_divisor: 1,
            temponet_window: 256,
            temponet_windows: 512,
            warmup_epochs: 5,
            search_epochs: 30,
            finetune_epochs: 10,
            batch_size: 128,
            learning_rate: 1e-3,
            lambdas: vec![0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3],
            warmups: vec![0, 5],
            proxyless_epochs: 150,
            seed: 0,
        }
    }

    /// Selects the preset from command-line arguments (`--full` switches to
    /// the paper-scale configuration).
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        if args.into_iter().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::quick()
        }
    }

    /// Total number of PIT runs of the Fig. 4 exploration.
    pub fn exploration_runs(&self) -> usize {
        self.lambdas.len() * self.warmups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = ExperimentScale::quick();
        let f = ExperimentScale::full();
        assert!(q.quick && !f.quick);
        assert!(q.restcn_hidden < f.restcn_hidden);
        assert!(q.temponet_window < f.temponet_window);
        assert!(q.search_epochs < f.search_epochs);
        assert!(q.exploration_runs() >= 4);
    }

    #[test]
    fn from_args_selects_preset() {
        let q = ExperimentScale::from_args(["prog".to_string()].into_iter());
        assert!(q.quick);
        let f = ExperimentScale::from_args(["prog".to_string(), "--full".to_string()].into_iter());
        assert!(!f.quick);
    }

    #[test]
    fn seed_kind_names() {
        assert_eq!(SeedKind::ResTcn.name(), "ResTCN");
        assert_eq!(SeedKind::TempoNet.metric(), "MAE");
        assert_eq!(SeedKind::ResTcn.metric(), "NLL");
    }
}
