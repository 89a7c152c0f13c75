//! # pit — Pruning In Time, reproduced in Rust
//!
//! This is the umbrella crate of the workspace reproducing *"Pruning In Time
//! (PIT): A Lightweight Network Architecture Optimizer for Temporal
//! Convolutional Networks"* (Risso et al., DAC 2021). It re-exports every
//! layer of the stack so applications only need a single dependency:
//!
//! * [`tensor`] — n-dimensional tensors and reverse-mode autograd;
//! * [`nn`] — layers, losses, optimizers and the training loop;
//! * [`nas`] — the PIT optimizer itself (searchable convolution, size
//!   regulariser, three-phase search, Pareto tooling);
//! * [`models`] — the ResTCN and TEMPONet seed architectures, every one a
//!   [`models::Tcn`];
//! * [`infer`] — the streaming inference engine (compiled plans, stateful
//!   sessions, batch-of-sessions serving);
//! * [`datasets`] — synthetic Nottingham and PPG-Dalia workloads;
//! * [`baselines`] — ProxylessNAS-style and random-search baselines;
//! * [`hw`] — the GAP8 deployment model (int8, latency, energy).
//!
//! # Quick start
//!
//! ```
//! use pit::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A tiny searchable TCN and a tiny synthetic benchmark.
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
//! assert_eq!(net.dilations(), vec![1, 1]); // the seed starts un-dilated
//! ```
//!
//! See `examples/quickstart.rs` for a complete search run.

pub use pit_baselines as baselines;
pub use pit_datasets as datasets;
pub use pit_hw as hw;
pub use pit_infer as infer;
pub use pit_models as models;
pub use pit_nas as nas;
pub use pit_nn as nn;
pub use pit_tensor as tensor;

/// The most commonly used types, re-exported in one place.
pub mod prelude {
    pub use pit_baselines::{ProxylessConfig, ProxylessSearch, ProxylessSupernet, RandomSearch};
    pub use pit_datasets::{
        NottinghamConfig, NottinghamGenerator, PpgDaliaConfig, PpgDaliaGenerator,
    };
    pub use pit_hw::{Deployment, DeploymentReport, Gap8Config};
    pub use pit_infer::{InferencePlan, Session, SessionPool};
    pub use pit_models::{
        GenericTcn, GenericTcnConfig, NetworkDescriptor, ResTcn, ResTcnConfig, Tcn, TempoNet,
        TempoNetConfig,
    };
    pub use pit_nas::{
        pareto_front, ParetoPoint, PitConfig, PitConv1d, PitOutcome, PitSearch, SearchSpace,
        SearchableNetwork, SizeRegularizer,
    };
    pub use pit_nn::{
        Adam, Batch, Dataset, EarlyStopping, Layer, LossKind, Mode, Optimizer, Sgd, TrainConfig,
        TrainReport, Trainer,
    };
    pub use pit_tensor::{Param, Shape, Tape, Tensor, Var};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let space = SearchSpace::new(vec![9, 17]);
        assert_eq!(space.num_layers(), 2);
        let t = Tensor::ones(&[2, 2]);
        assert_eq!(t.sum_all(), 4.0);
        let cfg = PitConfig::default();
        assert!(cfg.learning_rate > 0.0);
    }
}
