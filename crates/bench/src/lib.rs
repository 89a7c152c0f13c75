//! # pit-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! PIT paper's evaluation section on top of the synthetic substrates of this
//! workspace.
//!
//! | Paper artefact | Binary |
//! |----------------|--------|
//! | Fig. 4 (Pareto frontiers, both seeds) | `fig4_pareto` |
//! | Table I (learned dilations) | `table1_dilations` |
//! | Table II (PIT vs ProxylessNAS) | `table2_proxyless` |
//! | Fig. 5 (search-time comparison) | `fig5_search_cost` |
//! | Table III (GAP8 deployment) | `table3_gap8` |
//! | masked-conv training-cost ablation | `ablation_warmup` |
//!
//! Every binary accepts `--full` for the paper-scale configuration and runs
//! a scaled-down "quick" configuration by default, so the whole suite can be
//! executed on a laptop in minutes. Results print as aligned text tables;
//! `docs/experimental_setup.md` lists the fixed seeds and the commands that
//! regenerate every committed number.
//!
//! The crate also hosts the machine-readable perf harness: the `bench_json`
//! binary runs the [`perf`] suites (conv kernels, masked training,
//! search-step cost, streaming inference), serialises them through the
//! hand-rolled [`json`] module (now hosted by `pit-tensor` and re-exported
//! here) into the committed `BENCH_conv.json` / `BENCH_infer.json` baselines,
//! and its `compare` mode is the regression gate CI runs on every push.

pub mod experiments;
pub mod perf;
pub mod report;

pub use pit_tensor::hist;
pub use pit_tensor::json;
pub mod scale;

pub use experiments::{fig4, fig5, table1, table2, table3};
pub use report::Table;
pub use scale::{ExperimentScale, SeedKind};
