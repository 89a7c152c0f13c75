//! # pit-models
//!
//! The seed temporal convolutional networks used by the PIT paper, rebuilt on
//! top of [`pit_nn`] and [`pit_nas`]. Every network is one type, [`Tcn`]: a
//! list of [`Block`]s (plain or residual) followed by a [`Head`], whose
//! convolutions are [`Conv`]s. Each seed configuration implements [`Seed`]
//! and builds both the searchable seed ([`Tcn::new`], masked dense
//! convolutions) and the deployable, truly dilated network for a dilation
//! assignment ([`Tcn::concrete`], used for training-cost comparisons and
//! the GAP8 deployment study):
//!
//! * [`ResTcnConfig`] — the residual TCN of Bai et al. used for the
//!   Nottingham polyphonic-music benchmark (eight searchable convolutions in
//!   four residual blocks, per-time-step 88-key output);
//! * [`TempoNetConfig`] — the TEMPONet architecture of Zanghieri et al. used
//!   for the PPG-Dalia heart-rate benchmark (seven searchable convolutions in
//!   three blocks, pooling and a fully connected regression head);
//! * [`GenericTcnConfig`] — a small configurable TCN used by examples and
//!   tests.
//!
//! [`ResTcn`], [`TempoNet`] and [`GenericTcn`] name the built networks.
//! [`Tcn::descriptor`] gives a static per-layer description
//! ([`NetworkDescriptor`]: shapes, kernel, dilation, MACs) consumed by the
//! `pit-hw` deployment model.
//!
//! Both paper seeds are width-scalable: the paper-scale configuration
//! (`*_paper()`) matches the parameter counts reported in Table III, while
//! the scaled-down configurations keep the same topology at a size that
//! trains quickly inside the test-suite and the benchmark harness.

pub mod descriptor;
pub mod generic;
pub mod restcn;
pub mod tcn;
pub mod temponet;

pub use descriptor::{LayerDesc, NetworkDescriptor, DESCRIPTOR_SCHEMA, DESCRIPTOR_SCHEMA_V2};
pub use generic::{GenericTcn, GenericTcnConfig};
pub use restcn::{ResTcn, ResTcnConfig};
pub use tcn::{Block, Conv, Head, Seed, Tcn};
pub use temponet::{TempoNet, TempoNetConfig};
