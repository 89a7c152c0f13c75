//! # pit-infer
//!
//! The streaming inference engine of the PIT reproduction: it **compiles** a
//! searched temporal convolutional network into a tape-free, deployable
//! serving plan and executes it statefully, per timestep, for many concurrent
//! streams.
//!
//! The PIT search's payoff (Risso et al., DAC 2021) is that the mask-trained
//! dense network collapses into a tiny, *truly dilated* TCN. Training-side
//! crates express that network through the autograd [`pit_tensor::Tape`];
//! this crate is the other half of the story — what actually serves traffic:
//!
//! * **Compile** ([`plan`]): binarised γ masks fold into real dilations (only
//!   alive taps stored, packed contiguously), batch normalisation fuses into
//!   convolution weights, and the result is an [`InferencePlan`] executed
//!   through the tiled kernels of [`pit_tensor::kernels`] — no tape, no
//!   gradient bookkeeping. Plans round-trip their geometry through
//!   [`pit_models::NetworkDescriptor`] JSON, so a searched architecture can
//!   be persisted and re-compiled without re-running the search.
//! * **Quantize** ([`quant`]): [`Calibration`] records max-abs activation
//!   ranges per layer seam and [`QuantizedPlan`] lowers the plan to int8
//!   (per-output-channel weight scales, exact `i8×i8→i32` arithmetic),
//!   provably within [`QuantizedPlan::error_bound`] of the f32 plan.
//!   Precision is a lowering choice, not a second engine: both plans are one
//!   plan tree ([`Plan`]) instantiated at a [`Precision`] (`f32` or `i8`),
//!   which lives only in the ring element type and the layer kernels
//!   ([`precision`]).
//! * **Stream** ([`stream`]): a [`Session`] keeps one ring buffer per
//!   convolution (its receptive field), pool windows and the head state, so
//!   one new timestep costs `O(C_out · C_in · alive_taps)` — not a full
//!   window re-forward. Zero state ≡ causal zero padding: streaming a window
//!   sample-by-sample reproduces the offline forward to `1e-5`. The int8
//!   [`QuantizedSession`] is the same session over `i8` rings, ~4x smaller
//!   per stream.
//! * **Serve** ([`session`]): a [`SessionPool`] queues the timesteps of N
//!   concurrent streams and flushes them stream by stream through the same
//!   step as a [`Session`], so pooled output is bit-identical to solo output,
//!   in either precision ([`QuantizedSessionPool`]); [`StreamPool`]
//!   ([`stream_pool`]) is the object-safe seam a server holding both
//!   precisions drives them through.
//! * **Persist** ([`artifact`]): plans serialise *with their weights* as
//!   `pit-arch/2` JSON artifacts ([`InferencePlan::to_artifact`],
//!   [`QuantizedPlan::to_artifact`], base64 tensor payloads) and load back
//!   bit-identically ([`PlanArtifact::load`]) — the boot path of the
//!   `pit-serve` daemon, no model code or calibration data needed at serve
//!   time.
//! * **Library** ([`zoo`]): a whole searched Pareto front ships as one
//!   directory — artifact files plus a `pit-zoo/1` manifest
//!   ([`ZooManifest`]) naming each model and its size/accuracy metadata, the
//!   hand-off from `pit-search` to a multi-model daemon.
//!
//! ```
//! use pit_infer::{compile_generic, Session};
//! use pit_models::{GenericTcn, GenericTcnConfig};
//! use pit_nas::SearchableNetwork;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
//! net.set_dilations(&[4, 8]); // "the search result"
//! let plan = Arc::new(compile_generic(&net));
//! let mut session = Session::new(plan);
//! let out = session.push(&[0.5]).expect("per-step head emits every step");
//! assert_eq!(out.len(), 1);
//! ```

pub mod artifact;
pub mod plan;
pub mod precision;
pub mod quant;
pub mod session;
pub mod stream;
pub mod stream_pool;
pub mod zoo;

pub use artifact::{PlanArtifact, ARTIFACT_SCHEMA};
pub use plan::{
    compile_concrete, compile_generic, compile_restcn, compile_temponet, Block, CompiledConv,
    Dense, Head, InferencePlan, Plan, PlanBlock, PlanHead, PoolSpec,
};
pub use precision::{ConvOp, LinearOp, PoolOp, Precision};
pub use quant::{
    Calibration, QuantBlock, QuantHead, QuantizedConv, QuantizedDense, QuantizedPlan,
    QuantizedSession, QuantizedSessionPool,
};
pub use session::SessionPool;
pub use stream::Session;
pub use stream_pool::StreamPool;
pub use zoo::{ZooEntry, ZooManifest, ZOO_SCHEMA};
