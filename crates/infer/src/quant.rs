//! Int8 quantized serving: calibrate → quantize → stream.
//!
//! This module is the deployment contract of the PIT story (Risso et al.,
//! DAC 2021 target int8 execution on GAP8-class edge devices): it lowers a
//! compiled f32 [`InferencePlan`] into an int8 [`QuantizedPlan`] — the same
//! plan tree instantiated at [`i8`](crate::Precision) — which then streams
//! through the one engine of [`crate::Session`] / [`crate::SessionPool`]:
//! identical emission schedule, `i8` ring buffers (4x smaller per-stream
//! state) and exact `i8×i8→i32` arithmetic (input-major accumulation, one
//! timestep at a time, in the step shared by solo sessions and pools).
//!
//! **Scheme.** Weights are quantized symmetrically *per output channel*
//! ([`pit_hw::quant::quantize_per_channel`]); activations are quantized *per
//! layer seam* with one scale from a max-abs calibration pass
//! ([`Calibration::collect`] drives [`InferencePlan::forward_seams`]).
//! Execution keeps f32 columns *between* layers: each layer quantizes its
//! input column at the seam, accumulates exactly in `i32`, and dequantizes
//! through `in_scale · w_scale[co]` plus the f32 bias (batch norm was already
//! folded by the f32 compile). Biases and the global-pool running mean stay
//! f32 — they are tiny next to the conv rings.
//!
//! **Parity bound.** Integer accumulation is exact, so the only error
//! sources are the rounding at the seams (≤ `in_scale/2` per element, also
//! valid under saturation for inputs inside the calibrated range) and the
//! weight rounding (`Σ|ŵ−w|` per output channel, known exactly after
//! quantization). [`QuantizedPlan::error_bound`] composes these through the
//! network — `Σ|ŵ|` is each layer's Lipschitz factor, ReLU and average
//! pooling are 1-Lipschitz, residual branches add — into an analytic bound
//! on `|quantized − f32|` per output, **valid for any input whose seam
//! activations stay inside the calibrated ranges** (in particular, for the
//! calibration inputs themselves). The property tests in
//! `tests/quant_parity.rs` hold the streamed int8 outputs to this bound.

use crate::plan::{
    Block, CompiledConv, Dense, Head, InferencePlan, Plan, PlanBlock, PlanHead, PoolSpec,
};
use crate::session::SessionPool;
use crate::stream::Session;
use pit_hw::quant::{quantize_per_channel, symmetric_scale, MaxAbsObserver};
use pit_tensor::{Result, Tensor};

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

/// Max-abs activation ranges, one per quantization seam of a plan (the seam
/// order of [`InferencePlan::forward_seams`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    max_abs: Vec<f32>,
}

impl Calibration {
    /// Runs every calibration window through the f32 plan and records the
    /// max-abs activation at each quantization seam.
    ///
    /// The resulting [`QuantizedPlan::error_bound`] is sound for inputs
    /// whose seam activations stay inside these ranges — calibrate on data
    /// drawn from the serving distribution (or, for a parity check, on the
    /// exact windows being compared).
    ///
    /// # Errors
    ///
    /// Returns an error when no calibration windows are given (all-zero
    /// ranges would quantize every activation onto the `{-1, 0, 1}` codes —
    /// a silently destroyed model), or when a window does not match the
    /// plan's input shape.
    pub fn collect(plan: &InferencePlan, windows: &[Tensor]) -> Result<Self> {
        if windows.is_empty() {
            return Err(pit_tensor::TensorError::InvalidArgument {
                op: "calibrate",
                message: "calibration needs at least one window".into(),
            });
        }
        let mut observers = vec![MaxAbsObserver::new(); plan.num_seams()];
        // An Fc head emits on *every* streamed step from a zero-padded
        // flatten ring, so its hidden activations are not offline
        // activations: a mid-fill window can excite a hidden unit far beyond
        // anything the aligned full-window forward produces (cancelling
        // terms drop out with the padding). Capture the pooled feature map
        // at the flatten seam and walk every ring position the stream will
        // see, folding those hidden activations into the output seam's
        // range — without this the error bound is unsound before (and
        // between) window-aligned emissions. Every other seam is covered by
        // streaming ≡ offline parity of the conv/pool stack (zero state ≡
        // causal pad) or, for the global-pool head, by the pre-pool
        // observation dominating every prefix mean.
        let fc_flat_seam = match plan.head() {
            PlanHead::Fc { .. } => Some(plan.num_seams() - 2),
            _ => None,
        };
        let mut pooled_maps: Vec<Tensor> = Vec::new();
        for window in windows {
            plan.forward_seams(window, &mut |seam, t| {
                observers[seam].observe(t);
                if Some(seam) == fc_flat_seam {
                    pooled_maps.push(t.clone());
                }
            })?;
        }
        if let PlanHead::Fc {
            hidden,
            channels,
            window,
            ..
        } = plan.head()
        {
            let hidden_seam = plan.num_seams() - 1;
            let (c, w) = (*channels, *window);
            let wm = hidden.weight.data();
            let out_f = hidden.out_features;
            let mut flat = vec![0.0f32; c * w];
            for map in &pooled_maps {
                let (n, t) = (map.dims()[0], map.dims()[2]);
                for bn in 0..n {
                    for s in 0..t {
                        // The streamed flatten at pooled step `s`: the last
                        // `w` pooled columns, zero-padded before step 0,
                        // oldest first (ring gather order).
                        for ci in 0..c {
                            for j in 0..w {
                                let idx = s as isize + 1 - w as isize + j as isize;
                                flat[ci * w + j] = if idx < 0 {
                                    0.0
                                } else {
                                    map.data()[(bn * c + ci) * t + idx as usize]
                                };
                            }
                        }
                        for o in 0..out_f {
                            let mut acc = hidden.bias.data()[o];
                            for (i, &f) in flat.iter().enumerate() {
                                acc += f * wm[i * out_f + o];
                            }
                            observers[hidden_seam].observe_slice(&[acc.max(0.0)]);
                        }
                    }
                }
            }
        }
        Ok(Self {
            max_abs: observers.iter().map(MaxAbsObserver::max_abs).collect(),
        })
    }

    /// Number of seams recorded.
    pub fn len(&self) -> usize {
        self.max_abs.len()
    }

    /// Returns `true` when no seams were recorded.
    pub fn is_empty(&self) -> bool {
        self.max_abs.is_empty()
    }

    /// Max-abs range observed at seam `i`.
    pub fn seam_max_abs(&self, i: usize) -> f32 {
        self.max_abs[i]
    }
}

// ---------------------------------------------------------------------------
// Quantized layers
// ---------------------------------------------------------------------------

/// An int8 convolution: per-output-channel weight scales, one activation
/// scale at the input seam, exact `i32` accumulation, f32 bias.
#[derive(Debug, Clone)]
pub struct QuantizedConv {
    pub(crate) c_in: usize,
    pub(crate) c_out: usize,
    pub(crate) k: usize,
    pub(crate) dilation: usize,
    /// Execution pack `[(tap, channel), C_out]` (`j = kk·C_in + ci` rows),
    /// the layout of the f32 [`CompiledConv`] pack.
    pub(crate) wt_q: Vec<i8>,
    /// Input activation scale (from calibration).
    pub(crate) in_scale: f32,
    /// Reciprocal of `in_scale` — the seam quantizes with one multiply.
    pub(crate) inv_in_scale: f32,
    /// Calibrated max-abs of the layer's (f32 reference) input.
    pub(crate) in_max: f32,
    /// Bias `[C_out]`, applied in f32 after dequantization.
    pub(crate) bias: Vec<f32>,
    /// Per-output-channel weight scales (kept verbatim so artifact round
    /// trips are bit-stable; `deq` is the product with `in_scale`).
    pub(crate) w_scales: Vec<f32>,
    /// Dequantization factor per output channel: `in_scale · w_scale[co]`.
    pub(crate) deq: Vec<f32>,
    /// `Σ_j |ŵ[co, j]|` over dequantized weights — the per-channel Lipschitz
    /// factor of the error-bound recursion.
    pub(crate) l1q: Vec<f32>,
    /// `Σ_j |ŵ[co, j] − w[co, j]|` — the exact weight-rounding mass.
    pub(crate) dw_l1: Vec<f32>,
}

impl QuantizedConv {
    /// Quantizes a compiled (mask-folded, BN-folded) convolution given the
    /// calibrated max-abs of its input activations.
    pub fn from_compiled(conv: &CompiledConv, in_max: f32) -> Self {
        let (c_in, c_out, k) = (conv.in_channels(), conv.out_channels(), conv.kernel());
        let ck = c_in * k;
        let q = quantize_per_channel(&conv.weight);
        let mut dw_l1 = vec![0.0f32; c_out];
        for co in 0..c_out {
            let scale = q.scales[co];
            for j in 0..ck {
                let wv = f32::from(q.data[co * ck + j]) * scale;
                dw_l1[co] += (wv - conv.weight.data()[co * ck + j]).abs();
            }
        }
        Self::from_quantized_parts(
            c_in,
            c_out,
            k,
            conv.dilation(),
            &q.data,
            q.scales,
            in_max,
            conv.bias.data().to_vec(),
            dw_l1,
        )
    }

    /// Rebuilds a quantized convolution from its canonical serialized parts:
    /// codes `wq` in `[C_out, C_in, K]` order, per-output-channel `scales`,
    /// the calibrated input max-abs, the f32 bias and the weight-rounding
    /// mass `dw_l1` (which cannot be recomputed without the original f32
    /// weights). The execution pack and the derived bound factors are
    /// reconstructed, bit-identically to [`QuantizedConv::from_compiled`].
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the geometry; the artifact
    /// parser validates lengths before calling this.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_quantized_parts(
        c_in: usize,
        c_out: usize,
        k: usize,
        dilation: usize,
        wq: &[i8],
        scales: Vec<f32>,
        in_max: f32,
        bias: Vec<f32>,
        dw_l1: Vec<f32>,
    ) -> Self {
        let ck = c_in * k;
        assert_eq!(wq.len(), ck * c_out, "quantized weight length");
        assert_eq!(scales.len(), c_out, "scale count");
        assert_eq!(bias.len(), c_out, "bias length");
        assert_eq!(dw_l1.len(), c_out, "dw_l1 length");
        let in_scale = symmetric_scale(in_max);
        // Transposed pack in *(tap, channel)* order: gather row `j` is
        // `(kk, ci)` with `j = kk·C_in + ci`, so a streaming gather is one
        // contiguous column copy per tap.
        let mut wt_q = vec![0i8; ck * c_out];
        for co in 0..c_out {
            for ci in 0..c_in {
                for kk in 0..k {
                    wt_q[(kk * c_in + ci) * c_out + co] = wq[co * ck + ci * k + kk];
                }
            }
        }
        let mut l1q = vec![0.0f32; c_out];
        for co in 0..c_out {
            let scale = scales[co];
            for j in 0..ck {
                l1q[co] += (f32::from(wq[co * ck + j]) * scale).abs();
            }
        }
        Self {
            c_in,
            c_out,
            k,
            dilation,
            wt_q,
            in_scale,
            inv_in_scale: 1.0 / in_scale,
            in_max,
            bias,
            deq: scales.iter().map(|&s| s * in_scale).collect(),
            w_scales: scales,
            l1q,
            dw_l1,
        }
    }

    /// The quantized codes back in canonical `[C_out, C_in, K]` order (the
    /// inverse of the execution pack) — the artifact serialization layout.
    pub(crate) fn canonical_wq(&self) -> Vec<i8> {
        let ck = self.c_in * self.k;
        let mut wq = vec![0i8; ck * self.c_out];
        for co in 0..self.c_out {
            for ci in 0..self.c_in {
                for kk in 0..self.k {
                    wq[co * ck + ci * self.k + kk] =
                        self.wt_q[(kk * self.c_in + ci) * self.c_out + co];
                }
            }
        }
        wq
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.c_in
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.c_out
    }

    /// Stored (alive) taps.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Dilation between stored taps.
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// One step of the error-bound recursion: the worst-case output error
    /// when the layer's input carries error at most `e_in` against an f32
    /// reference whose activations stay within the calibrated range.
    fn bound(&self, e_in: f32) -> f32 {
        rounding_bound(&self.l1q, &self.dw_l1, self.in_scale, self.in_max, e_in)
    }
}

/// The per-layer error-bound step shared by conv and dense layers. Per
/// output channel: `Σ|ŵ| · (e_in + in_scale/2) + Σ|ŵ−w| · in_max` (input
/// rounding through the quantized weights, plus weight rounding against the
/// bounded reference input); the bound is the channel max.
fn rounding_bound(l1q: &[f32], dw_l1: &[f32], in_scale: f32, in_max: f32, e_in: f32) -> f32 {
    let q_in = 0.5 * in_scale;
    l1q.iter()
        .zip(dw_l1.iter())
        .map(|(&l1, &dw)| l1 * (e_in + q_in) + dw * in_max)
        .fold(0.0f32, f32::max)
}

/// An int8 dense layer `y = x · W + b`: per-output-feature weight scales,
/// one activation scale at the input seam.
#[derive(Debug, Clone)]
pub struct QuantizedDense {
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
    /// Quantized weights `[in, out]`: the execution pack of the per-step
    /// accumulation (the f32 [`Dense`] layout).
    pub(crate) wq_cols: Vec<i8>,
    pub(crate) in_scale: f32,
    pub(crate) inv_in_scale: f32,
    pub(crate) in_max: f32,
    pub(crate) bias: Vec<f32>,
    /// Per-output-feature weight scales (kept verbatim so artifact round
    /// trips are bit-stable; `deq` is the product with `in_scale`).
    pub(crate) w_scales: Vec<f32>,
    /// `in_scale · w_scale[o]` per output feature.
    pub(crate) deq: Vec<f32>,
    pub(crate) l1q: Vec<f32>,
    pub(crate) dw_l1: Vec<f32>,
}

impl QuantizedDense {
    /// Quantizes a compiled dense layer given the calibrated max-abs of its
    /// input activations.
    pub fn from_dense(dense: &Dense, in_max: f32) -> Self {
        let (in_f, out_f) = (dense.in_features(), dense.out_features());
        // Transpose to [out, in] so per-channel quantization scales each
        // output feature independently.
        let mut wt = vec![0.0f32; out_f * in_f];
        for i in 0..in_f {
            for o in 0..out_f {
                wt[o * in_f + i] = dense.weight.data()[i * out_f + o];
            }
        }
        let q = quantize_per_channel(
            &Tensor::from_vec(wt.clone(), &[out_f, in_f]).expect("transposed weight shape"),
        );
        let mut dw_l1 = vec![0.0f32; out_f];
        for o in 0..out_f {
            let scale = q.scales[o];
            for i in 0..in_f {
                let wv = f32::from(q.data[o * in_f + i]) * scale;
                dw_l1[o] += (wv - wt[o * in_f + i]).abs();
            }
        }
        Self::from_quantized_parts(
            in_f,
            out_f,
            &q.data,
            q.scales,
            in_max,
            dense.bias.data().to_vec(),
            dw_l1,
        )
    }

    /// Rebuilds a quantized dense layer from its canonical serialized parts:
    /// codes `wq` in `[out, in]` order (the per-channel quantization
    /// layout), per-output-feature `scales`, the calibrated input max-abs,
    /// the f32 bias and the weight-rounding mass `dw_l1`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the geometry; the artifact
    /// parser validates lengths before calling this.
    pub(crate) fn from_quantized_parts(
        in_f: usize,
        out_f: usize,
        wq: &[i8],
        scales: Vec<f32>,
        in_max: f32,
        bias: Vec<f32>,
        dw_l1: Vec<f32>,
    ) -> Self {
        assert_eq!(wq.len(), in_f * out_f, "quantized weight length");
        assert_eq!(scales.len(), out_f, "scale count");
        assert_eq!(bias.len(), out_f, "bias length");
        assert_eq!(dw_l1.len(), out_f, "dw_l1 length");
        let in_scale = symmetric_scale(in_max);
        let mut wq_cols = vec![0i8; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                wq_cols[i * out_f + o] = wq[o * in_f + i];
            }
        }
        let mut l1q = vec![0.0f32; out_f];
        for o in 0..out_f {
            let scale = scales[o];
            for i in 0..in_f {
                l1q[o] += (f32::from(wq[o * in_f + i]) * scale).abs();
            }
        }
        Self {
            in_features: in_f,
            out_features: out_f,
            wq_cols,
            in_scale,
            inv_in_scale: 1.0 / in_scale,
            in_max,
            bias,
            deq: scales.iter().map(|&s| s * in_scale).collect(),
            w_scales: scales,
            l1q,
            dw_l1,
        }
    }

    /// The quantized codes back in canonical `[out, in]` order — the
    /// artifact serialization layout.
    pub(crate) fn canonical_wq(&self) -> Vec<i8> {
        let (in_f, out_f) = (self.in_features, self.out_features);
        let mut wq = vec![0i8; in_f * out_f];
        for o in 0..out_f {
            for i in 0..in_f {
                wq[o * in_f + i] = self.wq_cols[i * out_f + o];
            }
        }
        wq
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Dense analogue of [`QuantizedConv::bound`].
    fn bound(&self, e_in: f32) -> f32 {
        rounding_bound(&self.l1q, &self.dw_l1, self.in_scale, self.in_max, e_in)
    }
}

// ---------------------------------------------------------------------------
// Quantized plan
// ---------------------------------------------------------------------------

/// A quantized average-pooling stage: the window ring is stored as `i8` at
/// its own calibrated seam scale (pooling is linear, so the mean of the
/// quantized columns dequantizes in one multiply), keeping *all* per-stream
/// ring state one byte per slot.
#[derive(Debug, Clone)]
pub struct QuantPool {
    /// Pooling geometry.
    pub(crate) spec: PoolSpec,
    /// Calibrated max-abs of the window's (f32 reference) input, kept
    /// verbatim so artifact round trips are bit-stable.
    pub(crate) in_max: f32,
    /// Input activation scale (from calibration).
    pub(crate) in_scale: f32,
    /// Reciprocal of `in_scale` — the seam quantizes with one multiply.
    pub(crate) inv_in_scale: f32,
    /// Dequantization of the window mean: `in_scale / kernel`.
    pub(crate) deq: f32,
}

impl QuantPool {
    pub(crate) fn new(spec: PoolSpec, in_max: f32) -> Self {
        let in_scale = symmetric_scale(in_max);
        Self {
            spec,
            in_max,
            in_scale,
            inv_in_scale: 1.0 / in_scale,
            deq: in_scale / spec.kernel as f32,
        }
    }
}

/// A block of an int8 plan: int8 convolutions, and pooling over an
/// int8-windowed ring; the residual skip adds in f32.
pub type QuantBlock = Block<i8>;

/// The head of an int8 plan. A global-pool head keeps its running mean in
/// f32 and quantizes the mean at the dense seam.
pub type QuantHead = Head<i8>;

/// The int8 form of an [`InferencePlan`]: same structure, same streaming
/// semantics, `i8` weights and ring buffers, and an analytic parity bound
/// against the f32 plan it was lowered from.
pub type QuantizedPlan = Plan<i8>;

/// One stream's int8 execution of a [`QuantizedPlan`]: the engine's
/// [`Session`] over `i8` rings, with the f32 session's emission schedule and
/// outputs within [`QuantizedPlan::error_bound`] of it.
pub type QuantizedSession = Session<i8>;

/// A pool of int8 streams, each flushed through the int8 solo step: the
/// engine's [`SessionPool`] over a [`QuantizedPlan`].
pub type QuantizedSessionPool = SessionPool<i8>;

/// Composes the analytic error bound of a quantized plan from its layers —
/// the recursion described in the module docs: each conv/dense layer maps an
/// incoming error `e` through [`rounding_bound`], residual branches add,
/// average pooling is 1-Lipschitz plus half a step of its own seam scale.
/// Derived from the layers alone, so a plan and its deserialized twin carry
/// the same bound.
fn compose_error_bound(blocks: &[QuantBlock], head: &QuantHead) -> f32 {
    let mut e = 0.0f32;
    for block in blocks {
        match block {
            QuantBlock::Residual {
                conv1,
                conv2,
                downsample,
            } => {
                let e_branch = conv2.bound(conv1.bound(e));
                let e_skip = downsample.as_ref().map(|d| d.bound(e)).unwrap_or(e);
                e = e_branch + e_skip;
            }
            QuantBlock::Plain { convs, pool } => {
                for conv in convs {
                    e = conv.bound(e);
                }
                // Averaging is 1-Lipschitz; quantizing the pool window adds
                // one half-step of its seam scale to the bound.
                if let Some(qp) = pool {
                    e += 0.5 * qp.in_scale;
                }
            }
        }
    }
    match head {
        QuantHead::PerStep(conv) => conv.bound(e),
        QuantHead::Fc { hidden, output, .. } => output.bound(hidden.bound(e)),
        // The f32 running mean is 1-Lipschitz; the dense seam was calibrated
        // pre-pool, which dominates every prefix mean.
        QuantHead::GlobalPoolFc(dense) => dense.bound(e),
    }
}

impl QuantizedPlan {
    /// Lowers an f32 plan into int8 using a previously collected
    /// [`Calibration`].
    ///
    /// # Errors
    ///
    /// Returns a message when the calibration's seam count does not match
    /// the plan (it was collected for a different plan).
    pub fn new(plan: &InferencePlan, cal: &Calibration) -> std::result::Result<Self, String> {
        if cal.len() != plan.num_seams() {
            return Err(format!(
                "calibration covers {} seams but the plan has {}",
                cal.len(),
                plan.num_seams()
            ));
        }
        let mut seam = 0usize;
        let mut next = || {
            let m = cal.seam_max_abs(seam);
            seam += 1;
            m
        };
        let mut blocks = Vec::with_capacity(plan.blocks().len());
        for block in plan.blocks() {
            match block {
                PlanBlock::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    let q1 = QuantizedConv::from_compiled(conv1, next());
                    let q2 = QuantizedConv::from_compiled(conv2, next());
                    let qd = downsample
                        .as_ref()
                        .map(|ds| QuantizedConv::from_compiled(ds, next()));
                    blocks.push(QuantBlock::Residual {
                        conv1: q1,
                        conv2: q2,
                        downsample: qd,
                    });
                }
                PlanBlock::Plain { convs, pool } => {
                    let qconvs = convs
                        .iter()
                        .map(|conv| QuantizedConv::from_compiled(conv, next()))
                        .collect();
                    blocks.push(QuantBlock::Plain {
                        convs: qconvs,
                        pool: pool.map(|spec| QuantPool::new(spec, next())),
                    });
                }
            }
        }
        let head = match plan.head() {
            PlanHead::PerStep(conv) => {
                QuantHead::PerStep(QuantizedConv::from_compiled(conv, next()))
            }
            PlanHead::Fc {
                hidden,
                output,
                channels,
                window,
            } => QuantHead::Fc {
                hidden: QuantizedDense::from_dense(hidden, next()),
                output: QuantizedDense::from_dense(output, next()),
                channels: *channels,
                window: *window,
            },
            PlanHead::GlobalPoolFc(dense) => {
                QuantHead::GlobalPoolFc(QuantizedDense::from_dense(dense, next()))
            }
        };
        Ok(Self::assemble(
            format!("{}-int8", plan.name()),
            plan.input_channels(),
            blocks,
            head,
        ))
    }

    /// Calibrates on `windows` and lowers in one call.
    ///
    /// # Errors
    ///
    /// Returns a message when a window does not match the plan's input
    /// shape.
    pub fn quantize(plan: &InferencePlan, windows: &[Tensor]) -> std::result::Result<Self, String> {
        let cal = Calibration::collect(plan, windows).map_err(|e| e.to_string())?;
        Self::new(plan, &cal)
    }

    /// Analytic worst-case `|int8 − f32|` per output value, for inputs whose
    /// seam activations stay inside the calibrated ranges. Integer
    /// accumulation is exact, so this composes only the seam rounding
    /// (`in_scale/2`) and the measured weight-rounding mass through each
    /// layer's `Σ|ŵ|` Lipschitz factor (see the module docs for the
    /// derivation).
    pub fn error_bound(&self) -> f32 {
        compose_error_bound(&self.blocks, &self.head)
    }

    /// Bytes of weight payload the int8 plan ships: one byte per weight plus
    /// four per scale and per f32 bias entry.
    pub fn weight_bytes(&self) -> usize {
        let conv = |c: &QuantizedConv| c.wt_q.len() + 4 * (c.deq.len() + c.bias.len());
        let dense = |d: &QuantizedDense| d.wq_cols.len() + 4 * (d.deq.len() + d.bias.len());
        let convs: usize = self.convs().into_iter().map(conv).sum();
        convs
            + match &self.head {
                QuantHead::PerStep(_) => 0, // counted through convs()
                QuantHead::Fc { hidden, output, .. } => dense(hidden) + dense(output),
                QuantHead::GlobalPoolFc(d) => dense(d),
            }
    }
}
