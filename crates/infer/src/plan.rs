//! Compiling searched networks into tape-free inference plans.
//!
//! A [`InferencePlan`] is the deployable form of a PIT search result: every
//! searchable convolution's binarised γ mask is folded into a *true* dilation
//! (only alive taps stored, via [`pit_nas::PitConv1d::export_pruned_weight`]),
//! batch normalisation is fused into the convolution weights, and the
//! remaining structure is a flat block list executed straight through the
//! tiled kernels of [`pit_tensor`] — no [`pit_tensor::Tape`], no gradient
//! bookkeeping, no per-op allocations beyond the output.
//!
//! Plans are built from any of the model families of `pit-models`
//! ([`compile_temponet`], [`compile_restcn`], [`compile_generic`],
//! [`compile_concrete`]) or — geometry only — from a persisted
//! [`NetworkDescriptor`] via [`InferencePlan::from_descriptor`].
//!
//! The plan tree ([`Plan`], [`Block`], [`Head`]) is generic over its
//! [`Precision`]: [`InferencePlan`] is the f32 instantiation built here, and
//! [`crate::QuantizedPlan`] the int8 one lowered from it. Walks that only
//! read geometry (output width, receptive field, descriptor, state size) are
//! written once for both.

use crate::precision::{ConvOp, LinearOp, PoolOp, Precision};
use pit_models::{
    ConcreteBlock, ConcreteHead, ConcreteTcn, GenericTcn, LayerDesc, NetworkDescriptor, ResTcn,
    TempoNet,
};
use pit_nas::PitConv1d;
use pit_nn::layers::{BatchNorm1d, CausalConv1d, Linear};
use pit_tensor::{Result, Tensor};

/// A compiled causal convolution: only alive taps stored, mask and batch
/// norm already folded into the weights.
#[derive(Debug, Clone)]
pub struct CompiledConv {
    pub(crate) c_in: usize,
    pub(crate) c_out: usize,
    pub(crate) k: usize,
    pub(crate) dilation: usize,
    /// Weights `[C_out, C_in, K]`: the offline and serialization layout.
    pub(crate) weight: Tensor,
    /// Execution pack `[(tap, channel), C_out]` (`j = kk·C_in + ci` rows),
    /// matching the tap-major gather rows of the streaming rings, which the
    /// per-step accumulation reads.
    pub(crate) wt: Vec<f32>,
    /// Bias `[C_out]` (batch-norm shift folded in).
    pub(crate) bias: Tensor,
}

impl CompiledConv {
    /// Builds a compiled convolution from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 3, has zero taps, or `bias` does not
    /// match `C_out`, or `dilation` is zero.
    pub fn new(weight: Tensor, bias: Tensor, dilation: usize) -> Self {
        assert_eq!(weight.dims().len(), 3, "weight must be [C_out, C_in, K]");
        assert!(dilation >= 1, "dilation must be >= 1");
        let (c_out, c_in, k) = (weight.dims()[0], weight.dims()[1], weight.dims()[2]);
        assert!(k >= 1, "kernel must keep at least one tap");
        assert_eq!(bias.dims(), [c_out], "bias must be [C_out]");
        let mut conv = Self {
            c_in,
            c_out,
            k,
            dilation,
            weight,
            wt: Vec::new(),
            bias,
        };
        conv.repack();
        conv
    }

    /// Compiles a searchable convolution: binarises γ, keeps only the taps
    /// alive under the encoded dilation and stores them contiguously.
    pub fn from_searchable(conv: &PitConv1d) -> Self {
        Self::new(
            conv.export_pruned_weight(),
            conv.bias_param().value(),
            conv.dilation(),
        )
    }

    /// Compiles a fixed-dilation convolution (a bias of zeros is synthesised
    /// when the layer has none).
    pub fn from_causal(conv: &CausalConv1d) -> Self {
        let bias = conv
            .bias()
            .map(|b| b.value())
            .unwrap_or_else(|| Tensor::zeros(&[conv.out_channels()]));
        Self::new(conv.weight().value(), bias, conv.dilation())
    }

    /// Folds an (inference-mode) batch normalisation into the weights and
    /// bias: `bn(conv(x)) = conv'(x)` with
    /// `w' = w · γ/√(σ²+ε)` and `b' = (b − μ) · γ/√(σ²+ε) + β`.
    ///
    /// # Panics
    ///
    /// Panics if the normalised channel count differs from `C_out`.
    pub fn fold_batchnorm(&mut self, bn: &BatchNorm1d) {
        assert_eq!(bn.channels(), self.c_out, "batch-norm channel mismatch");
        let gamma = bn.gamma().value();
        let beta = bn.beta().value();
        let mean = bn.running_mean();
        let var = bn.running_var();
        let eps = bn.eps();
        let ck = self.c_in * self.k;
        let mut w = self.weight.clone();
        let mut b = self.bias.clone();
        for co in 0..self.c_out {
            let scale = gamma.data()[co] / (var.data()[co] + eps).sqrt();
            for v in &mut w.data_mut()[co * ck..(co + 1) * ck] {
                *v *= scale;
            }
            b.data_mut()[co] = (b.data()[co] - mean.data()[co]) * scale + beta.data()[co];
        }
        self.weight = w;
        self.bias = b;
        self.repack();
    }

    /// Rebuilds the tap-major execution pack after a weight change.
    fn repack(&mut self) {
        let (c_in, c_out, k) = (self.c_in, self.c_out, self.k);
        let mut wt = vec![0.0f32; c_in * k * c_out];
        for co in 0..c_out {
            for ci in 0..c_in {
                for kk in 0..k {
                    wt[(kk * c_in + ci) * c_out + co] =
                        self.weight.data()[(co * c_in + ci) * k + kk];
                }
            }
        }
        self.wt = wt;
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

    /// Number of stored weights (bias included).
    pub fn num_weights(&self) -> usize {
        self.c_out * self.c_in * self.k + self.c_out
    }

    /// Offline forward over a whole `[N, C_in, T]` window through the tiled
    /// convolution kernels.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    pub fn forward_offline(&self, x: &Tensor) -> Result<Tensor> {
        x.conv1d_causal(&self.weight, Some(&self.bias), self.dilation)
    }
}

/// A compiled dense layer `y = x · W + b` (weights `[in, out]`, as stored by
/// [`pit_nn::layers::Linear`]).
#[derive(Debug, Clone)]
pub struct Dense {
    pub(crate) in_features: usize,
    pub(crate) out_features: usize,
    /// Weights `[in_features, out_features]`.
    pub(crate) weight: Tensor,
    /// Bias `[out_features]`.
    pub(crate) bias: Tensor,
}

impl Dense {
    /// Builds a compiled dense layer from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 2 or the bias length mismatches.
    pub fn new(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.dims().len(), 2, "weight must be [in, out]");
        let (in_features, out_features) = (weight.dims()[0], weight.dims()[1]);
        assert_eq!(bias.dims(), [out_features], "bias must be [out]");
        Self {
            in_features,
            out_features,
            weight,
            bias,
        }
    }

    /// Compiles a `pit-nn` dense layer.
    pub fn from_linear(layer: &Linear) -> Self {
        Self::new(layer.weight().value(), layer.bias().value())
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of stored weights (bias included).
    pub fn num_weights(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }

    /// Offline forward over a `[N, in_features]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    pub fn forward_offline(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = x.matmul(&self.weight)?;
        let (n, out) = (y.dims()[0], self.out_features);
        for row in 0..n {
            for j in 0..out {
                y.data_mut()[row * out + j] += self.bias.data()[j];
            }
        }
        Ok(y)
    }
}

/// Average pooling geometry of a plan block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Pooling window.
    pub kernel: usize,
    /// Stride between windows.
    pub stride: usize,
}

/// One block of a plan. ReLU activations are implicit: every convolution
/// inside a block is followed by one (matching the seed networks); heads are
/// linear. Generic over the [`Precision`] of its layers: [`PlanBlock`] is
/// the f32 block, [`crate::QuantBlock`] the int8 one.
// The variant size gap (Residual inlines three convs, Plain a Vec) is fine:
// blocks are built once per compile and held in a short Vec, never moved on
// a hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Block<P: Precision> {
    /// Two convolutions with a skip connection (ResTCN-style); the skip adds
    /// in f32 before the block's final ReLU.
    Residual {
        /// First convolution.
        conv1: P::Conv,
        /// Second convolution.
        conv2: P::Conv,
        /// Optional 1×1 projection when channel counts differ on the skip.
        downsample: Option<P::Conv>,
    },
    /// A feed-forward chain of convolutions (TEMPONet-style), optionally
    /// closed by average pooling over time.
    Plain {
        /// Convolutions, each followed by an implicit ReLU.
        convs: Vec<P::Conv>,
        /// Optional pooling stage closing the block.
        pool: Option<P::Pool>,
    },
}

/// A block of an f32 plan.
pub type PlanBlock = Block<f32>;

/// The output head of a plan, generic like [`Block`]: [`PlanHead`] is the
/// f32 head, [`crate::QuantHead`] the int8 one.
#[derive(Debug, Clone)]
pub enum Head<P: Precision> {
    /// Per-time-step convolution producing one logit column per step.
    PerStep(P::Conv),
    /// Flatten the last `window` steps of the final `channels`-wide feature
    /// map and run a two-layer MLP (TEMPONet-style regression head).
    Fc {
        /// Hidden dense layer (ReLU after it).
        hidden: P::Dense,
        /// Output dense layer (linear).
        output: P::Dense,
        /// Channels of the feature map feeding the head.
        channels: usize,
        /// Time steps flattened into the head input.
        window: usize,
    },
    /// Global average pooling over time followed by one dense layer
    /// (GenericTcn-style head). Streaming keeps an f32 running mean.
    GlobalPoolFc(P::Dense),
}

/// The head of an f32 plan.
pub type PlanHead = Head<f32>;

/// A compiled, tape-free inference plan: the deployable form of a searched
/// TCN, streamed per timestep through [`crate::Session`] /
/// [`crate::SessionPool`] in its [`Precision`].
#[derive(Debug, Clone)]
pub struct Plan<P: Precision> {
    pub(crate) name: String,
    pub(crate) input_channels: usize,
    pub(crate) blocks: Vec<Block<P>>,
    pub(crate) head: Head<P>,
}

/// The f32 plan, executable offline over whole windows
/// ([`InferencePlan::forward`]) as well as per timestep.
pub type InferencePlan = Plan<f32>;

impl<P: Precision> Plan<P> {
    /// Assembles a plan from parts of either precision, panicking unless
    /// they chain (the invariants listed on [`InferencePlan::new`]).
    pub(crate) fn assemble(
        name: String,
        input_channels: usize,
        blocks: Vec<Block<P>>,
        head: Head<P>,
    ) -> Self {
        let mut width = input_channels;
        for (i, block) in blocks.iter().enumerate() {
            match block {
                Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    assert_eq!(
                        conv1.in_channels(),
                        width,
                        "block {i}: conv1 input channels"
                    );
                    assert_eq!(
                        conv2.in_channels(),
                        conv1.outputs(),
                        "block {i}: conv2 input channels"
                    );
                    match downsample {
                        Some(ds) => {
                            assert_eq!(
                                ds.in_channels(),
                                width,
                                "block {i}: downsample input channels"
                            );
                            assert_eq!(
                                ds.outputs(),
                                conv2.outputs(),
                                "block {i}: downsample output channels"
                            );
                        }
                        None => assert_eq!(
                            width,
                            conv2.outputs(),
                            "block {i}: residual skip needs a downsample when channels change"
                        ),
                    }
                    width = conv2.outputs();
                }
                Block::Plain { convs, pool } => {
                    for (j, conv) in convs.iter().enumerate() {
                        assert_eq!(
                            conv.in_channels(),
                            width,
                            "block {i} conv {j}: input channels"
                        );
                        width = conv.outputs();
                    }
                    if let Some(pool) = pool {
                        // The streaming pool clocks count in units of these;
                        // zero would underflow the emission countdown.
                        let spec = pool.spec();
                        assert!(
                            spec.kernel >= 1 && spec.stride >= 1,
                            "block {i}: pooling kernel and stride must be >= 1"
                        );
                    }
                }
            }
        }
        match &head {
            Head::PerStep(conv) => {
                assert_eq!(conv.in_channels(), width, "per-step head input channels");
            }
            Head::Fc {
                hidden,
                output,
                channels,
                window,
            } => {
                assert_eq!(*channels, width, "fc head channels");
                assert_eq!(
                    hidden.inputs(),
                    channels * window,
                    "fc head window flatten size"
                );
                assert_eq!(output.inputs(), hidden.outputs(), "fc head stack");
            }
            Head::GlobalPoolFc(dense) => {
                assert_eq!(dense.inputs(), width, "global-pool head features");
            }
        }
        Self {
            name,
            input_channels,
            blocks,
            head,
        }
    }

    /// The plan name (carried over from the compiled network; quantized
    /// plans append `-int8`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the plan under a new name. Model-zoo builders use this to
    /// give each searched point a unique registry name before writing its
    /// artifact (quantizing afterwards derives `<name>-int8`).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Channels of the input stream.
    pub fn input_channels(&self) -> usize {
        self.input_channels
    }

    /// The blocks in execution order.
    pub fn blocks(&self) -> &[Block<P>] {
        &self.blocks
    }

    /// The head.
    pub fn head(&self) -> &Head<P> {
        &self.head
    }

    /// Width of one emitted output vector.
    pub fn output_dim(&self) -> usize {
        match &self.head {
            Head::PerStep(conv) => conv.outputs(),
            Head::Fc { output, .. } => output.outputs(),
            Head::GlobalPoolFc(dense) => dense.outputs(),
        }
    }

    /// Every convolution of the plan in execution order: per block `conv1`,
    /// `conv2`, then the `downsample` (or the plain chain), and a per-step
    /// head last. A stream keeps one ring per entry, in this order.
    pub(crate) fn convs(&self) -> Vec<&P::Conv> {
        let mut out = Vec::new();
        for block in &self.blocks {
            match block {
                Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    out.push(conv1);
                    out.push(conv2);
                    out.extend(downsample.iter());
                }
                Block::Plain { convs, .. } => out.extend(convs.iter()),
            }
        }
        if let Head::PerStep(conv) = &self.head {
            out.push(conv);
        }
        out
    }

    /// Bytes one streaming session keeps as state: the conv rings (each
    /// layer's receptive field), pool windows and the Fc flatten window, one
    /// ring element each, plus the f32 running mean of a global-pool head.
    /// This is the per-stream serving memory footprint; the int8 plan's is
    /// close to a quarter of the f32 plan's.
    pub fn session_state_bytes(&self) -> usize {
        let mut slots: usize = self
            .convs()
            .iter()
            .map(|c| c.in_channels() * c.receptive_field())
            .sum();
        for block in &self.blocks {
            if let Block::Plain {
                convs,
                pool: Some(pool),
            } = block
            {
                slots += convs.last().map_or(0, |c| c.outputs()) * pool.spec().kernel;
            }
        }
        let mean_bytes = match &self.head {
            Head::PerStep(_) => 0,
            Head::Fc {
                channels, window, ..
            } => {
                slots += channels * window;
                0
            }
            Head::GlobalPoolFc(dense) => 4 * dense.inputs(),
        };
        slots * std::mem::size_of::<P>() + mean_bytes
    }

    /// Receptive field of the conv/pool stack in input samples: how much
    /// history influences one head input column (standard jump/receptive-field
    /// composition; the Fc head window extends it further at the pooled rate).
    pub fn receptive_field(&self) -> usize {
        let mut rf = 1usize;
        let mut jump = 1usize;
        let mut grow = |k: usize, d: usize, j: usize| {
            rf += (k - 1) * d * j;
        };
        for block in &self.blocks {
            match block {
                Block::Residual { conv1, conv2, .. } => {
                    grow(conv1.kernel(), conv1.dilation(), jump);
                    grow(conv2.kernel(), conv2.dilation(), jump);
                }
                Block::Plain { convs, pool } => {
                    for conv in convs {
                        grow(conv.kernel(), conv.dilation(), jump);
                    }
                    if let Some(pool) = pool {
                        let spec = pool.spec();
                        grow(spec.kernel, 1, jump);
                        jump *= spec.stride;
                    }
                }
            }
        }
        if let Head::PerStep(conv) = &self.head {
            grow(conv.kernel(), conv.dilation(), jump);
        }
        rf
    }

    /// Exports the plan geometry as a [`NetworkDescriptor`] for an input of
    /// length `t_in` — the persistence seam: render it with
    /// [`NetworkDescriptor::to_json_string`] and, for sequential plans,
    /// rebuild the structure later with [`InferencePlan::from_descriptor`].
    /// Both precisions export the same geometry (weight/MAC accounting
    /// counts layers; the byte width is not the descriptor's concern).
    ///
    /// Descriptors are a flat layer list (the `pit-arch/1` schema carries no
    /// skip edges), so a plan whose residual block uses a `downsample`
    /// projection exports a descriptor that is still correct for weight/MAC
    /// accounting and `pit-hw` deployment modelling, but that
    /// `from_descriptor` will *reject* rather than rebuild with broken
    /// channel chaining.
    pub fn descriptor(&self, t_in: usize) -> NetworkDescriptor {
        let mut d = NetworkDescriptor::new(self.name.clone());
        let mut t = t_in;
        let conv_desc = |conv: &P::Conv, t: usize| LayerDesc::Conv1d {
            c_in: conv.in_channels(),
            c_out: conv.outputs(),
            kernel: conv.kernel(),
            dilation: conv.dilation(),
            t_in: t,
            t_out: t,
        };
        let linear = |dense: &P::Dense| LayerDesc::Linear {
            in_features: dense.inputs(),
            out_features: dense.outputs(),
        };
        for block in &self.blocks {
            match block {
                Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    d.push(conv_desc(conv1, t));
                    d.push(conv_desc(conv2, t));
                    if let Some(ds) = downsample {
                        d.push(conv_desc(ds, t));
                    }
                }
                Block::Plain { convs, pool } => {
                    for conv in convs {
                        d.push(conv_desc(conv, t));
                    }
                    if let Some(pool) = pool {
                        let spec = pool.spec();
                        let t_out = (t.saturating_sub(spec.kernel)) / spec.stride + 1;
                        let channels = convs.last().map(|c| c.outputs()).unwrap_or(0);
                        d.push(LayerDesc::AvgPool {
                            channels,
                            kernel: spec.kernel,
                            stride: spec.stride,
                            t_in: t,
                            t_out,
                        });
                        t = t_out;
                    }
                }
            }
        }
        match &self.head {
            Head::PerStep(conv) => d.push(conv_desc(conv, t)),
            Head::Fc { hidden, output, .. } => {
                d.push(linear(hidden));
                d.push(linear(output));
            }
            Head::GlobalPoolFc(dense) => d.push(linear(dense)),
        }
        d
    }
}

impl InferencePlan {
    /// Assembles a plan from compiled parts.
    ///
    /// # Panics
    ///
    /// Panics when the parts do not chain: a convolution whose input channels
    /// differ from what the previous stage produces, a residual block whose
    /// skip path cannot add to its branch (no downsample despite a channel
    /// change, or a downsample with the wrong geometry), a pooling stage
    /// with a zero kernel or stride, or a head that does not match the final
    /// feature width. The streaming executor trusts these invariants, so
    /// they are enforced at build time rather than surfacing as silently
    /// wrong outputs (or counter underflows) per step.
    pub fn new(
        name: impl Into<String>,
        input_channels: usize,
        blocks: Vec<PlanBlock>,
        head: PlanHead,
    ) -> Self {
        Self::assemble(name.into(), input_channels, blocks, head)
    }

    /// Total stored weights of the plan (what deployment ships).
    pub fn num_weights(&self) -> usize {
        let conv_w: usize = self.convs().iter().map(|c| c.num_weights()).sum();
        let head_w = match &self.head {
            PlanHead::PerStep(_) => 0, // already counted through convs()
            PlanHead::Fc { hidden, output, .. } => hidden.num_weights() + output.num_weights(),
            PlanHead::GlobalPoolFc(dense) => dense.num_weights(),
        };
        conv_w + head_w
    }

    /// Offline forward over a whole `[N, C_in, T]` window, tape-free.
    ///
    /// Matches the evaluation-mode forward of the network the plan was
    /// compiled from (dropout is identity, batch norm uses running stats —
    /// both already folded away here).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches (wrong channel count, or a window
    /// shorter than a pooling stage needs).
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_seams(x, &mut |_, _| {})
    }

    /// Number of quantization seams of the plan: one per convolution, dense
    /// layer or pooling-stage input, in the fixed order
    /// [`InferencePlan::forward_seams`] observes them. This is the length of
    /// a calibration record.
    pub fn num_seams(&self) -> usize {
        let mut seams = 0usize;
        for block in &self.blocks {
            seams += match block {
                PlanBlock::Residual { downsample, .. } => 2 + usize::from(downsample.is_some()),
                PlanBlock::Plain { convs, pool } => convs.len() + usize::from(pool.is_some()),
            };
        }
        seams
            + match &self.head {
                PlanHead::PerStep(_) | PlanHead::GlobalPoolFc(_) => 1,
                PlanHead::Fc { .. } => 2,
            }
    }

    /// [`InferencePlan::forward`] with an observer called once per
    /// quantization *seam* — the tensor a layer reads, right before the
    /// layer executes. This is the calibration hook of the int8 path: a
    /// max-abs observer per seam yields the activation scales a
    /// [`crate::QuantizedPlan`] quantizes with.
    ///
    /// Seam order (stable; indices are `0..self.num_seams()`):
    ///
    /// * per block, in block order — residual: `conv1` input, `conv2` input,
    ///   then the `downsample` input (the block input again) when present;
    ///   plain: each convolution's input in chain order, then the pooling
    ///   stage's input when the block pools (the int8 engine keeps pool
    ///   windows quantized too);
    /// * head — per-step: the head convolution's input; `Fc`: the *unpooled*
    ///   feature map feeding the flatten (covering every window position a
    ///   streaming session will ever flatten), then the hidden activations
    ///   feeding the output layer; `GlobalPoolFc`: the feature map *before*
    ///   the global average (a running streaming mean over any prefix is
    ///   bounded by the columns it averages, so calibrating pre-pool covers
    ///   mid-stream emissions too).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches, as [`InferencePlan::forward`].
    pub fn forward_seams(
        &self,
        x: &Tensor,
        observe: &mut dyn FnMut(usize, &Tensor),
    ) -> Result<Tensor> {
        let relu = |t: Tensor| t.map(|v| v.max(0.0));
        let mut seam = 0usize;
        let mut x = x.clone();
        for block in &self.blocks {
            x = match block {
                PlanBlock::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    observe(seam, &x);
                    seam += 1;
                    let h = relu(conv1.forward_offline(&x)?);
                    observe(seam, &h);
                    seam += 1;
                    let h = relu(conv2.forward_offline(&h)?);
                    let skip = match downsample {
                        Some(ds) => {
                            observe(seam, &x);
                            seam += 1;
                            ds.forward_offline(&x)?
                        }
                        None => x,
                    };
                    relu(h.add(&skip)?)
                }
                PlanBlock::Plain { convs, pool } => {
                    let mut h = x;
                    for conv in convs {
                        observe(seam, &h);
                        seam += 1;
                        h = relu(conv.forward_offline(&h)?);
                    }
                    match pool {
                        Some(spec) => {
                            observe(seam, &h);
                            seam += 1;
                            h.avg_pool1d(spec.kernel, spec.stride)?
                        }
                        None => h,
                    }
                }
            };
        }
        match &self.head {
            PlanHead::PerStep(conv) => {
                observe(seam, &x);
                conv.forward_offline(&x)
            }
            PlanHead::Fc { hidden, output, .. } => {
                observe(seam, &x);
                seam += 1;
                let (n, c, t) = (x.dims()[0], x.dims()[1], x.dims()[2]);
                let flat = x.reshape(&[n, c * t])?;
                let h = relu(hidden.forward_offline(&flat)?);
                observe(seam, &h);
                output.forward_offline(&h)
            }
            PlanHead::GlobalPoolFc(dense) => {
                observe(seam, &x);
                let (n, c, t) = (x.dims()[0], x.dims()[1], x.dims()[2]);
                let mut pooled = Tensor::zeros(&[n, c]);
                for bn in 0..n {
                    for cc in 0..c {
                        let row = &x.data()[(bn * c + cc) * t..(bn * c + cc + 1) * t];
                        pooled.data_mut()[bn * c + cc] = row.iter().sum::<f32>() / t.max(1) as f32;
                    }
                }
                dense.forward_offline(&pooled)
            }
        }
    }

    /// Rebuilds a plan's *geometry* from a persisted descriptor: convolutions
    /// and dense layers come back zero-weighted (descriptors carry no
    /// weights), batch-norm entries are treated as folded (skipped), and the
    /// layers are replayed as a sequential `Plain` chain. The head is
    /// inferred from the tail: two trailing linears → [`PlanHead::Fc`], one →
    /// [`PlanHead::GlobalPoolFc`], none → the final convolution as
    /// [`PlanHead::PerStep`].
    ///
    /// Useful for capacity planning, latency modelling and shape validation
    /// of a searched architecture without re-running the search.
    ///
    /// Descriptors flatten skip connections, so a descriptor that interleaves
    /// residual *projection* convolutions into the chain (ResTcn-style
    /// `downsample` layers, whose input channels don't continue the chain) is
    /// rejected rather than silently rebuilt with the wrong geometry.
    ///
    /// # Errors
    ///
    /// Returns a message when the descriptor holds no convolution, contains a
    /// degenerate layer (zero channels/kernel/dilation), breaks the channel
    /// chain (flattened skip projections), interleaves layers in an
    /// unsupported order, or ends with more than two linears.
    pub fn from_descriptor(d: &NetworkDescriptor) -> std::result::Result<Self, String> {
        let mut blocks: Vec<PlanBlock> = Vec::new();
        let mut convs: Vec<CompiledConv> = Vec::new();
        let mut linears: Vec<Dense> = Vec::new();
        let mut input_channels = None;
        let mut chain_channels: Option<usize> = None;
        for (i, layer) in d.layers.iter().enumerate() {
            match layer {
                LayerDesc::Conv1d {
                    c_in,
                    c_out,
                    kernel,
                    dilation,
                    ..
                } => {
                    if !linears.is_empty() {
                        return Err(format!("layer {i}: convolution after a linear layer"));
                    }
                    if *c_in == 0 || *c_out == 0 || *kernel == 0 || *dilation == 0 {
                        return Err(format!(
                            "layer {i}: degenerate convolution \
                             (c_in {c_in}, c_out {c_out}, kernel {kernel}, dilation {dilation})"
                        ));
                    }
                    if let Some(prev) = chain_channels {
                        if prev != *c_in {
                            return Err(format!(
                                "layer {i}: convolution expects {c_in} input channels but the \
                                 chain carries {prev} — likely a flattened residual skip \
                                 projection, which a sequential plan cannot represent"
                            ));
                        }
                    }
                    chain_channels = Some(*c_out);
                    input_channels.get_or_insert(*c_in);
                    convs.push(CompiledConv::new(
                        Tensor::zeros(&[*c_out, *c_in, *kernel]),
                        Tensor::zeros(&[*c_out]),
                        *dilation,
                    ));
                }
                LayerDesc::BatchNorm { .. } => {} // folded at compile time
                LayerDesc::AvgPool { kernel, stride, .. } => {
                    if convs.is_empty() {
                        return Err(format!("layer {i}: pooling with no preceding convolution"));
                    }
                    if *kernel == 0 || *stride == 0 {
                        return Err(format!(
                            "layer {i}: degenerate pooling (kernel {kernel}, stride {stride})"
                        ));
                    }
                    blocks.push(PlanBlock::Plain {
                        convs: std::mem::take(&mut convs),
                        pool: Some(PoolSpec {
                            kernel: *kernel,
                            stride: *stride,
                        }),
                    });
                }
                LayerDesc::Linear {
                    in_features,
                    out_features,
                } => linears.push(Dense::new(
                    Tensor::zeros(&[*in_features, *out_features]),
                    Tensor::zeros(&[*out_features]),
                )),
            }
        }
        let head = match linears.len() {
            0 => {
                let head_conv = convs
                    .pop()
                    .ok_or("descriptor has no convolution to use as a per-step head")?;
                PlanHead::PerStep(head_conv)
            }
            1 => {
                let dense = linears.pop().expect("one linear");
                if Some(dense.in_features) != chain_channels {
                    return Err(format!(
                        "head linear expects {} features but the chain carries {:?}",
                        dense.in_features, chain_channels
                    ));
                }
                PlanHead::GlobalPoolFc(dense)
            }
            2 => {
                let output = linears.pop().expect("two linears");
                let hidden = linears.pop().expect("two linears");
                if output.in_features != hidden.out_features {
                    return Err(format!(
                        "head linears do not stack: hidden produces {} features, \
                         output expects {}",
                        hidden.out_features, output.in_features
                    ));
                }
                // Channels feeding the head: the trailing (un-pooled) convs
                // first, then the last already-closed block.
                let channels = convs
                    .last()
                    .map(|c| c.c_out)
                    .or_else(|| {
                        blocks.iter().rev().find_map(|b| match b {
                            PlanBlock::Plain { convs, .. } => convs.last().map(|c| c.c_out),
                            PlanBlock::Residual { conv2, .. } => Some(conv2.c_out),
                        })
                    })
                    .ok_or("descriptor has linears but no convolution")?;
                if channels == 0 || !hidden.in_features.is_multiple_of(channels) {
                    return Err(format!(
                        "head in_features {} not a multiple of final channels {channels}",
                        hidden.in_features
                    ));
                }
                let window = hidden.in_features / channels;
                PlanHead::Fc {
                    hidden,
                    output,
                    channels,
                    window,
                }
            }
            n => return Err(format!("descriptor ends with {n} linear layers (max 2)")),
        };
        if !convs.is_empty() {
            blocks.push(PlanBlock::Plain { convs, pool: None });
        }
        let input_channels = input_channels.ok_or("descriptor contains no convolution layers")?;
        // The chain checks above guarantee `InferencePlan::new`'s invariants,
        // so this cannot panic for inputs that reached this point.
        Ok(Self::new(d.name.clone(), input_channels, blocks, head))
    }
}

// ---------------------------------------------------------------------------
// Compilers
// ---------------------------------------------------------------------------

/// Compiles a searched TEMPONet: γ masks fold into true dilations, every
/// batch norm fuses into its convolution (inference mode, running stats).
pub fn compile_temponet(net: &TempoNet) -> InferencePlan {
    let mut blocks = Vec::new();
    for view in net.block_views() {
        let mut convs = Vec::with_capacity(view.convs.len());
        for (conv, norm) in view.convs.iter().zip(view.norms.iter()) {
            let mut cc = CompiledConv::from_searchable(conv);
            cc.fold_batchnorm(norm);
            convs.push(cc);
        }
        blocks.push(PlanBlock::Plain {
            convs,
            pool: Some(PoolSpec {
                kernel: view.pool.kernel(),
                stride: view.pool.stride(),
            }),
        });
    }
    let (hidden, output) = net.fc_layers();
    let channels = *net.config().channels.last().expect("seven channel counts");
    let hidden = Dense::from_linear(hidden);
    let window = hidden.in_features / channels;
    InferencePlan::new(
        "TEMPONet-plan",
        net.config().input_channels,
        blocks,
        PlanHead::Fc {
            hidden,
            output: Dense::from_linear(output),
            channels,
            window,
        },
    )
}

/// Compiles a searched ResTCN into residual plan blocks with a per-time-step
/// head.
pub fn compile_restcn(net: &ResTcn) -> InferencePlan {
    let blocks = net
        .block_views()
        .into_iter()
        .map(|view| PlanBlock::Residual {
            conv1: CompiledConv::from_searchable(view.conv1),
            conv2: CompiledConv::from_searchable(view.conv2),
            downsample: view.downsample.map(CompiledConv::from_causal),
        })
        .collect();
    InferencePlan::new(
        "ResTCN-plan",
        net.config().input_channels,
        blocks,
        PlanHead::PerStep(CompiledConv::from_causal(net.head())),
    )
}

/// Compiles a searched [`GenericTcn`] (conv chain → global average pool →
/// linear head).
pub fn compile_generic(net: &GenericTcn) -> InferencePlan {
    let convs = net
        .conv_layers()
        .iter()
        .map(CompiledConv::from_searchable)
        .collect();
    InferencePlan::new(
        "GenericTcn-plan",
        net.config().input_channels,
        vec![PlanBlock::Plain { convs, pool: None }],
        PlanHead::GlobalPoolFc(Dense::from_linear(net.head())),
    )
}

/// Compiles an already-concrete (truly dilated) network; batch norms fold
/// with their running statistics, dropout disappears (identity at inference).
pub fn compile_concrete(net: &ConcreteTcn) -> InferencePlan {
    let blocks: Vec<PlanBlock> = net
        .blocks()
        .iter()
        .map(|block| match block {
            ConcreteBlock::Residual {
                conv1,
                conv2,
                downsample,
                ..
            } => PlanBlock::Residual {
                conv1: CompiledConv::from_causal(conv1),
                conv2: CompiledConv::from_causal(conv2),
                downsample: downsample.as_ref().map(CompiledConv::from_causal),
            },
            ConcreteBlock::Plain { convs, norms, pool } => {
                let convs = convs
                    .iter()
                    .zip(norms.iter())
                    .map(|(conv, norm)| {
                        let mut cc = CompiledConv::from_causal(conv);
                        cc.fold_batchnorm(norm);
                        cc
                    })
                    .collect();
                PlanBlock::Plain {
                    convs,
                    pool: pool.map(|p| PoolSpec {
                        kernel: p.kernel(),
                        stride: p.stride(),
                    }),
                }
            }
        })
        .collect();
    let input_channels = blocks
        .first()
        .map(|b| match b {
            PlanBlock::Residual { conv1, .. } => conv1.c_in,
            PlanBlock::Plain { convs, .. } => convs.first().map(|c| c.c_in).unwrap_or(0),
        })
        .unwrap_or(0);
    let final_channels = blocks
        .iter()
        .rev()
        .find_map(|b| match b {
            PlanBlock::Residual { conv2, .. } => Some(conv2.c_out),
            PlanBlock::Plain { convs, .. } => convs.last().map(|c| c.c_out),
        })
        .unwrap_or(input_channels);
    let head = match net.head() {
        ConcreteHead::PerStep(conv) => PlanHead::PerStep(CompiledConv::from_causal(conv)),
        ConcreteHead::Fc { hidden, output } => {
            let hidden = Dense::from_linear(hidden);
            let window = hidden.in_features / final_channels.max(1);
            PlanHead::Fc {
                hidden,
                output: Dense::from_linear(output),
                channels: final_channels,
                window,
            }
        }
    };
    InferencePlan::new(format!("{}-plan", net.name()), input_channels, blocks, head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_models::{GenericTcnConfig, ResTcnConfig, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use pit_nn::{Layer, Mode};
    use pit_tensor::{init, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compiled_conv_matches_masked_searchable_layer() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = PitConv1d::new(&mut rng, 3, 5, 9, "c");
        conv.set_dilation(4);
        let compiled = CompiledConv::from_searchable(&conv);
        assert_eq!(compiled.kernel(), 3); // (9-1)/4 + 1
        assert_eq!(compiled.dilation(), 4);
        assert_eq!(compiled.receptive_field(), 9);

        let x = init::uniform(&mut rng, &[2, 3, 20], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let masked = conv.forward(&mut tape, vx, Mode::Eval);
        let plan_out = compiled.forward_offline(&x).unwrap();
        assert!(tape.value(masked).approx_eq(&plan_out, 1e-5));
    }

    #[test]
    fn batchnorm_folding_matches_eval_composition() {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = PitConv1d::new(&mut rng, 2, 4, 5, "c");
        let bn = BatchNorm1d::new(4);
        // Move the running stats off their defaults so the fold is nontrivial.
        let mut tape = Tape::new();
        let warm = tape.constant(init::uniform(&mut rng, &[4, 4, 16], 2.0));
        let _ = bn.forward(&mut tape, warm, Mode::Train);

        let x = init::uniform(&mut rng, &[2, 2, 12], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let h = conv.forward(&mut tape, vx, Mode::Eval);
        let reference = bn.forward(&mut tape, h, Mode::Eval);

        let mut compiled = CompiledConv::from_searchable(&conv);
        compiled.fold_batchnorm(&bn);
        let folded = compiled.forward_offline(&x).unwrap();
        assert!(tape.value(reference).approx_eq(&folded, 1e-5));
    }

    #[test]
    fn temponet_plan_matches_eval_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        // Warm the batch-norm running statistics.
        let mut tape = Tape::new();
        let warm = tape.constant(init::uniform(&mut rng, &[4, 4, 64], 1.0));
        let _ = net.forward(&mut tape, warm, Mode::Train);

        let x = init::uniform(&mut rng, &[3, 4, 64], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let reference = net.forward(&mut tape, vx, Mode::Eval);

        let plan = compile_temponet(&net);
        let out = plan.forward(&x).unwrap();
        assert_eq!(out.dims(), &[3, 1]);
        assert!(tape.value(reference).approx_eq(&out, 1e-4));
        // The plan stores only alive taps: strictly fewer weights than the
        // dense searchable network (which keeps masked taps and gammas).
        assert!(plan.num_weights() < net.num_weights());
    }

    #[test]
    fn restcn_plan_matches_eval_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ResTcnConfig {
            hidden_channels: 8,
            input_channels: 6,
            output_channels: 6,
            dropout: 0.0,
            ..ResTcnConfig::paper()
        };
        let net = ResTcn::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let x = init::uniform(&mut rng, &[2, 6, 24], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let reference = net.forward(&mut tape, vx, Mode::Eval);
        let plan = compile_restcn(&net);
        let out = plan.forward(&x).unwrap();
        assert_eq!(out.dims(), &[2, 6, 24]);
        assert!(tape.value(reference).approx_eq(&out, 1e-4));
    }

    #[test]
    fn generic_plan_matches_eval_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        net.set_dilations(&[4, 8]);
        let x = init::uniform(&mut rng, &[2, 1, 32], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let reference = net.forward(&mut tape, vx, Mode::Eval);
        let plan = compile_generic(&net);
        let out = plan.forward(&x).unwrap();
        assert!(tape.value(reference).approx_eq(&out, 1e-5));
    }

    #[test]
    fn concrete_plan_matches_eval_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = TempoNetConfig::scaled(8, 64);
        let concrete = TempoNet::concrete(&mut rng, &cfg, &cfg.hand_tuned_dilations());
        let x = init::uniform(&mut rng, &[2, 4, 64], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let reference = concrete.forward(&mut tape, vx, Mode::Eval);
        let plan = compile_concrete(&concrete);
        let out = plan.forward(&x).unwrap();
        assert!(tape.value(reference).approx_eq(&out, 1e-4));
    }

    #[test]
    fn descriptor_roundtrip_preserves_geometry() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let plan = compile_temponet(&net);
        let desc = plan.descriptor(64);
        let text = desc.to_json_string();
        let parsed = NetworkDescriptor::from_json_str(&text).unwrap();
        let rebuilt = InferencePlan::from_descriptor(&parsed).unwrap();
        assert_eq!(rebuilt.input_channels(), plan.input_channels());
        assert_eq!(rebuilt.output_dim(), plan.output_dim());
        assert_eq!(rebuilt.blocks().len(), plan.blocks().len());
        assert_eq!(rebuilt.receptive_field(), plan.receptive_field());
        // Zero weights, same geometry: a [1, C, 64] window must flow through.
        let out = rebuilt.forward(&Tensor::zeros(&[1, 4, 64])).unwrap();
        assert_eq!(out.dims(), &[1, 1]);
    }

    #[test]
    fn from_descriptor_rejects_malformed_documents() {
        let empty = NetworkDescriptor::new("empty");
        assert!(InferencePlan::from_descriptor(&empty).is_err());
        let mut linear_only = NetworkDescriptor::new("lin");
        linear_only.push(LayerDesc::Linear {
            in_features: 4,
            out_features: 2,
        });
        assert!(InferencePlan::from_descriptor(&linear_only).is_err());
        let mut degenerate = NetworkDescriptor::new("deg");
        degenerate.push(LayerDesc::Conv1d {
            c_in: 2,
            c_out: 2,
            kernel: 0,
            dilation: 1,
            t_in: 8,
            t_out: 8,
        });
        let err = InferencePlan::from_descriptor(&degenerate).unwrap_err();
        assert!(err.contains("degenerate"), "{err}");
    }

    #[test]
    fn from_descriptor_rejects_degenerate_pooling() {
        let mut d = NetworkDescriptor::new("zp");
        d.push(LayerDesc::Conv1d {
            c_in: 2,
            c_out: 2,
            kernel: 1,
            dilation: 1,
            t_in: 8,
            t_out: 8,
        });
        d.push(LayerDesc::AvgPool {
            channels: 2,
            kernel: 2,
            stride: 0,
            t_in: 8,
            t_out: 8,
        });
        d.push(LayerDesc::Conv1d {
            c_in: 2,
            c_out: 1,
            kernel: 1,
            dilation: 1,
            t_in: 8,
            t_out: 8,
        });
        let err = InferencePlan::from_descriptor(&d).unwrap_err();
        assert!(err.contains("degenerate pooling"), "{err}");
    }

    #[test]
    #[should_panic(expected = "pooling kernel and stride")]
    fn zero_stride_pool_refuses_to_build() {
        // The streaming pool clock counts in stride units; a zero stride
        // must fail at build time, not underflow a counter mid-stream.
        let conv = CompiledConv::new(Tensor::zeros(&[2, 2, 1]), Tensor::zeros(&[2]), 1);
        let _ = InferencePlan::new(
            "bad-pool",
            2,
            vec![PlanBlock::Plain {
                convs: vec![conv.clone()],
                pool: Some(PoolSpec {
                    kernel: 2,
                    stride: 0,
                }),
            }],
            PlanHead::PerStep(conv),
        );
    }

    #[test]
    #[should_panic(expected = "downsample")]
    fn residual_channel_mismatch_without_downsample_panics() {
        // Streaming trusts the plan invariants, so a residual block whose
        // skip cannot add to its branch must refuse to build (the offline
        // path would error at runtime; a session would otherwise silently
        // emit garbage).
        let conv = |c_in: usize, c_out: usize| {
            CompiledConv::new(Tensor::zeros(&[c_out, c_in, 3]), Tensor::zeros(&[c_out]), 1)
        };
        let _ = InferencePlan::new(
            "bad",
            4,
            vec![PlanBlock::Residual {
                conv1: conv(4, 8),
                conv2: conv(8, 8),
                downsample: None,
            }],
            PlanHead::PerStep(conv(8, 2)),
        );
    }

    #[test]
    fn from_descriptor_rejects_flattened_skip_projections() {
        // ResTcn descriptors interleave the 1x1 downsample projections into
        // the layer list; a sequential plan cannot represent them, and must
        // say so instead of rebuilding with broken channel counts.
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = ResTcnConfig {
            hidden_channels: 8,
            input_channels: 5,
            output_channels: 5,
            ..ResTcnConfig::paper()
        };
        let net = ResTcn::new(&mut rng, &cfg);
        let err = InferencePlan::from_descriptor(&net.descriptor(24)).unwrap_err();
        assert!(err.contains("skip"), "{err}");
    }

    #[test]
    fn state_bytes_and_receptive_field_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let plan = compile_temponet(&net);
        // State is bounded by (weights are the dominant cost, state is
        // per-stream and small).
        assert!(plan.session_state_bytes() > 0);
        assert!(plan.session_state_bytes() < 4 * plan.num_weights());
        assert!(plan.receptive_field() > 1);
    }
}
