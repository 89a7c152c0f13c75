//! The per-precision kernels of the streaming engine.
//!
//! The engine's one step path, which [`crate::Session`] and
//! [`crate::SessionPool`] share, is written once, generic over a
//! [`Precision`]: the element type of every ring buffer and gathered row
//! (`f32` or `i8`) together with the layer types a plan of that precision is
//! built from. Everything that differs between the f32 and the int8 engine
//! lives in this module, in three places:
//!
//! * the **seam** conversion of an f32 activation into a ring element
//!   ([`LinearOp::seam`], [`PoolOp::seam`]): identity for f32, quantization
//!   at the layer's calibrated scale for int8;
//! * the per-step **accumulate** ([`Precision::mac`]) inside one
//!   register-blocked microkernel shared by both precisions, and the tail
//!   that ends every linear layer ([`LinearOp::finish`]: bias,
//!   dequantization, ReLU);
//! * the **pool-window mean** ([`Precision::widen`], [`PoolOp::mean_scale`]).

use crate::plan::{CompiledConv, Dense, PoolSpec};
use crate::quant::{QuantPool, QuantizedConv, QuantizedDense};
use pit_hw::quant::quantize_value_inv;
use std::fmt::Debug;

/// A numeric precision of the streaming engine, implemented by the ring
/// element types `f32` and `i8`.
pub trait Precision: Copy + Default + Debug + Send + Sync + 'static {
    /// Accumulator of one multiply-accumulate: `f32`, or exact `i32` for
    /// `i8` operands.
    type Acc: Copy + Default + Debug + Send + Sync + 'static;
    /// Convolution layer: [`CompiledConv`] or [`QuantizedConv`].
    type Conv: ConvOp<Self>;
    /// Dense layer: [`Dense`] or [`QuantizedDense`].
    type Dense: LinearOp<Self>;
    /// Average-pooling stage: [`PoolSpec`] or [`QuantPool`].
    type Pool: PoolOp<Self>;

    /// `acc + x · w`.
    fn mac(acc: Self::Acc, x: Self, w: Self) -> Self::Acc;

    /// The element as f32 (for the pool-window sum).
    fn widen(self) -> f32;
}

/// A layer mapping one gathered row of ring elements to an f32 output
/// column through an `[inputs, outputs]` weight pack: a convolution (the
/// row is its tap window) or a dense layer (the row is its features).
pub trait LinearOp<P: Precision>: Clone + Debug + Send + Sync {
    /// Row length: `C_in · K` for a convolution, `in_features` for a dense
    /// layer.
    fn inputs(&self) -> usize;

    /// Output channels or features.
    fn outputs(&self) -> usize;

    /// The execution pack `[inputs, outputs]`, rows in gather order
    /// (tap-major, `j = kk·C_in + ci`, for convolutions).
    fn pack(&self) -> &[P];

    /// Converts one f32 activation at the layer's input seam.
    fn seam(&self, v: f32) -> P;

    /// Writes outputs `col..col + acc.len()` from their accumulators: bias
    /// and dequantization, then the ReLU when `relu` is set.
    fn finish(&self, col: usize, acc: &[P::Acc], out: &mut [f32], relu: bool);
}

/// The tap geometry of a convolution, on top of its [`LinearOp`] arithmetic.
pub trait ConvOp<P: Precision>: LinearOp<P> {
    /// Input channels.
    fn in_channels(&self) -> usize;

    /// Stored (alive) taps.
    fn kernel(&self) -> usize;

    /// Dilation between stored taps.
    fn dilation(&self) -> usize;

    /// Receptive field in input samples: `(K − 1) · d + 1`, the ring length
    /// a stream keeps for the layer.
    fn receptive_field(&self) -> usize {
        (self.kernel() - 1) * self.dilation() + 1
    }
}

/// A strided average-pooling stage whose window ring holds elements of `P`.
pub trait PoolOp<P: Precision>: Clone + Debug + Send + Sync {
    /// Pooling geometry.
    fn spec(&self) -> PoolSpec;

    /// Converts one f32 activation at the stage's input seam.
    fn seam(&self, v: f32) -> P;

    /// Factor turning the widened window sum into the window mean.
    fn mean_scale(&self) -> f32;
}

impl Precision for f32 {
    type Acc = f32;
    type Conv = CompiledConv;
    type Dense = Dense;
    type Pool = PoolSpec;

    fn mac(acc: f32, x: f32, w: f32) -> f32 {
        acc + x * w
    }

    fn widen(self) -> f32 {
        self
    }
}

impl Precision for i8 {
    type Acc = i32;
    type Conv = QuantizedConv;
    type Dense = QuantizedDense;
    type Pool = QuantPool;

    fn mac(acc: i32, x: i8, w: i8) -> i32 {
        acc + i32::from(x) * i32::from(w)
    }

    fn widen(self) -> f32 {
        f32::from(self)
    }
}

/// The f32 tail: `acc + bias`, then the optional ReLU.
/// Without ReLU the sum is stored as is, so a NaN stays NaN.
fn finish_f32(bias: &[f32], acc: &[f32], out: &mut [f32], relu: bool) {
    let rows = out.iter_mut().zip(acc).zip(bias);
    if relu {
        for ((o, &a), &b) in rows {
            *o = (a + b).max(0.0);
        }
    } else {
        for ((o, &a), &b) in rows {
            *o = a + b;
        }
    }
}

/// The int8 tail: dequantize through `in_scale · w_scale[o]`, add the f32
/// bias, then the optional ReLU.
fn finish_i8(deq: &[f32], bias: &[f32], acc: &[i32], out: &mut [f32], relu: bool) {
    let rows = out.iter_mut().zip(acc).zip(deq).zip(bias);
    if relu {
        for (((o, &a), &d), &b) in rows {
            *o = (a as f32 * d + b).max(0.0);
        }
    } else {
        for (((o, &a), &d), &b) in rows {
            *o = a as f32 * d + b;
        }
    }
}

impl LinearOp<f32> for CompiledConv {
    fn inputs(&self) -> usize {
        self.c_in * self.k
    }

    fn outputs(&self) -> usize {
        self.c_out
    }

    fn pack(&self) -> &[f32] {
        &self.wt
    }

    fn seam(&self, v: f32) -> f32 {
        v
    }

    fn finish(&self, col: usize, acc: &[f32], out: &mut [f32], relu: bool) {
        finish_f32(&self.bias.data()[col..], acc, out, relu);
    }
}

impl ConvOp<f32> for CompiledConv {
    fn in_channels(&self) -> usize {
        self.c_in
    }

    fn kernel(&self) -> usize {
        self.k
    }

    fn dilation(&self) -> usize {
        self.dilation
    }
}

impl LinearOp<f32> for Dense {
    fn inputs(&self) -> usize {
        self.in_features
    }

    fn outputs(&self) -> usize {
        self.out_features
    }

    fn pack(&self) -> &[f32] {
        self.weight.data()
    }

    fn seam(&self, v: f32) -> f32 {
        v
    }

    fn finish(&self, col: usize, acc: &[f32], out: &mut [f32], relu: bool) {
        finish_f32(&self.bias.data()[col..], acc, out, relu);
    }
}

impl PoolOp<f32> for PoolSpec {
    fn spec(&self) -> PoolSpec {
        *self
    }

    fn seam(&self, v: f32) -> f32 {
        v
    }

    fn mean_scale(&self) -> f32 {
        1.0 / self.kernel as f32
    }
}

impl LinearOp<i8> for QuantizedConv {
    fn inputs(&self) -> usize {
        self.c_in * self.k
    }

    fn outputs(&self) -> usize {
        self.c_out
    }

    fn pack(&self) -> &[i8] {
        &self.wt_q
    }

    fn seam(&self, v: f32) -> i8 {
        quantize_value_inv(v, self.inv_in_scale)
    }

    fn finish(&self, col: usize, acc: &[i32], out: &mut [f32], relu: bool) {
        finish_i8(&self.deq[col..], &self.bias[col..], acc, out, relu);
    }
}

impl ConvOp<i8> for QuantizedConv {
    fn in_channels(&self) -> usize {
        self.c_in
    }

    fn kernel(&self) -> usize {
        self.k
    }

    fn dilation(&self) -> usize {
        self.dilation
    }
}

impl LinearOp<i8> for QuantizedDense {
    fn inputs(&self) -> usize {
        self.in_features
    }

    fn outputs(&self) -> usize {
        self.out_features
    }

    fn pack(&self) -> &[i8] {
        &self.wq_cols
    }

    fn seam(&self, v: f32) -> i8 {
        quantize_value_inv(v, self.inv_in_scale)
    }

    fn finish(&self, col: usize, acc: &[i32], out: &mut [f32], relu: bool) {
        finish_i8(&self.deq[col..], &self.bias[col..], acc, out, relu);
    }
}

impl PoolOp<i8> for QuantPool {
    fn spec(&self) -> PoolSpec {
        self.spec
    }

    fn seam(&self, v: f32) -> i8 {
        quantize_value_inv(v, self.inv_in_scale)
    }

    fn mean_scale(&self) -> f32 {
        self.deq
    }
}

/// `out[o] = finish(Σ_j x[j] · pack[j, o])` for every output `o` — the
/// per-step microkernel, input-major over the pack. Register-blocking the
/// output lane into fixed-width accumulator arrays lets the whole reduction
/// vectorize with no per-row bounds checks (the runtime-width form of this
/// loop measured slower); each lane sums `j` in order.
pub(crate) fn accumulate<P: Precision, L: LinearOp<P>>(
    layer: &L,
    x: &[P],
    out: &mut [f32],
    relu: bool,
) {
    let n = layer.outputs();
    let mut col = 0;
    while col + 16 <= n {
        accumulate_block::<P, L, 16>(layer, x, col, out, relu);
        col += 16;
    }
    if col + 8 <= n {
        accumulate_block::<P, L, 8>(layer, x, col, out, relu);
        col += 8;
    }
    if col + 4 <= n {
        accumulate_block::<P, L, 4>(layer, x, col, out, relu);
        col += 4;
    }
    while col < n {
        accumulate_block::<P, L, 1>(layer, x, col, out, relu);
        col += 1;
    }
}

/// Computes output lanes `col..col + R` across every input row, holding the
/// `R` partial sums in a fixed-size (register-resident) array.
fn accumulate_block<P: Precision, L: LinearOp<P>, const R: usize>(
    layer: &L,
    x: &[P],
    col: usize,
    out: &mut [f32],
    relu: bool,
) {
    let (w, n) = (layer.pack(), layer.outputs());
    let mut a = [P::Acc::default(); R];
    for (j, &xv) in x.iter().enumerate() {
        let wrow: &[P; R] = w[j * n + col..j * n + col + R]
            .try_into()
            .expect("lane block");
        for l in 0..R {
            a[l] = P::mac(a[l], xv, wrow[l]);
        }
    }
    layer.finish(col, &a, &mut out[col..col + R], relu);
}
