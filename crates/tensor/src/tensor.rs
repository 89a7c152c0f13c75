//! Dense, row-major `f32` tensors and the raw numerical kernels used by the
//! autograd layer (element-wise arithmetic, matrix multiplication, causal
//! dilated 1-D convolution, pooling and reductions).

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense n-dimensional array of `f32` values stored in row-major order.
///
/// `Tensor` is a plain value type: it has no gradient tracking of its own.
/// Differentiable computations are built on top of it by
/// [`crate::Tape`]/[`crate::Var`].
///
/// # Example
///
/// ```
/// use pit_tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::ones(&[2, 2]);
/// let c = a.add(&b).unwrap();
/// assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the volume of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let shape = Shape::new(shape);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::new(shape);
        let data = vec![0.0; shape.volume()];
        Self { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let data = vec![value; shape.volume()];
        Self { shape, data }
    }

    /// Creates a rank-0 (scalar) tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a rank-1 tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        let data = (0..n).map(|i| i as f32).collect();
        Self {
            shape: Shape::new(&[n]),
            data,
        }
    }

    /// Creates a tensor with the same shape as `self`, filled with zeros.
    pub fn zeros_like(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            data: vec![0.0; self.data.len()],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the single element of a scalar (or one-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not contain exactly one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires a single-element tensor, got {}",
            self.shape
        );
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of bounds or has the wrong rank.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy of the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let new_shape = Shape::new(shape);
        if new_shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Self {
            shape: new_shape,
            data: self.data.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f(self[i], other[i])` element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise division.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|x| x + s)
    }

    /// Multiplies every element by `s`.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// In-place accumulation: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for a in self.data.iter_mut() {
            *a = value;
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element along the last dimension, for every
    /// leading position. Returns a tensor whose shape is `dims[..rank-1]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank 0.
    pub fn argmax_last_dim(&self) -> Vec<usize> {
        let rank = self.shape.rank();
        assert!(rank >= 1, "argmax_last_dim requires rank >= 1");
        let last = self.shape.dim(rank - 1);
        let rows = self.data.len() / last.max(1);
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * last..(r + 1) * last];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication of two rank-2 tensors: `[M, K] x [K, N] -> [M, N]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not rank 2 or if the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Self> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        if other.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: other.shape.rank(),
            });
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::kernels::gemm(m, k, n, &self.data, &other.data, &mut out);
        Ok(Self {
            shape: Shape::new(&[m, n]),
            data: out,
        })
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2.
    pub fn transpose2(&self) -> Result<Self> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Self {
            shape: Shape::new(&[n, m]),
            data: out,
        })
    }

    // ------------------------------------------------------------------
    // Convolution / pooling kernels (raw, non-autograd)
    // ------------------------------------------------------------------

    /// Validates the operand shapes of a causal convolution and returns its
    /// geometry.
    fn conv1d_check(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        mask: Option<&Tensor>,
        dilation: usize,
    ) -> Result<crate::kernels::ConvShape> {
        if self.shape.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv1d_causal",
                expected: 3,
                actual: self.shape.rank(),
            });
        }
        if weight.shape.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv1d_causal",
                expected: 3,
                actual: weight.shape.rank(),
            });
        }
        if dilation == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv1d_causal",
                message: "dilation must be >= 1".into(),
            });
        }
        let (n, c_in, t) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
        let (c_out, c_in_w, k) = (
            weight.shape.dim(0),
            weight.shape.dim(1),
            weight.shape.dim(2),
        );
        if c_in != c_in_w {
            return Err(TensorError::ShapeMismatch {
                op: "conv1d_causal",
                lhs: self.dims().to_vec(),
                rhs: weight.dims().to_vec(),
            });
        }
        if let Some(b) = bias {
            if b.dims() != [c_out] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv1d_causal(bias)",
                    lhs: vec![c_out],
                    rhs: b.dims().to_vec(),
                });
            }
        }
        if let Some(m) = mask {
            if m.dims() != [k] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv1d_causal(mask)",
                    lhs: vec![k],
                    rhs: m.dims().to_vec(),
                });
            }
        }
        Ok(crate::kernels::ConvShape {
            n,
            c_in,
            t,
            c_out,
            k,
            dilation,
        })
    }

    /// Causal dilated 1-D convolution.
    ///
    /// * `self`: input of shape `[N, C_in, T]`
    /// * `weight`: filters of shape `[C_out, C_in, K]`
    /// * `bias`: optional bias of shape `[C_out]`
    /// * `dilation`: step between taps along the time axis (must be >= 1)
    ///
    /// Output `[N, C_out, T]` with `y[n, co, t] = Σ_ci Σ_k x[n, ci, t − d·k] · w[co, ci, k]`,
    /// where out-of-range (negative-time) samples contribute zero. Tap index
    /// `k = 0` is the most recent sample, matching Eq. (1) of the PIT paper.
    ///
    /// Runs through the im2col/GEMM kernels of this crate, batch-parallel
    /// over `N` for large tensors.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or channel mismatches or when `dilation == 0`.
    pub fn conv1d_causal(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        dilation: usize,
    ) -> Result<Self> {
        let s = self.conv1d_check(weight, bias, None, dilation)?;
        let mut out = vec![0.0f32; s.n * s.c_out * s.t];
        crate::kernels::conv1d_forward(
            &self.data,
            &weight.data,
            bias.map(|b| b.data.as_slice()),
            None,
            &s,
            &mut out,
        );
        Ok(Self {
            shape: Shape::new(&[s.n, s.c_out, s.t]),
            data: out,
        })
    }

    /// Causal dilated 1-D convolution with a per-tap time mask fused into the
    /// weight gather: computes `conv(x, W ⊙ M)` without materialising
    /// `W ⊙ M`, and skips fully masked taps entirely.
    ///
    /// * `mask`: shape `[K]`, one multiplier per filter tap (the PIT mask
    ///   `M` of Eq. 3–5).
    ///
    /// # Errors
    ///
    /// Returns an error on rank, channel, bias or mask-shape mismatches or
    /// when `dilation == 0`.
    pub fn conv1d_causal_masked(
        &self,
        weight: &Tensor,
        mask: &Tensor,
        bias: Option<&Tensor>,
        dilation: usize,
    ) -> Result<Self> {
        let s = self.conv1d_check(weight, bias, Some(mask), dilation)?;
        let mut out = vec![0.0f32; s.n * s.c_out * s.t];
        crate::kernels::conv1d_forward(
            &self.data,
            &weight.data,
            bias.map(|b| b.data.as_slice()),
            Some(&mask.data),
            &s,
            &mut out,
        );
        Ok(Self {
            shape: Shape::new(&[s.n, s.c_out, s.t]),
            data: out,
        })
    }

    /// Gradient of [`Tensor::conv1d_causal`] with respect to the input.
    ///
    /// `grad_out` has shape `[N, C_out, T]`; the result has the input's shape
    /// `[N, C_in, T]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank mismatches or when `dilation == 0`.
    pub fn conv1d_causal_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        dilation: usize,
    ) -> Result<Self> {
        Self::conv1d_grad_input_impl(grad_out, weight, None, input_shape, dilation)
    }

    /// Gradient of [`Tensor::conv1d_causal_masked`] with respect to the
    /// input: like [`Tensor::conv1d_causal_grad_input`] but with the `[K]`
    /// time mask fused into the weight gather.
    ///
    /// # Errors
    ///
    /// Returns an error on rank or mask-shape mismatches or when
    /// `dilation == 0`.
    pub fn conv1d_causal_masked_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        mask: &Tensor,
        input_shape: &[usize],
        dilation: usize,
    ) -> Result<Self> {
        Self::conv1d_grad_input_impl(grad_out, weight, Some(mask), input_shape, dilation)
    }

    fn conv1d_grad_input_impl(
        grad_out: &Tensor,
        weight: &Tensor,
        mask: Option<&Tensor>,
        input_shape: &[usize],
        dilation: usize,
    ) -> Result<Self> {
        if grad_out.shape.rank() != 3 || weight.shape.rank() != 3 || input_shape.len() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv1d_causal_grad_input",
                expected: 3,
                actual: grad_out.shape.rank(),
            });
        }
        if dilation == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv1d_causal_grad_input",
                message: "dilation must be >= 1".into(),
            });
        }
        let (n, c_out, t) = (
            grad_out.shape.dim(0),
            grad_out.shape.dim(1),
            grad_out.shape.dim(2),
        );
        let (c_out_w, c_in, k) = (
            weight.shape.dim(0),
            weight.shape.dim(1),
            weight.shape.dim(2),
        );
        if c_out != c_out_w || input_shape[0] != n || input_shape[2] != t || input_shape[1] != c_in
        {
            return Err(TensorError::ShapeMismatch {
                op: "conv1d_causal_grad_input",
                lhs: grad_out.dims().to_vec(),
                rhs: weight.dims().to_vec(),
            });
        }
        if let Some(m) = mask {
            if m.dims() != [k] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv1d_causal_grad_input(mask)",
                    lhs: vec![k],
                    rhs: m.dims().to_vec(),
                });
            }
        }
        let s = crate::kernels::ConvShape {
            n,
            c_in,
            t,
            c_out,
            k,
            dilation,
        };
        let mut out = vec![0.0f32; n * c_in * t];
        crate::kernels::conv1d_grad_input(
            &grad_out.data,
            &weight.data,
            mask.map(|m| m.data.as_slice()),
            &s,
            &mut out,
        );
        Ok(Self {
            shape: Shape::new(&[n, c_in, t]),
            data: out,
        })
    }

    /// Gradient of [`Tensor::conv1d_causal`] with respect to the weights.
    ///
    /// `input` has shape `[N, C_in, T]`, `grad_out` has shape `[N, C_out, T]`;
    /// the result has the weight shape `[C_out, C_in, K]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank mismatches or when `dilation == 0`.
    pub fn conv1d_causal_grad_weight(
        input: &Tensor,
        grad_out: &Tensor,
        kernel_size: usize,
        dilation: usize,
    ) -> Result<Self> {
        if grad_out.shape.rank() != 3 || input.shape.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv1d_causal_grad_weight",
                expected: 3,
                actual: input.shape.rank(),
            });
        }
        if dilation == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv1d_causal_grad_weight",
                message: "dilation must be >= 1".into(),
            });
        }
        let (n, c_in, t) = (input.shape.dim(0), input.shape.dim(1), input.shape.dim(2));
        let (n2, c_out, t2) = (
            grad_out.shape.dim(0),
            grad_out.shape.dim(1),
            grad_out.shape.dim(2),
        );
        if n != n2 || t != t2 {
            return Err(TensorError::ShapeMismatch {
                op: "conv1d_causal_grad_weight",
                lhs: input.dims().to_vec(),
                rhs: grad_out.dims().to_vec(),
            });
        }
        let k = kernel_size;
        let s = crate::kernels::ConvShape {
            n,
            c_in,
            t,
            c_out,
            k,
            dilation,
        };
        let mut out = vec![0.0f32; c_out * c_in * k];
        crate::kernels::conv1d_grad_weight(&input.data, &grad_out.data, &s, &mut out);
        Ok(Self {
            shape: Shape::new(&[c_out, c_in, k]),
            data: out,
        })
    }

    /// The seed's nested-loop causal convolution, kept as the reference
    /// oracle for the im2col/GEMM kernels (tests and the `pit-bench`
    /// before/after suite).
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::conv1d_causal`].
    #[cfg(any(test, feature = "reference"))]
    pub fn conv1d_causal_naive(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        dilation: usize,
    ) -> Result<Self> {
        let s = self.conv1d_check(weight, bias, None, dilation)?;
        let mut out = vec![0.0f32; s.n * s.c_out * s.t];
        crate::kernels::naive_conv1d_forward(
            &self.data,
            &weight.data,
            bias.map(|b| b.data.as_slice()),
            &s,
            &mut out,
        );
        Ok(Self {
            shape: Shape::new(&[s.n, s.c_out, s.t]),
            data: out,
        })
    }

    /// Reference-oracle counterpart of [`Tensor::conv1d_causal_grad_input`]
    /// (the seed's nested-loop implementation).
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::conv1d_causal_grad_input`].
    #[cfg(any(test, feature = "reference"))]
    pub fn conv1d_causal_grad_input_naive(
        grad_out: &Tensor,
        weight: &Tensor,
        input_shape: &[usize],
        dilation: usize,
    ) -> Result<Self> {
        if grad_out.shape.rank() != 3 || weight.shape.rank() != 3 || input_shape.len() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv1d_causal_grad_input_naive",
                expected: 3,
                actual: grad_out.shape.rank(),
            });
        }
        let s = crate::kernels::ConvShape {
            n: input_shape[0],
            c_in: input_shape[1],
            t: input_shape[2],
            c_out: weight.shape.dim(0),
            k: weight.shape.dim(2),
            dilation,
        };
        let mut out = vec![0.0f32; s.n * s.c_in * s.t];
        crate::kernels::naive_conv1d_grad_input(&grad_out.data, &weight.data, &s, &mut out);
        Ok(Self {
            shape: Shape::new(&[s.n, s.c_in, s.t]),
            data: out,
        })
    }

    /// Reference-oracle counterpart of [`Tensor::conv1d_causal_grad_weight`]
    /// (the seed's nested-loop implementation).
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::conv1d_causal_grad_weight`].
    #[cfg(any(test, feature = "reference"))]
    pub fn conv1d_causal_grad_weight_naive(
        input: &Tensor,
        grad_out: &Tensor,
        kernel_size: usize,
        dilation: usize,
    ) -> Result<Self> {
        if grad_out.shape.rank() != 3 || input.shape.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv1d_causal_grad_weight_naive",
                expected: 3,
                actual: input.shape.rank(),
            });
        }
        let s = crate::kernels::ConvShape {
            n: input.shape.dim(0),
            c_in: input.shape.dim(1),
            t: input.shape.dim(2),
            c_out: grad_out.shape.dim(1),
            k: kernel_size,
            dilation,
        };
        let mut out = vec![0.0f32; s.c_out * s.c_in * s.k];
        crate::kernels::naive_conv1d_grad_weight(&input.data, &grad_out.data, &s, &mut out);
        Ok(Self {
            shape: Shape::new(&[s.c_out, s.c_in, s.k]),
            data: out,
        })
    }

    /// Average pooling over the time axis of a `[N, C, T]` tensor.
    ///
    /// The output length is `floor((T - kernel) / stride) + 1`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank mismatch, zero kernel/stride, or a kernel
    /// larger than the sequence.
    pub fn avg_pool1d(&self, kernel: usize, stride: usize) -> Result<Self> {
        if self.shape.rank() != 3 {
            return Err(TensorError::RankMismatch {
                op: "avg_pool1d",
                expected: 3,
                actual: self.shape.rank(),
            });
        }
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "avg_pool1d",
                message: "kernel and stride must be >= 1".into(),
            });
        }
        let (n, c, t) = (self.shape.dim(0), self.shape.dim(1), self.shape.dim(2));
        if kernel > t {
            return Err(TensorError::InvalidArgument {
                op: "avg_pool1d",
                message: format!("kernel {kernel} larger than sequence length {t}"),
            });
        }
        let t_out = (t - kernel) / stride + 1;
        let mut out = vec![0.0f32; n * c * t_out];
        let inv = 1.0 / kernel as f32;
        for bn in 0..n {
            for cc in 0..c {
                let in_base = (bn * c + cc) * t;
                let out_base = (bn * c + cc) * t_out;
                for to in 0..t_out {
                    let start = to * stride;
                    let mut acc = 0.0f32;
                    for kk in 0..kernel {
                        acc += self.data[in_base + start + kk];
                    }
                    out[out_base + to] = acc * inv;
                }
            }
        }
        Ok(Self {
            shape: Shape::new(&[n, c, t_out]),
            data: out,
        })
    }

    /// Gradient of [`Tensor::avg_pool1d`]: scatters `grad_out` back to the
    /// input positions.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes or parameters are inconsistent.
    pub fn avg_pool1d_grad(
        grad_out: &Tensor,
        input_shape: &[usize],
        kernel: usize,
        stride: usize,
    ) -> Result<Self> {
        if grad_out.shape.rank() != 3 || input_shape.len() != 3 {
            return Err(TensorError::RankMismatch {
                op: "avg_pool1d_grad",
                expected: 3,
                actual: grad_out.shape.rank(),
            });
        }
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "avg_pool1d_grad",
                message: "kernel and stride must be >= 1".into(),
            });
        }
        let (n, c, t) = (input_shape[0], input_shape[1], input_shape[2]);
        let t_out = grad_out.shape.dim(2);
        let mut out = vec![0.0f32; n * c * t];
        let inv = 1.0 / kernel as f32;
        for bn in 0..n {
            for cc in 0..c {
                let in_base = (bn * c + cc) * t;
                let out_base = (bn * c + cc) * t_out;
                for to in 0..t_out {
                    let g = grad_out.data[out_base + to] * inv;
                    let start = to * stride;
                    for kk in 0..kernel {
                        out[in_base + start + kk] += g;
                    }
                }
            }
        }
        Ok(Self {
            shape: Shape::new(&[n, c, t]),
            data: out,
        })
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// Returns `true` if every element differs from `other` by at most `tol`.
    ///
    /// Shapes must match exactly; otherwise returns `false`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape.same_as(&other.shape)
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute difference between two tensors of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same_as(&other.shape),
            "max_abs_diff requires identical shapes"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{} elements]", self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).sum_all(), 0.0);
        assert_eq!(Tensor::ones(&[4]).sum_all(), 4.0);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_length_check() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
        assert_eq!(a.mul_scalar(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.neg().data(), &[-1.0, -2.0, -3.0]);
        assert_eq!(t(&[-1.0, 2.0], &[2]).abs().data(), &[1.0, 2.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_all(), 6.0);
        assert_eq!(a.mean_all(), 1.5);
        assert_eq!(a.max_all(), 4.0);
        assert_eq!(a.min_all(), -2.0);
    }

    #[test]
    fn argmax_last_dim() {
        let a = t(&[0.1, 0.9, 0.5, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_last_dim(), vec![1, 0]);
    }

    #[test]
    fn matmul_basic() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2, 1]);
        assert!(a.matmul(&b).is_err());
        let a2 = t(&[1.0, 2.0], &[1, 2]);
        let b2 = t(&[1.0, 2.0, 3.0], &[3, 1]);
        assert!(a2.matmul(&b2).is_err());
    }

    #[test]
    fn transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose2().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn conv1d_identity_kernel() {
        // K = 1, single channel, weight = 1 should reproduce the input.
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = t(&[1.0], &[1, 1, 1]);
        let y = x.conv1d_causal(&w, None, 1).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv1d_causal_shifts() {
        // Kernel [w0, w1] with dilation 1: y[t] = w0*x[t] + w1*x[t-1].
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = t(&[1.0, 10.0], &[1, 1, 2]);
        let y = x.conv1d_causal(&w, None, 1).unwrap();
        assert_eq!(y.data(), &[1.0, 12.0, 23.0, 34.0]);
    }

    #[test]
    fn conv1d_causal_dilation() {
        // Kernel [w0, w1] with dilation 2: y[t] = w0*x[t] + w1*x[t-2].
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = t(&[1.0, 10.0], &[1, 1, 2]);
        let y = x.conv1d_causal(&w, None, 2).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 13.0, 24.0]);
    }

    #[test]
    fn conv1d_bias_and_channels() {
        // Two input channels summed, bias added.
        let x = t(&[1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let w = t(&[1.0, 1.0], &[1, 2, 1]);
        let b = t(&[100.0], &[1]);
        let y = x.conv1d_causal(&w, Some(&b), 1).unwrap();
        assert_eq!(y.data(), &[111.0, 122.0]);
    }

    #[test]
    fn conv1d_dilation_equivalence_with_zero_padded_kernel() {
        // A dilation-2 kernel [a, b] equals a dilation-1 kernel [a, 0, b].
        let x = t(&[0.5, -1.0, 2.0, 3.0, 1.0, -2.0], &[1, 1, 6]);
        let w2 = t(&[0.3, -0.7], &[1, 1, 2]);
        let w1 = t(&[0.3, 0.0, -0.7], &[1, 1, 3]);
        let y2 = x.conv1d_causal(&w2, None, 2).unwrap();
        let y1 = x.conv1d_causal(&w1, None, 1).unwrap();
        assert!(y1.approx_eq(&y2, 1e-6));
    }

    #[test]
    fn conv1d_grad_shapes() {
        let x = Tensor::ones(&[2, 3, 8]);
        let w = Tensor::ones(&[4, 3, 2]);
        let y = x.conv1d_causal(&w, None, 2).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8]);
        let gx = Tensor::conv1d_causal_grad_input(&y, &w, &[2, 3, 8], 2).unwrap();
        assert_eq!(gx.dims(), &[2, 3, 8]);
        let gw = Tensor::conv1d_causal_grad_weight(&x, &y, 2, 2).unwrap();
        assert_eq!(gw.dims(), &[4, 3, 2]);
    }

    #[test]
    fn conv1d_errors() {
        let x = Tensor::ones(&[1, 1, 4]);
        let w = Tensor::ones(&[1, 2, 2]);
        assert!(x.conv1d_causal(&w, None, 1).is_err()); // channel mismatch
        let w_ok = Tensor::ones(&[1, 1, 2]);
        assert!(x.conv1d_causal(&w_ok, None, 0).is_err()); // zero dilation
        let bad_bias = Tensor::ones(&[2]);
        assert!(x.conv1d_causal(&w_ok, Some(&bad_bias), 1).is_err());
    }

    #[test]
    fn avg_pool_forward_and_grad() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 1, 6]);
        let y = x.avg_pool1d(2, 2).unwrap();
        assert_eq!(y.dims(), &[1, 1, 3]);
        assert_eq!(y.data(), &[1.5, 3.5, 5.5]);
        let g = Tensor::avg_pool1d_grad(&Tensor::ones(&[1, 1, 3]), &[1, 1, 6], 2, 2).unwrap();
        assert_eq!(g.data(), &[0.5, 0.5, 0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn avg_pool_errors() {
        let x = Tensor::ones(&[1, 1, 3]);
        assert!(x.avg_pool1d(0, 1).is_err());
        assert!(x.avg_pool1d(4, 1).is_err());
        assert!(Tensor::ones(&[3]).avg_pool1d(1, 1).is_err());
    }

    #[test]
    fn reshape_checks_volume() {
        let a = Tensor::arange(6);
        assert!(a.reshape(&[2, 3]).is_ok());
        assert!(a.reshape(&[4]).is_err());
    }

    #[test]
    fn accessors_at_set() {
        let mut a = Tensor::zeros(&[2, 2]);
        a.set(&[1, 0], 5.0).unwrap();
        assert_eq!(a.at(&[1, 0]).unwrap(), 5.0);
        assert!(a.at(&[2, 0]).is_err());
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0001, 2.0], &[2]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-6));
        assert!((a.max_abs_diff(&b) - 0.0001).abs() < 1e-6);
        let c = t(&[1.0], &[1]);
        assert!(!a.approx_eq(&c, 1.0));
    }
}
