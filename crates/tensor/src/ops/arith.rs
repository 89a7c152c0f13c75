//! Element-wise arithmetic and bias-broadcast operations.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use std::ops::Range;

/// The rows of a `[N, C, T]` buffer in memory order (batch-major): each
/// row's channel and the index range of its `T` values.
pub(crate) fn channel_rows(dims: &[usize]) -> impl Iterator<Item = (usize, Range<usize>)> {
    let (n, c, t) = (dims[0], dims[1], dims[2]);
    (0..n * c).map(move |row| (row % c, row * t..(row + 1) * t))
}

/// `f(c, v)` for every value `v` of `a` in channel `c`, with `a`'s buffer
/// read as `[N, C, T]` with `dims`; the result has `a`'s shape.
pub(crate) fn map_channels(a: &Tensor, dims: &[usize], f: impl Fn(usize, f32) -> f32) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    for (cc, row) in channel_rows(dims) {
        for (o, &v) in out.data_mut()[row.clone()].iter_mut().zip(&a.data()[row]) {
            *o = f(cc, v);
        }
    }
    out
}

/// Per-channel sums over a `[N, C, T]` buffer (`dims`): channel `c` adds
/// `term(c, i)` for each of its indices `i` in one f32 chain, batch-major,
/// then over time.
pub(crate) fn channel_sums(dims: &[usize], term: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut sums = vec![0.0f32; dims[1]];
    for (cc, row) in channel_rows(dims) {
        sums[cc] = row.fold(sums[cc], |acc, i| acc + term(cc, i));
    }
    sums
}

impl Tape {
    /// Element-wise addition of two nodes with identical shapes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self
            .value(a)
            .add(self.value(b))
            .unwrap_or_else(|e| panic!("tape add: {e}"));
        self.push_binary(a, b, value, |g, _, _| (g.clone(), g.clone()))
    }

    /// Element-wise subtraction `a - b` of two nodes with identical shapes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self
            .value(a)
            .sub(self.value(b))
            .unwrap_or_else(|e| panic!("tape sub: {e}"));
        self.push_binary(a, b, value, |g, _, _| (g.clone(), g.neg()))
    }

    /// Element-wise multiplication of two nodes with identical shapes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self
            .value(a)
            .mul(self.value(b))
            .unwrap_or_else(|e| panic!("tape mul: {e}"));
        self.push_binary(a, b, value, |g, a, b| {
            (
                g.mul(b).expect("mul backward shape"),
                g.mul(a).expect("mul backward shape"),
            )
        })
    }

    /// Multiplies every element of `a` by the constant `s`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).mul_scalar(s);
        self.push_unary(a, value, move |g, _, _| g.mul_scalar(s))
    }

    /// Adds the constant `s` to every element of `a`.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).add_scalar(s);
        self.push_unary(a, value, |g, _, _| g.clone())
    }

    /// Element-wise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let value = self.value(a).neg();
        self.push_unary(a, value, |g, _, _| g.neg())
    }

    /// Element-wise absolute value (sub-gradient 0 at 0).
    pub fn abs(&mut self, a: Var) -> Var {
        let value = self.value(a).abs();
        self.push_unary(a, value, |g, x, _| {
            g.zip_map(x, |gi, xi| {
                gi * xi.signum() * if xi == 0.0 { 0.0 } else { 1.0 }
            })
            .expect("abs backward shape")
        })
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x * x);
        self.push_unary(a, value, |g, x, _| {
            g.zip_map(x, |gi, xi| gi * 2.0 * xi)
                .expect("square backward shape")
        })
    }

    /// Adds a per-channel bias `b` of shape `[C]` to a `[N, C, T]` activation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 3 or the bias length does not match `C`.
    pub fn add_bias_channels(&mut self, x: Var, b: Var) -> Var {
        let dims = self.dims(x);
        assert_eq!(dims.len(), 3, "add_bias_channels expects [N, C, T]");
        assert_eq!(
            self.value(b).dims(),
            [dims[1]],
            "add_bias_channels: bias must have shape [C]"
        );
        self.add_channel_bias(x, b, [dims[0], dims[1], dims[2]])
    }

    /// Adds a row bias `b` of shape `[F]` to a `[N, F]` activation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 or the bias length does not match `F`.
    pub fn add_bias_rows(&mut self, x: Var, b: Var) -> Var {
        let dims = self.dims(x);
        assert_eq!(dims.len(), 2, "add_bias_rows expects [N, F]");
        assert_eq!(
            self.value(b).dims(),
            [dims[1]],
            "add_bias_rows: bias must have shape [F]"
        );
        self.add_channel_bias(x, b, [dims[0], dims[1], 1])
    }

    /// Adds `b[c]` to channel `c` of `x`, whose buffer is read as `[N, C, T]`
    /// with `dims`; the bias gradient sums each channel batch-major.
    fn add_channel_bias(&mut self, x: Var, b: Var, dims: [usize; 3]) -> Var {
        let bv = self.value(b);
        let out = map_channels(self.value(x), &dims, |cc, v| v + bv.data()[cc]);
        self.push_binary(x, b, out, move |g, _, b| {
            let gb = channel_sums(&dims, |_, i| g.data()[i]);
            (
                g.clone(),
                Tensor::from_vec(gb, b.dims()).expect("bias grad shape"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn scalar_param(v: f32) -> Param {
        Param::new(Tensor::from_vec(vec![v], &[1]).unwrap(), "p")
    }

    #[test]
    fn add_sub_gradients() {
        let a = scalar_param(2.0);
        let b = scalar_param(5.0);
        let mut tape = Tape::new();
        let va = tape.param(&a);
        let vb = tape.param(&b);
        let s = tape.sub(va, vb); // a - b
        let loss = tape.sum(s);
        tape.backward(loss);
        assert_eq!(a.grad().data(), &[1.0]);
        assert_eq!(b.grad().data(), &[-1.0]);
    }

    #[test]
    fn mul_gradient() {
        let a = scalar_param(3.0);
        let b = scalar_param(4.0);
        let mut tape = Tape::new();
        let va = tape.param(&a);
        let vb = tape.param(&b);
        let m = tape.mul(va, vb);
        let loss = tape.sum(m);
        tape.backward(loss);
        assert_eq!(a.grad().data(), &[4.0]);
        assert_eq!(b.grad().data(), &[3.0]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let a = scalar_param(2.0);
        let mut tape = Tape::new();
        let va = tape.param(&a);
        let v = tape.scale(va, 3.0);
        let v = tape.add_scalar(v, 1.0);
        assert_eq!(tape.value(v).data(), &[7.0]);
        let loss = tape.sum(v);
        tape.backward(loss);
        assert_eq!(a.grad().data(), &[3.0]);
    }

    #[test]
    fn neg_abs_square() {
        let a = Param::new(Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap(), "a");
        let mut tape = Tape::new();
        let va = tape.param(&a);
        let v = tape.abs(va);
        assert_eq!(tape.value(v).data(), &[2.0, 3.0]);
        let loss = tape.sum(v);
        tape.backward(loss);
        assert_eq!(a.grad().data(), &[-1.0, 1.0]);

        let b = Param::new(Tensor::from_vec(vec![-2.0, 3.0], &[2]).unwrap(), "b");
        let mut tape = Tape::new();
        let vb = tape.param(&b);
        let v = tape.square(vb);
        let v = tape.neg(v);
        let loss = tape.sum(v);
        tape.backward(loss);
        assert_eq!(b.grad().data(), &[4.0, -6.0]);
    }

    #[test]
    fn bias_channels_forward_and_grad() {
        let x = Param::new(Tensor::zeros(&[2, 2, 3]), "x");
        let b = Param::new(Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap(), "b");
        let mut tape = Tape::new();
        let vx = tape.param(&x);
        let vb = tape.param(&b);
        let y = tape.add_bias_channels(vx, vb);
        assert_eq!(tape.value(y).data()[0..3], [1.0, 1.0, 1.0]);
        assert_eq!(tape.value(y).data()[3..6], [-1.0, -1.0, -1.0]);
        let loss = tape.sum(y);
        tape.backward(loss);
        // Each channel bias receives N * T = 2 * 3 = 6 gradient units.
        assert_eq!(b.grad().data(), &[6.0, 6.0]);
        assert_eq!(x.grad().sum_all(), 12.0);
    }

    #[test]
    fn bias_rows_forward_and_grad() {
        let x = Param::new(Tensor::zeros(&[3, 2]), "x");
        let b = Param::new(Tensor::from_vec(vec![0.5, 1.5], &[2]).unwrap(), "b");
        let mut tape = Tape::new();
        let vx = tape.param(&x);
        let vb = tape.param(&b);
        let y = tape.add_bias_rows(vx, vb);
        assert_eq!(tape.value(y).data(), &[0.5, 1.5, 0.5, 1.5, 0.5, 1.5]);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(b.grad().data(), &[3.0, 3.0]);
    }
}
