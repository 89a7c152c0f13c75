//! Pooling operations over the time axis.

use super::arith::channel_rows;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Average pooling over the time axis of a `[N, C, T]` node.
    ///
    /// The output length is `floor((T - kernel) / stride) + 1`.
    ///
    /// # Panics
    ///
    /// Panics on invalid kernel/stride or rank mismatch.
    pub fn avg_pool1d(&mut self, x: Var, kernel: usize, stride: usize) -> Var {
        let value = self
            .value(x)
            .avg_pool1d(kernel, stride)
            .unwrap_or_else(|e| panic!("tape avg_pool1d: {e}"));
        self.push_unary(x, value, move |g, x, _| {
            Tensor::avg_pool1d_grad(g, x.dims(), kernel, stride).expect("avg_pool1d backward")
        })
    }

    /// Global average pooling over the time axis: `[N, C, T] -> [N, C]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 3.
    pub fn global_avg_pool_time(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.dims().len(), 3, "global_avg_pool_time expects [N, C, T]");
        let (n, c, t) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        let out = channel_rows(xv.dims())
            .map(|(_, row)| xv.data()[row].iter().fold(0.0f32, |acc, &v| acc + v) / t as f32)
            .collect();
        let value = Tensor::from_vec(out, &[n, c]).expect("gap shape");
        self.push_unary(x, value, move |g, x, _| {
            let mut gx = Tensor::zeros(x.dims());
            let inv = 1.0 / t as f32;
            for (r, (_, row)) in channel_rows(x.dims()).enumerate() {
                gx.data_mut()[row].fill(g.data()[r] * inv);
            }
            gx
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    #[test]
    fn avg_pool_forward_and_grad() {
        let x = Param::new(
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0], &[1, 2, 4]).unwrap(),
            "x",
        );
        let mut tape = Tape::new();
        let vx = tape.param(&x);
        let y = tape.avg_pool1d(vx, 2, 2);
        assert_eq!(tape.dims(y), vec![1, 2, 2]);
        assert_eq!(tape.value(y).data(), &[2.0, 6.0, 3.0, 7.0]);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert!(x.grad().data().iter().all(|&g| (g - 0.5).abs() < 1e-6));
    }

    #[test]
    fn global_avg_pool_forward_and_grad() {
        let x = Param::new(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0], &[1, 2, 3]).unwrap(),
            "x",
        );
        let mut tape = Tape::new();
        let vx = tape.param(&x);
        let y = tape.global_avg_pool_time(vx);
        assert_eq!(tape.value(y).data(), &[2.0, 20.0]);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert!(x
            .grad()
            .data()
            .iter()
            .all(|&g| (g - 1.0 / 3.0).abs() < 1e-6));
    }
}
