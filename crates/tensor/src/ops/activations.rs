//! Non-linear activations and dropout.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Rectified linear unit: `max(x, 0)`.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| v.max(0.0));
        self.push_unary(x, value, |g, x, _| {
            g.zip_map(x, |gi, xi| if xi > 0.0 { gi } else { 0.0 })
                .expect("relu backward shape")
        })
    }

    /// Logistic sigmoid `1 / (1 + exp(-x))`.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push_unary(x, value, |g, _, y| {
            g.zip_map(y, |gi, yi| gi * yi * (1.0 - yi))
                .expect("sigmoid backward shape")
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.value(x).map(f32::tanh);
        self.push_unary(x, value, |g, _, y| {
            g.zip_map(y, |gi, yi| gi * (1.0 - yi * yi))
                .expect("tanh backward shape")
        })
    }

    /// Dropout with a caller-supplied keep mask.
    ///
    /// `mask` must have the same shape as `x` and contain `0.0` for dropped
    /// positions and `1 / (1 - p)` (inverted-dropout scaling) for kept ones.
    /// The same mask is applied in the backward pass. Layers build the mask
    /// from their RNG so the op itself stays deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the input shape.
    pub fn dropout_with_mask(&mut self, x: Var, mask: Tensor) -> Var {
        let value = self
            .value(x)
            .mul(&mask)
            .unwrap_or_else(|e| panic!("dropout_with_mask: {e}"));
        self.push_unary(x, value, move |g, _, _| {
            g.mul(&mask).expect("dropout backward shape")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_param_grad;
    use crate::param::Param;

    #[test]
    fn relu_forward_and_grad() {
        let p = Param::new(Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap(), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let y = tape.relu(x);
        assert_eq!(tape.value(y).data(), &[0.0, 0.0, 2.0]);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(p.grad().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let p = Param::new(Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[3]).unwrap(), "p");
        let forward = {
            let p = p.clone();
            move || {
                let mut tape = Tape::new();
                let x = tape.param(&p);
                let y = tape.sigmoid(x);
                let loss = tape.sum(y);
                tape.value(loss).item()
            }
        };
        {
            let mut tape = Tape::new();
            let x = tape.param(&p);
            let y = tape.sigmoid(x);
            assert!(tape
                .value(y)
                .data()
                .iter()
                .all(|&v| (0.0..=1.0).contains(&v)));
            assert!((tape.value(y).data()[1] - 0.5).abs() < 1e-6);
            let loss = tape.sum(y);
            tape.backward(loss);
        }
        assert!(check_param_grad(&p, &p.grad(), &forward, 1e-3) < 1e-2);
    }

    #[test]
    fn tanh_grad_matches_finite_differences() {
        let p = Param::new(Tensor::from_vec(vec![-0.5, 0.25, 1.5], &[3]).unwrap(), "p");
        let forward = {
            let p = p.clone();
            move || {
                let mut tape = Tape::new();
                let x = tape.param(&p);
                let y = tape.tanh(x);
                let sq = tape.square(y);
                let loss = tape.sum(sq);
                tape.value(loss).item()
            }
        };
        {
            let mut tape = Tape::new();
            let x = tape.param(&p);
            let y = tape.tanh(x);
            let sq = tape.square(y);
            let loss = tape.sum(sq);
            tape.backward(loss);
        }
        assert!(check_param_grad(&p, &p.grad(), &forward, 1e-3) < 1e-2);
    }

    #[test]
    fn dropout_mask_applies_forward_and_backward() {
        let p = Param::new(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap(),
            "p",
        );
        let mask = Tensor::from_vec(vec![0.0, 2.0, 0.0, 2.0], &[4]).unwrap();
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let y = tape.dropout_with_mask(x, mask);
        assert_eq!(tape.value(y).data(), &[0.0, 4.0, 0.0, 8.0]);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(p.grad().data(), &[0.0, 2.0, 0.0, 2.0]);
    }
}
