//! Full reductions to rank-0 scalars.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Sum of all elements, producing a scalar node.
    pub fn sum(&mut self, x: Var) -> Var {
        let value = Tensor::scalar(self.value(x).sum_all());
        self.push_unary(x, value, |g, x, _| Tensor::full(x.dims(), g.item()))
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean(&mut self, x: Var) -> Var {
        let value = Tensor::scalar(self.value(x).mean_all());
        self.push_unary(x, value, |g, x, _| {
            Tensor::full(x.dims(), g.item() / x.len().max(1) as f32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    #[test]
    fn sum_gradient_is_ones() {
        let p = Param::new(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let s = tape.sum(x);
        assert_eq!(tape.value(s).item(), 6.0);
        tape.backward(s);
        assert_eq!(p.grad().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn mean_gradient_is_uniform() {
        let p = Param::new(
            Tensor::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[2, 2]).unwrap(),
            "p",
        );
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let m = tape.mean(x);
        assert_eq!(tape.value(m).item(), 5.0);
        tape.backward(m);
        assert!(p.grad().data().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }
}
