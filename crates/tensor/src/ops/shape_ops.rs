//! Shape-changing operations (reshape, flatten).

use crate::tape::{Tape, Var};

impl Tape {
    /// Reshapes a node to a new shape of identical volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(&mut self, x: Var, shape: &[usize]) -> Var {
        let value = self
            .value(x)
            .reshape(shape)
            .unwrap_or_else(|e| panic!("tape reshape: {e}"));
        self.push_unary(x, value, |g, x, _| {
            g.reshape(x.dims()).expect("reshape backward")
        })
    }

    /// Flattens all dimensions after the first: `[N, d1, d2, ...] -> [N, d1*d2*...]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has rank 0.
    pub fn flatten_batch(&mut self, x: Var) -> Var {
        let dims = self.dims(x);
        assert!(!dims.is_empty(), "flatten_batch requires rank >= 1");
        let n = dims[0];
        let rest: usize = dims[1..].iter().product::<usize>().max(1);
        self.reshape(x, &[n, rest])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::tensor::Tensor;

    #[test]
    fn reshape_roundtrips_gradient() {
        let p = Param::new(Tensor::arange(6), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let y = tape.reshape(x, &[2, 3]);
        assert_eq!(tape.dims(y), vec![2, 3]);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(p.grad().dims(), &[6]);
        assert_eq!(p.grad().sum_all(), 6.0);
    }

    #[test]
    fn flatten_batch_merges_trailing_dims() {
        let p = Param::new(Tensor::zeros(&[2, 3, 4]), "p");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let y = tape.flatten_batch(x);
        assert_eq!(tape.dims(y), vec![2, 12]);
    }

    #[test]
    #[should_panic]
    fn reshape_with_wrong_volume_panics() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[4]));
        let _ = tape.reshape(x, &[3]);
    }
}
