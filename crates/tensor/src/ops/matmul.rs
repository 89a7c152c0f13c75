//! Dense matrix multiplication with reverse-mode gradients.

use crate::tape::{Tape, Var};

impl Tape {
    /// Matrix product of two rank-2 nodes: `[M, K] x [K, N] -> [M, N]`.
    ///
    /// Gradients: `dA = dY · Bᵀ`, `dB = Aᵀ · dY`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self
            .value(a)
            .matmul(self.value(b))
            .unwrap_or_else(|e| panic!("tape matmul: {e}"));
        self.push_binary(a, b, value, |g, a, b| {
            let bt = b.transpose2().expect("matmul backward transpose");
            let at = a.transpose2().expect("matmul backward transpose");
            let ga = g.matmul(&bt).expect("matmul backward dA");
            let gb = at.matmul(g).expect("matmul backward dB");
            (ga, gb)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_param_grad;
    use crate::param::Param;
    use crate::tensor::Tensor;

    #[test]
    fn forward_matches_raw_kernel() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let mut tape = Tape::new();
        let va = tape.constant(a.clone());
        let vb = tape.constant(b.clone());
        let vc = tape.matmul(va, vb);
        assert_eq!(tape.value(vc).data(), a.matmul(&b).unwrap().data());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let a = Param::new(
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.5, -0.7], &[2, 3]).unwrap(),
            "a",
        );
        let b = Param::new(
            Tensor::from_vec(vec![1.0, 0.2, -0.4, 0.9, 1.1, -0.6], &[3, 2]).unwrap(),
            "b",
        );
        let forward = {
            let a = a.clone();
            let b = b.clone();
            move || {
                let mut tape = Tape::new();
                let va = tape.param(&a);
                let vb = tape.param(&b);
                let vc = tape.matmul(va, vb);
                let sq = tape.square(vc);
                let loss = tape.sum(sq);
                tape.value(loss).item()
            }
        };
        a.zero_grad();
        b.zero_grad();
        {
            let mut tape = Tape::new();
            let va = tape.param(&a);
            let vb = tape.param(&b);
            let vc = tape.matmul(va, vb);
            let sq = tape.square(vc);
            let loss = tape.sum(sq);
            tape.backward(loss);
        }
        let err_a = check_param_grad(&a, &a.grad(), &forward, 1e-3);
        let err_b = check_param_grad(&b, &b.grad(), &forward, 1e-3);
        assert!(err_a < 2e-2, "matmul dA mismatch: {err_a}");
        assert!(err_b < 2e-2, "matmul dB mismatch: {err_b}");
    }
}
