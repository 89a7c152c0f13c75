//! Causal dilated 1-D convolution with reverse-mode gradients.

use super::mask::split_time_mask_grad;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// Causal dilated 1-D convolution.
    ///
    /// * `x`: input node of shape `[N, C_in, T]`
    /// * `w`: filter node of shape `[C_out, C_in, K]`
    /// * `bias`: optional bias node of shape `[C_out]`
    /// * `dilation`: time step between consecutive taps (>= 1)
    ///
    /// Implements Eq. (1) of the PIT paper: the output at time `t` only
    /// depends on inputs at times `<= t` (left zero padding).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or `dilation == 0`.
    pub fn conv1d_causal(&mut self, x: Var, w: Var, bias: Option<Var>, dilation: usize) -> Var {
        let value = self
            .value(x)
            .conv1d_causal(self.value(w), None, dilation)
            .unwrap_or_else(|e| panic!("tape conv1d_causal: {e}"));
        let conv = self.push_binary(x, w, value, move |g, x, w| {
            let gx = Tensor::conv1d_causal_grad_input(g, w, x.dims(), dilation)
                .expect("conv1d backward input");
            let gw = Tensor::conv1d_causal_grad_weight(x, g, w.dims()[2], dilation)
                .expect("conv1d backward weight");
            (gx, gw)
        });
        match bias {
            Some(b) => self.add_bias_channels(conv, b),
            None => conv,
        }
    }

    /// Causal dilated 1-D convolution with the PIT time mask fused into the
    /// weight gather: computes `conv1d(x, w ⊙ m)` in one pass, without
    /// recording a materialised `w ⊙ m` node (Eq. 1 + Eq. 5 of the paper).
    ///
    /// * `x`: input node of shape `[N, C_in, T]`
    /// * `w`: filter node of shape `[C_out, C_in, K]`
    /// * `m`: time-mask node of shape `[K]`
    /// * `bias`: optional bias node of shape `[C_out]`
    ///
    /// Fully masked taps are skipped by the forward and input-gradient
    /// kernels, so a pruned layer trains at close to the cost of the dilated
    /// network it deploys as. The weight gradient stays dense: the
    /// straight-through estimator needs `∂L/∂m` at currently-masked taps to
    /// let γ recover them.
    ///
    /// Gradients: `dx = conv_grad_input(g, w ⊙ m)`,
    /// `dw = conv_grad_weight(x, g) ⊙ m`,
    /// `dm[k] = Σ_{co, ci} conv_grad_weight(x, g)[co, ci, k] · w[co, ci, k]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or `dilation == 0`.
    pub fn conv1d_causal_masked(
        &mut self,
        x: Var,
        w: Var,
        m: Var,
        bias: Option<Var>,
        dilation: usize,
    ) -> Var {
        let value = self
            .value(x)
            .conv1d_causal_masked(self.value(w), self.value(m), None, dilation)
            .unwrap_or_else(|e| panic!("tape conv1d_causal_masked: {e}"));
        let conv = self.push_ternary(x, w, m, value, move |g, x, w, m| {
            let gx = Tensor::conv1d_causal_masked_grad_input(g, w, m, x.dims(), dilation)
                .expect("masked conv backward input");
            let gwm = Tensor::conv1d_causal_grad_weight(x, g, w.dims()[2], dilation)
                .expect("masked conv backward weight");
            let (gw, gm) = split_time_mask_grad(gwm, w, m);
            (gx, gw, gm)
        });
        match bias {
            Some(b) => self.add_bias_channels(conv, b),
            None => conv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_param_grad;
    use crate::init;
    use crate::param::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_raw_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::uniform(&mut rng, &[2, 3, 10], 1.0);
        let w = init::uniform(&mut rng, &[4, 3, 3], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let vw = tape.constant(w.clone());
        let vy = tape.conv1d_causal(vx, vw, None, 2);
        assert!(tape
            .value(vy)
            .approx_eq(&x.conv1d_causal(&w, None, 2).unwrap(), 1e-6));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Param::new(init::uniform(&mut rng, &[1, 2, 6], 1.0), "x");
        let w = Param::new(init::uniform(&mut rng, &[2, 2, 3], 1.0), "w");
        let b = Param::new(init::uniform(&mut rng, &[2], 1.0), "b");
        for dilation in [1usize, 2] {
            let forward = {
                let (x, w, b) = (x.clone(), w.clone(), b.clone());
                move || {
                    let mut tape = Tape::new();
                    let vx = tape.param(&x);
                    let vw = tape.param(&w);
                    let vb = tape.param(&b);
                    let vy = tape.conv1d_causal(vx, vw, Some(vb), dilation);
                    let sq = tape.square(vy);
                    let loss = tape.sum(sq);
                    tape.value(loss).item()
                }
            };
            x.zero_grad();
            w.zero_grad();
            b.zero_grad();
            {
                let mut tape = Tape::new();
                let vx = tape.param(&x);
                let vw = tape.param(&w);
                let vb = tape.param(&b);
                let vy = tape.conv1d_causal(vx, vw, Some(vb), dilation);
                let sq = tape.square(vy);
                let loss = tape.sum(sq);
                tape.backward(loss);
            }
            assert!(
                check_param_grad(&x, &x.grad(), &forward, 1e-3) < 2e-2,
                "dX mismatch (d={dilation})"
            );
            assert!(
                check_param_grad(&w, &w.grad(), &forward, 1e-3) < 2e-2,
                "dW mismatch (d={dilation})"
            );
            assert!(
                check_param_grad(&b, &b.grad(), &forward, 1e-3) < 2e-2,
                "dB mismatch (d={dilation})"
            );
        }
    }

    #[test]
    fn fused_masked_conv_matches_unfused_composition() {
        // conv1d_causal_masked(x, w, m) must equal
        // conv1d_causal(x, mul_time_mask(w, m)) in value AND in every gradient.
        let mut rng = StdRng::seed_from_u64(21);
        let x = Param::new(init::uniform(&mut rng, &[2, 3, 12], 1.0), "x");
        let w = Param::new(init::uniform(&mut rng, &[4, 3, 5], 1.0), "w");
        let b = Param::new(init::uniform(&mut rng, &[4], 1.0), "b");
        // Non-binary mask values, including an exact zero, to exercise the
        // skipped-tap path and the generic product rule.
        let m = Param::new(
            Tensor::from_vec(vec![1.0, 0.0, 0.5, 2.0, 0.0], &[5]).unwrap(),
            "m",
        );

        let run = |fused: bool| -> (Tensor, Vec<Vec<f32>>) {
            for p in [&x, &w, &b, &m] {
                p.zero_grad();
            }
            let mut tape = Tape::new();
            let vx = tape.param(&x);
            let vw = tape.param(&w);
            let vb = tape.param(&b);
            let vm = tape.param(&m);
            let y = if fused {
                tape.conv1d_causal_masked(vx, vw, vm, Some(vb), 2)
            } else {
                let wm = tape.mul_time_mask(vw, vm);
                tape.conv1d_causal(vx, wm, Some(vb), 2)
            };
            let sq = tape.square(y);
            let loss = tape.sum(sq);
            tape.backward(loss);
            let grads = [&x, &w, &b, &m]
                .iter()
                .map(|p| p.grad().data().to_vec())
                .collect();
            (tape.value(y).clone(), grads)
        };

        let (y_fused, g_fused) = run(true);
        let (y_unfused, g_unfused) = run(false);
        assert!(y_fused.approx_eq(&y_unfused, 1e-5), "forward mismatch");
        for (name, (gf, gu)) in ["x", "w", "b", "m"]
            .iter()
            .zip(g_fused.iter().zip(&g_unfused))
        {
            let diff = gf
                .iter()
                .zip(gu.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-4, "d{name} mismatch: {diff}");
        }
    }

    #[test]
    fn fused_masked_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(22);
        let x = Param::new(init::uniform(&mut rng, &[1, 2, 8], 1.0), "x");
        let w = Param::new(init::uniform(&mut rng, &[2, 2, 3], 1.0), "w");
        let m = Param::new(Tensor::from_vec(vec![1.0, 0.4, 0.9], &[3]).unwrap(), "m");
        let forward = {
            let (x, w, m) = (x.clone(), w.clone(), m.clone());
            move || {
                let mut tape = Tape::new();
                let vx = tape.param(&x);
                let vw = tape.param(&w);
                let vm = tape.param(&m);
                let y = tape.conv1d_causal_masked(vx, vw, vm, None, 2);
                let sq = tape.square(y);
                let loss = tape.sum(sq);
                tape.value(loss).item()
            }
        };
        for p in [&x, &w, &m] {
            p.zero_grad();
        }
        {
            let mut tape = Tape::new();
            let vx = tape.param(&x);
            let vw = tape.param(&w);
            let vm = tape.param(&m);
            let y = tape.conv1d_causal_masked(vx, vw, vm, None, 2);
            let sq = tape.square(y);
            let loss = tape.sum(sq);
            tape.backward(loss);
        }
        assert!(check_param_grad(&x, &x.grad(), &forward, 1e-3) < 2e-2, "dX");
        assert!(check_param_grad(&w, &w.grad(), &forward, 1e-3) < 2e-2, "dW");
        assert!(check_param_grad(&m, &m.grad(), &forward, 1e-3) < 2e-2, "dM");
    }

    #[test]
    fn fast_tape_conv_matches_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(23);
        // Odd geometry on purpose: see the kernel-level oracle tests for the
        // full grid; this checks the tape wiring end to end.
        let x = init::uniform(&mut rng, &[1, 5, 19], 1.0);
        let w = init::uniform(&mut rng, &[7, 5, 4], 1.0);
        let y_fast = x.conv1d_causal(&w, None, 3).unwrap();
        let y_naive = x.conv1d_causal_naive(&w, None, 3).unwrap();
        assert!(y_fast.approx_eq(&y_naive, 1e-4));
    }
}
