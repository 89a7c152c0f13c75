//! Batch normalisation over `[N, C, T]` activations.

use super::arith::{channel_rows, channel_sums, map_channels};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Batch statistics produced by [`Tape::batch_norm1d`], used by layers to
/// update their running estimates for inference.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Per-channel mean of the current batch, shape `[C]`.
    pub mean: Tensor,
    /// Per-channel (biased) variance of the current batch, shape `[C]`.
    pub var: Tensor,
}

impl Tape {
    /// Training-mode batch normalisation of a `[N, C, T]` node.
    ///
    /// Normalises each channel over the batch and time axes, then applies the
    /// learnable affine transform `gamma * x̂ + beta` (`gamma`, `beta` of
    /// shape `[C]`). Returns the output node together with the batch
    /// statistics so the calling layer can maintain running averages.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn batch_norm1d(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> (Var, BatchStats) {
        let (xv, gv, bv) = (self.value(x), self.value(gamma), self.value(beta));
        assert_eq!(xv.dims().len(), 3, "batch_norm1d expects [N, C, T]");
        let (n, c, t) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        assert_eq!(gv.dims(), [c], "batch_norm1d: gamma must have shape [C]");
        assert_eq!(bv.dims(), [c], "batch_norm1d: beta must have shape [C]");
        let m = (n * t) as f32;

        let dims = xv.dims();
        let mut mean = channel_sums(dims, |_, i| xv.data()[i]);
        mean.iter_mut().for_each(|mu| *mu /= m);
        let mut var = channel_sums(dims, |cc, i| {
            let d = xv.data()[i] - mean[cc];
            d * d
        });
        var.iter_mut().for_each(|v| *v /= m);
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let xhat = map_channels(xv, dims, |cc, v| (v - mean[cc]) * inv_std[cc]);
        let out = map_channels(&xhat, dims, |cc, h| gv.data()[cc] * h + bv.data()[cc]);

        let stats = BatchStats {
            mean: Tensor::from_vec(mean, &[c]).expect("bn mean shape"),
            var: Tensor::from_vec(var, &[c]).expect("bn var shape"),
        };
        let node = self.push_ternary(x, gamma, beta, out, move |g, _, gamma, _| {
            // Standard batch-norm backward over (N, T) per channel.
            let sum_dy = channel_sums(g.dims(), |_, i| g.data()[i]);
            let sum_dy_xhat = channel_sums(g.dims(), |_, i| g.data()[i] * xhat.data()[i]);
            let mut gx = Tensor::zeros(g.dims());
            for (cc, row) in channel_rows(g.dims()) {
                let k = gamma.data()[cc] * inv_std[cc] / m;
                let (dy, h) = (&g.data()[row.clone()], &xhat.data()[row.clone()]);
                for ((o, &dy), &h) in gx.data_mut()[row].iter_mut().zip(dy).zip(h) {
                    *o = k * (m * dy - sum_dy[cc] - h * sum_dy_xhat[cc]);
                }
            }
            (
                gx,
                Tensor::from_vec(sum_dy_xhat, &[c]).expect("bn dgamma shape"),
                Tensor::from_vec(sum_dy, &[c]).expect("bn dbeta shape"),
            )
        });
        (node, stats)
    }

    /// Inference-mode batch normalisation using fixed (running) statistics,
    /// recorded as one node:
    ///
    /// `y = (x·s_c + h_c)·γ_c + β_c`, with `s_c = 1/√(var_c + ε)` and
    /// `h_c = −mean_c·s_c`.
    ///
    /// `running_mean` / `running_var` are constants of shape `[C]`; gradients
    /// still flow into `x`, `gamma` and `beta` (useful for fine-tuning with
    /// frozen statistics): `dx = (g·γ_c)·s_c`, `dγ_c = Σ g·x̂` with
    /// `x̂ = x·s_c + h_c`, and `dβ_c = Σ g`, each channel summed batch-major,
    /// then over time.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn batch_norm1d_inference(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Var {
        let (xv, gv, bv) = (self.value(x), self.value(gamma), self.value(beta));
        assert_eq!(
            xv.dims().len(),
            3,
            "batch_norm1d_inference expects [N, C, T]"
        );
        let c = xv.dims()[1];
        for stat in [gv, bv, running_mean, running_var] {
            assert_eq!(stat.dims(), [c], "batch_norm1d_inference: [C] operands");
        }
        let scale: Vec<f32> = running_var
            .data()
            .iter()
            .map(|&v| 1.0 / (v + eps).sqrt())
            .collect();
        let shift: Vec<f32> = running_mean
            .data()
            .iter()
            .zip(&scale)
            .map(|(&mu, &s)| -mu * s)
            .collect();
        let out = map_channels(xv, xv.dims(), |cc, v| {
            (v * scale[cc] + shift[cc]) * gv.data()[cc] + bv.data()[cc]
        });
        self.push_ternary(x, gamma, beta, out, move |g, x, gamma, _| {
            let gx = map_channels(g, g.dims(), |cc, dy| dy * gamma.data()[cc] * scale[cc]);
            let ggamma = channel_sums(g.dims(), |cc, i| {
                g.data()[i] * (x.data()[i] * scale[cc] + shift[cc])
            });
            let gbeta = channel_sums(g.dims(), |_, i| g.data()[i]);
            (
                gx,
                Tensor::from_vec(ggamma, &[c]).expect("bn dgamma shape"),
                Tensor::from_vec(gbeta, &[c]).expect("bn dbeta shape"),
            )
        })
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
    fn normalises_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Param::new(init::uniform(&mut rng, &[4, 3, 8], 5.0), "x");
        let gamma = Param::new(Tensor::ones(&[3]), "gamma");
        let beta = Param::new(Tensor::zeros(&[3]), "beta");
        let mut tape = Tape::new();
        let vx = tape.param(&x);
        let vg = tape.param(&gamma);
        let vb = tape.param(&beta);
        let (y, stats) = tape.batch_norm1d(vx, vg, vb, 1e-5);
        let yv = tape.value(y);
        // Per-channel mean of the output should be ~0 and variance ~1.
        let (n, c, t) = (4, 3, 8);
        for cc in 0..c {
            let mut mean = 0.0;
            let mut var = 0.0;
            for bn in 0..n {
                for tt in 0..t {
                    mean += yv.data()[(bn * c + cc) * t + tt];
                }
            }
            mean /= (n * t) as f32;
            for bn in 0..n {
                for tt in 0..t {
                    let d = yv.data()[(bn * c + cc) * t + tt] - mean;
                    var += d * d;
                }
            }
            var /= (n * t) as f32;
            assert!(mean.abs() < 1e-4, "channel {cc} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {cc} var {var}");
        }
        assert_eq!(stats.mean.dims(), &[3]);
        assert_eq!(stats.var.dims(), &[3]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Param::new(init::uniform(&mut rng, &[2, 2, 4], 1.0), "x");
        let gamma = Param::new(init::uniform(&mut rng, &[2], 1.0), "gamma");
        let beta = Param::new(init::uniform(&mut rng, &[2], 1.0), "beta");
        let forward = {
            let (x, gamma, beta) = (x.clone(), gamma.clone(), beta.clone());
            move || {
                let mut tape = Tape::new();
                let vx = tape.param(&x);
                let vg = tape.param(&gamma);
                let vb = tape.param(&beta);
                let (y, _) = tape.batch_norm1d(vx, vg, vb, 1e-5);
                let sq = tape.square(y);
                let loss = tape.sum(sq);
                tape.value(loss).item()
            }
        };
        x.zero_grad();
        gamma.zero_grad();
        beta.zero_grad();
        {
            let mut tape = Tape::new();
            let vx = tape.param(&x);
            let vg = tape.param(&gamma);
            let vb = tape.param(&beta);
            let (y, _) = tape.batch_norm1d(vx, vg, vb, 1e-5);
            let sq = tape.square(y);
            let loss = tape.sum(sq);
            tape.backward(loss);
        }
        assert!(check_param_grad(&x, &x.grad(), &forward, 1e-3) < 5e-2, "dX");
        assert!(
            check_param_grad(&gamma, &gamma.grad(), &forward, 1e-3) < 5e-2,
            "dGamma"
        );
        assert!(
            check_param_grad(&beta, &beta.grad(), &forward, 1e-3) < 5e-2,
            "dBeta"
        );
    }

    #[test]
    fn inference_mode_uses_running_stats() {
        let x = Param::new(Tensor::from_vec(vec![2.0, 4.0], &[1, 1, 2]).unwrap(), "x");
        let gamma = Param::new(Tensor::ones(&[1]), "gamma");
        let beta = Param::new(Tensor::zeros(&[1]), "beta");
        let running_mean = Tensor::from_vec(vec![3.0], &[1]).unwrap();
        let running_var = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut tape = Tape::new();
        let vx = tape.param(&x);
        let vg = tape.param(&gamma);
        let vb = tape.param(&beta);
        let y = tape.batch_norm1d_inference(vx, vg, vb, &running_mean, &running_var, 0.0);
        let yv = tape.value(y);
        assert!((yv.data()[0] - (-1.0)).abs() < 1e-5);
        assert!((yv.data()[1] - 1.0).abs() < 1e-5);
        // Gradient flows back into gamma and beta through the one node.
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(gamma.grad().data(), &[0.0]); // xhat values sum to zero here
        assert_eq!(beta.grad().data(), &[2.0]);
    }

    /// Eval-mode batch norm of `[2, 2, 4]` random inputs: `sum(y²)` and, with
    /// `backward`, its gradients accumulated into the params.
    fn inference_loss(x: &Param, gamma: &Param, beta: &Param, backward: bool) -> f32 {
        let running_mean = Tensor::from_vec(vec![0.3, -0.2], &[2]).unwrap();
        let running_var = Tensor::from_vec(vec![0.5, 2.0], &[2]).unwrap();
        let mut tape = Tape::new();
        let (vx, vg, vb) = (tape.param(x), tape.param(gamma), tape.param(beta));
        let y = tape.batch_norm1d_inference(vx, vg, vb, &running_mean, &running_var, 1e-5);
        let sq = tape.square(y);
        let loss = tape.sum(sq);
        if backward {
            tape.backward(loss);
        }
        tape.value(loss).item()
    }

    #[test]
    fn inference_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Param::new(init::uniform(&mut rng, &[2, 2, 4], 1.0), "x");
        let gamma = Param::new(init::uniform(&mut rng, &[2], 1.0), "gamma");
        let beta = Param::new(init::uniform(&mut rng, &[2], 1.0), "beta");
        let forward = || inference_loss(&x, &gamma, &beta, false);
        inference_loss(&x, &gamma, &beta, true);
        for (name, p) in [("dX", &x), ("dGamma", &gamma), ("dBeta", &beta)] {
            let err = check_param_grad(p, &p.grad(), &forward, 1e-3);
            assert!(err < 1e-2, "{name}: {err}");
        }
    }

    #[test]
    fn inference_node_matches_the_old_composition_bit_for_bit() {
        // The arithmetic of the 8-node composition this node replaced,
        // written out: y = ((x * s) + h) * gamma + beta, dx = (g * gamma) * s,
        // and each channel's dgamma / dbeta summed batch-major, then over time.
        let mut rng = StdRng::seed_from_u64(4);
        let (n, c, t) = (3, 4, 5);
        let x = Param::new(init::uniform(&mut rng, &[n, c, t], 2.0), "x");
        let gamma = Param::new(init::uniform(&mut rng, &[c], 1.5), "gamma");
        let beta = Param::new(init::uniform(&mut rng, &[c], 1.0), "beta");
        let mean = init::uniform(&mut rng, &[c], 1.0);
        let var = init::uniform(&mut rng, &[c], 1.0).map(|v| v.abs() + 0.1);
        let g = init::uniform(&mut rng, &[n, c, t], 1.0);
        let eps = 1e-5;
        let mut tape = Tape::new();
        let (vx, vg, vb) = (tape.param(&x), tape.param(&gamma), tape.param(&beta));
        let y = tape.batch_norm1d_inference(vx, vg, vb, &mean, &var, eps);
        let got_y = tape.value(y).clone();
        tape.backward_with_seed(y, g.clone());

        let (xv, gv, bv) = (x.value(), gamma.value(), beta.value());
        let mut want = [
            vec![0.0f32; n * c * t],
            vec![0.0; n * c * t],
            vec![0.0; c],
            vec![0.0; c],
        ];
        for bn in 0..n {
            for cc in 0..c {
                let s = 1.0 / (var.data()[cc] + eps).sqrt();
                let h = -mean.data()[cc] * s;
                for i in (bn * c + cc) * t..(bn * c + cc + 1) * t {
                    let xhat = xv.data()[i] * s + h;
                    want[0][i] = xhat * gv.data()[cc] + bv.data()[cc];
                    want[1][i] = g.data()[i] * gv.data()[cc] * s;
                    want[2][cc] += g.data()[i] * xhat;
                    want[3][cc] += g.data()[i];
                }
            }
        }
        let got = [got_y, x.grad(), gamma.grad(), beta.grad()];
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (name, (got, want)) in ["y", "dX", "dGamma", "dBeta"]
            .iter()
            .zip(got.iter().zip(&want))
        {
            assert_eq!(bits(got.data()), bits(want), "{name}");
        }
    }
}
