//! Loss functions used by the PIT benchmarks.
//!
//! All losses reduce to a rank-0 scalar node and treat the target as a
//! constant (no gradient flows into it), matching how the benchmarks use
//! them: mean-squared / mean-absolute error for the PPG heart-rate
//! regression, and binary cross-entropy with logits ("frame-level NLL") for
//! the polyphonic-music task.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

impl Tape {
    /// `pred − target` for the loss `op`.
    fn residual(&self, pred: Var, target: &Tensor, op: &str) -> Tensor {
        let pv = self.value(pred);
        assert!(
            pv.shape().same_as(target.shape()),
            "{op}: prediction shape {} vs target shape {}",
            pv.shape(),
            target.shape()
        );
        pv.sub(target).expect("loss residual")
    }

    /// Mean squared error between a prediction node and a constant target.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let diff = self.residual(pred, target, "mse_loss");
        let n = diff.len().max(1) as f32;
        let value = Tensor::scalar(diff.data().iter().map(|d| d * d).sum::<f32>() / n);
        self.push_unary(pred, value, move |g, _, _| {
            diff.mul_scalar(2.0 * g.item() / n)
        })
    }

    /// Mean absolute error between a prediction node and a constant target.
    ///
    /// This is the MAE metric (in bpm) used for the PPG-Dalia benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mae_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let diff = self.residual(pred, target, "mae_loss");
        let n = diff.len().max(1) as f32;
        let value = Tensor::scalar(diff.data().iter().map(|d| d.abs()).sum::<f32>() / n);
        self.push_unary(pred, value, move |g, _, _| {
            diff.map(|d| if d == 0.0 { 0.0 } else { d.signum() })
                .mul_scalar(g.item() / n)
        })
    }

    /// Binary cross-entropy with logits, averaged over all elements.
    ///
    /// For multi-label frame prediction (88 piano keys per time step) this is
    /// the per-frame negative log-likelihood reported as "NLL" in the paper.
    /// Uses the numerically stable formulation
    /// `max(z, 0) - z*y + ln(1 + exp(-|z|))`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn bce_with_logits_loss(&mut self, logits: Var, target: &Tensor) -> Var {
        let zv = self.value(logits);
        assert!(
            zv.shape().same_as(target.shape()),
            "bce_with_logits_loss: logits shape {} vs target shape {}",
            zv.shape(),
            target.shape()
        );
        let n = zv.len().max(1) as f32;
        let mut total = 0.0f32;
        for (&z, &y) in zv.data().iter().zip(target.data().iter()) {
            total += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        }
        let value = Tensor::scalar(total / n);
        let target = target.clone();
        self.push_unary(logits, value, move |g, z, _| {
            // d/dz = sigmoid(z) - y
            let scale = g.item() / n;
            z.zip_map(&target, |z, y| (1.0 / (1.0 + (-z).exp()) - y) * scale)
                .expect("bce backward shape")
        })
    }

    /// Binary cross-entropy with logits, summed over the label dimension and
    /// averaged over batch and time. This matches the "NLL per frame"
    /// convention of Bai et al. for polyphonic music: the loss of one frame is
    /// the sum over the 88 keys, and frames are averaged.
    ///
    /// `logits` must be `[N, C, T]`; the target must have the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `logits` is not rank 3.
    pub fn bce_frame_nll_loss(&mut self, logits: Var, target: &Tensor) -> Var {
        let dims = self.dims(logits);
        assert_eq!(dims.len(), 3, "bce_frame_nll_loss expects [N, C, T] logits");
        let scale = dims[1] as f32; // keys per frame
        let per_element = self.bce_with_logits_loss(logits, target);
        self.scale(per_element, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_param_grad;
    use crate::param::Param;

    #[test]
    fn mse_forward_value() {
        let p = Param::new(Tensor::from_vec(vec![1.0, 3.0], &[2]).unwrap(), "p");
        let t = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let l = tape.mse_loss(x, &t);
        assert!((tape.value(l).item() - 2.5).abs() < 1e-6); // (1 + 4) / 2
        tape.backward(l);
        assert_eq!(p.grad().data(), &[1.0, 2.0]);
    }

    #[test]
    fn mae_forward_value_and_grad() {
        let p = Param::new(Tensor::from_vec(vec![2.0, -1.0], &[2]).unwrap(), "p");
        let t = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let l = tape.mae_loss(x, &t);
        assert!((tape.value(l).item() - 1.5).abs() < 1e-6);
        tape.backward(l);
        assert_eq!(p.grad().data(), &[0.5, -0.5]);
    }

    #[test]
    fn bce_matches_manual_computation() {
        let p = Param::new(Tensor::from_vec(vec![0.0], &[1]).unwrap(), "p");
        let t = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let l = tape.bce_with_logits_loss(x, &t);
        // -ln(sigmoid(0)) = ln 2
        assert!((tape.value(l).item() - std::f32::consts::LN_2).abs() < 1e-6);
        tape.backward(l);
        assert!((p.grad().data()[0] - (-0.5)).abs() < 1e-6);
    }

    #[test]
    fn bce_gradient_matches_finite_differences() {
        let p = Param::new(
            Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.7], &[4]).unwrap(),
            "p",
        );
        let t = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[4]).unwrap();
        let forward = {
            let (p, t) = (p.clone(), t.clone());
            move || {
                let mut tape = Tape::new();
                let x = tape.param(&p);
                let l = tape.bce_with_logits_loss(x, &t);
                tape.value(l).item()
            }
        };
        {
            let mut tape = Tape::new();
            let x = tape.param(&p);
            let l = tape.bce_with_logits_loss(x, &t);
            tape.backward(l);
        }
        assert!(check_param_grad(&p, &p.grad(), &forward, 1e-3) < 1e-2);
    }

    #[test]
    fn frame_nll_scales_by_key_count() {
        let p = Param::new(Tensor::zeros(&[1, 4, 2]), "p");
        let t = Tensor::ones(&[1, 4, 2]);
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let frame = tape.bce_frame_nll_loss(x, &t);
        let elem = {
            let mut tape2 = Tape::new();
            let x2 = tape2.param(&p);
            let l = tape2.bce_with_logits_loss(x2, &t);
            tape2.value(l).item()
        };
        assert!((tape.value(frame).item() - 4.0 * elem).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let p = Param::new(Tensor::zeros(&[2]), "p");
        let t = Tensor::zeros(&[3]);
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let _ = tape.mse_loss(x, &t);
    }
}
