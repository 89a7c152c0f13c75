//! Batch normalisation layer with running statistics.

use super::{Layer, Mode};
use parking_lot::Mutex;
use pit_tensor::{Param, Tape, Tensor, Var};

/// Batch normalisation over the channel dimension of `[N, C, T]` activations.
///
/// In [`Mode::Train`] the layer normalises with batch statistics and updates
/// exponential running averages; in [`Mode::Eval`] it uses the stored running
/// statistics (and therefore works with batch size 1).
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Mutex<Tensor>,
    running_var: Mutex<Tensor>,
    channels: usize,
    momentum: f32,
    eps: f32,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `channels` feature maps with the usual
    /// defaults (`momentum = 0.1`, `eps = 1e-5`).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        Self {
            gamma: Param::new(Tensor::ones(&[channels]), format!("bn{channels}.gamma")),
            beta: Param::new(Tensor::zeros(&[channels]), format!("bn{channels}.beta")),
            running_mean: Mutex::new(Tensor::zeros(&[channels])),
            running_var: Mutex::new(Tensor::ones(&[channels])),
            channels,
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The numerical-stability constant ε added to the variance, needed by
    /// consumers that fold the normalisation into convolution weights.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Current running mean estimate.
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.lock().clone()
    }

    /// Current running variance estimate.
    pub fn running_var(&self) -> Tensor {
        self.running_var.lock().clone()
    }

    /// The learnable scale parameter γ.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// The learnable shift parameter β.
    pub fn beta(&self) -> &Param {
        &self.beta
    }
}

impl Layer for BatchNorm1d {
    fn forward(&self, tape: &mut Tape, input: Var, mode: Mode) -> Var {
        let g = tape.param(&self.gamma);
        let b = tape.param(&self.beta);
        match mode {
            Mode::Train => {
                let (out, stats) = tape.batch_norm1d(input, g, b, self.eps);
                let mut rm = self.running_mean.lock();
                let mut rv = self.running_var.lock();
                let new_mean = rm
                    .mul_scalar(1.0 - self.momentum)
                    .add(&stats.mean.mul_scalar(self.momentum))
                    .expect("running mean update");
                let new_var = rv
                    .mul_scalar(1.0 - self.momentum)
                    .add(&stats.var.mul_scalar(self.momentum))
                    .expect("running var update");
                *rm = new_mean;
                *rv = new_var;
                out
            }
            Mode::Eval => {
                let rm = self.running_mean.lock().clone();
                let rv = self.running_var.lock().clone();
                tape.batch_norm1d_inference(input, g, b, &rm, &rv, self.eps)
            }
        }
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn describe(&self) -> String {
        format!("BatchNorm1d({})", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_mode_normalises_batch() {
        let mut rng = StdRng::seed_from_u64(0);
        let bn = BatchNorm1d::new(2);
        let x = init::uniform(&mut rng, &[4, 2, 8], 3.0).add_scalar(5.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x);
        let y = bn.forward(&mut tape, vx, Mode::Train);
        let out = tape.value(y);
        assert!(out.mean_all().abs() < 1e-3);
    }

    #[test]
    fn running_stats_move_towards_batch_stats() {
        let bn = BatchNorm1d::new(1);
        let x = Tensor::full(&[2, 1, 4], 10.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x);
        let _ = bn.forward(&mut tape, vx, Mode::Train);
        // mean moved from 0 towards 10 by momentum 0.1
        assert!((bn.running_mean().data()[0] - 1.0).abs() < 1e-5);
        // var moved from 1 towards 0
        assert!((bn.running_var().data()[0] - 0.9).abs() < 1e-5);
    }

    #[test]
    fn eval_mode_uses_running_stats_and_keeps_values() {
        let bn = BatchNorm1d::new(1);
        // Default running stats (mean 0, var 1) make eval nearly an identity.
        let x = Tensor::from_vec(vec![0.5, -0.25], &[1, 1, 2]).unwrap();
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let y = bn.forward(&mut tape, vx, Mode::Eval);
        assert!(tape.value(y).approx_eq(&x, 1e-4));
    }

    #[test]
    fn forward_records_gamma_beta_and_one_norm_node() {
        let bn = BatchNorm1d::new(2);
        for mode in [Mode::Train, Mode::Eval] {
            let mut tape = Tape::new();
            let vx = tape.constant(Tensor::ones(&[2, 2, 4]));
            let before = tape.len();
            let _ = bn.forward(&mut tape, vx, mode);
            assert_eq!(tape.len() - before, 3, "{mode:?}");
        }
    }

    #[test]
    fn exposes_two_params() {
        let bn = BatchNorm1d::new(3);
        assert_eq!(bn.params().len(), 2);
        assert_eq!(bn.num_weights(), 6);
        assert_eq!(bn.channels(), 3);
        assert!(bn.describe().contains('3'));
    }
}
