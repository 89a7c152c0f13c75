//! Operation-count (FLOPs) regulariser.
//!
//! Section III of the paper notes that PIT "is easily extendable to other
//! types of optimizations (e.g., FLOPs reduction)" by swapping the cost term
//! of Eq. 6. This module provides that extension: the coefficient of each
//! `|γ_i|` becomes the number of multiply-accumulate operations re-enabled by
//! that γ, i.e. the Eq. 6 slice count multiplied by `C_in · C_out` **and** by
//! the output sequence length of the layer.

use crate::conv::PitConv1d;
use crate::regularizer::{lasso_term, lasso_value};
use pit_tensor::{Tape, Var};

/// Lasso regulariser on γ weighted by the *operation count* each γ re-enables,
/// steering the search towards low-latency rather than low-memory networks.
#[derive(Debug, Clone, Copy)]
pub struct OpsRegularizer {
    lambda: f32,
}

impl OpsRegularizer {
    /// Creates an operation-count regulariser with strength `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative.
    pub fn new(lambda: f32) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative, got {lambda}");
        Self { lambda }
    }

    /// The regularisation strength λ.
    pub fn lambda(&self) -> f32 {
        self.lambda
    }

    /// Per-γ coefficients for one layer processing sequences of length
    /// `seq_len`: `C_in · C_out · seq_len · round((rf_max − 1)/2^(L−i))`.
    pub fn coefficients(layer: &PitConv1d, seq_len: usize) -> Vec<f32> {
        layer
            .regularizer_coefficients()
            .into_iter()
            .map(|c| c * seq_len as f32)
            .collect()
    }

    /// Records the regularisation term on `tape`.
    ///
    /// `seq_lens[i]` is the output sequence length of `layers[i]` (layers
    /// after pooling stages see shorter sequences).
    ///
    /// # Panics
    ///
    /// Panics if `layers` and `seq_lens` have different lengths.
    pub fn term(&self, tape: &mut Tape, layers: &[&PitConv1d], seq_lens: &[usize]) -> Var {
        lasso_term(tape, self.lambda, ops_coefficients(layers, seq_lens))
    }

    /// Evaluates the regulariser outside any tape (diagnostic value).
    ///
    /// # Panics
    ///
    /// Panics if `layers` and `seq_lens` have different lengths.
    pub fn value(&self, layers: &[&PitConv1d], seq_lens: &[usize]) -> f32 {
        lasso_value(self.lambda, ops_coefficients(layers, seq_lens))
    }
}

/// Each layer paired with its operation-count coefficients.
///
/// # Panics
///
/// Panics if `layers` and `seq_lens` have different lengths.
fn ops_coefficients<'a>(
    layers: &'a [&'a PitConv1d],
    seq_lens: &'a [usize],
) -> impl Iterator<Item = (&'a PitConv1d, Vec<f32>)> {
    assert_eq!(
        layers.len(),
        seq_lens.len(),
        "one sequence length per layer is required"
    );
    layers
        .iter()
        .zip(seq_lens)
        .map(|(&l, &t)| (l, OpsRegularizer::coefficients(l, t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regularizer::SizeRegularizer;
    use pit_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> PitConv1d {
        let mut rng = StdRng::seed_from_u64(0);
        PitConv1d::new(&mut rng, 2, 3, 9, "ops-test")
    }

    #[test]
    fn coefficients_scale_size_coefficients_by_length() {
        let l = layer();
        let size = l.regularizer_coefficients();
        let ops = OpsRegularizer::coefficients(&l, 64);
        assert_eq!(ops.len(), size.len());
        for (o, s) in ops.iter().zip(size.iter()) {
            assert!((o - s * 64.0).abs() < 1e-6);
        }
    }

    #[test]
    fn value_matches_size_regularizer_for_unit_length() {
        let l = layer();
        l.gamma_param()
            .set_value(Tensor::from_vec(vec![0.7, 0.4, 0.1], &[3]).unwrap());
        let ops = OpsRegularizer::new(0.5).value(&[&l], &[1]);
        let size = SizeRegularizer::new(0.5).value(&[&l]);
        assert!((ops - size).abs() < 1e-6);
    }

    #[test]
    fn longer_sequences_cost_more() {
        let l = layer();
        let reg = OpsRegularizer::new(1.0);
        assert!(reg.value(&[&l], &[128]) > reg.value(&[&l], &[16]));
    }

    #[test]
    fn tape_term_matches_value_and_produces_gradient() {
        let l = layer();
        l.gamma_param()
            .set_value(Tensor::from_vec(vec![0.9, 0.6, 0.4], &[3]).unwrap());
        let reg = OpsRegularizer::new(1e-3);
        let mut tape = Tape::new();
        let term = reg.term(&mut tape, &[&l], &[32]);
        assert!((tape.value(term).item() - reg.value(&[&l], &[32])).abs() < 1e-4);
        tape.backward(term);
        // d/dgamma_i = lambda * Cin*Cout*slice_i*T * sign(gamma_i)
        let g = l.gamma_param().grad();
        assert!((g.data()[0] - 1e-3 * 6.0 * 32.0).abs() < 1e-4);
    }

    #[test]
    fn empty_layer_list_is_zero() {
        let reg = OpsRegularizer::new(0.1);
        let mut tape = Tape::new();
        let term = reg.term(&mut tape, &[], &[]);
        assert_eq!(tape.value(term).item(), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let l = layer();
        let reg = OpsRegularizer::new(0.1);
        let _ = reg.value(&[&l], &[]);
    }
}
