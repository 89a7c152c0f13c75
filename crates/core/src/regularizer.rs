//! The model-size regulariser of Eq. 6, and the Lasso body it shares with
//! [`crate::OpsRegularizer`]: both are `λ Σ_l Σ_i coeff_i^l |γ_i^l|` and
//! differ only in where the per-γ coefficients come from.

use crate::conv::PitConv1d;
use pit_tensor::{Tape, Var};

/// Builds the Lasso-style size regulariser
/// `L_R(γ) = λ Σ_l C_in^l · C_out^l Σ_i round((rf_max−1)/2^(L−i)) |γ_i^l|`
/// over a set of [`PitConv1d`] layers.
///
/// The regulariser promotes sparsification of the γ parameters, i.e. larger
/// dilations and therefore smaller deployed models.
#[derive(Debug, Clone, Copy)]
pub struct SizeRegularizer {
    lambda: f32,
}

impl SizeRegularizer {
    /// Creates a regulariser with strength `λ`.
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

    /// Records the regularisation term for `layers` on `tape` and returns the
    /// scalar node `λ · Σ_l Σ_i coeff_i |γ_i|`.
    ///
    /// Layers whose γ is frozen still contribute a (constant) value but no
    /// useful gradient, matching the fine-tuning phase where the term is
    /// simply dropped from the loss.
    pub fn term(&self, tape: &mut Tape, layers: &[&PitConv1d]) -> Var {
        lasso_term(tape, self.lambda, size_coefficients(layers))
    }

    /// Evaluates the regulariser outside any tape (diagnostic value).
    pub fn value(&self, layers: &[&PitConv1d]) -> f32 {
        lasso_value(self.lambda, size_coefficients(layers))
    }
}

/// Each layer paired with its Eq. 6 per-γ coefficients.
fn size_coefficients<'a>(
    layers: &'a [&'a PitConv1d],
) -> impl Iterator<Item = (&'a PitConv1d, Vec<f32>)> {
    layers.iter().map(|&l| (l, l.regularizer_coefficients()))
}

/// Records `λ · Σ_l Σ_i coeffs_i^l |γ_i^l|` on `tape` over `(layer,
/// per-γ coefficients)` pairs: one weighted-|γ| node per layer with
/// coefficients, summed in layer order, then scaled by `λ` (a constant
/// zero when no layer contributes).
pub(crate) fn lasso_term<'a>(
    tape: &mut Tape,
    lambda: f32,
    layers: impl IntoIterator<Item = (&'a PitConv1d, Vec<f32>)>,
) -> Var {
    let mut acc: Option<Var> = None;
    for (layer, coeffs) in layers {
        if coeffs.is_empty() {
            continue;
        }
        let g = tape.param(layer.gamma_param());
        let contribution = tape.weighted_abs_sum(g, &coeffs);
        acc = Some(match acc {
            Some(total) => tape.add(total, contribution),
            None => contribution,
        });
    }
    let total = acc.unwrap_or_else(|| tape.constant(pit_tensor::Tensor::scalar(0.0)));
    tape.scale(total, lambda)
}

/// [`lasso_term`]'s value, evaluated outside any tape.
pub(crate) fn lasso_value<'a>(
    lambda: f32,
    layers: impl IntoIterator<Item = (&'a PitConv1d, Vec<f32>)>,
) -> f32 {
    let mut total = 0.0f32;
    for (layer, coeffs) in layers {
        let gamma = layer.gamma_param().value();
        total += gamma
            .data()
            .iter()
            .zip(coeffs.iter())
            .map(|(&g, &c)| c * g.abs())
            .sum::<f32>();
    }
    lambda * total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(rf_max: usize, cin: usize, cout: usize) -> PitConv1d {
        let mut rng = StdRng::seed_from_u64(0);
        PitConv1d::new(&mut rng, cin, cout, rf_max, "reg-test")
    }

    #[test]
    fn value_matches_manual_computation() {
        let l = layer(9, 2, 3); // coeffs = [6, 12, 24]
        l.gamma_param()
            .set_value(Tensor::from_vec(vec![1.0, 0.5, 0.0], &[3]).unwrap());
        let reg = SizeRegularizer::new(0.1);
        let expected = 0.1 * (6.0 * 1.0 + 12.0 * 0.5 + 24.0 * 0.0);
        assert!((reg.value(&[&l]) - expected).abs() < 1e-6);
    }

    #[test]
    fn tape_term_matches_value_and_produces_gradient() {
        let l = layer(9, 2, 3);
        l.gamma_param()
            .set_value(Tensor::from_vec(vec![0.9, 0.6, 0.4], &[3]).unwrap());
        let reg = SizeRegularizer::new(0.01);
        let mut tape = Tape::new();
        let term = reg.term(&mut tape, &[&l]);
        assert!((tape.value(term).item() - reg.value(&[&l])).abs() < 1e-6);
        tape.backward(term);
        // d/dgamma_i = lambda * coeff_i * sign(gamma_i)
        let g = l.gamma_param().grad();
        assert!((g.data()[0] - 0.01 * 6.0).abs() < 1e-6);
        assert!((g.data()[1] - 0.01 * 12.0).abs() < 1e-6);
        assert!((g.data()[2] - 0.01 * 24.0).abs() < 1e-6);
    }

    #[test]
    fn multiple_layers_sum() {
        let a = layer(9, 1, 1); // coeffs [1, 2, 4]
        let b = layer(5, 2, 2); // L = 3, coeffs = 4*[1, 2]
        let reg = SizeRegularizer::new(1.0);
        // all gammas are 1 -> value = (1+2+4) + 4*(1+2) = 19
        assert!((reg.value(&[&a, &b]) - 19.0).abs() < 1e-6);
        let mut tape = Tape::new();
        let term = reg.term(&mut tape, &[&a, &b]);
        assert!((tape.value(term).item() - 19.0).abs() < 1e-6);
    }

    #[test]
    fn zero_lambda_means_zero_term() {
        let l = layer(9, 4, 4);
        let reg = SizeRegularizer::new(0.0);
        assert_eq!(reg.value(&[&l]), 0.0);
        let mut tape = Tape::new();
        let term = reg.term(&mut tape, &[&l]);
        assert_eq!(tape.value(term).item(), 0.0);
    }

    #[test]
    fn empty_layer_list_is_zero() {
        let reg = SizeRegularizer::new(0.5);
        let mut tape = Tape::new();
        let term = reg.term(&mut tape, &[]);
        assert_eq!(tape.value(term).item(), 0.0);
        assert_eq!(reg.value(&[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_lambda_panics() {
        let _ = SizeRegularizer::new(-0.1);
    }
}
