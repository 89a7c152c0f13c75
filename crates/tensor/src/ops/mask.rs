//! PIT-specific differentiable operations.
//!
//! These ops implement the machinery of Section III of the PIT paper:
//!
//! * [`Tape::binarize_ste`] — BinaryConnect-style binarisation (Eq. 2): a
//!   Heaviside step in the forward pass, an identity (straight-through
//!   estimator) in the backward pass;
//! * [`Tape::pit_time_mask`] — the γ → Γ → M transformation (Eq. 3–4) that
//!   expands the per-layer γ vector into a keep-mask over the `rf_max` filter
//!   taps, restricted to regular power-of-two dilation patterns;
//! * [`Tape::mul_time_mask`] — element-wise masking of a `[C_out, C_in, K]`
//!   filter bank by a `[K]` mask (the `M ⊙ W` product of Eq. 5);
//! * [`Tape::weighted_abs_sum`] — the weighted Lasso term of the size
//!   regulariser (Eq. 6).

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Number of γ parameters (including the constant γ₀) for a given maximum
/// receptive field: `L = ⌊log2(rf_max − 1)⌋ + 1`.
///
/// # Panics
///
/// Panics if `rf_max < 2`.
pub fn gamma_len(rf_max: usize) -> usize {
    assert!(rf_max >= 2, "rf_max must be at least 2, got {rf_max}");
    ((rf_max - 1) as f32).log2().floor() as usize + 1
}

/// Which Γ index gates filter tap `i` (tap 0 is always alive).
///
/// Tap `i` survives under dilation `d` iff `d` divides `i`; with power-of-two
/// dilations this means tap `i` is controlled by `Γ_{min(tz(i), L-1)}` where
/// `tz` is the number of trailing zeros of `i`.
pub fn gamma_index_for_tap(i: usize, l: usize) -> usize {
    debug_assert!(i >= 1);
    (i.trailing_zeros() as usize).min(l - 1)
}

/// The full γ vector: the constant `γ₀ = 1`, then the trainable tail.
fn full_gamma(tail: &Tensor) -> Vec<f32> {
    let mut g = Vec::with_capacity(tail.len() + 1);
    g.push(1.0);
    g.extend_from_slice(tail.data());
    g
}

/// Splits the gradient `gwm` of a masked `[C_out, C_in, K]` filter bank
/// `w ⊙ m` into the factors' gradients: `dw = gwm ⊙ m` and
/// `dm[k] = Σ_{co, ci} gwm[co, ci, k] · w[co, ci, k]`.
pub(crate) fn split_time_mask_grad(mut gwm: Tensor, w: &Tensor, m: &Tensor) -> (Tensor, Tensor) {
    let mut gm = vec![0.0f32; m.len()];
    let taps = m.data().iter().enumerate().cycle();
    for ((gi, &wi), (kk, &mk)) in gwm.data_mut().iter_mut().zip(w.data()).zip(taps) {
        gm[kk] += *gi * wi;
        *gi *= mk;
    }
    (
        gwm,
        Tensor::from_vec(gm, m.dims()).expect("mask grad shape"),
    )
}

impl Tape {
    /// Straight-through binarisation (Eq. 2 of the paper).
    ///
    /// Forward: `1` where `x >= threshold`, else `0`. Backward: identity
    /// (the gradient passes through unchanged).
    pub fn binarize_ste(&mut self, x: Var, threshold: f32) -> Var {
        let value = self
            .value(x)
            .map(|v| if v >= threshold { 1.0 } else { 0.0 });
        self.push_unary(x, value, |g, _, _| g.clone())
    }

    /// Builds the PIT time mask `M` (length `rf_max`) from the trainable tail
    /// of the γ vector (`γ_1 .. γ_{L−1}`, length `L − 1`); γ₀ is the constant 1.
    ///
    /// `M[0] = 1`; for `i >= 1`, `M[i] = Γ_{v(i)}` with
    /// `Γ_j = Π_{k=0}^{L−1−j} γ_k` and `v(i) = min(tz(i), L−1)`.
    ///
    /// # Panics
    ///
    /// Panics if the γ tail length is not `L − 1` for the given `rf_max`.
    pub fn pit_time_mask(&mut self, gamma_tail: Var, rf_max: usize) -> Var {
        let l = gamma_len(rf_max);
        let gt = self.value(gamma_tail);
        assert_eq!(
            gt.dims(),
            [l - 1],
            "pit_time_mask: expected gamma tail of length {} for rf_max {}, got {:?}",
            l - 1,
            rf_max,
            gt.dims()
        );
        let g = full_gamma(gt);
        // Gamma products: Gamma_j = prod_{k=0}^{l-1-j} g[k].
        let big_gamma: Vec<f32> = (0..l)
            .map(|j| g[..=(l - 1 - j)].iter().product::<f32>())
            .collect();
        let mut m = vec![0.0f32; rf_max];
        m[0] = 1.0;
        for (i, slot) in m.iter_mut().enumerate().skip(1) {
            *slot = big_gamma[gamma_index_for_tap(i, l)];
        }
        let value = Tensor::from_vec(m, &[rf_max]).expect("mask shape");
        self.push_unary(gamma_tail, value, move |grad_m, tail, _| {
            let g = full_gamma(tail);
            // dGamma_j accumulated from all taps it gates.
            let mut d_big_gamma = vec![0.0f32; l];
            for i in 1..rf_max {
                d_big_gamma[gamma_index_for_tap(i, l)] += grad_m.data()[i];
            }
            // dgamma_k = sum_j [k <= l-1-j] dGamma_j * prod_{m != k, m <= l-1-j} g[m]
            let mut dg = vec![0.0f32; l];
            for (j, &dgj) in d_big_gamma.iter().enumerate() {
                if dgj == 0.0 {
                    continue;
                }
                let upper = l - 1 - j;
                for k in 0..=upper {
                    let prod_others: f32 = (0..=upper).filter(|&m| m != k).map(|m| g[m]).product();
                    dg[k] += dgj * prod_others;
                }
            }
            // gamma_0 is a constant: only the tail receives gradient.
            Tensor::from_vec(dg[1..].to_vec(), &[l - 1]).expect("gamma grad shape")
        })
    }

    /// Multiplies a `[C_out, C_in, K]` filter bank by a `[K]` time mask
    /// (the `M_i ⊙ W_i` product of Eq. 5).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 3 or the mask length differs from `K`.
    pub fn mul_time_mask(&mut self, w: Var, m: Var) -> Var {
        let (wv, mv) = (self.value(w), self.value(m));
        assert_eq!(
            wv.dims().len(),
            3,
            "mul_time_mask expects [C_out, C_in, K] weights"
        );
        let k = wv.dims()[2];
        assert_eq!(mv.dims(), [k], "mul_time_mask: mask must have shape [K]");
        let data = wv
            .data()
            .iter()
            .zip(mv.data().iter().cycle())
            .map(|(&v, &mk)| v * mk)
            .collect();
        let value = Tensor::from_vec(data, wv.dims()).expect("masked weight shape");
        self.push_binary(w, m, value, |g, w, m| split_time_mask_grad(g.clone(), w, m))
    }

    /// Weighted Lasso term `Σ_i coeffs[i] · |x_i|`, producing a scalar node.
    ///
    /// Used for the size regulariser of Eq. 6, where the coefficient of
    /// `|γ_i|` is the number of weights kept alive by that γ.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the number of elements of `x`.
    pub fn weighted_abs_sum(&mut self, x: Var, coeffs: &[f32]) -> Var {
        let xv = self.value(x);
        assert_eq!(
            coeffs.len(),
            xv.len(),
            "weighted_abs_sum: {} coefficients for {} elements",
            coeffs.len(),
            xv.len()
        );
        let total: f32 = xv
            .data()
            .iter()
            .zip(coeffs.iter())
            .map(|(&v, &c)| c * v.abs())
            .sum();
        let value = Tensor::scalar(total);
        let coeffs = coeffs.to_vec();
        self.push_unary(x, value, move |g, x, _| {
            let scale = g.item();
            let data: Vec<f32> = x
                .data()
                .iter()
                .zip(coeffs.iter())
                .map(|(&v, &c)| {
                    if v == 0.0 {
                        0.0
                    } else {
                        scale * c * v.signum()
                    }
                })
                .collect();
            Tensor::from_vec(data, x.dims()).expect("weighted abs grad shape")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    #[test]
    fn gamma_len_matches_paper_example() {
        // rf_max = 9 -> L = 4 (paper Fig. 2).
        assert_eq!(gamma_len(9), 4);
        assert_eq!(gamma_len(2), 1);
        assert_eq!(gamma_len(3), 2);
        assert_eq!(gamma_len(17), 5);
        assert_eq!(gamma_len(64), 6);
    }

    #[test]
    fn binarize_threshold_and_ste() {
        let p = Param::new(Tensor::from_vec(vec![0.2, 0.5, 0.9], &[3]).unwrap(), "g");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let b = tape.binarize_ste(x, 0.5);
        assert_eq!(tape.value(b).data(), &[0.0, 1.0, 1.0]);
        let s = tape.sum(b);
        tape.backward(s);
        // Straight-through: gradient of sum is all ones regardless of the step.
        assert_eq!(p.grad().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn mask_all_ones_gives_dilation_one() {
        // rf_max = 9, gamma tail all ones -> every tap alive.
        let p = Param::new(Tensor::ones(&[3]), "g");
        let mut tape = Tape::new();
        let g = tape.param(&p);
        let m = tape.pit_time_mask(g, 9);
        assert_eq!(tape.value(m).data(), &[1.0; 9]);
    }

    #[test]
    fn mask_patterns_match_paper_figure2() {
        // rf_max = 9, L = 4. gamma tail = (gamma_1, gamma_2, gamma_3).
        let cases: &[(&[f32], &[f32])] = &[
            // gamma_3 = 0 (others 1): dilation 2 -> taps 0,2,4,6,8 alive.
            (
                &[1.0, 1.0, 0.0],
                &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
            ),
            // gamma_2 = 0: dilation 4 -> taps 0,4,8 alive.
            (
                &[1.0, 0.0, 1.0],
                &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ),
            // gamma_1 = 0: dilation 8 -> taps 0,8 alive.
            (
                &[0.0, 1.0, 1.0],
                &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            ),
        ];
        for (tail, expected) in cases {
            let p = Param::new(Tensor::from_vec(tail.to_vec(), &[3]).unwrap(), "g");
            let mut tape = Tape::new();
            let g = tape.param(&p);
            let m = tape.pit_time_mask(g, 9);
            assert_eq!(tape.value(m).data(), *expected, "tail {tail:?}");
        }
    }

    #[test]
    fn mask_gradient_counts_gated_taps() {
        // With all gammas = 1, dM_i/dgamma_k = 1 for every tap i gated by a
        // Gamma_j with k <= L-1-j; summing over taps gives the "alive slices"
        // counts of Eq. 6: gamma_1 gates taps {1..8 except multiples of 8} etc.
        let p = Param::new(Tensor::ones(&[3]), "g");
        let mut tape = Tape::new();
        let g = tape.param(&p);
        let m = tape.pit_time_mask(g, 9);
        let s = tape.sum(m);
        tape.backward(s);
        // gamma_1 is in Gamma_0, Gamma_1, Gamma_2 -> taps with tz 0,1,2 => {1,3,5,7},{2,6},{4} = 7 taps
        // gamma_2 is in Gamma_0, Gamma_1 -> {1,3,5,7},{2,6} = 6 taps
        // gamma_3 is in Gamma_0 -> {1,3,5,7} = 4 taps
        assert_eq!(p.grad().data(), &[7.0, 6.0, 4.0]);
    }

    #[test]
    fn mul_time_mask_forward_and_grad() {
        let w = Param::new(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 2, 3]).unwrap(),
            "w",
        );
        let m = Param::new(Tensor::from_vec(vec![1.0, 0.0, 2.0], &[3]).unwrap(), "m");
        let mut tape = Tape::new();
        let vw = tape.param(&w);
        let vm = tape.param(&m);
        let y = tape.mul_time_mask(vw, vm);
        assert_eq!(tape.value(y).data(), &[1.0, 0.0, 6.0, 4.0, 0.0, 12.0]);
        let s = tape.sum(y);
        tape.backward(s);
        assert_eq!(w.grad().data(), &[1.0, 0.0, 2.0, 1.0, 0.0, 2.0]);
        assert_eq!(m.grad().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn weighted_abs_sum_value_and_grad() {
        let p = Param::new(Tensor::from_vec(vec![0.5, -0.25, 0.0], &[3]).unwrap(), "g");
        let mut tape = Tape::new();
        let x = tape.param(&p);
        let l = tape.weighted_abs_sum(x, &[4.0, 2.0, 1.0]);
        assert!((tape.value(l).item() - (4.0 * 0.5 + 2.0 * 0.25)).abs() < 1e-6);
        tape.backward(l);
        assert_eq!(p.grad().data(), &[4.0, -2.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_gamma_tail_length_panics() {
        let p = Param::new(Tensor::ones(&[2]), "g");
        let mut tape = Tape::new();
        let g = tape.param(&p);
        let _ = tape.pit_time_mask(g, 9); // needs length 3
    }
}
