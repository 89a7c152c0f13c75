//! The searchable PIT convolution layer.

use pit_nn::{Layer, Mode};
use pit_tensor::ops::mask::gamma_len;
use pit_tensor::{init, Param, Tape, Tensor, Var};
use rand::Rng;

/// Default binarisation threshold δ of Eq. 2 (the paper fixes it to 0.5).
pub const DEFAULT_THRESHOLD: f32 = 0.5;

/// A causal 1-D convolution whose time taps are gated by trainable γ
/// parameters, implementing Sec. III-A of the PIT paper.
///
/// The layer starts from a maximally sized filter (`rf_max` taps, dilation 1)
/// and learns, through the binarised γ vector and its expansion into the
/// time mask `M`, which regular power-of-two dilation to use. After the
/// search, [`PitConv1d::freeze`] locks the γ values so the fine-tuning phase
/// only updates the weights.
pub struct PitConv1d {
    weight: Param,
    bias: Param,
    /// Trainable tail of the γ vector (γ₁ … γ_{L−1}); γ₀ ≡ 1.
    gamma: Param,
    in_channels: usize,
    out_channels: usize,
    rf_max: usize,
    threshold: f32,
    name: String,
}

impl PitConv1d {
    /// Creates a searchable convolution with a maximum receptive field of
    /// `rf_max` taps. Weights use Kaiming-uniform initialisation, the bias
    /// starts at zero and every γ starts at 1 (dilation 1, nothing pruned).
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `rf_max < 2`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        rf_max: usize,
        name: impl Into<String>,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        assert!(
            rf_max >= 2,
            "rf_max must be at least 2 for a searchable convolution"
        );
        let name = name.into();
        let fan_in = in_channels * rf_max;
        let weight = Param::new(
            init::kaiming_uniform(rng, &[out_channels, in_channels, rf_max], fan_in),
            format!("{name}.weight"),
        );
        let bias = Param::new(Tensor::zeros(&[out_channels]), format!("{name}.bias"));
        let l = gamma_len(rf_max);
        let gamma = Param::new(Tensor::ones(&[l - 1]), format!("{name}.gamma"));
        Self {
            weight,
            bias,
            gamma,
            in_channels,
            out_channels,
            rf_max,
            threshold: DEFAULT_THRESHOLD,
            name,
        }
    }

    /// The layer's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Maximum receptive field (number of taps of the un-pruned filter).
    pub fn rf_max(&self) -> usize {
        self.rf_max
    }

    /// Number of γ parameters including the constant γ₀.
    pub fn gamma_count(&self) -> usize {
        gamma_len(self.rf_max)
    }

    /// The trainable γ tail parameter (γ₁ … γ_{L−1}).
    pub fn gamma_param(&self) -> &Param {
        &self.gamma
    }

    /// The convolution weight parameter (`[C_out, C_in, rf_max]`).
    pub fn weight_param(&self) -> &Param {
        &self.weight
    }

    /// The bias parameter (`[C_out]`).
    pub fn bias_param(&self) -> &Param {
        &self.bias
    }

    /// Binarised γ tail under the current threshold.
    pub fn binarized_gamma(&self) -> Vec<f32> {
        self.gamma
            .value()
            .data()
            .iter()
            .map(|&g| if g >= self.threshold { 1.0 } else { 0.0 })
            .collect()
    }

    /// The dilation encoded by the current (binarised) γ values:
    /// `d = 2^(L−1−p)` where `p` is the length of the all-ones prefix of the
    /// γ tail.
    pub fn dilation(&self) -> usize {
        let bin = self.binarized_gamma();
        let l = self.gamma_count();
        let prefix = bin.iter().take_while(|&&b| b >= 0.5).count();
        1usize << (l - 1 - prefix)
    }

    /// Number of filter taps kept alive by the current dilation:
    /// `⌊(rf_max − 1)/d⌋ + 1`.
    pub fn alive_taps(&self) -> usize {
        (self.rf_max - 1) / self.dilation() + 1
    }

    /// Number of weights of the layer that survive the current mask
    /// (convolution weights of alive taps plus the bias).
    pub fn effective_weights(&self) -> usize {
        self.out_channels * self.in_channels * self.alive_taps() + self.out_channels
    }

    /// Number of convolution weights removed by the current mask.
    pub fn masked_weights(&self) -> usize {
        self.out_channels * self.in_channels * (self.rf_max - self.alive_taps())
    }

    /// Sets the γ tail to an explicit dilation (used to replay hand-tuned or
    /// externally chosen architectures through the same layer).
    ///
    /// # Panics
    ///
    /// Panics if `dilation` is not a power of two or exceeds the maximum
    /// supported dilation `2^(L−1)`.
    pub fn set_dilation(&self, dilation: usize) {
        assert!(
            dilation.is_power_of_two(),
            "dilation must be a power of two, got {dilation}"
        );
        let l = self.gamma_count();
        let max_d = 1usize << (l - 1);
        assert!(
            dilation <= max_d,
            "dilation {dilation} exceeds maximum supported {max_d}"
        );
        let prefix = l - 1 - dilation.trailing_zeros() as usize;
        let mut tail = vec![0.0f32; l - 1];
        for slot in tail.iter_mut().take(prefix) {
            *slot = 1.0;
        }
        self.gamma
            .set_value(Tensor::from_vec(tail, &[l - 1]).expect("gamma tail shape"));
    }

    /// Freezes the γ parameters at their binarised values so that the
    /// fine-tuning phase of Algorithm 1 only updates the weights.
    pub fn freeze(&self) {
        let bin = self.binarized_gamma();
        let len = bin.len();
        self.gamma
            .set_value(Tensor::from_vec(bin, &[len]).expect("gamma freeze shape"));
        self.gamma.set_trainable(false);
    }

    /// Returns `true` when γ is frozen (fine-tuning phase).
    pub fn is_frozen(&self) -> bool {
        !self.gamma.trainable()
    }

    /// Per-γ regularisation coefficients of Eq. 6 **excluding** the
    /// `C_in · C_out` factor: `round((rf_max − 1) / 2^(L−i))` for
    /// `i = 1 … L−1`, i.e. the number of filter time-slices kept alive by
    /// each non-zero γ.
    pub fn slice_counts(&self) -> Vec<f32> {
        let l = self.gamma_count();
        (1..l)
            .map(|i| ((self.rf_max - 1) as f32 / (1u64 << (l - i)) as f32).round())
            .collect()
    }

    /// Full regularisation coefficients of Eq. 6 for this layer:
    /// `C_in · C_out · round((rf_max − 1) / 2^(L−i))`.
    pub fn regularizer_coefficients(&self) -> Vec<f32> {
        let cc = (self.in_channels * self.out_channels) as f32;
        self.slice_counts().iter().map(|&s| cc * s).collect()
    }

    /// The binarised time mask `M` (length `rf_max`) under the current γ
    /// values, computed without a tape.
    ///
    /// This is the inference-side mask extraction API: with γ binarised, the
    /// Γ-product construction of Eq. 3–4 collapses to the dilation pattern
    /// `M[i] = 1 ⇔ d | i` for the dilation `d` encoded by the all-ones γ
    /// prefix, so the mask can be read directly off [`PitConv1d::dilation`]
    /// and matches the tape-built [`PitConv1d::mask`] exactly.
    pub fn time_mask_values(&self) -> Vec<f32> {
        let d = self.dilation();
        (0..self.rf_max)
            .map(|i| if i % d == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    /// Builds the differentiable time mask `M` for this layer on `tape`
    /// (binarised γ → Γ products → mask), as used in the forward pass.
    pub fn mask(&self, tape: &mut Tape) -> Var {
        let g = tape.param(&self.gamma);
        let g_bin = tape.binarize_ste(g, self.threshold);
        tape.pit_time_mask(g_bin, self.rf_max)
    }

    /// Extracts the dense weights of the *pruned* layer: a
    /// `[C_out, C_in, alive_taps]` tensor holding only the taps kept by the
    /// current dilation, suitable for deployment as a standard dilated
    /// convolution.
    pub fn export_pruned_weight(&self) -> Tensor {
        let d = self.dilation();
        let alive = self.alive_taps();
        let w = self.weight.value();
        let mut out = Vec::with_capacity(self.out_channels * self.in_channels * alive);
        for co in 0..self.out_channels {
            for ci in 0..self.in_channels {
                let base = (co * self.in_channels + ci) * self.rf_max;
                for a in 0..alive {
                    out.push(w.data()[base + a * d]);
                }
            }
        }
        Tensor::from_vec(out, &[self.out_channels, self.in_channels, alive])
            .expect("pruned weight shape")
    }
}

impl Layer for PitConv1d {
    fn forward(&self, tape: &mut Tape, input: Var, _mode: Mode) -> Var {
        let w = tape.param(&self.weight);
        let b = tape.param(&self.bias);
        let mask = self.mask(tape);
        // Fused mask ⊙ weight gather: one pass, no materialised W ⊙ M node,
        // and fully masked taps are skipped by the conv kernels.
        tape.conv1d_causal_masked(input, w, mask, Some(b), 1)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone(), self.gamma.clone()]
    }

    fn describe(&self) -> String {
        format!(
            "PitConv1d({}→{}, rf_max={}, d={})",
            self.in_channels,
            self.out_channels,
            self.rf_max,
            self.dilation()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_nn::layers::CausalConv1d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv(rf_max: usize) -> PitConv1d {
        let mut rng = StdRng::seed_from_u64(0);
        PitConv1d::new(&mut rng, 2, 3, rf_max, "test")
    }

    #[test]
    fn starts_with_dilation_one_and_all_taps() {
        let c = conv(9);
        assert_eq!(c.dilation(), 1);
        assert_eq!(c.alive_taps(), 9);
        assert_eq!(c.effective_weights(), 3 * 2 * 9 + 3);
        assert_eq!(c.masked_weights(), 0);
        assert_eq!(c.gamma_count(), 4);
        assert!(!c.is_frozen());
    }

    #[test]
    fn set_dilation_roundtrips() {
        let c = conv(9);
        for d in [1usize, 2, 4, 8] {
            c.set_dilation(d);
            assert_eq!(c.dilation(), d, "dilation {d}");
            assert_eq!(c.alive_taps(), (9 - 1) / d + 1);
        }
    }

    #[test]
    #[should_panic]
    fn set_dilation_rejects_non_power_of_two() {
        conv(9).set_dilation(3);
    }

    #[test]
    #[should_panic]
    fn set_dilation_rejects_too_large() {
        conv(9).set_dilation(16);
    }

    #[test]
    fn forward_shape_and_mask_effect() {
        let c = conv(9);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 2, 12]));
        let y = c.forward(&mut tape, x, Mode::Train);
        assert_eq!(tape.dims(y), vec![1, 3, 12]);

        // With dilation 8 only 2 taps remain: outputs must differ from the dense ones.
        c.set_dilation(8);
        let mut tape2 = Tape::new();
        let x2 = tape2.constant(Tensor::ones(&[1, 2, 12]));
        let y2 = c.forward(&mut tape2, x2, Mode::Train);
        assert!(!tape.value(y).approx_eq(tape2.value(y2), 1e-6));
    }

    #[test]
    fn masked_forward_equals_true_dilated_conv() {
        // The masked dense convolution must produce exactly the same output
        // as a standard dilated convolution using the exported pruned weights.
        let mut rng = StdRng::seed_from_u64(3);
        let c = PitConv1d::new(&mut rng, 3, 4, 9, "eq");
        c.set_dilation(4);

        let x = init::uniform(&mut rng, &[2, 3, 20], 1.0);
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let y_masked = c.forward(&mut tape, vx, Mode::Eval);

        let pruned = c.export_pruned_weight();
        assert_eq!(pruned.dims(), &[4, 3, 3]); // (9-1)/4 + 1 = 3 taps
        let y_dilated = x
            .conv1d_causal(&pruned, Some(&c.bias_param().value()), 4)
            .unwrap();
        assert!(tape.value(y_masked).approx_eq(&y_dilated, 1e-5));
    }

    #[test]
    fn equivalent_to_plain_conv_when_unpruned() {
        // With all gammas = 1 the layer behaves like a dense causal conv.
        let mut rng = StdRng::seed_from_u64(1);
        let c = PitConv1d::new(&mut rng, 2, 2, 5, "dense");
        let mut rng2 = StdRng::seed_from_u64(99);
        let plain = CausalConv1d::new(&mut rng2, 2, 2, 5, 1);
        plain.weight().set_value(c.weight_param().value());
        plain.bias().set_value(c.bias_param().value());
        let x = init::uniform(&mut rng, &[1, 2, 10], 1.0);
        let mut t1 = Tape::new();
        let v1 = t1.constant(x.clone());
        let y1 = c.forward(&mut t1, v1, Mode::Eval);
        let mut t2 = Tape::new();
        let v2 = t2.constant(x);
        let y2 = plain.forward(&mut t2, v2, Mode::Eval);
        assert!(t1.value(y1).approx_eq(t2.value(y2), 1e-5));
    }

    #[test]
    fn time_mask_values_match_tape_mask() {
        // The tape-free extraction must agree with the differentiable mask
        // for arbitrary (not just prefix-shaped) gamma patterns.
        let tails: &[&[f32]] = &[
            &[1.0, 1.0, 1.0],
            &[1.0, 1.0, 0.2],
            &[0.9, 0.3, 0.7],
            &[0.1, 0.8, 0.8],
            &[0.0, 0.0, 0.0],
        ];
        for tail in tails {
            let c = conv(9);
            c.gamma_param()
                .set_value(Tensor::from_vec(tail.to_vec(), &[3]).unwrap());
            let mut tape = Tape::new();
            let m = c.mask(&mut tape);
            assert_eq!(
                tape.value(m).data(),
                c.time_mask_values().as_slice(),
                "tail {tail:?}"
            );
        }
    }

    #[test]
    fn regularizer_coefficients_match_eq6() {
        let c = conv(9); // rf_max 9, L = 4
        assert_eq!(c.slice_counts(), vec![1.0, 2.0, 4.0]);
        assert_eq!(c.regularizer_coefficients(), vec![6.0, 12.0, 24.0]); // C_in*C_out = 6
    }

    #[test]
    fn freeze_locks_gamma() {
        let c = conv(9);
        c.gamma_param()
            .set_value(Tensor::from_vec(vec![0.9, 0.3, 0.7], &[3]).unwrap());
        // prefix of ones under threshold 0.5: gamma_1=1, gamma_2=0 -> prefix 1 -> d = 2^(3-1) = 4
        assert_eq!(c.dilation(), 4);
        c.freeze();
        assert!(c.is_frozen());
        assert_eq!(c.gamma_param().value().data(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn gradient_flows_into_gamma_during_search() {
        let c = conv(9);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 2, 16]));
        let y = c.forward(&mut tape, x, Mode::Train);
        let sq = tape.square(y);
        let loss = tape.sum(sq);
        tape.backward(loss);
        assert!(
            c.gamma_param().grad().abs().sum_all() > 0.0,
            "gamma should receive gradient"
        );
        assert!(c.weight_param().grad().abs().sum_all() > 0.0);
    }

    #[test]
    fn describe_reports_current_dilation() {
        let c = conv(17);
        c.set_dilation(8);
        assert!(c.describe().contains("d=8"));
        assert!(c.describe().contains("rf_max=17"));
    }
}
