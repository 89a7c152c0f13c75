//! Causal dilated 1-D convolution layer.

use super::{Layer, Mode};
use pit_tensor::{init, Param, Tape, Var};
use rand::Rng;

/// A causal, dilated 1-D convolution over `[N, C_in, T]` activations.
///
/// This is the "fixed-dilation" convolution used by the seed and hand-tuned
/// baselines; the searchable counterpart lives in `pit-nas` as `PitConv1d`.
///
/// # Example
///
/// ```
/// use pit_nn::{Layer, Mode, layers::CausalConv1d};
/// use pit_tensor::{Tape, Tensor};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let conv = CausalConv1d::new(&mut rng, 3, 8, 5, 2);
/// let mut tape = Tape::new();
/// let x = tape.constant(Tensor::zeros(&[1, 3, 16]));
/// let y = conv.forward(&mut tape, x, Mode::Eval);
/// assert_eq!(tape.dims(y), vec![1, 8, 16]);
/// ```
pub struct CausalConv1d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    dilation: usize,
}

impl CausalConv1d {
    /// Creates a convolution with Kaiming-uniform initialised weights and a
    /// zero-initialised bias.
    ///
    /// # Panics
    ///
    /// Panics if any of the sizes or the dilation is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        dilation: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel_size > 0,
            "conv sizes must be positive"
        );
        assert!(dilation > 0, "dilation must be >= 1");
        let fan_in = in_channels * kernel_size;
        let weight = Param::new(
            init::kaiming_uniform(rng, &[out_channels, in_channels, kernel_size], fan_in),
            format!("conv{out_channels}x{in_channels}x{kernel_size}.weight"),
        );
        let bias = Param::new(
            pit_tensor::Tensor::zeros(&[out_channels]),
            format!("conv{out_channels}x{in_channels}x{kernel_size}.bias"),
        );
        Self {
            weight,
            bias,
            in_channels,
            out_channels,
            kernel_size,
            dilation,
        }
    }

    /// The dilation factor currently used by the layer.
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// The kernel size (number of taps).
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Receptive field of the layer: `(K − 1) · d + 1` input samples.
    pub fn receptive_field(&self) -> usize {
        (self.kernel_size - 1) * self.dilation + 1
    }

    /// The weight parameter (`[C_out, C_in, K]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The bias parameter (`[C_out]`).
    pub fn bias(&self) -> &Param {
        &self.bias
    }
}

impl Layer for CausalConv1d {
    fn forward(&self, tape: &mut Tape, input: Var, _mode: Mode) -> Var {
        let w = tape.param(&self.weight);
        let b = tape.param(&self.bias);
        tape.conv1d_causal(input, w, Some(b), self.dilation)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    fn describe(&self) -> String {
        format!(
            "CausalConv1d({}→{}, k={}, d={})",
            self.in_channels, self.out_channels, self.kernel_size, self.dilation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_tensor::{Tape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_preserves_time() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = CausalConv1d::new(&mut rng, 2, 4, 3, 2);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[3, 2, 10]));
        let y = conv.forward(&mut tape, x, Mode::Train);
        assert_eq!(tape.dims(y), vec![3, 4, 10]);
    }

    #[test]
    fn parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = CausalConv1d::new(&mut rng, 2, 4, 3, 1);
        assert_eq!(conv.num_weights(), 4 * 2 * 3 + 4);
    }

    #[test]
    fn receptive_field_formula() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = CausalConv1d::new(&mut rng, 1, 1, 9, 4);
        assert_eq!(conv.receptive_field(), 33);
        assert_eq!(conv.dilation(), 4);
        assert_eq!(conv.kernel_size(), 9);
    }

    #[test]
    fn causality_no_future_leakage() {
        // Changing a future input sample must not change past outputs.
        let mut rng = StdRng::seed_from_u64(1);
        let conv = CausalConv1d::new(&mut rng, 1, 1, 3, 2);
        let base = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 1, 6]).unwrap();
        let mut modified = base.clone();
        modified.data_mut()[5] = 100.0; // change only the last time step

        let mut t1 = Tape::new();
        let x1 = t1.constant(base);
        let y1 = conv.forward(&mut t1, x1, Mode::Eval);
        let mut t2 = Tape::new();
        let x2 = t2.constant(modified);
        let y2 = conv.forward(&mut t2, x2, Mode::Eval);
        let a = t1.value(y1).data();
        let b = t2.value(y2).data();
        assert_eq!(
            &a[..5],
            &b[..5],
            "outputs before the modified sample must match"
        );
        assert_ne!(a[5], b[5]);
    }

    #[test]
    fn describe_mentions_dilation() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = CausalConv1d::new(&mut rng, 2, 4, 3, 8);
        assert!(conv.describe().contains("d=8"));
    }
}
