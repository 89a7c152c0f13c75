//! A small configurable searchable TCN for examples and tests.

use crate::tcn::{slot_dilations, Block, Conv, Head, Seed, Tcn};
use pit_nn::layers::Linear;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a [`GenericTcn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenericTcnConfig {
    /// Input channels.
    pub input_channels: usize,
    /// Output channels of each searchable convolution.
    pub channels: Vec<usize>,
    /// Maximum receptive field of each searchable convolution
    /// (same length as `channels`).
    pub rf_max: Vec<usize>,
    /// Number of regression outputs of the head.
    pub outputs: usize,
}

impl GenericTcnConfig {
    /// A tiny two-layer configuration used as a quick-start example.
    pub fn tiny() -> Self {
        Self {
            input_channels: 1,
            channels: vec![8, 8],
            rf_max: vec![9, 17],
            outputs: 1,
        }
    }
}

/// A stack of searchable convolutions with ReLU activations, global average
/// pooling over time and a linear regression head, built by [`Tcn::new`]
/// from a [`GenericTcnConfig`].
///
/// Input `[N, input_channels, T]`, output `[N, outputs]`.
pub type GenericTcn = Tcn;

impl Seed for GenericTcnConfig {
    /// Builds one plain block of convolutions (no batch norm, no pooling)
    /// and a global-pool linear head.
    ///
    /// # Panics
    ///
    /// Panics if `channels` and `rf_max` have different lengths or are empty.
    fn build<R: Rng + ?Sized>(&self, rng: &mut R, dilations: Option<&[usize]>) -> Tcn {
        assert_eq!(
            self.channels.len(),
            self.rf_max.len(),
            "channels and rf_max lengths differ"
        );
        assert!(
            !self.channels.is_empty(),
            "at least one convolution is required"
        );
        let slots = slot_dilations(dilations, self.channels.len());
        let mut layers = Vec::with_capacity(self.channels.len());
        let mut in_ch = self.input_channels;
        for (i, (&out_ch, &rf)) in self.channels.iter().zip(self.rf_max.iter()).enumerate() {
            let conv = Conv::new(rng, in_ch, out_ch, rf, slots[i], format!("conv{i}"));
            layers.push((conv, None));
            in_ch = out_ch;
        }
        let blocks = vec![Block::Plain { layers, pool: None }];
        let head = Head::GlobalPoolFc(Linear::new(rng, in_ch, self.outputs));
        Tcn::assemble("GenericTcn", dilations, self.input_channels, blocks, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_nas::SearchableNetwork;
    use pit_nn::{Layer, Mode};
    use pit_tensor::{Tape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tiny_config_builds_and_runs() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 1, 32]));
        let y = net.forward(&mut tape, x, Mode::Train);
        assert_eq!(tape.dims(y), vec![2, 1]);
        assert_eq!(net.pit_layers().len(), 2);
        assert_eq!(net.dilations(), vec![1, 1]);
    }

    #[test]
    fn descriptor_reflects_dilations() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        let dense = net.descriptor(32).total_macs();
        net.set_dilations(&[8, 16]);
        let pruned = net.descriptor(32).total_macs();
        assert!(pruned < dense);
    }

    #[test]
    #[should_panic]
    fn mismatched_config_lengths_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = GenericTcnConfig {
            channels: vec![4],
            rf_max: vec![9, 9],
            input_channels: 1,
            outputs: 1,
        };
        let _ = GenericTcn::new(&mut rng, &cfg);
    }
}
