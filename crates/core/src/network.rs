//! The trait searchable models implement, plus network-level accounting.

use crate::conv::PitConv1d;
use pit_nn::Layer;

/// A network whose temporal convolutions are [`PitConv1d`] layers and can
/// therefore be optimised by [`crate::PitSearch`].
///
/// Implementors expose their searchable convolutions in network order so
/// that extracted dilation vectors match the per-layer tables of the paper
/// (Table I).
pub trait SearchableNetwork: Layer {
    /// The searchable convolutions of the network, in topological order.
    fn pit_layers(&self) -> Vec<&PitConv1d>;

    /// Current dilation of every searchable convolution, in network order.
    fn dilations(&self) -> Vec<usize> {
        self.pit_layers().iter().map(|l| l.dilation()).collect()
    }

    /// Applies an explicit dilation configuration to the searchable layers.
    ///
    /// # Panics
    ///
    /// Panics if the number of dilations does not match the number of
    /// searchable layers, or any dilation is invalid for its layer.
    fn set_dilations(&self, dilations: &[usize]) {
        let layers = self.pit_layers();
        assert_eq!(
            layers.len(),
            dilations.len(),
            "expected {} dilations, got {}",
            layers.len(),
            dilations.len()
        );
        for (layer, &d) in layers.iter().zip(dilations.iter()) {
            layer.set_dilation(d);
        }
    }

    /// Total number of weights of the network before pruning.
    fn total_weights(&self) -> usize {
        self.num_weights()
    }

    /// Number of weights that survive the current dilation configuration
    /// (total weights minus the convolution taps removed by the masks).
    ///
    /// This is the "# parameters" axis of Fig. 4 and the "# weights" column
    /// of Tables II and III.
    fn effective_weights(&self) -> usize {
        let masked: usize = self.pit_layers().iter().map(|l| l.masked_weights()).sum();
        self.num_weights() - masked - self.gamma_weights()
    }

    /// Number of γ search parameters (they are not part of the deployed model).
    fn gamma_weights(&self) -> usize {
        self.pit_layers()
            .iter()
            .map(|l| l.gamma_param().len())
            .sum()
    }

    /// Freezes every searchable layer (entering the fine-tuning phase).
    fn freeze_all(&self) {
        for layer in self.pit_layers() {
            layer.freeze();
        }
    }

    /// One-line summary of the architecture and its current dilations.
    fn architecture_summary(&self) -> String {
        format!(
            "dilations={:?}, effective weights={}, total weights={}",
            self.dilations(),
            self.effective_weights(),
            self.total_weights()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_nn::{Layer, Mode};
    use pit_tensor::{Param, Tape, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A minimal two-layer searchable network used by the unit tests.
    struct TinyNet {
        a: PitConv1d,
        b: PitConv1d,
    }

    impl TinyNet {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(0);
            Self {
                a: PitConv1d::new(&mut rng, 1, 2, 9, "a"),
                b: PitConv1d::new(&mut rng, 2, 1, 5, "b"),
            }
        }
    }

    impl Layer for TinyNet {
        fn forward(&self, tape: &mut Tape, input: Var, mode: Mode) -> Var {
            let h = self.a.forward(tape, input, mode);
            let h = tape.relu(h);
            self.b.forward(tape, h, mode)
        }

        fn params(&self) -> Vec<Param> {
            let mut p = self.a.params();
            p.extend(self.b.params());
            p
        }
    }

    impl SearchableNetwork for TinyNet {
        fn pit_layers(&self) -> Vec<&PitConv1d> {
            vec![&self.a, &self.b]
        }
    }

    #[test]
    fn dilations_and_set_dilations() {
        let net = TinyNet::new();
        assert_eq!(net.dilations(), vec![1, 1]);
        net.set_dilations(&[4, 2]);
        assert_eq!(net.dilations(), vec![4, 2]);
    }

    #[test]
    #[should_panic]
    fn set_dilations_wrong_length_panics() {
        TinyNet::new().set_dilations(&[1]);
    }

    #[test]
    fn effective_weights_shrink_with_dilation() {
        let net = TinyNet::new();
        let dense = net.effective_weights();
        // a: 1*2*9 + 2 = 20 conv weights, b: 2*1*5 + 1 = 11 -> 31 (gammas excluded)
        assert_eq!(dense, 31);
        net.set_dilations(&[8, 4]);
        let pruned = net.effective_weights();
        // a alive taps: 2 -> 1*2*2+2 = 6 ; b alive taps: 2 -> 2*1*2+1 = 5
        assert_eq!(pruned, 11);
        assert!(pruned < dense);
    }

    #[test]
    fn freeze_all_marks_layers_frozen() {
        let net = TinyNet::new();
        net.freeze_all();
        assert!(net.pit_layers().iter().all(|l| l.is_frozen()));
    }

    #[test]
    fn summary_mentions_dilations() {
        let net = TinyNet::new();
        net.set_dilations(&[2, 1]);
        let s = net.architecture_summary();
        assert!(s.contains("[2, 1]"));
    }
}
