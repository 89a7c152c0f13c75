//! The residual TCN (Bai et al.) seed used for the Nottingham benchmark.

use crate::tcn::{slot_dilations, Block, Conv, Head, Seed, Tcn};
use pit_nn::layers::{CausalConv1d, Dropout};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the ResTCN seed architecture.
///
/// The paper starts from the TCN of Bai et al. for polyphonic music: four
/// residual blocks of two dilated convolutions each (hand-tuned dilations
/// `1, 1, 2, 2, 4, 4, 8, 8`, kernel 5, 150 hidden channels, 88-key
/// per-time-step output). The PIT seed keeps the receptive field of every
/// convolution but sets `d = 1`, which is exactly what [`Tcn::new`]
/// builds: each searchable convolution has `rf_max = (k − 1) · d_hand + 1`
/// dense taps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResTcnConfig {
    /// Input channels (88 piano keys).
    pub input_channels: usize,
    /// Output channels (88 piano keys, per-time-step logits).
    pub output_channels: usize,
    /// Hidden channels of every residual block.
    pub hidden_channels: usize,
    /// Number of residual blocks (two convolutions each).
    pub num_blocks: usize,
    /// Kernel size of the original hand-designed convolutions.
    pub kernel_size: usize,
    /// Dropout probability inside the residual blocks.
    pub dropout: f32,
    /// Seed for the dropout masks.
    pub seed: u64,
}

impl ResTcnConfig {
    /// The paper-scale configuration (≈3.5 M seed parameters).
    pub fn paper() -> Self {
        Self {
            input_channels: 88,
            output_channels: 88,
            hidden_channels: 150,
            num_blocks: 4,
            kernel_size: 5,
            dropout: 0.1,
            seed: 0,
        }
    }

    /// A topology-preserving scaled-down configuration for fast experiments:
    /// same blocks, kernels and dilation search space, `hidden` channels.
    pub fn scaled(hidden: usize) -> Self {
        Self {
            hidden_channels: hidden,
            ..Self::paper()
        }
    }

    /// The hand-tuned dilations of the original network:
    /// `1, 1, 2, 2, 4, 4, 8, 8` (doubling every block).
    pub fn hand_tuned_dilations(&self) -> Vec<usize> {
        (0..self.num_blocks)
            .flat_map(|b| [1usize << b, 1usize << b])
            .collect()
    }

    /// The dilations of the un-dilated seed (all ones).
    pub fn seed_dilations(&self) -> Vec<usize> {
        vec![1; 2 * self.num_blocks]
    }

    /// Maximum receptive field of every searchable convolution:
    /// `rf_max = (k − 1) · d_hand + 1`.
    pub fn rf_max_per_layer(&self) -> Vec<usize> {
        self.hand_tuned_dilations()
            .iter()
            .map(|&d| (self.kernel_size - 1) * d + 1)
            .collect()
    }

    /// Number of searchable convolutions.
    pub fn num_searchable_layers(&self) -> usize {
        2 * self.num_blocks
    }
}

impl Default for ResTcnConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The searchable ResTCN network, built by [`Tcn::new`] from a
/// [`ResTcnConfig`] (the truly dilated one by [`Tcn::concrete`]).
///
/// Input `[N, input_channels, T]`, output `[N, output_channels, T]` logits.
pub type ResTcn = Tcn;

impl Seed for ResTcnConfig {
    /// Builds ResTCN: residual blocks of two searchable (or truly dilated)
    /// convolutions with dropout, a 1×1 skip projection where the channel
    /// count changes, then a per-time-step 1×1 output convolution. Block
    /// `b` seeds its dropout stream `seed + b` in the searchable network and
    /// `seed + 100 + b` in the truly dilated one.
    fn build<R: Rng + ?Sized>(&self, rng: &mut R, dilations: Option<&[usize]>) -> Tcn {
        let slots = slot_dilations(dilations, self.num_searchable_layers());
        let rf = self.rf_max_per_layer();
        let dropout_offset = if dilations.is_some() { 100 } else { 0 };
        let mut blocks = Vec::with_capacity(self.num_blocks);
        for b in 0..self.num_blocks {
            let in_ch = if b == 0 {
                self.input_channels
            } else {
                self.hidden_channels
            };
            let out_ch = self.hidden_channels;
            let (l1, l2) = (2 * b, 2 * b + 1);
            let conv1 = Conv::new(
                rng,
                in_ch,
                out_ch,
                rf[l1],
                slots[l1],
                format!("block{b}.conv1"),
            );
            let conv2 = Conv::new(
                rng,
                out_ch,
                out_ch,
                rf[l2],
                slots[l2],
                format!("block{b}.conv2"),
            );
            let downsample = (in_ch != out_ch).then(|| CausalConv1d::new(rng, in_ch, out_ch, 1, 1));
            let dropout = Dropout::new(
                self.dropout,
                self.seed.wrapping_add(dropout_offset + b as u64),
            );
            blocks.push(Block::Residual {
                conv1,
                conv2,
                downsample,
                dropout,
            });
        }
        let head = Head::PerStep(CausalConv1d::new(
            rng,
            self.hidden_channels,
            self.output_channels,
            1,
            1,
        ));
        Tcn::assemble("ResTCN", dilations, self.input_channels, blocks, head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_nas::{SearchSpace, SearchableNetwork};
    use pit_nn::{Layer, Mode};
    use pit_tensor::{Tape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> ResTcnConfig {
        ResTcnConfig {
            hidden_channels: 8,
            input_channels: 6,
            output_channels: 6,
            ..ResTcnConfig::paper()
        }
    }

    #[test]
    fn config_matches_paper_structure() {
        let cfg = ResTcnConfig::paper();
        assert_eq!(cfg.hand_tuned_dilations(), vec![1, 1, 2, 2, 4, 4, 8, 8]);
        assert_eq!(cfg.rf_max_per_layer(), vec![5, 5, 9, 9, 17, 17, 33, 33]);
        assert_eq!(cfg.num_searchable_layers(), 8);
        assert_eq!(cfg.seed_dilations(), vec![1; 8]);
    }

    #[test]
    fn search_space_is_about_1e5() {
        let cfg = ResTcnConfig::paper();
        let space = SearchSpace::new(cfg.rf_max_per_layer());
        // 3*3*4*4*5*5*6*6 = 129 600 ≈ 10^5, the order of magnitude quoted in Sec. IV-B.
        assert_eq!(space.size(), 129_600);
        assert!((5.0..5.3).contains(&space.log10_size()));
    }

    #[test]
    fn forward_shape_per_timestep_logits() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = ResTcn::new(&mut rng, &small_config());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 6, 24]));
        let y = net.forward(&mut tape, x, Mode::Train);
        assert_eq!(tape.dims(y), vec![2, 6, 24]);
    }

    #[test]
    fn has_eight_searchable_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = ResTcn::new(&mut rng, &small_config());
        assert_eq!(net.pit_layers().len(), 8);
        assert_eq!(net.dilations(), vec![1; 8]);
        net.set_dilations(&[1, 1, 2, 2, 4, 4, 8, 8]);
        assert_eq!(net.dilations(), vec![1, 1, 2, 2, 4, 4, 8, 8]);
    }

    #[test]
    fn paper_scale_parameter_counts_are_close_to_table3() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ResTcnConfig::paper();
        let net = ResTcn::new(&mut rng, &cfg);
        // Seed (d = 1, maximally sized filters): Table III reports 3.53 M.
        let seed_params = net.effective_weights();
        assert!(
            (2_500_000..4_500_000).contains(&seed_params),
            "seed params = {seed_params}"
        );
        // Hand-tuned dilations: Table III reports 1.05 M.
        net.set_dilations(&cfg.hand_tuned_dilations());
        let hand_params = net.effective_weights();
        assert!(
            (700_000..1_500_000).contains(&hand_params),
            "hand-tuned params = {hand_params}"
        );
        assert!(seed_params as f32 / hand_params as f32 > 2.0);
    }

    #[test]
    fn dilation_changes_effective_params_but_not_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = ResTcn::new(&mut rng, &small_config());
        let dense = net.effective_weights();
        net.set_dilations(&[1, 4, 8, 8, 16, 16, 8, 1]); // PIT ResTCN "large" of Table I
        assert!(net.effective_weights() < dense);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 6, 16]));
        let y = net.forward(&mut tape, x, Mode::Eval);
        assert_eq!(tape.dims(y), vec![1, 6, 16]);
    }

    #[test]
    fn descriptor_tracks_pruned_kernels() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = small_config();
        let net = ResTcn::new(&mut rng, &cfg);
        let dense_desc = net.descriptor(32);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let pruned_desc = net.descriptor(32);
        assert_eq!(dense_desc.len(), pruned_desc.len());
        assert!(pruned_desc.total_macs() < dense_desc.total_macs());
        assert!(pruned_desc.total_weights() < dense_desc.total_weights());
    }

    #[test]
    fn concrete_network_runs_and_matches_descriptor_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = small_config();
        let dil = cfg.hand_tuned_dilations();
        let concrete = ResTcn::concrete(&mut rng, &cfg, &dil);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 6, 16]));
        let y = concrete.forward(&mut tape, x, Mode::Eval);
        assert_eq!(tape.dims(y), vec![1, 6, 16]);
        // The concrete network has roughly the weight count of the pruned searchable one
        // (searchable still stores masked taps; effective_weights counts alive ones).
        let searchable = ResTcn::new(&mut rng, &cfg);
        searchable.set_dilations(&dil);
        assert_eq!(concrete.num_weights(), searchable.effective_weights());
    }
}
