//! The TEMPONet seed (Zanghieri et al.) used for the PPG-Dalia benchmark.

use crate::tcn::{slot_dilations, Block, Conv, Head, Seed, Tcn};
use pit_nn::layers::{AvgPool1d, BatchNorm1d, Linear};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the TEMPONet seed architecture.
///
/// TEMPONet processes windows of PPG + 3-axis accelerometer data
/// (`[N, 4, 256]` at 32 Hz) and regresses the heart rate of the window.
/// The topology used here follows the paper's Table I: seven searchable
/// temporal convolutions grouped in three blocks (3 + 2 + 2), average
/// pooling between blocks, batch normalisation after every convolution and a
/// two-layer fully connected head. Hand-tuned dilations are
/// `2, 2, 1, 4, 4, 8, 8`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TempoNetConfig {
    /// Input channels (PPG + 3-axis accelerometer = 4).
    pub input_channels: usize,
    /// Output channels of each of the seven searchable convolutions.
    pub channels: Vec<usize>,
    /// Kernel size of each of the seven hand-designed convolutions
    /// (the third convolution of the first block uses a wider kernel,
    /// following the original TEMPONet).
    pub kernel_sizes: Vec<usize>,
    /// Hidden width of the fully connected head.
    pub fc_hidden: usize,
    /// Input window length in samples (8 s at 32 Hz = 256).
    pub input_length: usize,
}

impl TempoNetConfig {
    /// The paper-scale configuration (≈0.9 M seed parameters).
    pub fn paper() -> Self {
        Self {
            input_channels: 4,
            channels: vec![32, 32, 64, 64, 64, 128, 128],
            kernel_sizes: vec![3, 3, 5, 3, 3, 3, 3],
            fc_hidden: 64,
            input_length: 256,
        }
    }

    /// A topology-preserving scaled-down configuration: channel counts are
    /// divided by `divisor` (minimum 2 channels each) and the input window is
    /// shortened to `input_length`.
    pub fn scaled(divisor: usize, input_length: usize) -> Self {
        let base = Self::paper();
        Self {
            channels: base
                .channels
                .iter()
                .map(|&c| (c / divisor).max(2))
                .collect(),
            input_length,
            fc_hidden: (base.fc_hidden / divisor).max(2),
            ..base
        }
    }

    /// Hand-tuned dilations of the original network: `2, 2, 1, 4, 4, 8, 8`.
    pub fn hand_tuned_dilations(&self) -> Vec<usize> {
        vec![2, 2, 1, 4, 4, 8, 8]
    }

    /// Dilations of the un-dilated seed (all ones).
    pub fn seed_dilations(&self) -> Vec<usize> {
        vec![1; 7]
    }

    /// Maximum receptive field of every searchable convolution:
    /// `rf_max = (k − 1) · d_hand + 1`.
    pub fn rf_max_per_layer(&self) -> Vec<usize> {
        self.hand_tuned_dilations()
            .iter()
            .zip(self.kernel_sizes.iter())
            .map(|(&d, &k)| (k - 1) * d + 1)
            .collect()
    }

    /// Number of searchable convolutions (seven).
    pub fn num_searchable_layers(&self) -> usize {
        7
    }

    /// How the seven convolutions are grouped into pooled blocks (3 + 2 + 2).
    pub fn block_sizes(&self) -> [usize; 3] {
        [3, 2, 2]
    }

    /// Sequence length after the three pooling stages.
    pub fn final_length(&self) -> usize {
        self.input_length / 8
    }
}

impl Default for TempoNetConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The searchable TEMPONet network, built by [`Tcn::new`] from a
/// [`TempoNetConfig`] (the truly dilated one by [`Tcn::concrete`]).
///
/// Input `[N, 4, input_length]`, output `[N, 1]` heart-rate estimates.
pub type TempoNet = Tcn;

impl Seed for TempoNetConfig {
    /// Builds TEMPONet: three plain blocks of searchable (or truly dilated)
    /// convolutions, each followed by batch norm and ReLU and closed by
    /// stride-2 average pooling, then the two-layer regression head.
    ///
    /// # Panics
    ///
    /// Panics unless there are seven channel counts, and if `input_length`
    /// is not divisible by 8 (three pooling stages of stride 2).
    fn build<R: Rng + ?Sized>(&self, rng: &mut R, dilations: Option<&[usize]>) -> Tcn {
        assert_eq!(
            self.channels.len(),
            7,
            "TEMPONet needs exactly 7 channel counts"
        );
        assert_eq!(
            self.input_length % 8,
            0,
            "input_length must be divisible by 8 (three stride-2 pooling stages)"
        );
        let slots = slot_dilations(dilations, 7);
        let rf = self.rf_max_per_layer();
        let mut blocks = Vec::with_capacity(3);
        let mut layer_idx = 0usize;
        let mut in_ch = self.input_channels;
        for (b, &block_len) in self.block_sizes().iter().enumerate() {
            let mut layers = Vec::with_capacity(block_len);
            for _ in 0..block_len {
                let out_ch = self.channels[layer_idx];
                let conv = Conv::new(
                    rng,
                    in_ch,
                    out_ch,
                    rf[layer_idx],
                    slots[layer_idx],
                    format!("block{b}.conv{layer_idx}"),
                );
                layers.push((conv, Some(BatchNorm1d::new(out_ch))));
                in_ch = out_ch;
                layer_idx += 1;
            }
            blocks.push(Block::Plain {
                layers,
                pool: Some(AvgPool1d::new(2, 2)),
            });
        }
        let flat = self.channels[6] * self.final_length();
        let head = Head::Fc {
            hidden: Linear::new(rng, flat, self.fc_hidden),
            output: Linear::new(rng, self.fc_hidden, 1),
        };
        Tcn::assemble("TEMPONet", dilations, self.input_channels, blocks, head)
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

    fn small_config() -> TempoNetConfig {
        TempoNetConfig::scaled(8, 64)
    }

    #[test]
    fn config_matches_paper_structure() {
        let cfg = TempoNetConfig::paper();
        assert_eq!(cfg.hand_tuned_dilations(), vec![2, 2, 1, 4, 4, 8, 8]);
        assert_eq!(cfg.rf_max_per_layer(), vec![5, 5, 5, 9, 9, 17, 17]);
        assert_eq!(cfg.num_searchable_layers(), 7);
        assert_eq!(cfg.final_length(), 32);
    }

    #[test]
    fn search_space_is_about_1e4() {
        let cfg = TempoNetConfig::paper();
        let space = SearchSpace::new(cfg.rf_max_per_layer());
        // 3*3*3*4*4*5*5 = 10 800 ≈ 10^4, the order of magnitude quoted in Sec. IV-B.
        assert_eq!(space.size(), 10_800);
        assert!((3.5..4.2).contains(&space.log10_size()));
    }

    #[test]
    fn forward_shape_is_scalar_regression() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = small_config();
        let net = TempoNet::new(&mut rng, &cfg);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[3, 4, cfg.input_length]));
        let y = net.forward(&mut tape, x, Mode::Train);
        assert_eq!(tape.dims(y), vec![3, 1]);
    }

    #[test]
    fn has_seven_searchable_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = TempoNet::new(&mut rng, &small_config());
        assert_eq!(net.pit_layers().len(), 7);
        net.set_dilations(&[2, 4, 4, 8, 8, 16, 16]); // PIT TEMPONet "small" of Table I
        assert_eq!(net.dilations(), vec![2, 4, 4, 8, 8, 16, 16]);
    }

    #[test]
    fn paper_scale_parameter_counts_are_close_to_table3() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TempoNetConfig::paper();
        let net = TempoNet::new(&mut rng, &cfg);
        // Seed (d = 1): Table III reports 939 k.
        let seed_params = net.effective_weights();
        assert!(
            (600_000..1_300_000).contains(&seed_params),
            "seed params = {seed_params}"
        );
        // Hand-tuned: Table III reports 423 k.
        net.set_dilations(&cfg.hand_tuned_dilations());
        let hand = net.effective_weights();
        assert!(
            (250_000..600_000).contains(&hand),
            "hand-tuned params = {hand}"
        );
        assert!(seed_params > hand);
    }

    #[test]
    fn descriptor_covers_all_stages() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = small_config();
        let net = TempoNet::new(&mut rng, &cfg);
        let desc = net.descriptor(cfg.input_length);
        // 7 convs + 7 bns + 3 pools + 2 linears
        assert_eq!(desc.len(), 19);
        assert!(desc.total_macs() > 0);
    }

    #[test]
    fn concrete_matches_effective_weight_count_up_to_bn() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = small_config();
        let dil = cfg.hand_tuned_dilations();
        let concrete = TempoNet::concrete(&mut rng, &cfg, &dil);
        let searchable = TempoNet::new(&mut rng, &cfg);
        searchable.set_dilations(&dil);
        assert_eq!(concrete.num_weights(), searchable.effective_weights());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 4, cfg.input_length]));
        let y = concrete.forward(&mut tape, x, Mode::Eval);
        assert_eq!(tape.dims(y), vec![2, 1]);
    }

    #[test]
    #[should_panic]
    fn input_length_must_be_divisible_by_eight() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TempoNetConfig {
            input_length: 30,
            ..small_config()
        };
        let _ = TempoNet::new(&mut rng, &cfg);
    }
}
