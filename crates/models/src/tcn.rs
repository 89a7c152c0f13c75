//! The one trainable TCN type: a list of blocks followed by a head.
//!
//! Every seed network of the paper is a [`Tcn`]. Its temporal convolutions
//! are [`Conv`]s: searchable [`PitConv1d`]s in the seed the PIT search trains
//! (masked dense convolutions: every tap stored, pruned taps zeroed), or
//! fixed-dilation [`CausalConv1d`]s in the deployable network that stores
//! and executes only the alive taps. Each seed configuration implements
//! [`Seed`], whose one `build` makes both: [`Tcn::new`] the searchable seed
//! and [`Tcn::concrete`] the truly dilated network for a dilation
//! assignment, drawing its weights from the RNG in the same order.

use crate::descriptor::{LayerDesc, NetworkDescriptor};
use pit_nas::{PitConv1d, SearchableNetwork};
use pit_nn::layers::{AvgPool1d, BatchNorm1d, CausalConv1d, Dropout, Linear};
use pit_nn::{Layer, Mode};
use pit_tensor::{Param, Tape, Var};
use rand::Rng;

/// A seed configuration that builds its [`Tcn`].
pub trait Seed {
    /// Builds the network: the searchable seed (maximally sized filters,
    /// dilation 1) when `dilations` is `None`, otherwise the truly dilated
    /// network with one dilation per searchable slot, named
    /// `<seed>-concrete`. Its weights are freshly initialised either way.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or `dilations` does not
    /// hold one dilation per searchable slot.
    fn build<R: Rng + ?Sized>(&self, rng: &mut R, dilations: Option<&[usize]>) -> Tcn;
}

/// A temporal convolution of a [`Tcn`].
pub enum Conv {
    /// A searchable convolution over the slot's maximal receptive field.
    Pit(PitConv1d),
    /// A fixed-dilation convolution storing only its alive taps.
    Causal(CausalConv1d),
}

impl Conv {
    /// Builds the convolution of one seed slot with receptive field `rf`:
    /// searchable when `dilation` is `None`, otherwise truly dilated with
    /// the `(rf − 1) / d + 1` taps alive under dilation `d`.
    pub(crate) fn new<R: Rng + ?Sized>(
        rng: &mut R,
        c_in: usize,
        c_out: usize,
        rf: usize,
        dilation: Option<usize>,
        name: String,
    ) -> Self {
        match dilation {
            None => Conv::Pit(PitConv1d::new(rng, c_in, c_out, rf, name)),
            Some(d) => Conv::Causal(CausalConv1d::new(rng, c_in, c_out, (rf - 1) / d + 1, d)),
        }
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        match self {
            Conv::Pit(c) => c.in_channels(),
            Conv::Causal(c) => c.in_channels(),
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        match self {
            Conv::Pit(c) => c.out_channels(),
            Conv::Causal(c) => c.out_channels(),
        }
    }

    /// Taps executed under the current dilation.
    pub fn kernel(&self) -> usize {
        match self {
            Conv::Pit(c) => c.alive_taps(),
            Conv::Causal(c) => c.kernel_size(),
        }
    }

    /// The current dilation.
    pub fn dilation(&self) -> usize {
        match self {
            Conv::Pit(c) => c.dilation(),
            Conv::Causal(c) => c.dilation(),
        }
    }

    fn desc(&self, t: usize) -> LayerDesc {
        conv_desc(
            self.in_channels(),
            self.out_channels(),
            self.kernel(),
            self.dilation(),
            t,
        )
    }
}

impl Layer for Conv {
    fn forward(&self, tape: &mut Tape, input: Var, mode: Mode) -> Var {
        match self {
            Conv::Pit(c) => c.forward(tape, input, mode),
            Conv::Causal(c) => c.forward(tape, input, mode),
        }
    }

    fn params(&self) -> Vec<Param> {
        match self {
            Conv::Pit(c) => c.params(),
            Conv::Causal(c) => c.params(),
        }
    }
}

/// One block of a [`Tcn`].
// The variant size gap (Residual inlines two convs, Plain a Vec) is fine:
// blocks are built once per network and held in a short Vec.
#[allow(clippy::large_enum_variant)]
pub enum Block {
    /// A chain of convolutions, each followed by an optional batch norm and
    /// a ReLU, closed by optional average pooling (TEMPONet, generic TCN).
    Plain {
        /// The convolutions with their batch norms, in order.
        layers: Vec<(Conv, Option<BatchNorm1d>)>,
        /// The pooling stage closing the block.
        pool: Option<AvgPool1d>,
    },
    /// Two convolutions, each followed by a ReLU and dropout, added to the
    /// block input before a final ReLU (ResTCN).
    Residual {
        /// First convolution.
        conv1: Conv,
        /// Second convolution.
        conv2: Conv,
        /// 1×1 projection of the skip path when the channel counts differ.
        downsample: Option<CausalConv1d>,
        /// Dropout after each convolution.
        dropout: Dropout,
    },
}

impl Layer for Block {
    fn forward(&self, tape: &mut Tape, input: Var, mode: Mode) -> Var {
        match self {
            Block::Plain { layers, pool } => {
                let mut h = input;
                for (conv, norm) in layers {
                    h = conv.forward(tape, h, mode);
                    if let Some(norm) = norm {
                        h = norm.forward(tape, h, mode);
                    }
                    h = tape.relu(h);
                }
                match pool {
                    Some(pool) => pool.forward(tape, h, mode),
                    None => h,
                }
            }
            Block::Residual {
                conv1,
                conv2,
                downsample,
                dropout,
            } => {
                let h = conv1.forward(tape, input, mode);
                let h = tape.relu(h);
                let h = dropout.forward(tape, h, mode);
                let h = conv2.forward(tape, h, mode);
                let h = tape.relu(h);
                let h = dropout.forward(tape, h, mode);
                let residual = match downsample {
                    Some(proj) => proj.forward(tape, input, mode),
                    None => input,
                };
                let sum = tape.add(h, residual);
                tape.relu(sum)
            }
        }
    }

    fn params(&self) -> Vec<Param> {
        match self {
            Block::Plain { layers, .. } => {
                let convs = layers.iter().flat_map(|(conv, _)| conv.params());
                let norms = layers.iter().flat_map(|(_, norm)| norm.iter());
                convs.chain(norms.flat_map(|n| n.params())).collect()
            }
            Block::Residual {
                conv1,
                conv2,
                downsample,
                ..
            } => {
                let mut p = conv1.params();
                p.extend(conv2.params());
                p.extend(downsample.iter().flat_map(|proj| proj.params()));
                p
            }
        }
    }
}

/// The output head of a [`Tcn`].
pub enum Head {
    /// A per-time-step convolution: `[N, C_out, T]` outputs.
    PerStep(CausalConv1d),
    /// Flatten, then a two-layer MLP with a ReLU between: `[N, out]`.
    Fc {
        /// Hidden dense layer.
        hidden: Linear,
        /// Output dense layer.
        output: Linear,
    },
    /// Global average pooling over time, then one dense layer: `[N, out]`.
    GlobalPoolFc(Linear),
}

/// A temporal convolutional network: [`Block`]s, then a [`Head`].
///
/// Input `[N, input_channels, T]`; the head sets the output shape.
pub struct Tcn {
    name: String,
    input_channels: usize,
    blocks: Vec<Block>,
    head: Head,
}

impl Tcn {
    /// Builds the searchable seed of `seed` (maximally sized filters,
    /// dilation 1).
    pub fn new<R: Rng + ?Sized, S: Seed>(rng: &mut R, seed: &S) -> Self {
        seed.build(rng, None)
    }

    /// Builds the deployable, truly dilated network of `seed` for a
    /// dilation assignment: each convolution keeps only the taps alive
    /// under its dilation. Weights are freshly initialised: this is for
    /// training-cost comparisons and deployment studies, not weight export.
    pub fn concrete<R: Rng + ?Sized, S: Seed>(rng: &mut R, seed: &S, dilations: &[usize]) -> Self {
        seed.build(rng, Some(dilations))
    }

    /// Assembles a seed build; the truly dilated one (`dilations` given) is
    /// named `<name>-concrete`.
    pub(crate) fn assemble(
        name: &str,
        dilations: Option<&[usize]>,
        input_channels: usize,
        blocks: Vec<Block>,
        head: Head,
    ) -> Self {
        let name = match dilations {
            Some(_) => format!("{name}-concrete"),
            None => name.to_string(),
        };
        Self {
            name,
            input_channels,
            blocks,
            head,
        }
    }

    /// The network name (`TEMPONet`, `ResTCN-concrete`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input channels.
    pub fn input_channels(&self) -> usize {
        self.input_channels
    }

    /// The blocks in network order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The output head.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// The block convolutions in network order (skip projections and the
    /// head excluded).
    fn convs(&self) -> impl Iterator<Item = &Conv> {
        self.blocks.iter().flat_map(|block| {
            let (chain, pair) = match block {
                Block::Plain { layers, .. } => (&layers[..], None),
                Block::Residual { conv1, conv2, .. } => (&[][..], Some([conv1, conv2])),
            };
            chain
                .iter()
                .map(|(conv, _)| conv)
                .chain(pair.into_iter().flatten())
        })
    }

    /// Static per-layer description of the network, at its current
    /// dilations, for an input of length `t`.
    pub fn descriptor(&self, t: usize) -> NetworkDescriptor {
        let mut d = NetworkDescriptor::new(self.name.clone());
        let (mut t, mut channels) = (t, self.input_channels);
        for block in &self.blocks {
            match block {
                Block::Plain { layers, pool } => {
                    for (conv, norm) in layers {
                        d.push(conv.desc(t));
                        channels = conv.out_channels();
                        if norm.is_some() {
                            d.push(LayerDesc::BatchNorm { channels, t });
                        }
                    }
                    if let Some(pool) = pool {
                        let t_out = (t - pool.kernel()) / pool.stride() + 1;
                        d.push(LayerDesc::AvgPool {
                            channels,
                            kernel: pool.kernel(),
                            stride: pool.stride(),
                            t_in: t,
                            t_out,
                        });
                        t = t_out;
                    }
                }
                Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                    ..
                } => {
                    d.push(conv1.desc(t));
                    d.push(conv2.desc(t));
                    if let Some(proj) = downsample {
                        d.push(causal_desc(proj, t));
                    }
                    channels = conv2.out_channels();
                }
            }
        }
        let linear = |l: &Linear| LayerDesc::Linear {
            in_features: l.in_features(),
            out_features: l.out_features(),
        };
        match &self.head {
            Head::PerStep(conv) => d.push(causal_desc(conv, t)),
            Head::Fc { hidden, output } => {
                d.push(linear(hidden));
                d.push(linear(output));
            }
            Head::GlobalPoolFc(dense) => d.push(linear(dense)),
        }
        d
    }
}

fn conv_desc(c_in: usize, c_out: usize, kernel: usize, dilation: usize, t: usize) -> LayerDesc {
    LayerDesc::Conv1d {
        c_in,
        c_out,
        kernel,
        dilation,
        t_in: t,
        t_out: t,
    }
}

fn causal_desc(conv: &CausalConv1d, t: usize) -> LayerDesc {
    conv_desc(
        conv.in_channels(),
        conv.out_channels(),
        conv.kernel_size(),
        conv.dilation(),
        t,
    )
}

/// The per-slot dilations of a seed build: `None` in every slot of the
/// searchable seed.
///
/// # Panics
///
/// Panics if `dilations` is given and does not hold `slots` entries.
pub(crate) fn slot_dilations(dilations: Option<&[usize]>, slots: usize) -> Vec<Option<usize>> {
    match dilations {
        Some(d) => {
            assert_eq!(d.len(), slots, "expected {slots} dilations");
            d.iter().copied().map(Some).collect()
        }
        None => vec![None; slots],
    }
}

impl Layer for Tcn {
    fn forward(&self, tape: &mut Tape, input: Var, mode: Mode) -> Var {
        let mut x = input;
        for block in &self.blocks {
            x = block.forward(tape, x, mode);
        }
        match &self.head {
            Head::PerStep(conv) => conv.forward(tape, x, mode),
            Head::Fc { hidden, output } => {
                let flat = tape.flatten_batch(x);
                let h = hidden.forward(tape, flat, mode);
                let h = tape.relu(h);
                output.forward(tape, h, mode)
            }
            Head::GlobalPoolFc(dense) => {
                let pooled = tape.global_avg_pool_time(x);
                dense.forward(tape, pooled, mode)
            }
        }
    }

    fn params(&self) -> Vec<Param> {
        let mut p: Vec<Param> = self.blocks.iter().flat_map(|b| b.params()).collect();
        match &self.head {
            Head::PerStep(conv) => p.extend(conv.params()),
            Head::Fc { hidden, output } => {
                p.extend(hidden.params());
                p.extend(output.params());
            }
            Head::GlobalPoolFc(dense) => p.extend(dense.params()),
        }
        p
    }

    fn describe(&self) -> String {
        let dilations: Vec<usize> = self.convs().map(Conv::dilation).collect();
        format!(
            "{}(layers={}, dilations={dilations:?})",
            self.name,
            dilations.len()
        )
    }
}

impl SearchableNetwork for Tcn {
    fn pit_layers(&self) -> Vec<&PitConv1d> {
        self.convs()
            .filter_map(|conv| match conv {
                Conv::Pit(c) => Some(c),
                Conv::Causal(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenericTcnConfig, ResTcnConfig, TempoNetConfig};
    use pit_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plain_net() -> Tcn {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv::Causal(CausalConv1d::new(&mut rng, 2, 4, 3, 2));
        let blocks = vec![Block::Plain {
            layers: vec![(conv, Some(BatchNorm1d::new(4)))],
            pool: Some(AvgPool1d::new(2, 2)),
        }];
        let head = Head::Fc {
            hidden: Linear::new(&mut rng, 4 * 8, 8),
            output: Linear::new(&mut rng, 8, 1),
        };
        Tcn::assemble("toy", None, 2, blocks, head)
    }

    #[test]
    fn plain_block_with_fc_head_shapes() {
        let net = plain_net();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[3, 2, 16]));
        let y = net.forward(&mut tape, x, Mode::Train);
        assert_eq!(tape.dims(y), vec![3, 1]);
        assert_eq!(net.blocks().len(), 1);
        assert_eq!(net.name(), "toy");
        assert_eq!(net.describe(), "toy(layers=1, dilations=[2])");
    }

    #[test]
    fn residual_block_with_per_step_head_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let blocks = vec![Block::Residual {
            conv1: Conv::Causal(CausalConv1d::new(&mut rng, 3, 5, 2, 1)),
            conv2: Conv::Causal(CausalConv1d::new(&mut rng, 5, 5, 2, 2)),
            downsample: Some(CausalConv1d::new(&mut rng, 3, 5, 1, 1)),
            dropout: Dropout::new(0.0, 0),
        }];
        let head = Head::PerStep(CausalConv1d::new(&mut rng, 5, 3, 1, 1));
        let net = Tcn::assemble("res", None, 3, blocks, head);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 3, 10]));
        let y = net.forward(&mut tape, x, Mode::Eval);
        assert_eq!(tape.dims(y), vec![2, 3, 10]);
        assert!(net.num_weights() > 0);
    }

    #[test]
    fn params_cover_all_layers() {
        // conv (w + b) + bn (gamma + beta) + 2 linears (w + b each) = 8 params
        assert_eq!(plain_net().params().len(), 8);
    }

    #[test]
    fn concrete_builds_are_named_and_hold_no_searchable_convs() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ResTcnConfig {
            hidden_channels: 4,
            input_channels: 3,
            output_channels: 3,
            ..ResTcnConfig::paper()
        };
        let dil = cfg.hand_tuned_dilations();
        let net = Tcn::concrete(&mut rng, &cfg, &dil);
        assert!(net.pit_layers().is_empty());
        assert_eq!(
            net.describe(),
            format!("ResTCN-concrete(layers=8, dilations={dil:?})")
        );

        let tempo = TempoNetConfig::scaled(16, 32);
        let net = Tcn::concrete(&mut rng, &tempo, &tempo.hand_tuned_dilations());
        assert_eq!(net.name(), "TEMPONet-concrete");
        // 7 convs + 7 batch norms + 3 pools + 2 linears, as for the seed.
        assert_eq!(net.descriptor(tempo.input_length).len(), 19);
    }

    #[test]
    #[should_panic(expected = "expected 2 dilations")]
    fn concrete_build_needs_one_dilation_per_slot() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Tcn::concrete(&mut rng, &GenericTcnConfig::tiny(), &[1, 2, 4]);
    }
}
