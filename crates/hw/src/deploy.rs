//! Deployment analysis: latency, energy and memory of a network on GAP8.

use crate::gap8::Gap8Config;
use pit_models::{LayerDesc, NetworkDescriptor};
use serde::{Deserialize, Serialize};

/// Cost breakdown of one layer on the target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Weight bytes (int8) that must be streamed into L1.
    pub weight_bytes: u64,
    /// Activation bytes (input + output, int8) moved for the layer.
    pub activation_bytes: u64,
    /// Number of L1 tiles the layer is split into.
    pub tiles: u64,
    /// Cycles spent computing (at the layer's efficiency).
    pub compute_cycles: f64,
    /// Cycles spent on DMA transfers.
    pub dma_cycles: f64,
    /// Total cycles charged to the layer (double-buffered: max of compute and
    /// DMA, plus the fixed per-layer overhead).
    pub total_cycles: f64,
    /// Latency in seconds.
    pub latency_s: f64,
    /// Energy in joules.
    pub energy_j: f64,
}

/// End-to-end deployment report for one network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Network name (copied from the descriptor).
    pub name: String,
    /// Per-layer costs, in network order.
    pub layers: Vec<LayerCost>,
    /// Total number of weights (elements).
    pub total_weights: u64,
    /// Total weight storage in bytes after int8 quantization.
    pub weight_bytes: u64,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// End-to-end energy in millijoules.
    pub energy_mj: f64,
    /// Whether the quantized weights fit in the 512 kB L2 memory
    /// (otherwise the off-chip L3 must be used, as for the largest ResTCN).
    pub fits_in_l2: bool,
}

impl DeploymentReport {
    /// Total multiply-accumulate count of one inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }
}

/// Analytical deployment of a network descriptor onto a [`Gap8Config`].
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    config: Gap8Config,
}

impl Deployment {
    /// Creates a deployment analyser for the given SoC configuration.
    pub fn new(config: Gap8Config) -> Self {
        Self { config }
    }

    /// The SoC configuration.
    pub fn config(&self) -> &Gap8Config {
        &self.config
    }

    /// Analyses one layer.
    pub fn layer_cost(&self, layer: &LayerDesc) -> LayerCost {
        let cfg = &self.config;
        let macs = layer.macs();
        let weight_bytes = layer.weights(); // int8: one byte per weight
        let activation_bytes = layer.input_elements() + layer.output_elements();

        // Tile the working set (weights + activations of the tile) into L1.
        // Half of L1 is reserved for double buffering.
        let l1_budget = (cfg.l1_bytes / 2) as u64;
        let working_set = weight_bytes + activation_bytes;
        let tiles = working_set.div_ceil(l1_budget.max(1)).max(1);

        let efficiency = cfg.layer_efficiency(layer).max(1e-3);
        let compute_cycles = macs as f64 / (cfg.peak_macs_per_cycle() * efficiency);
        // Every tile moves its share of weights and activations through DMA;
        // weights are re-loaded once per tile when activations do not fit.
        let dma_bytes = activation_bytes as f64 + weight_bytes as f64 * tiles as f64;
        let dma_cycles = dma_bytes / cfg.dma_bytes_per_cycle;
        let total_cycles = compute_cycles.max(dma_cycles) + cfg.layer_overhead_cycles;
        let latency_s = cfg.cycles_to_seconds(total_cycles);
        LayerCost {
            macs,
            weight_bytes,
            activation_bytes,
            tiles,
            compute_cycles,
            dma_cycles,
            total_cycles,
            latency_s,
            energy_j: cfg.energy_joules(latency_s),
        }
    }

    /// Analyses a whole network.
    pub fn analyze(&self, descriptor: &NetworkDescriptor) -> DeploymentReport {
        let layers: Vec<LayerCost> = descriptor
            .layers
            .iter()
            .map(|l| self.layer_cost(l))
            .collect();
        let latency_s: f64 = layers.iter().map(|l| l.latency_s).sum();
        let energy_j: f64 = layers.iter().map(|l| l.energy_j).sum();
        let weight_bytes: u64 = layers.iter().map(|l| l.weight_bytes).sum();
        DeploymentReport {
            name: descriptor.name.clone(),
            total_weights: descriptor.total_weights(),
            weight_bytes,
            latency_ms: latency_s * 1e3,
            energy_mj: energy_j * 1e3,
            fits_in_l2: weight_bytes <= self.config.l2_bytes as u64,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_models::{TempoNet, TempoNetConfig};
    use pit_nas::SearchableNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv(c_in: usize, c_out: usize, kernel: usize, t: usize) -> LayerDesc {
        LayerDesc::Conv1d {
            c_in,
            c_out,
            kernel,
            dilation: 1,
            t_in: t,
            t_out: t,
        }
    }

    #[test]
    fn layer_cost_scales_with_macs() {
        let dep = Deployment::new(Gap8Config::paper());
        let small = dep.layer_cost(&conv(16, 16, 3, 64));
        let large = dep.layer_cost(&conv(64, 64, 9, 64));
        assert!(large.macs > small.macs);
        assert!(large.latency_s > small.latency_s);
        assert!(large.energy_j > small.energy_j);
    }

    #[test]
    fn latency_has_a_floor_from_overhead_and_dma() {
        // Pruning weights 4x must NOT reduce latency 4x: activations and the
        // per-layer overhead do not shrink. This is why Table III's speed-ups
        // (3x) are smaller than its compression factors (7.4x).
        let dep = Deployment::new(Gap8Config::paper());
        let dense = dep.layer_cost(&conv(64, 64, 16, 256));
        let pruned = dep.layer_cost(&conv(64, 64, 4, 256));
        let macs_ratio = dense.macs as f64 / pruned.macs as f64;
        let latency_ratio = dense.latency_s / pruned.latency_s;
        assert!((macs_ratio - 4.0).abs() < 1e-9);
        assert!(
            latency_ratio < macs_ratio,
            "latency ratio {latency_ratio} should be sub-linear"
        );
        assert!(latency_ratio > 1.0);
    }

    #[test]
    fn analyze_sums_layers_and_checks_l2() {
        let mut d = NetworkDescriptor::new("toy");
        d.push(conv(4, 16, 5, 128));
        d.push(LayerDesc::Linear {
            in_features: 16 * 128,
            out_features: 1,
        });
        let dep = Deployment::new(Gap8Config::paper());
        let report = dep.analyze(&d);
        assert_eq!(report.layers.len(), 2);
        assert!(report.latency_ms > 0.0);
        assert!((report.energy_mj / report.latency_ms - 0.262).abs() < 1e-3);
        assert!(report.fits_in_l2);
        assert_eq!(report.total_macs(), d.total_macs());
        assert_eq!(report.name, "toy");
    }

    #[test]
    fn big_networks_overflow_l2() {
        let mut d = NetworkDescriptor::new("huge");
        d.push(LayerDesc::Linear {
            in_features: 1024,
            out_features: 1024,
        }); // ~1 MB of int8 weights
        let report = Deployment::new(Gap8Config::paper()).analyze(&d);
        assert!(!report.fits_in_l2);
    }

    #[test]
    fn paper_scale_temponet_latency_is_in_the_right_range() {
        // Table III: TEMPONet dil=1 (939k weights) runs in 112.6 ms / 29.5 mJ.
        // The analytical model should land within a factor ~2 of that without
        // per-network tuning, and the hand-tuned (dilated) network must be
        // substantially faster.
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TempoNetConfig::paper();
        let net = TempoNet::new(&mut rng, &cfg);
        let dep = Deployment::new(Gap8Config::paper());
        let seed_report = dep.analyze(&net.descriptor(cfg.input_length));
        assert!(
            (50.0..250.0).contains(&seed_report.latency_ms),
            "seed latency {} ms",
            seed_report.latency_ms
        );
        net.set_dilations(&cfg.hand_tuned_dilations());
        let hand_report = dep.analyze(&net.descriptor(cfg.input_length));
        let speedup = seed_report.latency_ms / hand_report.latency_ms;
        assert!(speedup > 1.3, "speed-up {speedup}");
        assert!(hand_report.weight_bytes < seed_report.weight_bytes);
    }

    #[test]
    fn tiles_grow_with_working_set() {
        let dep = Deployment::new(Gap8Config::paper());
        let small = dep.layer_cost(&conv(8, 8, 3, 32));
        let large = dep.layer_cost(&conv(128, 128, 17, 256));
        assert_eq!(small.tiles, 1);
        assert!(large.tiles > 1);
    }
}
