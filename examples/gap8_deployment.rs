//! Deployment study: quantize and deploy the paper's architectures on the
//! GAP8 analytical model, reproducing the structure of Table III without any
//! training (the dilation patterns are taken directly from Table I).
//!
//! Run with: `cargo run --release --example gap8_deployment`

use pit::hw::quantize_symmetric;
use pit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let deployment = Deployment::new(Gap8Config::paper());

    println!("GAP8 cluster: 8 cores @ 100 MHz, 64 kB L1, 512 kB L2\n");

    // --- ResTCN family (Nottingham) -------------------------------------
    let restcn: &[(&str, &[usize])] = &[
        ("ResTCN dil=1", &[1, 1, 1, 1, 1, 1, 1, 1]),
        ("ResTCN hand-tuned", &[1, 1, 2, 2, 4, 4, 8, 8]),
        ("PIT ResTCN small", &[4, 4, 8, 8, 16, 16, 32, 32]),
        ("PIT ResTCN medium", &[4, 1, 4, 8, 16, 16, 32, 32]),
        ("PIT ResTCN large", &[1, 4, 8, 8, 16, 16, 8, 1]),
    ];
    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>8}",
        "network", "weights", "latency[ms]", "energy[mJ]", "fits L2"
    );
    let cfg = ResTcnConfig::paper();
    for (name, dilations) in restcn {
        let mut rng = StdRng::seed_from_u64(0);
        let net = ResTcn::new(&mut rng, &cfg);
        net.set_dilations(dilations);
        let report = deployment.analyze(&net.descriptor(128));
        println!(
            "{:<22} {:>10} {:>12.1} {:>10.1} {:>8}",
            name,
            net.effective_weights(),
            report.latency_ms,
            report.energy_mj,
            if report.fits_in_l2 { "yes" } else { "no" }
        );
    }

    // --- TEMPONet family (PPG-Dalia) -------------------------------------
    let temponet: &[(&str, &[usize])] = &[
        ("TEMPONet dil=1", &[1, 1, 1, 1, 1, 1, 1]),
        ("TEMPONet hand-tuned", &[2, 2, 1, 4, 4, 8, 8]),
        ("PIT TEMPONet small", &[2, 4, 4, 8, 8, 16, 16]),
        ("PIT TEMPONet medium", &[1, 2, 4, 2, 1, 8, 16]),
        ("PIT TEMPONet large", &[1, 1, 1, 1, 1, 1, 16]),
    ];
    println!();
    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>8}",
        "network", "weights", "latency[ms]", "energy[mJ]", "fits L2"
    );
    let tcfg = TempoNetConfig::paper();
    for (name, dilations) in temponet {
        let mut rng = StdRng::seed_from_u64(0);
        let net = TempoNet::new(&mut rng, &tcfg);
        net.set_dilations(dilations);
        let report = deployment.analyze(&net.descriptor(tcfg.input_length));
        println!(
            "{:<22} {:>10} {:>12.1} {:>10.1} {:>8}",
            name,
            net.effective_weights(),
            report.latency_ms,
            report.energy_mj,
            if report.fits_in_l2 { "yes" } else { "no" }
        );
    }

    // --- int8 quantization of one layer ----------------------------------
    let mut rng = StdRng::seed_from_u64(7);
    let net = TempoNet::new(&mut rng, &tcfg);
    let conv = net.pit_layers()[0];
    let weights = conv.weight_param().value();
    let quantized = quantize_symmetric(&weights);
    println!(
        "\nint8 quantization of the first TEMPONet convolution: {} weights, scale {:.5}, \
         {} bytes ({}x smaller than f32)",
        quantized.len(),
        quantized.scale,
        quantized.size_bytes(),
        4
    );
}
