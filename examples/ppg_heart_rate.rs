//! Heart-rate estimation from synthetic PPG windows with a TEMPONet seed,
//! mirroring the PPG-Dalia benchmark of the paper at a laptop-friendly scale.
//!
//! The example trains three networks and compares them:
//! 1. the un-dilated seed,
//! 2. the hand-tuned dilation configuration,
//! 3. the architecture discovered by a PIT search,
//!
//! then deploys all three on the GAP8 model.
//!
//! Run with: `cargo run --release --example ppg_heart_rate`

use pit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn train_fixed(
    net: &TempoNet,
    dilations: &[usize],
    train: &Dataset,
    val: &Dataset,
    epochs: usize,
) -> f32 {
    net.set_dilations(dilations);
    net.freeze_all();
    let trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size: 16,
        shuffle: true,
        patience: Some(20),
        seed: 0,
    });
    let mut opt = Adam::new(net.params(), 5e-3);
    let _ = trainer.train(net, train, Some(val), LossKind::Mae, &mut opt);
    Trainer::evaluate(net, val, LossKind::Mae, 16)
}

fn main() {
    // Scaled-down TEMPONet (same topology and search space as the paper's).
    let config = TempoNetConfig::scaled(8, 64);
    let generator = PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: 128,
        window_len: 64,
        ..PpgDaliaConfig::paper()
    });
    let (train, val, test) = generator.generate_splits();
    println!(
        "synthetic PPG-Dalia: {} train / {} val / {} test windows, mean HR {:.0} bpm",
        train.len(),
        val.len(),
        test.len(),
        PpgDaliaGenerator::mean_heart_rate(&train)
    );

    let epochs = 12;
    let mut rng = StdRng::seed_from_u64(0);

    // 1. Seed (dilation 1 everywhere).
    let seed_net = TempoNet::new(&mut rng, &config);
    let seed_mae = train_fixed(&seed_net, &config.seed_dilations(), &train, &val, epochs);
    println!(
        "seed       : {} weights, MAE {:.2} bpm",
        seed_net.effective_weights(),
        seed_mae
    );

    // 2. Hand-tuned dilations.
    let hand_net = TempoNet::new(&mut rng, &config);
    let hand_mae = train_fixed(
        &hand_net,
        &config.hand_tuned_dilations(),
        &train,
        &val,
        epochs,
    );
    println!(
        "hand-tuned : {} weights, MAE {:.2} bpm",
        hand_net.effective_weights(),
        hand_mae
    );

    // 3. PIT search from the seed.
    let pit_net = TempoNet::new(&mut rng, &config);
    let outcome = PitSearch::new(PitConfig {
        lambda: 1e-3,
        warmup_epochs: 2,
        search_epochs: 8,
        finetune_epochs: 2,
        patience: Some(10),
        batch_size: 16,
        learning_rate: 5e-3,
        gamma_learning_rate: 0.05,
        seed: 0,
    })
    .run(&pit_net, &train, &val, LossKind::Mae);
    println!(
        "PIT        : {} weights, MAE {:.2} bpm, dilations {:?}",
        outcome.effective_params, outcome.val_loss, outcome.dilations
    );

    // 4. Deploy all three on the GAP8 analytical model (paper-scale widths).
    let deployment = Deployment::new(Gap8Config::paper());
    let paper = TempoNetConfig::paper();
    for (name, dils) in [
        ("seed", config.seed_dilations()),
        ("hand-tuned", config.hand_tuned_dilations()),
        ("PIT", outcome.dilations.clone()),
    ] {
        let mut prng = StdRng::seed_from_u64(1);
        let net = TempoNet::new(&mut prng, &paper);
        net.set_dilations(&dils);
        let report = deployment.analyze(&net.descriptor(paper.input_length));
        println!(
            "GAP8 {name:<10}: {:>8} weights, {:>6.1} ms, {:>5.1} mJ",
            net.effective_weights(),
            report.latency_ms,
            report.energy_mj
        );
    }
}
