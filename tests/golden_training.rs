//! Golden digest of one fixed-seed PIT search: what `golden_builds.rs` does
//! for network builds, done for training.
//!
//! A small TEMPONet goes through every phase of `PitSearch` (warmup, search,
//! fine-tuning), and one FNV-1a digest pins the bits of its trained
//! parameters, its searched dilations and its validation loss. A change to a
//! kernel's summation order, to the tape, to the optimiser or to the search
//! schedule moves it.
//!
//! The network and batch are small enough that no weight gradient is split
//! across worker threads (`pool::plan_threads` returns 1 for every call), so
//! the digest is the same at any `PIT_NUM_THREADS`.

use pit::prelude::*;
use pit_tensor::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const BATCH: usize = 8;

/// `[params, dilations, val loss]` digested together after one search.
const GOLDEN: u64 = 0xc2f6_dd02_a62e_4ee6;

#[test]
fn pit_search_trains_to_the_golden_digest() {
    let config = TempoNetConfig::scaled(8, 32);
    // Every weight gradient of a batch stays on one thread: the largest,
    // the last block's 16 → 16 channels with 17 taps over 8 timesteps, too.
    let rf = config.rf_max_per_layer();
    let (mut c_in, mut layer, mut work) = (config.input_channels, 0, 0);
    for (block, &convs) in config.block_sizes().iter().enumerate() {
        let t = config.input_length >> block;
        for _ in 0..convs {
            let c_out = config.channels[layer];
            work = work.max(c_in * c_out * rf[layer] * t);
            (c_in, layer) = (c_out, layer + 1);
        }
    }
    assert_eq!(pool::plan_threads(BATCH, work), 1);

    let gen = PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: 48,
        window_len: config.input_length,
        subjects: 2,
        ..PpgDaliaConfig::paper()
    });
    let (train, val, _) = gen.generate_splits();
    let mut rng = StdRng::seed_from_u64(2024);
    let net = TempoNet::new(&mut rng, &config);
    let outcome = PitSearch::new(PitConfig {
        lambda: 5e-2,
        warmup_epochs: 1,
        search_epochs: 2,
        finetune_epochs: 1,
        patience: None,
        batch_size: BATCH,
        learning_rate: 5e-3,
        gamma_learning_rate: 0.05,
        seed: 7,
    })
    .run(&net, &train, &val, LossKind::Mae);
    assert_eq!(outcome.epochs_run, (1, 2, 1));

    let params = net
        .params()
        .into_iter()
        .flat_map(|p| p.value().data().to_vec())
        .flat_map(|v| v.to_bits().to_le_bytes());
    let dilations = outcome
        .dilations
        .iter()
        .flat_map(|&d| (d as u64).to_le_bytes());
    let val_loss = outcome.val_loss.to_bits().to_le_bytes();
    let digest = fnv1a(params.chain(dilations).chain(val_loss));
    assert_eq!(
        digest, GOLDEN,
        "trained digest {digest:#018x} (dilations {:?}, val loss {})",
        outcome.dilations, outcome.val_loss
    );
}
