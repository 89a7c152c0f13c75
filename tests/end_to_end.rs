//! End-to-end integration tests spanning every crate of the workspace:
//! dataset generation → seed model → PIT search → deployment analysis.

use pit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A miniature TEMPONet + synthetic PPG pipeline, exactly the path the
//  benchmark harness takes, at unit-test size.
fn tiny_temponet_setup() -> (TempoNetConfig, Dataset, Dataset) {
    let config = TempoNetConfig::scaled(16, 32);
    let gen = PpgDaliaGenerator::new(PpgDaliaConfig {
        num_windows: 32,
        window_len: 32,
        subjects: 2,
        ..PpgDaliaConfig::paper()
    });
    let (train, val, _) = gen.generate_splits();
    (config, train, val)
}

#[test]
fn pit_search_on_temponet_produces_a_valid_architecture() {
    let (config, train, val) = tiny_temponet_setup();
    let mut rng = StdRng::seed_from_u64(0);
    let net = TempoNet::new(&mut rng, &config);
    let seed_params = net.effective_weights();

    let outcome = PitSearch::new(PitConfig {
        lambda: 1e-3,
        warmup_epochs: 1,
        search_epochs: 2,
        finetune_epochs: 1,
        patience: None,
        batch_size: 8,
        learning_rate: 5e-3,
        gamma_learning_rate: 0.02,
        seed: 0,
    })
    .run(&net, &train, &val, LossKind::Mae);

    // The outcome must describe a valid point of the search space.
    assert_eq!(outcome.dilations.len(), 7);
    let rf = config.rf_max_per_layer();
    for (i, (&d, &r)) in outcome.dilations.iter().zip(rf.iter()).enumerate() {
        assert!(d.is_power_of_two(), "layer {i} dilation {d}");
        assert!((r - 1) / d + 1 >= 1);
        assert!(d <= r, "layer {i}: dilation {d} larger than rf {r}");
    }
    assert!(outcome.effective_params <= seed_params);
    assert!(outcome.val_loss.is_finite() && outcome.val_loss > 0.0);
    // After the search the network is frozen and its dilations match the outcome.
    assert_eq!(net.dilations(), outcome.dilations);
    assert!(net.pit_layers().iter().all(|l| l.is_frozen()));
}

#[test]
fn searched_architecture_deploys_on_gap8() {
    let (config, train, val) = tiny_temponet_setup();
    let mut rng = StdRng::seed_from_u64(1);
    let net = TempoNet::new(&mut rng, &config);
    let outcome = PitSearch::new(PitConfig {
        lambda: 1e-2,
        warmup_epochs: 0,
        search_epochs: 2,
        finetune_epochs: 0,
        patience: None,
        batch_size: 8,
        learning_rate: 5e-3,
        gamma_learning_rate: 0.05,
        seed: 1,
    })
    .run(&net, &train, &val, LossKind::Mae);

    // Deploy the found architecture at paper scale.
    let mut prng = StdRng::seed_from_u64(2);
    let paper_net = TempoNet::new(&mut prng, &TempoNetConfig::paper());
    paper_net.set_dilations(&outcome.dilations);
    let seed_net = TempoNet::new(&mut prng, &TempoNetConfig::paper());

    let deployment = Deployment::new(Gap8Config::paper());
    let t = TempoNetConfig::paper().input_length;
    let found = deployment.analyze(&paper_net.descriptor(t));
    let dense = deployment.analyze(&seed_net.descriptor(t));
    assert!(found.latency_ms > 0.0);
    assert!(found.latency_ms <= dense.latency_ms);
    assert!(found.energy_mj <= dense.energy_mj);
    assert!(found.weight_bytes <= dense.weight_bytes);
}

#[test]
fn stronger_regularisation_never_increases_model_size() {
    let (config, train, val) = tiny_temponet_setup();
    let mut sizes = Vec::new();
    for (i, lambda) in [0.0f32, 1e-2, 1.0].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(42); // identical init for all runs
        let net = TempoNet::new(&mut rng, &config);
        let outcome = PitSearch::new(PitConfig {
            lambda,
            warmup_epochs: 0,
            search_epochs: 3,
            finetune_epochs: 0,
            patience: None,
            batch_size: 8,
            learning_rate: 0.02,
            gamma_learning_rate: 0.05,
            seed: 7 + i as u64,
        })
        .run(&net, &train, &val, LossKind::Mae);
        sizes.push(outcome.effective_params);
    }
    // Largest lambda must not produce a bigger network than lambda = 0.
    assert!(
        sizes[2] <= sizes[0],
        "lambda sweep produced sizes {sizes:?} — strongest regularisation must not grow the model"
    );
}

#[test]
fn restcn_pipeline_trains_and_improves_over_initialisation() {
    let config = ResTcnConfig {
        input_channels: 16,
        output_channels: 16,
        hidden_channels: 6,
        ..ResTcnConfig::paper()
    };
    let gen = NottinghamGenerator::new(NottinghamConfig {
        num_keys: 16,
        seq_len: 16,
        num_sequences: 24,
        ..NottinghamConfig::tiny()
    });
    let (train, val, _) = gen.generate_splits();
    let mut rng = StdRng::seed_from_u64(3);
    let net = ResTcn::new(&mut rng, &config);
    net.set_dilations(&config.hand_tuned_dilations());
    net.freeze_all();

    let before = Trainer::evaluate(&net, &val, LossKind::FrameNll, 8);
    let trainer = Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 8,
        shuffle: true,
        patience: None,
        seed: 0,
    });
    let mut opt = Adam::new(net.params(), 5e-3);
    let report = trainer.train(&net, &train, Some(&val), LossKind::FrameNll, &mut opt);
    let after = Trainer::evaluate(&net, &val, LossKind::FrameNll, 8);

    assert_eq!(report.epochs_run, 6);
    assert!(
        after < before,
        "training did not improve NLL: {before} -> {after}"
    );
}

#[test]
fn proxyless_and_pit_explore_the_same_space() {
    // The adapted ProxylessNAS supernet must offer exactly the dilation
    // choices PIT can represent for the same seed.
    let config = TempoNetConfig::paper();
    let proxy_cfg = ProxylessConfig::temponet_like(&config);
    let mut rng = StdRng::seed_from_u64(0);
    let supernet = ProxylessSupernet::new(&mut rng, &proxy_cfg);

    let space = SearchSpace::new(config.rf_max_per_layer());
    // Largest-dilation path of the supernet == largest dilation PIT can set.
    let max_path: Vec<usize> = (0..7).map(|i| space.choices_for_layer(i) - 1).collect();
    let max_dilations = supernet.path_dilations(&max_path);
    let net = TempoNet::new(&mut rng, &config);
    net.set_dilations(&max_dilations);
    assert_eq!(net.dilations(), max_dilations);
    // Dense path == seed.
    assert_eq!(supernet.path_dilations(&[0; 7]), vec![1; 7]);
}
