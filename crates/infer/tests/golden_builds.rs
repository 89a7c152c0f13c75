//! Golden digests of the five network builds the workspace trains and
//! deploys: the searchable TEMPONet, ResTCN and generic TCN, and the truly
//! dilated TEMPONet and ResTCN.
//!
//! Each build is made from a fixed seed and pinned by four FNV-1a digests:
//! its parameter values, the bits of one Train-mode and one Eval-mode
//! forward, and the compiled plan's `pit-arch/2` artifact text. A change
//! to the RNG draw order of a seed's build, to a forward, or to plan
//! lowering moves at least one of them. The values do not depend on the worker
//! thread count (`PIT_NUM_THREADS`).

use pit_infer::{compile, InferencePlan};
use pit_models::{GenericTcn, GenericTcnConfig, ResTcn, ResTcnConfig, TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_nn::{Layer, Mode};
use pit_tensor::{init, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest_f32(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The four digests of one build: `[params, train forward, eval forward,
/// artifact]`.
fn digests(net: &dyn Layer, x: &Tensor, compile: impl FnOnce() -> InferencePlan) -> [u64; 4] {
    let params: Vec<f32> = net
        .params()
        .iter()
        .flat_map(|p| p.value().data().to_vec())
        .collect();
    let params = digest_f32(&params);
    let forward = |mode| {
        let mut tape = Tape::new();
        let vx = tape.constant(x.clone());
        let y = net.forward(&mut tape, vx, mode);
        digest_f32(tape.value(y).data())
    };
    // Train first: it moves the batch-norm running statistics that the Eval
    // forward and the compiled plan then use.
    let train = forward(Mode::Train);
    let eval = forward(Mode::Eval);
    [
        params,
        train,
        eval,
        fnv1a(compile().to_artifact_string().into_bytes()),
    ]
}

fn restcn_config() -> ResTcnConfig {
    ResTcnConfig {
        hidden_channels: 8,
        input_channels: 6,
        output_channels: 6,
        ..ResTcnConfig::paper()
    }
}

fn builds() -> Vec<(&'static str, [u64; 4])> {
    let mut out = Vec::new();

    let mut rng = StdRng::seed_from_u64(11);
    let cfg = TempoNetConfig::scaled(8, 64);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let x = init::uniform(&mut rng, &[3, 4, 64], 1.0);
    out.push(("temponet/8", digests(&net, &x, || compile(&net))));

    let mut rng = StdRng::seed_from_u64(12);
    let cfg = restcn_config();
    assert!(cfg.dropout > 0.0, "the ResTCN build keeps its dropout on");
    let net = ResTcn::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let x = init::uniform(&mut rng, &[2, 6, 24], 1.0);
    out.push(("restcn", digests(&net, &x, || compile(&net))));

    let mut rng = StdRng::seed_from_u64(13);
    let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
    net.set_dilations(&[4, 8]);
    let x = init::uniform(&mut rng, &[2, 1, 32], 1.0);
    out.push(("generic", digests(&net, &x, || compile(&net))));

    let mut rng = StdRng::seed_from_u64(14);
    let cfg = TempoNetConfig::scaled(8, 64);
    let net = TempoNet::concrete(&mut rng, &cfg, &cfg.hand_tuned_dilations());
    let x = init::uniform(&mut rng, &[3, 4, 64], 1.0);
    out.push(("temponet-concrete", digests(&net, &x, || compile(&net))));

    let mut rng = StdRng::seed_from_u64(15);
    let cfg = restcn_config();
    let net = ResTcn::concrete(&mut rng, &cfg, &cfg.hand_tuned_dilations());
    let x = init::uniform(&mut rng, &[2, 6, 24], 1.0);
    out.push(("restcn-concrete", digests(&net, &x, || compile(&net))));

    out
}

/// `[params, train forward, eval forward, artifact]` per build.
const GOLDEN: [(&str, [u64; 4]); 5] = [
    (
        "temponet/8",
        [
            0xe37068a64501da4e,
            0x2fef19553f600b85,
            0xb2cf7bbafd8e9872,
            0x5cdf0d0ac0c77c3a,
        ],
    ),
    (
        "restcn",
        [
            0x178da4139ea599ee,
            0x18313caf5207c321,
            0x908884e1e2b67b5b,
            0x6d956f05230b229e,
        ],
    ),
    (
        "generic",
        [
            0xecaf66972a071692,
            0x056bfd704f77311c,
            0x056bfd704f77311c,
            0x8cc378cdc5502ec8,
        ],
    ),
    (
        "temponet-concrete",
        [
            0x11ef118d266db213,
            0xa5ca6a3594053981,
            0x48e5c5166cc430e1,
            0x5e235cbbf9ba4f4f,
        ],
    ),
    (
        "restcn-concrete",
        [
            0x963aa776c74ab4c5,
            0xd87b0ef92a98f146,
            0x8f9aad1bf0d8cc82,
            0x7661a02a2a5cdf82,
        ],
    ),
];

#[test]
fn builds_match_their_golden_digests() {
    let got = builds();
    let text: Vec<String> = got
        .iter()
        .map(|(name, d)| {
            format!(
                "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    assert_eq!(got, GOLDEN, "digests now:\n{}", text.join("\n"));
}
