//! End-to-end: a real zoo on disk, a real in-process daemon, a real
//! population driven through it, and the exact reconciliation plus
//! oracle verdicts that make the run trustworthy.

use pit_infer::quant::QuantizedPlan;
use pit_infer::{compile, InferencePlan, ZooEntry, ZooManifest};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_replay::{run_replay, ReplayOptions};
use pit_tensor::init;
use pit_tensor::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

const C: usize = 4;

struct TempZoo {
    dir: PathBuf,
    manifest_path: PathBuf,
}

impl Drop for TempZoo {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn entry(name: &str, kind: &str, plan: &InferencePlan, error_bound: f32) -> ZooEntry {
    ZooEntry {
        name: name.to_string(),
        path: format!("{name}.pit2.json"),
        kind: kind.to_string(),
        seed: 1,
        lambda: 0.0,
        params: 0,
        receptive_field: plan.receptive_field(),
        val_loss: 0.0,
        error_bound,
        input_channels: plan.input_channels(),
        output_dim: plan.output_dim(),
    }
}

/// Writes a two-model zoo (one f32, one int8 of a second seed) the way
/// `pit-search` would, into a throwaway directory.
fn build_zoo(tag: &str) -> TempZoo {
    let dir = std::env::temp_dir().join(format!("pit-replay-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cfg = TempoNetConfig::scaled(8, 64);
    let mut rng = StdRng::seed_from_u64(71);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    let plan = compile(&net);

    let mut rng = StdRng::seed_from_u64(72);
    let net2 = TempoNet::new(&mut rng, &cfg);
    net2.set_dilations(&cfg.hand_tuned_dilations());
    let plan2 = compile(&net2);
    let x = init::uniform(&mut rng, &[1, C, 64], 1.0);
    let qplan = QuantizedPlan::quantize(&plan2, std::slice::from_ref(&x)).unwrap();

    std::fs::write(
        dir.join(format!("{}.pit2.json", plan.name())),
        plan.to_artifact_string(),
    )
    .unwrap();
    std::fs::write(
        dir.join(format!("{}.pit2.json", qplan.name())),
        qplan.to_artifact_string(),
    )
    .unwrap();

    let manifest = ZooManifest::new(
        plan.name().to_string(),
        vec![
            entry(plan.name(), "f32", &plan, 0.0),
            entry(qplan.name(), "i8", &plan2, qplan.error_bound()),
        ],
    )
    .unwrap();
    let manifest_path = manifest.save(&dir).unwrap();
    TempZoo { dir, manifest_path }
}

fn get<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    let mut node = doc;
    for key in path {
        node = node.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    node
}

#[test]
fn smoke_population_reconciles_exactly_and_passes_the_oracle() {
    let zoo = build_zoo("smoke");
    let opts = ReplayOptions::new(zoo.manifest_path.clone(), "smoke", 7).unwrap();
    let result = run_replay(&opts).expect("run completes");
    println!("{}", result.summary);

    // The whole point: exit-status-grade success means exact
    // reconciliation and a clean oracle.
    assert!(result.ok, "run not ok:\n{}", result.report.render());

    // The report round-trips through the JSON layer.
    let text = result.report.render();
    let doc = Json::parse(&text).expect("report parses");
    assert_eq!(
        get(&doc, &["schema"]).as_str().unwrap(),
        "pit-replay-report/1"
    );
    assert_eq!(get(&doc, &["preset"]).as_str().unwrap(), "smoke");
    assert_eq!(get(&doc, &["oracle", "verdict"]).as_str().unwrap(), "pass");
    assert!(get(&doc, &["oracle", "sessions_checked"]).as_f64().unwrap() >= 1.0);
    assert!(matches!(
        get(&doc, &["reconciliation", "ok"]),
        Json::Bool(true)
    ));

    // Latency was actually recorded, for every scenario.
    let scenarios = get(&doc, &["scenarios"]).as_array().unwrap();
    assert_eq!(scenarios.len(), 2);
    for sc in scenarios {
        assert!(get(sc, &["latency", "count"]).as_f64().unwrap() > 0.0);
        assert!(get(sc, &["latency", "p50_ns"]).as_f64().unwrap() > 0.0);
        let p99 = get(sc, &["latency", "p99_ns"]).as_f64().unwrap();
        let p999 = get(sc, &["latency", "p999_ns"]).as_f64().unwrap();
        assert!(p999 >= p99);
    }

    // Bench records carry the anchor plus gated figures.
    let ops: Vec<&str> = result.bench.iter().map(|r| r.op.as_str()).collect();
    assert!(ops.contains(&"oracle_f32/step"));
    assert!(ops.contains(&"vitals/p50"));
    assert!(ops.contains(&"polyphonic/p50"));
    assert!(ops.contains(&"total/p50"));
    assert!(ops.contains(&"total/rate"));
    assert!(result.bench.iter().all(|r| r.ns_per_iter > 0.0));

    // Emission totals in the document agree with the server delta —
    // restated here so a report-rendering regression cannot hide one.
    let emissions = get(&doc, &["total", "emissions"]).as_f64().unwrap();
    let before = get(&doc, &["server", "before", "pit_serve_emissions_total"])
        .as_f64()
        .unwrap();
    let after = get(&doc, &["server", "after", "pit_serve_emissions_total"])
        .as_f64()
        .unwrap();
    assert_eq!(after - before, emissions);
}

#[test]
fn replay_is_deterministic_in_workload_and_oracle_but_not_required_in_time() {
    let zoo = build_zoo("det");
    let opts = ReplayOptions::new(zoo.manifest_path.clone(), "smoke", 1234).unwrap();
    let a = run_replay(&opts).expect("first run");
    let b = run_replay(&opts).expect("second run");
    assert!(a.ok && b.ok);
    // Population shape is exactly replayed; wall-clock latencies differ.
    for key in ["sessions", "segments", "steps", "verify_sessions"] {
        assert_eq!(
            get(&a.report, &["workload", key]).as_f64().unwrap(),
            get(&b.report, &["workload", key]).as_f64().unwrap(),
            "workload '{key}' must replay exactly"
        );
    }
    assert_eq!(
        get(&a.report, &["total", "emissions"]).as_f64().unwrap(),
        get(&b.report, &["total", "emissions"]).as_f64().unwrap(),
        "emission totals are structural, so they replay exactly"
    );
}

#[test]
fn external_daemon_mode_attaches_instead_of_booting() {
    use pit_serve::{Server, ServerConfig};
    let zoo = build_zoo("ext");
    let server = Server::bind_zoo(
        &zoo.manifest_path,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let mut opts = ReplayOptions::new(zoo.manifest_path.clone(), "smoke", 99).unwrap();
    // Shrink further: this test only exercises the attach path.
    opts.workload.sessions = 64;
    opts.external = Some((handle.addr(), handle.metrics_addr().unwrap()));
    let result = run_replay(&opts).expect("run against external daemon");
    assert!(result.ok, "run not ok:\n{}", result.report.render());
    let stats = handle.shutdown();
    // The daemon outlived the harness and kept the books.
    assert_eq!(stats.streams_open, 0);
    assert!(stats.streams_opened >= 64);
}

#[test]
fn zoo_path_errors_are_reported_not_panicked() {
    let missing = Path::new("/nonexistent/zoo.json");
    let opts = ReplayOptions::new(missing.to_path_buf(), "smoke", 1).unwrap();
    let err = match run_replay(&opts) {
        Err(e) => e,
        Ok(_) => panic!("a missing zoo must not run"),
    };
    assert!(err.contains("zoo") || err.contains("manifest") || err.contains("read"));
}
