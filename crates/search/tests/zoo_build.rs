//! Search-to-serve end to end: a quick fixed-seed search builds an artifact
//! library, a real `pit-serve` daemon boots from its manifest, and clients
//! select every searched model by name over protocol v3.

use pit_infer::ZooManifest;
use pit_search::{lag_dataset, run_library_search, write_library, LibraryConfig, CHANNELS};
use pit_serve::{Client, Server, ServerConfig, ServerFrame};
use std::time::Duration;

const RECV_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn quick_search_builds_a_servable_zoo() {
    let points = run_library_search(&LibraryConfig::quick());
    assert!(!points.is_empty(), "quick search yields at least one point");

    let dir = std::env::temp_dir().join(format!("pit-search-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (manifest, manifest_path) = write_library(&points, &dir).expect("library writes");
    assert!(
        manifest.models.len() >= 2,
        "f32 + int8 per point: {:?}",
        manifest.models.iter().map(|m| &m.name).collect::<Vec<_>>()
    );
    assert!(manifest.models.iter().any(|m| m.kind == "f32"));
    assert!(manifest.models.iter().any(|m| m.kind == "i8"));

    // The manifest on disk round-trips and its paths resolve.
    let (reloaded, base) = ZooManifest::load(&manifest_path).expect("manifest reloads");
    assert_eq!(reloaded.default, manifest.default);
    for entry in &reloaded.models {
        assert!(
            entry.artifact_path(&base).is_file(),
            "artifact of '{}' exists",
            entry.name
        );
    }

    // A daemon boots from it and serves every model by name.
    let server = Server::bind_zoo(&manifest_path, ServerConfig::default()).expect("zoo boots");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    let listed = client.list_models().expect("LIST_MODELS");
    assert_eq!(listed.len(), manifest.models.len());
    assert_eq!(listed.iter().filter(|m| m.default).count(), 1);

    // One stream per registry model, all on the same connection; every
    // stream gets a real emission back from its own model.
    let window = lag_dataset(1, 1).sample(0).0.data().to_vec();
    let steps = window.len() / CHANNELS;
    // Samples are [channels, time]; the wire wants time-major steps.
    let mut interleaved = Vec::with_capacity(window.len());
    for t in 0..steps {
        for c in 0..CHANNELS {
            interleaved.push(window[c * steps + t]);
        }
    }
    for (sid, model) in manifest.models.iter().enumerate() {
        client
            .open_with_model(sid as u32, &model.name)
            .expect("open by name");
        let reply = client.recv_timeout(RECV_TIMEOUT).unwrap();
        assert!(
            matches!(reply, Some(ServerFrame::Opened { .. })),
            "open '{}': {reply:?}",
            model.name
        );
    }
    for sid in 0..manifest.models.len() {
        client
            .push(sid as u32, CHANNELS as u32, &interleaved)
            .expect("push");
    }
    let mut emitted = vec![0usize; manifest.models.len()];
    while emitted.contains(&0) {
        match client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport healthy")
            .expect("emissions arrive")
        {
            ServerFrame::EmitN { entries, .. } => {
                for (stream_id, count) in &entries {
                    emitted[*stream_id as usize] += *count as usize;
                }
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
