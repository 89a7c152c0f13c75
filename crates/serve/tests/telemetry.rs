//! The telemetry layer end to end: the HTTP sidecar's `/metrics`,
//! `/stats`, `/healthz` and `/trace` routes against a live daemon, the
//! exact agreement between Prometheus totals and the binary-protocol
//! STATS frame, the per-stream trace over the TRACE frame, sidecar
//! hardening, and the Prometheus exposition format itself.

mod common;

use common::{quantized_plan, searched_plan};
use pit_serve::{
    http_get, Client, ClientFrame, ServeEngine, Server, ServerConfig, ServerFrame, StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const C: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

fn metrics_config() -> ServerConfig {
    ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    }
}

/// One raw HTTP request against the sidecar — for the malformed and
/// header-inspecting cases [`http_get`] does not cover; returns (status
/// code, full header block, body).
fn http_request(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("sidecar reachable");
    stream.set_read_timeout(Some(RECV_TIMEOUT)).unwrap();
    stream.write_all(raw).expect("request sent");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response read");
    let text = String::from_utf8(response).expect("sidecar responses are UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a header terminator");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), body.to_string())
}

/// Extracts one sample's value from a Prometheus text body. `selector` is
/// the full sample name plus any label set, e.g. `pit_serve_waves_total`
/// or `pit_serve_model_timesteps_total{model="fp",kind="f32"}`.
fn metric(text: &str, selector: &str) -> f64 {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if name == selector {
                return value.parse().expect("numeric sample value");
            }
        }
    }
    panic!("metric {selector} not found in exposition");
}

/// Polls the binary-protocol STATS frame until the daemon reports itself
/// settled (no routed events or queued timesteps in flight) plus any
/// extra condition, returning the settled snapshot.
fn settled_stats(client: &mut Client, extra: impl Fn(&StatsSnapshot) -> bool) -> StatsSnapshot {
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        client.stats().expect("stats");
        let json = loop {
            match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
                Some(ServerFrame::StatsJson { json }) => break json,
                Some(_) => continue,
                None => panic!("daemon hung up mid-poll"),
            }
        };
        let snap = StatsSnapshot::from_json_str(&json).expect("stats parse");
        if snap.settled && extra(&snap) {
            return snap;
        }
        assert!(Instant::now() < deadline, "daemon never settled: {json}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance test: concurrent f32 and int8 streams, then — once the
/// daemon settles — every total in `/metrics` must match the binary
/// STATS frame exactly. Both read the same atomics; any disagreement is
/// a telemetry bug, not a race.
#[test]
fn metrics_totals_match_the_stats_frame_exactly() {
    let plan = searched_plan(61);
    let qplan = quantized_plan(&plan, 62);
    let server = Server::bind_models(
        vec![
            ("fp".into(), ServeEngine::F32(Arc::clone(&plan))),
            ("q8".into(), ServeEngine::I8(Arc::clone(&qplan))),
        ],
        "fp",
        metrics_config(),
    )
    .expect("bind registry");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();
    assert_eq!(handle.metrics_addr(), Some(metrics_addr));

    // Concurrent traffic on both models.
    const STREAMS: usize = 6;
    let workers: Vec<_> = (0..STREAMS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                let steps = 16 + 8 * i;
                let input: Vec<f32> = (0..steps * C).map(|_| rng.gen::<f32>() - 0.5).collect();
                let mut client = Client::connect(addr).expect("connect");
                let model = if i % 2 == 0 { "fp" } else { "q8" };
                client.open_with_model(i as u32, model).expect("open");
                client.push(i as u32, C as u32, &input).expect("push");
                let mut got = 0usize;
                while got < steps / 8 {
                    match client
                        .recv_timeout(RECV_TIMEOUT)
                        .expect("transport")
                        .expect("emissions arrive")
                    {
                        ServerFrame::EmitN { entries, .. } => {
                            got += entries.iter().map(|&(_, n)| n as usize).sum::<usize>()
                        }
                        ServerFrame::Opened { .. } => {}
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
                client.close(i as u32).expect("close");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // Quiesce: all worker sockets are gone; wait until the edge has
    // processed the disconnects and every shard has drained its queue.
    let mut control = Client::connect(addr).expect("connect");
    let snap = settled_stats(&mut control, |s| {
        s.connections_open == 1 && s.streams_open == 0
    });

    // Now nothing is moving: scrape and compare EXACTLY.
    let (status, head, metrics_text) = http_request(
        metrics_addr,
        b"GET /metrics HTTP/1.1\r\nHost: pit-serve\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type: {head}"
    );
    let int = |selector: &str| metric(&metrics_text, selector) as u64;
    assert_eq!(int("pit_serve_connections_total"), snap.connections_total);
    assert_eq!(int("pit_serve_connections_open"), snap.connections_open);
    assert_eq!(
        int("pit_serve_connections_closed_total"),
        snap.connections_closed
    );
    assert_eq!(
        int("pit_serve_connections_errored_total"),
        snap.connections_errored
    );
    assert_eq!(
        int("pit_serve_connections_expired_total"),
        snap.connections_expired
    );
    assert_eq!(int("pit_serve_streams_open"), snap.streams_open);
    assert_eq!(int("pit_serve_streams_opened_total"), snap.streams_opened);
    assert_eq!(int("pit_serve_streams_evicted_total"), snap.streams_evicted);
    assert_eq!(int("pit_serve_timesteps_total"), snap.timesteps_in);
    assert_eq!(int("pit_serve_emissions_total"), snap.emissions_out);
    assert_eq!(int("pit_serve_frames_rejected_total"), snap.frames_rejected);
    assert_eq!(int("pit_serve_replies_dropped_total"), snap.replies_dropped);
    assert_eq!(int("pit_serve_waves_total"), snap.waves);
    assert_eq!(int("pit_serve_stats_settled"), 1);
    assert!(int("pit_serve_stats_seq") >= snap.seq, "seq is monotone");
    // Per-model families match the snapshot's per-model breakdown.
    for m in &snap.models {
        let labels = format!("{{model=\"{}\",kind=\"{}\"}}", m.name, m.kind);
        assert_eq!(
            int(&format!("pit_serve_model_streams_open{labels}")),
            m.streams_open
        );
        assert_eq!(
            int(&format!("pit_serve_model_streams_opened_total{labels}")),
            m.streams_opened
        );
        assert_eq!(
            int(&format!("pit_serve_model_timesteps_total{labels}")),
            m.timesteps_in
        );
        assert_eq!(
            int(&format!("pit_serve_model_emissions_total{labels}")),
            m.emissions_out
        );
        assert_eq!(
            int(&format!("pit_serve_model_waves_total{labels}")),
            m.waves
        );
        assert!(m.timesteps_in > 0, "both models saw traffic");
    }
    // Wave-latency histogram counts sum to the wave counter across models.
    let bucket_count: u64 = metrics_text
        .lines()
        .filter(|l| l.starts_with("pit_serve_wave_flush_ns_count{"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(bucket_count, snap.waves);
    // The wave-latency percentiles come from the merged histograms.
    assert!(snap.wave_p50_ns > 0 && snap.wave_p99_ns >= snap.wave_p50_ns);

    // The outbuf high-water mark moves when the daemon writes the STATS
    // reply itself (the reply is queued *after* the snapshot is taken), so
    // compare the scrape against a snapshot taken after it — with traffic
    // quiesced, nothing else pushes to an outbuf in between.
    let resnap = settled_stats(&mut control, |_| true);
    assert_eq!(
        int("pit_serve_outbuf_high_water_bytes"),
        resnap.outbuf_hwm_bytes
    );
    assert!(resnap.outbuf_hwm_bytes >= snap.outbuf_hwm_bytes);

    // `/stats` serves the same snapshot as the binary STATS frame.
    let (status, stats_body) = http_get(metrics_addr, "/stats").expect("sidecar reachable");
    assert_eq!(status, 200);
    let http_snap = StatsSnapshot::from_json_str(&stats_body).expect("stats parse");
    assert_eq!(http_snap.connections_total, snap.connections_total);
    assert_eq!(http_snap.timesteps_in, snap.timesteps_in);
    assert_eq!(http_snap.emissions_out, snap.emissions_out);
    assert_eq!(http_snap.streams_opened, snap.streams_opened);
    assert_eq!(http_snap.waves, snap.waves);
    assert_eq!(http_snap.models.len(), snap.models.len());

    handle.shutdown();
}

/// Counters must never decrease between scrapes, with live traffic in
/// between.
#[test]
fn counters_are_monotone_across_scrapes() {
    let plan = searched_plan(63);
    let server = Server::bind(ServeEngine::F32(plan), metrics_config()).expect("bind");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();

    let counters = [
        "pit_serve_connections_total",
        "pit_serve_streams_opened_total",
        "pit_serve_timesteps_total",
        "pit_serve_emissions_total",
        "pit_serve_waves_total",
        "pit_serve_trace_events_total",
        "pit_serve_stats_seq",
    ];
    let mut last = vec![0.0f64; counters.len()];
    let mut rng = StdRng::seed_from_u64(9);
    for round in 0..3u32 {
        let mut client = Client::connect(addr).expect("connect");
        client.open(round).expect("open");
        let input: Vec<f32> = (0..32 * C).map(|_| rng.gen::<f32>() - 0.5).collect();
        client.push(round, C as u32, &input).expect("push");
        let mut got = 0usize;
        while got < 4 {
            if let ServerFrame::EmitN { entries, .. } = client
                .recv_timeout(RECV_TIMEOUT)
                .expect("transport")
                .expect("emissions arrive")
            {
                got += entries.iter().map(|&(_, n)| n as usize).sum::<usize>();
            }
        }
        client.close(round).expect("close");
        drop(client);
        let (status, text) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
        assert_eq!(status, 200);
        for (i, name) in counters.iter().enumerate() {
            let value = metric(&text, name);
            assert!(
                value >= last[i],
                "{name} went backwards: {} -> {value}",
                last[i]
            );
            last[i] = value;
        }
    }
    assert!(last[2] >= 96.0, "three rounds of 32 timesteps scraped");
    handle.shutdown();
}

/// Every sample line must be well-formed, every family announced with
/// HELP and TYPE before its samples, and histogram bucket counts must be
/// cumulative in `le` and agree with `_count`.
#[test]
fn prometheus_exposition_format_is_wellformed() {
    let plan = searched_plan(64);
    let server = Server::bind(ServeEngine::F32(plan), metrics_config()).expect("bind");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();

    // Some traffic so histograms are non-empty.
    let mut client = Client::connect(addr).expect("connect");
    client.open(0).expect("open");
    let input = vec![0.25f32; 32 * C];
    client.push(0, C as u32, &input).expect("push");
    let mut got = 0usize;
    while got < 4 {
        if let ServerFrame::EmitN { entries, .. } = client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport")
            .expect("emissions arrive")
        {
            got += entries.iter().map(|&(_, n)| n as usize).sum::<usize>();
        }
    }
    let snap = settled_stats(&mut client, |_| true);

    let (status, text) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
    assert_eq!(status, 200);
    let mut announced: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            announced.push((name, String::new()));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap().to_string();
            let kind = parts.next().expect("TYPE has a kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram" | "summary"),
                "unknown TYPE {kind}"
            );
            let slot = announced
                .iter_mut()
                .rfind(|(n, _)| *n == name)
                .expect("TYPE follows HELP");
            slot.1 = kind;
            continue;
        }
        assert!(!line.is_empty(), "no blank lines in the exposition");
        // name[{labels}] value
        let (selector, value) = line.rsplit_once(' ').expect("sample has a value");
        value.parse::<f64>().expect("sample value is a float");
        let name = selector.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name}"
        );
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| announced.iter().any(|(n, k)| n == f && k == "histogram"))
            .unwrap_or(name);
        let (_, kind) = announced
            .iter()
            .find(|(n, _)| n == family)
            .unwrap_or_else(|| panic!("sample {name} has no HELP/TYPE"));
        if name.ends_with("_total") {
            assert_eq!(kind, "counter", "{name} should be a counter");
        }
        // Labels, when present, are key="escaped value" pairs.
        if let Some(labels) = selector
            .split_once('{')
            .map(|(_, l)| l.strip_suffix('}').expect("closed label set"))
        {
            for pair in labels.split(',') {
                let (key, val) = pair.split_once('=').expect("label has =");
                assert!(key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
                assert!(val.starts_with('"') && val.ends_with('"'), "quoted {val}");
            }
        }
    }
    // Wave histograms, one per registry model: buckets cumulative in le,
    // +Inf equals _count, and _count equals the model's STATS waves.
    assert!(!snap.models.is_empty());
    for m in &snap.models {
        let model_label = format!("model=\"{}\",kind=\"{}\"", m.name, m.kind);
        let prefix = format!("pit_serve_wave_flush_ns_bucket{{{model_label},le=");
        let mut lastv = 0.0;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(&prefix) {
                let value: f64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(value >= lastv, "bucket counts are cumulative");
                lastv = value;
                if rest.starts_with("\"+Inf\"") {
                    inf = Some(value);
                }
            }
        }
        let count = metric(
            &text,
            &format!("pit_serve_wave_flush_ns_count{{{model_label}}}"),
        );
        assert_eq!(inf, Some(count), "+Inf bucket equals _count");
        assert_eq!(
            count as u64, m.waves,
            "{}: flush histogram counts its waves",
            m.name
        );
    }

    // The wave-latency summary carries all three quantiles, non-decreasing
    // in q (p50 ≤ p99 ≤ p99.9 by construction of the merged histogram).
    let quantiles: Vec<f64> = ["0.5", "0.99", "0.999"]
        .iter()
        .map(|q| {
            metric(
                &text,
                &format!("pit_serve_wave_latency_ns{{quantile=\"{q}\"}}"),
            )
        })
        .collect();
    assert_eq!(quantiles.len(), 3);
    assert!(
        quantiles.windows(2).all(|w| w[0] <= w[1]),
        "summary quantiles must be non-decreasing: {quantiles:?}"
    );

    handle.shutdown();
}

/// `(name, kind)` of every series of a `{model,kind}`-labelled sample, in
/// exposition order.
fn model_series(text: &str, sample: &str) -> Vec<(String, String)> {
    let prefix = format!("{sample}{{model=\"");
    text.lines()
        .filter_map(|line| {
            let (name, rest) = line.strip_prefix(&prefix)?.split_once("\",kind=\"")?;
            let (kind, _) = rest.split_once("\"}")?;
            Some((name.to_string(), kind.to_string()))
        })
        .collect()
}

/// Every view of the registry — LIST_MODELS, the `/stats` breakdown and
/// its default-model fields, and the per-model `/metrics` series — names
/// exactly `want` (`(name, kind)` in registry order, default first).
fn assert_registry_views(client: &mut Client, metrics_addr: SocketAddr, want: &[(&str, &str)]) {
    let want: Vec<(String, String)> = want
        .iter()
        .map(|&(name, kind)| (name.to_string(), kind.to_string()))
        .collect();
    let listed: Vec<(String, String)> = client
        .list_models()
        .expect("list models")
        .into_iter()
        .map(|m| (m.name, m.kind))
        .collect();
    assert_eq!(listed, want, "LIST_MODELS");
    let (status, body) = http_get(metrics_addr, "/stats").expect("sidecar reachable");
    assert_eq!(status, 200);
    let stats = StatsSnapshot::from_json_str(&body).expect("stats parse");
    assert_eq!((stats.model, stats.kind), want[0], "/stats default model");
    let breakdown: Vec<(String, String)> =
        stats.models.into_iter().map(|m| (m.name, m.kind)).collect();
    assert_eq!(breakdown, want, "/stats models[]");
    let (status, text) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
    assert_eq!(status, 200);
    for sample in [
        "pit_serve_model_streams_open",
        "pit_serve_wave_flush_ns_count",
    ] {
        assert_eq!(model_series(&text, sample), want, "/metrics {sample}");
    }
}

/// Sends LOAD_MODEL for `path` and returns the registry name it loaded
/// under.
fn load_model(client: &mut Client, path: &std::path::Path) -> String {
    client
        .send(&ClientFrame::LoadModel {
            path: path.display().to_string(),
        })
        .expect("send");
    match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
        Some(ServerFrame::ModelLoaded { name }) => name,
        other => panic!("expected MODEL_LOADED, got {other:?}"),
    }
}

/// One registry, seen the same everywhere: after boot, a LOAD_MODEL add
/// and a LOAD_MODEL replace that changes an entry's kind, LIST_MODELS,
/// `/stats` and `/metrics` agree on every model's name and kind.
#[test]
fn one_registry_is_seen_the_same_everywhere() {
    let plan = searched_plan(74);
    let added = quantized_plan(&plan, 75);
    let replacement = (*added).clone().with_name("fp");
    let dir = std::env::temp_dir().join(format!("pit-serve-registry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let add_path = dir.join("add_i8.json");
    std::fs::write(&add_path, added.to_artifact_string()).expect("write add artifact");
    let replace_path = dir.join("replace_i8.json");
    std::fs::write(&replace_path, replacement.to_artifact_string())
        .expect("write replace artifact");

    let server = Server::bind_models(
        vec![("fp".into(), ServeEngine::F32(plan))],
        "fp",
        metrics_config(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    assert_registry_views(&mut client, metrics_addr, &[("fp", "f32")]);

    let added_name = load_model(&mut client, &add_path);
    assert_eq!(added_name, added.name(), "an unseen name adds an entry");
    assert_registry_views(
        &mut client,
        metrics_addr,
        &[("fp", "f32"), (added_name.as_str(), "i8")],
    );

    let replaced_name = load_model(&mut client, &replace_path);
    assert_eq!(replaced_name, "fp", "a known name replaces its entry");
    assert_registry_views(
        &mut client,
        metrics_addr,
        &[("fp", "i8"), (added_name.as_str(), "i8")],
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Model names land in label values escaped, never truncating the scrape.
#[test]
fn weird_model_names_are_escaped_in_labels() {
    let plan = searched_plan(65);
    let server = Server::bind_models(
        vec![(r#"we"ird\model"#.into(), ServeEngine::F32(plan))],
        r#"we"ird\model"#,
        metrics_config(),
    )
    .expect("bind");
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();
    let (status, text) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
    assert_eq!(status, 200);
    assert!(
        text.contains(r#"model="we\"ird\\model""#),
        "escaped label value present: {text}"
    );
    handle.shutdown();
}

/// `/healthz` must flip 200 → 503 the moment a graceful drain starts,
/// while the drain grace keeps the daemon serving reads.
#[test]
fn healthz_flips_to_503_during_graceful_drain() {
    let plan = searched_plan(66);
    let config = ServerConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        drain_grace: Duration::from_millis(1500),
        ..ServerConfig::default()
    };
    let server = Server::bind(ServeEngine::F32(plan), config).expect("bind");
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();

    // Serving: 200.
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        let (status, body) = http_get(metrics_addr, "/healthz").expect("sidecar reachable");
        if status == 200 {
            assert!(body.contains("\"serving\""), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "daemon never reached serving");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Request the drain without waiting for the exit: within the grace
    // window the sidecar must already report draining with a 503.
    handle.request_shutdown();
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        let (status, body) = http_get(metrics_addr, "/healthz").expect("sidecar reachable");
        if status == 503 {
            assert!(body.contains("\"draining\""), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "healthz never flipped to 503");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

/// The per-stream event trace, over both the TRACE frame and HTTP.
#[test]
fn trace_reports_the_stream_lifecycle() {
    let plan = searched_plan(67);
    let server = Server::bind(ServeEngine::F32(plan), metrics_config()).expect("bind");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open(3).expect("open");
    let input = vec![0.5f32; 24 * C];
    client.push(3, C as u32, &input).expect("push");
    let mut got = 0usize;
    while got < 3 {
        if let ServerFrame::EmitN { entries, .. } = client
            .recv_timeout(RECV_TIMEOUT)
            .expect("transport")
            .expect("emissions arrive")
        {
            got += entries.iter().map(|&(_, n)| n as usize).sum::<usize>();
        }
    }
    client.close(3).expect("close");

    // The close is processed shard-side; poll the TRACE frame until its
    // event lands.
    let deadline = Instant::now() + RECV_TIMEOUT;
    let events = loop {
        let events = client.trace(3).expect("trace");
        if events.iter().any(|e| e.event == "close") {
            break events;
        }
        assert!(Instant::now() < deadline, "close event never traced");
        std::thread::sleep(Duration::from_millis(5));
    };
    let kind_of = |what: &str| events.iter().find(|e| e.event == what);
    let open = kind_of("open").expect("open traced");
    assert_eq!(open.stream, Some(3));
    assert!(open.shard.is_some(), "open is a shard-side event");
    let push = kind_of("push").expect("push traced");
    assert_eq!(push.count, 24, "push event carries the timestep count");
    let emit = kind_of("emit").expect("emit traced");
    assert!(emit.count >= 1);
    let close = kind_of("close").expect("close traced");
    assert_eq!(close.count, 0, "closed by client (reason code 0)");
    // Events are chronological and sequence-ordered.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].t_us <= pair[1].t_us);
    }
    // All events name the serving model.
    assert!(events.iter().all(|e| !e.model.is_empty()));

    // The same events over HTTP, filtered by the query string.
    let (status, body) = http_get(metrics_addr, "/trace?stream=3").expect("sidecar reachable");
    assert_eq!(status, 200);
    assert!(body.contains("\"pit-serve-trace/1\""));
    let http_events = pit_serve::TraceEvent::parse_list(&body).expect("parse");
    assert!(http_events
        .iter()
        .any(|e| e.event == "push" && e.count == 24));
    // A filter that matches nothing returns an empty list, not an error.
    let (status, body) = http_get(metrics_addr, "/trace?conn=999999").expect("sidecar reachable");
    assert_eq!(status, 200);
    let none = pit_serve::TraceEvent::parse_list(&body).expect("parse");
    assert!(none.is_empty());

    handle.shutdown();
}

/// Sidecar hardening: bad methods, unknown paths, oversized request
/// lines and stalled clients must never wedge the daemon.
#[test]
fn sidecar_survives_hostile_http_clients() {
    let plan = searched_plan(68);
    let server = Server::bind(ServeEngine::F32(plan), metrics_config()).expect("bind");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();

    // Bad method.
    let (status, head, _body) =
        http_request(metrics_addr, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "{head}");
    // Unknown path.
    let (status, _body) = http_get(metrics_addr, "/favicon.ico").expect("sidecar reachable");
    assert_eq!(status, 404);
    // Bad trace query.
    let (status, _body) = http_get(metrics_addr, "/trace?conn=banana").expect("sidecar reachable");
    assert_eq!(status, 400);
    // Oversized request: 16 KB of request line.
    let mut huge = Vec::from(&b"GET /"[..]);
    huge.extend(std::iter::repeat_n(b'a', 16 * 1024));
    huge.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let (status, _head, _body) = http_request(metrics_addr, &huge);
    assert_eq!(status, 400);
    // A stalled client (connected, nothing sent) must not block others.
    let stalled = TcpStream::connect(metrics_addr).expect("connect");
    let (status, body) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
    assert_eq!(status, 200);
    assert!(body.contains("pit_serve_connections_total"));
    drop(stalled);

    // Through all of it the serving daemon itself stays healthy.
    let mut client = Client::connect(addr).expect("connect");
    client.ping(41).expect("ping");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).unwrap(),
        Some(ServerFrame::Pong { token: 41 })
    ));
    handle.shutdown();
}

/// The trace ring holds 4096 slots and never stops the world to rotate:
/// writers overwrite the oldest slots in place while readers skip any
/// slot caught mid-overwrite. Push enough single-step bursts through one
/// stream to lap the ring, then demand that both read paths — the TRACE
/// frame and the HTTP `/trace` route — serve only coherent, most-recent
/// events: strictly increasing sequence numbers, chronological
/// timestamps, nothing older than one ring's worth, and none of the
/// stream's earliest events (those must have been overwritten).
#[test]
fn trace_ring_wraparound_serves_only_recent_coherent_events() {
    const RING_SLOTS: f64 = 4096.0;
    let plan = searched_plan(73);
    let server = Server::bind(ServeEngine::F32(plan), metrics_config()).expect("bind");
    let addr = server.local_addr();
    let metrics_addr = server.metrics_addr().expect("sidecar bound");
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.open(5).expect("open");

    // Every 1-step PUSH records one push event and (once flushed) one
    // emit event, so the ring laps after ~2048 bursts; drive it well
    // past a full lap, draining EMIT frames as we go so backpressure
    // never pauses the experiment.
    let step = vec![0.25f32; C];
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for _ in 0..64 {
            client.push(5, C as u32, &step).expect("push");
        }
        client.flush().expect("flush");
        while let Some(_frame) = client
            .recv_timeout(Duration::from_millis(1))
            .expect("transport")
        {}
        let (status, body) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
        assert_eq!(status, 200);
        if metric(&body, "pit_serve_trace_events_total") >= RING_SLOTS + 512.0 {
            break;
        }
        assert!(Instant::now() < deadline, "ring never lapped");
    }
    // Quiesce so every recorded event is stable before reading.
    let snap = settled_stats(&mut client, |_| true);
    assert!(snap.timesteps_in > RING_SLOTS as u64 / 2);

    let (status, body) = http_get(metrics_addr, "/metrics").expect("sidecar reachable");
    assert_eq!(status, 200);
    let recorded = metric(&body, "pit_serve_trace_events_total");
    assert!(recorded >= RING_SLOTS + 512.0);

    // Both read paths, same demands.
    let frame_events = client.trace(5).expect("trace frame");
    let (status, body) = http_get(metrics_addr, "/trace?stream=5").expect("sidecar reachable");
    assert_eq!(status, 200);
    let http_events = pit_serve::TraceEvent::parse_list(&body).expect("parse");
    for (path, events) in [("TRACE frame", &frame_events), ("/trace", &http_events)] {
        assert!(
            !events.is_empty() && events.len() <= RING_SLOTS as usize,
            "{path}: {} events",
            events.len()
        );
        // Coherent: strictly ordered, chronological, all for stream 5.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "{path}: seq order broken");
            assert!(pair[0].t_us <= pair[1].t_us, "{path}: time order broken");
        }
        assert!(
            events.iter().all(|e| e.stream == Some(5)),
            "{path}: filter leak"
        );
        // Most-recent only: nothing older than one ring behind the write
        // cursor can survive, so the stream's OPEN (its very first
        // event) must be gone and every survivor sits in the last lap.
        assert!(
            events.iter().all(|e| e.event != "open"),
            "{path}: the lapped OPEN event must have been overwritten"
        );
        let oldest = events.first().expect("nonempty").seq;
        assert!(
            (oldest as f64) >= recorded - RING_SLOTS,
            "{path}: event {oldest} is older than one ring ({recorded} recorded)"
        );
    }
    // The ring keeps filling right up to the cursor: the newest surviving
    // event is within the final few waves of the cursor position.
    let newest = frame_events.last().expect("nonempty").seq;
    assert!(
        (newest as f64) >= recorded - 64.0,
        "newest surviving event {newest} lags the cursor {recorded}"
    );

    client.close(5).expect("close");
    handle.shutdown();
}

/// Booting without `metrics_addr` keeps the sidecar off entirely.
#[test]
fn sidecar_is_disabled_by_default() {
    let plan = searched_plan(69);
    let server = Server::bind(ServeEngine::F32(plan), ServerConfig::default()).expect("bind");
    assert_eq!(server.metrics_addr(), None);
    let handle = server.spawn();
    assert_eq!(handle.metrics_addr(), None);
    handle.shutdown();
}
