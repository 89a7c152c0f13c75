//! The `pit-serve` daemon binary.
//!
//! ```text
//! pit-serve --artifact MODEL.json | --zoo ZOO.json
//!           [--default-model NAME] [--check]
//!           [--addr 127.0.0.1:7878] [--max-streams N]
//!           [--tick-us N] [--idle-ms N] [--max-pending N] [--shards N]
//!           [--metrics-addr HOST:PORT] [--drain-grace-ms N]
//!           [--read-progress-ms N]
//! ```
//!
//! Boots a serving daemon from a single `pit-arch/2` model artifact (f32 or
//! int8 — the file's `kind` field decides the engine) **or** from a whole
//! `pit-zoo/1` artifact library written by `pit-search`, registering every
//! listed model so clients pick one per stream at OPEN (protocol v3). The
//! daemon then serves the frame protocol of `pit_serve::protocol` until it
//! gets SIGTERM or SIGINT, which start a graceful drain: `/healthz` turns
//! `draining` for `--drain-grace-ms` while reads are still served, queued
//! timesteps become final emissions, every stream gets a CLOSED frame, the
//! final stats print as a `drained —` line and the process exits 0.
//! `--check` validates the boot source — manifest,
//! artifacts, registry — prints the model table and exits without serving.
//! `--metrics-addr` boots the HTTP telemetry sidecar beside the daemon:
//! Prometheus text on `GET /metrics`, stats JSON on `GET /stats`, liveness
//! on `GET /healthz` and the per-stream event trace on `GET /trace`.

use pit_serve::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

/// SIGTERM/SIGINT handling. The workspace denies `unsafe_code`; this
/// submodule is the binary's one audited exception, declared against the C
/// ABI like `edge::sys` in the library (no `libc` crate is vendored).
mod signals {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to the flag [`requested`] reads.
    pub fn install() {
        for signum in [SIGTERM, SIGINT] {
            // SAFETY: `on_signal` has the C ABI `signal` expects and only
            // stores to an atomic, which is async-signal-safe.
            unsafe {
                signal(signum, on_signal);
            }
        }
    }

    /// Whether SIGTERM or SIGINT has arrived since [`install`].
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pit-serve --artifact MODEL.json | --zoo ZOO.json\n\
         \u{20}               [--default-model NAME] [--check]\n\
         \u{20}               [--addr HOST:PORT] [--max-streams N]\n\
         \u{20}               [--tick-us N] [--idle-ms N] [--max-pending N] [--shards N]\n\
         \u{20}               [--metrics-addr HOST:PORT] [--drain-grace-ms N]\n\
         \u{20}               [--read-progress-ms N]\n\
         \n\
         \u{20} --artifact      pit-arch/2 model artifact to serve\n\
         \u{20} --zoo           pit-zoo/1 manifest — serve the whole library\n\
         \u{20} --default-model registry entry a model-less OPEN gets (zoo only;\n\
         \u{20}                 default: the manifest's default entry)\n\
         \u{20} --check         validate the boot source, print models, exit\n\
         \u{20} --addr          bind address (default 127.0.0.1:7878)\n\
         \u{20} --max-streams   concurrent stream cap (default 4096)\n\
         \u{20} --tick-us       flush cadence in microseconds: each shard flushes\n\
         \u{20}                 its queued timesteps at most once per tick (default 200)\n\
         \u{20} --idle-ms       evict streams idle this long; 0 = never (default 0)\n\
         \u{20} --max-pending   per-connection queued-timestep cap (default 4096)\n\
         \u{20} --shards        wave-batcher shard threads (default: CPU count, max 8)\n\
         \u{20} --metrics-addr  bind the HTTP telemetry sidecar here (GET /metrics,\n\
         \u{20}                 /stats, /healthz, /trace; default: disabled)\n\
         \u{20} --drain-grace-ms keep serving reads this long after a shutdown is\n\
         \u{20}                 requested, refusing new streams (default 0)\n\
         \u{20} --read-progress-ms drop connections whose partial frame stalls this\n\
         \u{20}                 long, or that hold no streams and complete no frame\n\
         \u{20}                 within it; 0 = never (default 30000)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact: Option<String> = None;
    let mut zoo: Option<String> = None;
    let mut default_model: Option<String> = None;
    let mut check = false;
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("pit-serve: {name} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--artifact" => match value("--artifact") {
                Some(v) => artifact = Some(v),
                None => return usage(),
            },
            "--zoo" => match value("--zoo") {
                Some(v) => zoo = Some(v),
                None => return usage(),
            },
            "--default-model" => match value("--default-model") {
                Some(v) => default_model = Some(v),
                None => return usage(),
            },
            "--check" => check = true,
            "--addr" => match value("--addr") {
                Some(v) => config.addr = v,
                None => return usage(),
            },
            "--max-streams" => match value("--max-streams").and_then(|v| v.parse().ok()) {
                Some(v) => config.max_streams = v,
                None => return usage(),
            },
            "--tick-us" => match value("--tick-us").and_then(|v| v.parse().ok()) {
                Some(v) => config.tick = Duration::from_micros(v),
                None => return usage(),
            },
            "--idle-ms" => match value("--idle-ms").and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => config.idle_timeout = None,
                Some(v) => config.idle_timeout = Some(Duration::from_millis(v)),
                None => return usage(),
            },
            "--max-pending" => match value("--max-pending").and_then(|v| v.parse().ok()) {
                Some(v) => config.max_pending_per_conn = v,
                None => return usage(),
            },
            "--shards" => match value("--shards").and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.shards = v,
                _ => return usage(),
            },
            "--metrics-addr" => match value("--metrics-addr") {
                Some(v) => config.metrics_addr = Some(v),
                None => return usage(),
            },
            "--drain-grace-ms" => match value("--drain-grace-ms").and_then(|v| v.parse().ok()) {
                Some(v) => config.drain_grace = Duration::from_millis(v),
                None => return usage(),
            },
            "--read-progress-ms" => {
                match value("--read-progress-ms").and_then(|v| v.parse::<u64>().ok()) {
                    Some(0) => config.read_progress_timeout = None,
                    Some(v) => config.read_progress_timeout = Some(Duration::from_millis(v)),
                    None => return usage(),
                }
            }
            _ => return usage(),
        }
    }
    let (source, server) = match (&artifact, &zoo) {
        (Some(_), Some(_)) => {
            eprintln!("pit-serve: --artifact and --zoo are mutually exclusive");
            return usage();
        }
        (None, None) => {
            eprintln!("pit-serve: --artifact or --zoo is required");
            return usage();
        }
        (Some(path), None) => {
            if default_model.is_some() {
                eprintln!("pit-serve: --default-model needs --zoo");
                return usage();
            }
            (
                path.clone(),
                Server::bind_artifact(std::path::Path::new(path), config),
            )
        }
        (None, Some(path)) => (
            path.clone(),
            Server::bind_zoo_with_default(
                std::path::Path::new(path),
                default_model.as_deref(),
                config,
            ),
        ),
    };
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pit-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if check {
        println!("{source}: ok");
        for (name, kind) in server.model_names() {
            let default = if name == server.default_model_name() {
                "  (default)"
            } else {
                ""
            };
            println!("  {name} [{kind}]{default}");
        }
        return ExitCode::SUCCESS;
    }
    // Before the `listening on` line: a signal sent once it shows drains.
    signals::install();
    eprintln!(
        "pit-serve: listening on {} ({} models from {source}, default {})",
        server.local_addr(),
        server.model_names().len(),
        server.default_model_name(),
    );
    if let Some(metrics) = server.metrics_addr() {
        eprintln!("pit-serve: telemetry sidecar on http://{metrics}");
    }
    let handle = server.spawn();
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = handle.shutdown();
    eprintln!("pit-serve: drained — {stats}");
    ExitCode::SUCCESS
}
