//! The `pit-serve` binary drains on SIGTERM: a real daemon process, a
//! stream with timesteps still queued when the signal lands, and the
//! drain's final emissions, CLOSED frame, stats line and exit status.

mod common;

use common::searched_plan;
use pit_infer::Session;
use pit_serve::{Client, CloseReason, ServerFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const C: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// Kills the daemon if the test ends before it exits on its own.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_drains_queued_steps_and_exits_cleanly() {
    let plan = searched_plan(21);
    let artifact = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("signal-drain-{}.json", std::process::id()));
    std::fs::write(&artifact, plan.to_artifact_string()).expect("write artifact");
    // A 10-s tick: after the first flush, pushed timesteps stay queued
    // until the drain flushes them.
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_pit-serve"))
            .arg("--artifact")
            .arg(&artifact)
            .args(["--addr", "127.0.0.1:0", "--tick-us", "10000000"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("start pit-serve"),
    );
    let (lines_tx, lines) = mpsc::channel::<String>();
    let stderr = daemon.0.stderr.take().expect("piped stderr");
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = lines_tx.send(line);
        }
    });
    let mut log = Vec::new();
    let addr = loop {
        let line = lines.recv_timeout(RECV_TIMEOUT).expect("daemon boots");
        log.push(line.clone());
        if let Some(rest) = line.strip_prefix("pit-serve: listening on ") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };

    let mut rng = StdRng::seed_from_u64(22);
    let input: Vec<f32> = (0..16 * C).map(|_| rng.gen::<f32>() - 0.5).collect();
    let mut client = Client::connect(addr.as_str()).expect("connect");
    client.open(0).expect("open");
    client.push(0, C as u32, &input[..8 * C]).expect("push");
    let mut outputs: Vec<Vec<f32>> = Vec::new();
    while outputs.is_empty() {
        match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
            Some(ServerFrame::Opened { stream_id: 0 }) => {}
            Some(ServerFrame::EmitN {
                dim, outputs: o, ..
            }) => outputs.extend(o.chunks_exact(dim as usize).map(<[f32]>::to_vec)),
            other => panic!("expected the first emission, got {other:?}"),
        }
    }
    // The second burst waits out the tick; the PONG proves the edge has
    // routed it before the signal.
    client.push(0, C as u32, &input[8 * C..]).expect("push");
    client.ping(7).expect("ping");
    assert!(matches!(
        client.recv_timeout(RECV_TIMEOUT).expect("transport"),
        Some(ServerFrame::Pong { token: 7 })
    ));

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed: {killed}");

    loop {
        match client.recv_timeout(RECV_TIMEOUT).expect("transport") {
            Some(ServerFrame::EmitN {
                dim, outputs: o, ..
            }) => outputs.extend(o.chunks_exact(dim as usize).map(<[f32]>::to_vec)),
            Some(ServerFrame::Closed { stream_id, reason }) => {
                assert_eq!((stream_id, reason), (0, CloseReason::Drained));
                break;
            }
            other => panic!("expected final emissions then CLOSED, got {other:?}"),
        }
    }
    let mut session = Session::new(plan);
    let want: Vec<Vec<f32>> = input.chunks(C).filter_map(|s| session.push(s)).collect();
    assert_eq!(outputs.len(), want.len(), "the queued burst is flushed");
    for (got, want) in outputs.iter().zip(&want) {
        for (x, y) in got.iter().zip(want) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    let deadline = Instant::now() + RECV_TIMEOUT;
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    log.extend(lines.iter());
    let _ = std::fs::remove_file(&artifact);
    assert_eq!(status.code(), Some(0), "exit status {status}; log: {log:?}");
    assert!(
        log.iter().any(|line| line.contains("drained — ")),
        "no drained line: {log:?}"
    );
}
