//! Reading the daemon's HTTP telemetry sidecar from the harness.
//!
//! Everything here goes over plain HTTP/1.1 on the sidecar — never over
//! the binary protocol — because sidecar connections do not count in the
//! daemon's edge `connections_total`. That keeps the reconciliation gate
//! exact: the connection-counter delta across a run equals the driver's
//! worker connections, with no scrape traffic to subtract.

use pit_serve::StatsSnapshot;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One point-in-time read of `/metrics` plus `/stats`.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// Parsed Prometheus samples: full selector (name plus label set,
    /// e.g. `pit_serve_model_timesteps_total{model="m",kind="f32"}`)
    /// to value.
    pub samples: HashMap<String, f64>,
    /// The parsed `/stats` document.
    pub stats: StatsSnapshot,
}

impl Scrape {
    /// A sample by full selector; `None` when the exposition lacks it.
    pub fn metric(&self, selector: &str) -> Option<f64> {
        self.samples.get(selector).copied()
    }

    /// A counter by full selector, as the integer it is.
    pub fn counter(&self, selector: &str) -> u64 {
        self.metric(selector).unwrap_or(0.0) as u64
    }
}

/// One blocking HTTP/1.1 GET against the sidecar ([`pit_serve::http_get`]),
/// returning the body of a `200` response.
///
/// # Errors
///
/// Returns a message on transport failures or a non-200 status.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    match pit_serve::http_get(addr, path) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(format!("GET {path} returned {status}")),
        Err(e) => Err(format!("sidecar {addr}: GET {path}: {e}")),
    }
}

/// Parses a Prometheus text exposition into selector → value.
pub fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut samples = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                samples.insert(name.to_string(), v);
            }
        }
    }
    samples
}

/// Scrapes `/metrics` and `/stats` once.
///
/// # Errors
///
/// Returns a message on transport failures or malformed documents.
pub fn scrape(metrics_addr: SocketAddr) -> Result<Scrape, String> {
    let samples = parse_exposition(&http_get(metrics_addr, "/metrics")?);
    let stats = StatsSnapshot::from_json_str(&http_get(metrics_addr, "/stats")?)
        .map_err(|e| format!("/stats parse: {e}"))?;
    Ok(Scrape { samples, stats })
}

/// Polls `/stats` until the daemon reports itself settled with no open
/// streams and no open worker connections, then takes a final scrape.
/// This is the post-run quiescence barrier: after it, every counter is
/// final and the exact reconciliation can run.
///
/// # Errors
///
/// Returns a message when the daemon fails to settle within `timeout`.
pub fn settle(metrics_addr: SocketAddr, timeout: Duration) -> Result<Scrape, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = StatsSnapshot::from_json_str(&http_get(metrics_addr, "/stats")?)
            .map_err(|e| format!("/stats parse: {e}"))?;
        if snap.settled && snap.streams_open == 0 && snap.connections_open == 0 {
            return scrape(metrics_addr);
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "daemon never settled: settled={} streams_open={} connections_open={}",
                snap.settled, snap.streams_open, snap.connections_open
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parsing_skips_comments_and_keeps_labels() {
        let text = "# HELP pit_serve_waves_total waves\n\
                    # TYPE pit_serve_waves_total counter\n\
                    pit_serve_waves_total 41\n\
                    pit_serve_model_timesteps_total{model=\"m\",kind=\"f32\"} 7\n\
                    \n\
                    pit_serve_uptime_seconds 1.25\n";
        let samples = parse_exposition(text);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples["pit_serve_waves_total"], 41.0);
        assert_eq!(
            samples["pit_serve_model_timesteps_total{model=\"m\",kind=\"f32\"}"],
            7.0
        );
        assert_eq!(samples["pit_serve_uptime_seconds"], 1.25);
    }
}
