//! The open-loop replay driver.
//!
//! One worker thread per connection plays its event script against an
//! absolute timeline: all workers share one epoch `Instant`, every event
//! carries an intended send time, and a worker never lets the server's
//! pace slow its own sends down. Latency is measured from the *intended*
//! send time of the PUSH that owes each emission, not from when the
//! bytes happened to leave — the coordinated-omission-safe convention:
//! if the daemon stalls for a second, a second of queued sends all
//! record second-long latencies instead of quietly shifting the whole
//! schedule right.
//!
//! Each worker keeps, per open stream, a FIFO of `(intended send ns,
//! emissions owed)` entries derived from the model's structural cadence
//! (see [`crate::oracle`]); arriving EMIT_N entries consume the FIFO in
//! order, so every emission is attributed to exactly one intended send
//! time. When the FIFO runs dry or a stream closes with entries left,
//! that is an accounting error the run reports rather than hides.

use crate::oracle::ModelTable;
use crate::workload::{ConnScript, EventKind, Workload};
use pit_serve::hist::{Histogram, HistogramSnapshot};
use pit_serve::protocol::entry_runs;
use pit_serve::{Client, ClientBuilder, ServerFrame};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the driver reaches the daemon.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Binary-protocol address workers connect to.
    pub addr: SocketAddr,
    /// Wall-clock budget for the post-schedule drain (waiting for the
    /// daemon to deliver final emissions and CLOSED frames).
    pub drain_timeout: Duration,
}

/// Client-side accounting errors, each a reconciliation failure in the
/// making.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorCounts {
    /// Transport failures (a worker lost its connection mid-script).
    pub transport: u64,
    /// ERROR frames received from the daemon.
    pub protocol: u64,
    /// Emissions that arrived with no FIFO entry owing them.
    pub unexpected_emissions: u64,
    /// Emissions still owed when the stream's CLOSED arrived.
    pub missing_emissions: u64,
    /// Workers whose drain hit the timeout before every CLOSED arrived.
    pub drain_incomplete: u64,
}

impl ErrorCounts {
    fn absorb(&mut self, other: &ErrorCounts) {
        self.transport += other.transport;
        self.protocol += other.protocol;
        self.unexpected_emissions += other.unexpected_emissions;
        self.missing_emissions += other.missing_emissions;
        self.drain_incomplete += other.drain_incomplete;
    }

    /// True when no counter fired.
    pub fn is_clean(&self) -> bool {
        self.transport == 0
            && self.protocol == 0
            && self.unexpected_emissions == 0
            && self.missing_emissions == 0
            && self.drain_incomplete == 0
    }

    /// Sum of all counters (report convenience).
    pub fn total(&self) -> u64 {
        self.transport
            + self.protocol
            + self.unexpected_emissions
            + self.missing_emissions
            + self.drain_incomplete
    }
}

/// Everything the run produced on the client side.
pub struct DriverOutcome {
    /// Per-scenario emission latency (intended-send → receipt),
    /// workload scenario order.
    pub scenario_hists: Vec<HistogramSnapshot>,
    /// All scenarios merged.
    pub total_hist: HistogramSnapshot,
    /// Send lag: actual send minus intended send — scheduler health;
    /// should stay microseconds unless the driver machine is saturated.
    pub send_lag: HistogramSnapshot,
    /// OPENED acks received.
    pub opens_acked: u64,
    /// CLOSED frames received.
    pub closes_seen: u64,
    /// Emissions received across all streams.
    pub emissions_received: u64,
    /// Accounting errors.
    pub errors: ErrorCounts,
    /// Wall seconds from epoch to the last event actually sent.
    pub send_wall_seconds: f64,
    /// Wall seconds from epoch to full drain.
    pub total_wall_seconds: f64,
    /// Recorded outputs for verify-sampled segments:
    /// `(session, segment)` → `(model index, concatenated outputs)`.
    pub verify_outputs: HashMap<(u32, u32), (usize, Vec<f32>)>,
}

struct StreamState {
    scenario: usize,
    model: usize,
    steps: usize,
    /// `(intended send ns, emissions still owed to that send)`.
    fifo: VecDeque<(u64, u64)>,
    /// `Some((session, segment, outputs))` for verify-sampled segments.
    verify: Option<(u32, u32, Vec<f32>)>,
}

struct WorkerResult {
    scenario_hists: Vec<HistogramSnapshot>,
    send_lag: HistogramSnapshot,
    opens_acked: u64,
    closes_seen: u64,
    emissions_received: u64,
    errors: ErrorCounts,
    last_send_ns: u64,
    verify_outputs: HashMap<(u32, u32), (usize, Vec<f32>)>,
}

/// Plays the whole workload against a live daemon.
///
/// Connects every worker before starting the clock (connection setup
/// must not eat into the schedule), runs the scripts, drains, and
/// merges the per-worker accounting.
///
/// # Errors
///
/// Returns a message when a worker cannot connect at all; in-flight
/// transport failures are reported through [`ErrorCounts`] instead so
/// one dropped connection does not void the rest of the run.
pub fn drive(
    workload: &Workload,
    table: &ModelTable,
    config: &DriverConfig,
) -> Result<DriverOutcome, String> {
    let mut clients = Vec::with_capacity(workload.conns.len());
    for i in 0..workload.conns.len() {
        let client = ClientBuilder::new()
            .connect_timeout(Duration::from_secs(10))
            .read_timeout(Duration::from_secs(10))
            .write_batch(64)
            .connect(config.addr)
            .map_err(|e| format!("worker {i} cannot connect to {}: {e:?}", config.addr))?;
        clients.push(client);
    }

    let scenario_count = workload.scenarios.len();
    let table = ArcTableView::new(table);
    let epoch = Instant::now();
    let drain_deadline_ns =
        nanos_of(epoch.elapsed()) + workload.end_us * 1_000 + nanos_of(config.drain_timeout);

    let handles: Vec<std::thread::JoinHandle<WorkerResult>> = workload
        .conns
        .iter()
        .zip(clients)
        .map(|(script, client)| {
            let script = script.clone();
            let table = table.clone();
            std::thread::spawn(move || {
                run_worker(
                    script,
                    client,
                    &table,
                    scenario_count,
                    epoch,
                    drain_deadline_ns,
                )
            })
        })
        .collect();

    let mut scenario_hists = vec![HistogramSnapshot::empty(); scenario_count];
    let mut send_lag = HistogramSnapshot::empty();
    let mut outcome = DriverOutcome {
        scenario_hists: Vec::new(),
        total_hist: HistogramSnapshot::empty(),
        send_lag: HistogramSnapshot::empty(),
        opens_acked: 0,
        closes_seen: 0,
        emissions_received: 0,
        errors: ErrorCounts::default(),
        send_wall_seconds: 0.0,
        total_wall_seconds: 0.0,
        verify_outputs: HashMap::new(),
    };
    let mut last_send_ns = 0u64;
    for handle in handles {
        let r = handle.join().map_err(|_| "a worker panicked".to_string())?;
        for (merged, part) in scenario_hists.iter_mut().zip(&r.scenario_hists) {
            merged.merge(part);
        }
        send_lag.merge(&r.send_lag);
        outcome.opens_acked += r.opens_acked;
        outcome.closes_seen += r.closes_seen;
        outcome.emissions_received += r.emissions_received;
        outcome.errors.absorb(&r.errors);
        outcome.verify_outputs.extend(r.verify_outputs);
        last_send_ns = last_send_ns.max(r.last_send_ns);
    }
    let mut total = HistogramSnapshot::empty();
    for h in &scenario_hists {
        total.merge(h);
    }
    outcome.scenario_hists = scenario_hists;
    outcome.total_hist = total;
    outcome.send_lag = send_lag;
    outcome.send_wall_seconds = last_send_ns as f64 / 1e9;
    outcome.total_wall_seconds = epoch.elapsed().as_secs_f64();
    Ok(outcome)
}

/// The driver threads only read the table; a raw shared reference with a
/// lifetime does not cross `thread::spawn`, so clone the pieces the
/// workers need into an `Arc`d view: per-model channels and cadence
/// lookups go through the original table via index math done up front.
#[derive(Clone)]
struct ArcTableView {
    names: Arc<Vec<String>>,
    channels: Arc<Vec<usize>>,
    /// Per model: `cum[n]` = emissions owed after `n` steps (probed
    /// horizon; steady state extends at one per step).
    cadence: Arc<Vec<Vec<u64>>>,
}

impl ArcTableView {
    fn new(table: &ModelTable) -> Self {
        let mut names = Vec::with_capacity(table.len());
        let mut channels = Vec::with_capacity(table.len());
        let mut cadence = Vec::with_capacity(table.len());
        for idx in 0..table.len() {
            names.push(table.get(idx).name.clone());
            channels.push(table.get(idx).channels);
            // Rebuild the cumulative table through the public cadence
            // API so this view cannot drift from the oracle's.
            let horizon = 512;
            let mut cum = Vec::with_capacity(horizon + 1);
            cum.push(0u64);
            for n in 1..=horizon {
                cum.push(table.expected_emissions(idx, 0, n));
            }
            cadence.push(cum);
        }
        Self {
            names: Arc::new(names),
            channels: Arc::new(channels),
            cadence: Arc::new(cadence),
        }
    }

    fn expected_emissions(&self, model: usize, from: usize, to: usize) -> u64 {
        let cum = &self.cadence[model];
        let at = |n: usize| -> u64 {
            if n < cum.len() {
                cum[n]
            } else {
                cum[cum.len() - 1] + (n - (cum.len() - 1)) as u64
            }
        };
        at(to) - at(from)
    }
}

fn nanos_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn run_worker(
    script: ConnScript,
    mut client: Client,
    table: &ArcTableView,
    scenario_count: usize,
    epoch: Instant,
    drain_deadline_ns: u64,
) -> WorkerResult {
    let scenario_hists: Vec<Histogram> =
        (0..scenario_count).map(|_| Histogram::default()).collect();
    let send_lag = Histogram::default();
    let mut streams: HashMap<u32, StreamState> = HashMap::new();
    let mut result = WorkerResult {
        scenario_hists: Vec::new(),
        send_lag: HistogramSnapshot::empty(),
        opens_acked: 0,
        closes_seen: 0,
        emissions_received: 0,
        errors: ErrorCounts::default(),
        last_send_ns: 0,
        verify_outputs: HashMap::new(),
    };

    let mut next = 0usize;
    let mut broken = false;
    'schedule: while next < script.events.len() {
        let now_ns = nanos_of(epoch.elapsed());
        // Send everything due, batched into one flush.
        let mut sent_any = false;
        while next < script.events.len() {
            let event = &script.events[next];
            let intended_ns = event.at_us * 1_000;
            if intended_ns > now_ns {
                break;
            }
            send_lag.record(now_ns.saturating_sub(intended_ns));
            let sent = match &event.kind {
                EventKind::Open {
                    stream,
                    model,
                    scenario,
                    session,
                    segment,
                    verify,
                } => {
                    streams.insert(
                        *stream,
                        StreamState {
                            scenario: *scenario,
                            model: *model,
                            steps: 0,
                            fifo: VecDeque::new(),
                            verify: verify.then(|| (*session, *segment, Vec::new())),
                        },
                    );
                    client.open_with_model(*stream, table.names[*model].as_str())
                }
                EventKind::Push { stream, samples } => {
                    let state = streams.get_mut(stream).expect("push on tracked stream");
                    let channels = table.channels[state.model];
                    let burst = samples.len() / channels;
                    let owed =
                        table.expected_emissions(state.model, state.steps, state.steps + burst);
                    if owed > 0 {
                        state.fifo.push_back((intended_ns, owed));
                    }
                    state.steps += burst;
                    client.push(*stream, channels as u32, samples)
                }
                EventKind::Close { stream } => client.close(*stream),
            };
            result.last_send_ns = now_ns;
            next += 1;
            sent_any = true;
            if sent.is_err() {
                broken = true;
                break 'schedule;
            }
        }
        if sent_any && client.flush().is_err() {
            broken = true;
            break;
        }
        // Wait for the next event (or a frame, whichever first).
        let wait_ns = if next < script.events.len() {
            (script.events[next].at_us * 1_000).saturating_sub(nanos_of(epoch.elapsed()))
        } else {
            0
        };
        if wait_ns == 0 {
            continue;
        }
        match client.recv_timeout(Duration::from_nanos(wait_ns.min(5_000_000))) {
            Ok(Some(frame)) => {
                handle_frame(frame, &mut streams, &scenario_hists, epoch, &mut result)
            }
            Ok(None) => {}
            Err(_) => {
                broken = true;
                break;
            }
        }
    }

    if broken {
        result.errors.transport += 1;
    } else {
        let _ = client.flush();
        // Drain: the daemon owes one CLOSED per segment, delivered after
        // that stream's final emissions.
        while result.closes_seen < script.segments {
            if nanos_of(epoch.elapsed()) > drain_deadline_ns {
                result.errors.drain_incomplete += 1;
                break;
            }
            match client.recv_timeout(Duration::from_millis(50)) {
                Ok(Some(frame)) => {
                    handle_frame(frame, &mut streams, &scenario_hists, epoch, &mut result)
                }
                Ok(None) => {}
                Err(_) => {
                    result.errors.transport += 1;
                    break;
                }
            }
        }
    }

    result.scenario_hists = scenario_hists.iter().map(Histogram::snapshot).collect();
    result.send_lag = send_lag.snapshot();
    result
}

fn handle_frame(
    frame: ServerFrame,
    streams: &mut HashMap<u32, StreamState>,
    scenario_hists: &[Histogram],
    epoch: Instant,
    result: &mut WorkerResult,
) {
    match frame {
        ServerFrame::Opened { .. } => result.opens_acked += 1,
        ServerFrame::EmitN {
            dim,
            entries,
            outputs,
        } => {
            let now_ns = nanos_of(epoch.elapsed());
            for (stream_id, run) in entry_runs(dim, &entries, &outputs) {
                let count = (run.len() / dim as usize) as u64;
                result.emissions_received += count;
                let Some(state) = streams.get_mut(&stream_id) else {
                    result.errors.unexpected_emissions += count;
                    continue;
                };
                let mut remaining = count;
                while remaining > 0 {
                    let Some(front) = state.fifo.front_mut() else {
                        result.errors.unexpected_emissions += remaining;
                        break;
                    };
                    let take = front.1.min(remaining);
                    for _ in 0..take {
                        scenario_hists[state.scenario].record(now_ns.saturating_sub(front.0));
                    }
                    front.1 -= take;
                    remaining -= take;
                    if front.1 == 0 {
                        state.fifo.pop_front();
                    }
                }
                if let Some((_, _, recorded)) = state.verify.as_mut() {
                    recorded.extend_from_slice(run);
                }
            }
        }
        ServerFrame::Closed { stream_id, .. } => {
            result.closes_seen += 1;
            if let Some(state) = streams.remove(&stream_id) {
                let owed: u64 = state.fifo.iter().map(|&(_, n)| n).sum();
                result.errors.missing_emissions += owed;
                if let Some((session, segment, outputs)) = state.verify {
                    result
                        .verify_outputs
                        .insert((session, segment), (state.model, outputs));
                }
            }
        }
        ServerFrame::Error { .. } => result.errors.protocol += 1,
        _ => {}
    }
}
