//! Synthetic user-session populations with realistic arrival shape.
//!
//! The generator turns a seed plus a handful of scenario knobs into a
//! fully materialised, per-connection event script: who connects when,
//! which model each stream selects, how many timesteps each session
//! pushes in which bursts, who abandons mid-session and who reconnects.
//! Everything — arrival times, waveforms, model mix, abandonment — comes
//! from keyed [`SplitMix64`] streams, so one
//! `(seed, config)` pair is one exact, replayable world.
//!
//! ## Scenario shapes
//!
//! Two built-in scenarios mirror the paper's dataset families:
//!
//! * **vitals** — PPG-Dalia-like wearable vitals: slow sessions (12 ms
//!   per timestep), smooth two-tone waveforms with a drifting baseline,
//!   a daytime diurnal arrival peak.
//! * **polyphonic** — Nottingham-like note streams: faster cadence
//!   (8 ms per timestep), piecewise-constant level patterns held for a
//!   few steps at a time, an evening arrival peak.
//!
//! ## Open-loop timeline
//!
//! Sessions are assigned round-robin to *lanes* (`connections ×
//! lanes_per_conn` of them); a lane plays its sessions back-to-back, so
//! the lane count bounds peak concurrency while the diurnal curve shapes
//! how much of that bound is in use at once. Every event carries an
//! absolute intended send time; the driver schedules against those
//! times and measures latency from them, so a stalled server inflates
//! the recorded tail instead of silently slowing the load down
//! (coordinated omission).

use crate::rng::SplitMix64;

/// A model the workload can route streams to (one `pit-zoo/1` entry).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Registry name sent in the OPEN frame.
    pub name: String,
    /// Input channels per timestep.
    pub channels: usize,
}

/// One workload scenario: an arrival shape plus a signal family.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (report key).
    pub name: &'static str,
    /// Share of sessions drawn from this scenario (weights are
    /// normalised over all scenarios).
    pub weight: f64,
    /// Microseconds of virtual time per pushed timestep.
    pub step_interval_us: u64,
    /// Diurnal modulation depth in `[0, 1)`: arrival rate swings between
    /// `1 - amp` and `1 + amp` times the mean over the run.
    pub diurnal_amp: f64,
    /// Phase of the arrival peak as a fraction of the run in `[0, 1)`.
    pub diurnal_peak: f64,
    /// Mean timesteps per session (before abandonment).
    pub mean_steps: f64,
    /// Timesteps batched into one push (a one-entry PUSH_N frame).
    pub burst_steps: usize,
}

/// The built-in scenario mix.
pub fn default_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "vitals",
            weight: 0.6,
            step_interval_us: 12_000,
            diurnal_amp: 0.6,
            diurnal_peak: 0.35,
            mean_steps: 32.0,
            burst_steps: 8,
        },
        Scenario {
            name: "polyphonic",
            weight: 0.4,
            step_interval_us: 8_000,
            diurnal_amp: 0.8,
            diurnal_peak: 0.8,
            mean_steps: 32.0,
            burst_steps: 8,
        },
    ]
}

/// Everything that determines the generated population.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed: same seed, same world.
    pub seed: u64,
    /// User sessions to synthesise.
    pub sessions: usize,
    /// Worker connections the driver will open.
    pub connections: usize,
    /// Concurrent session lanes multiplexed onto each connection.
    pub lanes_per_conn: usize,
    /// Virtual run length (µs) the diurnal curve spans. This is also the
    /// wall-clock send window: the driver plays events in real time.
    pub duration_us: u64,
    /// Multiplier on every scenario's step interval (< 1 compresses
    /// time for fast test presets).
    pub time_scale: f64,
    /// Probability a session is sampled for bit-exact oracle
    /// verification against a solo replay.
    pub verify_fraction: f64,
    /// Probability a session abandons mid-run (truncated steps).
    pub abandon_p: f64,
    /// Probability a session drops and reconnects once, resuming as a
    /// fresh stream (server state resets — the oracle knows this).
    pub reconnect_p: f64,
}

impl WorkloadConfig {
    /// The CI-scale preset: ≥10k sessions over ≥256 concurrent lanes in
    /// a ten-second window.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            sessions: 10_240,
            connections: 64,
            lanes_per_conn: 8,
            duration_us: 10_000_000,
            time_scale: 1.0,
            verify_fraction: 0.003,
            abandon_p: 0.07,
            reconnect_p: 0.12,
        }
    }

    /// The paper-scale preset: 100k sessions over 1024 lanes in a
    /// one-minute window.
    pub fn full(seed: u64) -> Self {
        Self {
            sessions: 102_400,
            connections: 128,
            duration_us: 60_000_000,
            ..Self::quick(seed)
        }
    }

    /// A seconds-long preset for integration tests: few hundred
    /// sessions, compressed timesteps.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            sessions: 192,
            connections: 8,
            lanes_per_conn: 4,
            duration_us: 1_500_000,
            time_scale: 0.25,
            verify_fraction: 0.08,
            abandon_p: 0.07,
            reconnect_p: 0.12,
        }
    }
}

/// One scheduled wire action on a connection.
#[derive(Debug, Clone)]
pub struct Event {
    /// Intended send time, µs after the run epoch.
    pub at_us: u64,
    /// What to send.
    pub kind: EventKind,
}

/// The action behind an [`Event`].
#[derive(Debug, Clone)]
pub enum EventKind {
    /// OPEN a stream (one session segment) selecting `model`.
    Open {
        /// Connection-scoped stream id.
        stream: u32,
        /// Index into the model list.
        model: usize,
        /// Index into the scenario list.
        scenario: usize,
        /// Workload-global session index.
        session: u32,
        /// Segment ordinal within the session (0, then 1 after a
        /// reconnect).
        segment: u32,
        /// Whether the driver must record this segment's outputs for
        /// oracle verification.
        verify: bool,
    },
    /// PUSH one burst of timesteps (`samples.len() / channels` steps).
    Push {
        /// Connection-scoped stream id.
        stream: u32,
        /// Interleaved `steps × channels` input values.
        samples: Vec<f32>,
    },
    /// CLOSE the stream (ends the segment).
    Close {
        /// Connection-scoped stream id.
        stream: u32,
    },
}

/// The event script for one driver connection.
#[derive(Debug, Clone, Default)]
pub struct ConnScript {
    /// Events sorted by `at_us` (ties keep generation order).
    pub events: Vec<Event>,
    /// Stream segments this connection opens (== CLOSE count).
    pub segments: u64,
}

/// A fully materialised population: per-connection scripts plus the
/// totals the reconciliation gate checks against server counters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// One script per driver connection.
    pub conns: Vec<ConnScript>,
    /// The scenario list events index into.
    pub scenarios: Vec<Scenario>,
    /// The model list events index into.
    pub models: Vec<ModelSpec>,
    /// Sessions synthesised.
    pub total_sessions: u64,
    /// Stream segments (OPEN frames) across all connections.
    pub total_segments: u64,
    /// Timesteps (PUSH payload rows) across all connections.
    pub total_steps: u64,
    /// Sessions sampled for oracle verification.
    pub verify_sessions: u64,
    /// Last intended send time in the schedule, µs after epoch.
    pub end_us: u64,
}

/// Per-channel waveform state for one session. The generator persists
/// across a session's segments (a reconnecting user keeps emitting the
/// same physical signal), while the server-side model state restarts
/// per segment — exactly what the oracle replays.
#[derive(Debug, Clone)]
struct WaveformGen {
    scenario: usize,
    rng: SplitMix64,
    t: u64,
    /// vitals: per-channel drifting baseline; polyphonic: held level.
    state: Vec<f32>,
    /// polyphonic: steps left before the held level changes.
    hold: u32,
    /// vitals: per-channel phase offsets.
    phase: Vec<f32>,
}

impl WaveformGen {
    fn new(scenario: usize, channels: usize, rng: SplitMix64) -> Self {
        let mut g = Self {
            scenario,
            rng,
            t: 0,
            state: vec![0.0; channels],
            hold: 0,
            phase: Vec::with_capacity(channels),
        };
        for c in 0..channels {
            g.phase
                .push(g.rng.range_f64(0.0, std::f64::consts::TAU) as f32);
            g.state[c] = g.rng.range_f64(-0.5, 0.5) as f32;
        }
        g
    }

    /// Appends one timestep (`channels` values) to `out`.
    fn step(&mut self, out: &mut Vec<f32>) {
        let channels = self.state.len();
        if self.scenario == 0 {
            // Vitals: two incommensurate tones over a random-walk
            // baseline, like a pulse plus respiration over sensor drift.
            for c in 0..channels {
                let t = self.t as f32;
                let p = self.phase[c];
                self.state[c] += self.rng.range_f64(-0.02, 0.02) as f32;
                self.state[c] = self.state[c].clamp(-0.6, 0.6);
                let v = 0.5 * (0.11 * t + p).sin() + 0.2 * (0.031 * t + 1.7 * p).sin();
                out.push((self.state[c] + v).clamp(-1.0, 1.0));
            }
        } else {
            // Polyphonic: piecewise-constant levels held ~8 steps, a new
            // chord each change.
            if self.hold == 0 {
                self.hold = 4 + self.rng.below(9) as u32;
                for s in self.state.iter_mut() {
                    *s = (self.rng.below(8) as f32) / 4.0 - 0.875;
                }
            }
            self.hold -= 1;
            out.extend_from_slice(&self.state);
        }
        self.t += 1;
    }
}

// Key-space tags so each per-session random stream is independent.
const KEY_SHAPE: u64 = 0x01;
const KEY_WAVE: u64 = 0x02;
const KEY_ARRIVAL: u64 = 0x03;

/// Inverse-CDF sampler for a scenario's diurnal arrival curve: rate is
/// `1 + amp·cos(2π(x - peak))` over the unit run; 256 piecewise-linear
/// segments of the cumulative integral map a uniform draw to an arrival
/// fraction.
struct ArrivalCurve {
    cum: Vec<f64>,
}

impl ArrivalCurve {
    const BINS: usize = 256;

    fn new(scenario: &Scenario) -> Self {
        let mut cum = Vec::with_capacity(Self::BINS + 1);
        cum.push(0.0);
        let mut acc = 0.0;
        for i in 0..Self::BINS {
            let x = (i as f64 + 0.5) / Self::BINS as f64;
            let rate = 1.0
                + scenario.diurnal_amp
                    * (std::f64::consts::TAU * (x - scenario.diurnal_peak)).cos();
            acc += rate.max(0.0);
            cum.push(acc);
        }
        for v in cum.iter_mut() {
            *v /= acc;
        }
        Self { cum }
    }

    /// Maps a uniform draw in `[0, 1)` to an arrival fraction of the run.
    fn sample(&self, u: f64) -> f64 {
        // Binary search for the segment containing u, then interpolate.
        let mut lo = 0usize;
        let mut hi = Self::BINS;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.cum[mid] <= u {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let span = self.cum[lo + 1] - self.cum[lo];
        let frac = if span > 0.0 {
            (u - self.cum[lo]) / span
        } else {
            0.0
        };
        (lo as f64 + frac) / Self::BINS as f64
    }
}

/// Synthesises the full population for `config` over `models`.
///
/// # Panics
///
/// Panics when `models` or the built-in scenario list is empty, or when
/// `connections`/`lanes_per_conn` is zero — these are driver
/// configuration bugs, not data-dependent conditions.
pub fn generate(config: &WorkloadConfig, models: &[ModelSpec]) -> Workload {
    let scenarios = default_scenarios();
    assert!(!models.is_empty(), "workload needs at least one model");
    assert!(config.connections > 0 && config.lanes_per_conn > 0);

    let curves: Vec<ArrivalCurve> = scenarios.iter().map(ArrivalCurve::new).collect();
    let weight_sum: f64 = scenarios.iter().map(|s| s.weight).sum();

    let lanes = config.connections * config.lanes_per_conn;
    // Per-lane cursor: sessions on a lane play back-to-back, so a
    // session's start is its diurnal arrival or the lane becoming free,
    // whichever is later.
    let mut lane_free_us = vec![0u64; lanes];
    let mut conns: Vec<ConnScript> = vec![ConnScript::default(); config.connections];
    let mut next_stream: Vec<u32> = vec![0; config.connections];

    let mut total_segments = 0u64;
    let mut total_steps = 0u64;
    let mut verify_sessions = 0u64;
    let mut end_us = 0u64;

    for s in 0..config.sessions {
        let sid = s as u64;
        let mut shape = SplitMix64::keyed(config.seed ^ (KEY_SHAPE << 56), sid);

        // Scenario: weighted pick.
        let mut pick = shape.unit() * weight_sum;
        let mut scenario_idx = scenarios.len() - 1;
        for (i, sc) in scenarios.iter().enumerate() {
            if pick < sc.weight {
                scenario_idx = i;
                break;
            }
            pick -= sc.weight;
        }
        let scenario = &scenarios[scenario_idx];
        let model_idx = shape.below(models.len() as u64) as usize;
        let channels = models[model_idx].channels;

        // Ragged session length: log-normal-ish around the scenario mean,
        // clamped to at least one burst.
        let z = shape.approx_normal();
        let mut steps = (scenario.mean_steps * (0.35 * z).exp()).round() as usize;
        steps = steps.clamp(scenario.burst_steps, 4 * scenario.mean_steps as usize);
        // Abandonment truncates to a uniform prefix (still ≥ one burst).
        if shape.chance(config.abandon_p) {
            let keep = shape.range_f64(0.25, 0.75);
            steps = ((steps as f64 * keep) as usize).max(scenario.burst_steps);
        }
        // Round up to whole bursts so every PUSH carries a full burst.
        let bursts = steps.div_ceil(scenario.burst_steps);

        // A reconnecting session splits at a burst boundary into two
        // segments separated by a pause; each segment is a fresh stream.
        let split_after = if bursts >= 2 && shape.chance(config.reconnect_p) {
            Some(1 + shape.below(bursts as u64 - 1) as usize)
        } else {
            None
        };

        let verify =
            SplitMix64::keyed(config.seed ^ (KEY_WAVE << 56), sid).chance(config.verify_fraction);
        if verify {
            verify_sessions += 1;
        }

        // Arrival on the diurnal curve, then lane serialisation.
        let arrival_u = SplitMix64::keyed(config.seed ^ (KEY_ARRIVAL << 56), sid).unit();
        let arrival_us =
            (curves[scenario_idx].sample(arrival_u) * config.duration_us as f64) as u64;
        let lane = s % lanes;
        let conn = lane % config.connections;
        let start_us = arrival_us.max(lane_free_us[lane]);

        let step_us = ((scenario.step_interval_us as f64) * config.time_scale).max(1.0) as u64;
        let burst_us = step_us * scenario.burst_steps as u64;

        let mut wave = WaveformGen::new(
            scenario_idx,
            channels,
            SplitMix64::keyed(config.seed ^ (KEY_WAVE << 56), sid.wrapping_mul(3) + 1),
        );

        let script = &mut conns[conn];
        let mut t = start_us;
        let mut burst_in_segment = 0usize;
        let mut segment = 0u32;
        let mut stream = next_stream[conn];
        next_stream[conn] += 1;
        script.events.push(Event {
            at_us: t,
            kind: EventKind::Open {
                stream,
                model: model_idx,
                scenario: scenario_idx,
                session: s as u32,
                segment,
                verify,
            },
        });
        script.segments += 1;
        total_segments += 1;

        for b in 0..bursts {
            if split_after == Some(b) && burst_in_segment > 0 {
                // Drop and come back: close this stream, pause one to
                // three burst intervals, reopen as a new stream.
                script.events.push(Event {
                    at_us: t,
                    kind: EventKind::Close { stream },
                });
                t += burst_us * (1 + shape.below(3));
                segment += 1;
                stream = next_stream[conn];
                next_stream[conn] += 1;
                script.events.push(Event {
                    at_us: t,
                    kind: EventKind::Open {
                        stream,
                        model: model_idx,
                        scenario: scenario_idx,
                        session: s as u32,
                        segment,
                        verify,
                    },
                });
                script.segments += 1;
                total_segments += 1;
                burst_in_segment = 0;
            }
            let mut samples = Vec::with_capacity(scenario.burst_steps * channels);
            for _ in 0..scenario.burst_steps {
                wave.step(&mut samples);
            }
            script.events.push(Event {
                at_us: t,
                kind: EventKind::Push { stream, samples },
            });
            total_steps += scenario.burst_steps as u64;
            t += burst_us;
            burst_in_segment += 1;
        }
        script.events.push(Event {
            at_us: t,
            kind: EventKind::Close { stream },
        });
        lane_free_us[lane] = t;
        end_us = end_us.max(t);
    }

    for script in conns.iter_mut() {
        script.events.sort_by_key(|e| e.at_us);
    }

    Workload {
        conns,
        scenarios,
        models: models.to_vec(),
        total_sessions: config.sessions as u64,
        total_segments,
        total_steps,
        verify_sessions,
        end_us,
    }
}

/// Reconstructs the full per-segment input sequences for one session —
/// the oracle's view. Returns, per segment in order, the interleaved
/// `steps × channels` samples that were pushed on that segment's stream.
pub fn session_inputs(workload: &Workload, session: u32) -> Vec<Vec<f32>> {
    // Stream ids are connection-scoped, so first find the session's
    // segments (conn, stream) in segment order, then concatenate each
    // stream's pushes in event order.
    let mut segments: Vec<(usize, u32, u32)> = Vec::new();
    for (c, script) in workload.conns.iter().enumerate() {
        for ev in &script.events {
            if let EventKind::Open {
                stream,
                session: s,
                segment,
                ..
            } = ev.kind
            {
                if s == session {
                    segments.push((c, stream, segment));
                }
            }
        }
    }
    segments.sort_by_key(|&(_, _, seg)| seg);
    segments
        .into_iter()
        .map(|(c, stream, _)| {
            let mut inputs = Vec::new();
            for ev in &workload.conns[c].events {
                if let EventKind::Push {
                    stream: s,
                    ref samples,
                } = ev.kind
                {
                    if s == stream {
                        inputs.extend_from_slice(samples);
                    }
                }
            }
            inputs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_models() -> Vec<ModelSpec> {
        vec![
            ModelSpec {
                name: "alpha".into(),
                channels: 2,
            },
            ModelSpec {
                name: "beta".into(),
                channels: 2,
            },
        ]
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = WorkloadConfig::smoke(11);
        let a = generate(&cfg, &two_models());
        let b = generate(&cfg, &two_models());
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.total_segments, b.total_segments);
        for (ca, cb) in a.conns.iter().zip(&b.conns) {
            assert_eq!(ca.events.len(), cb.events.len());
            for (ea, eb) in ca.events.iter().zip(&cb.events) {
                assert_eq!(ea.at_us, eb.at_us);
                match (&ea.kind, &eb.kind) {
                    (EventKind::Push { samples: sa, .. }, EventKind::Push { samples: sb, .. }) => {
                        assert_eq!(sa, sb)
                    }
                    (EventKind::Open { stream: sa, .. }, EventKind::Open { stream: sb, .. }) => {
                        assert_eq!(sa, sb)
                    }
                    (EventKind::Close { stream: sa }, EventKind::Close { stream: sb }) => {
                        assert_eq!(sa, sb)
                    }
                    other => panic!("event kinds diverge: {other:?}"),
                }
            }
        }
        let c = generate(&WorkloadConfig::smoke(12), &two_models());
        assert_ne!(a.total_steps, c.total_steps);
    }

    #[test]
    fn totals_reconcile_with_the_event_scripts() {
        let wl = generate(&WorkloadConfig::smoke(7), &two_models());
        let mut opens = 0u64;
        let mut closes = 0u64;
        let mut steps = 0u64;
        for (conn, script) in wl.conns.iter().enumerate() {
            let mut open_now: std::collections::HashSet<u32> = Default::default();
            for ev in &script.events {
                match &ev.kind {
                    EventKind::Open { stream, model, .. } => {
                        assert!(open_now.insert(*stream), "stream reused while open");
                        assert!(*model < wl.models.len());
                        opens += 1;
                    }
                    EventKind::Push { stream, samples } => {
                        assert!(open_now.contains(stream), "push on closed stream");
                        let ch = wl.models[0].channels;
                        assert_eq!(samples.len() % ch, 0);
                        assert!(samples.iter().all(|v| v.is_finite() && v.abs() <= 1.0));
                        steps += (samples.len() / ch) as u64;
                    }
                    EventKind::Close { stream } => {
                        assert!(open_now.remove(stream), "close without open");
                        closes += 1;
                    }
                }
            }
            assert!(open_now.is_empty(), "conn {conn} leaves streams open");
            assert_eq!(script.segments, {
                script
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Open { .. }))
                    .count() as u64
            });
        }
        assert_eq!(opens, wl.total_segments);
        assert_eq!(closes, wl.total_segments);
        assert_eq!(steps, wl.total_steps);
        assert!(wl.total_segments >= wl.total_sessions);
        assert!(
            wl.verify_sessions > 0,
            "smoke preset samples verify sessions"
        );
    }

    #[test]
    fn schedules_are_per_conn_monotonic_and_bounded() {
        let cfg = WorkloadConfig::smoke(3);
        let wl = generate(&cfg, &two_models());
        for script in &wl.conns {
            let mut last = 0u64;
            for ev in &script.events {
                assert!(ev.at_us >= last);
                last = ev.at_us;
            }
        }
        // Lanes serialise sessions, so the schedule can run past the
        // arrival window, but not unboundedly.
        assert!(wl.end_us >= cfg.duration_us / 2);
        assert!(wl.end_us < cfg.duration_us * 4, "end={}us", wl.end_us);
    }

    #[test]
    fn session_inputs_concatenate_segment_pushes() {
        let cfg = WorkloadConfig::smoke(21);
        let wl = generate(&cfg, &two_models());
        // Find a session that reconnected (two segments).
        let mut seen: std::collections::HashMap<u32, u32> = Default::default();
        for script in &wl.conns {
            for ev in &script.events {
                if let EventKind::Open {
                    session, segment, ..
                } = ev.kind
                {
                    let e = seen.entry(session).or_insert(0);
                    *e = (*e).max(segment + 1);
                }
            }
        }
        let (&split_session, _) = seen
            .iter()
            .find(|&(_, &segs)| segs == 2)
            .expect("smoke preset produces at least one reconnect");
        let inputs = session_inputs(&wl, split_session);
        assert_eq!(inputs.len(), 2);
        assert!(inputs.iter().all(|seg| !seg.is_empty()));
        let (&plain_session, _) = seen.iter().find(|&(_, &segs)| segs == 1).unwrap();
        assert_eq!(session_inputs(&wl, plain_session).len(), 1);
    }

    #[test]
    fn quick_preset_meets_the_acceptance_floor() {
        let cfg = WorkloadConfig::quick(1);
        assert!(cfg.sessions >= 10_000);
        assert!(cfg.connections * cfg.lanes_per_conn >= 256);
    }
}
