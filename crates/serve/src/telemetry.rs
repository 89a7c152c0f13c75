//! The daemon's telemetry hub: the model registry, lock-free latency
//! histograms, the always-on per-stream event trace ring, and the
//! Prometheus text renderer behind `GET /metrics`.
//!
//! Everything on the serving hot path is lock-free: recording a wave
//! latency or a trace event is a handful of relaxed atomic stores — no
//! locks, no allocation — so telemetry can stay on unconditionally. The
//! [`Telemetry`] struct is the one shared hub: the edge thread, every
//! shard thread and the HTTP sidecar all hold the same `Arc<Telemetry>`,
//! and a scrape aggregates the same counter blocks the binary-protocol
//! STATS frame reads, so the two views can never disagree about totals.
//!
//! ## The registry
//!
//! The hub owns the daemon's one model registry ([`Registry`]): one
//! `(name, engine, stats)` entry per served model, index-aligned with every
//! shard's pool vector, plus the default index. It sits behind a mutex that
//! is held only to read or update entries. The edge reads it on OPEN,
//! LOAD_MODEL, LIST_MODELS and STATS and is its only writer; the sidecar
//! reads it per scrape. Nothing on the per-timestep path takes the lock:
//! each open stream caches its model's input channels and counter block at
//! OPEN, and each shard holds its models' pools and counter blocks.
//!
//! ## Histogram layout
//!
//! Latency is recorded into the shared `pit_tensor::hist` log-scale
//! [`Histogram`] (252 HDR-style buckets, four sub-buckets per power of
//! two, exact integer boundaries, percentiles with at most ~25% relative
//! overestimate). The type lives in `pit-tensor` so the bench harness and
//! the `pit-replay` load driver share the daemon's exact bucket layout;
//! it is re-exported at the crate root as `pit_serve::hist`. Histograms
//! never roll over: p50/p99/p99.9 describe the whole run, not the recent
//! past. Wave latency is kept per registry model and exported as
//! `pit_serve_wave_flush_ns{model,kind}`.
//!
//! ## Trace ring
//!
//! [`TraceRing`] is one global fixed-size ring of per-stream lifecycle
//! events (`open`/`push`/`emit`/`close`/`evict`/`error`). Writers claim a
//! slot with one `fetch_add` and publish it with a per-slot sequence
//! (seqlock-style: odd while writing, `2·index + 2` when stable), so
//! readers detect and skip slots torn by a concurrent wrap. The ring is
//! served as JSON over `GET /trace` and the TRACE debug frame.

use crate::server::ServeEngine;
use crate::stats::{EdgeCounters, ModelStats, ShardStats, StatsSnapshot};
use pit_tensor::hist::{Histogram, HistogramSnapshot};
use pit_tensor::json::Json;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

/// Slots in the global trace ring (power of two; ~4k events of history).
pub(crate) const TRACE_RING_SLOTS: usize = 4096;

/// Sentinel packed into a trace slot when the event has no stream.
const NO_STREAM: u32 = u32::MAX;
/// Sentinel for events recorded at the edge, outside any shard.
const NO_SHARD: u64 = 0xFF;
/// Sentinel for events not tied to a registry model.
const NO_MODEL: u64 = 0xFFFF;

/// What happened to a stream (or connection) at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TraceKind {
    /// Stream opened (shard allocated the pool slot).
    Open = 0,
    /// Timesteps accepted into the pool (count = timesteps).
    Push = 1,
    /// Head outputs routed back (count = emissions).
    Emit = 2,
    /// Stream closed (count = close reason code).
    Close = 3,
    /// Stream evicted for idleness.
    Evict = 4,
    /// An ERROR frame was sent (count = error code).
    Error = 5,
}

impl TraceKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::Open => "open",
            TraceKind::Push => "push",
            TraceKind::Emit => "emit",
            TraceKind::Close => "close",
            TraceKind::Evict => "evict",
            TraceKind::Error => "error",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => TraceKind::Open,
            1 => TraceKind::Push,
            2 => TraceKind::Emit,
            3 => TraceKind::Close,
            4 => TraceKind::Evict,
            5 => TraceKind::Error,
            _ => return None,
        })
    }
}

/// One published ring slot. `seq` is the per-slot seqlock: `0` = never
/// written, odd = a writer is mid-store, `2·event_index + 2` = the other
/// fields belong to event `event_index` and are safe to read.
struct TraceSlot {
    seq: AtomicU64,
    /// `kind << 56 | shard << 48 | model << 32 | stream`.
    meta: AtomicU64,
    conn: AtomicU64,
    t_us: AtomicU64,
    count: AtomicU64,
}

/// The always-on global event ring. Fixed size, all atomics, no allocation
/// on the write path; concurrent writers each own a distinct slot (claimed
/// by `fetch_add` on `next`) so they never contend beyond the one counter.
/// A reader that laps a writer sees a torn slot's stale sequence and skips
/// it — the trace is best-effort by design.
pub(crate) struct TraceRing {
    next: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self {
            next: AtomicU64::new(0),
            slots: (0..TRACE_RING_SLOTS)
                .map(|_| TraceSlot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    conn: AtomicU64::new(0),
                    t_us: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

/// One decoded ring event, before model-index → name resolution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawTraceEvent {
    pub(crate) seq: u64,
    pub(crate) t_us: u64,
    pub(crate) kind: TraceKind,
    pub(crate) conn: u64,
    pub(crate) stream: Option<u32>,
    pub(crate) shard: Option<u32>,
    pub(crate) model: Option<usize>,
    pub(crate) count: u64,
}

impl TraceRing {
    /// Records one event. `shard`/`model`/`stream` are optional because
    /// edge-side errors are not tied to a shard, model or stream.
    pub(crate) fn record(
        &self,
        kind: TraceKind,
        conn: u64,
        stream: Option<u32>,
        shard: Option<usize>,
        model: Option<usize>,
        count: u64,
        t_us: u64,
    ) {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n as usize) & (TRACE_RING_SLOTS - 1)];
        slot.seq.store(2 * n + 1, Ordering::Release);
        let shard = shard.map_or(NO_SHARD, |s| (s as u64).min(NO_SHARD - 1));
        let model = model.map_or(NO_MODEL, |m| (m as u64).min(NO_MODEL - 1));
        let stream = stream.unwrap_or(NO_STREAM);
        let meta = ((kind as u64) << 56) | (shard << 48) | (model << 32) | u64::from(stream);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.conn.store(conn, Ordering::Relaxed);
        slot.t_us.store(t_us, Ordering::Relaxed);
        slot.count.store(count, Ordering::Relaxed);
        slot.seq.store(2 * n + 2, Ordering::Release);
    }

    /// Events recorded so far (monotone; also the next event's index).
    pub(crate) fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Collects the ring's stable events in order, optionally filtered by
    /// connection and/or stream id. Slots being overwritten concurrently
    /// are skipped (their sequence no longer matches their index).
    pub(crate) fn collect(&self, conn: Option<u64>, stream: Option<u32>) -> Vec<RawTraceEvent> {
        let end = self.next.load(Ordering::Acquire);
        let start = end.saturating_sub(TRACE_RING_SLOTS as u64);
        let mut out = Vec::new();
        for n in start..end {
            let slot = &self.slots[(n as usize) & (TRACE_RING_SLOTS - 1)];
            if slot.seq.load(Ordering::Acquire) != 2 * n + 2 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let c = slot.conn.load(Ordering::Relaxed);
            let t_us = slot.t_us.load(Ordering::Relaxed);
            let count = slot.count.load(Ordering::Relaxed);
            // Re-check: if a writer wrapped past us mid-read, the loads
            // above may be torn — the sequence will have moved on.
            if slot.seq.load(Ordering::Acquire) != 2 * n + 2 {
                continue;
            }
            let Some(kind) = TraceKind::from_u8((meta >> 56) as u8) else {
                continue;
            };
            let ev_stream = (meta & 0xFFFF_FFFF) as u32;
            let ev_stream = (ev_stream != NO_STREAM).then_some(ev_stream);
            let ev_shard = (meta >> 48) & 0xFF;
            let ev_model = (meta >> 32) & 0xFFFF;
            if let Some(want) = conn {
                if c != want {
                    continue;
                }
            }
            if let Some(want) = stream {
                if ev_stream != Some(want) {
                    continue;
                }
            }
            out.push(RawTraceEvent {
                seq: n,
                t_us,
                kind,
                conn: c,
                stream: ev_stream,
                shard: (ev_shard != NO_SHARD).then_some(ev_shard as u32),
                model: (ev_model != NO_MODEL).then_some(ev_model as usize),
                count,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Public trace event (client-side view)
// ---------------------------------------------------------------------------

/// One per-stream lifecycle event from the daemon's trace ring, as parsed
/// from a `pit-serve-trace/1` JSON document (the TRACE frame's payload and
/// the `GET /trace` body).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Monotone event index since boot (gaps mean overwritten slots).
    pub seq: u64,
    /// Microseconds since daemon boot.
    pub t_us: u64,
    /// `"open"`, `"push"`, `"emit"`, `"close"`, `"evict"` or `"error"`.
    pub event: String,
    /// Connection the event belongs to.
    pub conn: u64,
    /// Client stream id, when the event is tied to a stream.
    pub stream: Option<u32>,
    /// Shard that recorded the event (`None` for edge-side events).
    pub shard: Option<u32>,
    /// Registry model name (empty when the event has no model).
    pub model: String,
    /// Event payload: timesteps for `push`, emissions for `emit`, the
    /// close-reason code for `close`/`evict`, the error code for `error`.
    pub count: u64,
}

impl TraceEvent {
    /// Parses the event list out of a `pit-serve-trace/1` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn parse_list(text: &str) -> Result<Vec<TraceEvent>, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some("pit-serve-trace/1") => {}
            other => return Err(format!("unexpected trace schema {other:?}")),
        }
        let events = doc
            .get("events")
            .and_then(Json::as_array)
            .ok_or("trace document has no events array")?;
        events
            .iter()
            .map(|ev| {
                let int = |name: &str| -> Result<u64, String> {
                    ev.get(name)
                        .and_then(Json::as_f64)
                        .map(|v| v as u64)
                        .ok_or_else(|| format!("trace event: missing number field '{name}'"))
                };
                Ok(TraceEvent {
                    seq: int("seq")?,
                    t_us: int("t_us")?,
                    event: ev
                        .get("event")
                        .and_then(Json::as_str)
                        .ok_or("trace event: missing 'event'")?
                        .to_string(),
                    conn: int("conn")?,
                    stream: ev.get("stream").and_then(Json::as_f64).map(|v| v as u32),
                    shard: ev.get("shard").and_then(Json::as_f64).map(|v| v as u32),
                    model: ev
                        .get("model")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    count: int("count")?,
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// Daemon lifecycle state, reflected by `GET /healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServeState {
    /// Bound but the edge loop has not started serving yet.
    Booting = 0,
    /// Accepting connections and serving streams.
    Serving = 1,
    /// Graceful drain in progress: no new streams, queued work flushing.
    Draining = 2,
}

impl ServeState {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ServeState::Booting => "booting",
            ServeState::Serving => "serving",
            ServeState::Draining => "draining",
        }
    }
}

/// One registry entry: the name an OPEN selects it by, the engine its
/// pools run, and its counter block.
pub(crate) struct ModelEntry {
    /// Registry name: the zoo-manifest name at boot, or the artifact's plan
    /// name for single-artifact boots and LOAD_MODEL additions.
    pub(crate) name: String,
    pub(crate) engine: ServeEngine,
    /// Shared by every shard; survives a LOAD_MODEL replace, so a model's
    /// books key the entry, not the engine instance.
    pub(crate) stats: Arc<ModelStats>,
}

/// The daemon's model registry: entries in registry order (index-aligned
/// with every shard's pool vector) and the entry a model-less OPEN gets.
pub(crate) struct Registry {
    pub(crate) models: Vec<ModelEntry>,
    pub(crate) default: usize,
}

impl Registry {
    /// Index of the entry named `name`.
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name == name)
    }

    /// Streams open across every model: the server-wide stream budget.
    pub(crate) fn streams_open(&self) -> u64 {
        self.models
            .iter()
            .map(|m| m.stats.streams_open.load(Ordering::Relaxed))
            .sum()
    }
}

/// The shared telemetry hub: one `Arc<Telemetry>` is held by the edge
/// thread, every shard and the HTTP sidecar. Everything the sidecar serves
/// (`/metrics`, `/stats`, `/healthz`, `/trace`) reads through here, from
/// the *same* atomics the binary-protocol STATS frame aggregates.
pub(crate) struct Telemetry {
    boot: Instant,
    state: AtomicU8,
    /// Connection lifecycle, rejection and reply counters.
    pub(crate) edge: EdgeCounters,
    /// The global per-stream event ring.
    pub(crate) trace: TraceRing,
    /// Edge loop: time spent blocked in `poll(2)` per iteration.
    pub(crate) edge_poll_ns: Histogram,
    /// Edge loop: time spent accepting/reading/dispatching per iteration.
    pub(crate) edge_dispatch_ns: Histogram,
    /// One counter block per wave-batcher shard, in shard order.
    pub(crate) shards: Vec<Arc<ShardStats>>,
    registry: Mutex<Registry>,
}

impl Telemetry {
    /// A hub serving `registry` with `shards` wave-batcher shards.
    pub(crate) fn new(registry: Registry, shards: usize) -> Self {
        Self {
            boot: Instant::now(),
            state: AtomicU8::new(ServeState::Booting as u8),
            edge: EdgeCounters::default(),
            trace: TraceRing::default(),
            edge_poll_ns: Histogram::default(),
            edge_dispatch_ns: Histogram::default(),
            shards: (0..shards).map(|_| Arc::default()).collect(),
            registry: Mutex::new(registry),
        }
    }

    /// Microseconds since boot (trace-event timestamps).
    pub(crate) fn now_us(&self) -> u64 {
        self.boot.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    pub(crate) fn set_state(&self, state: ServeState) {
        self.state.store(state as u8, Ordering::Release);
    }

    pub(crate) fn state(&self) -> ServeState {
        match self.state.load(Ordering::Acquire) {
            0 => ServeState::Booting,
            1 => ServeState::Serving,
            _ => ServeState::Draining,
        }
    }

    /// Locks the registry. Hold the guard only to read or update entries —
    /// never across a shard route or an outbuf write.
    pub(crate) fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().expect("registry lock")
    }

    /// Aggregates the same snapshot the STATS frame returns.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        self.aggregate(&self.registry())
    }

    fn aggregate(&self, registry: &Registry) -> StatsSnapshot {
        let models = registry
            .models
            .iter()
            .map(|m| (m.name.as_str(), m.engine.kind(), &*m.stats));
        crate::stats::aggregate_snapshot(&self.edge, &self.shards, models, registry.default)
    }

    /// Renders the trace ring (optionally filtered) as a
    /// `pit-serve-trace/1` JSON document.
    pub(crate) fn trace_json(&self, conn: Option<u64>, stream: Option<u32>) -> String {
        let events = self.trace.collect(conn, stream);
        let names: Vec<String> = self
            .registry()
            .models
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let recorded = self.trace.recorded();
        let dropped = recorded.saturating_sub(TRACE_RING_SLOTS as u64);
        let n = |v: u64| Json::Num(v as f64);
        let events: Vec<Json> = events
            .iter()
            .map(|ev| {
                let mut fields = vec![
                    ("seq".into(), n(ev.seq)),
                    ("t_us".into(), n(ev.t_us)),
                    ("event".into(), Json::Str(ev.kind.as_str().into())),
                    ("conn".into(), n(ev.conn)),
                ];
                if let Some(stream) = ev.stream {
                    fields.push(("stream".into(), n(u64::from(stream))));
                }
                if let Some(shard) = ev.shard {
                    fields.push(("shard".into(), n(u64::from(shard))));
                }
                let model = ev.model.and_then(|m| names.get(m)).cloned();
                fields.push(("model".into(), Json::Str(model.unwrap_or_default())));
                fields.push(("count".into(), n(ev.count)));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("pit-serve-trace/1".into())),
            ("recorded".into(), n(recorded)),
            ("dropped".into(), n(dropped)),
            ("events".into(), Json::Arr(events)),
        ])
        .render()
    }

    /// Renders the Prometheus text exposition (`/metrics` body).
    pub(crate) fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        let (snap, wave_ns) = {
            let registry = self.registry();
            let snap = self.aggregate(&registry);
            let wave_ns: Vec<HistogramSnapshot> = registry
                .models
                .iter()
                .map(|m| m.stats.wave_ns.snapshot())
                .collect();
            (snap, wave_ns)
        };

        gauge(
            &mut out,
            "pit_serve_uptime_seconds",
            "Seconds since the daemon booted.",
            self.boot.elapsed().as_secs_f64(),
        );
        gauge(
            &mut out,
            "pit_serve_state",
            "Daemon lifecycle state: 0 booting, 1 serving, 2 draining.",
            f64::from(self.state() as u8),
        );
        gauge(
            &mut out,
            "pit_serve_shards",
            "Number of wave-batcher shards.",
            snap.shards as f64,
        );
        counter(
            &mut out,
            "pit_serve_connections_total",
            "Connections accepted since boot.",
            snap.connections_total,
        );
        gauge(
            &mut out,
            "pit_serve_connections_open",
            "Connections currently open.",
            snap.connections_open as f64,
        );
        counter(
            &mut out,
            "pit_serve_connections_closed_total",
            "Connections that ended with a clean disconnect.",
            snap.connections_closed,
        );
        counter(
            &mut out,
            "pit_serve_connections_errored_total",
            "Connections dropped on a transport or framing error.",
            snap.connections_errored,
        );
        counter(
            &mut out,
            "pit_serve_connections_expired_total",
            "Connections killed by the read-progress deadline (also counted in errored).",
            snap.connections_expired,
        );
        counter(
            &mut out,
            "pit_serve_connections_drained_total",
            "Connections still open when a graceful drain completed.",
            snap.connections_drained,
        );
        gauge(
            &mut out,
            "pit_serve_streams_open",
            "Streams currently open.",
            snap.streams_open as f64,
        );
        counter(
            &mut out,
            "pit_serve_streams_opened_total",
            "Streams opened since boot.",
            snap.streams_opened,
        );
        counter(
            &mut out,
            "pit_serve_streams_evicted_total",
            "Streams evicted for idleness.",
            snap.streams_evicted,
        );
        counter(
            &mut out,
            "pit_serve_timesteps_total",
            "Timesteps accepted into pool queues since boot.",
            snap.timesteps_in,
        );
        counter(
            &mut out,
            "pit_serve_emissions_total",
            "Head outputs sent back since boot.",
            snap.emissions_out,
        );
        counter(
            &mut out,
            "pit_serve_frames_rejected_total",
            "Frames refused with an ERROR reply.",
            snap.frames_rejected,
        );
        counter(
            &mut out,
            "pit_serve_replies_dropped_total",
            "Reply frames dropped because a connection's outbound queue was full.",
            snap.replies_dropped,
        );
        gauge(
            &mut out,
            "pit_serve_outbuf_high_water_bytes",
            "Highest number of bytes ever queued toward one connection.",
            snap.outbuf_hwm_bytes as f64,
        );
        counter(
            &mut out,
            "pit_serve_waves_total",
            "Pool waves (flushes that served at least one stream).",
            snap.waves,
        );
        gauge(
            &mut out,
            "pit_serve_wave_occupancy",
            "Mean number of streams served per wave.",
            snap.wave_occupancy,
        );
        // Daemon-wide wave-latency quantiles as a Prometheus summary: the
        // same model-merged histogram the STATS frame's wave_p*_ns fields
        // are computed from, so the two views agree by construction.
        help_type(
            &mut out,
            "pit_serve_wave_latency_ns",
            "Wave (pool flush) latency quantiles over all models and shards, nanoseconds.",
            "summary",
        );
        for (q, v) in [
            ("0.5", snap.wave_p50_ns),
            ("0.99", snap.wave_p99_ns),
            ("0.999", snap.wave_p999_ns),
        ] {
            sample(
                &mut out,
                "pit_serve_wave_latency_ns",
                &format!("quantile=\"{q}\""),
                v as f64,
            );
        }
        counter(
            &mut out,
            "pit_serve_stats_seq",
            "Total shard loop iterations (the STATS snapshot sequence).",
            snap.seq,
        );
        gauge(
            &mut out,
            "pit_serve_stats_settled",
            "1 when no routed events or queued timesteps await a shard.",
            if snap.settled { 1.0 } else { 0.0 },
        );
        counter(
            &mut out,
            "pit_serve_trace_events_total",
            "Per-stream trace events recorded since boot.",
            self.trace.recorded(),
        );

        // Per-model families, labelled by registry name and kind.
        help_type(
            &mut out,
            "pit_serve_model_streams_open",
            "Streams currently open per registry model.",
            "gauge",
        );
        for m in snap.models.iter() {
            sample(
                &mut out,
                "pit_serve_model_streams_open",
                &model_labels(m),
                m.streams_open as f64,
            );
        }
        help_type(
            &mut out,
            "pit_serve_model_streams_opened_total",
            "Streams opened per registry model since boot.",
            "counter",
        );
        for m in snap.models.iter() {
            sample(
                &mut out,
                "pit_serve_model_streams_opened_total",
                &model_labels(m),
                m.streams_opened as f64,
            );
        }
        help_type(
            &mut out,
            "pit_serve_model_timesteps_total",
            "Timesteps accepted per registry model since boot.",
            "counter",
        );
        for m in snap.models.iter() {
            sample(
                &mut out,
                "pit_serve_model_timesteps_total",
                &model_labels(m),
                m.timesteps_in as f64,
            );
        }
        help_type(
            &mut out,
            "pit_serve_model_emissions_total",
            "Head outputs sent back per registry model since boot.",
            "counter",
        );
        for m in snap.models.iter() {
            sample(
                &mut out,
                "pit_serve_model_emissions_total",
                &model_labels(m),
                m.emissions_out as f64,
            );
        }
        help_type(
            &mut out,
            "pit_serve_model_waves_total",
            "Pool waves that served each registry model.",
            "counter",
        );
        for m in snap.models.iter() {
            sample(
                &mut out,
                "pit_serve_model_waves_total",
                &model_labels(m),
                m.waves as f64,
            );
        }

        // Latency histograms. Boundaries are the histogram's own exact
        // integer bucket bounds (nanoseconds), not the seconds convention —
        // cumulative counts stay exact integers this way.
        help_type(
            &mut out,
            "pit_serve_wave_flush_ns",
            "Wave (pool flush) latency per registry model, nanoseconds.",
            "histogram",
        );
        for (m, hist) in snap.models.iter().zip(&wave_ns) {
            histogram_series(&mut out, "pit_serve_wave_flush_ns", &model_labels(m), hist);
        }
        help_type(
            &mut out,
            "pit_serve_edge_poll_ns",
            "Edge loop time blocked in poll(2) per iteration, nanoseconds.",
            "histogram",
        );
        histogram_series(
            &mut out,
            "pit_serve_edge_poll_ns",
            "",
            &self.edge_poll_ns.snapshot(),
        );
        help_type(
            &mut out,
            "pit_serve_edge_dispatch_ns",
            "Edge loop time accepting, reading and dispatching per iteration, nanoseconds.",
            "histogram",
        );
        histogram_series(
            &mut out,
            "pit_serve_edge_dispatch_ns",
            "",
            &self.edge_dispatch_ns.snapshot(),
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Prometheus text helpers
// ---------------------------------------------------------------------------

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a HELP text: backslash and newline.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn help_type(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(&escape_help(help));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Formats a sample value the way Prometheus expects: integers without a
/// fraction, everything else via the shortest roundtrip float.
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_value(value));
    out.push('\n');
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    help_type(out, name, help, "counter");
    sample(out, name, "", value as f64);
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    help_type(out, name, help, "gauge");
    sample(out, name, "", value);
}

fn model_labels(m: &crate::stats::ModelSnapshot) -> String {
    format!(
        "model=\"{}\",kind=\"{}\"",
        escape_label(&m.name),
        escape_label(&m.kind)
    )
}

/// The coarse `le` boundaries exposed per histogram: `4^k − 1` for
/// `k = 1..=16` (3 ns … ~4.3 s), each an exact upper bound of one of the
/// fine buckets, then `+Inf`.
fn prometheus_bounds() -> impl Iterator<Item = u64> {
    (1..=16u32).map(|k| (1u64 << (2 * k)) - 1)
}

/// Renders one histogram's `_bucket`/`_sum`/`_count` series under the
/// given extra labels (may be empty).
fn histogram_series(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for bound in prometheus_bounds() {
        let line_labels = format!("{labels}{sep}le=\"{bound}\"");
        sample(
            out,
            &format!("{name}_bucket"),
            &line_labels,
            snap.cumulative_le(bound) as f64,
        );
    }
    let inf_labels = format!("{labels}{sep}le=\"+Inf\"");
    sample(
        out,
        &format!("{name}_bucket"),
        &inf_labels,
        snap.count() as f64,
    );
    sample(out, &format!("{name}_sum"), labels, snap.sum() as f64);
    sample(out, &format!("{name}_count"), labels, snap.count() as f64);
}

#[cfg(test)]
impl Telemetry {
    /// A one-shard hub over a one-model registry named `name`: a 1×1
    /// per-step plan, lowered to int8 when `int8` is set.
    pub(crate) fn one_model(name: &str, int8: bool) -> Self {
        use pit_infer::{CompiledConv, InferencePlan, PlanHead, QuantizedPlan};
        use pit_tensor::Tensor;
        let conv = CompiledConv::new(Tensor::ones(&[1, 1, 1]), Tensor::zeros(&[1]), 1);
        let plan = InferencePlan::new(name, 1, Vec::new(), PlanHead::PerStep(conv));
        let engine = if int8 {
            let window = Tensor::ones(&[1, 1, 4]);
            let plan = QuantizedPlan::quantize(&plan, &[window]).expect("quantizes");
            ServeEngine::I8(Arc::new(plan))
        } else {
            ServeEngine::F32(Arc::new(plan))
        };
        let entry = ModelEntry {
            name: name.into(),
            engine,
            stats: Arc::default(),
        };
        let registry = Registry {
            models: vec![entry],
            default: 0,
        };
        Self::new(registry, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ring_records_filters_and_wraps() {
        let ring = TraceRing::default();
        ring.record(TraceKind::Open, 1, Some(7), Some(2), Some(0), 0, 10);
        ring.record(TraceKind::Push, 1, Some(7), Some(2), Some(0), 16, 20);
        ring.record(TraceKind::Push, 2, Some(7), Some(3), Some(1), 4, 30);
        ring.record(TraceKind::Error, 3, None, None, None, 4, 40);
        let all = ring.collect(None, None);
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].kind, TraceKind::Open);
        assert_eq!(all[3].stream, None);
        assert_eq!(all[3].shard, None);
        assert_eq!(all[3].model, None);
        let conn1 = ring.collect(Some(1), Some(7));
        assert_eq!(conn1.len(), 2);
        assert_eq!(conn1[1].count, 16);
        // Wrap: the ring keeps only the most recent TRACE_RING_SLOTS events.
        for i in 0..(TRACE_RING_SLOTS as u64 + 50) {
            ring.record(TraceKind::Emit, 9, Some(0), Some(0), Some(0), i, i);
        }
        let recent = ring.collect(Some(9), None);
        assert_eq!(recent.len(), TRACE_RING_SLOTS);
        assert_eq!(recent.last().unwrap().count, TRACE_RING_SLOTS as u64 + 49);
        // Events are in order and contiguous.
        for pair in recent.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq);
        }
    }

    #[test]
    fn trace_json_roundtrips_through_the_public_parser() {
        let telemetry = Telemetry::one_model("fp", false);
        telemetry
            .trace
            .record(TraceKind::Open, 5, Some(1), Some(0), Some(0), 0, 100);
        telemetry
            .trace
            .record(TraceKind::Push, 5, Some(1), Some(0), Some(0), 8, 150);
        telemetry
            .trace
            .record(TraceKind::Error, 5, None, None, None, 3, 160);
        let events = TraceEvent::parse_list(&telemetry.trace_json(Some(5), None)).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event, "open");
        assert_eq!(events[0].model, "fp");
        assert_eq!(events[1].count, 8);
        assert_eq!(events[1].stream, Some(1));
        assert_eq!(events[2].event, "error");
        assert_eq!(events[2].stream, None);
        assert_eq!(events[2].model, "");
        let filtered = TraceEvent::parse_list(&telemetry.trace_json(Some(5), Some(1))).unwrap();
        assert_eq!(filtered.len(), 2);
    }

    #[test]
    fn label_escaping_covers_quotes_backslashes_and_newlines() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    #[test]
    fn prometheus_rendering_is_wellformed_for_an_idle_daemon() {
        let telemetry = Telemetry::one_model("m", true);
        let text = telemetry.render_prometheus();
        assert!(text.contains("# TYPE pit_serve_timesteps_total counter"));
        assert!(text.contains("# TYPE pit_serve_wave_flush_ns histogram"));
        assert!(text.contains("# TYPE pit_serve_wave_latency_ns summary"));
        assert!(text.contains("pit_serve_wave_latency_ns{quantile=\"0.999\"} 0"));
        assert!(
            text.contains("pit_serve_wave_flush_ns_bucket{model=\"m\",kind=\"i8\",le=\"+Inf\"} 0")
        );
        assert!(text.contains("pit_serve_model_timesteps_total{model=\"m\",kind=\"i8\"} 0"));
        assert!(text.ends_with('\n'));
    }
}
