//! Serving counters and the snapshot the STATS frame returns.
//!
//! Each serving fact is kept in exactly one counter block:
//!
//! * `EdgeCounters`, in the telemetry hub: connection lifecycle, idle
//!   evictions, rejected frames, dropped replies and the outbuf high-water
//!   mark;
//! * one `ShardStats` per wave-batcher shard: only shard-local facts — the
//!   settling counters (`inflight`, `queued_steps`, `ticks`) and the
//!   live-slot `streams_open` gauge;
//! * one `ModelStats` per *registry model*, shared by every shard: streams
//!   opened and open, timesteps in, emissions out, waves, occupancy and the
//!   wave-latency histogram. Serving a zoo spreads one model's streams
//!   across every shard, so its traffic is accounted where the model is,
//!   not where the thread is.
//!
//! A STATS request aggregates them into one [`StatsSnapshot`] with one
//! [`ModelSnapshot`] per registry entry (`pit-serve-stats/6`, the only
//! schema the daemon writes and the only one
//! [`StatsSnapshot::from_json_str`] reads). The daemon's streams-opened,
//! timestep, emission and wave totals are sums over the model blocks, and
//! its wave percentiles come from the merge of the model histograms, so
//! the totals always equal the sum of the breakdown. From the shards come
//! only the settling figures (`seq`, `settled`) and `streams_open`: the
//! shards' live-slot gauges, a cross-check against the edge-written
//! per-model gauges.
//!
//! Latency percentiles come from the lock-free log-scale `Histogram`s of
//! `pit_tensor::hist` (exact counts, ≤ ~25% value quantization) and cover
//! the whole run.
//!
//! ## Snapshot settling
//!
//! Counters are written by shard threads *after* the edge routed the
//! triggering event, so a snapshot taken immediately after a PUSH can be
//! mid-flight. [`StatsSnapshot::settled`] makes that race observable: the
//! edge increments a per-shard `inflight` counter before every routed
//! event, the shard decrements it only after fully handling the event
//! (including any due wave), and `settled` is true exactly when no shard
//! has routed-but-unhandled events or queued-but-unflushed timesteps.
//! Pollers (tests, scrapers) wait for `settled` instead of sleeping.

use pit_tensor::hist::{Histogram, HistogramSnapshot};
use pit_tensor::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point-in-time view of the daemon's counters, as returned by the STATS
/// frame (rendered to JSON), by `GET /stats` on the metrics sidecar, and
/// by [`crate::ServerHandle::shutdown`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Name of the served plan.
    pub model: String,
    /// `"f32"` or `"i8"`.
    pub kind: String,
    /// Number of wave-batcher shards serving the pool.
    pub shards: u64,
    /// Connections accepted since boot.
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections that ended with a clean client disconnect.
    pub connections_closed: u64,
    /// Connections dropped on a transport or framing error.
    pub connections_errored: u64,
    /// Connections killed by the read-progress deadline
    /// ([`crate::ServerConfig::read_progress_timeout`]) — a partial frame
    /// that never completed, or a streamless connection that went silent.
    /// A sub-category of `connections_errored` (expired connections count
    /// in both), so `closed + errored + drained + open == total` holds.
    pub connections_expired: u64,
    /// Connections still open when a graceful drain completed.
    pub connections_drained: u64,
    /// Streams currently open.
    pub streams_open: u64,
    /// Streams opened since boot.
    pub streams_opened: u64,
    /// Streams evicted for idleness.
    pub streams_evicted: u64,
    /// Timesteps accepted into pool queues since boot.
    pub timesteps_in: u64,
    /// Head outputs sent back since boot.
    pub emissions_out: u64,
    /// Frames refused with an ERROR reply (malformed, backpressure, …).
    pub frames_rejected: u64,
    /// Reply frames dropped because a client's outbound queue was full.
    pub replies_dropped: u64,
    /// Highest number of bytes ever queued toward one connection.
    pub outbuf_hwm_bytes: u64,
    /// Pool waves (flush calls that served at least one stream).
    pub waves: u64,
    /// Mean number of streams served per wave.
    pub wave_occupancy: f64,
    /// Median wave (flush) latency in nanoseconds since boot.
    pub wave_p50_ns: u64,
    /// 99th-percentile wave latency in nanoseconds since boot.
    pub wave_p99_ns: u64,
    /// 99.9th-percentile wave latency in nanoseconds since boot.
    pub wave_p999_ns: u64,
    /// Total shard loop iterations: a monotone sequence number that
    /// advances each time a shard handles routed events or flushes (an
    /// idle shard blocks), so two equal-`seq` snapshots were taken between
    /// the same pair of shard ticks.
    pub seq: u64,
    /// True when no routed-but-unhandled events or queued-but-unflushed
    /// timesteps were pending at snapshot time — every counter has caught
    /// up with the traffic the edge accepted before this snapshot.
    pub settled: bool,
    /// Per-model breakdown, one entry per registry model.
    pub models: Vec<ModelSnapshot>,
}

/// One registry model's share of the daemon's traffic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelSnapshot {
    /// Registry name the model serves under.
    pub name: String,
    /// `"f32"` or `"i8"`.
    pub kind: String,
    /// Streams currently open on this model.
    pub streams_open: u64,
    /// Streams opened on this model since boot.
    pub streams_opened: u64,
    /// Timesteps accepted for this model since boot.
    pub timesteps_in: u64,
    /// Head outputs this model sent back since boot.
    pub emissions_out: u64,
    /// Pool waves that served this model.
    pub waves: u64,
    /// Mean streams served per wave of this model.
    pub wave_occupancy: f64,
    /// Median wave latency (ns) of this model since boot.
    pub wave_p50_ns: u64,
    /// 99th-percentile wave latency (ns) of this model.
    pub wave_p99_ns: u64,
    /// 99.9th-percentile wave latency (ns) of this model.
    pub wave_p999_ns: u64,
}

impl ModelSnapshot {
    /// Renders one model's breakdown object.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("streams_open".into(), n(self.streams_open)),
            ("streams_opened".into(), n(self.streams_opened)),
            ("timesteps_in".into(), n(self.timesteps_in)),
            ("emissions_out".into(), n(self.emissions_out)),
            ("waves".into(), n(self.waves)),
            ("wave_occupancy".into(), Json::Num(self.wave_occupancy)),
            ("wave_p50_ns".into(), n(self.wave_p50_ns)),
            ("wave_p99_ns".into(), n(self.wave_p99_ns)),
            ("wave_p999_ns".into(), n(self.wave_p999_ns)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let num = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("model breakdown: missing number field '{name}'"))
        };
        let int = |name: &str| -> Result<u64, String> { Ok(num(name)? as u64) };
        let text = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("model breakdown: missing string field '{name}'"))
        };
        Ok(Self {
            name: text("name")?,
            kind: text("kind")?,
            streams_open: int("streams_open")?,
            streams_opened: int("streams_opened")?,
            timesteps_in: int("timesteps_in")?,
            emissions_out: int("emissions_out")?,
            waves: int("waves")?,
            wave_occupancy: num("wave_occupancy")?,
            wave_p50_ns: int("wave_p50_ns")?,
            wave_p99_ns: int("wave_p99_ns")?,
            wave_p999_ns: int("wave_p999_ns")?,
        })
    }
}

/// The schema tag of every stats document the daemon writes.
const SCHEMA: &str = "pit-serve-stats/6";

impl StatsSnapshot {
    /// Renders the snapshot as the JSON document the STATS frame carries.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("model".into(), Json::Str(self.model.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("shards".into(), n(self.shards)),
            ("connections_total".into(), n(self.connections_total)),
            ("connections_open".into(), n(self.connections_open)),
            ("connections_closed".into(), n(self.connections_closed)),
            ("connections_errored".into(), n(self.connections_errored)),
            ("connections_expired".into(), n(self.connections_expired)),
            ("connections_drained".into(), n(self.connections_drained)),
            ("streams_open".into(), n(self.streams_open)),
            ("streams_opened".into(), n(self.streams_opened)),
            ("streams_evicted".into(), n(self.streams_evicted)),
            ("timesteps_in".into(), n(self.timesteps_in)),
            ("emissions_out".into(), n(self.emissions_out)),
            ("frames_rejected".into(), n(self.frames_rejected)),
            ("replies_dropped".into(), n(self.replies_dropped)),
            ("outbuf_hwm_bytes".into(), n(self.outbuf_hwm_bytes)),
            ("waves".into(), n(self.waves)),
            ("wave_occupancy".into(), Json::Num(self.wave_occupancy)),
            ("wave_p50_ns".into(), n(self.wave_p50_ns)),
            ("wave_p99_ns".into(), n(self.wave_p99_ns)),
            ("wave_p999_ns".into(), n(self.wave_p999_ns)),
            ("seq".into(), n(self.seq)),
            ("settled".into(), Json::Bool(self.settled)),
            (
                "models".into(),
                Json::Arr(self.models.iter().map(ModelSnapshot::to_json).collect()),
            ),
        ])
    }

    /// Parses a snapshot back from STATS-frame JSON.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not tagged
    /// `pit-serve-stats/6`, or naming the first missing or ill-typed field.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let num = |name: &str| -> Result<f64, String> {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number field '{name}'"))
        };
        let int = |name: &str| -> Result<u64, String> { Ok(num(name)? as u64) };
        let text_field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{name}'"))
        };
        let schema = text_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema is '{schema}', expected '{SCHEMA}'"));
        }
        Ok(Self {
            model: text_field("model")?,
            kind: text_field("kind")?,
            shards: int("shards")?,
            connections_total: int("connections_total")?,
            connections_open: int("connections_open")?,
            connections_closed: int("connections_closed")?,
            connections_errored: int("connections_errored")?,
            connections_expired: int("connections_expired")?,
            connections_drained: int("connections_drained")?,
            streams_open: int("streams_open")?,
            streams_opened: int("streams_opened")?,
            streams_evicted: int("streams_evicted")?,
            timesteps_in: int("timesteps_in")?,
            emissions_out: int("emissions_out")?,
            frames_rejected: int("frames_rejected")?,
            replies_dropped: int("replies_dropped")?,
            outbuf_hwm_bytes: int("outbuf_hwm_bytes")?,
            waves: int("waves")?,
            wave_occupancy: num("wave_occupancy")?,
            wave_p50_ns: int("wave_p50_ns")?,
            wave_p99_ns: int("wave_p99_ns")?,
            wave_p999_ns: int("wave_p999_ns")?,
            seq: int("seq")?,
            settled: match doc.get("settled") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing bool field 'settled'".into()),
            },
            models: doc
                .get("models")
                .and_then(Json::as_array)
                .ok_or("missing array field 'models'")?
                .iter()
                .map(ModelSnapshot::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}, {} shards): {} conns ({} open), {} streams open ({} opened, {} evicted), \
             {} timesteps in, {} emissions out, {} rejected, {} waves \
             (occupancy {:.1}, p50 {} ns, p99 {} ns, p99.9 {} ns)",
            self.model,
            self.kind,
            self.shards,
            self.connections_total,
            self.connections_open,
            self.streams_open,
            self.streams_opened,
            self.streams_evicted,
            self.timesteps_in,
            self.emissions_out,
            self.frames_rejected,
            self.waves,
            self.wave_occupancy,
            self.wave_p50_ns,
            self.wave_p99_ns,
            self.wave_p999_ns,
        )
    }
}

/// One wave-batcher shard's counter block: the facts only a shard knows.
/// The owning shard thread updates the atomics lock-free; the edge thread
/// and the HTTP sidecar read them whenever a STATS request, scrape or
/// shutdown aggregates a snapshot.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Live pool slots on this shard. The edge's per-model gauges count the
    /// same streams from the admission side; once the daemon settles the
    /// two agree, which makes this gauge a cross-check on the edge's books.
    pub(crate) streams_open: AtomicU64,
    /// Events the edge routed to this shard but the shard has not fully
    /// handled yet (edge increments *before* sending, shard decrements
    /// with `Release` *after* handling — including any due wave — so a
    /// reader seeing zero also sees every counter update the events made).
    pub(crate) inflight: AtomicU64,
    /// Timesteps queued in this shard's pools at the end of its last loop
    /// iteration (nonzero = a wave is still owed).
    pub(crate) queued_steps: AtomicU64,
    /// Loop iterations since boot (the snapshot sequence contribution).
    pub(crate) ticks: AtomicU64,
}

/// One registry model's counter block, shared by every shard (a model's
/// streams spread across all of them): the only home of the per-model
/// counters and of the wave-latency histogram. All fields are atomics;
/// recording a wave is lock-free.
#[derive(Debug, Default)]
pub(crate) struct ModelStats {
    /// Streams currently open on this model — the edge is the only writer
    /// (it owns admission), shards and the sidecar only read. The sum over
    /// the registry is the server-wide stream budget.
    pub(crate) streams_open: AtomicU64,
    pub(crate) streams_opened: AtomicU64,
    pub(crate) timesteps_in: AtomicU64,
    pub(crate) emissions_out: AtomicU64,
    waves: AtomicU64,
    occupancy_sum: AtomicU64,
    /// Wave (pool flush) latency of this model's pools on every shard.
    pub(crate) wave_ns: Histogram,
}

impl ModelStats {
    /// Records one flushed wave of this model's pool on some shard: how
    /// many streams it served and how long the flush took.
    pub(crate) fn record_wave(&self, occupancy: usize, elapsed: Duration) {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.occupancy_sum
            .fetch_add(occupancy as u64, Ordering::Relaxed);
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.wave_ns.record(ns);
    }
}

/// Connection-lifecycle counters plus the daemon's eviction, rejection and
/// reply books. The edge thread is the only writer of most fields, but
/// they are atomics so the HTTP sidecar can scrape them from its own
/// thread without a lock. `replies_dropped` and `outbuf_hwm` are `Arc`s
/// because shard threads update them through each connection's
/// [`crate::edge::OutBuf`].
#[derive(Debug, Default)]
pub(crate) struct EdgeCounters {
    pub(crate) connections_total: AtomicU64,
    pub(crate) connections_open: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) connections_errored: AtomicU64,
    /// Read-progress-deadline kills; also counted in `connections_errored`.
    pub(crate) connections_expired: AtomicU64,
    pub(crate) connections_drained: AtomicU64,
    /// Streams the edge's idle sweep ended.
    pub(crate) streams_evicted: AtomicU64,
    pub(crate) frames_rejected: AtomicU64,
    pub(crate) replies_dropped: Arc<AtomicU64>,
    /// High-water mark of bytes queued toward any single connection.
    pub(crate) outbuf_hwm: Arc<AtomicU64>,
}

/// Mean streams served per wave (0 before the first wave).
fn mean_occupancy(occupancy_sum: u64, waves: u64) -> f64 {
    if waves == 0 {
        0.0
    } else {
        occupancy_sum as f64 / waves as f64
    }
}

/// Aggregates the edge's counters, every shard's block and every registry
/// model's block — `(name, kind, stats)` in registry order — into one
/// daemon-wide snapshot. Each model block is read once: its breakdown
/// entry and its share of the daemon totals come from the same loads, and
/// the daemon wave percentiles from the merge of the model histograms.
/// `model`/`kind` describe the `default` registry entry.
pub(crate) fn aggregate_snapshot<'a>(
    edge: &EdgeCounters,
    shards: &[Arc<ShardStats>],
    models: impl IntoIterator<Item = (&'a str, &'a str, &'a ModelStats)>,
    default: usize,
) -> StatsSnapshot {
    // Settling first: Acquire pairs with the shards' Release
    // decrements/stores, so a settled observation implies every counter
    // those events touched is visible to the loads below.
    let settled = shards.iter().all(|s| {
        s.inflight.load(Ordering::Acquire) == 0 && s.queued_steps.load(Ordering::Acquire) == 0
    });
    let seq = shards.iter().map(|s| s.ticks.load(Ordering::Acquire)).sum();
    let mut occupancy_sum = 0;
    let mut hist = HistogramSnapshot::empty();
    let models: Vec<ModelSnapshot> = models
        .into_iter()
        .map(|(name, kind, stats)| {
            let waves = stats.waves.load(Ordering::Relaxed);
            let occupancy = stats.occupancy_sum.load(Ordering::Relaxed);
            let wave_ns = stats.wave_ns.snapshot();
            occupancy_sum += occupancy;
            hist.merge(&wave_ns);
            ModelSnapshot {
                name: name.to_string(),
                kind: kind.to_string(),
                streams_open: stats.streams_open.load(Ordering::Relaxed),
                streams_opened: stats.streams_opened.load(Ordering::Relaxed),
                timesteps_in: stats.timesteps_in.load(Ordering::Relaxed),
                emissions_out: stats.emissions_out.load(Ordering::Relaxed),
                waves,
                wave_occupancy: mean_occupancy(occupancy, waves),
                wave_p50_ns: wave_ns.percentile(0.50),
                wave_p99_ns: wave_ns.percentile(0.99),
                wave_p999_ns: wave_ns.percentile(0.999),
            }
        })
        .collect();
    let total = |field: fn(&ModelSnapshot) -> u64| -> u64 { models.iter().map(field).sum() };
    let waves = total(|m| m.waves);
    let (model, kind) = models
        .get(default)
        .map(|m| (m.name.clone(), m.kind.clone()))
        .unwrap_or_default();
    StatsSnapshot {
        model,
        kind,
        shards: shards.len() as u64,
        connections_total: edge.connections_total.load(Ordering::Relaxed),
        connections_open: edge.connections_open.load(Ordering::Relaxed),
        connections_closed: edge.connections_closed.load(Ordering::Relaxed),
        connections_errored: edge.connections_errored.load(Ordering::Relaxed),
        connections_expired: edge.connections_expired.load(Ordering::Relaxed),
        connections_drained: edge.connections_drained.load(Ordering::Relaxed),
        streams_open: shards
            .iter()
            .map(|s| s.streams_open.load(Ordering::Relaxed))
            .sum(),
        streams_opened: total(|m| m.streams_opened),
        streams_evicted: edge.streams_evicted.load(Ordering::Relaxed),
        timesteps_in: total(|m| m.timesteps_in),
        emissions_out: total(|m| m.emissions_out),
        frames_rejected: edge.frames_rejected.load(Ordering::Relaxed),
        replies_dropped: edge.replies_dropped.load(Ordering::Relaxed),
        outbuf_hwm_bytes: edge.outbuf_hwm.load(Ordering::Relaxed),
        waves,
        wave_occupancy: mean_occupancy(occupancy_sum, waves),
        wave_p50_ns: hist.percentile(0.50),
        wave_p99_ns: hist.percentile(0.99),
        wave_p999_ns: hist.percentile(0.999),
        seq,
        settled,
        models,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_shards_and_roundtrips_through_json() {
        let edge = EdgeCounters::default();
        edge.connections_total.store(3, Ordering::Relaxed);
        edge.connections_open.store(2, Ordering::Relaxed);
        edge.connections_closed.store(1, Ordering::Relaxed);
        edge.streams_evicted.store(1, Ordering::Relaxed);
        edge.frames_rejected.store(3, Ordering::Relaxed);
        edge.replies_dropped.store(7, Ordering::Relaxed);
        edge.outbuf_hwm.store(12_345, Ordering::Relaxed);
        let shards: Vec<Arc<ShardStats>> =
            (0..2).map(|_| Arc::new(ShardStats::default())).collect();
        for shard in &shards {
            shard.streams_open.store(2, Ordering::Relaxed);
            shard.ticks.store(10, Ordering::Relaxed);
        }
        let fp = ModelStats::default();
        fp.streams_open.store(4, Ordering::Relaxed);
        fp.streams_opened.store(5, Ordering::Relaxed);
        fp.timesteps_in.store(400, Ordering::Relaxed);
        fp.emissions_out.store(40, Ordering::Relaxed);
        fp.record_wave(4, Duration::from_nanos(2000));
        let q8 = ModelStats::default();
        q8.streams_opened.store(5, Ordering::Relaxed);
        q8.timesteps_in.store(600, Ordering::Relaxed);
        q8.emissions_out.store(81, Ordering::Relaxed);
        for j in 0..99u64 {
            q8.record_wave(4, Duration::from_nanos(1000 + j));
        }
        let models = [("fp", "f32", &fp), ("q8", "i8", &q8)];
        let snap = aggregate_snapshot(&edge, &shards, models, 0);
        assert_eq!((snap.model.as_str(), snap.kind.as_str()), ("fp", "f32"));
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.models.len(), 2);
        assert_eq!(snap.models[0].streams_open, 4);
        assert_eq!(snap.models[0].timesteps_in, 400);
        assert_eq!(snap.models[0].waves, 1);
        // Histogram percentiles report the containing bucket's upper
        // bound: exact count, value within a quarter above the sample.
        assert!(
            (2000..=2500).contains(&snap.models[0].wave_p50_ns),
            "p50={}",
            snap.models[0].wave_p50_ns
        );
        assert_eq!(snap.models[1].kind, "i8");
        assert_eq!(snap.models[1].waves, 99);
        // The live-slot gauge comes from the shards, evictions from the
        // edge; every other stream, timestep, emission and wave total is
        // the sum over the models.
        assert_eq!(snap.streams_open, 4);
        assert_eq!(snap.streams_opened, 10);
        assert_eq!(snap.streams_evicted, 1);
        assert_eq!(snap.timesteps_in, 1000);
        assert_eq!(snap.emissions_out, 121);
        assert_eq!(snap.frames_rejected, 3);
        assert_eq!(snap.replies_dropped, 7);
        assert_eq!(snap.connections_closed, 1);
        assert_eq!(snap.outbuf_hwm_bytes, 12_345);
        assert_eq!(snap.waves, 100);
        assert_eq!(snap.seq, 20);
        assert!(snap.settled, "no in-flight events were registered");
        assert!((snap.wave_occupancy - 4.0).abs() < 1e-9);
        assert!(snap.wave_p50_ns >= 1000 && snap.wave_p99_ns >= snap.wave_p50_ns);
        let text = snap.to_json().render();
        let back = StatsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
        // Only the schema the daemon writes parses: an older tag, or a
        // document missing any field, is refused.
        let old = text.replace("pit-serve-stats/6", "pit-serve-stats/5");
        assert!(StatsSnapshot::from_json_str(&old)
            .unwrap_err()
            .contains("schema"));
        let short = text.replacen("\"wave_p999_ns\"", "\"dropped\"", 1);
        assert!(StatsSnapshot::from_json_str(&short)
            .unwrap_err()
            .contains("wave_p999_ns"));
    }

    #[test]
    fn inflight_events_or_queued_steps_unsettle_the_snapshot() {
        let shards: Vec<Arc<ShardStats>> =
            (0..2).map(|_| Arc::new(ShardStats::default())).collect();
        let snap = aggregate_snapshot(&EdgeCounters::default(), &shards, [], 0);
        assert!(snap.settled);
        shards[1].inflight.store(1, Ordering::Relaxed);
        let snap = aggregate_snapshot(&EdgeCounters::default(), &shards, [], 0);
        assert!(!snap.settled, "a routed event keeps the snapshot unsettled");
        shards[1].inflight.store(0, Ordering::Relaxed);
        shards[0].queued_steps.store(8, Ordering::Relaxed);
        let snap = aggregate_snapshot(&EdgeCounters::default(), &shards, [], 0);
        assert!(!snap.settled, "queued timesteps owe a wave");
    }

    #[test]
    fn latency_percentiles_span_the_whole_run() {
        let stats = ModelStats::default();
        for _ in 0..1000 {
            stats.record_wave(1, Duration::from_nanos(10));
        }
        for _ in 0..1000 {
            stats.record_wave(1, Duration::from_nanos(1_000_000));
        }
        let snap = aggregate_snapshot(&EdgeCounters::default(), &[], [("m", "f32", &stats)], 0);
        // Half fast, half slow: the rank convention puts the p50 on the
        // first slow observation, and unlike the old rolling window the
        // histogram never forgets the early fast waves (p0 stays fast).
        assert!(
            (1_000_000..=1_250_000).contains(&snap.wave_p50_ns),
            "p50={}",
            snap.wave_p50_ns
        );
        assert!(snap.wave_p99_ns >= 1_000_000, "p99={}", snap.wave_p99_ns);
        assert!(
            snap.wave_p999_ns >= snap.wave_p99_ns,
            "p99.9={} p99={}",
            snap.wave_p999_ns,
            snap.wave_p99_ns
        );
        assert_eq!(snap.waves, 2000);
    }
}
