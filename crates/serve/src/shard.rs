//! The sharded batcher: N independent threads, each owning one
//! [`StreamPool`] shard *per registry model*, together serving thousands
//! of streams across a whole model zoo.
//!
//! A stream is pinned to its shard at OPEN time by a stable hash of
//! `(connection, stream id)` — the edge routes every later PUSH/CLOSE for
//! that stream to the same shard, so a shard's pools and stream tables are
//! single-threaded and lock-free exactly like the old one-batcher design,
//! just `shards`-times over. One generic implementation serves both
//! precisions through `Box<dyn StreamPool>` (this file replaced 24
//! hand-written `F32`/`I8` match arms). Multi-model serving keeps the
//! layout: the shard holds one pool per model (same index order as the
//! edge registry), the edge resolves a stream's model at OPEN, and each
//! tick flushes every pool with pending timesteps. A flush runs each
//! stream's queued timesteps back to back through the solo step, and the
//! tick coalesces a connection's emissions into one EMIT_N frame per model.
//! (Metrics and stats still call one tick's flush a *wave*.)
//!
//! Shards never touch a socket: EMIT_N and CLOSED frames are encoded into
//! the connection's [`OutBuf`] and the edge is woken through the self-pipe
//! [`Waker`] to drain them. The edge owns every stream's lifetime: a shard
//! opens, closes and evicts a stream only when the edge routes it an
//! event, and apart from the final drain never ends one on its own, so it
//! needs no clock per timestep and never writes an ERROR frame. The little
//! cross-thread state a shard shares is explicit: the per-connection
//! pending-timestep counter (backpressure, edge increments / shard
//! decrements), which the first OPEN of a connection routed here hands
//! over with the connection's [`OutBuf`], and its books. Each fact is
//! booked once: per-model traffic (streams opened, timesteps, emissions,
//! waves and their latency) in the model's [`ModelStats`] block, which
//! every shard shares, and shard-local facts (settling counters, the
//! live-slot gauge) in this shard's [`ShardStats`]. The shard builds its
//! pools from the hub's registry at start and follows it through
//! AddModel/Swap events, never taking the registry lock afterwards.

use crate::chaos::FaultInjector;
use crate::edge::{OutBuf, Waker};
use crate::protocol::{encode_server, CloseReason, ServerFrame, MAX_FRAME_BODY};
use crate::server::{ConnId, ServeEngine, ServerConfig};
use crate::stats::{ModelStats, ShardStats};
use crate::telemetry::{Telemetry, TraceKind};
use pit_infer::StreamPool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the edge routes to a shard.
pub(crate) enum ShardEvent {
    /// The connection is gone (broadcast): close its streams on this shard.
    Disconnected { conn: ConnId },
    /// OPEN, admitted (and already answered with OPENED) by the edge, with
    /// `model` resolved against the registry. It carries the handles a
    /// shard needs to reply to the connection and account for it; the
    /// connection's first OPEN routed here installs them.
    Open {
        conn: ConnId,
        stream_id: u32,
        model: usize,
        out: Arc<OutBuf>,
        pending: Arc<AtomicUsize>,
    },
    /// End a stream the edge has already taken out of its table: a client
    /// CLOSE (`ByClient`) or the edge's idle sweep (`IdleEvicted`).
    Close {
        conn: ConnId,
        stream_id: u32,
        reason: CloseReason,
    },
    /// `count` timesteps for one stream (one entry of a PUSH_N). The edge
    /// already validated channels and charged `count` to the connection's
    /// pending counter.
    Push {
        conn: ConnId,
        stream_id: u32,
        count: usize,
        samples: Vec<f32>,
    },
    /// Register one more model (broadcast): the shard appends a fresh pool
    /// at the next registry index, which the edge has just added to the
    /// hub's registry.
    AddModel {
        engine: ServeEngine,
        stats: Arc<ModelStats>,
    },
    /// Atomically replace model `model`'s engine (broadcast; only sent
    /// while that model has zero open streams).
    Swap { model: usize, engine: ServeEngine },
}

/// Trace-event close code for streams torn down by a disconnect — the
/// wire [`CloseReason`]s stop at 2 because no CLOSED frame is sent to a
/// connection that is already gone.
const CLOSE_DISCONNECTED: u64 = 3;

struct ShardConn {
    out: Arc<OutBuf>,
    /// Connection-wide queued-timestep counter (shared with the edge,
    /// which enforces the backpressure cap against it before forwarding).
    pending: Arc<AtomicUsize>,
    /// Connection-scoped stream id → `(model, pool slot)` on this shard.
    streams: HashMap<u32, (usize, usize)>,
    /// Timesteps this shard queued for the connection since the last wave
    /// (this shard's share of `pending`).
    queued: usize,
}

struct StreamInfo {
    conn: ConnId,
    client_id: u32,
}

pub(crate) struct Shard {
    /// This shard's index in the edge's shard table (trace-event label).
    index: usize,
    /// One pool per registry model, in registry order.
    pools: Vec<Box<dyn StreamPool>>,
    /// The registry models' counter blocks, in registry order.
    model_stats: Vec<Arc<ModelStats>>,
    tick: Duration,
    conns: HashMap<ConnId, ShardConn>,
    /// `(model, pool slot)` → owner.
    streams: HashMap<(usize, usize), StreamInfo>,
    stats: Arc<ShardStats>,
    telemetry: Arc<Telemetry>,
    waker: Waker,
    /// Set when this iteration queued reply bytes: ring the edge once per
    /// iteration, not once per frame.
    wrote: bool,
    /// Chaos fault seam (wakeup delays, wave stalls); `None` injects
    /// nothing.
    faults: Option<Arc<FaultInjector>>,
}

impl Shard {
    /// Shard `index` of the hub's shard table, serving the hub's registry
    /// with the tick and fault plan of `config`.
    pub(crate) fn new(
        index: usize,
        config: &ServerConfig,
        telemetry: Arc<Telemetry>,
        waker: Waker,
    ) -> Self {
        let (pools, model_stats) = telemetry
            .registry()
            .models
            .iter()
            .map(|m| (m.engine.new_pool(), Arc::clone(&m.stats)))
            .unzip();
        Self {
            index,
            pools,
            model_stats,
            tick: config.tick,
            conns: HashMap::new(),
            streams: HashMap::new(),
            stats: Arc::clone(&telemetry.shards[index]),
            telemetry,
            waker,
            wrote: false,
            faults: config.faults.clone(),
        }
    }

    /// Records one per-stream event in the global trace ring.
    fn trace(&self, kind: TraceKind, conn: ConnId, stream: u32, model: usize, count: u64) {
        self.telemetry.trace.record(
            kind,
            conn,
            Some(stream),
            Some(self.index),
            Some(model),
            count,
            self.telemetry.now_us(),
        );
    }

    fn send(&mut self, conn: ConnId, frame: &ServerFrame) {
        if let Some(state) = self.conns.get(&conn) {
            state.out.push(encode_server(frame));
            self.wrote = true;
        }
    }

    fn handle(&mut self, event: ShardEvent) {
        match event {
            ShardEvent::Disconnected { conn } => {
                if let Some(state) = self.conns.remove(&conn) {
                    state.pending.fetch_sub(state.queued, Ordering::Relaxed);
                    for (stream_id, (model, slot)) in state.streams {
                        self.pools[model].close_stream(slot);
                        self.streams.remove(&(model, slot));
                        self.trace(TraceKind::Close, conn, stream_id, model, CLOSE_DISCONNECTED);
                    }
                    self.stats
                        .streams_open
                        .store(self.streams.len() as u64, Ordering::Relaxed);
                }
            }
            ShardEvent::Open {
                conn,
                stream_id,
                model,
                out,
                pending,
            } => self.handle_open(conn, stream_id, model, out, pending),
            ShardEvent::Close {
                conn,
                stream_id,
                reason,
            } => self.handle_close(conn, stream_id, reason),
            ShardEvent::Push {
                conn,
                stream_id,
                count,
                samples,
            } => self.handle_push(conn, stream_id, count, &samples),
            ShardEvent::AddModel { engine, stats } => {
                self.pools.push(engine.new_pool());
                self.model_stats.push(stats);
            }
            ShardEvent::Swap { model, engine } => {
                // Only broadcast while the named model has zero open
                // streams server-wide; a shard with live streams of it (an
                // impossible race would be an edge bug) keeps its pool
                // rather than corrupting them.
                if self.streams.keys().all(|&(m, _)| m != model) {
                    self.pools[model] = engine.new_pool();
                }
            }
        }
    }

    fn handle_open(
        &mut self,
        conn: ConnId,
        stream_id: u32,
        model: usize,
        out: Arc<OutBuf>,
        pending: Arc<AtomicUsize>,
    ) {
        let state = self.conns.entry(conn).or_insert_with(|| ShardConn {
            out,
            pending,
            streams: HashMap::new(),
            queued: 0,
        });
        let slot = self.pools[model].open_stream();
        state.streams.insert(stream_id, (model, slot));
        self.streams.insert(
            (model, slot),
            StreamInfo {
                conn,
                client_id: stream_id,
            },
        );
        self.model_stats[model]
            .streams_opened
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .streams_open
            .store(self.streams.len() as u64, Ordering::Relaxed);
        self.trace(TraceKind::Open, conn, stream_id, model, 0);
    }

    /// The one way a stream ends with a reply, whatever the reason (a
    /// client CLOSE, an edge idle eviction, the drain): its queued
    /// timesteps become final emissions, its slot is freed, the close is
    /// traced with the reason code as its count, and CLOSED follows the
    /// final EMIT_N.
    fn handle_close(&mut self, conn: ConnId, stream_id: u32, reason: CloseReason) {
        // The edge routes a close only for a stream it admitted, down the
        // same channel as the OPEN, so the stream is always here.
        let Some((model, slot)) = self
            .conns
            .get_mut(&conn)
            .and_then(|c| c.streams.remove(&stream_id))
        else {
            return;
        };
        // An orderly end, not an abort: timesteps the stream already
        // pushed become final emissions, not vanish depending on where the
        // tick happened to land.
        if self.pools[model].pending_for(slot) > 0 {
            self.run_wave();
        }
        self.pools[model].close_stream(slot);
        self.streams.remove(&(model, slot));
        self.stats
            .streams_open
            .store(self.streams.len() as u64, Ordering::Relaxed);
        let kind = match reason {
            CloseReason::IdleEvicted => TraceKind::Evict,
            CloseReason::ByClient | CloseReason::Drained => TraceKind::Close,
        };
        self.trace(kind, conn, stream_id, model, reason as u64);
        self.send(conn, &ServerFrame::Closed { stream_id, reason });
    }

    fn handle_push(&mut self, conn: ConnId, stream_id: u32, count: usize, samples: &[f32]) {
        // The edge routes a PUSH only for a stream open in its table, ahead
        // of any close of it, so the stream is always here.
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        let Some(&(model, slot)) = state.streams.get(&stream_id) else {
            return;
        };
        state.queued += count;
        let c_in = self.pools[model].input_channels();
        for sample in samples.chunks_exact(c_in) {
            self.pools[model].push(slot, sample);
        }
        self.model_stats[model]
            .timesteps_in
            .fetch_add(count as u64, Ordering::Relaxed);
        self.trace(TraceKind::Push, conn, stream_id, model, count as u64);
    }

    /// One wave: flush every model pool with queued timesteps and route
    /// emissions back — one coalesced EMIT_N per connection per model.
    fn run_wave(&mut self) {
        // Chaos: stall the flush to widen the window in which closes,
        // disconnects and evictions land on streams mid-wave.
        if let Some(faults) = &self.faults {
            faults.wave_stall();
        }
        // One pass over the stream map for every model's occupancy —
        // rescanning per registry entry would cost O(models × streams)
        // each tick.
        let mut per_model = vec![0usize; self.pools.len()];
        for &(model, slot) in self.streams.keys() {
            if self.pools[model].pending_for(slot) > 0 {
                per_model[model] += 1;
            }
        }
        let mut flushed = false;
        for (model, occupancy) in per_model.into_iter().enumerate() {
            if occupancy == 0 {
                continue;
            }
            let t0 = Instant::now();
            let results = self.pools[model].flush();
            self.model_stats[model].record_wave(occupancy, t0.elapsed());
            flushed = true;
            self.route_emissions(model, results);
        }
        if !flushed {
            return;
        }
        // The flushes drained every queue on this shard: refund each
        // connection's share of its pending counter.
        for state in self.conns.values_mut() {
            if state.queued > 0 {
                state.pending.fetch_sub(state.queued, Ordering::Relaxed);
                state.queued = 0;
            }
        }
    }

    /// Routes one model's flush results to their connections. A flush
    /// returns each stream's emissions next to each other, in time order,
    /// so each run becomes one EMIT_N entry without regrouping.
    fn route_emissions(&mut self, model: usize, results: Vec<(usize, Vec<f32>)>) {
        if results.is_empty() {
            return;
        }
        // Frames must stay under the protocol's body bound: cap the vectors
        // per frame and split a backlog across frames (order preserved).
        let dim = self.pools[model].output_dim().max(1);
        let max_vectors_per_frame = ((MAX_FRAME_BODY - 64) / (4 * dim)).max(1);
        let mut emit_n: HashMap<ConnId, EmitNBuilder> = HashMap::new();
        let mut conn_order: Vec<ConnId> = Vec::new();
        let mut outputs: Vec<f32> = Vec::new();
        for run in results.chunk_by(|a, b| a.0 == b.0) {
            let slot = run[0].0;
            let emitted = run.len() as u64;
            self.model_stats[model]
                .emissions_out
                .fetch_add(emitted, Ordering::Relaxed);
            let Some(info) = self.streams.get(&(model, slot)) else {
                continue;
            };
            let (conn, stream_id) = (info.conn, info.client_id);
            self.trace(TraceKind::Emit, conn, stream_id, model, emitted);
            outputs.clear();
            for (_, out) in run {
                outputs.extend_from_slice(out);
            }
            let builder = emit_n.entry(conn).or_insert_with(|| {
                conn_order.push(conn);
                EmitNBuilder::new(dim)
            });
            for chunk in outputs.chunks(max_vectors_per_frame * dim) {
                if let Some(full) = builder.add(stream_id, chunk) {
                    self.send(conn, &full);
                }
            }
        }
        for conn in conn_order {
            if let Some(frame) = emit_n.remove(&conn).expect("built above").finish() {
                self.send(conn, &frame);
            }
        }
    }

    /// Timesteps queued across every model pool on this shard.
    fn pending_steps(&self) -> usize {
        self.pools.iter().map(|p| p.pending_steps()).sum()
    }

    /// Graceful drain: every stream still open ends down the one close
    /// path, so its queued timesteps become final emissions ahead of its
    /// CLOSED.
    fn drain(&mut self) {
        let open: Vec<(ConnId, u32)> = self
            .streams
            .values()
            .map(|info| (info.conn, info.client_id))
            .collect();
        for (conn, stream_id) in open {
            self.handle_close(conn, stream_id, CloseReason::Drained);
        }
    }

    /// The shard thread: collect routed events, run at most one wave per
    /// tick, and drain when the edge closes the channel. With nothing
    /// queued it blocks until the edge routes the next event.
    pub(crate) fn run(mut self, rx: Receiver<ShardEvent>) {
        let mut next_wave = Instant::now();
        loop {
            let received = if self.pending_steps() > 0 {
                rx.recv_timeout(next_wave.saturating_duration_since(Instant::now()))
            } else {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            let mut disconnected = false;
            // Events fully handled this iteration — balanced against the
            // `inflight` charges the edge made when routing them.
            let mut handled = 0u64;
            match received {
                Ok(event) => {
                    // Chaos: sleep between receiving and handling, so the
                    // edge's view and this shard's view stay divergent for
                    // longer than any natural schedule would allow.
                    if let Some(faults) = &self.faults {
                        faults.shard_wakeup();
                    }
                    self.handle(event);
                    handled += 1;
                    while let Ok(event) = rx.try_recv() {
                        self.handle(event);
                        handled += 1;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => disconnected = true,
            }
            if disconnected {
                // The edge dropped the senders after its final read sweep:
                // everything routed is already handled (the channel delivers
                // buffered events before reporting disconnect).
                self.drain();
                self.stats.queued_steps.store(0, Ordering::Release);
                self.stats.ticks.fetch_add(1, Ordering::Release);
                break;
            }
            if self.pending_steps() > 0 && Instant::now() >= next_wave {
                self.run_wave();
                next_wave = Instant::now() + self.tick;
            }
            // Settling order matters: publish the pool backlog first, then
            // release the inflight charges. A snapshot that observes
            // `inflight == 0` (Acquire) therefore also observes the queued
            // backlog these events created — it can never read 0/0 while a
            // wave is still owed. Both stores are Release so a settled
            // observation implies every counter update above is visible.
            self.stats
                .queued_steps
                .store(self.pending_steps() as u64, Ordering::Release);
            if handled > 0 {
                self.stats.inflight.fetch_sub(handled, Ordering::Release);
            }
            self.stats.ticks.fetch_add(1, Ordering::Release);
            if self.wrote {
                self.wrote = false;
                self.waker.wake();
            }
        }
        // Final emissions and CLOSED frames are in the outbufs; the edge is
        // joining us and flushes them once we are gone.
        self.waker.wake();
    }
}

/// Accumulates one wave's emissions for one connection into EMIT_N frames,
/// splitting when a frame would exceed the protocol body bound.
struct EmitNBuilder {
    dim: usize,
    entries: Vec<(u32, u32)>,
    outputs: Vec<f32>,
}

impl EmitNBuilder {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            entries: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn frame_bytes(entries: usize, values: usize) -> usize {
        // opcode + dim + entry count + entries + payload.
        1 + 4 + 4 + entries * 8 + values * 4
    }

    /// Adds one stream's chunk of output values; returns a finished frame
    /// first when adding would overflow the body bound.
    fn add(&mut self, stream_id: u32, values: &[f32]) -> Option<ServerFrame> {
        let flushed = if !self.entries.is_empty()
            && Self::frame_bytes(self.entries.len() + 1, self.outputs.len() + values.len())
                > MAX_FRAME_BODY
        {
            self.finish()
        } else {
            None
        };
        self.entries
            .push((stream_id, (values.len() / self.dim) as u32));
        self.outputs.extend_from_slice(values);
        flushed
    }

    /// The accumulated frame, if any emissions are pending.
    fn finish(&mut self) -> Option<ServerFrame> {
        if self.entries.is_empty() {
            return None;
        }
        Some(ServerFrame::EmitN {
            dim: self.dim as u32,
            entries: std::mem::take(&mut self.entries),
            outputs: std::mem::take(&mut self.outputs),
        })
    }
}
