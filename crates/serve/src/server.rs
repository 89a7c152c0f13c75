//! The serving daemon: an event-driven TCP edge in front of N sharded
//! wave-batcher threads.
//!
//! ## Thread model
//!
//! * **Edge** (the thread that calls [`Server::run`]): owns the listener,
//!   *every* client socket (nonblocking) and the self-pipe, multiplexed
//!   through one `poll(2)` readiness loop — no per-connection threads, so
//!   4096 streams cost 4096 sockets, not 8192 stacks. The edge reassembles
//!   and decodes frames, answers PING/STATS/LOAD_MODEL in place, admits
//!   OPEN (duplicates, server capacity; it writes the OPENED reply itself)
//!   and PUSH_N (channel count, backpressure), ends streams (CLOSE, idle
//!   eviction), and routes stream work to shards. Outbound frames
//!   accumulate in bounded per-connection outbufs drained with vectored
//!   writes whenever the socket accepts them.
//! * **Shards** ([`ServerConfig::shards`] wave-batcher threads): each owns
//!   one session-pool shard behind the [`pit_infer::StreamPool`] trait —
//!   one generic batcher for both precisions. A stream is pinned to
//!   `shard_of(conn, stream_id)` at OPEN; every wave flushes the shard's
//!   pending timesteps, stream by stream, through the solo step. Shards
//!   write EMIT_N and CLOSED frames into the outbufs and ring the edge's
//!   self-pipe to flush them (see the reply-order rules in
//!   [`crate::protocol`]).
//!
//! ## Registry and books
//!
//! The model registry lives in exactly one place, the telemetry hub
//! (`telemetry::Registry`), which the edge, the shards and the sidecar
//! share. The edge is its only writer (LOAD_MODEL) and reads it on OPEN,
//! LOAD_MODEL, LIST_MODELS and STATS; the per-timestep path never locks
//! it. An OPEN resolves the model once and caches what the hot path needs
//! in the stream's table entry — the model's input channels and counter
//! block — so PUSH_N admission and stream release take no lock (only a
//! channel-count rejection reads the registry, for the model name in its
//! message). The cache cannot go stale: a LOAD_MODEL replace is refused
//! while the model has open streams. The server-wide stream budget is the
//! sum of the per-model `streams_open` gauges, which only the edge writes.
//!
//! ## Lifecycle
//!
//! Streams are opened per connection (OPEN), served until CLOSE, idle
//! eviction ([`ServerConfig::idle_timeout`]) or disconnect, and their pool
//! slots are recycled shard-side. The edge alone decides when a stream
//! ends: it takes the stream out of its table, releases its budget slot
//! and routes the close, and the shard flushes the stream's queued
//! timesteps and replies CLOSED. [`ServerHandle::shutdown`] drains
//! gracefully: the edge sweeps already-arrived bytes, shards flush queued
//! timesteps into final emissions, every stream gets a CLOSED frame, and
//! the aggregated [`crate::StatsSnapshot`] is returned.

use crate::chaos::{FaultInjector, IoFault};
use crate::edge::{
    poll_fds, pollfd, OutBuf, PollFd, WakePipe, Waker, POLLERR, POLLHUP, POLLIN, POLLOUT,
};
use crate::http;
use crate::protocol::{
    decode_client, encode_server, entry_runs, ClientFrame, CloseReason, ErrorCode, FrameAssembler,
    FrameError, ServerFrame,
};
use crate::shard::{Shard, ShardEvent};
use crate::stats::{ModelStats, StatsSnapshot};
use crate::telemetry::{ModelEntry, Registry, ServeState, Telemetry, TraceKind};
use pit_infer::{
    InferencePlan, PlanArtifact, QuantizedPlan, QuantizedSessionPool, SessionPool, StreamPool,
    ZooManifest,
};
use pit_tensor::json::Json;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Server-wide cap on concurrently open streams.
    pub max_streams: usize,
    /// Backpressure cap: maximum queued-but-unflushed timesteps per
    /// connection; a PUSH_N that would exceed it is rejected with an ERROR
    /// frame.
    pub max_pending_per_conn: usize,
    /// Flush cadence: each shard runs at most one pool flush per tick, and
    /// a connection's emissions from one flush share one EMIT_N frame per
    /// model. The tick only sets how often a shard flushes and how many
    /// emissions a frame merges; it gathers no compute batch.
    pub tick: Duration,
    /// Evict streams with no client activity (an OPEN or a PUSH_N naming
    /// the stream) for this long; `None` (the default) never evicts. The
    /// edge sweeps for idle streams on every loop iteration, so an eviction
    /// fires within `EDGE_POLL_MS` (100 ms) of its deadline; the stream's
    /// queued timesteps still become final emissions ahead of its
    /// `CLOSED(IdleEvicted)`.
    pub idle_timeout: Option<Duration>,
    /// Wave-batcher shards (threads), each owning one pool shard per
    /// registry model. Defaults to the machine's available parallelism,
    /// clamped to `1..=8`.
    pub shards: usize,
    /// Cap on registry models (boot-time plus LOAD_MODEL additions): each
    /// model costs one pool per shard, so the registry must not grow
    /// unboundedly at a client's request.
    pub max_models: usize,
    /// Address for the HTTP telemetry sidecar (`GET /metrics`, `/stats`,
    /// `/healthz`, `/trace`), e.g. `127.0.0.1:9901` (`:0` for ephemeral).
    /// `None` (the default) disables the sidecar; the binary's
    /// `--metrics-addr` flag sets it.
    pub metrics_addr: Option<String>,
    /// How long a graceful drain keeps serving reads and flushing replies
    /// (refusing new streams) before tearing the shards down. The default
    /// `Duration::ZERO` drains immediately; a nonzero grace gives load
    /// balancers scraping `/healthz` time to observe the draining state
    /// and route traffic away.
    pub drain_grace: Duration,
    /// Read-progress deadline at the edge: a connection is dropped when a
    /// partial frame sits unfinished this long (a slow-loris drip never
    /// completing a frame does not count as progress), or when it holds no
    /// streams and completes no frame for this long. Guards the resources
    /// [`ServerConfig::idle_timeout`] cannot reach — idle eviction frees
    /// *streams*, but a frameless connection pins a socket, an outbuf and
    /// an edge slot forever without ever opening one. `None` disables the
    /// deadline; defaults to 30 s.
    pub read_progress_timeout: Option<Duration>,
    /// Deterministic fault injection (chaos testing): forced
    /// `WouldBlock`/`Interrupted` edge reads, skipped flushes, delayed
    /// shard wakeups and wave-flush stalls. `None` (the default) injects
    /// nothing; see [`crate::chaos::FaultPlan`]. The faults delay shards,
    /// not the edge's idle clock: an eviction still fires within
    /// `EDGE_POLL_MS` of its deadline, and only its CLOSED reply waits for
    /// the delayed shard.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_streams: 4096,
            max_pending_per_conn: 4096,
            tick: Duration::from_micros(200),
            idle_timeout: None,
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8),
            max_models: 32,
            metrics_addr: None,
            drain_grace: Duration::ZERO,
            read_progress_timeout: Some(Duration::from_secs(30)),
            faults: None,
        }
    }
}

/// The model a server serves: an f32 plan or an int8 quantized plan. This
/// enum is the *only* precision seam left in the daemon — everything past
/// its pool constructor runs generically over [`pit_infer::StreamPool`].
#[derive(Clone)]
pub enum ServeEngine {
    /// Serve through [`SessionPool`].
    F32(Arc<InferencePlan>),
    /// Serve through [`QuantizedSessionPool`].
    I8(Arc<QuantizedPlan>),
}

impl ServeEngine {
    /// Wraps a loaded artifact.
    pub fn from_artifact(artifact: PlanArtifact) -> Self {
        match artifact {
            PlanArtifact::F32(plan) => ServeEngine::F32(Arc::new(plan)),
            PlanArtifact::I8(plan) => ServeEngine::I8(Arc::new(plan)),
        }
    }

    /// A fresh zero-stream pool shard over this engine.
    pub(crate) fn new_pool(&self) -> Box<dyn StreamPool> {
        match self {
            ServeEngine::F32(plan) => Box::new(SessionPool::new(Arc::clone(plan), 0)),
            ServeEngine::I8(plan) => Box::new(QuantizedSessionPool::new(Arc::clone(plan), 0)),
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ServeEngine::F32(_) => "f32",
            ServeEngine::I8(_) => "i8",
        }
    }

    pub(crate) fn name(&self) -> String {
        match self {
            ServeEngine::F32(plan) => plan.name().to_string(),
            ServeEngine::I8(plan) => plan.name().to_string(),
        }
    }

    pub(crate) fn input_channels(&self) -> usize {
        match self {
            ServeEngine::F32(plan) => plan.input_channels(),
            ServeEngine::I8(plan) => plan.input_channels(),
        }
    }

    pub(crate) fn output_dim(&self) -> usize {
        match self {
            ServeEngine::F32(plan) => plan.output_dim(),
            ServeEngine::I8(plan) => plan.output_dim(),
        }
    }

    pub(crate) fn receptive_field(&self) -> usize {
        match self {
            ServeEngine::F32(plan) => plan.receptive_field(),
            ServeEngine::I8(plan) => plan.receptive_field(),
        }
    }
}

pub(crate) type ConnId = u64;

/// Stable `(connection, stream id) → shard` pinning, decided at OPEN time
/// and recomputed identically for every later PUSH/CLOSE (splitmix-style
/// mix so consecutive ids spread evenly).
fn shard_of(conn: ConnId, stream_id: u32, shards: usize) -> usize {
    let mut x = conn
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(stream_id).wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % shards as u64) as usize
}

/// One open stream in the edge's table: its registry model, its idle
/// clock, and what PUSH_N admission and release need of the model, cached
/// at OPEN so neither takes the registry lock.
struct OpenStream {
    model: usize,
    /// The last OPEN or PUSH_N naming the stream: its idle-eviction clock.
    last_activity: Instant,
    /// The model's input channels.
    channels: usize,
    /// The model's counter block, whose `streams_open` gauge this stream
    /// holds a slot of.
    stats: Arc<ModelStats>,
}

impl OpenStream {
    /// The single decrement path of the open-stream budget: gives the
    /// stream's slot of its model's gauge back (the budget is the gauges'
    /// sum). Every closer (CLOSE, disconnect, idle eviction) removes the
    /// entry from its connection's table and releases what it removed, so
    /// a double decrement is structurally impossible.
    fn release(self) {
        let gauge = &self.stats.streams_open;
        debug_assert!(
            gauge.load(Ordering::Relaxed) > 0,
            "model {} streams_open underflow",
            self.model
        );
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }
}

/// Edge-side per-connection state. The socket lives here (and only here);
/// shards reach the connection exclusively through the shared `out`
/// buffer and the counters.
struct EdgeConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    out: Arc<OutBuf>,
    pending: Arc<AtomicUsize>,
    /// Client stream ids opened (and not yet closed) on this connection —
    /// the edge's authoritative view for duplicate checks, per-stream
    /// channel checks and budget accounting.
    streams: HashMap<u32, OpenStream>,
    /// Set when the last vectored write left bytes queued: poll for
    /// `POLLOUT` instead of busy-retrying.
    want_write: bool,
    /// When the last complete frame arrived (accept time until then).
    last_frame: Instant,
    /// Set while the assembler holds a partial frame: when the *current*
    /// partial started waiting for completion. Byte drips do not refresh
    /// it — only finishing a frame does, so a slow-loris drip cannot
    /// dodge the read-progress deadline by trickling one byte per tick.
    partial_since: Option<Instant>,
}

/// How long the post-drain flush keeps trying to hand final emissions and
/// CLOSED frames to slow clients before giving up.
const DRAIN_FLUSH_TIMEOUT: Duration = Duration::from_secs(5);
/// Edge poll timeout: the latency floor for noticing a shutdown requested
/// without a waker (e.g. a signal handler flipping the flag), and the most
/// an idle eviction fires after its deadline.
const EDGE_POLL_MS: i32 = 100;

struct Edge {
    config: ServerConfig,
    conns: HashMap<ConnId, EdgeConn>,
    shard_txs: Vec<Sender<ShardEvent>>,
    /// The shared telemetry hub (registry, counters, trace ring,
    /// histograms) — the same `Arc` the shards and the HTTP sidecar hold.
    telemetry: Arc<Telemetry>,
    draining: bool,
    next_conn: ConnId,
    read_buf: Vec<u8>,
    dead: Vec<ConnId>,
}

impl Edge {
    /// Routes one event to a shard, charging the shard's inflight counter
    /// *before* the send so a STATS snapshot taken between the send and the
    /// shard's handling reads as unsettled. Every event the edge sends must
    /// go through here (or [`Edge::broadcast`]) — the shard decrements the
    /// charge per handled event.
    fn route(&self, shard: usize, event: ShardEvent) {
        self.telemetry.shards[shard]
            .inflight
            .fetch_add(1, Ordering::Relaxed);
        let _ = self.shard_txs[shard].send(event);
    }

    /// Sends one event to every shard (connection lifecycle, model loads).
    fn broadcast(&self, mut make: impl FnMut() -> ShardEvent) {
        for shard in 0..self.shard_txs.len() {
            self.route(shard, make());
        }
    }

    fn shard_index(&self, conn: ConnId, stream_id: u32) -> usize {
        shard_of(conn, stream_id, self.shard_txs.len())
    }

    fn send(&mut self, conn: ConnId, frame: &ServerFrame) {
        if let Some(state) = self.conns.get(&conn) {
            state.out.push(encode_server(frame));
        }
    }

    fn send_error(&mut self, conn: ConnId, code: ErrorCode, message: impl Into<String>) {
        self.telemetry
            .edge
            .frames_rejected
            .fetch_add(1, Ordering::Relaxed);
        self.telemetry.trace.record(
            TraceKind::Error,
            conn,
            None,
            None,
            None,
            code as u64,
            self.telemetry.now_us(),
        );
        self.send(
            conn,
            &ServerFrame::Error {
                code,
                message: message.into(),
            },
        );
    }

    fn accept_loop(&mut self, listener: &TcpListener) {
        // WouldBlock ends the loop: everything queued has been accepted.
        // Other transient failures (fd exhaustion, aborted handshakes) must
        // not end the daemon either; the listener stays in the poll set and
        // the next readiness retries.
        while let Ok((stream, _peer)) = listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.next_conn += 1;
            let conn = self.next_conn;
            let out = Arc::new(OutBuf::new(
                Arc::clone(&self.telemetry.edge.replies_dropped),
                Arc::clone(&self.telemetry.edge.outbuf_hwm),
            ));
            let pending = Arc::new(AtomicUsize::new(0));
            self.telemetry
                .edge
                .connections_total
                .fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .edge
                .connections_open
                .fetch_add(1, Ordering::Relaxed);
            self.conns.insert(
                conn,
                EdgeConn {
                    stream,
                    assembler: FrameAssembler::new(),
                    out,
                    pending,
                    streams: HashMap::new(),
                    want_write: false,
                    last_frame: Instant::now(),
                    partial_since: None,
                },
            );
        }
    }

    /// Reads everything currently available on `conn`, decoding and
    /// dispatching complete frames. Marks the connection dead on EOF,
    /// transport errors, or unrecoverable framing. Tracks read progress
    /// (frames completed, partials outstanding) for the
    /// [`ServerConfig::read_progress_timeout`] reaper.
    fn read_conn(&mut self, conn: ConnId) {
        let mut frames_done = false;
        loop {
            let Some(state) = self.conns.get_mut(&conn) else {
                return;
            };
            if let Some(fault) = self.config.faults.as_ref().and_then(|f| f.pre_read()) {
                match fault {
                    // Level-triggered poll re-signals the unread bytes on
                    // the next iteration, exactly like a real EAGAIN.
                    IoFault::WouldBlock => break,
                    IoFault::Interrupted => continue,
                }
            }
            use std::io::Read;
            let n = match (&state.stream).read(&mut self.read_buf) {
                Ok(0) => {
                    self.drop_conn(conn, true);
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(conn, false);
                    return;
                }
            };
            state.assembler.extend(&self.read_buf[..n]);
            loop {
                let Some(state) = self.conns.get_mut(&conn) else {
                    return;
                };
                match state.assembler.next_frame() {
                    Ok(Some(body)) => {
                        frames_done = true;
                        match decode_client(&body) {
                            Ok(frame) => self.dispatch(conn, frame),
                            Err(e) => {
                                let code = match e {
                                    FrameError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
                                    _ => ErrorCode::BadFrame,
                                };
                                self.send_error(conn, code, e.to_string());
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Framing can no longer be trusted (oversized
                        // length prefix): report best-effort and hang up.
                        self.send_error(conn, ErrorCode::BadFrame, e.to_string());
                        self.drop_conn(conn, false);
                        return;
                    }
                }
            }
        }
        let now = Instant::now();
        if let Some(state) = self.conns.get_mut(&conn) {
            if frames_done {
                state.last_frame = now;
            }
            let buffered = state.assembler.buffered_bytes() > 0;
            state.partial_since = match (buffered, frames_done, state.partial_since) {
                // Clean frame boundary: nothing is waiting.
                (false, ..) => None,
                // A fresh partial behind completed frames starts its own
                // clock now.
                (true, true, _) => Some(now),
                // The same partial is still incomplete: keep its original
                // start so byte drips never refresh the deadline.
                (true, false, since) => since.or(Some(now)),
            };
        }
    }

    fn dispatch(&mut self, conn: ConnId, frame: ClientFrame) {
        match frame {
            ClientFrame::Ping { token } => self.send(conn, &ServerFrame::Pong { token }),
            ClientFrame::Stats => {
                let snapshot = self.telemetry.snapshot();
                self.send(
                    conn,
                    &ServerFrame::StatsJson {
                        json: snapshot.to_json().render(),
                    },
                );
            }
            ClientFrame::Open { stream_id, model } => self.handle_open(conn, stream_id, model),
            ClientFrame::ListModels => {
                let json = self.models_json();
                self.send(conn, &ServerFrame::ModelsJson { json });
            }
            ClientFrame::Trace { stream_id } => {
                let json = self.telemetry.trace_json(Some(conn), Some(stream_id));
                self.send(conn, &ServerFrame::TraceJson { json });
            }
            ClientFrame::Close { stream_id } => {
                let Some(state) = self.conns.get_mut(&conn) else {
                    return;
                };
                let Some(open) = state.streams.remove(&stream_id) else {
                    self.send_error(
                        conn,
                        ErrorCode::UnknownStream,
                        format!("stream {stream_id} is not open"),
                    );
                    return;
                };
                open.release();
                self.route(
                    self.shard_index(conn, stream_id),
                    ShardEvent::Close {
                        conn,
                        stream_id,
                        reason: CloseReason::ByClient,
                    },
                );
            }
            ClientFrame::PushN {
                channels,
                entries,
                samples,
            } => self.handle_push_n(conn, channels, &entries, samples),
            ClientFrame::LoadModel { path } => self.handle_load_model(conn, path),
        }
    }

    fn handle_open(&mut self, conn: ConnId, stream_id: u32, model: Option<String>) {
        if self.draining {
            self.send_error(
                conn,
                ErrorCode::ShuttingDown,
                "server is draining; no new streams",
            );
            return;
        }
        // One registry read resolves the model and the stream budget.
        let resolved = {
            let registry = self.telemetry.registry();
            let index = match &model {
                None => Some(registry.default),
                Some(name) => registry.position(name),
            };
            index.map(|index| {
                let entry = &registry.models[index];
                let open = OpenStream {
                    model: index,
                    last_activity: Instant::now(),
                    channels: entry.engine.input_channels(),
                    stats: Arc::clone(&entry.stats),
                };
                (open, registry.streams_open())
            })
        };
        let Some((open, streams_open)) = resolved else {
            let name = model.unwrap_or_default();
            self.send_error(
                conn,
                ErrorCode::UnknownModel,
                format!("no model named '{name}' in the registry"),
            );
            return;
        };
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        if state.streams.contains_key(&stream_id) {
            self.send_error(
                conn,
                ErrorCode::DuplicateStream,
                format!("stream {stream_id} is already open"),
            );
            return;
        }
        if streams_open >= self.config.max_streams as u64 {
            self.send_error(
                conn,
                ErrorCode::ServerFull,
                format!("server is at its {}-stream limit", self.config.max_streams),
            );
            return;
        }
        open.stats.streams_open.fetch_add(1, Ordering::Relaxed);
        let event = ShardEvent::Open {
            conn,
            stream_id,
            model: open.model,
            out: Arc::clone(&state.out),
            pending: Arc::clone(&state.pending),
        };
        state.streams.insert(stream_id, open);
        // Reply before routing: the stream's emissions can only follow the
        // OPEN down its shard's channel, so OPENED always precedes them.
        self.send(conn, &ServerFrame::Opened { stream_id });
        self.route(self.shard_index(conn, stream_id), event);
    }

    /// Admission for a PUSH_N, all-or-nothing: the channel count must
    /// match *each named stream's own model* (streams of differently-shaped
    /// models cannot share one frame), every stream must be open on this
    /// connection, and the connection must be under its pending-timestep
    /// cap. On success charges `count` to the pending counter. Every open
    /// stream the frame names counts as active, admitted or not.
    fn admit_push(
        &mut self,
        conn: ConnId,
        entries: &[(u32, u32)],
        channels: u32,
        count: usize,
    ) -> bool {
        let Some(state) = self.conns.get_mut(&conn) else {
            return false;
        };
        let now = Instant::now();
        let mut unknown = None;
        let mut mismatch = None;
        for &(sid, _) in entries {
            match state.streams.get_mut(&sid) {
                None => {
                    unknown = Some(sid);
                    break;
                }
                Some(open) => {
                    open.last_activity = now;
                    if channels as usize != open.channels {
                        mismatch = Some((sid, open.model, open.channels));
                        break;
                    }
                }
            }
        }
        if let Some(unknown) = unknown {
            self.send_error(
                conn,
                ErrorCode::UnknownStream,
                format!("stream {unknown} is not open"),
            );
            return false;
        }
        if let Some((sid, model, c_in)) = mismatch {
            let name = self.telemetry.registry().models[model].name.clone();
            let msg = format!(
                "PUSH_N carries {channels} channels, stream {sid}'s model '{name}' takes {c_in}"
            );
            self.send_error(conn, ErrorCode::BadFrame, msg);
            return false;
        }
        let Some(state) = self.conns.get(&conn) else {
            return false;
        };
        let conn_pending = state.pending.load(Ordering::Relaxed);
        if conn_pending + count > self.config.max_pending_per_conn {
            self.send_error(
                conn,
                ErrorCode::Backpressure,
                format!(
                    "connection has {conn_pending} timesteps pending, cap is {}",
                    self.config.max_pending_per_conn
                ),
            );
            return false;
        }
        state.pending.fetch_add(count, Ordering::Relaxed);
        true
    }

    fn handle_push_n(
        &mut self,
        conn: ConnId,
        channels: u32,
        entries: &[(u32, u32)],
        samples: Vec<f32>,
    ) {
        let total: usize = entries.iter().map(|&(_, count)| count as usize).sum();
        // Admission is all-or-nothing: one unknown stream or a cap overrun
        // rejects the whole frame, so a batch never half-applies.
        if !self.admit_push(conn, entries, channels, total) {
            return;
        }
        if let &[(stream_id, count)] = entries {
            // A one-entry frame's payload is that stream's samples: hand
            // them over as they are.
            self.route(
                self.shard_index(conn, stream_id),
                ShardEvent::Push {
                    conn,
                    stream_id,
                    count: count as usize,
                    samples,
                },
            );
            return;
        }
        for (stream_id, run) in entry_runs(channels, entries, &samples) {
            self.route(
                self.shard_index(conn, stream_id),
                ShardEvent::Push {
                    conn,
                    stream_id,
                    count: run.len() / channels as usize,
                    samples: run.to_vec(),
                },
            );
        }
    }

    /// LOAD_MODEL: add-or-replace-by-name. The artifact's plan name keys
    /// the registry — an unseen name *adds* the model beside the existing
    /// ones (other models keep serving their streams untouched); a known
    /// name atomically *replaces* that entry, refused while the named model
    /// itself has open streams so no live stream ever hops pools.
    fn handle_load_model(&mut self, conn: ConnId, path: String) {
        if self.draining {
            self.send_error(
                conn,
                ErrorCode::ShuttingDown,
                "server is draining; no model swaps",
            );
            return;
        }
        let artifact = match PlanArtifact::load(std::path::Path::new(&path)) {
            Ok(artifact) => artifact,
            Err(e) => {
                self.send_error(conn, ErrorCode::LoadFailed, e);
                return;
            }
        };
        let engine = ServeEngine::from_artifact(artifact);
        let name = engine.name();
        // Update the registry under its lock, then route with it released.
        let mut registry = self.telemetry.registry();
        if let Some(model) = registry.position(&name) {
            let entry = &mut registry.models[model];
            let open = entry.stats.streams_open.load(Ordering::Relaxed);
            if open > 0 {
                drop(registry);
                self.send_error(
                    conn,
                    ErrorCode::StreamsActive,
                    format!("model '{name}' has {open} open streams; drain it before replacing"),
                );
                return;
            }
            entry.engine = engine.clone();
            drop(registry);
            self.broadcast(|| ShardEvent::Swap {
                model,
                engine: engine.clone(),
            });
        } else {
            if registry.models.len() >= self.config.max_models {
                drop(registry);
                self.send_error(
                    conn,
                    ErrorCode::LoadFailed,
                    format!(
                        "registry is at its {}-model limit; replace an existing model instead",
                        self.config.max_models
                    ),
                );
                return;
            }
            let stats = Arc::new(ModelStats::default());
            registry.models.push(ModelEntry {
                name: name.clone(),
                engine: engine.clone(),
                stats: Arc::clone(&stats),
            });
            drop(registry);
            self.broadcast(|| ShardEvent::AddModel {
                engine: engine.clone(),
                stats: Arc::clone(&stats),
            });
        }
        self.send(conn, &ServerFrame::ModelLoaded { name });
    }

    /// The MODELS_JSON payload: one object per registry entry.
    fn models_json(&self) -> String {
        let n = |v: usize| Json::Num(v as f64);
        let registry = self.telemetry.registry();
        Json::Arr(
            registry
                .models
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(m.name.clone())),
                        ("kind".into(), Json::Str(m.engine.kind().into())),
                        ("input_channels".into(), n(m.engine.input_channels())),
                        ("output_dim".into(), n(m.engine.output_dim())),
                        ("receptive_field".into(), n(m.engine.receptive_field())),
                        (
                            "streams_open".into(),
                            n(m.stats.streams_open.load(Ordering::Relaxed) as usize),
                        ),
                        ("default".into(), Json::Bool(i == registry.default)),
                    ])
                })
                .collect(),
        )
        .render()
    }

    /// Removes a connection: releases its stream budget and tells every
    /// shard to close its streams. The socket closes when the state drops.
    /// `clean` distinguishes a client EOF from a transport/framing failure
    /// in the lifecycle counters.
    fn drop_conn(&mut self, conn: ConnId, clean: bool) {
        let Some(state) = self.conns.remove(&conn) else {
            return;
        };
        self.telemetry
            .edge
            .connections_open
            .fetch_sub(1, Ordering::Relaxed);
        let ended = if clean {
            &self.telemetry.edge.connections_closed
        } else {
            &self.telemetry.edge.connections_errored
        };
        ended.fetch_add(1, Ordering::Relaxed);
        for open in state.streams.into_values() {
            open.release();
        }
        self.broadcast(|| ShardEvent::Disconnected { conn });
        self.dead.push(conn);
    }

    /// Enforces [`ServerConfig::idle_timeout`]: every stream no OPEN or
    /// PUSH_N has named for the timeout leaves its connection's table,
    /// gives its budget slot back and is closed on its shard with
    /// `IdleEvicted`.
    fn evict_idle(&mut self) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let mut idle: Vec<(ConnId, u32, OpenStream)> = Vec::new();
        for (&conn, state) in &mut self.conns {
            let expired = state
                .streams
                .extract_if(|_, open| now.duration_since(open.last_activity) >= timeout);
            idle.extend(expired.map(|(stream_id, open)| (conn, stream_id, open)));
        }
        for (conn, stream_id, open) in idle {
            open.release();
            self.telemetry
                .edge
                .streams_evicted
                .fetch_add(1, Ordering::Relaxed);
            self.route(
                self.shard_index(conn, stream_id),
                ShardEvent::Close {
                    conn,
                    stream_id,
                    reason: CloseReason::IdleEvicted,
                },
            );
        }
    }

    /// Enforces [`ServerConfig::read_progress_timeout`]: kills connections
    /// whose partial frame has not completed within the deadline (the
    /// slow-loris shape: a header then a stall, or a one-byte drip that
    /// never finishes a frame) and streamless connections that completed
    /// no frame within it. Connections with open streams and clean frame
    /// boundaries are [`Edge::evict_idle`]'s business, not ours.
    fn expire_stalled(&mut self) {
        let Some(timeout) = self.config.read_progress_timeout else {
            return;
        };
        let now = Instant::now();
        let stalled: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|&(_, state)| {
                let partial_stalled = state
                    .partial_since
                    .is_some_and(|since| now.duration_since(since) >= timeout);
                let frameless_idle =
                    state.streams.is_empty() && now.duration_since(state.last_frame) >= timeout;
                partial_stalled || frameless_idle
            })
            .map(|(&conn, _)| conn)
            .collect();
        for conn in stalled {
            self.telemetry
                .edge
                .connections_expired
                .fetch_add(1, Ordering::Relaxed);
            self.drop_conn(conn, false);
        }
    }

    /// Drains every connection's outbuf as far as the sockets allow,
    /// dropping connections whose transport failed.
    fn flush_writes(&mut self) {
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for conn in ids {
            let Some(state) = self.conns.get_mut(&conn) else {
                continue;
            };
            if !state.want_write && !state.out.has_pending() {
                continue;
            }
            if self
                .config
                .faults
                .as_ref()
                .is_some_and(|f| f.pre_write_skip())
            {
                // Pretend the socket is full: keep POLLOUT interest so the
                // next poll iteration retries, exactly like a real stall.
                state.want_write = true;
                continue;
            }
            match state.out.write_to(&mut &state.stream) {
                Ok(pending) => state.want_write = pending,
                Err(_) => self.drop_conn(conn, false),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public server API
// ---------------------------------------------------------------------------

/// A bound (not yet running) serving daemon.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    wake_pipe: WakePipe,
    waker: Waker,
    addr: SocketAddr,
    /// The hub that owns the registry and every counter block.
    telemetry: Arc<Telemetry>,
    /// The HTTP sidecar's bound listener, when `metrics_addr` was set.
    metrics: Option<(TcpListener, SocketAddr)>,
}

impl Server {
    /// Binds the configured address with a one-model registry named after
    /// the engine's plan. The server does not accept connections until
    /// [`Server::run`] or [`Server::spawn`].
    ///
    /// # Errors
    ///
    /// Returns the bind error, if any.
    pub fn bind(engine: ServeEngine, config: ServerConfig) -> std::io::Result<Self> {
        let name = engine.name();
        Self::bind_models(vec![(name.clone(), engine)], &name, config)
            .map_err(std::io::Error::other)
    }

    /// Binds with a multi-model registry. `models` become the registry in
    /// order; `default` names the entry a model-less OPEN gets.
    ///
    /// # Errors
    ///
    /// Returns a message when the registry is empty, a name repeats,
    /// `default` names no entry, the registry exceeds
    /// [`ServerConfig::max_models`], or a bind (the serving address or the
    /// telemetry sidecar's) fails.
    pub fn bind_models(
        models: Vec<(String, ServeEngine)>,
        default: &str,
        config: ServerConfig,
    ) -> Result<Self, String> {
        if models.is_empty() {
            return Err("model registry is empty".into());
        }
        if models.len() > config.max_models {
            return Err(format!(
                "{} models exceed the {}-model registry cap",
                models.len(),
                config.max_models
            ));
        }
        for (i, (name, _)) in models.iter().enumerate() {
            if models[..i].iter().any(|(other, _)| other == name) {
                return Err(format!("duplicate model name '{name}'"));
            }
        }
        let default_model = models
            .iter()
            .position(|(name, _)| name == default)
            .ok_or_else(|| format!("default model '{default}' is not in the registry"))?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let metrics = match &config.metrics_addr {
            None => None,
            Some(metrics_addr) => {
                let listener = TcpListener::bind(metrics_addr)
                    .map_err(|e| format!("cannot bind metrics sidecar {metrics_addr}: {e}"))?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                Some((listener, addr))
            }
        };
        let (wake_pipe, waker) = WakePipe::new().map_err(|e| e.to_string())?;
        let registry = Registry {
            models: models
                .into_iter()
                .map(|(name, engine)| ModelEntry {
                    name,
                    engine,
                    stats: Arc::default(),
                })
                .collect(),
            default: default_model,
        };
        let telemetry = Arc::new(Telemetry::new(registry, config.shards.max(1)));
        Ok(Self {
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake_pipe,
            waker,
            addr,
            telemetry,
            metrics,
        })
    }

    /// Loads a `pit-arch/2` artifact file and binds — the one-call boot
    /// path of the `pit-serve` binary.
    ///
    /// # Errors
    ///
    /// Returns a message on artifact or bind failures.
    pub fn bind_artifact(path: &std::path::Path, config: ServerConfig) -> Result<Self, String> {
        let artifact = PlanArtifact::load(path)?;
        let engine = ServeEngine::from_artifact(artifact);
        let name = engine.name();
        Self::bind_models(vec![(name.clone(), engine)], &name, config)
    }

    /// Loads a whole model-zoo library — a `pit-zoo/1` manifest plus its
    /// artifact files — and binds with every listed model registered under
    /// its manifest name, defaulting to the manifest's `default` entry.
    ///
    /// # Errors
    ///
    /// Returns a message on manifest, artifact or bind failures.
    pub fn bind_zoo(manifest_path: &std::path::Path, config: ServerConfig) -> Result<Self, String> {
        Self::bind_zoo_with_default(manifest_path, None, config)
    }

    /// [`Server::bind_zoo`] with the manifest's default entry overridden by
    /// `default` when given (the `pit-serve --default-model` flag).
    ///
    /// # Errors
    ///
    /// As [`Server::bind_zoo`], plus when `default` names no manifest entry.
    pub fn bind_zoo_with_default(
        manifest_path: &std::path::Path,
        default: Option<&str>,
        config: ServerConfig,
    ) -> Result<Self, String> {
        let (manifest, base) = ZooManifest::load(manifest_path)?;
        let mut models = Vec::with_capacity(manifest.models.len());
        for entry in &manifest.models {
            let path = entry.artifact_path(&base);
            let artifact =
                PlanArtifact::load(&path).map_err(|e| format!("model '{}': {e}", entry.name))?;
            models.push((entry.name.clone(), ServeEngine::from_artifact(artifact)));
        }
        Self::bind_models(models, default.unwrap_or(&manifest.default), config)
    }

    /// The actually-bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP telemetry sidecar's bound address, when
    /// [`ServerConfig::metrics_addr`] was set (resolves `:0` to the
    /// ephemeral port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|(_, addr)| *addr)
    }

    /// `(name, kind)` of every registry model in registry order, the
    /// default entry first-class nowhere — pair with [`Server::default_model_name`].
    pub fn model_names(&self) -> Vec<(String, &'static str)> {
        self.telemetry
            .registry()
            .models
            .iter()
            .map(|m| (m.name.clone(), m.engine.kind()))
            .collect()
    }

    /// Name of the model a model-less OPEN selects.
    pub fn default_model_name(&self) -> String {
        let registry = self.telemetry.registry();
        registry.models[registry.default].name.clone()
    }

    /// Runs the daemon on a background thread, returning a handle for
    /// shutdown.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let metrics_addr = self.metrics_addr();
        let shutdown = Arc::clone(&self.shutdown);
        let waker = self.waker.clone();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            metrics_addr,
            shutdown,
            waker,
            thread,
        }
    }

    /// Runs the edge loop on the calling thread until shutdown is
    /// requested (via a handle created before with [`Server::spawn`] — when
    /// calling `run` directly the process typically serves until killed).
    /// Returns the final stats snapshot after a graceful drain.
    pub fn run(mut self) -> StatsSnapshot {
        let telemetry = Arc::clone(&self.telemetry);
        let shards = telemetry.shards.len();
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_threads = Vec::with_capacity(shards);
        for index in 0..shards {
            // Unbounded on purpose: the edge must never block. Depth stays
            // bounded anyway — PUSH events are capped by the per-connection
            // pending counters *before* forwarding, and control events are
            // a handful per connection.
            let (tx, rx) = mpsc::channel::<ShardEvent>();
            let shard = Shard::new(
                index,
                &self.config,
                Arc::clone(&telemetry),
                self.waker.clone(),
            );
            shard_txs.push(tx);
            shard_threads.push(std::thread::spawn(move || shard.run(rx)));
        }
        self.listener
            .set_nonblocking(true)
            .expect("listener nonblocking");

        // The HTTP sidecar gets its own thread and wake pipe: it serves
        // scrapes without ever touching the edge loop's latency.
        let mut sidecar: Option<(Arc<AtomicBool>, Waker, JoinHandle<()>)> = None;
        if let Some((metrics_listener, _)) = self.metrics.take() {
            let stop = Arc::new(AtomicBool::new(false));
            let (pipe, sidecar_waker) = WakePipe::new().expect("sidecar wake pipe");
            let sidecar_telemetry = Arc::clone(&telemetry);
            let sidecar_stop = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                http::serve(metrics_listener, pipe, sidecar_stop, sidecar_telemetry);
            });
            sidecar = Some((stop, sidecar_waker, thread));
        }

        let mut edge = Edge {
            config: self.config,
            conns: HashMap::new(),
            shard_txs,
            telemetry: Arc::clone(&telemetry),
            draining: false,
            next_conn: 0,
            read_buf: vec![0u8; 64 * 1024],
            dead: Vec::new(),
        };
        telemetry.set_state(ServeState::Serving);

        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<ConnId> = Vec::new();
        // When set, a graceful drain is underway: keep reading and
        // flushing (OPENs are already refused) until the grace deadline.
        let mut drain_deadline: Option<Instant> = None;
        loop {
            fds.clear();
            ids.clear();
            fds.push(pollfd(self.wake_pipe.fd(), POLLIN));
            fds.push(pollfd(self.listener.as_raw_fd(), POLLIN));
            for (&conn, state) in &edge.conns {
                let mut events = POLLIN;
                if state.want_write {
                    events |= POLLOUT;
                }
                fds.push(pollfd(state.stream.as_raw_fd(), events));
                ids.push(conn);
            }
            let poll_start = Instant::now();
            let _ = poll_fds(&mut fds, EDGE_POLL_MS);
            let dispatch_start = Instant::now();
            telemetry
                .edge_poll_ns
                .record(dispatch_start.duration_since(poll_start).as_nanos() as u64);
            self.wake_pipe.drain();
            if self.shutdown.load(Ordering::SeqCst) && drain_deadline.is_none() {
                // Flip to draining *before* tearing anything down: load
                // balancers polling /healthz see 503 while reads are still
                // served, for as long as the configured grace.
                edge.draining = true;
                telemetry.set_state(ServeState::Draining);
                drain_deadline = Some(Instant::now() + edge.config.drain_grace);
            }
            if let Some(deadline) = drain_deadline {
                if Instant::now() >= deadline {
                    break;
                }
            }
            if fds[1].revents & (POLLIN | POLLERR) != 0 {
                edge.accept_loop(&self.listener);
            }
            for (i, &conn) in ids.iter().enumerate() {
                if fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    edge.read_conn(conn);
                }
            }
            edge.expire_stalled();
            edge.evict_idle();
            edge.flush_writes();
            edge.dead.clear();
            telemetry
                .edge_dispatch_ns
                .record(dispatch_start.elapsed().as_nanos() as u64);
        }

        // Graceful drain. 1) Sweep bytes clients already got onto the wire
        // so queued PUSHes become final emissions (new OPENs and swaps are
        // refused from here).
        edge.draining = true;
        telemetry.set_state(ServeState::Draining);
        let ids: Vec<ConnId> = edge.conns.keys().copied().collect();
        for conn in ids {
            edge.read_conn(conn);
        }
        // 2) Close the shard channels: each shard finishes its routed
        // events, flushes pending timesteps, writes final emissions and
        // CLOSED frames into the outbufs, and exits.
        drop(edge.shard_txs.drain(..).collect::<Vec<_>>());
        for thread in shard_threads {
            let _ = thread.join();
        }
        // Connections still open now outlived the drain.
        telemetry
            .edge
            .connections_drained
            .fetch_add(edge.conns.len() as u64, Ordering::Relaxed);
        let snapshot = telemetry.snapshot();
        // 3) Hand the buffered frames to the clients, within reason.
        let deadline = Instant::now() + DRAIN_FLUSH_TIMEOUT;
        loop {
            edge.flush_writes();
            let mut blocked: Vec<PollFd> = Vec::new();
            for state in edge.conns.values() {
                if state.out.has_pending() {
                    blocked.push(pollfd(state.stream.as_raw_fd(), POLLOUT));
                }
            }
            if blocked.is_empty() || Instant::now() >= deadline {
                break;
            }
            let _ = poll_fds(&mut blocked, 50);
        }
        if let Some((stop, sidecar_waker, thread)) = sidecar {
            stop.store(true, Ordering::SeqCst);
            sidecar_waker.wake();
            let _ = thread.join();
        }
        snapshot
    }
}

/// Handle to a running server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: JoinHandle<StatsSnapshot>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP telemetry sidecar's bound address, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Requests a graceful drain without waiting for it: the daemon flips
    /// to the draining state (refusing new streams, `/healthz` turns 503)
    /// and keeps serving reads for [`ServerConfig::drain_grace`] before
    /// tearing down. Call [`ServerHandle::shutdown`] to wait for the exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Requests a graceful drain — queued timesteps are flushed, final
    /// emissions delivered, streams closed with a CLOSED frame — and waits
    /// for the daemon to exit. Returns the final stats.
    pub fn shutdown(self) -> StatsSnapshot {
        self.request_shutdown();
        self.thread.join().expect("server thread")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_pinning_is_stable_and_spreads() {
        // Stability: the same (conn, stream) always lands on the same shard.
        for conn in 0..50u64 {
            for sid in 0..50u32 {
                let a = shard_of(conn, sid, 4);
                assert_eq!(a, shard_of(conn, sid, 4));
                assert!(a < 4);
            }
        }
        // Spread: 1024 consecutive streams of one connection cover all
        // shards reasonably evenly (no shard under half its fair share).
        let mut counts = [0usize; 4];
        for sid in 0..1024u32 {
            counts[shard_of(7, sid, 4)] += 1;
        }
        for &c in &counts {
            assert!(c > 128, "unbalanced shard assignment: {counts:?}");
        }
    }
}
