//! The `pit-serve` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `u32` little-endian *body length* followed by the body:
//! one opcode byte plus an opcode-specific payload. All integers are
//! little-endian; samples and emissions are `f32` little-endian. One
//! connection multiplexes many streams — the client names each stream with
//! its own `u32` id, scoped to the connection.
//!
//! | dir | opcode | frame        | payload                                            |
//! |-----|--------|--------------|----------------------------------------------------|
//! | →   | `0x01` | OPEN         | `u32` stream id \[, `u16` name len, UTF-8 model name\] |
//! | →   | `0x03` | CLOSE        | `u32` stream id                                    |
//! | →   | `0x04` | PING         | `u64` token                                        |
//! | →   | `0x05` | STATS        | —                                                  |
//! | →   | `0x06` | LOAD_MODEL   | UTF-8 artifact path                                |
//! | →   | `0x07` | PUSH_N       | `u32` channels, `u32` n, n×(`u32` stream, `u32` count), samples |
//! | →   | `0x08` | LIST_MODELS  | —                                                  |
//! | →   | `0x09` | TRACE        | `u32` stream id                                    |
//! | ←   | `0x81` | OPENED       | `u32` stream id                                    |
//! | ←   | `0x83` | CLOSED       | `u32` stream id, `u8` reason                       |
//! | ←   | `0x84` | PONG         | `u64` token                                        |
//! | ←   | `0x85` | STATS_JSON   | UTF-8 JSON (a [`crate::StatsSnapshot`])            |
//! | ←   | `0x86` | MODEL_LOADED | UTF-8 plan name                                    |
//! | ←   | `0x87` | EMIT_N       | `u32` dim, `u32` n, n×(`u32` stream, `u32` count), outputs |
//! | ←   | `0x88` | MODELS_JSON  | UTF-8 JSON (model registry metadata)               |
//! | ←   | `0x89` | TRACE_JSON   | UTF-8 JSON (a `pit-serve-trace/1` document)        |
//! | ←   | `0xFF` | ERROR        | `u8` code, UTF-8 message                           |
//!
//! ## Stream data: PUSH_N and EMIT_N
//!
//! `PUSH_N` and `EMIT_N` are the only frames that carry stream data. One
//! frame carries timesteps for any number of streams — a single stream is
//! a one-entry frame — amortizing the length prefix, opcode dispatch and
//! the per-frame syscalls across a whole fleet of streams on the
//! connection. Samples/outputs are concatenated in entry order, each entry
//! contributing `count × channels` (resp. `count × dim`) values,
//! timestep-major; [`entry_runs`] walks that layout. The server coalesces
//! each wave's emissions into one `EMIT_N` per connection and model.
//! Opcodes `0x02`/`0x82` (the retired single-stream PUSH/EMIT frames) decode
//! as unknown opcodes.
//!
//! ## Protocol v3: the model zoo
//!
//! v3 makes the daemon multi-model. `OPEN` grows an *optional* trailing
//! model-name field — `u16` LE length then that many UTF-8 bytes, selecting
//! which registry entry serves the stream. A 5-byte OPEN body means "the
//! default model"; a name the registry does not hold is refused with
//! [`ErrorCode::UnknownModel`]. A zero-length or length-mismatched name
//! field is malformed ([`ErrorCode::BadFrame`]). `LIST_MODELS` (`0x08`,
//! empty payload) asks for the registry: the `MODELS_JSON` (`0x88`) reply
//! carries one JSON object per model (name, kind, channels/dim, receptive
//! field, open-stream gauge, default flag).
//!
//! `LOAD_MODEL` is re-specified as **add-or-replace-by-name**: loading an
//! artifact whose plan name is new *adds* it to the registry (even while
//! other models serve streams); loading one whose name already exists
//! atomically *replaces* that entry — refused with
//! [`ErrorCode::StreamsActive`] while the named model itself has open
//! streams, so no stream ever hops pools mid-life. Pre-v3 daemons served
//! exactly one model, for which these semantics degenerate to the old
//! whole-daemon swap.
//!
//! ## Reply order
//!
//! Two kinds of thread write into a connection's reply stream: the *edge*,
//! which decodes the connection's requests in arrival order and answers
//! or admits each one, and the *shard* serving a stream, which runs its
//! waves. Which one writes each frame:
//!
//! | frame        | written by | when |
//! |--------------|------------|------|
//! | OPENED       | edge  | the OPEN is admitted (before it is routed to the shard) |
//! | PONG, STATS_JSON, MODELS_JSON, TRACE_JSON, MODEL_LOADED | edge | the request is handled |
//! | ERROR        | edge  | a request is malformed or refused (every code) |
//! | EMIT_N       | shard | a wave flushed the stream's timesteps |
//! | CLOSED       | shard | after the stream's final EMIT_N (CLOSE, idle eviction, drain) |
//!
//! The order that holds on one connection:
//!
//! * Replies the edge writes follow request order: the reply to request
//!   *N* precedes the reply to request *N + 1*. Every ERROR is one of
//!   them, including the `UnknownStream` of a PUSH_N or CLOSE that names a
//!   stream the edge has already evicted.
//! * For one stream, OPENED comes before its EMIT_N entries, and those come
//!   before its CLOSED.
//! * Frames a shard writes (EMIT_N, CLOSED) have no fixed order against
//!   later replies from the edge: a PONG can overtake the emissions of an
//!   earlier PUSH_N, and the OPENED of a re-used stream id can overtake the
//!   CLOSED of its previous incarnation — wait for CLOSED before
//!   re-opening an id.
//!
//! Decoding is defensive by construction: bodies are bounded by
//! [`MAX_FRAME_BODY`] before any allocation, every multi-byte field checks
//! the remaining length, and a malformed body yields a [`FrameError`] — the
//! daemon replies with an ERROR frame instead of dying. Only a length
//! prefix beyond the bound is fatal to the connection (framing can no
//! longer be trusted), and even that never takes the daemon down.

use std::io::Read;

/// Upper bound on one frame body. Large enough for a burst PUSH_N of
/// thousands of wide timesteps; small enough that a hostile length prefix
/// cannot make the daemon allocate unbounded memory.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Upper bound on an OPEN model name in bytes — the field carries a `u16`
/// length prefix, so this is the longest name the wire can represent. The
/// client API refuses longer (or empty) names with a protocol error
/// instead of truncating the length and emitting a malformed frame.
pub const MAX_MODEL_NAME: usize = u16::MAX as usize;

/// Why the server closed a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The client asked (CLOSE frame).
    ByClient = 0,
    /// Evicted after the configured idle timeout.
    IdleEvicted = 1,
    /// Server drained the stream during graceful shutdown.
    Drained = 2,
}

impl CloseReason {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(CloseReason::ByClient),
            1 => Some(CloseReason::IdleEvicted),
            2 => Some(CloseReason::Drained),
            _ => None,
        }
    }
}

/// Error codes carried by ERROR frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame body (truncated fields, bad counts, bad UTF-8).
    BadFrame = 1,
    /// Opcode the server does not understand.
    UnknownOpcode = 2,
    /// PUSH_N/CLOSE for a stream id that was never opened (or already closed).
    UnknownStream = 3,
    /// OPEN for a stream id already open on this connection.
    DuplicateStream = 4,
    /// The connection's pending-timestep backpressure cap was hit; the PUSH_N
    /// was dropped — flush emissions before pushing more.
    Backpressure = 5,
    /// The server-wide stream limit was hit.
    ServerFull = 6,
    /// LOAD_MODEL failed (unreadable file, corrupt artifact).
    LoadFailed = 7,
    /// LOAD_MODEL replace rejected because the named model has open streams.
    StreamsActive = 8,
    /// The server is draining; no new work accepted.
    ShuttingDown = 9,
    /// OPEN named a model the registry does not hold.
    UnknownModel = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::UnknownOpcode),
            3 => Some(ErrorCode::UnknownStream),
            4 => Some(ErrorCode::DuplicateStream),
            5 => Some(ErrorCode::Backpressure),
            6 => Some(ErrorCode::ServerFull),
            7 => Some(ErrorCode::LoadFailed),
            8 => Some(ErrorCode::StreamsActive),
            9 => Some(ErrorCode::ShuttingDown),
            10 => Some(ErrorCode::UnknownModel),
            _ => None,
        }
    }
}

/// A frame the client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Open a stream under a connection-scoped id of the client's choosing.
    Open {
        /// Connection-scoped stream id.
        stream_id: u32,
        /// Protocol v3: which registry model serves the stream. `None`
        /// encodes the 5-byte v1 body and means the server's default model.
        model: Option<String>,
    },
    /// Close a stream in an orderly way: timesteps already pushed are
    /// flushed and their emissions delivered before the CLOSED reply, then
    /// the pool slot is recycled.
    Close {
        /// Connection-scoped stream id.
        stream_id: u32,
    },
    /// Liveness / latency probe; the server echoes the token.
    Ping {
        /// Echo token.
        token: u64,
    },
    /// Request a [`crate::StatsSnapshot`] as JSON.
    Stats,
    /// Load a `pit-arch/2` artifact into the registry under its plan name:
    /// a new name is added beside the existing models, an existing name is
    /// atomically replaced (refused while that model has open streams).
    LoadModel {
        /// Path to a `pit-arch/2` artifact on the server host.
        path: String,
    },
    /// Push timesteps for one or more open streams in one frame — the
    /// only frame that carries samples.
    PushN {
        /// Channels per timestep (must match the served plan).
        channels: u32,
        /// `(stream_id, timestep count)` per stream, in payload order.
        entries: Vec<(u32, u32)>,
        /// Concatenated samples: `Σ countᵢ × channels` values, entry-major
        /// then timestep-major.
        samples: Vec<f32>,
    },
    /// Protocol v3: request the model registry as a
    /// [`ServerFrame::ModelsJson`] reply.
    ListModels,
    /// Protocol v4: request the daemon's per-stream event trace, filtered
    /// to this connection's given stream id, as a
    /// [`ServerFrame::TraceJson`] reply.
    Trace {
        /// Connection-scoped stream id to filter the trace to.
        stream_id: u32,
    },
}

/// A frame the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// OPEN accepted.
    Opened {
        /// The stream id from the OPEN frame.
        stream_id: u32,
    },
    /// A stream ended (client request, idle eviction or server drain).
    Closed {
        /// Connection-scoped stream id.
        stream_id: u32,
        /// Why the stream ended.
        reason: CloseReason,
    },
    /// PING reply.
    Pong {
        /// The token from the PING frame.
        token: u64,
    },
    /// STATS reply.
    StatsJson {
        /// A rendered [`crate::StatsSnapshot`].
        json: String,
    },
    /// LOAD_MODEL succeeded.
    ModelLoaded {
        /// Name of the now-served plan.
        name: String,
    },
    /// One wave's emissions for one or more streams of the connection —
    /// the only frame that carries head outputs.
    EmitN {
        /// Values per output vector.
        dim: u32,
        /// `(stream_id, output-vector count)` per stream, in payload order.
        entries: Vec<(u32, u32)>,
        /// Concatenated outputs: `Σ countᵢ × dim` values, entry-major then
        /// chronological per stream.
        outputs: Vec<f32>,
    },
    /// Protocol v3: LIST_MODELS reply — a JSON array of registry entries
    /// (the wire form behind [`crate::ModelInfo`]).
    ModelsJson {
        /// Rendered JSON array, one object per model.
        json: String,
    },
    /// Protocol v4: TRACE reply — a `pit-serve-trace/1` JSON document (the
    /// wire form behind [`crate::TraceEvent`]).
    TraceJson {
        /// Rendered trace document.
        json: String,
    },
    /// A request failed; the connection stays usable unless the transport
    /// itself broke.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Empty body (no opcode byte).
    Empty,
    /// Opcode outside the protocol.
    UnknownOpcode(u8),
    /// Body shorter/longer than its opcode's payload demands, or field
    /// values that contradict the body length.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Empty => write!(f, "empty frame body"),
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn frame(body: Vec<u8>) -> Vec<u8> {
    debug_assert!(body.len() <= MAX_FRAME_BODY);
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn put_f32s(body: &mut Vec<u8>, values: &[f32]) {
    body.reserve(values.len() * 4);
    for v in values {
        body.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a client frame, length prefix included.
///
/// # Panics
///
/// Panics if an [`ClientFrame::Open`] carries an empty or
/// longer-than-[`MAX_MODEL_NAME`] model name; the [`crate::Client`] API
/// rejects such names with a [`crate::ServeError::Protocol`] before they
/// can reach the encoder.
pub fn encode_client(f: &ClientFrame) -> Vec<u8> {
    let mut body = Vec::new();
    match f {
        ClientFrame::Open { stream_id, model } => {
            body.push(0x01);
            body.extend_from_slice(&stream_id.to_le_bytes());
            if let Some(name) = model {
                // `Client::send` refuses these with a proper error before
                // encoding; the raw encoder still hard-guards so a release
                // build can never length-truncate into a malformed frame.
                assert!(
                    !name.is_empty() && name.len() <= MAX_MODEL_NAME,
                    "OPEN model name must be 1..={MAX_MODEL_NAME} bytes, got {}",
                    name.len()
                );
                body.extend_from_slice(&(name.len() as u16).to_le_bytes());
                body.extend_from_slice(name.as_bytes());
            }
        }
        ClientFrame::Close { stream_id } => {
            body.push(0x03);
            body.extend_from_slice(&stream_id.to_le_bytes());
        }
        ClientFrame::Ping { token } => {
            body.push(0x04);
            body.extend_from_slice(&token.to_le_bytes());
        }
        ClientFrame::Stats => body.push(0x05),
        ClientFrame::LoadModel { path } => {
            body.push(0x06);
            body.extend_from_slice(path.as_bytes());
        }
        ClientFrame::PushN {
            channels,
            entries,
            samples,
        } => {
            body.push(0x07);
            body.extend_from_slice(&channels.to_le_bytes());
            put_entries(&mut body, entries);
            put_f32s(&mut body, samples);
        }
        ClientFrame::ListModels => body.push(0x08),
        ClientFrame::Trace { stream_id } => {
            body.push(0x09);
            body.extend_from_slice(&stream_id.to_le_bytes());
        }
    }
    frame(body)
}

fn put_entries(body: &mut Vec<u8>, entries: &[(u32, u32)]) {
    body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (stream_id, count) in entries {
        body.extend_from_slice(&stream_id.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
    }
}

/// Walks the entry layout PUSH_N and EMIT_N share: yields each entry's
/// `(stream_id, values)` in payload order, where `values` is that entry's
/// `count × width` run of the concatenated payload (`width` is the frame's
/// channels or dim). A decoded frame always holds exactly `Σ countᵢ ×
/// width` values; on a hand-built frame holding fewer, the walk stops at
/// the first entry that runs past the end.
///
/// ```
/// use pit_serve::protocol::entry_runs;
///
/// let runs: Vec<(u32, &[f32])> =
///     entry_runs(2, &[(7, 1), (9, 2)], &[0.5, -0.5, 1.0, 2.0, 3.0, 4.0]).collect();
/// assert_eq!(runs[0], (7, &[0.5, -0.5][..]));
/// assert_eq!(runs[1], (9, &[1.0, 2.0, 3.0, 4.0][..]));
/// ```
pub fn entry_runs<'a>(
    width: u32,
    entries: &'a [(u32, u32)],
    values: &'a [f32],
) -> impl Iterator<Item = (u32, &'a [f32])> + 'a {
    let mut offset = 0usize;
    entries.iter().map_while(move |&(stream_id, count)| {
        let end = (count as usize)
            .checked_mul(width as usize)
            .and_then(|len| offset.checked_add(len))?;
        let run = values.get(offset..end)?;
        offset = end;
        Some((stream_id, run))
    })
}

/// Encodes a server frame, length prefix included.
pub fn encode_server(f: &ServerFrame) -> Vec<u8> {
    let mut body = Vec::new();
    match f {
        ServerFrame::Opened { stream_id } => {
            body.push(0x81);
            body.extend_from_slice(&stream_id.to_le_bytes());
        }
        ServerFrame::Closed { stream_id, reason } => {
            body.push(0x83);
            body.extend_from_slice(&stream_id.to_le_bytes());
            body.push(*reason as u8);
        }
        ServerFrame::Pong { token } => {
            body.push(0x84);
            body.extend_from_slice(&token.to_le_bytes());
        }
        ServerFrame::StatsJson { json } => {
            body.push(0x85);
            body.extend_from_slice(json.as_bytes());
        }
        ServerFrame::ModelLoaded { name } => {
            body.push(0x86);
            body.extend_from_slice(name.as_bytes());
        }
        ServerFrame::EmitN {
            dim,
            entries,
            outputs,
        } => {
            body.push(0x87);
            body.extend_from_slice(&dim.to_le_bytes());
            put_entries(&mut body, entries);
            put_f32s(&mut body, outputs);
        }
        ServerFrame::ModelsJson { json } => {
            body.push(0x88);
            body.extend_from_slice(json.as_bytes());
        }
        ServerFrame::TraceJson { json } => {
            body.push(0x89);
            body.extend_from_slice(json.as_bytes());
        }
        ServerFrame::Error { code, message } => {
            body.push(0xFF);
            body.push(*code as u8);
            body.extend_from_slice(message.as_bytes());
        }
    }
    frame(body)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.body.len() - self.pos < n {
            return Err(FrameError::Malformed(format!(
                "truncated before {what} ({} of {n} bytes left)",
                self.body.len() - self.pos
            )));
        }
        let slice = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }

    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, FrameError> {
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn rest_utf8(&mut self, what: &str) -> Result<String, FrameError> {
        let bytes = &self.body[self.pos..];
        self.pos = self.body.len();
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed(format!("{what} is not valid UTF-8")))
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.body.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes",
                self.body.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decodes a PUSH_N/EMIT_N `(stream, count)` entry list. The entry count is
/// attacker-controlled: it is bounded against the remaining bytes *before*
/// any allocation, each entry must carry at least one timestep, and the
/// checked sum `Σ countᵢ × width` is returned for the payload read.
fn take_entries(
    c: &mut Cursor,
    width: u32,
    what: &str,
) -> Result<(Vec<(u32, u32)>, usize), FrameError> {
    let n = c.u32("entry count")?;
    if n == 0 {
        return Err(FrameError::Malformed(format!("{what} with zero entries")));
    }
    if u64::from(n) * 8 > c.remaining() as u64 {
        return Err(FrameError::Malformed(format!(
            "{what} claims {n} entries, beyond the body length"
        )));
    }
    let mut entries = Vec::with_capacity(n as usize);
    let mut total: u128 = 0;
    for _ in 0..n {
        let stream_id = c.u32("entry stream id")?;
        let count = c.u32("entry count field")?;
        if count == 0 {
            return Err(FrameError::Malformed(format!(
                "{what} entry for stream {stream_id} has zero timesteps"
            )));
        }
        total += u128::from(count) * u128::from(width);
        entries.push((stream_id, count));
    }
    if total * 4 > MAX_FRAME_BODY as u128 {
        return Err(FrameError::Malformed(format!(
            "{what} claims {total} values, beyond the frame bound"
        )));
    }
    Ok((entries, total as usize))
}

/// Decodes one client frame body (without the length prefix).
///
/// # Errors
///
/// Returns a [`FrameError`] on unknown opcodes or payloads that do not
/// match their opcode's layout; the connection remains usable.
pub fn decode_client(body: &[u8]) -> Result<ClientFrame, FrameError> {
    let mut c = Cursor { body, pos: 0 };
    let op = c.u8("opcode").map_err(|_| FrameError::Empty)?;
    let frame = match op {
        0x01 => {
            let stream_id = c.u32("stream id")?;
            // v3: an optional trailing length-prefixed model name; a bare
            // 5-byte body is the v1 form and selects the default model.
            let model =
                if c.remaining() == 0 {
                    None
                } else {
                    let len = c.u16("model name length")? as usize;
                    if len == 0 {
                        return Err(FrameError::Malformed("OPEN with empty model name".into()));
                    }
                    let bytes = c.take(len, "model name")?;
                    Some(String::from_utf8(bytes.to_vec()).map_err(|_| {
                        FrameError::Malformed("model name is not valid UTF-8".into())
                    })?)
                };
            ClientFrame::Open { stream_id, model }
        }
        0x03 => ClientFrame::Close {
            stream_id: c.u32("stream id")?,
        },
        0x04 => ClientFrame::Ping {
            token: c.u64("token")?,
        },
        0x05 => ClientFrame::Stats,
        0x06 => ClientFrame::LoadModel {
            path: c.rest_utf8("path")?,
        },
        0x07 => {
            let channels = c.u32("channels")?;
            if channels == 0 {
                return Err(FrameError::Malformed("PUSH_N with zero channels".into()));
            }
            let (entries, total) = take_entries(&mut c, channels, "PUSH_N")?;
            ClientFrame::PushN {
                channels,
                entries,
                samples: c.f32s(total, "samples")?,
            }
        }
        0x08 => ClientFrame::ListModels,
        0x09 => ClientFrame::Trace {
            stream_id: c.u32("stream id")?,
        },
        other => return Err(FrameError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Decodes one server frame body (without the length prefix).
///
/// # Errors
///
/// As [`decode_client`].
pub fn decode_server(body: &[u8]) -> Result<ServerFrame, FrameError> {
    let mut c = Cursor { body, pos: 0 };
    let op = c.u8("opcode").map_err(|_| FrameError::Empty)?;
    let frame = match op {
        0x81 => ServerFrame::Opened {
            stream_id: c.u32("stream id")?,
        },
        0x83 => {
            let stream_id = c.u32("stream id")?;
            let reason = c.u8("reason")?;
            ServerFrame::Closed {
                stream_id,
                reason: CloseReason::from_u8(reason)
                    .ok_or_else(|| FrameError::Malformed(format!("bad close reason {reason}")))?,
            }
        }
        0x84 => ServerFrame::Pong {
            token: c.u64("token")?,
        },
        0x85 => ServerFrame::StatsJson {
            json: c.rest_utf8("stats json")?,
        },
        0x86 => ServerFrame::ModelLoaded {
            name: c.rest_utf8("name")?,
        },
        0x87 => {
            let dim = c.u32("dim")?;
            if dim == 0 {
                return Err(FrameError::Malformed("EMIT_N with zero dim".into()));
            }
            let (entries, total) = take_entries(&mut c, dim, "EMIT_N")?;
            ServerFrame::EmitN {
                dim,
                entries,
                outputs: c.f32s(total, "outputs")?,
            }
        }
        0x88 => ServerFrame::ModelsJson {
            json: c.rest_utf8("models json")?,
        },
        0x89 => ServerFrame::TraceJson {
            json: c.rest_utf8("trace json")?,
        },
        0xFF => {
            let code = c.u8("error code")?;
            ServerFrame::Error {
                code: ErrorCode::from_u8(code)
                    .ok_or_else(|| FrameError::Malformed(format!("bad error code {code}")))?,
                message: c.rest_utf8("message")?,
            }
        }
        other => return Err(FrameError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Frame reading
// ---------------------------------------------------------------------------

/// One `poll` result of a [`FrameReader`].
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The read timed out (or would block) mid-frame; call again.
    WouldBlock,
    /// The peer closed the connection.
    Eof,
}

/// Errors a [`FrameReader`] can hit. Both are fatal to the connection —
/// framing can no longer be trusted.
#[derive(Debug)]
pub enum ReadError {
    /// The length prefix exceeds [`MAX_FRAME_BODY`].
    Oversized(usize),
    /// The transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_BODY} bound")
            }
            ReadError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

/// Incremental frame reassembly decoupled from any transport: feed raw
/// bytes in with [`FrameAssembler::extend`], take complete frame bodies out
/// with [`FrameAssembler::next_frame`]. The event-driven edge feeds it from
/// nonblocking socket reads; [`FrameReader`] wraps it over a blocking
/// [`Read`] for clients. Partial frames simply stay buffered, so a short
/// read mid-frame never desynchronises the stream.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// An assembler with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes off the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete or partial frames).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame body, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::Oversized`] when the next length prefix exceeds
    /// [`MAX_FRAME_BODY`] — fatal, the byte stream can no longer be framed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ReadError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_BODY {
            return Err(ReadError::Oversized(len));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let body = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(body))
    }
}

/// Incremental, timeout-tolerant frame reader: a [`FrameAssembler`] over a
/// blocking byte stream, resuming exactly where a timed-out read stopped.
pub struct FrameReader<R> {
    inner: R,
    assembler: FrameAssembler,
    chunk: [u8; 4096],
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream (typically a `TcpStream` with a read timeout).
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            assembler: FrameAssembler::new(),
            chunk: [0; 4096],
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads until one complete frame body is available, the read would
    /// block / times out, or the peer hangs up.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] on transport failures or an oversized length
    /// prefix — both fatal to the connection.
    pub fn poll(&mut self) -> Result<ReadOutcome, ReadError> {
        loop {
            if let Some(body) = self.assembler.next_frame()? {
                return Ok(ReadOutcome::Frame(body));
            }
            match self.inner.read(&mut self.chunk) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => self.assembler.extend(&self.chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::WouldBlock)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_roundtrip(f: ClientFrame) {
        let encoded = encode_client(&f);
        let body = &encoded[4..];
        assert_eq!(
            u32::from_le_bytes(encoded[..4].try_into().unwrap()) as usize,
            body.len()
        );
        assert_eq!(decode_client(body).unwrap(), f);
    }

    fn server_roundtrip(f: ServerFrame) {
        let encoded = encode_server(&f);
        assert_eq!(decode_server(&encoded[4..]).unwrap(), f);
    }

    #[test]
    fn frames_roundtrip() {
        client_roundtrip(ClientFrame::Open {
            stream_id: 7,
            model: None,
        });
        client_roundtrip(ClientFrame::Close { stream_id: 7 });
        client_roundtrip(ClientFrame::Ping { token: u64::MAX });
        client_roundtrip(ClientFrame::Stats);
        client_roundtrip(ClientFrame::LoadModel {
            path: "models/ppg.json".into(),
        });
        server_roundtrip(ServerFrame::Opened { stream_id: 3 });
        server_roundtrip(ServerFrame::Closed {
            stream_id: 3,
            reason: CloseReason::IdleEvicted,
        });
        server_roundtrip(ServerFrame::Pong { token: 9 });
        server_roundtrip(ServerFrame::StatsJson {
            json: "{\"waves\": 1}".into(),
        });
        server_roundtrip(ServerFrame::ModelLoaded {
            name: "TEMPONet-plan".into(),
        });
        server_roundtrip(ServerFrame::Error {
            code: ErrorCode::Backpressure,
            message: "slow down".into(),
        });
        // Stream data: one-entry and multi-entry batches.
        client_roundtrip(ClientFrame::PushN {
            channels: 2,
            entries: vec![(7, 2)],
            samples: vec![1.0, -2.5, 0.0, 3.25],
        });
        client_roundtrip(ClientFrame::PushN {
            channels: 2,
            entries: vec![(7, 2), (9, 1)],
            samples: vec![1.0, -2.5, 0.0, 3.25, 0.5, 0.5],
        });
        server_roundtrip(ServerFrame::EmitN {
            dim: 2,
            entries: vec![(7, 1), (9, 2)],
            outputs: vec![0.5, -0.5, 1.0, 2.0, -1.0, 0.0],
        });
        // v3 zoo frames.
        client_roundtrip(ClientFrame::Open {
            stream_id: 11,
            model: Some("TEMPONet-plan-int8".into()),
        });
        client_roundtrip(ClientFrame::ListModels);
        server_roundtrip(ServerFrame::ModelsJson {
            json: "[{\"name\": \"a\"}]".into(),
        });
        // v4 trace frames.
        client_roundtrip(ClientFrame::Trace {
            stream_id: 0xDEAD_BEEF,
        });
        server_roundtrip(ServerFrame::TraceJson {
            json: "{\"schema\": \"pit-serve-trace/1\", \"events\": []}".into(),
        });
    }

    #[test]
    fn trace_frames_reject_malformed_bodies() {
        // Truncated stream id.
        assert!(matches!(
            decode_client(&[0x09, 1, 2]).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Trailing bytes after the stream id.
        assert!(matches!(
            decode_client(&[0x09, 1, 0, 0, 0, 9]).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // TRACE_JSON must be UTF-8.
        assert!(matches!(
            decode_server(&[0x89, 0xFF, 0xFE]).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn v1_open_body_is_bitwise_unchanged_and_model_field_is_checked() {
        // The v1 5-byte OPEN body must be exactly what pre-v3 clients sent.
        let encoded = encode_client(&ClientFrame::Open {
            stream_id: 0x0403_0201,
            model: None,
        });
        assert_eq!(&encoded[4..], &[0x01, 0x01, 0x02, 0x03, 0x04]);
        // Empty model name.
        assert!(matches!(
            decode_client(&[0x01, 1, 0, 0, 0, 0, 0]).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Name length claiming past the body.
        assert!(matches!(
            decode_client(&[0x01, 1, 0, 0, 0, 9, 0, b'a']).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Name shorter than the body (trailing bytes).
        assert!(matches!(
            decode_client(&[0x01, 1, 0, 0, 0, 1, 0, b'a', b'b']).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // A lone length byte (truncated u16).
        assert!(matches!(
            decode_client(&[0x01, 1, 0, 0, 0, 2]).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Invalid UTF-8 in the name.
        assert!(matches!(
            decode_client(&[0x01, 1, 0, 0, 0, 2, 0, 0xFF, 0xFE]).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn decode_rejects_malformed_push_n_counts() {
        let frame =
            |entries: &[(u32, u32)], channels: u32, n_override: Option<u32>, values: usize| {
                let mut body = vec![0x07];
                body.extend_from_slice(&channels.to_le_bytes());
                body.extend_from_slice(&n_override.unwrap_or(entries.len() as u32).to_le_bytes());
                for (sid, count) in entries {
                    body.extend_from_slice(&sid.to_le_bytes());
                    body.extend_from_slice(&count.to_le_bytes());
                }
                for _ in 0..values {
                    body.extend_from_slice(&0.0f32.to_le_bytes());
                }
                body
            };
        // Zero channels.
        assert!(matches!(
            decode_client(&frame(&[(1, 1)], 0, None, 1)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Zero entries.
        assert!(matches!(
            decode_client(&frame(&[], 1, None, 0)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // One entry claiming more values than any frame can hold.
        assert!(matches!(
            decode_client(&frame(&[(1, u32::MAX)], u32::MAX, None, 0)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Entry count far beyond the body: must be rejected before any
        // allocation, not by running off the end entry-by-entry.
        assert!(matches!(
            decode_client(&frame(&[(1, 1)], 1, Some(u32::MAX), 1)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // An entry with zero timesteps.
        assert!(matches!(
            decode_client(&frame(&[(1, 2), (2, 0)], 1, None, 2)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Per-entry counts that sum past the frame bound.
        assert!(matches!(
            decode_client(&frame(&[(1, u32::MAX), (2, u32::MAX)], 64, None, 0)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Payload shorter than Σ countᵢ × channels.
        assert!(matches!(
            decode_client(&frame(&[(1, 2), (2, 2)], 2, None, 3)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // Payload longer than claimed (trailing bytes).
        assert!(matches!(
            decode_client(&frame(&[(1, 1)], 1, None, 2)).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // The well-formed version of the same frame decodes.
        assert!(decode_client(&frame(&[(1, 2), (2, 2)], 2, None, 8)).is_ok());
    }

    #[test]
    fn entry_runs_walk_decoded_payloads_and_stop_on_short_ones() {
        let frame = ServerFrame::EmitN {
            dim: 2,
            entries: vec![(4, 2), (1, 1)],
            outputs: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let ServerFrame::EmitN {
            dim,
            entries,
            outputs,
        } = decode_server(&encode_server(&frame)[4..]).unwrap()
        else {
            panic!("EMIT_N decodes as EMIT_N")
        };
        let runs: Vec<(u32, Vec<f32>)> = entry_runs(dim, &entries, &outputs)
            .map(|(sid, run)| (sid, run.to_vec()))
            .collect();
        assert_eq!(
            runs,
            vec![(4, vec![1.0, 2.0, 3.0, 4.0]), (1, vec![5.0, 6.0])]
        );
        // A hand-built payload one value short ends the walk before the
        // entry it cannot fill, instead of panicking.
        assert_eq!(entry_runs(2, &entries, &outputs[..5]).count(), 1);
    }

    #[test]
    fn frame_assembler_pops_frames_from_raw_bytes() {
        let mut asm = FrameAssembler::new();
        let a = encode_client(&ClientFrame::Ping { token: 5 });
        let b = encode_client(&ClientFrame::Open {
            stream_id: 2,
            model: None,
        });
        // Feed a split mid-prefix: nothing pops until the body completes.
        asm.extend(&a[..2]);
        assert!(asm.next_frame().unwrap().is_none());
        asm.extend(&a[2..]);
        asm.extend(&b);
        let body = asm.next_frame().unwrap().expect("first frame complete");
        assert_eq!(
            decode_client(&body).unwrap(),
            ClientFrame::Ping { token: 5 }
        );
        let body = asm.next_frame().unwrap().expect("second frame complete");
        assert_eq!(
            decode_client(&body).unwrap(),
            ClientFrame::Open {
                stream_id: 2,
                model: None,
            }
        );
        assert!(asm.next_frame().unwrap().is_none());
        assert_eq!(asm.buffered_bytes(), 0);
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        assert_eq!(decode_client(&[]).unwrap_err(), FrameError::Empty);
        assert!(matches!(
            decode_client(&[0x42]).unwrap_err(),
            FrameError::UnknownOpcode(0x42)
        ));
        // OPEN truncated mid-field.
        assert!(matches!(
            decode_client(&[0x01, 1, 2]).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // OPEN with trailing garbage.
        assert!(matches!(
            decode_client(&[0x01, 1, 0, 0, 0, 9]).unwrap_err(),
            FrameError::Malformed(_)
        ));
        // The retired single-stream PUSH/EMIT opcodes are unknown, even
        // with a body that was well-formed under their old layout.
        let mut push = vec![0x02];
        push.extend_from_slice(&1u32.to_le_bytes()); // stream
        push.extend_from_slice(&1u32.to_le_bytes()); // count
        push.extend_from_slice(&1u32.to_le_bytes()); // channels
        push.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            decode_client(&push).unwrap_err(),
            FrameError::UnknownOpcode(0x02)
        );
        let mut emit = push.clone();
        emit[0] = 0x82;
        assert_eq!(
            decode_server(&emit).unwrap_err(),
            FrameError::UnknownOpcode(0x82)
        );
        // LOAD_MODEL with invalid UTF-8.
        assert!(matches!(
            decode_client(&[0x06, 0xFF, 0xFE]).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn frame_reader_reassembles_split_and_batched_frames() {
        // Two frames delivered in awkward chunks: byte-by-byte, then both
        // tails at once.
        let a = encode_client(&ClientFrame::Ping { token: 1 });
        let b = encode_client(&ClientFrame::Stats);
        let mut wire = Vec::new();
        wire.extend_from_slice(&a);
        wire.extend_from_slice(&b);
        struct Dribble {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                // First half dribbles one byte at a time, then the rest.
                let n = if self.pos < self.data.len() / 2 {
                    1
                } else {
                    self.data.len() - self.pos
                };
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut reader = FrameReader::new(Dribble { data: wire, pos: 0 });
        let ReadOutcome::Frame(body) = reader.poll().unwrap() else {
            panic!("first frame")
        };
        assert_eq!(
            decode_client(&body).unwrap(),
            ClientFrame::Ping { token: 1 }
        );
        let ReadOutcome::Frame(body) = reader.poll().unwrap() else {
            panic!("second frame")
        };
        assert_eq!(decode_client(&body).unwrap(), ClientFrame::Stats);
        assert!(matches!(reader.poll().unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn frame_reader_rejects_oversized_length_prefixes() {
        let wire = (u32::MAX).to_le_bytes().to_vec();
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        assert!(matches!(
            reader.poll().unwrap_err(),
            ReadError::Oversized(_)
        ));
    }
}
