//! The serving workload, `saturate`: one in-process `pit_serve::Server`
//! booted from the two seeded artifacts, driven in a closed loop over one
//! load connection through the public protocol layer, with a second
//! connection for STATS and the HTTP sidecar read only outside the window.

use crate::inputs::{ServingInputs, CHANNELS, MODEL, STEPS_PER_PUSH};
use crate::measure::{
    allocations, count_allocations, cpu_seconds, median, ms, peak_rss_mb, percentile,
    weighted_percentile, Sheet, Tracer,
};
use pit_infer::{
    InferencePlan, PlanArtifact, QuantizedPlan, QuantizedSession, QuantizedSessionPool, Session,
    SessionPool, StreamPool,
};
use pit_replay::scrape::{http_get, parse_exposition};
use pit_serve::protocol::{
    decode_client, decode_server, encode_client, encode_server, FrameReader, ReadOutcome,
};
use pit_serve::{
    Client, ClientBuilder, ClientFrame, ServeEngine, Server, ServerConfig, ServerFrame,
    ServerHandle, StatsSnapshot,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streams served, half by each model.
const STREAMS: usize = 1024;
/// Identical set-ups per run; `setup_s` is their median and the window is
/// served by the last one.
const SETUPS: usize = 11;
/// Warm-up: rounds of every stream, two in flight.
const WARMUP_ROUNDS: u64 = 16;
/// Rounds kept in flight, so the daemon never idles while the client
/// decodes.
const IN_FLIGHT: usize = 2;
/// Streams whose every emission is replayed through a solo session.
const SAMPLED_STREAMS: usize = 32;
/// Give up when the daemon sends nothing for this long.
const STALL: Duration = Duration::from_secs(20);
/// Read timeout of the load connection, so a stall is noticed.
const POLL: Duration = Duration::from_millis(100);
/// Minimum measured time of each isolated replay in the traced run.
const REPLAY_TIME: Duration = Duration::from_millis(150);

/// The daemon's deployment settings: the defaults, plus a backpressure cap
/// sized for one connection carrying every stream (two rounds keep 16,384
/// steps in flight) and the telemetry sidecar on an ephemeral port.
fn config() -> ServerConfig {
    ServerConfig {
        max_pending_per_conn: 1 << 16,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    }
}

/// One booted daemon with its load connection and the client's books.
struct Daemon {
    handle: ServerHandle,
    metrics: SocketAddr,
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    f32_plan: Arc<InferencePlan>,
    i8_plan: Arc<QuantizedPlan>,
    /// Timesteps sent since OPEN.
    steps_sent: u64,
    /// Pushes sent per stream since OPEN.
    pushed: Vec<u64>,
    /// Head outputs received per stream since OPEN.
    emitted: Vec<u64>,
    /// Every output of the sampled streams, for the solo replay.
    kept: Vec<Option<Vec<f32>>>,
}

impl Daemon {
    fn emissions(&self) -> u64 {
        self.emitted.iter().sum()
    }

    /// Closes the load connection and waits for a graceful drain.
    fn shutdown(self) {
        drop(self.writer);
        drop(self.reader);
        self.handle.shutdown();
    }
}

/// Records one received output of stream `s`.
fn note_output(
    emitted: &mut [u64],
    kept: &mut [Option<Vec<f32>>],
    s: usize,
    output: &[f32],
) -> Result<(), String> {
    let slot = emitted
        .get_mut(s)
        .ok_or_else(|| format!("emission for unknown stream {s}"))?;
    *slot += 1;
    if let Some(keep) = &mut kept[s] {
        keep.extend_from_slice(output);
    }
    Ok(())
}

/// The next frame body off the load connection.
fn next_body(reader: &mut FrameReader<TcpStream>) -> Result<Vec<u8>, String> {
    let deadline = Instant::now() + STALL;
    loop {
        match reader.poll() {
            Ok(ReadOutcome::Frame(body)) => return Ok(body),
            Ok(ReadOutcome::WouldBlock) if Instant::now() < deadline => {}
            Ok(ReadOutcome::WouldBlock) => return Err(format!("daemon silent for {STALL:?}")),
            Ok(ReadOutcome::Eof) => return Err("daemon closed the load connection".into()),
            Err(e) => return Err(e.to_string()),
        }
    }
}

fn decode(body: &[u8]) -> Result<ServerFrame, String> {
    match decode_server(body) {
        Ok(ServerFrame::Error { code, message }) => {
            Err(format!("frame refused: {code:?}: {message}"))
        }
        Ok(frame) => Ok(frame),
        Err(e) => Err(format!("undecodable reply: {e}")),
    }
}

/// Times of one set-up, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct BootTimes {
    artifact: f64,
    bind: f64,
    open: f64,
    warmup: f64,
}

/// One set-up: load both artifacts, bind and spawn the daemon, connect,
/// OPEN every stream and run the fixed warm-up.
fn boot(inputs: &ServingInputs, sampled: &[bool]) -> Result<(Daemon, BootTimes), String> {
    let t0 = Instant::now();
    let f32_engine = ServeEngine::from_artifact(PlanArtifact::load(&inputs.f32_artifact)?);
    let i8_engine = ServeEngine::from_artifact(PlanArtifact::load(&inputs.i8_artifact)?);
    let t1 = Instant::now();
    let (ServeEngine::F32(f32_plan), ServeEngine::I8(i8_plan)) = (&f32_engine, &i8_engine) else {
        return Err("artifacts do not hold one f32 and one int8 plan".into());
    };
    let (f32_plan, i8_plan) = (Arc::clone(f32_plan), Arc::clone(i8_plan));
    let server = Server::bind_models(
        vec![
            (MODEL.to_string(), f32_engine),
            (inputs.i8_name.clone(), i8_engine),
        ],
        MODEL,
        config(),
    )?;
    let metrics = server.metrics_addr().ok_or("sidecar not bound")?;
    let handle = server.spawn();
    let t2 = Instant::now();

    let io = |e: std::io::Error| format!("load connection: {e}");
    let writer = TcpStream::connect(handle.addr()).map_err(io)?;
    writer.set_nodelay(true).map_err(io)?;
    let read_half = writer.try_clone().map_err(io)?;
    read_half.set_read_timeout(Some(POLL)).map_err(io)?;
    let n = inputs.streams();
    let mut d = Daemon {
        handle,
        metrics,
        writer,
        reader: FrameReader::new(read_half),
        f32_plan,
        i8_plan,
        steps_sent: 0,
        pushed: vec![0; n],
        emitted: vec![0; n],
        kept: sampled.iter().map(|&keep| keep.then(Vec::new)).collect(),
    };
    let mut opens = Vec::new();
    for s in 0..n {
        opens.extend_from_slice(&encode_client(&ClientFrame::Open {
            stream_id: s as u32,
            model: Some(inputs.model_of(s).to_string()),
        }));
    }
    d.writer.write_all(&opens).map_err(io)?;
    for _ in 0..n {
        match decode(&next_body(&mut d.reader)?)? {
            ServerFrame::Opened { .. } => {}
            other => return Err(format!("OPEN answered with {other:?}")),
        }
    }
    let t3 = Instant::now();
    let mut tracer = Tracer::new(t3, false);
    Rounds::default().drive(&mut d, inputs, |r| r.sent < WARMUP_ROUNDS, &mut tracer)?;
    let t4 = Instant::now();
    Ok((
        d,
        BootTimes {
            artifact: ms(t0, t1),
            bind: ms(t1, t2),
            open: ms(t2, t3),
            warmup: ms(t3, t4),
        },
    ))
}

/// The closed loop: rounds of one PUSH_N carrying eight timesteps of
/// every stream, [`IN_FLIGHT`] of them outstanding.
#[derive(Default)]
struct Rounds {
    /// Rounds sent since OPEN.
    sent: u64,
    /// Rounds whose every stream has emitted.
    done: u64,
    /// Send time of each outstanding round, oldest first.
    sent_at: VecDeque<Instant>,
    /// Streams that have emitted for each outstanding round.
    arrived: VecDeque<usize>,
    /// `(latency ns, emissions)` per frame and round: the emissions one
    /// frame carries for one round share a latency, from the round's send
    /// to the frame's read.
    emit_latency: Vec<(u64, u64)>,
    /// Encode + write time and the timesteps it covered.
    encode_ns: u64,
    encode_steps: u64,
    /// Decode time and the emissions it covered.
    decode_ns: u64,
    decode_emits: u64,
    /// Round completion to the end of the next round's write.
    send_lag_ns: Vec<u64>,
}

impl Rounds {
    fn in_flight(&self) -> usize {
        self.sent_at.len()
    }

    fn send(
        &mut self,
        d: &mut Daemon,
        inputs: &ServingInputs,
        tracer: &mut Tracer,
    ) -> Result<Instant, String> {
        let n = inputs.streams();
        let start = Instant::now();
        let entries: Vec<(u32, u32)> = (0..n).map(|s| (s as u32, STEPS_PER_PUSH as u32)).collect();
        let mut samples = Vec::with_capacity(n * STEPS_PER_PUSH * CHANNELS);
        for s in 0..n {
            samples.extend_from_slice(inputs.push_samples(s, d.pushed[s]));
            d.pushed[s] += 1;
        }
        let frame = encode_client(&ClientFrame::PushN {
            channels: CHANNELS as u32,
            entries,
            samples,
        });
        d.writer
            .write_all(&frame)
            .map_err(|e| format!("load connection: {e}"))?;
        let end = Instant::now();
        d.steps_sent += (n * STEPS_PER_PUSH) as u64;
        self.encode_ns += (end - start).as_nanos() as u64;
        self.encode_steps += (n * STEPS_PER_PUSH) as u64;
        tracer.span("client.send", self.sent, false, start, end);
        self.sent += 1;
        self.sent_at.push_back(start);
        self.arrived.push_back(0);
        Ok(end)
    }

    /// Keeps rounds in flight while `more` allows, then drains them.
    fn drive(
        &mut self,
        d: &mut Daemon,
        inputs: &ServingInputs,
        mut more: impl FnMut(&Self) -> bool,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let n = inputs.streams();
        let mut freed_at: Option<Instant> = None;
        loop {
            while self.in_flight() < IN_FLIGHT && more(self) {
                let end = self.send(d, inputs, tracer)?;
                if let Some(freed) = freed_at.take() {
                    self.send_lag_ns.push((end - freed).as_nanos() as u64);
                }
            }
            if self.in_flight() == 0 {
                return Ok(());
            }
            let body = next_body(&mut d.reader)?;
            let t_read = Instant::now();
            let frame = decode(&body)?;
            let t_decoded = Instant::now();
            let ServerFrame::EmitN {
                dim,
                entries,
                outputs,
            } = frame
            else {
                return Err(format!("unexpected reply {frame:?}"));
            };
            let dim = dim as usize;
            let first_round = self.done;
            let before: Vec<usize> = self.arrived.iter().copied().collect();
            let mut offset = 0;
            let mut emits = 0u64;
            for (sid, count) in entries {
                let s = sid as usize;
                for _ in 0..count {
                    let round = *d.emitted.get(s).ok_or("emission for unknown stream")?;
                    let slot = round
                        .checked_sub(self.done)
                        .filter(|&i| (i as usize) < self.arrived.len())
                        .ok_or_else(|| {
                            format!("stream {s} emitted for round {round}, never sent")
                        })?;
                    self.arrived[slot as usize] += 1;
                    note_output(
                        &mut d.emitted,
                        &mut d.kept,
                        s,
                        &outputs[offset..offset + dim],
                    )?;
                    offset += dim;
                    emits += 1;
                }
            }
            for (slot, (&now, &was)) in self.arrived.iter().zip(&before).enumerate() {
                if now > was {
                    let waited = (t_read - self.sent_at[slot]).as_nanos() as u64;
                    self.emit_latency.push((waited, (now - was) as u64));
                }
            }
            self.decode_ns += (t_decoded - t_read).as_nanos() as u64;
            self.decode_emits += emits;
            tracer.span("client.recv", first_round, false, t_read, t_decoded);
            while self.arrived.front() == Some(&n) {
                self.arrived.pop_front();
                let sent = self.sent_at.pop_front().expect("one send time per round");
                tracer.span("request", self.done, true, sent, t_read);
                self.done += 1;
                freed_at = Some(t_decoded);
            }
        }
    }
}

/// What one measured window produced. Every figure covers the whole
/// window: each round it sent and, after the last send, the drain of the
/// rounds still in flight.
struct Window {
    /// Served timesteps over the window's wall time.
    steps_per_s: f64,
    /// Process CPU over the window per served timestep, in microseconds.
    cpu_us_per_step: f64,
    /// Every emission's latency as ascending `(ns, emissions)` pairs.
    latencies: Vec<(u64, u64)>,
    /// Rounds the window sent.
    operations: u64,
    /// Timesteps the window sent.
    steps: u64,
    encode_ns: u64,
    encode_steps: u64,
    decode_ns: u64,
    decode_emits: u64,
    send_lag: Vec<u64>,
    tracer: Tracer,
}

/// Keeps [`IN_FLIGHT`] rounds going for `secs` seconds, then drains them.
fn run_window(
    d: &mut Daemon,
    inputs: &ServingInputs,
    secs: f64,
    trace: bool,
) -> Result<Window, String> {
    let mut rounds = Rounds {
        sent: d.pushed[0],
        done: d.pushed[0],
        ..Rounds::default()
    };
    let first = rounds.sent;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(secs);
    let mut tracer = Tracer::new(t0, trace);
    rounds.drive(d, inputs, |_| Instant::now() < stop, &mut tracer)?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let operations = rounds.sent - first;
    let steps = operations * (inputs.streams() * STEPS_PER_PUSH) as u64;
    let mut latencies = rounds.emit_latency;
    latencies.sort_unstable();
    Ok(Window {
        steps_per_s: steps as f64 / wall,
        cpu_us_per_step: cpu * 1e6 / steps.max(1) as f64,
        latencies,
        operations,
        steps,
        encode_ns: rounds.encode_ns,
        encode_steps: rounds.encode_steps,
        decode_ns: rounds.decode_ns,
        decode_emits: rounds.decode_emits,
        send_lag: rounds.send_lag_ns,
        tracer,
    })
}

/// A STATS snapshot over `control`.
fn stats(control: &mut Client) -> Result<StatsSnapshot, String> {
    control.stats().map_err(|e| e.to_string())?;
    loop {
        match control.recv().map_err(|e| e.to_string())? {
            ServerFrame::StatsJson { json } => return StatsSnapshot::from_json_str(&json),
            ServerFrame::Error { code, message } => {
                return Err(format!("STATS refused: {code:?}: {message}"))
            }
            _ => {}
        }
    }
}

/// Waits until the daemon reports `settled` with counters that caught up
/// with the client's books (or [`STALL`] passes), and returns that snapshot.
/// STATS goes over a second connection that lives only while this waits:
/// one left idle through a window would hit the daemon's read-progress
/// timeout.
fn settle(d: &Daemon) -> Result<StatsSnapshot, String> {
    let mut control = ClientBuilder::new()
        .read_timeout(STALL)
        .connect(d.handle.addr())
        .map_err(|e| format!("control connection: {e}"))?;
    let deadline = Instant::now() + STALL;
    loop {
        let snap = stats(&mut control)?;
        let caught_up = snap.timesteps_in == d.steps_sent && snap.emissions_out == d.emissions();
        if (snap.settled && caught_up) || Instant::now() > deadline {
            return Ok(snap);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reconciles the client's books with the daemon's counters, exactly.
fn reconcile(d: &Daemon, snap: &StatsSnapshot, sheet: &mut Sheet) {
    let emissions = d.emissions();
    sheet.check(snap.timesteps_in == d.steps_sent, || {
        format!(
            "sent {} steps, daemon took in {}",
            d.steps_sent, snap.timesteps_in
        )
    });
    sheet.check(snap.emissions_out == emissions, || {
        format!(
            "received {emissions} emissions, daemon sent {}",
            snap.emissions_out
        )
    });
    let expected: u64 = d.pushed.iter().sum();
    sheet.check(emissions == expected, || {
        format!("{expected} pushes should emit once each, {emissions} emissions arrived")
    });
    for (what, count) in [
        ("frames_rejected", snap.frames_rejected),
        ("replies_dropped", snap.replies_dropped),
        ("streams_evicted", snap.streams_evicted),
    ] {
        sheet.check(count == 0, || format!("daemon reports {what} = {count}"));
    }
}

/// Replays every sampled stream's whole input through a solo session: f32
/// within 1e-5, int8 bit-exact.
fn replay_sampled(d: &Daemon, inputs: &ServingInputs, sheet: &mut Sheet) {
    for (s, got) in d.kept.iter().enumerate() {
        let Some(got) = got else { continue };
        let solo = |step: &mut dyn FnMut(&[f32]) -> Option<Vec<f32>>| -> Vec<f32> {
            (0..d.pushed[s])
                .flat_map(|push| inputs.push_samples(s, push).chunks_exact(CHANNELS))
                .filter_map(&mut *step)
                .flatten()
                .collect()
        };
        if inputs.is_i8[s] {
            let mut session = QuantizedSession::new(Arc::clone(&d.i8_plan));
            let want = solo(&mut |x| session.push(x));
            sheet.check(*got == want, || {
                format!("int8 stream {s} differs from a solo session")
            });
        } else {
            let mut session = Session::new(Arc::clone(&d.f32_plan));
            let want = solo(&mut |x| session.push(x));
            let close =
                got.len() == want.len() && got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-5);
            sheet.check(close, || {
                format!("f32 stream {s} is not within 1e-5 of a solo session")
            });
        }
    }
}

/// Sum of every series of sample `name` (any labels) in a parsed
/// exposition.
fn family_sum(samples: &HashMap<String, f64>, name: &str) -> f64 {
    samples
        .iter()
        .filter(|(selector, _)| selector.split('{').next() == Some(name))
        .map(|(_, value)| value)
        .sum()
}

/// Streams served per wave of one model between two snapshots.
fn occupancy(before: &StatsSnapshot, after: &StatsSnapshot, kind: &str) -> f64 {
    let pick = |s: &StatsSnapshot| {
        s.models
            .iter()
            .find(|m| m.kind == kind)
            .map_or((0.0, 0.0), |m| (m.waves as f64, m.wave_occupancy))
    };
    let (w0, o0) = pick(before);
    let (w1, o1) = pick(after);
    if w1 > w0 {
        (o1 * w1 - o0 * w0) / (w1 - w0)
    } else {
        0.0
    }
}

/// Times `f` repeatedly for at least [`REPLAY_TIME`]; returns ns per call.
fn time_calls(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed() < REPLAY_TIME {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Isolated replay of one pool at `occupancy` streams, eight timesteps each
/// per flush: (push ns/step, flush ns/step, allocations per emission).
fn replay_pool(
    mut pool: Box<dyn StreamPool>,
    occupancy: usize,
    inputs: &ServingInputs,
) -> (f64, f64, f64) {
    let sids: Vec<usize> = (0..occupancy.max(1)).map(|_| pool.open_stream()).collect();
    let (mut push_ns, mut flush_ns, mut steps, mut emits, mut allocs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut push = 0u64;
    while push < 3 || start.elapsed() < REPLAY_TIME {
        let t0 = Instant::now();
        for (i, &sid) in sids.iter().enumerate() {
            for step in inputs
                .push_samples(i % inputs.streams(), push)
                .chunks_exact(CHANNELS)
            {
                pool.push(sid, step);
            }
        }
        let t1 = Instant::now();
        let a0 = allocations();
        count_allocations(true);
        let out = pool.flush();
        count_allocations(false);
        let t2 = Instant::now();
        allocs += allocations() - a0;
        emits += out.len() as u64;
        push_ns += (t1 - t0).as_nanos() as u64;
        flush_ns += (t2 - t1).as_nanos() as u64;
        steps += (sids.len() * STEPS_PER_PUSH) as u64;
        push += 1;
    }
    (
        push_ns as f64 / steps as f64,
        flush_ns as f64 / steps as f64,
        allocs as f64 / emits.max(1) as f64,
    )
}

/// Isolated replays of the protocol and inference layers on the workload's
/// own frames and measured wave occupancy.
fn replay_layers(
    f32_plan: &Arc<InferencePlan>,
    i8_plan: &Arc<QuantizedPlan>,
    inputs: &ServingInputs,
    occ_f32: f64,
    occ_i8: f64,
    sheet: &mut Sheet,
    tracer: &mut Tracer,
) {
    let n = inputs.streams();
    let mut span = |name: &'static str, id: u64, start: Instant| {
        // Replay requests count down from the top of the id space, clear of
        // round numbers.
        tracer.span(name, u64::MAX - id, true, start, Instant::now());
    };

    // protocol: decode one round's PUSH_N, encode one wave's EMIT_N.
    let start = Instant::now();
    let frame = encode_client(&ClientFrame::PushN {
        channels: CHANNELS as u32,
        entries: (0..n).map(|s| (s as u32, STEPS_PER_PUSH as u32)).collect(),
        samples: (0..n)
            .flat_map(|s| inputs.push_samples(s, 0).to_vec())
            .collect(),
    });
    let body = &frame[4..];
    let decode_ns = time_calls(|| {
        std::hint::black_box(decode_client(std::hint::black_box(body)).is_ok());
    });
    span("protocol.decode", 0, start);
    let start = Instant::now();
    let wave = (occ_f32 + occ_i8).max(1.0).round() as u32;
    let reply = ServerFrame::EmitN {
        dim: 1,
        entries: (0..wave).map(|s| (s, 1)).collect(),
        outputs: (0..wave).map(|s| s as f32 * 0.01).collect(),
    };
    let encode_ns = time_calls(|| {
        std::hint::black_box(encode_server(std::hint::black_box(&reply)).len());
    }) / f64::from(wave);
    span("protocol.encode", 1, start);
    sheet.put("protocol.decode_ns_per_frame", decode_ns, "ns");
    sheet.put("protocol.encode_ns_per_emit", encode_ns, "ns");

    // infer: pools at the measured occupancy, solo sessions.
    let start = Instant::now();
    let f32_pool = Box::new(SessionPool::new(Arc::clone(f32_plan), 0));
    let (push_f32, flush_f32, allocs_f32) = replay_pool(f32_pool, occ_f32.round() as usize, inputs);
    span("infer.flush.f32", 2, start);
    let start = Instant::now();
    let i8_pool = Box::new(QuantizedSessionPool::new(Arc::clone(i8_plan), 0));
    let (push_i8, flush_i8, allocs_i8) = replay_pool(i8_pool, occ_i8.round() as usize, inputs);
    span("infer.flush.i8", 3, start);
    sheet.put("infer.f32.flush_ns_per_step", flush_f32, "ns");
    sheet.put("infer.i8.flush_ns_per_step", flush_i8, "ns");
    sheet.put("infer.push_ns_per_step", (push_f32 + push_i8) / 2.0, "ns");
    sheet.put(
        "infer.flush_allocs_per_emit",
        (allocs_f32 + allocs_i8) / 2.0,
        "count",
    );

    let steps: Vec<&[f32]> = (0..64u64)
        .flat_map(|push| inputs.push_samples(0, push).chunks_exact(CHANNELS))
        .collect();
    let start = Instant::now();
    let mut session = Session::new(Arc::clone(f32_plan));
    let solo_f32 = time_calls(|| {
        for step in &steps {
            std::hint::black_box(session.push(step));
        }
    }) / steps.len() as f64;
    span("infer.solo.f32", 4, start);
    let start = Instant::now();
    let mut qsession = QuantizedSession::new(Arc::clone(i8_plan));
    let solo_i8 = time_calls(|| {
        for step in &steps {
            std::hint::black_box(qsession.push(step));
        }
    }) / steps.len() as f64;
    span("infer.solo.i8", 5, start);
    sheet.put("infer.f32.solo_ns_per_step", solo_f32, "ns");
    sheet.put("infer.i8.solo_ns_per_step", solo_i8, "ns");
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Emissions behind `(ns, emissions)` latency pairs.
fn samples(lat: &[(u64, u64)]) -> f64 {
    lat.iter().map(|&(_, n)| n).sum::<u64>() as f64
}

/// Runs the saturate workload and fills `sheet` with its metrics.
///
/// # Errors
///
/// Returns a message when the daemon cannot be booted or driven to the end
/// of the window: a refused frame, a missing or extra emission, a broken
/// connection. Failed correctness checks are counted in `sheet` instead.
pub fn run(
    seed: u64,
    secs: f64,
    trace: bool,
    work: &Path,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let inputs = ServingInputs::generate(seed, STREAMS, work)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_EED5);
    let mut order: Vec<usize> = (0..STREAMS).collect();
    order.shuffle(&mut rng);
    let mut sampled = vec![false; STREAMS];
    for &s in &order[..SAMPLED_STREAMS] {
        sampled[s] = true;
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut boots = Vec::with_capacity(SETUPS);
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(old) = daemon.take() {
            old.shutdown();
        }
        let start = Instant::now();
        let (d, times) = boot(&inputs, &sampled)?;
        setups.push(start.elapsed().as_secs_f64());
        boots.push(times);
        daemon = Some(d);
    }
    let mut d = daemon.expect("at least one set-up");
    sheet.put("setup_s", median(&setups), "s");

    // The untraced window gives the end-to-end metrics; a traced run
    // follows it with a traced window on the same daemon.
    let plain = run_window(&mut d, &inputs, secs, false)?;
    sheet.attempted += plain.operations;
    let lat = &plain.latencies;
    sheet.put("steps_per_s", plain.steps_per_s, "1/s");
    sheet.put("latency_p50_us", us(weighted_percentile(lat, 0.5)), "us");
    sheet.put("latency_p90_us", us(weighted_percentile(lat, 0.9)), "us");
    sheet.put("latency_samples", samples(lat), "count");
    sheet.put("cpu_us_per_step", plain.cpu_us_per_step, "us");

    if trace {
        let before = settle(&d)?;
        let scrape0 = parse_exposition(&http_get(d.metrics, "/metrics")?);
        let a0 = allocations();
        count_allocations(true);
        let traced = run_window(&mut d, &inputs, secs, true)?;
        count_allocations(false);
        let allocs = allocations() - a0;
        sheet.attempted += traced.operations;
        let after = settle(&d)?;
        let t_scrape = Instant::now();
        let text = http_get(d.metrics, "/metrics")?;
        let scrape_us = t_scrape.elapsed().as_secs_f64() * 1e6;
        let scrape1 = parse_exposition(&text);

        let boot_median =
            |f: fn(&BootTimes) -> f64| median(&boots.iter().map(f).collect::<Vec<_>>());
        sheet.put("boot.artifact_ms", boot_median(|b| b.artifact), "ms");
        sheet.put("boot.bind_ms", boot_median(|b| b.bind), "ms");
        sheet.put("boot.open_ms", boot_median(|b| b.open), "ms");
        sheet.put("boot.warmup_ms", boot_median(|b| b.warmup), "ms");

        sheet.put(
            "client.encode_ns_per_step",
            traced.encode_ns as f64 / traced.encode_steps.max(1) as f64,
            "ns",
        );
        sheet.put(
            "client.decode_ns_per_emit",
            traced.decode_ns as f64 / traced.decode_emits.max(1) as f64,
            "ns",
        );
        let mut lag = traced.send_lag.clone();
        lag.sort_unstable();
        if !lag.is_empty() {
            sheet.put("client.send_lag_p50_us", us(percentile(&lag, 0.5)), "us");
            sheet.put("client.send_lag_p99_us", us(percentile(&lag, 0.99)), "us");
        }
        sheet.put("client.send_lag_samples", lag.len() as f64, "count");
        sheet.put(
            "client.latency_p99_us",
            us(weighted_percentile(lat, 0.99)),
            "us",
        );
        sheet.put(
            "client.latency_p999_us",
            us(weighted_percentile(lat, 0.999)),
            "us",
        );
        sheet.put("client.latency_samples", samples(lat), "count");

        let steps = after
            .timesteps_in
            .saturating_sub(before.timesteps_in)
            .max(1) as f64;
        let delta = |name: &str| family_sum(&scrape1, name) - family_sum(&scrape0, name);
        sheet.put(
            "edge.busy_ns_per_step",
            delta("pit_serve_edge_dispatch_ns_sum") / steps,
            "ns",
        );
        sheet.put(
            "edge.wait_s",
            delta("pit_serve_edge_poll_ns_sum") / 1e9,
            "s",
        );
        sheet.put(
            "edge.loops",
            delta("pit_serve_edge_dispatch_ns_count"),
            "count",
        );
        sheet.put(
            "edge.frames_rejected",
            (after.frames_rejected - before.frames_rejected) as f64,
            "count",
        );
        sheet.put(
            "edge.replies_dropped",
            (after.replies_dropped - before.replies_dropped) as f64,
            "count",
        );
        sheet.put("edge.outbuf_hwm_bytes", after.outbuf_hwm_bytes as f64, "B");

        let waves = after.waves.saturating_sub(before.waves).max(1) as f64;
        let flush_ns = delta("pit_serve_wave_flush_ns_sum");
        let (occ_f32, occ_i8) = (
            occupancy(&before, &after, "f32"),
            occupancy(&before, &after, "i8"),
        );
        sheet.put("shard.waves", waves, "count");
        sheet.put("shard.steps_per_wave", steps / waves, "count");
        sheet.put("shard.occupancy.f32", occ_f32, "count");
        sheet.put("shard.occupancy.i8", occ_i8, "count");
        sheet.put("shard.flush_ns_per_step", flush_ns / steps, "ns");
        sheet.put(
            "shard.busy_share",
            flush_ns / (secs * 1e9 * after.shards.max(1) as f64),
            "ratio",
        );

        sheet.put("telemetry.scrape_us", scrape_us, "us");
        sheet.put("telemetry.scrape_bytes", text.len() as f64, "B");
        sheet.put(
            "process.allocs_per_step",
            allocs as f64 / traced.steps as f64,
            "count",
        );

        sheet.put(
            "trace.overhead_pct",
            (plain.steps_per_s - traced.steps_per_s) / plain.steps_per_s * 100.0,
            "%",
        );
        let mut tracer = traced.tracer;
        sheet.put(
            "trace.request_self_us",
            tracer.median_root_self_ns("request") / 1e3,
            "us",
        );

        reconcile(&d, &after, sheet);
        replay_sampled(&d, &inputs, sheet);
        let (f32_plan, i8_plan) = (Arc::clone(&d.f32_plan), Arc::clone(&d.i8_plan));
        d.shutdown();
        replay_layers(
            &f32_plan,
            &i8_plan,
            &inputs,
            occ_f32,
            occ_i8,
            sheet,
            &mut tracer,
        );
        sheet.put("trace.spans", tracer.len() as f64, "count");
        crate::report_spans(&tracer, work, "saturate", seed);
    } else {
        let snap = settle(&d)?;
        reconcile(&d, &snap, sheet);
        replay_sampled(&d, &inputs, sheet);
        d.shutdown();
    }
    sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(())
}
