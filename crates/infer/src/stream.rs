//! Stateful per-timestep execution of a plan, in either precision.
//!
//! A [`Session`] holds, for every layer of a [`Plan`], exactly the state a
//! causal network needs to continue from where it stopped:
//!
//! * each convolution keeps a **ring buffer of its receptive field** — one
//!   new timestep then costs `O(C_out · C_in · alive_taps)` instead of
//!   re-running the whole window (`O(T)` columns) through a tape;
//! * each pooling stage keeps its window and phase, so strided pooling
//!   naturally gates how often deeper layers (and the head) advance;
//! * the head keeps its flatten window (TEMPONet-style `Fc`) or running mean
//!   (`GlobalPoolFc`).
//!
//! The session is generic over the plan's [`Precision`]: an f32
//! [`crate::InferencePlan`] streams through `Session<f32>` (the default,
//! [`Session`]), an int8 [`crate::QuantizedPlan`] through `Session<i8>`
//! ([`crate::QuantizedSession`]) with one-byte ring state. Rings are
//! *time-major* (`[rf, C_in]`, one contiguous column per slot), so a push is
//! one unit-stride seam pass, a gather one copy per alive tap, and the step
//! path has no modulo anywhere.
//!
//! Feeding a fresh f32 session the samples `x[0..T]` one at a time
//! reproduces the offline forward on `[1, C, T]` (zero initial state ≡
//! causal zero padding); the parity tests in `tests/parity.rs` pin this to
//! `1e-5`.
//!
//! One timestep of one stream is one call of the crate-private `step`
//! function over that stream's state and a scratch set. It is the engine's
//! only execution path: a [`Session`] owns one state and one scratch set,
//! and a [`crate::SessionPool`] runs each of its streams' queued samples
//! through the same function, so pooled and solo emissions are bit-identical
//! in both precisions.
//!
//! The per-step hot path is allocation-free: scratch buffers are owned by the
//! session and reused ([`Session::push_into`]); [`Session::push`] is the
//! allocating convenience wrapper.

use crate::plan::{Block, Head, Plan, PoolSpec};
use crate::precision::{accumulate, ConvOp, LinearOp, PoolOp, Precision};
use std::sync::Arc;

/// Over-allocation past the live ring/row elements, letting gathers run as
/// fixed 16-element copies (plain vector loads/stores) instead of
/// variable-length `memcpy` calls for the narrow columns PIT networks have.
const COPY_PAD: usize = 16;

/// Ring buffer holding one convolution's receptive field of input history,
/// time-major: `[rf, C_in]`, slot `pos` is the next write.
#[derive(Debug, Clone)]
struct ConvRing<P> {
    hist: Vec<P>,
    rf: usize,
    pos: usize,
}

impl<P: Precision> ConvRing<P> {
    fn new(conv: &P::Conv) -> Self {
        let rf = conv.receptive_field();
        Self {
            hist: vec![P::default(); conv.in_channels() * rf + COPY_PAD],
            rf,
            pos: 0,
        }
    }

    /// Converts one f32 column at the layer's input seam straight into the
    /// ring — one unit-stride pass, no intermediate buffer.
    fn push(&mut self, conv: &P::Conv, input: &[f32]) {
        let c_in = conv.in_channels();
        let base = self.pos * c_in;
        for (h, &v) in self.hist[base..base + c_in].iter_mut().zip(input) {
            *h = conv.seam(v);
        }
        self.pos += 1;
        if self.pos == self.rf {
            self.pos = 0;
        }
    }

    /// Gathers the current tap window into `row` (`[K, C_in]`, tap-major like
    /// the weight pack, newest sample at tap 0): one contiguous column copy
    /// per alive tap. Tap shifts never exceed `rf − 1`, so a single
    /// conditional wrap replaces any modulo; columns of at most
    /// [`COPY_PAD`] values copy as one fixed block into the padded `row`
    /// (later taps overwrite the spill, and readers take only `C_in · K`).
    fn gather(&self, conv: &P::Conv, row: &mut [P]) {
        let (rf, c_in) = (self.rf, conv.in_channels());
        let newest = if self.pos == 0 { rf - 1 } else { self.pos - 1 };
        for kk in 0..conv.kernel() {
            let shift = kk * conv.dilation(); // ≤ (K−1)·d = rf − 1
            let idx = if newest >= shift {
                newest - shift
            } else {
                newest + rf - shift
            };
            let (src, dst) = (idx * c_in, kk * c_in);
            if c_in <= COPY_PAD {
                let chunk: &[P; COPY_PAD] = self.hist[src..src + COPY_PAD]
                    .try_into()
                    .expect("padded ring");
                row[dst..dst + COPY_PAD].copy_from_slice(chunk);
            } else {
                row[dst..dst + c_in].copy_from_slice(&self.hist[src..src + c_in]);
            }
        }
    }
}

/// Emission schedule of a strided pooling stage. Counter-based: no modulo on
/// the step path.
///
/// Plan construction guarantees `kernel ≥ 1` and `stride ≥ 1` (see
/// [`crate::InferencePlan::new`]), which the countdown arithmetic relies on.
#[derive(Debug, Clone, Default)]
struct PoolClock {
    /// Next write slot (`seen mod kernel`, kept as a counter).
    slot: usize,
    /// Columns seen until the first full window (saturates at `kernel`).
    fill: usize,
    /// Steps remaining until the next emission once the window is full.
    countdown: usize,
}

impl PoolClock {
    /// Advances one step; returns the ring slot the incoming column must be
    /// written to and whether the stage emits this step — the offline grid
    /// `t_out = (t − kernel)/stride + 1` (first emission once the window
    /// fills, then every `stride` steps).
    fn tick(&mut self, spec: &PoolSpec) -> (usize, bool) {
        let slot = self.slot;
        self.slot += 1;
        if self.slot == spec.kernel {
            self.slot = 0;
        }
        if self.fill < spec.kernel {
            self.fill += 1;
            if self.fill < spec.kernel {
                return (slot, false);
            }
            self.countdown = 1;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return (slot, false);
        }
        self.countdown = spec.stride;
        (slot, true)
    }
}

/// State of a strided average-pooling stage: a time-major `[kernel, C]`
/// window ring at the stage's seam, and its clock.
#[derive(Debug, Clone)]
struct PoolWindow<P> {
    buf: Vec<P>,
    channels: usize,
    clock: PoolClock,
}

impl<P: Precision> PoolWindow<P> {
    fn new(channels: usize, pool: &P::Pool) -> Self {
        Self {
            buf: vec![P::default(); pool.spec().kernel * channels],
            channels,
            clock: PoolClock::default(),
        }
    }

    /// Pushes one column; returns `true` (with the window mean in `out`)
    /// when the stage emits (see [`PoolClock::tick`]). Int8 window sums of at
    /// most `kernel` codes are exact in f32.
    fn step(&mut self, pool: &P::Pool, input: &[f32], out: &mut [f32]) -> bool {
        let c = self.channels;
        let (slot, emits) = self.clock.tick(&pool.spec());
        for (q, &v) in self.buf[slot * c..(slot + 1) * c].iter_mut().zip(input) {
            *q = pool.seam(v);
        }
        if !emits {
            return false;
        }
        let out = &mut out[..c];
        out.fill(0.0);
        for column in self.buf.chunks_exact(c) {
            for (o, &q) in out.iter_mut().zip(column) {
                *o += q.widen();
            }
        }
        let scale = pool.mean_scale();
        for o in out.iter_mut() {
            *o *= scale;
        }
        true
    }
}

/// Everything one stream carries between timesteps, in plan order: one ring
/// per convolution (the order of [`Plan::convs`]), one window per pooling
/// stage, and the head's flatten ring or running mean.
#[derive(Debug, Clone)]
pub(crate) struct StreamState<P: Precision> {
    rings: Vec<ConvRing<P>>,
    pools: Vec<PoolWindow<P>>,
    /// Fc head: `[channels, window]` flatten ring at the hidden layer's
    /// seam; `pos` is the next (oldest) slot. Unwritten slots are zero,
    /// matching the causal pad.
    window: Vec<P>,
    pos: usize,
    /// Global-pool head: f32 running sum per channel and the steps it holds.
    sum: Vec<f32>,
    count: usize,
}

impl<P: Precision> StreamState<P> {
    /// The all-zero (causal-padding) state of a stream over `plan`.
    pub(crate) fn new(plan: &Plan<P>) -> Self {
        let mut pools = Vec::new();
        let mut width = plan.input_channels;
        for block in &plan.blocks {
            match block {
                Block::Residual { conv2, .. } => width = conv2.outputs(),
                Block::Plain { convs, pool } => {
                    width = convs.last().map_or(width, |c| c.outputs());
                    pools.extend(pool.iter().map(|p| PoolWindow::new(width, p)));
                }
            }
        }
        let (window, sum) = match &plan.head {
            Head::Fc {
                channels, window, ..
            } => (vec![P::default(); channels * window], Vec::new()),
            Head::GlobalPoolFc(dense) => (Vec::new(), vec![0.0; dense.inputs()]),
            Head::PerStep(_) => (Vec::new(), Vec::new()),
        };
        Self {
            rings: plan.convs().into_iter().map(ConvRing::new).collect(),
            pools,
            window,
            pos: 0,
            sum,
            count: 0,
        }
    }

    /// Clears the state back to the zero (causal-padding) state.
    pub(crate) fn reset(&mut self) {
        for ring in &mut self.rings {
            ring.hist.fill(P::default());
            ring.pos = 0;
        }
        for pool in &mut self.pools {
            pool.buf.fill(P::default());
            pool.clock = PoolClock::default();
        }
        self.window.fill(P::default());
        self.pos = 0;
        self.sum.fill(0.0);
        self.count = 0;
    }

    /// Pushes one column into the Fc flatten ring (at the hidden layer's
    /// seam) and gathers the window into `row`: `[channels · window]`,
    /// oldest step first — the offline flatten order — as two contiguous
    /// copies per channel.
    fn fc_window(&mut self, hidden: &P::Dense, window: usize, input: &[f32], row: &mut [P]) {
        for (ci, &v) in input.iter().enumerate() {
            self.window[ci * window + self.pos] = hidden.seam(v);
        }
        self.pos = if self.pos + 1 == window {
            0
        } else {
            self.pos + 1
        };
        let (pos, head) = (self.pos, window - self.pos);
        for (dst, src) in row
            .chunks_exact_mut(window)
            .zip(self.window.chunks_exact(window))
        {
            dst[..head].copy_from_slice(&src[pos..]);
            dst[head..].copy_from_slice(&src[..pos]);
        }
    }

    /// Adds one column to the global-pool running sum and writes the running
    /// mean, converted at the dense layer's seam, into `row`.
    fn global_mean(&mut self, dense: &P::Dense, input: &[f32], row: &mut [P]) {
        for (s, &v) in self.sum.iter_mut().zip(input) {
            *s += v;
        }
        self.count += 1;
        let inv = 1.0 / self.count as f32;
        for (q, &s) in row.iter_mut().zip(&self.sum) {
            *q = dense.seam(s * inv);
        }
    }
}

/// Per-step scratch of the execution path: ping-pong f32 columns and the
/// residual skip column (each sized to the widest column), and the gathered
/// row (widest row, plus the copy pad). It carries nothing from one step to
/// the next, so one set serves every stream of a pool.
pub(crate) struct Scratch<P> {
    a: Vec<f32>,
    b: Vec<f32>,
    skip: Vec<f32>,
    row: Vec<P>,
}

impl<P: Precision> Scratch<P> {
    /// Scratch wide enough for every layer of `plan`.
    pub(crate) fn new(plan: &Plan<P>) -> Self {
        let mut col = plan.input_channels.max(plan.output_dim());
        let mut row = 1;
        for conv in plan.convs() {
            col = col.max(conv.in_channels()).max(conv.outputs());
            row = row.max(conv.inputs());
        }
        match &plan.head {
            Head::Fc { hidden, .. } => {
                col = col.max(hidden.outputs());
                row = row.max(hidden.inputs()).max(hidden.outputs());
            }
            Head::GlobalPoolFc(dense) => row = row.max(dense.inputs()),
            Head::PerStep(_) => {}
        }
        Self {
            a: vec![0.0; col],
            b: vec![0.0; col],
            skip: vec![0.0; col],
            row: vec![P::default(); row + COPY_PAD],
        }
    }
}

/// The one input-width contract of the engine: a sample carries exactly the
/// plan's input channels.
pub(crate) fn check_width<P: Precision>(plan: &Plan<P>, sample: &[f32]) {
    assert_eq!(
        sample.len(),
        plan.input_channels,
        "sample has {} channels, plan needs {}",
        sample.len(),
        plan.input_channels
    );
}

/// The residual join: `a = relu(a + b)`.
fn residual_add(a: &mut [f32], b: &[f32]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = (*x + y).max(0.0);
    }
}

/// One convolution step: seam-push `input` into the ring, gather the tap
/// window and accumulate the output column into `out`.
fn conv_step<P: Precision>(
    conv: &P::Conv,
    ring: &mut ConvRing<P>,
    input: &[f32],
    row: &mut [P],
    out: &mut [f32],
    relu: bool,
) {
    ring.push(conv, input);
    if conv.kernel() == 1 {
        // Single-tap convolution (rf = 1): the ring is the gathered row.
        accumulate(conv, &ring.hist[..conv.in_channels()], out, relu);
    } else {
        ring.gather(conv, row);
        accumulate(conv, &row[..conv.inputs()], out, relu);
    }
}

/// Advances one stream of `plan` by one timestep: the single execution path
/// of the engine, shared by [`Session`] and [`crate::SessionPool`].
///
/// `sample` must carry exactly the plan's input channels and `out` at least
/// [`Plan::output_dim`] slots (callers check both). Writes the head output
/// into `out` and returns `true` when this step made the head emit.
pub(crate) fn step<P: Precision>(
    plan: &Plan<P>,
    state: &mut StreamState<P>,
    scratch: &mut Scratch<P>,
    sample: &[f32],
    out: &mut [f32],
) -> bool {
    let Scratch { a, b, skip, row } = scratch;
    a[..sample.len()].copy_from_slice(sample);
    let mut width = sample.len();
    let (mut ring, mut pool_idx) = (0, 0);
    for block in &plan.blocks {
        match block {
            Block::Residual {
                conv1,
                conv2,
                downsample,
            } => {
                skip[..width].copy_from_slice(&a[..width]);
                conv_step(conv1, &mut state.rings[ring], &a[..width], row, b, true);
                let mid = conv1.outputs();
                conv_step(conv2, &mut state.rings[ring + 1], &b[..mid], row, a, true);
                ring += 2;
                match downsample {
                    Some(proj) => {
                        conv_step(proj, &mut state.rings[ring], &skip[..width], row, b, false);
                        ring += 1;
                    }
                    None => b[..width].copy_from_slice(&skip[..width]),
                }
                width = conv2.outputs();
                residual_add(&mut a[..width], &b[..width]);
            }
            Block::Plain { convs, pool } => {
                for conv in convs {
                    conv_step(conv, &mut state.rings[ring], &a[..width], row, b, true);
                    ring += 1;
                    width = conv.outputs();
                    std::mem::swap(a, b);
                }
                if let Some(pool) = pool {
                    let window = &mut state.pools[pool_idx];
                    pool_idx += 1;
                    if !window.step(pool, &a[..width], &mut b[..width]) {
                        return false;
                    }
                    std::mem::swap(a, b);
                }
            }
        }
    }
    match &plan.head {
        Head::PerStep(conv) => {
            conv_step(conv, &mut state.rings[ring], &a[..width], row, out, false);
        }
        Head::Fc {
            hidden,
            output,
            window,
            ..
        } => {
            state.fc_window(hidden, *window, &a[..width], row);
            accumulate(hidden, &row[..hidden.inputs()], b, true);
            for (q, &v) in row.iter_mut().zip(&b[..hidden.outputs()]) {
                *q = output.seam(v);
            }
            accumulate(output, &row[..output.inputs()], out, false);
        }
        Head::GlobalPoolFc(dense) => {
            state.global_mean(dense, &a[..width], row);
            accumulate(dense, &row[..dense.inputs()], out, false);
        }
    }
    true
}

/// One stream's stateful execution of a plan, in the plan's precision.
///
/// Feed samples with [`Session::push`]/[`Session::push_into`]; the session
/// emits an output whenever the head advances (every step for per-step and
/// un-pooled heads, every `Π strideᵢ` steps behind strided pooling).
pub struct Session<P: Precision = f32> {
    plan: Arc<Plan<P>>,
    state: StreamState<P>,
    scratch: Scratch<P>,
}

impl<P: Precision> Session<P> {
    /// Creates a fresh (all-zero state) session for `plan`.
    pub fn new(plan: Arc<Plan<P>>) -> Self {
        Self {
            state: StreamState::new(&plan),
            scratch: Scratch::new(&plan),
            plan,
        }
    }

    /// The plan this session executes.
    pub fn plan(&self) -> &Arc<Plan<P>> {
        &self.plan
    }

    /// Clears all stream state back to the zero (causal-padding) state.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Pushes one input sample (length `input_channels`); returns the head
    /// output when this step made it emit.
    ///
    /// # Panics
    ///
    /// As [`Session::push_into`].
    pub fn push(&mut self, sample: &[f32]) -> Option<Vec<f32>> {
        let mut out = vec![0.0; self.plan.output_dim()];
        self.push_into(sample, &mut out).then_some(out)
    }

    /// Allocation-free variant of [`Session::push`]: writes the head output
    /// into `out` (length [`Plan::output_dim`]) and returns whether it
    /// emitted this step.
    ///
    /// # Panics
    ///
    /// Panics if `sample` does not carry exactly the plan's input channels,
    /// or `out` is shorter than the output dimension.
    pub fn push_into(&mut self, sample: &[f32], out: &mut [f32]) -> bool {
        check_width(&self.plan, sample);
        assert!(
            out.len() >= self.plan.output_dim(),
            "output buffer has {} slots, plan emits {}",
            out.len(),
            self.plan.output_dim()
        );
        step(&self.plan, &mut self.state, &mut self.scratch, sample, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile;
    use pit_models::{
        GenericTcn, GenericTcnConfig, ResTcn, ResTcnConfig, TempoNet, TempoNetConfig,
    };
    use pit_nas::SearchableNetwork;
    use pit_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream_all(session: &mut Session, x: &Tensor) -> Vec<Vec<f32>> {
        let (c, t) = (x.dims()[1], x.dims()[2]);
        let mut sample = vec![0.0f32; c];
        let mut outputs = Vec::new();
        for tt in 0..t {
            for ci in 0..c {
                sample[ci] = x.data()[ci * t + tt];
            }
            if let Some(out) = session.push(&sample) {
                outputs.push(out);
            }
        }
        outputs
    }

    #[test]
    fn streaming_restcn_matches_offline_per_step_outputs() {
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = ResTcnConfig {
            hidden_channels: 8,
            input_channels: 5,
            output_channels: 5,
            dropout: 0.0,
            ..ResTcnConfig::paper()
        };
        let net = ResTcn::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let plan = Arc::new(compile(&net));
        let x = init::uniform(&mut rng, &[1, 5, 40], 1.0);
        let offline = plan.forward(&x).unwrap();

        let mut session = Session::new(Arc::clone(&plan));
        let outputs = stream_all(&mut session, &x);
        assert_eq!(outputs.len(), 40);
        let c_out = plan.output_dim();
        for (tt, col) in outputs.iter().enumerate() {
            for co in 0..c_out {
                let want = offline.data()[co * 40 + tt];
                assert!(
                    (col[co] - want).abs() < 1e-5,
                    "t={tt} co={co}: {} vs {want}",
                    col[co]
                );
            }
        }
    }

    #[test]
    fn streaming_temponet_matches_offline_window_prediction() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        net.set_dilations(&cfg.hand_tuned_dilations());
        let plan = Arc::new(compile(&net));
        let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
        let offline = plan.forward(&x).unwrap();

        let mut session = Session::new(Arc::clone(&plan));
        let outputs = stream_all(&mut session, &x);
        // Three stride-2 pools: the head advances every 8 samples.
        assert_eq!(outputs.len(), 64 / 8);
        let last = outputs.last().unwrap();
        assert!(
            (last[0] - offline.data()[0]).abs() < 1e-5,
            "{} vs {}",
            last[0],
            offline.data()[0]
        );
    }

    #[test]
    fn streaming_generic_running_mean_matches_offline_prefixes() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        net.set_dilations(&[2, 4]);
        let plan = Arc::new(compile(&net));
        let x = init::uniform(&mut rng, &[1, 1, 24], 1.0);
        let mut session = Session::new(Arc::clone(&plan));
        let outputs = stream_all(&mut session, &x);
        assert_eq!(outputs.len(), 24);
        // Every step's output equals the offline forward of the prefix.
        for t in [1usize, 7, 24] {
            let prefix = Tensor::from_vec(x.data()[..t].to_vec(), &[1, 1, t]).unwrap();
            let offline = plan.forward(&prefix).unwrap();
            assert!(
                (outputs[t - 1][0] - offline.data()[0]).abs() < 1e-5,
                "prefix {t}"
            );
        }
    }

    #[test]
    fn reset_restores_the_zero_state() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        let plan = Arc::new(compile(&net));
        let x = init::uniform(&mut rng, &[1, 1, 10], 1.0);
        let mut session = Session::new(Arc::clone(&plan));
        let first = stream_all(&mut session, &x);
        session.reset();
        let second = stream_all(&mut session, &x);
        assert_eq!(first, second);
    }

    #[test]
    fn push_into_is_equivalent_and_reports_emission() {
        let mut rng = StdRng::seed_from_u64(14);
        let cfg = TempoNetConfig::scaled(8, 64);
        let net = TempoNet::new(&mut rng, &cfg);
        let plan = Arc::new(compile(&net));
        let mut a = Session::new(Arc::clone(&plan));
        let mut b = Session::new(Arc::clone(&plan));
        let mut out = vec![0.0f32; plan.output_dim()];
        let mut emitted = 0;
        for i in 0..32 {
            let sample = [i as f32 * 0.1, -0.2, 0.3, 0.05];
            let via_push = a.push(&sample);
            let did = b.push_into(&sample, &mut out);
            assert_eq!(via_push.is_some(), did);
            if let Some(v) = via_push {
                emitted += 1;
                assert_eq!(v, out);
            }
        }
        assert_eq!(emitted, 32 / 8);
    }
}
