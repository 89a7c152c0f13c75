//! Batch-of-sessions serving: many concurrent streams, one kernel call.
//!
//! A [`SessionPool`] owns the stream state of N independent streams plus
//! per-stream queues of pending samples. [`SessionPool::flush`] drains the
//! queues in *waves*: every stream with a pending sample contributes one
//! timestep, and the whole wave moves through the plan layer by layer —
//! each convolution is a single `[N, C_in·K] × [C_in·K, C_out]` GEMM
//! ([`crate::Precision::gemm`]) instead of N tiny per-stream loops.
//! Strided pooling gates streams independently (each keeps its own phase),
//! so a wave simply narrows as it descends past a pool that did not fire for
//! some streams.
//!
//! Like [`crate::Session`], the pool is written once for both precisions:
//! `SessionPool<f32>` (the default) serves an [`crate::InferencePlan`],
//! `SessionPool<i8>` ([`crate::QuantizedSessionPool`]) a
//! [`crate::QuantizedPlan`]. Each stream's rings, pool windows and head
//! state are the solo session's, updated by the same code, and every layer
//! ends in the same tail as the per-step path.
//!
//! This is the serving story of the crate: N live streams (PPG wearables,
//! audio channels, …) → one batched kernel invocation per layer per wave,
//! with all scratch owned by the pool and reused across flushes.

use crate::plan::{Block, Head, Plan};
use crate::precision::{wave, ConvOp, LinearOp, Precision};
use crate::stream::{check_width, residual_add, scratch_widths, StreamState, COPY_PAD};
use std::collections::VecDeque;
use std::sync::Arc;

/// A pool of concurrent streaming sessions executed in batched waves.
///
/// Streams have a lifecycle: [`SessionPool::new`] pre-opens a fixed count,
/// and a serving front end grows/shrinks the live set with
/// [`SessionPool::open_stream`] / [`SessionPool::close_stream`] — closing
/// resets the slot and recycles it, so a long-running server's pool does not
/// grow with connection churn.
pub struct SessionPool<P: Precision = f32> {
    plan: Arc<Plan<P>>,
    /// Stream state per slot (open or recycled).
    states: Vec<StreamState<P>>,
    /// Pending samples per slot, flattened (`input_channels` floats each).
    queues: Vec<VecDeque<f32>>,
    /// Whether each slot currently belongs to a live stream.
    open: Vec<bool>,
    /// Closed slots available for reuse by [`SessionPool::open_stream`].
    free: Vec<usize>,
    // Per-stream scratch widths (f32 column, gathered row), kept so
    // open_stream can grow the wave buffers.
    col_w: usize,
    row_w: usize,
    // Wave scratch, reused across flushes: the active slots, the f32
    // columns, the residual skip columns, the gathered rows and the GEMM
    // accumulators.
    active: Vec<usize>,
    cur: Vec<f32>,
    nxt: Vec<f32>,
    skip: Vec<f32>,
    xrows: Vec<P>,
    acc: Vec<P::Acc>,
}

impl<P: Precision> SessionPool<P> {
    /// Creates a pool of `sessions` fresh (already open) streams over one
    /// shared plan. Pass `0` to start empty and open streams on demand.
    pub fn new(plan: Arc<Plan<P>>, sessions: usize) -> Self {
        let (col_w, row_w) = scratch_widths(&plan);
        let mut pool = Self {
            plan,
            states: Vec::new(),
            queues: Vec::new(),
            open: Vec::new(),
            free: Vec::new(),
            col_w,
            row_w,
            active: Vec::with_capacity(sessions),
            cur: Vec::new(),
            nxt: Vec::new(),
            skip: Vec::new(),
            xrows: Vec::new(),
            acc: Vec::new(),
        };
        for _ in 0..sessions {
            pool.open_stream();
        }
        pool
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<Plan<P>> {
        &self.plan
    }

    /// Number of currently open streams.
    pub fn open_streams(&self) -> usize {
        self.open.iter().filter(|&&o| o).count()
    }

    /// Whether slot `sid` currently belongs to a live stream.
    pub fn is_open(&self, sid: usize) -> bool {
        self.open.get(sid).copied().unwrap_or(false)
    }

    /// Opens a stream with fresh (zero) state, reusing a closed slot when
    /// one exists and growing the pool otherwise. Returns the stream id.
    pub fn open_stream(&mut self) -> usize {
        if let Some(sid) = self.free.pop() {
            self.open[sid] = true;
            return sid;
        }
        let sid = self.states.len();
        self.states.push(StreamState::new(&self.plan));
        self.queues.push(VecDeque::new());
        self.open.push(true);
        let n = sid + 1;
        for buf in [&mut self.cur, &mut self.nxt, &mut self.skip] {
            buf.resize(n * self.col_w, 0.0);
        }
        self.xrows.resize(n * self.row_w + COPY_PAD, P::default());
        self.acc.resize(n * self.col_w, P::Acc::default());
        sid
    }

    /// Closes stream `sid`: drops its queued samples, resets its state and
    /// recycles the slot for a future [`SessionPool::open_stream`]. The
    /// eviction/drain path of a serving front end — no other stream is
    /// disturbed and no pool-wide drain is needed.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range or already closed.
    pub fn close_stream(&mut self, sid: usize) {
        assert!(self.open[sid], "stream {sid} is not open");
        self.states[sid].reset();
        self.queues[sid].clear();
        self.open[sid] = false;
        self.free.push(sid);
    }

    /// Pending (queued, not yet flushed) timesteps across all streams.
    pub fn pending_steps(&self) -> usize {
        let c = self.plan.input_channels().max(1);
        self.queues.iter().map(|q| q.len() / c).sum()
    }

    /// Pending (queued, not yet flushed) timesteps of one stream — what a
    /// serving front end checks against its backpressure cap.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range.
    pub fn pending_for(&self, sid: usize) -> usize {
        self.queues[sid].len() / self.plan.input_channels().max(1)
    }

    /// Queues one input sample for stream `sid`.
    ///
    /// # Panics
    ///
    /// Panics if the sample does not carry exactly the plan's input
    /// channels, or `sid` is out of range or not open.
    pub fn push(&mut self, sid: usize, sample: &[f32]) {
        check_width(&self.plan, sample);
        assert!(self.open[sid], "stream {sid} is not open");
        self.queues[sid].extend(sample);
    }

    /// Drains every queue, one wave (= one timestep per stream with pending
    /// input) at a time, and returns the head outputs that were emitted, as
    /// `(stream_id, output)` in emission order (per stream: chronological).
    pub fn flush(&mut self) -> Vec<(usize, Vec<f32>)> {
        let plan = Arc::clone(&self.plan);
        let c_in = plan.input_channels();
        let mut results = Vec::new();
        loop {
            self.active.clear();
            for (sid, q) in self.queues.iter().enumerate() {
                if q.len() >= c_in {
                    self.active.push(sid);
                }
            }
            if self.active.is_empty() {
                return results;
            }
            // Dequeue one sample per active stream into the wave matrix.
            for (r, &sid) in self.active.iter().enumerate() {
                let row = &mut self.cur[r * c_in..(r + 1) * c_in];
                for (dst, v) in row.iter_mut().zip(self.queues[sid].drain(..c_in)) {
                    *dst = v;
                }
            }
            self.run_wave(&plan, &mut results);
        }
    }

    /// Executes one wave currently held in `self.cur` over `self.active`,
    /// walking the plan in the solo step's order (rings and pool windows
    /// indexed as in [`StreamState`]).
    fn run_wave(&mut self, plan: &Plan<P>, results: &mut Vec<(usize, Vec<f32>)>) {
        let mut width = plan.input_channels();
        let (mut ring, mut pool_idx) = (0, 0);
        for block in &plan.blocks {
            match block {
                Block::Residual {
                    conv1,
                    conv2,
                    downsample,
                } => {
                    let n = self.active.len();
                    self.skip[..n * width].copy_from_slice(&self.cur[..n * width]);
                    self.conv_wave(ring, conv1, width, true);
                    self.conv_wave(ring + 1, conv2, conv1.outputs(), true);
                    ring += 2;
                    if let Some(proj) = downsample {
                        // Swap the saved input into `cur` so the conv helper
                        // can read it (the residual branch parks in `skip`),
                        // then swap back: `cur` = branch, `skip` = projection.
                        std::mem::swap(&mut self.cur, &mut self.skip);
                        self.conv_wave(ring, proj, width, false);
                        std::mem::swap(&mut self.cur, &mut self.skip);
                        ring += 1;
                    }
                    width = conv2.outputs();
                    residual_add(&mut self.cur[..n * width], &self.skip[..n * width]);
                }
                Block::Plain { convs, pool } => {
                    for conv in convs {
                        self.conv_wave(ring, conv, width, true);
                        ring += 1;
                        width = conv.outputs();
                    }
                    if let Some(pool) = pool {
                        // Per-stream pool phase: keep only emitting rows.
                        let mut kept = 0usize;
                        for r in 0..self.active.len() {
                            let sid = self.active[r];
                            let (src, dst) = (r * width, kept * width);
                            if self.states[sid].pools[pool_idx].step(
                                pool,
                                &self.cur[src..src + width],
                                &mut self.nxt[dst..dst + width],
                            ) {
                                self.active[kept] = sid;
                                kept += 1;
                            }
                        }
                        pool_idx += 1;
                        self.active.truncate(kept);
                        if self.active.is_empty() {
                            return;
                        }
                        std::mem::swap(&mut self.cur, &mut self.nxt);
                    }
                }
            }
        }
        let n = self.active.len();
        let out_dim = match &plan.head {
            Head::PerStep(conv) => {
                self.conv_wave(ring, conv, width, false);
                conv.outputs()
            }
            Head::Fc {
                hidden,
                output,
                window,
                ..
            } => {
                let in_f = hidden.inputs();
                for (r, &sid) in self.active.iter().enumerate() {
                    self.states[sid].fc_window(
                        hidden,
                        *window,
                        &self.cur[r * width..(r + 1) * width],
                        &mut self.xrows[r * in_f..(r + 1) * in_f],
                    );
                }
                self.layer_wave(hidden, true);
                // The hidden activations (now in `cur`) cross the output
                // layer's seam, then the output dense runs as a second wave.
                let hid = hidden.outputs();
                for (q, &v) in self.xrows[..n * hid].iter_mut().zip(&self.cur[..n * hid]) {
                    *q = output.seam(v);
                }
                self.layer_wave(output, false);
                output.outputs()
            }
            Head::GlobalPoolFc(dense) => {
                let in_f = dense.inputs();
                for (r, &sid) in self.active.iter().enumerate() {
                    self.states[sid].global_mean(
                        dense,
                        &self.cur[r * width..(r + 1) * width],
                        &mut self.xrows[r * in_f..(r + 1) * in_f],
                    );
                }
                self.layer_wave(dense, false);
                dense.outputs()
            }
        };
        for (r, &sid) in self.active.iter().enumerate() {
            results.push((sid, self.cur[r * out_dim..(r + 1) * out_dim].to_vec()));
        }
    }

    /// Batched step of one convolution (ring `ring` of every active stream):
    /// seam-pushes each stream's column, gathers the rows and runs one wave.
    /// Reads columns from `cur`, leaves the output columns in `cur`.
    fn conv_wave(&mut self, ring: usize, conv: &P::Conv, width: usize, relu: bool) {
        let (c_in, ck) = (conv.in_channels(), conv.inputs());
        for (r, &sid) in self.active.iter().enumerate() {
            let state = &mut self.states[sid].rings[ring];
            state.push(conv, &self.cur[r * width..r * width + c_in]);
            state.gather(conv, &mut self.xrows[r * ck..]);
        }
        self.layer_wave(conv, relu);
    }

    /// One wave of a linear layer over the rows gathered in `xrows`, leaving
    /// the f32 results in `cur`.
    fn layer_wave<L: LinearOp<P>>(&mut self, layer: &L, relu: bool) {
        let n = self.active.len();
        wave(layer, n, &self.xrows, &mut self.acc, &mut self.nxt, relu);
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }
}
