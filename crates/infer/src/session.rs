//! Batch-of-sessions serving: many concurrent streams behind one handle.
//!
//! A [`SessionPool`] owns the stream state of N independent streams plus a
//! queue of pending samples per stream. [`SessionPool::flush`] drains the
//! queues *stream-major*: it runs one stream's queued samples, oldest first,
//! through the solo step of [`crate::Session`] until that queue is empty,
//! then moves to the next stream in ascending slot order. A stream's rings
//! stay in cache across its whole backlog, and one scratch set serves every
//! stream, so a pooled timestep costs what a solo one does.
//!
//! Like [`crate::Session`], the pool is written once for both precisions:
//! `SessionPool<f32>` (the default) serves an [`crate::InferencePlan`],
//! `SessionPool<i8>` ([`crate::QuantizedSessionPool`]) a
//! [`crate::QuantizedPlan`]. Each stream's rings, pool windows and head
//! state are the solo session's, updated by the same code, so pooled
//! emissions are bit-identical to solo ones in either precision.
//!
//! This is the serving story of the crate: N live streams (PPG wearables,
//! audio channels, …) behind one pool, with all scratch owned by the pool
//! and reused across flushes.

use crate::plan::Plan;
use crate::precision::Precision;
use crate::stream::{check_width, step, Scratch, StreamState};
use std::sync::Arc;

/// A pool of concurrent streaming sessions, flushed stream by stream.
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
    queues: Vec<Vec<f32>>,
    /// Whether each slot currently belongs to a live stream.
    open: Vec<bool>,
    /// Closed slots available for reuse by [`SessionPool::open_stream`].
    free: Vec<usize>,
    /// The step scratch every stream shares, and the head output buffer.
    scratch: Scratch<P>,
    out: Vec<f32>,
}

impl<P: Precision> SessionPool<P> {
    /// Creates a pool of `sessions` fresh (already open) streams over one
    /// shared plan. Pass `0` to start empty and open streams on demand.
    pub fn new(plan: Arc<Plan<P>>, sessions: usize) -> Self {
        let mut pool = Self {
            states: Vec::new(),
            queues: Vec::new(),
            open: Vec::new(),
            free: Vec::new(),
            scratch: Scratch::new(&plan),
            out: vec![0.0; plan.output_dim()],
            plan,
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
        self.states.push(StreamState::new(&self.plan));
        self.queues.push(Vec::new());
        self.open.push(true);
        self.states.len() - 1
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
        self.queues[sid].extend_from_slice(sample);
    }

    /// Drains every queue and returns the head outputs that were emitted,
    /// as `(stream_id, output)`: grouped by stream in ascending slot order,
    /// each stream's outputs in time order. Each stream's whole backlog runs
    /// through the solo step before the next stream starts.
    pub fn flush(&mut self) -> Vec<(usize, Vec<f32>)> {
        let Self {
            plan,
            states,
            queues,
            scratch,
            out,
            ..
        } = self;
        let plan: &Plan<P> = plan;
        let c_in = plan.input_channels();
        let mut results = Vec::new();
        for (sid, (state, queue)) in states.iter_mut().zip(queues.iter_mut()).enumerate() {
            for sample in queue.chunks_exact(c_in) {
                if step(plan, state, scratch, sample, out) {
                    results.push((sid, out.clone()));
                }
            }
            queue.clear();
        }
        results
    }
}
