//! The precision-independent serving interface over session pools.
//!
//! [`SessionPool`] is generic over its [`Precision`], so `SessionPool<f32>`
//! and `SessionPool<i8>` ([`crate::QuantizedSessionPool`]) are two types.
//! A serving front end that holds pools of both precisions side by side
//! needs one type for them: [`StreamPool`] is that seam as an object-safe
//! trait, so one batcher implementation drives either precision through
//! `Box<dyn StreamPool>` (the `pit-serve` daemon once carried 24 enum match
//! arms instead). A new [`Precision`] gets the impl for free.
//!
//! The contract every implementation upholds (and the pools' own test suites
//! pin):
//!
//! * stream ids are dense slot indices, recycled by `close_stream` — a
//!   long-running server's pool does not grow with stream churn;
//! * `push` queues one timestep (`input_channels` values); nothing executes
//!   until `flush`, which drains every queue and returns `(stream_id,
//!   output)` pairs grouped by stream: streams in ascending slot order, each
//!   stream's outputs together and in time order;
//! * pooled outputs equal what a solo [`crate::Session`] fed the same
//!   samples emits, bit for bit;
//! * a freshly opened stream starts from the all-zero (causal padding)
//!   state, regardless of what the recycled slot computed before.

use crate::precision::Precision;
use crate::session::SessionPool;

/// Precision-independent interface to a pool of streaming sessions.
///
/// See the [module docs](self) for the behavioural contract. All methods map
/// one-to-one onto the inherent API of [`SessionPool`]; the trait adds no
/// behaviour of its own.
pub trait StreamPool: Send {
    /// Opens a stream with fresh (zero) state; returns its slot id.
    fn open_stream(&mut self) -> usize;

    /// Closes stream `sid`, dropping queued samples and recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range or already closed.
    fn close_stream(&mut self, sid: usize);

    /// Queues one input sample (length [`StreamPool::input_channels`]) for
    /// stream `sid`.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is not open or the sample length is wrong.
    fn push(&mut self, sid: usize, sample: &[f32]);

    /// Drains every queue; returns emitted head outputs as `(stream_id,
    /// output)`, grouped by stream in ascending slot order, each stream's in
    /// time order.
    fn flush(&mut self) -> Vec<(usize, Vec<f32>)>;

    /// Queued-but-unflushed timesteps across all streams.
    fn pending_steps(&self) -> usize;

    /// Queued-but-unflushed timesteps of stream `sid`.
    ///
    /// # Panics
    ///
    /// Panics if `sid` is out of range.
    fn pending_for(&self, sid: usize) -> usize;

    /// Number of currently open streams (pool occupancy).
    fn open_streams(&self) -> usize;

    /// Whether slot `sid` currently belongs to a live stream.
    fn is_open(&self, sid: usize) -> bool;

    /// Input channels per timestep of the served plan.
    fn input_channels(&self) -> usize;

    /// Values per emitted head output of the served plan.
    fn output_dim(&self) -> usize;
}

impl<P: Precision> StreamPool for SessionPool<P> {
    fn open_stream(&mut self) -> usize {
        SessionPool::open_stream(self)
    }

    fn close_stream(&mut self, sid: usize) {
        SessionPool::close_stream(self, sid);
    }

    fn push(&mut self, sid: usize, sample: &[f32]) {
        SessionPool::push(self, sid, sample);
    }

    fn flush(&mut self) -> Vec<(usize, Vec<f32>)> {
        SessionPool::flush(self)
    }

    fn pending_steps(&self) -> usize {
        SessionPool::pending_steps(self)
    }

    fn pending_for(&self, sid: usize) -> usize {
        SessionPool::pending_for(self, sid)
    }

    fn open_streams(&self) -> usize {
        SessionPool::open_streams(self)
    }

    fn is_open(&self, sid: usize) -> bool {
        SessionPool::is_open(self, sid)
    }

    fn input_channels(&self) -> usize {
        self.plan().input_channels()
    }

    fn output_dim(&self) -> usize {
        self.plan().output_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::compile_generic;
    use crate::quant::QuantizedPlan;
    use pit_models::{GenericTcn, GenericTcnConfig};
    use pit_nas::SearchableNetwork;
    use pit_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// One generic driver, both precisions: the point of the trait.
    fn lifecycle_through_trait(mut pool: Box<dyn StreamPool>) {
        assert_eq!(pool.input_channels(), 1);
        assert_eq!(pool.output_dim(), 1);
        let a = pool.open_stream();
        let b = pool.open_stream();
        assert_eq!(pool.open_streams(), 2);
        pool.push(a, &[0.25]);
        pool.push(a, &[-0.5]);
        pool.push(b, &[1.0]);
        assert_eq!(pool.pending_steps(), 3);
        assert_eq!(pool.pending_for(a), 2);
        let outs = pool.flush();
        assert_eq!(outs.iter().filter(|(sid, _)| *sid == a).count(), 2);
        assert_eq!(outs.iter().filter(|(sid, _)| *sid == b).count(), 1);
        assert_eq!(pool.pending_steps(), 0);
        pool.close_stream(a);
        assert!(!pool.is_open(a));
        assert!(pool.is_open(b));
        // The recycled slot starts from zero state: same input, same output
        // as the fresh stream `b` got.
        let c = pool.open_stream();
        assert_eq!(c, a, "slot must be recycled");
        pool.push(c, &[1.0]);
        let outs2 = pool.flush();
        let fresh = outs2.iter().find(|(sid, _)| *sid == c).expect("c emits");
        let b_first = outs.iter().find(|(sid, _)| *sid == b).expect("b emitted");
        assert_eq!(fresh.1, b_first.1, "recycled slot must start from zero");
    }

    #[test]
    fn both_precisions_serve_through_the_trait_object() {
        let mut rng = StdRng::seed_from_u64(40);
        let net = GenericTcn::new(&mut rng, &GenericTcnConfig::tiny());
        net.set_dilations(&[2, 4]);
        let plan = Arc::new(compile_generic(&net));
        let x = init::uniform(&mut rng, &[1, 1, 32], 1.0);
        let qplan = Arc::new(
            QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).expect("plan quantizes"),
        );
        lifecycle_through_trait(Box::new(SessionPool::new(Arc::clone(&plan), 0)));
        lifecycle_through_trait(Box::new(SessionPool::new(qplan, 0)));
    }
}
