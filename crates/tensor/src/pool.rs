//! A persistent batch-parallel worker pool for the numerical kernels.
//!
//! The convolution kernels in this crate are embarrassingly parallel over the
//! batch axis: every sample of a `[N, C, T]` activation writes a disjoint
//! slice of the output. This module provides the two execution shapes those
//! kernels need:
//!
//! * [`for_each_chunk`] — run a closure over disjoint `&mut` chunks of an
//!   output buffer (forward pass, input gradients);
//! * [`map_accumulate`] — run a closure per contiguous group of items into
//!   per-group accumulator buffers and sum them (weight gradients, which
//!   reduce over the batch).
//!
//! Workers are **persistent**: they are spawned once (lazily, on the first
//! parallel call) and park on a condition variable between calls, so a
//! dispatch costs a wake-up (~microseconds) instead of a thread spawn
//! (~tens of microseconds). This matters for the small per-step dispatches of
//! the streaming inference engine, which would otherwise pay the spawn cost
//! on every timestep. The caller always participates in the work, so a batch
//! makes progress even when every worker is busy with another batch (which
//! also makes nested dispatch deadlock-free).
//!
//! Threading only kicks in when [`plan_threads`] decides the work amortises
//! the dispatch cost; on a single-core host (or for small tensors) everything
//! runs inline on the caller's thread.
//!
//! The worker count is capped by `std::thread::available_parallelism`, or by
//! the `PIT_NUM_THREADS` environment variable when set (`PIT_NUM_THREADS=1`
//! forces fully deterministic serial execution and never spawns a worker).

use parking_lot::Mutex;
use std::ops::Range;
use std::sync::OnceLock;

/// Minimum multiply-accumulate operations a thread must receive before waking
/// it is worth the dispatch cost. Lower than the old scoped-spawn threshold
/// (`1 << 20`): parked workers wake in microseconds, spawned ones started in
/// tens of microseconds.
const MIN_WORK_PER_THREAD: usize = 1 << 18;

/// Maximum worker count: `PIT_NUM_THREADS` if set, otherwise the detected
/// hardware parallelism (1 when detection fails).
pub fn max_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        if let Some(n) = std::env::var("PIT_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Picks a worker count for `items` units of work costing `work_per_item`
/// multiply-accumulates each. Returns 1 (run inline) when the work would not
/// amortise waking the pool.
pub fn plan_threads(items: usize, work_per_item: usize) -> usize {
    let by_work = (items.saturating_mul(work_per_item) / MIN_WORK_PER_THREAD).max(1);
    max_threads().min(items).min(by_work).max(1)
}

/// The lifetime-erasing task dispatcher behind the persistent pool.
///
/// Safe Rust cannot hand a non-`'static` closure to a long-lived thread, so
/// this submodule erases the borrow behind a raw pointer and re-establishes
/// safety with a completion protocol: [`executor::run`] does not return until
/// every claimed task index has finished executing, so the erased borrow can
/// never outlive the closure it points to. This is the same construction
/// `rayon`/`crossbeam` use for scoped parallelism, reduced to the one shape
/// the kernels need (an indexed task set of known size).
mod executor {
    #![allow(unsafe_code)]

    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// One indexed task set: workers claim indices in `0..total` and run the
    /// erased closure on each.
    struct Batch {
        /// The caller's `&(dyn Fn(usize) + Sync)` with its lifetime erased to
        /// `'static`. Sound because [`run`] blocks until every task that can
        /// touch it has completed (`pending == 0`), so the borrow it was
        /// erased from is still live whenever this is dereferenced.
        task: &'static (dyn Fn(usize) + Sync),
        /// Next unclaimed index (may grow past `total`; claims beyond it are
        /// no-ops).
        next: AtomicUsize,
        total: usize,
        /// Tasks claimed or unclaimed but not yet finished; the batch is
        /// complete when this reaches zero.
        pending: AtomicUsize,
        /// First panic payload raised by a task, re-thrown by the caller.
        panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
        done: Mutex<bool>,
        done_cv: Condvar,
    }

    impl Batch {
        /// Claims and runs task indices until none remain. Panics inside a
        /// task are captured (not propagated) so worker threads survive and
        /// the completion protocol always terminates.
        fn drain(&self) {
            loop {
                let i = self.next.fetch_add(1, Ordering::AcqRel);
                if i >= self.total {
                    return;
                }
                // `pending` has not reached zero (this index has not
                // finished), so `run` is still blocked and the borrow behind
                // `task` is alive.
                let f = self.task;
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                }
                if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
                    *done = true;
                    self.done_cv.notify_all();
                }
            }
        }

        fn exhausted(&self) -> bool {
            self.next.load(Ordering::Acquire) >= self.total
        }
    }

    struct Shared {
        /// Batches with unclaimed indices, oldest first.
        queue: Mutex<Vec<Arc<Batch>>>,
        work_cv: Condvar,
        /// Workers spawned so far (monotone; workers never exit).
        workers: AtomicUsize,
    }

    fn shared() -> &'static Shared {
        static SHARED: OnceLock<Shared> = OnceLock::new();
        SHARED.get_or_init(|| Shared {
            queue: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            workers: AtomicUsize::new(0),
        })
    }

    fn worker_loop() {
        let sh = shared();
        loop {
            let batch = {
                let mut q = sh.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    q.retain(|b| !b.exhausted());
                    if let Some(b) = q.first() {
                        break Arc::clone(b);
                    }
                    q = sh.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            batch.drain();
        }
    }

    /// Lazily tops the pool up to `wanted` parked workers (never more than
    /// [`super::max_threads`]` - 1`: the caller is always the extra thread).
    fn ensure_workers(wanted: usize) {
        let sh = shared();
        let cap = super::max_threads().saturating_sub(1);
        let wanted = wanted.min(cap);
        let mut cur = sh.workers.load(Ordering::Acquire);
        while cur < wanted {
            match sh
                .workers
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    let spawned = std::thread::Builder::new()
                        .name(format!("pit-pool-{cur}"))
                        .spawn(worker_loop);
                    if spawned.is_err() {
                        // Degrade gracefully: the caller drains every task
                        // itself, so correctness never depends on workers.
                        sh.workers.fetch_sub(1, Ordering::AcqRel);
                        return;
                    }
                    cur += 1;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Runs `f(i)` for every `i` in `0..total` using up to `threads` threads
    /// (the caller plus parked pool workers). Returns once every task has
    /// finished; re-raises the first panic any task produced.
    pub fn run(total: usize, threads: usize, f: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if threads <= 1 || total == 1 {
            for i in 0..total {
                f(i);
            }
            return;
        }
        ensure_workers(threads - 1);
        // SAFETY: both sides of the transmute are a fat reference to the same
        // trait object; only the lifetime is erased. `run` does not return
        // until `pending == 0`, i.e. until no thread can dereference the
        // erased reference again, so it never outlives the real borrow.
        let task: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let batch = Arc::new(Batch {
            task,
            next: AtomicUsize::new(0),
            total,
            pending: AtomicUsize::new(total),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let sh = shared();
            let mut q = sh.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push(Arc::clone(&batch));
            sh.work_cv.notify_all();
        }
        // The caller participates: progress is guaranteed even when every
        // worker is busy elsewhere (or none could be spawned).
        batch.drain();
        // Block until the workers' claimed tasks have finished too — this is
        // the wait that makes the lifetime erasure behind `Batch::task` sound.
        {
            let mut done = batch.done.lock().unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = batch.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
        }
        let mut q = shared().queue.lock().unwrap_or_else(|e| e.into_inner());
        q.retain(|b| !Arc::ptr_eq(b, &batch));
        drop(q);
        let payload = batch.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Splits `out` into consecutive chunks of `chunk_len` and runs
/// `f(chunk_index, chunk)` for each, using up to `threads` threads.
///
/// Chunks are disjoint, so workers never alias; a trailing chunk shorter than
/// `chunk_len` (when `out.len()` is not a multiple) is processed like any
/// other.
///
/// # Panics
///
/// Panics if `chunk_len` is zero and `out` is non-empty, or if `f` panics.
pub fn for_each_chunk(
    out: &mut [f32],
    chunk_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    if threads <= 1 {
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Each chunk is wrapped in a Mutex so tasks can reach a `&mut` through a
    // shared reference; every index is claimed exactly once, so the locks are
    // uncontended (one acquisition per chunk).
    let chunks: Vec<Mutex<&mut [f32]>> = out.chunks_mut(chunk_len).map(Mutex::new).collect();
    executor::run(chunks.len(), threads, &|i| {
        let mut chunk = chunks[i].lock();
        f(i, &mut chunk);
    });
}

/// Runs `f(items, accumulator)` over `0..items` split into contiguous
/// groups, where each group owns a zero-initialised accumulator of `acc_len`
/// floats that `f` adds into; the per-group accumulators are summed, in
/// group order, into the returned buffer.
///
/// Items are split into up to `threads` contiguous groups (one task each,
/// so `f` can set up scratch once per group), so the grouping — and
/// therefore the floating-point summation order — depends only on the
/// thread count, not on scheduling. With `threads <= 1` a single group
/// covers every item and its accumulator is returned as is, which is the
/// fully deterministic path (`PIT_NUM_THREADS=1`).
pub fn map_accumulate(
    items: usize,
    acc_len: usize,
    threads: usize,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) -> Vec<f32> {
    if threads <= 1 || items <= 1 {
        let mut acc = vec![0.0f32; acc_len];
        f(0..items, &mut acc);
        return acc;
    }
    let groups = threads.min(items);
    let accs: Vec<Mutex<Vec<f32>>> = (0..groups)
        .map(|_| Mutex::new(vec![0.0f32; acc_len]))
        .collect();
    executor::run(groups, groups, &|g| {
        let mut acc = accs[g].lock();
        f(g * items / groups..(g + 1) * items / groups, &mut acc);
    });
    let mut total = vec![0.0f32; acc_len];
    for acc in accs {
        for (t, v) in total.iter_mut().zip(acc.into_inner()) {
            *t += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_iteration_covers_every_chunk() {
        for threads in [1usize, 3] {
            let mut buf = vec![0.0f32; 10];
            for_each_chunk(&mut buf, 3, threads, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v = i as f32 + 1.0;
                }
            });
            assert_eq!(
                buf,
                vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_buffer_is_a_no_op() {
        let mut buf: Vec<f32> = Vec::new();
        for_each_chunk(&mut buf, 4, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn accumulate_sums_every_item_once() {
        for threads in [1usize, 4] {
            let total = map_accumulate(7, 2, threads, |items, acc| {
                for i in items {
                    acc[0] += i as f32;
                    acc[1] += 1.0;
                }
            });
            assert_eq!(total, vec![21.0, 7.0], "threads={threads}");
        }
    }

    #[test]
    fn repeated_dispatch_reuses_the_pool() {
        // Exercises the parked-worker path many times in a row; the pool must
        // stay consistent across batches (this would hang or corrupt counts
        // if completion tracking leaked between batches).
        for round in 0..100usize {
            let mut buf = vec![0.0f32; 64];
            for_each_chunk(&mut buf, 4, 4, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v = (round * 16 + i) as f32;
                }
            });
            for (i, chunk) in buf.chunks(4).enumerate() {
                assert!(chunk.iter().all(|&v| v == (round * 16 + i) as f32));
            }
        }
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let total = map_accumulate(16, 1, 4, |items, acc| {
                            for i in items {
                                acc[0] += i as f32;
                            }
                        });
                        assert_eq!(total, vec![120.0]);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            let mut buf = vec![0.0f32; 8];
            for_each_chunk(&mut buf, 1, 4, |i, _| {
                if i == 5 {
                    panic!("boom in task 5");
                }
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom in task 5"), "payload: {msg}");
    }

    #[test]
    fn plan_threads_stays_serial_for_small_work() {
        assert_eq!(plan_threads(8, 10), 1);
        assert_eq!(plan_threads(0, 1 << 30), 1);
        // Huge work is capped by the item count and the hardware.
        assert!(plan_threads(2, 1 << 24) <= 2);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
