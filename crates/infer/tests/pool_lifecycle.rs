//! Regression tests for the stream lifecycle of `SessionPool` /
//! `QuantizedSessionPool`: closing one finished stream must not disturb the
//! others or require draining the whole pool, closed slots must be recycled
//! with fresh state, and pools must grow past their initial capacity.
//!
//! This is the seam the `pit-serve` daemon's eviction and drain paths stand
//! on.

use pit_infer::{
    compile, InferencePlan, Plan, Precision, QuantizedPlan, QuantizedSession, QuantizedSessionPool,
    Session, SessionPool,
};
use pit_models::{TempoNet, TempoNetConfig};
use pit_nas::SearchableNetwork;
use pit_tensor::init;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn searched_plan(seed: u64) -> InferencePlan {
    let cfg = TempoNetConfig::scaled(8, 64);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = TempoNet::new(&mut rng, &cfg);
    net.set_dilations(&cfg.hand_tuned_dilations());
    compile(&net)
}

fn quantized_plan(seed: u64) -> QuantizedPlan {
    let plan = searched_plan(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let x = init::uniform(&mut rng, &[1, 4, 64], 1.0);
    QuantizedPlan::quantize(&plan, std::slice::from_ref(&x)).unwrap()
}

fn random_stream(rng: &mut StdRng, steps: usize, c: usize) -> Vec<f32> {
    (0..steps * c).map(|_| rng.gen::<f32>() - 0.5).collect()
}

/// Drives three streams, closes the middle one partway, keeps streaming the
/// others, then recycles the freed slot for a brand-new stream — the same
/// scenario for either precision, checked against solo sessions bit for
/// bit (the pool runs the solo step).
fn close_midway_scenario<P: Precision>(plan: Arc<Plan<P>>) {
    const C: usize = 4;
    const STEPS: usize = 48;
    const CLOSE_AT: usize = 17; // not a pool-emission boundary on purpose
    let mut rng = StdRng::seed_from_u64(99);
    let streams: Vec<Vec<f32>> = (0..3).map(|_| random_stream(&mut rng, STEPS, C)).collect();
    let late = random_stream(&mut rng, STEPS, C);

    let mut pool = SessionPool::new(Arc::clone(&plan), 3);
    let mut outputs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 3];
    let mut late_outputs: Vec<Vec<f32>> = Vec::new();
    let mut late_sid = usize::MAX;
    for t in 0..STEPS {
        if t == CLOSE_AT {
            pool.close_stream(1);
            assert_eq!(pool.open_streams(), 2);
            // The freed slot comes back with fresh zero state.
            late_sid = pool.open_stream();
            assert_eq!(late_sid, 1, "closed slot must be recycled");
            assert_eq!(pool.open_streams(), 3);
        }
        for (sid, stream) in streams.iter().enumerate() {
            if sid == 1 && t >= CLOSE_AT {
                continue;
            }
            pool.push(sid, &stream[t * C..(t + 1) * C]);
        }
        if t >= CLOSE_AT {
            let tt = t - CLOSE_AT;
            pool.push(late_sid, &late[tt * C..(tt + 1) * C]);
        }
        for (sid, out) in pool.flush() {
            if sid == late_sid && t >= CLOSE_AT {
                late_outputs.push(out);
            } else {
                outputs[sid].push(out);
            }
        }
    }

    // Survivors must match solo sessions over the full input; the closed
    // stream must match a solo run of its prefix; the recycled slot must
    // match a solo run of the late stream from zero state.
    let checks: [(&[f32], &[Vec<f32>]); 4] = [
        (&streams[0], &outputs[0]),
        (&streams[1][..CLOSE_AT * C], &outputs[1]),
        (&streams[2], &outputs[2]),
        (&late[..(STEPS - CLOSE_AT) * C], &late_outputs),
    ];
    for (i, (input, got)) in checks.iter().enumerate() {
        let mut session = Session::new(Arc::clone(&plan));
        let want: Vec<_> = input.chunks(C).filter_map(|s| session.push(s)).collect();
        assert_eq!(&want, got, "stream {i}");
    }
}

#[test]
fn f32_close_stream_leaves_other_streams_untouched() {
    close_midway_scenario(Arc::new(searched_plan(60)));
}

#[test]
fn i8_close_stream_leaves_other_streams_untouched() {
    close_midway_scenario(Arc::new(quantized_plan(61)));
}

#[test]
fn i8_pool_emissions_stay_bit_exact_across_close() {
    // A stream running alone after its neighbour closed stays bit-exact.
    let plan = Arc::new(quantized_plan(62));
    let mut pool = QuantizedSessionPool::new(Arc::clone(&plan), 2);
    let mut rng = StdRng::seed_from_u64(63);
    let a = random_stream(&mut rng, 24, 4);
    let b = random_stream(&mut rng, 24, 4);
    pool.close_stream(0); // stream 1 keeps running alone
    let mut got = Vec::new();
    for t in 0..24 {
        pool.push(1, &b[t * 4..(t + 1) * 4]);
        got.extend(pool.flush().into_iter().map(|(_, out)| out));
    }
    let _ = a;
    let mut solo = QuantizedSession::new(plan);
    let want: Vec<_> = b.chunks(4).filter_map(|s| solo.push(s)).collect();
    assert_eq!(got, want, "i8 pool must stay bit-exact after a close");
}

#[test]
fn pools_grow_past_their_initial_capacity() {
    let plan = Arc::new(searched_plan(64));
    let mut pool = SessionPool::new(Arc::clone(&plan), 0);
    assert_eq!(pool.open_streams(), 0);
    let sids: Vec<usize> = (0..5).map(|_| pool.open_stream()).collect();
    assert_eq!(sids, vec![0, 1, 2, 3, 4]);
    let mut rng = StdRng::seed_from_u64(65);
    let streams: Vec<Vec<f32>> = (0..5).map(|_| random_stream(&mut rng, 16, 4)).collect();
    let mut outputs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 5];
    for t in 0..16 {
        for (sid, s) in streams.iter().enumerate() {
            pool.push(sid, &s[t * 4..(t + 1) * 4]);
        }
        for (sid, out) in pool.flush() {
            outputs[sid].push(out);
        }
    }
    for (sid, stream) in streams.iter().enumerate() {
        let mut session = Session::new(Arc::clone(&plan));
        let want: Vec<_> = stream.chunks(4).filter_map(|s| session.push(s)).collect();
        assert_eq!(outputs[sid], want, "grown stream {sid}");
    }
}

#[test]
#[should_panic(expected = "not open")]
fn pushing_to_a_closed_stream_panics() {
    let plan = Arc::new(searched_plan(66));
    let mut pool = SessionPool::new(plan, 1);
    pool.close_stream(0);
    pool.push(0, &[0.0; 4]);
}

#[test]
#[should_panic(expected = "not open")]
fn double_close_panics() {
    let plan = Arc::new(quantized_plan(67));
    let mut pool = QuantizedSessionPool::new(plan, 1);
    pool.close_stream(0);
    pool.close_stream(0);
}

#[test]
fn pending_for_tracks_per_stream_queues() {
    let plan = Arc::new(searched_plan(68));
    let mut pool = SessionPool::new(plan, 2);
    pool.push(0, &[0.0; 4]);
    pool.push(0, &[0.0; 4]);
    pool.push(1, &[0.0; 4]);
    assert_eq!(pool.pending_for(0), 2);
    assert_eq!(pool.pending_for(1), 1);
    pool.flush();
    assert_eq!(pool.pending_for(0), 0);
}
