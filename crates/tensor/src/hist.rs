//! A lock-free fixed-bucket log-scale histogram for latency recording.
//!
//! Extracted from `pit-serve`'s telemetry layer so every measurement
//! surface in the workspace — the daemon's per-model wave timers, the
//! bench harness, the `pit-replay` load driver — shares one bucket
//! layout and one quantile convention, and snapshots taken on either
//! side of the wire can be merged or compared directly.
//!
//! ## Layout
//!
//! 252 fixed buckets (HDR-style) cover the full `u64` nanosecond range:
//! values 0–3 get their own bucket, then each power of two is split into
//! four sub-buckets (the two bits below the most significant bit select
//! within the octave). Bucket boundaries are exact integers, counts are
//! exact, and percentiles are derived from the cumulative bucket walk
//! with at most ~25% relative overestimate — the reported percentile is
//! the containing bucket's upper bound. Histograms never roll over:
//! quantiles describe the whole run, not the recent past.
//!
//! Recording is two relaxed `fetch_add`s — no locks, no allocation — so
//! a histogram can stay on unconditionally in a serving hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of fixed buckets: values 0–3 exactly, then four sub-buckets per
/// power of two up to `u64::MAX` (highest index 251).
pub const HIST_BUCKETS: usize = 252;

/// Bucket index for a nanosecond value. Values below 4 get their own
/// bucket; above that, the octave (position of the most significant bit)
/// selects a group of four sub-buckets and the two bits below the MSB
/// select within it.
pub fn bucket_index(ns: u64) -> usize {
    if ns < 4 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (msb - 2)) & 3) as usize;
    4 + (msb - 2) * 4 + sub
}

/// Smallest value that lands in bucket `idx` (exact integer boundary).
pub fn bucket_lo(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let oct = (idx - 4) / 4 + 2;
    let sub = ((idx - 4) % 4) as u64;
    (1u64 << oct) + (sub << (oct - 2))
}

/// Largest value that lands in bucket `idx`.
pub fn bucket_hi(idx: usize) -> u64 {
    if idx + 1 >= HIST_BUCKETS {
        return u64::MAX;
    }
    bucket_lo(idx + 1) - 1
}

/// A lock-free fixed-bucket log-scale latency histogram. Recording is two
/// relaxed `fetch_add`s; snapshots are a plain bucket copy.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum())
            .finish()
    }
}

impl Histogram {
    /// Records one observation (nanoseconds).
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copies the current bucket counts out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s buckets, mergeable across
/// sources (shards, connections, runs) before computing global
/// percentiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with every bucket at zero.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            sum: 0,
        }
    }

    /// Adds another histogram's buckets into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value at quantile `p` (0.0–1.0): the upper bound of the bucket
    /// containing the rank-`round((count-1)·p)` observation, matching the
    /// index convention of a sorted sample array.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total - 1) as f64 * p).round() as u64;
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > rank {
                return bucket_hi(idx);
            }
        }
        u64::MAX
    }

    /// Observations with value `<= bound` (the cumulative count behind a
    /// Prometheus `le` series; `bound` must be a bucket upper boundary for
    /// the count to be exact).
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        self.buckets[..=bucket_index(bound)].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Small values are exact.
        for v in 0..16u64 {
            let idx = bucket_index(v);
            assert!(
                bucket_lo(idx) <= v && v <= bucket_hi(idx),
                "v={v} idx={idx}"
            );
        }
        // Every bucket boundary maps back into its own bucket, buckets
        // tile the range without gaps or overlaps.
        for idx in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_lo(idx)), idx);
            assert_eq!(bucket_index(bucket_hi(idx)), idx);
            assert_eq!(bucket_hi(idx) + 1, bucket_lo(idx + 1));
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_hi(HIST_BUCKETS - 1), u64::MAX);
        // Relative quantization error stays within a quarter of the value.
        for &v in &[5u64, 100, 1_000, 123_456, 7_890_123, u64::MAX / 3] {
            let hi = bucket_hi(bucket_index(v));
            assert!(hi - v <= v / 4 + 1, "v={v} hi={hi}");
        }
    }

    #[test]
    fn histogram_percentiles_track_recorded_values() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum(), 500_500);
        let p50 = snap.percentile(0.50);
        // The reported percentile is the containing bucket's upper bound:
        // never below the true value, at most ~25% above.
        assert!((500..=640).contains(&p50), "p50={p50}");
        let p99 = snap.percentile(0.99);
        assert!((990..=1280).contains(&p99), "p99={p99}");
        assert_eq!(snap.percentile(0.0), bucket_hi(bucket_index(1)));
        assert_eq!(snap.percentile(1.0), bucket_hi(bucket_index(1000)));
    }

    #[test]
    fn percentile_edges_handle_empty_and_single_sample() {
        let snap = HistogramSnapshot::empty();
        assert_eq!(snap.percentile(0.0), 0);
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.percentile(1.0), 0);
        assert_eq!(snap.count(), 0);
        let h = Histogram::default();
        h.record(777);
        let snap = h.snapshot();
        // One sample: every quantile lands on its bucket.
        let hi = bucket_hi(bucket_index(777));
        assert_eq!(snap.percentile(0.0), hi);
        assert_eq!(snap.percentile(0.999), hi);
        assert_eq!(snap.percentile(1.0), hi);
    }

    #[test]
    fn p999_separates_a_thousand_to_one_tail() {
        let h = Histogram::default();
        for _ in 0..9980 {
            h.record(1_000);
        }
        for _ in 0..20 {
            h.record(50_000_000);
        }
        let snap = h.snapshot();
        // p99 sits in the fast mass, p99.9 on the twenty slow outliers.
        assert!(snap.percentile(0.99) < 2_000);
        assert!(snap.percentile(0.999) >= 50_000_000);
    }

    #[test]
    fn histogram_snapshots_merge_across_sources() {
        let a = Histogram::default();
        let b = Histogram::default();
        for _ in 0..10 {
            a.record(10);
            b.record(1_000_000);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 20);
        assert_eq!(merged.sum(), 10 * 10 + 10 * 1_000_000);
        assert!(merged.percentile(0.95) >= 1_000_000);
        assert!(merged.percentile(0.05) < 20);
    }

    #[test]
    fn cumulative_le_matches_bound_walk() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 200, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.cumulative_le(3), 3);
        assert_eq!(snap.cumulative_le(255), 6);
        assert_eq!(snap.cumulative_le((1 << 18) - 1), 7);
        assert_eq!(snap.cumulative_le(u64::MAX), 7);
    }
}
