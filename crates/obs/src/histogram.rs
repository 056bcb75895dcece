//! A lock-free log2-bucketed histogram.
//!
//! A [`Histogram`] is an `Arc`-backed set of atomics: `observe` is a few
//! relaxed atomic updates (no lock, no allocation), so per-chunk latency
//! tracking can sit in the wire path. A distribution is not an event,
//! which is why this lives beside the event log rather than in it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log2 buckets in a [`Histogram`]: values `0, 1, 2-3, 4-7, …`
/// up to `2^62..`, which covers nanosecond timings and byte sizes alike.
pub const HISTOGRAM_BUCKETS: usize = 64;

struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Log2-bucketed histogram handle (counts + sum, so mean is exact).
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCell>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation. The running sum saturates at `u64::MAX`
    /// instead of wrapping, so pathological inputs degrade gracefully.
    #[inline]
    pub fn observe(&self, v: u64) {
        let bucket = bucket_of(v);
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Point-in-time copy with quantile estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in self.0.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }
}

/// Bucket index for a value: `0 -> 0`, else `1 + floor(log2(v))`, capped.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper edge of a log2 bucket: bucket 0 holds only 0, bucket
/// `i` holds `[2^(i-1), 2^i - 1]`, and the top bucket is open-ended.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Point-in-time copy of a [`Histogram`] with log-bucketed quantile
/// estimation. `Copy` so phase snapshots that embed one stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Exact largest observation (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts (log2 buckets, see `bucket_of`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Estimated quantile `q` in `[0, 1]`. Walks the cumulative bucket
    /// counts to the bucket containing the target rank and reports that
    /// bucket's inclusive upper edge, clamped to the exact tracked
    /// maximum — so the estimate never exceeds any real observation and
    /// `quantile(1.0) == max` exactly. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(n);
            if cum >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Accumulate another snapshot: bucket-wise addition, saturating
    /// count/sum, larger max. Commutative: `a.merge(b)` and `b.merge(a)`
    /// produce equal snapshots.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let snap = h.snapshot();
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
        let filled: Vec<(usize, u64)> = snap
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| (n != 0).then_some((i, n)))
            .collect();
        assert_eq!(filled, vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.quantile(1.0), 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn single_observation_pins_every_quantile() {
        let h = Histogram::new();
        h.observe(777);
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 777, "q={q}");
        }
        assert_eq!(snap.max, 777);
        assert_eq!(snap.mean(), 777.0);
    }

    #[test]
    fn observe_saturates_at_u64_max() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let h1 = Histogram::new();
        for v in [1, 2, 1000, 65_536] {
            h1.observe(v);
        }
        let h2 = Histogram::new();
        for v in [0, 3, 4_000_000] {
            h2.observe(v);
        }
        let mut ab = h1.snapshot();
        ab.merge(&h2.snapshot());
        let mut ba = h2.snapshot();
        ba.merge(&h1.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 7);
        assert_eq!(ab.max, 4_000_000);
    }

    #[test]
    fn quantile_estimates_track_bucket_edges() {
        let h = Histogram::new();
        // 90 fast observations in [8, 15], 10 slow ones in [1024, 2047].
        for i in 0..90u64 {
            h.observe(8 + (i % 8));
        }
        for _ in 0..10 {
            h.observe(1500);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 15, "p50 lands in the [8,15] bucket");
        assert_eq!(snap.p90(), 15, "rank 90 is still in the fast bucket");
        assert_eq!(snap.p99(), 1500, "p99 clamps to the exact max");
        assert_eq!(snap.quantile(1.0), 1500);
    }
}
