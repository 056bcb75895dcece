//! A registry of named counters, gauges, and histograms.
//!
//! Handles are `Arc`-backed atomics: registering returns a handle whose
//! hot-path update is a single atomic RMW (`O(1)`, no locks, no
//! allocation). The registry itself is only locked when registering or
//! snapshotting — never on the update path — so instrumented code can
//! run inside migration hot loops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`]: values `0, 1, 2-3, 4-7, …`
/// up to `2^62..`, which covers nanosecond timings and byte sizes alike.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Default)]
struct CounterCell(AtomicU64);

#[derive(Default)]
struct GaugeCell(AtomicI64);

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

/// Monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0 .0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0 .0.load(Ordering::Relaxed)
    }
}

/// Signed point-in-time gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0 .0.store(v, Ordering::Relaxed);
    }

    /// Adjust by a delta (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0 .0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0 .0.load(Ordering::Relaxed)
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
    /// A standalone histogram, unattached to any registry. Useful for
    /// per-transfer latency tracking where the handle is threaded through
    /// a component directly instead of looked up by name.
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

enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// A snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram `(count, sum, non-empty log2 buckets as (index, count))`.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Sparse `(bucket_index, count)` pairs for non-empty buckets.
        buckets: Vec<(usize, u64)>,
    },
}

/// Point-in-time copy of every metric in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Name → value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Accumulate another snapshot: counters/histograms add, gauges take
    /// the other side's value (latest wins), unknown names are inserted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.entries {
            match (self.entries.get_mut(name), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = *b,
                (
                    Some(MetricValue::Histogram {
                        count,
                        sum,
                        buckets,
                    }),
                    MetricValue::Histogram {
                        count: c2,
                        sum: s2,
                        buckets: b2,
                    },
                ) => {
                    *count += c2;
                    *sum += s2;
                    let mut merged: BTreeMap<usize, u64> = buckets.iter().copied().collect();
                    for &(i, n) in b2 {
                        *merged.entry(i).or_insert(0) += n;
                    }
                    *buckets = merged.into_iter().collect();
                }
                _ => {
                    self.entries.insert(name.clone(), v.clone());
                }
            }
        }
    }

    /// Render as an aligned `name  value` table (histograms show
    /// `count/sum/mean`).
    pub fn render(&self) -> String {
        let rows: Vec<(String, String)> = self
            .entries
            .iter()
            .map(|(name, v)| {
                let val = match v {
                    MetricValue::Counter(c) => c.to_string(),
                    MetricValue::Gauge(g) => g.to_string(),
                    MetricValue::Histogram { count, sum, .. } => {
                        let mean = if *count == 0 {
                            0.0
                        } else {
                            *sum as f64 / *count as f64
                        };
                        format!("n={count} sum={sum} mean={mean:.1}")
                    }
                };
                (name.clone(), val)
            })
            .collect();
        let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<w$}  {v}\n"));
        }
        out
    }

    /// Render as JSON Lines, one object per metric, sorted by name (the
    /// backing map is ordered), so two snapshots of identical state
    /// produce byte-identical output.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.entries {
            let esc: String = name
                .chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    c => vec![c],
                })
                .collect();
            match v {
                MetricValue::Counter(c) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"{esc}\",\"kind\":\"counter\",\"value\":{c}}}\n"
                    ));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"{esc}\",\"kind\":\"gauge\",\"value\":{g}}}\n"
                    ));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let b: Vec<String> =
                        buckets.iter().map(|(i, n)| format!("[{i},{n}]")).collect();
                    out.push_str(&format!(
                        "{{\"metric\":\"{esc}\",\"kind\":\"histogram\",\"count\":{count},\
                         \"sum\":{sum},\"buckets\":[{}]}}\n",
                        b.join(",")
                    ));
                }
            }
        }
        out
    }
}

/// Registry of named metrics. Cheap to clone (shared interior).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a counter. Re-registering a name returns a handle to
    /// the same underlying cell.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(CounterCell::default())))
        {
            Metric::Counter(c) => Counter(Arc::clone(c)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create a gauge.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(GaugeCell::default())))
        {
            Metric::Gauge(g) => Gauge(Arc::clone(g)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get-or-create a histogram.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::default())))
        {
            Metric::Histogram(h) => Histogram(Arc::clone(h)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Copy every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().unwrap();
        let entries = m
            .iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.0.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => MetricValue::Gauge(g.0.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let n = b.load(Ordering::Relaxed);
                                (n != 0).then_some((i, n))
                            })
                            .collect(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_a_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("blocks");
        let b = reg.counter("blocks");
        a.inc();
        b.add(9);
        assert_eq!(a.get(), 10);
        match reg.snapshot().entries.get("blocks") {
            Some(MetricValue::Counter(10)) => {}
            other => panic!("unexpected snapshot: {other:?}"),
        }
    }

    #[test]
    fn gauge_set_and_delta() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("search_steps");
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        match reg.snapshot().entries.get("search_steps") {
            Some(MetricValue::Histogram {
                count: 6,
                sum: 1010,
                buckets,
            }) => {
                // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
                assert_eq!(buckets, &vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
            }
            other => panic!("unexpected snapshot: {other:?}"),
        }
    }

    #[test]
    fn snapshot_merge_adds_counters_and_histograms() {
        let reg1 = MetricsRegistry::new();
        reg1.counter("c").add(3);
        reg1.histogram("h").observe(4);
        reg1.gauge("g").set(1);
        let reg2 = MetricsRegistry::new();
        reg2.counter("c").add(7);
        reg2.histogram("h").observe(4);
        reg2.gauge("g").set(42);
        reg2.counter("only2").add(1);

        let mut snap = reg1.snapshot();
        snap.merge(&reg2.snapshot());
        assert_eq!(snap.entries.get("c"), Some(&MetricValue::Counter(10)));
        assert_eq!(snap.entries.get("g"), Some(&MetricValue::Gauge(42)));
        assert_eq!(snap.entries.get("only2"), Some(&MetricValue::Counter(1)));
        match snap.entries.get("h") {
            Some(MetricValue::Histogram {
                count: 2,
                sum: 8,
                buckets,
            }) => {
                assert_eq!(buckets, &vec![(3, 2)]);
            }
            other => panic!("unexpected merged histogram: {other:?}"),
        }
    }

    #[test]
    fn updates_race_free_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn render_is_aligned_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("zz").add(1);
        reg.counter("a").add(2);
        let text = reg.snapshot().render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("zz"));
    }

    #[test]
    fn jsonl_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("zz").add(1);
        reg.histogram("h").observe(5);
        reg.gauge("a").set(-3);
        let a = reg.snapshot().jsonl();
        let b = reg.snapshot().jsonl();
        assert_eq!(a, b, "snapshots of identical state must be byte-stable");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"metric\":\"a\""));
        assert!(lines[1].contains("\"metric\":\"h\""));
        assert!(lines[2].contains("\"metric\":\"zz\""));
        assert!(lines[1].contains("\"kind\":\"histogram\""));
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
