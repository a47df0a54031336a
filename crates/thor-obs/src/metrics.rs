//! Lock-free metric primitives: [`Counter`], [`Gauge`], [`StageTimer`].
//!
//! All three are a handful of `AtomicU64`s with relaxed ordering —
//! individual updates cost one uncontended atomic RMW, so they are safe
//! to drop into hot loops and to share across the document-parallel
//! extraction workers. Relaxed ordering means a concurrent reader may
//! observe the counters of an in-flight run mid-update; totals are exact
//! once the writing threads are joined, which is the only point the
//! pipeline reads them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (sizes, cardinalities).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Accumulated wall-clock time of a pipeline stage: total nanoseconds
/// plus the number of recorded spans, so both totals and means are
/// available. Monotonic ([`Instant`]-based) and thread-safe.
#[derive(Debug, Default)]
pub struct StageTimer {
    nanos: AtomicU64,
    spans: AtomicU64,
}

impl StageTimer {
    /// A timer with nothing recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span of `d`.
    pub fn record(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.spans.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge a previously accumulated `(total, spans)` pair in one shot —
    /// how a resumed run absorbs the timers of its checkpointed prefix.
    pub fn record_accumulated(&self, total: Duration, spans: u64) {
        self.nanos
            .fetch_add(total.as_nanos() as u64, Ordering::Relaxed);
        self.spans.fetch_add(spans, Ordering::Relaxed);
    }

    /// Start a span that records itself when dropped.
    pub fn start(&self) -> Span<'_> {
        Span {
            timer: self,
            begun: Instant::now(),
        }
    }

    /// Run `f`, record its duration, and return the result together
    /// with the measured duration (so per-call timing fields and the
    /// accumulated metric come from the same measurement).
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed();
        self.record(d);
        (out, d)
    }

    /// Total recorded time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Number of recorded spans.
    pub fn spans(&self) -> u64 {
        self.spans.load(Ordering::Relaxed)
    }

    /// Mean span duration (zero when nothing was recorded).
    pub fn mean(&self) -> Duration {
        let n = self.spans();
        if n == 0 {
            Duration::ZERO
        } else {
            self.total() / n as u32
        }
    }
}

/// An in-flight [`StageTimer`] span; records on drop.
#[derive(Debug)]
pub struct Span<'a> {
    timer: &'a StageTimer,
    begun: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.timer.record(self.begun.elapsed());
    }
}

/// Number of buckets in a [`Histogram`] — one per power of two of the
/// recorded value, covering the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log-bucketed histogram for latency-style distributions.
///
/// Bucket `i` holds values `v` with `floor(log2(max(v, 1))) == i`, i.e.
/// `[2^i, 2^(i+1))` (bucket 0 additionally holds 0). Recording is one
/// relaxed atomic RMW per observation, so per-request serve paths can
/// hammer a shared handle. Quantiles are answered from the bucket
/// cumulative counts and always return a bucket's *inclusive upper
/// bound*, which makes them conservative (never under-reported) and
/// monotone in the requested rank: `p50 <= p95 <= p99` by construction.
///
/// Values are unit-agnostic `u64`s; the serve layer records each
/// request's latency in microseconds via [`Histogram::record`], and
/// [`Histogram::record_duration`] records a `Duration` in nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket index of a value: `floor(log2(max(v, 1)))`.
fn bucket_index(value: u64) -> usize {
    63 - value.max(1).leading_zeros() as usize
}

/// The inclusive upper bound of bucket `i` — what quantile queries
/// report for observations landing in that bucket.
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping on overflow, like the atomics).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The per-bucket counts, dense over all [`HISTOGRAM_BUCKETS`].
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0..=1.0`) as a conservative upper bound: the
    /// inclusive upper edge of the bucket containing the rank-`⌈q·n⌉`
    /// observation. Returns 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Merge another histogram's observations into this one. Merging
    /// per-worker histograms is exactly equivalent to recording every
    /// observation into a single histogram (bucket counts are additive).
    pub fn merge(&self, other: &Histogram) {
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Merge a previously captured `(count, sum, bucket counts)` state —
    /// how [`crate::MetricsRegistry::absorb`] folds a snapshot back in.
    pub fn record_state(&self, count: u64, sum: u64, buckets: &[(usize, u64)]) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        for &(i, c) in buckets {
            if i < HISTOGRAM_BUCKETS {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
    }

    /// The non-empty buckets as sorted `(index, count)` pairs — the
    /// sparse form snapshots and JSON use.
    pub fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.bucket_counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_concurrent_increments_are_exact() {
        let counter = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                    c.add(5);
                });
            }
        });
        assert_eq!(counter.get(), 8 * 10_000 + 8 * 5);
    }

    #[test]
    fn gauge_set_overwrites() {
        let g = Gauge::new();
        g.set(10);
        assert_eq!(g.get(), 10);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn timer_accumulates_spans() {
        let t = StageTimer::new();
        t.record(Duration::from_micros(500));
        t.record(Duration::from_micros(1500));
        assert_eq!(t.spans(), 2);
        assert_eq!(t.total(), Duration::from_micros(2000));
        assert_eq!(t.mean(), Duration::from_micros(1000));
    }

    #[test]
    fn timer_concurrent_recording_is_exact() {
        let timer = Arc::new(StageTimer::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = Arc::clone(&timer);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        t.record(Duration::from_nanos(100));
                    }
                });
            }
        });
        assert_eq!(timer.spans(), 8000);
        assert_eq!(timer.total(), Duration::from_nanos(800_000));
    }

    #[test]
    fn span_guard_records_on_drop() {
        let t = StageTimer::new();
        {
            let _span = t.start();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(t.spans(), 1);
        assert!(t.total() >= Duration::from_millis(2));
    }

    #[test]
    fn time_returns_result_and_duration() {
        let t = StageTimer::new();
        let (value, d) = t.time(|| {
            std::thread::sleep(Duration::from_millis(1));
            42
        });
        assert_eq!(value, 42);
        assert!(d >= Duration::from_millis(1));
        assert_eq!(t.total(), d);
    }

    #[test]
    fn empty_timer_mean_is_zero() {
        assert_eq!(StageTimer::new().mean(), Duration::ZERO);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Values land in the bucket whose range [2^i, 2^(i+1)) contains
        // them; 0 shares bucket 0 with 1.
        for (value, bucket) in [
            (0u64, 0usize),
            (1, 0),
            (2, 1),
            (3, 1),
            (4, 2),
            (7, 2),
            (8, 3),
            (1023, 9),
            (1024, 10),
            (u64::MAX, 63),
        ] {
            assert_eq!(bucket_index(value), bucket, "value {value}");
        }
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(3), 15);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_conservative_and_monotone() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 1000, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 6060);
        // Every quantile is >= the true value at that rank (upper edge).
        assert!(h.quantile(0.5) >= 30);
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert_eq!(Histogram::new().quantile(0.99), 0, "empty histogram");
    }

    #[test]
    fn histogram_merge_equals_single_ingestion() {
        let single = Histogram::new();
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..1000u64 {
            single.record(v * 7);
            if v % 2 == 0 {
                a.record(v * 7);
            } else {
                b.record(v * 7);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), single.count());
        assert_eq!(a.sum(), single.sum());
        assert_eq!(a.bucket_counts(), single.bucket_counts());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), single.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_concurrent_recording_is_exact() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 8000);
    }

    #[test]
    fn histogram_duration_and_sparse_round_trip() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3)); // 3000ns -> bucket 11
        h.record(0);
        let sparse = h.sparse_buckets();
        assert_eq!(sparse, vec![(0, 1), (11, 1)]);
        let rebuilt = Histogram::new();
        rebuilt.record_state(h.count(), h.sum(), &sparse);
        assert_eq!(rebuilt.bucket_counts(), h.bucket_counts());
        assert_eq!(rebuilt.count(), 2);
    }
}
