//! Lock-free metric cells: sharded counters and log-bucketed histograms.
//!
//! Hot paths (the Hogwild SGD loop runs tens of millions of samples per
//! second) must be able to bump a counter without contending on a shared
//! cache line. Each [`CounterCell`] therefore holds a small array of
//! cache-line-padded atomics; every thread is assigned one shard
//! round-robin on first use and all its increments stay on that line.
//! Reads sum the shards, which is exact for quiescent counters and at
//! worst momentarily stale for live ones — both fine for telemetry.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independent cache lines per counter. 16 covers the thread
/// counts the paper's scalability study uses (Fig. 12 stops at 16).
const SHARDS: usize = 16;

/// One cache line holding one shard's partial count.
#[repr(align(64))]
struct Shard(AtomicU64);

/// Round-robin shard assignment, one slot per thread for its lifetime.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    INDEX.with(|i| *i)
}

/// A monotonically increasing counter, safe to bump from any thread.
pub(crate) struct CounterCell {
    shards: [Shard; SHARDS],
}

impl CounterCell {
    pub(crate) fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard(AtomicU64::new(0))),
        }
    }

    pub(crate) fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Cheap cloneable handle to a registered counter.
///
/// Obtain one with [`crate::counter`]; hold it across a hot loop instead of
/// re-resolving the name each iteration.
#[derive(Clone)]
pub struct Counter {
    pub(crate) cell: Arc<CounterCell>,
}

impl Counter {
    /// Adds `n` to the counter (relaxed; never blocks).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.add(n);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.cell.add(1);
    }

    /// Current total across all threads.
    pub fn value(&self) -> u64 {
        self.cell.value()
    }
}

/// Bucket count for [`HistogramCell`]: one bucket per power of two plus a
/// zero bucket (`u64::MAX` has 64 significant bits).
pub(crate) const HIST_BUCKETS: usize = 65;

/// Index of the log2 bucket covering `v`: 0 for 0, otherwise the number of
/// significant bits (so bucket `i` covers `[2^(i-1), 2^i - 1]`).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A histogram over `u64` samples with power-of-two buckets.
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub(crate) fn load(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot::from_buckets(
            name.to_string(),
            buckets,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Cheap cloneable handle to a registered histogram.
#[derive(Clone)]
pub struct Histogram {
    pub(crate) name: String,
    pub(crate) cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one sample (relaxed; never blocks).
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell.record(v);
    }

    /// Point-in-time summary of everything recorded so far.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.load(&self.name)
    }
}

/// Frozen view of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Frozen view of one histogram. Quantiles are upper bounds of the
/// power-of-two bucket containing the quantile, so they are exact only up
/// to a factor of two — enough to tell "3 mean-shift iterations" from
/// "300".
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
    /// Raw log2 bucket counts (index = significant bits of the sample);
    /// kept so snapshots can be diffed exactly.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub(crate) fn from_buckets(name: String, buckets: Vec<u64>, sum: u64, max: u64) -> Self {
        let count: u64 = buckets.iter().sum();
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        Self {
            name,
            count,
            sum,
            mean,
            p50: quantile(&buckets, count, 0.50),
            p95: quantile(&buckets, count, 0.95),
            p99: quantile(&buckets, count, 0.99),
            max,
            buckets,
        }
    }

    /// The part of `self` that happened after `earlier` was taken.
    /// `max` cannot be diffed (it is a running max) and is carried over.
    pub(crate) fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        HistogramSnapshot::from_buckets(
            self.name.clone(),
            buckets,
            self.sum.saturating_sub(earlier.sum),
            self.max,
        )
    }
}

/// Upper bound of the bucket holding quantile `q` of the distribution.
fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bucket i covers [2^(i-1), 2^i - 1]; bucket 0 is exactly zero.
            return if i == 0 { 0 } else { (1u64 << i) - 1 };
        }
    }
    u64::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let cell = Arc::new(CounterCell::new());
        let counter = Counter { cell };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = counter.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 80_000);
        counter.cell.reset();
        assert_eq!(counter.value(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram {
            name: "t".into(),
            cell: Arc::new(HistogramCell::new()),
        };
        h.record(0);
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.sum, 99 * 3 + 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.p50, 3); // bucket [2,3]
        assert!(s.p95 <= 3, "p95 {} should sit in the [2,3] bucket", s.p95);
        assert!(s.p99 >= s.p95, "p99 {} must dominate p95 {}", s.p99, s.p95);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 99);
    }

    #[test]
    fn histogram_diff_subtracts_buckets() {
        let h = Histogram {
            name: "d".into(),
            cell: Arc::new(HistogramCell::new()),
        };
        h.record(5);
        let before = h.snapshot();
        h.record(5);
        h.record(7);
        let delta = h.snapshot().diff(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 12);
    }

    #[test]
    fn bucket_of_matches_doc() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }
}
