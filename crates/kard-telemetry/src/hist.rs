//! Log-bucketed latency histograms.
//!
//! libmpk's measurements (PAPERS.md) show MPK-layer operations have heavily
//! skewed per-call costs that averages hide, so the telemetry layer keeps
//! full distributions: 64 power-of-two buckets cover every `u64` cycle
//! count, recording is one relaxed `fetch_add` per bucket plus the running
//! count/sum/min/max — lock-free and allocation-free, safe to call from
//! the fault handler.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets (bucket `i` holds values whose bit
/// length is `i`; bucket 0 holds the value zero).
pub const BUCKETS: usize = 65;

/// A lock-free log₂-bucketed histogram of cycle counts.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: its bit length (0 for the value zero).
fn bucket_of(value: u64) -> usize {
    match value.checked_ilog2() {
        Some(log) => log as usize + 1,
        None => 0,
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one value (relaxed atomics only).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Running sum of every recorded value. For the cycle histograms this
    /// is the total cycles charged so far, which is what the overhead
    /// budget controller integrates between drains.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A plain-value summary with estimated percentiles.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return HistogramSummary::default();
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets = self.bucket_counts();
        HistogramSummary {
            count,
            min,
            max,
            mean: sum as f64 / count as f64,
            p50: quantile_from_buckets(&buckets, 0.50).clamp(min, max),
            p95: quantile_from_buckets(&buckets, 0.95).clamp(min, max),
            p99: quantile_from_buckets(&buckets, 0.99).clamp(min, max),
        }
    }

    /// A relaxed snapshot of the raw per-bucket counts, read without
    /// disturbing the recording path.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The q-quantile of a raw bucket-count array: the upper bound of the
/// bucket holding the q-rank. Returns 0 for an empty array. Unlike
/// [`LatencyHistogram::summary`] this has only log₂ resolution (no
/// observed min/max to clamp to), which is fine for comparing windows
/// of the same metric against each other.
#[must_use]
pub fn quantile_from_buckets(buckets: &[u64; BUCKETS], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    // Rank of the q-quantile (1-based), then the upper bound of the
    // bucket containing that rank.
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return if i == 0 { 0 } else { (1u64 << i).saturating_sub(1) };
        }
    }
    u64::MAX
}

/// Merge several histograms into one summary: sum the bucket arrays and
/// running aggregates, then take percentiles of the merged distribution.
///
/// This is the only correct way to aggregate percentiles across shards —
/// averaging per-shard p99s produces a number that is not the p99 of
/// anything (a shard with 10× the traffic deserves 10× the weight, and
/// tail mass concentrated in one shard vanishes under an average).
#[must_use]
pub fn merged_summary<'a, I>(hists: I) -> HistogramSummary
where
    I: IntoIterator<Item = &'a LatencyHistogram>,
{
    let mut buckets = [0u64; BUCKETS];
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    for h in hists {
        let c = h.count.load(Ordering::Relaxed);
        if c == 0 {
            continue;
        }
        for (acc, b) in buckets.iter_mut().zip(h.buckets.iter()) {
            *acc += b.load(Ordering::Relaxed);
        }
        count += c;
        sum += h.sum.load(Ordering::Relaxed);
        min = min.min(h.min.load(Ordering::Relaxed));
        max = max.max(h.max.load(Ordering::Relaxed));
    }
    if count == 0 {
        return HistogramSummary::default();
    }
    HistogramSummary {
        count,
        min,
        max,
        mean: sum as f64 / count as f64,
        p50: quantile_from_buckets(&buckets, 0.50).clamp(min, max),
        p95: quantile_from_buckets(&buckets, 0.95).clamp(min, max),
        p99: quantile_from_buckets(&buckets, 0.99).clamp(min, max),
    }
}

/// Plain-value snapshot of a [`LatencyHistogram`]. Percentiles are bucket
/// upper bounds (log₂ resolution), clamped to the observed min/max.
/// (De)serializable so the firehose `/statsz` response can carry it over
/// the wire and clients can parse it back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Smallest value.
    pub min: u64,
    /// Largest value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert!((s.mean - 25.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_respect_skew() {
        // 90 small values and ten huge outliers: p50 stays small, p99 is
        // pulled into the outlier's bucket — the skew averages hide.
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.summary();
        assert!(s.p50 < 200, "median stays near the mass: {}", s.p50);
        assert!(s.p99 >= 500_000, "p99 sees the outlier: {}", s.p99);
        assert!(s.mean > 10_000.0, "the mean is distorted by the outlier");
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let h = LatencyHistogram::new();
        h.record(24_000);
        let s = h.summary();
        assert_eq!((s.p50, s.p95, s.p99), (24_000, 24_000, 24_000));
    }

    #[test]
    fn merged_summary_weights_by_mass_not_by_shard() {
        // Shard A: 1000 fast values. Shard B: 10 slow values. Averaging the
        // two per-shard p99s would claim a global p99 near 500k; the merged
        // distribution knows the slow shard holds under 1% of the mass.
        let a = LatencyHistogram::new();
        for _ in 0..1000 {
            a.record(100);
        }
        let b = LatencyHistogram::new();
        for _ in 0..10 {
            b.record(1_000_000);
        }
        let merged = merged_summary([&a, &b]);
        assert_eq!(merged.count, 1010);
        assert_eq!(merged.min, 100);
        assert_eq!(merged.max, 1_000_000);
        let avg_of_p99s = (a.summary().p99 + b.summary().p99) / 2;
        assert!(avg_of_p99s >= 400_000, "the broken average is huge");
        assert!(
            merged.p99 < 1000,
            "merged p99 stays with the mass: {}",
            merged.p99
        );
        // p-quantiles above the slow shard's share do see the tail.
        let p999 = quantile_from_buckets(&{
            let mut m = a.bucket_counts();
            for (i, v) in b.bucket_counts().iter().enumerate() {
                m[i] += v;
            }
            m
        }, 0.999);
        assert!(p999 >= 500_000, "extreme tail survives the merge: {p999}");
    }

    #[test]
    fn merged_summary_of_empty_histograms_is_default() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        assert_eq!(merged_summary([&a, &b]), HistogramSummary::default());
    }

    #[test]
    fn merged_summary_of_one_matches_summary() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 50_000] {
            h.record(v);
        }
        assert_eq!(merged_summary([&h]), h.summary());
    }
}
