//! Measurement utilities shared by the simulator and the experiment
//! harness: running means, the paper's exponentially-decayed average, and
//! exact histograms (the blktrace-style request-size distributions of
//! Figs. 2 and 5 are built on [`Histogram`]).

use std::collections::BTreeMap;
use std::fmt;

/// Running arithmetic mean with count, min and max.
#[derive(Debug, Clone, Default)]
pub struct MeanTracker {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl MeanTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        MeanTracker {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample, or `None` before the first sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` before the first sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Exponentially-weighted moving average with a configurable retention
/// weight, as used by Eq. (1) of the paper.
///
/// The paper follows Linux anticipatory-scheduling bookkeeping: the new
/// average is `old * keep + sample * (1 - keep)`. The paper's Eq. (1) uses
/// `keep = 1/8` (heavily favouring recent samples); Linux itself uses
/// `keep = 7/8`. Both are expressible here.
#[derive(Debug, Clone)]
pub struct Ewma {
    keep: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA that retains `keep` of the old value per update.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= keep < 1`.
    pub fn new(keep: f64) -> Self {
        assert!((0.0..1.0).contains(&keep), "keep must be in [0,1): {keep}");
        Ewma { keep, value: None }
    }

    /// The paper's Eq. (1) weighting: `T_i = T_{i-1}/8 + new*7/8`.
    pub fn paper_eq1() -> Self {
        Ewma::new(1.0 / 8.0)
    }

    /// Records a sample; the first sample initialises the average.
    pub fn record(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v * self.keep + x * (1.0 - self.keep),
        });
    }

    /// Current average, or `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current average, or `default` before the first sample.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Forces the average to a specific value (used when a request is
    /// served elsewhere and the disk average must stay unchanged, Eq. (2)).
    pub fn set(&mut self, x: f64) {
        self.value = Some(x);
    }
}

/// Keys below this count in a dense vector indexed by key; larger keys
/// go to an ordered map. Dispatch sizes in sectors and request latencies
/// in milliseconds normally fall below it.
const DENSE_KEYS: u64 = 4096;

/// Exact integer-keyed histogram.
///
/// Keys are arbitrary `u64` values (e.g. request sizes in sectors);
/// each distinct key gets its own bin, exactly like the paper's
/// blktrace-derived distributions. Keys below `DENSE_KEYS` (4096) count
/// in a vector indexed by key, grown on demand, so recording one costs
/// no ordered-map probe; larger keys keep their own bins in a `BTreeMap`.
#[derive(Clone, Default)]
pub struct Histogram {
    /// Counts of keys `0..dense.len()`; a zero count is an absent bin.
    dense: Vec<u64>,
    /// Counts of keys at or above `DENSE_KEYS`.
    sparse: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `key`.
    pub fn record(&mut self, key: u64) {
        self.record_n(key, 1);
    }

    /// Records `n` observations of `key`.
    pub fn record_n(&mut self, key: u64, n: u64) {
        if n == 0 {
            return;
        }
        if key < DENSE_KEYS {
            let i = key as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, 0);
            }
            self.dense[i] += n;
        } else {
            *self.sparse.entry(key).or_insert(0) += n;
        }
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations of exactly `key`.
    pub fn count(&self, key: u64) -> u64 {
        if key < DENSE_KEYS {
            self.dense.get(key as usize).copied().unwrap_or(0)
        } else {
            self.sparse.get(&key).copied().unwrap_or(0)
        }
    }

    /// Fraction of observations equal to `key` (0 if empty).
    pub fn fraction(&self, key: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(key) as f64 / self.total as f64
        }
    }

    /// Fraction of observations with `key < bound`.
    pub fn fraction_below(&self, bound: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .iter()
            .take_while(|&(k, _)| k < bound)
            .map(|(_, c)| c)
            .sum();
        below as f64 / self.total as f64
    }

    /// Iterates the non-empty bins as `(key, count)` in ascending key
    /// order: the dense bins, then the sparse ones.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (k as u64, c));
        dense.chain(self.sparse.iter().map(|(&k, &c)| (k, c)))
    }

    /// The `k` most frequent bins, descending by count (ties by key).
    pub fn top_k(&self, k: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Mean of the observed keys (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u128 = self.iter().map(|(k, c)| k as u128 * c as u128).sum();
        sum as f64 / self.total as f64
    }

    /// Smallest key `p` such that at least `q` (0..=1) of the mass is
    /// `<= p`. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        let mut last = None;
        for (k, c) in self.iter() {
            acc += c;
            if acc >= target {
                return Some(k);
            }
            last = Some(k);
        }
        last
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (k, c) in other.iter() {
            self.record_n(k, c);
        }
    }
}

/// Prints the bins as one ordered map, `Histogram { bins: {k: c, ..},
/// total: n }`, whichever store holds them: run digests hash this text.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Bins<'a>(&'a Histogram);
        impl fmt::Debug for Bins<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Histogram")
            .field("bins", &Bins(self))
            .field("total", &self.total)
            .finish()
    }
}

/// Fixed-bucket power-of-two histogram for latency-style integer samples.
///
/// Bucket `k` (for `k >= 1`) counts values `v` with `2^(k-1) < v <= 2^k`;
/// bucket 0 counts `v <= 1`. Recording is integer math on a fixed
/// `[u64; 64]` array, so the histogram never allocates and two histograms
/// merge by adding counters — merge order cannot change the result, which
/// is what keeps metrics aggregated from parallel workers deterministic.
/// Quantiles return the upper bound of the bucket holding the requested
/// rank (clamped to the exact maximum), and `max` is tracked exactly.
#[derive(Debug, Clone, Copy)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Log2Hist {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Index of the bucket that `v` falls into. The top bucket absorbs
    /// everything above `2^62` (its bound saturates to `u64::MAX`).
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(63)
        }
    }

    /// Upper bound of bucket `k` (inclusive).
    pub fn bucket_bound(k: usize) -> u64 {
        if k >= 63 {
            u64::MAX
        } else {
            1u64 << k
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact largest sample, or `None` before the first sample.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Count in bucket `k` (for tests and renderers).
    pub fn bucket_count(&self, k: usize) -> u64 {
        self.buckets[k]
    }

    /// Upper bound of the bucket holding the sample of rank `ceil(q·n)`,
    /// clamped to the exact maximum so `quantile(1.0) == max`. Returns
    /// `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut acc = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(Self::bucket_bound(k).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one. Pure counter addition:
    /// associative and commutative, so any merge order yields the same
    /// histogram.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_tracker_basics() {
        let mut m = MeanTracker::new();
        assert_eq!(m.mean(), None);
        for x in [1.0, 2.0, 3.0] {
            m.record(x);
        }
        assert_eq!(m.mean(), Some(2.0));
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(3.0));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn ewma_first_sample_initialises() {
        let mut e = Ewma::paper_eq1();
        assert_eq!(e.value(), None);
        e.record(8.0);
        assert_eq!(e.value(), Some(8.0));
    }

    #[test]
    fn ewma_eq1_weighting() {
        // T_i = T_{i-1}/8 + new*7/8
        let mut e = Ewma::paper_eq1();
        e.record(8.0);
        e.record(16.0);
        assert!((e.value().unwrap() - (8.0 / 8.0 + 16.0 * 7.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn ewma_linux_weighting_converges_slowly() {
        let mut e = Ewma::new(7.0 / 8.0);
        e.record(0.0);
        for _ in 0..8 {
            e.record(8.0);
        }
        let v = e.value().unwrap();
        assert!(v > 4.0 && v < 8.0, "v={v}");
    }

    #[test]
    #[should_panic(expected = "keep must be in")]
    fn ewma_rejects_bad_keep() {
        Ewma::new(1.0);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::new();
        h.record_n(128, 72);
        h.record_n(256, 18);
        h.record_n(8, 10);
        assert_eq!(h.total(), 100);
        assert!((h.fraction(128) - 0.72).abs() < 1e-12);
        assert!((h.fraction_below(128) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn histogram_top_k_orders_by_count() {
        let mut h = Histogram::new();
        h.record_n(1, 5);
        h.record_n(2, 50);
        h.record_n(3, 20);
        assert_eq!(h.top_k(2), vec![(2, 50), (3, 20)]);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for k in 1..=100 {
            h.record(k);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_mean_and_merge() {
        let mut a = Histogram::new();
        a.record_n(10, 2);
        let mut b = Histogram::new();
        b.record_n(20, 2);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert!((a.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn log2_bucket_boundaries() {
        // Bucket 0 holds 0 and 1; bucket k holds (2^(k-1), 2^k].
        assert_eq!(Log2Hist::bucket_index(0), 0);
        assert_eq!(Log2Hist::bucket_index(1), 0);
        assert_eq!(Log2Hist::bucket_index(2), 1);
        assert_eq!(Log2Hist::bucket_index(3), 2);
        assert_eq!(Log2Hist::bucket_index(4), 2);
        assert_eq!(Log2Hist::bucket_index(5), 3);
        for k in 1..63usize {
            let bound = 1u64 << k;
            assert_eq!(Log2Hist::bucket_index(bound), k, "2^{k} belongs to {k}");
            assert_eq!(Log2Hist::bucket_index(bound + 1), k + 1);
        }
        assert_eq!(Log2Hist::bucket_index(u64::MAX), 63);
        assert_eq!(Log2Hist::bucket_bound(63), u64::MAX);
    }

    #[test]
    fn log2_quantiles_return_bucket_bounds() {
        let mut h = Log2Hist::new();
        assert_eq!(h.quantile(0.5), None);
        // 90 samples in bucket 10 (values <= 1024), 10 in bucket 12.
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..10 {
            h.record(3000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(1024));
        assert_eq!(h.quantile(0.90), Some(1024));
        assert_eq!(h.p95(), Some(3000)); // bound 4096 clamped to exact max
        assert_eq!(h.quantile(1.0), Some(3000));
        assert_eq!(h.max(), Some(3000));
    }

    #[test]
    fn log2_exact_max_and_mean() {
        let mut h = Log2Hist::new();
        h.record(7);
        h.record(9);
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.mean(), Some(8.0));
        assert_eq!(h.sum(), 16);
    }

    #[test]
    fn log2_merge_is_order_independent() {
        let samples = [3u64, 1, 900, 77, 1 << 40, 12, 0, 5_000_000];
        let mut whole = Log2Hist::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut left = Log2Hist::new();
        let mut right = Log2Hist::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(s)
            } else {
                right.record(s)
            }
        }
        let mut ab = left;
        ab.merge(&right);
        let mut ba = right;
        ba.merge(&left);
        for m in [&ab, &ba] {
            assert_eq!(m.count(), whole.count());
            assert_eq!(m.sum(), whole.sum());
            assert_eq!(m.max(), whole.max());
            for k in 0..64 {
                assert_eq!(m.bucket_count(k), whole.bucket_count(k));
            }
        }
    }
}
