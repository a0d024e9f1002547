//! Log-linear mergeable histogram (HDR-style) with a bounded relative error.
//!
//! The runtime previously summarised latencies from a bounded ring of raw
//! samples (the `LatencyRecorder` that `tests/histogram_vs_ring.rs` keeps
//! as the comparison), which evicts under load: merging shard windows
//! approximates cross-shard percentiles by whatever samples survived. This histogram never evicts.
//! Values are binned into log-linear buckets — [`GROUP_BITS`] sub-buckets per
//! power of two — so any recorded value is represented by its bucket floor
//! with a relative error of at most `1/2^GROUP_BITS` (3.125%), merges are a
//! bucketwise add (exactly associative and commutative), and memory is bounded
//! by the value range (at most `60 · 2^GROUP_BITS` u64 slots), not
//! the sample count.
//!
//! Reported percentiles are **bucket floors**: for any nearest-rank percentile
//! `e` of the exact sample multiset, the histogram reports `h` with
//! `h <= e` and `e - h < max(1, e >> GROUP_BITS)`; values below
//! `2 * 2^GROUP_BITS` (64) are exact. The proptests in
//! `tests/proptest_histogram.rs` exercise this bound against exact
//! percentiles on random sample sets.

/// Sub-bucket resolution: `2^GROUP_BITS` linear buckets per octave.
pub const GROUP_BITS: u32 = 5;

/// Sub-buckets per octave (32).
const GROUP: u64 = 1 << GROUP_BITS;

/// A mergeable log-linear histogram over `u64` samples.
///
/// Tracks the exact `count`, `sum`, `min` and `max` alongside the bucket
/// array, so means and extrema carry no quantisation error at all.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    /// Bucket counts, indexed by [`bucket_of`]; grown on demand so an idle
    /// histogram costs a few machine words.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Index of the bucket holding `v`.
///
/// Values below `2 * GROUP` map to themselves (exact); above that, the top
/// `GROUP_BITS + 1` significant bits select the bucket, giving `GROUP` linear
/// sub-buckets per power of two.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    if v < 2 * GROUP {
        v as usize
    } else {
        let exponent = 63 - v.leading_zeros();
        let shift = exponent - GROUP_BITS;
        let sub = (v >> shift) - GROUP;
        ((shift as u64 + 1) * GROUP + sub) as usize
    }
}

/// Smallest value mapping to bucket `b` (the value the histogram reports for
/// any sample binned there).
#[inline]
pub(crate) fn bucket_floor(b: usize) -> u64 {
    let b = b as u64;
    if b < 2 * GROUP {
        b
    } else {
        let shift = b / GROUP - 1;
        let sub = b % GROUP;
        (GROUP + sub) << shift
    }
}

impl LogHistogram {
    /// An empty histogram. Allocates nothing until the first record.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of the same sample in one step.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`: a bucketwise add, so merging is exactly
    /// associative and commutative and loses nothing (unlike the sample-ring
    /// merge it replaces, which evicts down to a window).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of all recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, reported as the holding bucket's floor.
    ///
    /// `p` is clamped to `[0, 100]`. Returns 0 on an empty histogram. The
    /// result underestimates the exact nearest-rank value by strictly less
    /// than `max(1, exact >> GROUP_BITS)` — see the module docs.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest rank: the k-th smallest sample, k = ceil(p/100 * count),
        // clamped to at least 1 (p = 0 reports the minimum).
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                // The exact rank-th sample lies in this bucket; its floor can
                // only undershoot, never overshoot, and min tightens the
                // lowest bucket without breaking that property.
                return bucket_floor(b).max(self.min);
            }
        }
        self.max
    }

    /// Percentile summary in the recorded unit.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            max: self.max(),
            mean: self.mean(),
        }
    }
}

/// Point-in-time percentile summary of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples behind the summary.
    pub count: u64,
    /// Median (nearest-rank, bucket floor).
    pub p50: u64,
    /// 90th percentile (nearest-rank, bucket floor).
    pub p90: u64,
    /// 99th percentile (nearest-rank, bucket floor).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..(2 * GROUP) {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_floors_invert() {
        let mut values: Vec<u64> = Vec::new();
        for e in 0..64u32 {
            for off in [0u64, 1, 2, 17] {
                values.push((1u64 << e).saturating_add(off << e.saturating_sub(6)));
            }
        }
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            prev = b;
            let floor = bucket_floor(b);
            assert!(floor <= v, "{floor} > {v}");
            assert_eq!(bucket_of(floor), b, "floor of {v} leaves bucket");
            // Width bound: the floor undershoots by at most v/32.
            assert!(v - floor <= (v >> GROUP_BITS).max(1));
        }
        // Values below 2 * GROUP get one exact bucket each; each of the 58
        // remaining octaves contributes GROUP buckets.
        let max_buckets = 2 * GROUP as usize + (63 - GROUP_BITS as usize) * GROUP as usize;
        assert_eq!(bucket_of(u64::MAX) + 1, max_buckets);
    }

    #[test]
    fn exact_stats_and_percentiles_on_a_known_set() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.percentile(50.0), 50);
        // 99th rank is 99; 99 > 63 so it is binned: floor((99 >> 1) << 1).
        assert_eq!(h.percentile(99.0), 98);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 7919 + 1;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), all.percentile(p), "p{p}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        let p99 = h.percentile(99.0);
        assert!(p99 >= u64::MAX - (u64::MAX >> GROUP_BITS));
    }
}
