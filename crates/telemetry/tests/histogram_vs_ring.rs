//! Quantifies the cross-shard percentile bias of the ring-buffer
//! [`LatencyRecorder`] against the [`LogHistogram`] that replaced it as the
//! reported number. The recorder lives here, in test scope, with its own
//! tests.
//!
//! The ring evicts oldest-first, so once a shard records more samples than
//! its capacity, the summary percentiles describe only the *recent* window.
//! On skewed distributions — a latency spike early in the run, or shards with
//! very different latency profiles — the merged-ring percentile can miss the
//! tail entirely. The histogram never evicts and merges bucketwise, so it
//! stays within its `1/2^GROUP_BITS` relative-error bound no matter how the
//! samples are distributed over time or across shards.

use swift_telemetry::{HistogramSummary, LogHistogram, GROUP_BITS};

/// Nearest-rank percentile of a slice of integers. Returns `None` on an empty
/// slice; a NaN `q` is treated as 0.0.
fn percentile_usize(values: &[usize], q: f64) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(sorted.len() - 1)])
}

/// A bounded sample recorder for latency-like quantities (microseconds,
/// nanoseconds — unit is the caller's).
///
/// Keeps at most `capacity` samples in a ring: once full, new samples
/// overwrite the oldest, so long runs summarize their recent behaviour with
/// constant memory and no allocation on the record path. Deterministic (no
/// randomized reservoir), so identical runs produce identical summaries.
///
/// # Eviction approximation
///
/// Because the ring evicts oldest-first, the percentiles in
/// [`LatencyRecorder::summary`] describe only the **retained window**, not
/// the full run: once more than `capacity` samples arrive, early samples no
/// longer influence p50/p99 at all (count, mean and max stay lifetime-exact).
/// The bias is worst when latency drifts over time or differs across shards —
/// merging shard recorders keeps whole windows, but each window already
/// over-represents its shard's *recent* behaviour, so the cross-shard
/// percentile is skewed toward whatever each shard did last. The sharded
/// runtime therefore reports percentiles from `swift_telemetry::LogHistogram`
/// (never evicts, bounded ≤ 1/32 relative error, exact bucketwise merge) and
/// keeps this recorder as the exact-sample reference;
/// `crates/telemetry/tests/histogram_vs_ring.rs` quantifies the divergence on
/// skewed distributions.
#[derive(Debug, Clone)]
struct LatencyRecorder {
    samples: Vec<u64>,
    next: usize,
    recorded: u64,
    max: u64,
    sum: u64,
    capacity: usize,
}

impl LatencyRecorder {
    /// Creates a recorder keeping at most `capacity` samples (min 1).
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LatencyRecorder {
            samples: Vec::with_capacity(capacity.min(4_096)),
            next: 0,
            recorded: 0,
            max: 0,
            sum: 0,
            capacity,
        }
    }

    /// Records one sample.
    fn record(&mut self, value: u64) {
        self.recorded += 1;
        self.max = self.max.max(value);
        self.sum += value;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Total number of samples ever recorded (not just the retained window).
    fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Merges another recorder's retained samples and lifetime aggregates
    /// into this one (used to combine per-shard recorders into one report).
    ///
    /// The capacity grows to hold both retained windows, so merging N shard
    /// recorders keeps every shard's window — no shard's samples are evicted
    /// by whichever shard happens to merge last. Both windows are walked
    /// oldest-first (from each ring's head), so the combined window keeps
    /// "older before newer" semantics for later [`LatencyRecorder::record`]
    /// calls and merges.
    fn merge(&mut self, other: &LatencyRecorder) {
        self.recorded += other.recorded;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        if other.samples.is_empty() {
            return;
        }
        let mut combined = Vec::with_capacity(self.samples.len() + other.samples.len());
        combined.extend(self.window_oldest_first());
        combined.extend(other.window_oldest_first());
        self.capacity = self.capacity.max(combined.len());
        self.samples = combined;
        // The linearized window starts at its oldest sample, so the ring
        // head is back at index 0 (`record` keeps appending while there is
        // room and overwrites the oldest otherwise).
        self.next = 0;
    }

    /// The retained window, oldest sample first.
    fn window_oldest_first(&self) -> impl Iterator<Item = u64> + '_ {
        let (tail, head) = self.samples.split_at(self.next);
        head.iter().chain(tail.iter()).copied()
    }

    /// Summarizes the recorder: percentiles over the retained window,
    /// mean/max over the whole lifetime.
    fn summary(&self) -> HistogramSummary {
        let window: Vec<usize> = self.samples.iter().map(|&v| v as usize).collect();
        let percentile = |q| percentile_usize(&window, q).unwrap_or(0) as u64;
        HistogramSummary {
            count: self.recorded,
            p50: percentile(0.5),
            p90: percentile(0.9),
            p99: percentile(0.99),
            max: self.max,
            mean: if self.recorded == 0 {
                0.0
            } else {
                self.sum as f64 / self.recorded as f64
            },
        }
    }
}

/// Exact nearest-rank percentile over the full sample multiset — the ground
/// truth both recorders are judged against.
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Two shards, small rings, and a latency spike confined to the start of
/// shard A's run — the shape the ring is worst at.
///
/// * Shard A: 500 slow samples (8 000–8 499, e.g. a cold start or a resync
///   storm), then 9 500 fast ones (~40–55).
/// * Shard B: 10 000 steady samples (~120–151).
/// * Ring capacity 256 per shard: by the end of the run shard A's window
///   holds only fast samples — the spike has been fully evicted.
#[test]
fn ring_forgets_an_early_spike_the_histogram_keeps() {
    const RING: usize = 256;
    let mut ring_a = LatencyRecorder::new(RING);
    let mut ring_b = LatencyRecorder::new(RING);
    let mut hist_a = LogHistogram::new();
    let mut hist_b = LogHistogram::new();
    let mut all: Vec<u64> = Vec::new();

    for i in 0..10_000u64 {
        let v = if i < 500 { 8_000 + i } else { 40 + i % 16 };
        ring_a.record(v);
        hist_a.record(v);
        all.push(v);
    }
    for i in 0..10_000u64 {
        let v = 120 + i % 32;
        ring_b.record(v);
        hist_b.record(v);
        all.push(v);
    }

    // Cross-shard merge, as the runtime does at shutdown.
    ring_a.merge(&ring_b);
    hist_a.merge(&hist_b);
    all.sort_unstable();

    // Lifetime aggregates are exact in both (the ring only approximates
    // percentiles, never count/max/mean).
    assert_eq!(ring_a.recorded(), 20_000);
    assert_eq!(hist_a.count(), 20_000);
    assert_eq!(ring_a.summary().max, hist_a.max());
    assert_eq!(hist_a.max(), 8_499);

    let ring = ring_a.summary();
    for (p, ring_value) in [(50.0, ring.p50), (99.0, ring.p99)] {
        let exact = exact_percentile(&all, p);
        let hist = hist_a.percentile(p);
        // The histogram holds its documented bound: a bucket floor at most
        // 1/2^GROUP_BITS below the exact nearest-rank value.
        assert!(hist <= exact, "p{p}: histogram {hist} > exact {exact}");
        assert!(
            exact - hist <= (exact >> GROUP_BITS).max(1),
            "p{p}: histogram {hist} misses exact {exact} by more than 1/32"
        );
        // And it is never further from the truth than the merged ring.
        let hist_err = exact - hist;
        let ring_err = exact.abs_diff(ring_value);
        assert!(
            hist_err <= ring_err,
            "p{p}: histogram error {hist_err} exceeds ring error {ring_err}"
        );
    }

    // Quantify the ring's failure mode. The exact p99 sits in the spike
    // (rank 19 800 of 20 000 lands among the 500 slow samples), but shard A's
    // retained window holds only post-spike samples, so the merged ring tops
    // out near shard B's steady state — an underestimate of more than 50×.
    let exact_p99 = exact_percentile(&all, 99.0);
    assert!(exact_p99 >= 8_000, "the spike owns the exact p99");
    assert!(
        ring.p99 < exact_p99 / 50,
        "ring p99 {} should have evicted the spike (exact {exact_p99})",
        ring.p99
    );
    // The histogram reports the spike within its error bound.
    assert!(hist_a.percentile(99.0) >= 8_000 - (8_000 >> GROUP_BITS));
}

/// Shards with different *steady* profiles: the merged ring weights every
/// retained window equally regardless of how many samples fed it, the
/// histogram weights every sample equally.
#[test]
fn histogram_is_exact_under_merge_where_the_ring_reweights() {
    const RING: usize = 128;
    // Shard A records 200× more samples than shard B, all of them fast. Both
    // rings retain 128 samples, so in the merged window shard B's slow
    // samples make up half the weight despite being 0.5 % of the run.
    let mut ring_a = LatencyRecorder::new(RING);
    let mut ring_b = LatencyRecorder::new(RING);
    let mut hist_a = LogHistogram::new();
    let mut hist_b = LogHistogram::new();
    let mut all = Vec::new();
    for i in 0..200_000u64 {
        let v = 30 + i % 8;
        ring_a.record(v);
        hist_a.record(v);
        all.push(v);
    }
    for i in 0..1_000u64 {
        let v = 4_000 + i % 64;
        ring_b.record(v);
        hist_b.record(v);
        all.push(v);
    }
    ring_a.merge(&ring_b);
    hist_a.merge(&hist_b);
    all.sort_unstable();

    // Slow samples are under 1 % of the run, so the exact p99 is still fast
    // — and below 64, where the histogram is sample-exact.
    let exact_p99 = exact_percentile(&all, 99.0);
    assert!(exact_p99 < 64, "the fast shard owns the exact p99");
    assert_eq!(
        hist_a.percentile(99.0),
        exact_p99,
        "values below 64 are exact in the histogram"
    );
    // The merged ring's 50/50 window puts its p99 deep in the slow shard —
    // an overestimate of more than 100×.
    assert!(
        ring_a.summary().p99 >= 4_000,
        "equal windows hand the ring's p99 to the 0.5 % shard"
    );
}

#[test]
fn latency_recorder_summarizes_and_merges() {
    let mut r = LatencyRecorder::new(1_000);
    for v in 1..=100u64 {
        r.record(v);
    }
    let s = r.summary();
    assert_eq!(s.count, 100);
    assert_eq!(s.p50, 50);
    assert_eq!(s.p99, 99);
    assert_eq!(s.max, 100);
    assert!((s.mean - 50.5).abs() < 1e-9);

    // The ring keeps only the newest samples but the lifetime aggregates
    // keep counting.
    let mut small = LatencyRecorder::new(4);
    for v in [1u64, 2, 3, 4, 1_000, 1_000, 1_000, 1_000] {
        small.record(v);
    }
    let ss = small.summary();
    assert_eq!(ss.count, 8);
    assert_eq!(ss.p50, 1_000, "old samples were overwritten");
    assert_eq!(ss.max, 1_000);

    // Merging folds both windows and lifetimes together.
    let mut merged = LatencyRecorder::new(2_000);
    merged.merge(&r);
    merged.merge(&small);
    let ms = merged.summary();
    assert_eq!(ms.count, 108);
    assert_eq!(ms.max, 1_000);

    // Empty recorder is well-defined.
    let empty = LatencyRecorder::new(16).summary();
    assert_eq!(empty.count, 0);
    assert_eq!(empty.p50, 0);
    assert_eq!(empty.mean, 0.0);

    // The nearest-rank percentile behind the summary.
    let ints: Vec<usize> = (1..=10).collect();
    assert_eq!(percentile_usize(&ints, 0.0), Some(1));
    assert_eq!(percentile_usize(&ints, 1.0), Some(10));
    assert_eq!(percentile_usize(&[7], 0.99), Some(7));
    assert_eq!(percentile_usize(&ints, f64::NAN), Some(1));
    assert_eq!(percentile_usize(&ints, 0.5), Some(5));
    assert_eq!(percentile_usize(&[], 0.5), None);
}

#[test]
fn merge_keeps_every_shards_window() {
    // Two "shards" with disjoint latency distributions, each with a full
    // window. Merging into a recorder too small for both must grow, not
    // let the last-merged shard evict the first one's samples.
    let mut low = LatencyRecorder::new(100);
    let mut high = LatencyRecorder::new(100);
    for v in 1..=100u64 {
        low.record(v); // median 50
        high.record(1_000 + v); // median 1050
    }
    let mut merged = LatencyRecorder::new(100);
    merged.merge(&low);
    merged.merge(&high);
    let s = merged.summary();
    assert_eq!(s.count, 200);
    let (p50_low, p50_high) = (low.summary().p50, high.summary().p50);
    assert!(
        s.p50 > p50_low && s.p50 < p50_high,
        "merged p50 {} must land between the shards' medians {p50_low} and {p50_high}",
        s.p50
    );
    // The merged window holds all 200 samples: the exact nearest-rank
    // median of the combined distribution, not of one shard's.
    assert_eq!(s.p50, 100, "rank 100 of the 200 combined samples");
    assert_eq!(s.max, 1_100);
}

#[test]
fn merge_walks_wrapped_source_oldest_first() {
    // A wrapped source ring: capacity 4, storage [50,60,30,40], head at
    // index 2 — the retained window is [30,40,50,60] oldest-first.
    let mut src = LatencyRecorder::new(4);
    for v in [10u64, 20, 30, 40, 50, 60] {
        src.record(v);
    }
    let mut dst = LatencyRecorder::new(4);
    dst.merge(&src);
    // Two more records must evict the *oldest* merged samples (30, 40) —
    // if merge had copied the source in storage order, they would evict
    // 50 and 60 instead.
    dst.record(70);
    dst.record(80);
    let s = dst.summary();
    assert_eq!(
        s.p50, 60,
        "window is [50,60,70,80]; storage-order merge would leave [70,80,30,40] and a p50 of 40"
    );
}

#[test]
fn merge_into_empty_and_from_empty() {
    let mut src = LatencyRecorder::new(8);
    for v in 1..=8u64 {
        src.record(v);
    }
    let mut dst = LatencyRecorder::new(2);
    dst.merge(&LatencyRecorder::new(4)); // empty source: no-op
    assert_eq!(dst.summary().count, 0);
    dst.merge(&src);
    assert_eq!(dst.summary().count, 8);
    assert_eq!(dst.summary().p50, 4, "all 8 samples retained");
}
