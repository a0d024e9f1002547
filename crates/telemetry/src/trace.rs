//! Sampled pipeline tracing: per-stage latency attribution.
//!
//! One event in N carries a [`TraceStamp`] from ingest through the shard
//! worker and into the applier. Each stage boundary takes one precise clock
//! reading (the runtime's `EpochClock::precise`, a single `Instant::elapsed`
//! against the clock's base) and records the elapsed span into the matching
//! [`StageHistograms`] slot. The untraced N−1 events pay only a counter
//! compare, so tracing at 1-in-1024 is effectively free (measured on the
//! runtime's dispatch loop in `bench_telemetry`, and end to end by the
//! repo benchmark's `trace.overhead` record), while the sampled population
//! still pins down where reroute time goes: queue wait vs inference vs
//! applier-queue wait vs install.

use crate::histogram::{HistogramSummary, LogHistogram};

/// The stamp a sampled event carries through the pipeline.
///
/// `ingest_ns` is the precise ingest-time reading; `last_ns` advances at each
/// stage boundary so every stage records only its own span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStamp {
    /// Precise clock reading when the producer stamped the event.
    pub ingest_ns: u64,
    /// Precise clock reading at the most recent stage boundary.
    pub last_ns: u64,
}

impl TraceStamp {
    /// A stamp taken at ingest time.
    pub fn at(now_ns: u64) -> Self {
        TraceStamp {
            ingest_ns: now_ns,
            last_ns: now_ns,
        }
    }

    /// Advances the stamp to `now_ns`, returning the span since the previous
    /// boundary (saturating: clock readings from different threads may race
    /// by a few nanoseconds).
    #[inline]
    pub fn advance(&mut self, now_ns: u64) -> u64 {
        let span = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        span
    }
}

/// Deterministic 1-in-N sampler (N a power of two rounds down from any
/// requested interval; 0 disables sampling entirely).
#[derive(Debug, Clone)]
pub struct TraceSampler {
    mask: u64,
    seen: u64,
    enabled: bool,
}

impl TraceSampler {
    /// Samples every `interval`-th event. `interval` is rounded down to a
    /// power of two so the hot-path check is a mask, not a division;
    /// `interval == 0` disables tracing (every check is one branch).
    pub fn every(interval: usize) -> Self {
        let enabled = interval > 0;
        let pow2 = if enabled {
            match (interval as u64).checked_next_power_of_two() {
                Some(p) if p as usize > interval => p >> 1,
                Some(p) => p,
                None => 1 << 63,
            }
        } else {
            1
        };
        TraceSampler {
            mask: pow2 - 1,
            seen: 0,
            enabled,
        }
    }

    /// True when the next event should carry a stamp. Advances the sampler.
    #[inline]
    pub fn sample(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        let hit = self.seen & self.mask == 0;
        self.seen = self.seen.wrapping_add(1);
        hit
    }
}

/// Per-stage histograms for traced events, in nanoseconds.
///
/// The stages partition the ingest → install path: `queue_wait` (producer
/// buffer + shard queue), `inference` (the `SessionEngine::process` call),
/// `applier_wait` (shard → applier queue), `install` (rule install inside the
/// applier). Their sum for one event is its end-to-end pipeline latency.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    /// Ingest stamp → shard-worker dequeue.
    pub queue_wait: LogHistogram,
    /// Shard-worker dequeue → inference result.
    pub inference: LogHistogram,
    /// Inference result → applier dequeue.
    pub applier_wait: LogHistogram,
    /// Applier dequeue → rules installed.
    pub install: LogHistogram,
}

impl StageHistograms {
    /// Empty per-stage histograms.
    pub fn new() -> Self {
        StageHistograms::default()
    }

    /// Folds another set of stage histograms into this one (bucketwise adds,
    /// exact — see [`LogHistogram::merge`]).
    pub fn merge(&mut self, other: &StageHistograms) {
        self.queue_wait.merge(&other.queue_wait);
        self.inference.merge(&other.inference);
        self.applier_wait.merge(&other.applier_wait);
        self.install.merge(&other.install);
    }

    /// Number of events traced through the first stage.
    pub fn traced(&self) -> u64 {
        self.queue_wait.count()
    }

    /// True when no event was traced through any stage.
    pub fn is_empty(&self) -> bool {
        self.traced() == 0 && self.install.is_empty()
    }

    /// `(stage name, summary)` rows in pipeline order, in nanoseconds.
    pub fn rows(&self) -> [(&'static str, HistogramSummary); 4] {
        [
            ("queue_wait", self.queue_wait.summary()),
            ("inference", self.inference.summary()),
            ("applier_wait", self.applier_wait.summary()),
            ("install", self.install.summary()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_attributes_spans_to_stages() {
        let mut stamp = TraceStamp::at(100);
        assert_eq!(stamp.advance(150), 50);
        assert_eq!(stamp.advance(175), 25);
        assert_eq!(stamp.ingest_ns, 100);
        assert_eq!(stamp.advance(160), 0, "cross-thread skew saturates to 0");
    }

    #[test]
    fn sampler_hits_exactly_one_in_n() {
        let mut s = TraceSampler::every(8);
        let hits = (0..64).filter(|_| s.sample()).count();
        assert_eq!(hits, 8);
        assert_eq!(s.mask + 1, 8);
    }

    #[test]
    fn sampler_rounds_down_to_a_power_of_two() {
        assert_eq!(TraceSampler::every(1000).mask + 1, 512);
        assert_eq!(TraceSampler::every(1024).mask + 1, 1024);
        assert_eq!(TraceSampler::every(1).mask + 1, 1);
    }

    #[test]
    fn sampler_disabled_never_samples() {
        let mut s = TraceSampler::every(0);
        assert!((0..100).all(|_| !s.sample()));
    }

    #[test]
    fn first_event_is_always_sampled_when_enabled() {
        let mut s = TraceSampler::every(1024);
        assert!(s.sample(), "short smoke runs must trace at least one event");
    }

    #[test]
    fn merge_accumulates_all_stages() {
        let mut a = StageHistograms::new();
        let mut b = StageHistograms::new();
        a.queue_wait.record(10);
        a.inference.record(20);
        b.queue_wait.record(30);
        b.install.record(40);
        a.merge(&b);
        assert_eq!(a.traced(), 2);
        assert_eq!(a.inference.count(), 1);
        assert_eq!(a.install.count(), 1);
        let rows = a.rows();
        assert_eq!(rows[0].0, "queue_wait");
        assert_eq!(rows[3].1.max, 40);
    }
}
