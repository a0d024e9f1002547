//! Burst detection (§4.1) and the per-window history used to calibrate the
//! detection threshold (§2.2.1).
//!
//! SWIFT classifies the incoming stream as being "in a burst" when the number
//! of withdrawals received over a sliding window exceeds a start threshold
//! (the 99.99th percentile of recent history — 1,500 over 10 s in the paper's
//! dataset), and declares the burst over when the windowed count drops below a
//! stop threshold (the 90th percentile — 9 over 10 s).

use crate::config::InferenceConfig;
use std::collections::VecDeque;
use swift_bgp::{Prefix, Timestamp};

/// What the detector concluded after ingesting one withdrawal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstEvent {
    /// Nothing changed.
    None,
    /// A burst just started (at the given time).
    Started(Timestamp),
    /// The ongoing burst is continuing.
    Ongoing,
    /// The previous burst had already drained below the stop threshold by the
    /// time this withdrawal arrived: the burst is closed and the withdrawal is
    /// counted outside it. Emitted on withdrawal-only streams, where no
    /// announcement ever ticks the clock between two bursts.
    Ended,
}

/// Sliding-window burst detector for one session.
///
/// The window keeps each withdrawal's prefix beside its timestamp: when a
/// burst starts, the withdrawals that tripped the threshold are its first
/// ones, and the engine replays them ([`BurstDetector::window`]) into the
/// freshly seeded counters.
#[derive(Debug, Clone)]
pub struct BurstDetector {
    window: Timestamp,
    start_threshold: usize,
    stop_threshold: usize,
    recent: VecDeque<(Timestamp, Prefix)>,
    in_burst: bool,
    burst_start: Option<Timestamp>,
    withdrawals_in_burst: usize,
}

impl BurstDetector {
    /// Creates a detector using the thresholds in `config`.
    pub fn new(config: &InferenceConfig) -> Self {
        BurstDetector {
            window: config.burst_window,
            start_threshold: config.burst_start_threshold,
            stop_threshold: config.burst_stop_threshold,
            recent: VecDeque::new(),
            in_burst: false,
            burst_start: None,
            withdrawals_in_burst: 0,
        }
    }

    /// Creates a detector with explicit thresholds (used by the trace tooling).
    pub fn with_thresholds(
        window: Timestamp,
        start_threshold: usize,
        stop_threshold: usize,
    ) -> Self {
        BurstDetector {
            window,
            start_threshold,
            stop_threshold,
            recent: VecDeque::new(),
            in_burst: false,
            burst_start: None,
            withdrawals_in_burst: 0,
        }
    }

    /// Ingests one withdrawal of `prefix` received at `t` and reports any
    /// burst state change.
    ///
    /// Before the withdrawal is admitted, the stop condition is checked
    /// against the window as it stood at `t` — exactly what an
    /// [`BurstDetector::on_tick`] at `t` would have seen. Without this, a
    /// burst on a withdrawal-only stream can never end: the next burst's
    /// first withdrawal would be classified as `Ongoing` no matter how long
    /// the silence before it.
    pub fn on_withdrawal(&mut self, t: Timestamp, prefix: Prefix) -> BurstEvent {
        let mut ended = false;
        if self.in_burst {
            self.evict(t);
            if self.recent.len() <= self.stop_threshold {
                self.in_burst = false;
                self.burst_start = None;
                self.withdrawals_in_burst = 0;
                ended = true;
            }
        }
        self.recent.push_back((t, prefix));
        self.evict(t);
        if self.in_burst {
            self.withdrawals_in_burst += 1;
            return BurstEvent::Ongoing;
        }
        if self.recent.len() >= self.start_threshold {
            self.in_burst = true;
            let (start, _) = *self.recent.front().expect("window not empty");
            self.burst_start = Some(start);
            self.withdrawals_in_burst = self.recent.len();
            return BurstEvent::Started(start);
        }
        if ended {
            return BurstEvent::Ended;
        }
        BurstEvent::None
    }

    /// Advances time without a withdrawal (e.g. on announcements or
    /// keepalives); may close the current burst.
    ///
    /// Returns `true` if a burst ended at this call.
    pub fn on_tick(&mut self, t: Timestamp) -> bool {
        self.evict(t);
        if self.in_burst && self.recent.len() <= self.stop_threshold {
            self.in_burst = false;
            self.burst_start = None;
            self.withdrawals_in_burst = 0;
            return true;
        }
        false
    }

    fn evict(&mut self, now: Timestamp) {
        let cutoff = now.saturating_sub(self.window);
        while let Some((front, _)) = self.recent.front() {
            if *front < cutoff {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Returns `true` while a burst is ongoing.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// The start time of the ongoing burst, if any.
    pub fn burst_start(&self) -> Option<Timestamp> {
        self.burst_start
    }

    /// Withdrawals received since the ongoing burst started.
    pub fn withdrawals_in_burst(&self) -> usize {
        self.withdrawals_in_burst
    }

    /// Withdrawals currently inside the sliding window.
    pub fn window_count(&self) -> usize {
        self.recent.len()
    }

    /// The prefixes of the withdrawals inside the sliding window, oldest
    /// first (a prefix withdrawn twice in the window appears twice).
    pub fn window(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.recent.iter().map(|(_, prefix)| *prefix)
    }
}

/// History of per-window withdrawal counts, used to derive the burst start
/// threshold as a percentile of recent activity (the paper uses the 99.99th
/// percentile of the counts observed over the previous month).
#[derive(Debug, Clone, Default)]
pub struct WindowHistory {
    counts: Vec<usize>,
}

impl WindowHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the withdrawal count of one window.
    pub fn record(&mut self, count: usize) {
        self.counts.push(count);
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Returns `true` if no window has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The `q`-quantile (0.0–1.0) of the recorded counts, using the
    /// nearest-rank method. Returns `None` on an empty history.
    pub fn percentile(&self, q: f64) -> Option<usize> {
        if self.counts.is_empty() {
            return None;
        }
        let mut sorted = self.counts.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// A suggested burst start threshold: the 99.99th percentile of history,
    /// floored at `minimum` (the paper floors it at 1,500).
    pub fn suggested_start_threshold(&self, minimum: usize) -> usize {
        self.percentile(0.9999).unwrap_or(minimum).max(minimum)
    }

    /// A suggested burst stop threshold: the 90th percentile of history,
    /// floored at `minimum`.
    pub fn suggested_stop_threshold(&self, minimum: usize) -> usize {
        self.percentile(0.90).unwrap_or(minimum).max(minimum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::SECOND;

    /// The detector only carries prefixes; any one will do.
    const P: Prefix = Prefix::DEFAULT;

    fn detector(start: usize, stop: usize) -> BurstDetector {
        BurstDetector::with_thresholds(10 * SECOND, start, stop)
    }

    #[test]
    fn burst_starts_when_window_count_reaches_threshold() {
        let mut d = detector(5, 1);
        let mut started_at = None;
        for i in 0..10u64 {
            if let BurstEvent::Started(t) = d.on_withdrawal(i * SECOND / 10, P) {
                started_at = Some((i, t))
            }
        }
        let (i, t) = started_at.expect("burst should start");
        assert_eq!(i, 4, "fifth withdrawal triggers the threshold of 5");
        assert_eq!(t, 0, "burst start is the first withdrawal in the window");
        assert!(d.in_burst());
        assert_eq!(d.withdrawals_in_burst(), 10);
    }

    #[test]
    fn no_burst_for_slow_trickle() {
        let mut d = detector(5, 1);
        for i in 0..100u64 {
            // One withdrawal every 30 seconds: never 5 in a 10 s window.
            assert_eq!(d.on_withdrawal(i * 30 * SECOND, P), BurstEvent::None);
        }
        assert!(!d.in_burst());
    }

    #[test]
    fn burst_ends_when_window_drains() {
        let mut d = detector(5, 1);
        for i in 0..6u64 {
            d.on_withdrawal(i * 1_000, P);
        }
        assert!(d.in_burst());
        // 30 seconds of silence: the window empties below the stop threshold.
        assert!(d.on_tick(30 * SECOND));
        assert!(!d.in_burst());
        assert_eq!(d.burst_start(), None);
        // Ticking again does not report another end.
        assert!(!d.on_tick(31 * SECOND));
    }

    #[test]
    fn gap_in_withdrawal_only_stream_ends_the_burst() {
        let mut d = detector(5, 1);
        for i in 0..8u64 {
            d.on_withdrawal(i * 1_000, P);
        }
        assert!(d.in_burst());
        // One lone withdrawal a minute later: the window drained long ago, so
        // the burst must close and the straggler sits outside any burst.
        assert_eq!(d.on_withdrawal(60 * SECOND, P), BurstEvent::Ended);
        assert!(!d.in_burst());
        assert_eq!(d.burst_start(), None);
        assert_eq!(d.withdrawals_in_burst(), 0);
        assert_eq!(d.window_count(), 1);
        // A fresh burst can then start from scratch.
        let mut started = None;
        for i in 0..5u64 {
            if let BurstEvent::Started(t) = d.on_withdrawal(120 * SECOND + i * 1_000, P) {
                started = Some(t);
            }
        }
        assert_eq!(started, Some(120 * SECOND));
        assert_eq!(d.withdrawals_in_burst(), 5);
    }

    #[test]
    fn steady_burst_is_not_ended_by_the_stop_check() {
        let mut d = detector(5, 1);
        for i in 0..1_000u64 {
            let ev = d.on_withdrawal(i * 500_000, P); // 2/s, window holds 20
            assert_ne!(ev, BurstEvent::Ended);
            if i >= 4 {
                assert_ne!(ev, BurstEvent::None, "burst must stay open");
            }
        }
        assert!(d.in_burst());
    }

    #[test]
    fn window_eviction_is_time_based() {
        let mut d = detector(3, 0);
        d.on_withdrawal(0, P);
        d.on_withdrawal(SECOND, P);
        assert_eq!(d.window_count(), 2);
        d.on_withdrawal(15 * SECOND, P);
        // The first two fall outside the 10 s window.
        assert_eq!(d.window_count(), 1);
        assert!(!d.in_burst());
    }

    #[test]
    fn default_config_thresholds() {
        let d = BurstDetector::new(&InferenceConfig::default());
        assert_eq!(d.start_threshold, 1_500);
        assert_eq!(d.stop_threshold, 9);
        assert_eq!(d.window, 10 * SECOND);
    }

    #[test]
    fn history_percentiles() {
        let mut h = WindowHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
        for c in 1..=100 {
            h.record(c);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.percentile(0.5), Some(50));
        assert_eq!(h.percentile(0.9), Some(90));
        assert_eq!(h.percentile(1.0), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
        // Suggested thresholds respect the floor.
        assert_eq!(h.suggested_start_threshold(1_500), 1_500);
        assert_eq!(h.suggested_stop_threshold(9), 90);
        let mut big = WindowHistory::new();
        for c in [0, 0, 0, 5_000] {
            big.record(c);
        }
        assert_eq!(big.suggested_start_threshold(1_500), 5_000);
    }
}
