//! Burst detection (§4.1).
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
pub(super) enum BurstEvent {
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
pub(super) struct BurstDetector {
    window: Timestamp,
    start_threshold: usize,
    stop_threshold: usize,
    recent: VecDeque<(Timestamp, Prefix)>,
    in_burst: bool,
    withdrawals_in_burst: usize,
}

impl BurstDetector {
    /// Creates a detector using the thresholds in `config`.
    pub(super) fn new(config: &InferenceConfig) -> Self {
        BurstDetector {
            window: config.burst_window,
            start_threshold: config.burst_start_threshold,
            stop_threshold: config.burst_stop_threshold,
            recent: VecDeque::new(),
            in_burst: false,
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
    pub(super) fn on_withdrawal(&mut self, t: Timestamp, prefix: Prefix) -> BurstEvent {
        let mut ended = false;
        if self.in_burst {
            self.evict(t);
            if self.recent.len() <= self.stop_threshold {
                self.in_burst = false;
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
    pub(super) fn on_tick(&mut self, t: Timestamp) -> bool {
        self.evict(t);
        if self.in_burst && self.recent.len() <= self.stop_threshold {
            self.in_burst = false;
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
    pub(super) fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Withdrawals received since the ongoing burst started.
    pub(super) fn withdrawals_in_burst(&self) -> usize {
        self.withdrawals_in_burst
    }

    /// The prefixes of the withdrawals inside the sliding window, oldest
    /// first (a prefix withdrawn twice in the window appears twice).
    pub(super) fn window(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.recent.iter().map(|(_, prefix)| *prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::SECOND;

    /// The detector only carries prefixes; any one will do.
    const P: Prefix = Prefix::DEFAULT;

    fn detector(start: usize, stop: usize) -> BurstDetector {
        BurstDetector::new(&InferenceConfig {
            burst_window: 10 * SECOND,
            burst_start_threshold: start,
            burst_stop_threshold: stop,
            ..InferenceConfig::default()
        })
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
        assert_eq!(d.withdrawals_in_burst(), 0);
        assert_eq!(d.recent.len(), 1);
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
        assert_eq!(d.recent.len(), 2);
        d.on_withdrawal(15 * SECOND, P);
        // The first two fall outside the 10 s window.
        assert_eq!(d.recent.len(), 1);
        assert!(!d.in_burst());
    }

    #[test]
    fn default_config_thresholds() {
        let d = BurstDetector::new(&InferenceConfig::default());
        assert_eq!(d.start_threshold, 1_500);
        assert_eq!(d.stop_threshold, 9);
        assert_eq!(d.window, 10 * SECOND);
    }
}
