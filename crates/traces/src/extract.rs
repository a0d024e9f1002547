//! Sliding-window burst extraction (§2.2.1 methodology).
//!
//! The paper extracts bursts from raw per-session update streams with a 10 s
//! sliding window: a burst starts when the windowed withdrawal count exceeds a
//! start threshold (1,500 — the 99.99th percentile of windowed counts) and
//! stops when it drops below a stop threshold (9 — the 90th percentile). This
//! module reimplements that extraction so that the Fig. 2 measurements can be
//! recomputed from any message stream (synthetic or otherwise).

use swift_bgp::{MessageStream, Timestamp, SECOND};

/// An extracted burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedBurst {
    /// Time of the first withdrawal in the burst.
    pub start: Timestamp,
    /// Time of the last withdrawal in the burst.
    pub end: Timestamp,
    /// Number of withdrawals in the burst.
    pub withdrawals: usize,
}

/// Extraction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractConfig {
    /// Sliding-window length (paper: 10 s).
    pub window: Timestamp,
    /// Windowed withdrawal count that starts a burst (paper: 1,500).
    pub start_threshold: usize,
    /// Windowed withdrawal count below which a burst stops (paper: 9).
    pub stop_threshold: usize,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            window: 10 * SECOND,
            start_threshold: 1_500,
            stop_threshold: 9,
        }
    }
}

/// Extracts the bursts of withdrawal activity from a message stream.
pub fn extract_bursts(stream: &MessageStream, config: &ExtractConfig) -> Vec<ExtractedBurst> {
    let withdrawal_times: Vec<Timestamp> = (stream.events().iter())
        .filter(|e| e.is_withdraw())
        .map(|e| e.timestamp())
        .collect();
    extract_from_times(&withdrawal_times, config)
}

/// Extraction working directly on withdrawal timestamps (must be sorted).
pub(crate) fn extract_from_times(
    times: &[Timestamp],
    config: &ExtractConfig,
) -> Vec<ExtractedBurst> {
    let mut bursts = Vec::new();
    let mut window_start = 0usize; // index of the first withdrawal in the window
    let mut in_burst = false;
    let mut burst_first = 0usize;
    #[allow(
        unused_assignments,
        reason = "the initial value is a placeholder every burst overwrites before reading"
    )]
    let mut burst_last = 0usize;

    for (i, &t) in times.iter().enumerate() {
        // Slide the window.
        while times[window_start] + config.window <= t {
            window_start += 1;
        }
        let count = i - window_start + 1;
        if !in_burst && count >= config.start_threshold {
            in_burst = true;
            burst_first = window_start;
        }
        if in_burst {
            burst_last = i;
            // Look ahead: the burst stops when the windowed count (ending at a
            // later withdrawal or at silence) drops to the stop threshold. We
            // detect it lazily: if the next withdrawal is more than `window`
            // away (or the stream ends), the window will drain below the stop
            // threshold and the burst closes here.
            let closes = match times.get(i + 1) {
                None => true,
                Some(&next) => {
                    // Count of withdrawals within `window` ending just before `next`.
                    let future_start = times[..=i].partition_point(|&x| x + config.window <= next);
                    let future_count = (i + 1).saturating_sub(future_start);
                    future_count <= config.stop_threshold
                }
            };
            if closes {
                bursts.push(ExtractedBurst {
                    start: times[burst_first],
                    end: times[burst_last],
                    withdrawals: burst_last - burst_first + 1,
                });
                in_burst = false;
            }
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{ElementaryEvent, Prefix};

    fn cfg(start: usize, stop: usize) -> ExtractConfig {
        ExtractConfig {
            window: 10 * SECOND,
            start_threshold: start,
            stop_threshold: stop,
        }
    }

    fn times(specs: &[(Timestamp, usize)]) -> Vec<Timestamp> {
        // (start, count): count withdrawals 1 ms apart starting at start.
        let mut v = Vec::new();
        for (start, count) in specs {
            for i in 0..*count {
                v.push(start + i as u64 * 1_000);
            }
        }
        v.sort();
        v
    }

    #[test]
    fn single_burst_is_extracted_with_full_extent() {
        let t = times(&[(100 * SECOND, 5_000)]);
        let bursts = extract_from_times(&t, &cfg(1_500, 9));
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].withdrawals, 5_000);
        assert_eq!(bursts[0].start, 100 * SECOND);
        assert_eq!(bursts[0].end, *t.last().unwrap());
        assert!(bursts[0].end > bursts[0].start);
    }

    #[test]
    fn trickle_below_threshold_is_not_a_burst() {
        // 1 withdrawal per minute for a day: never 1,500 in a window.
        let t: Vec<Timestamp> = (0..1_440).map(|i| i * 60 * SECOND).collect();
        assert!(extract_from_times(&t, &cfg(1_500, 9)).is_empty());
    }

    #[test]
    fn two_separated_bursts_are_distinct() {
        let t = times(&[(0, 3_000), (3_600 * SECOND, 2_000)]);
        let bursts = extract_from_times(&t, &cfg(1_500, 9));
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].withdrawals, 3_000);
        assert_eq!(bursts[1].withdrawals, 2_000);
        assert!(bursts[1].start >= 3_600 * SECOND);
    }

    #[test]
    fn noise_between_bursts_is_ignored() {
        let mut t = times(&[(0, 2_000), (1_000 * SECOND, 2_000)]);
        // Sparse noise in between.
        for i in 0..50u64 {
            t.push(200 * SECOND + i * 10 * SECOND);
        }
        t.sort();
        let bursts = extract_from_times(&t, &cfg(1_500, 9));
        assert_eq!(bursts.len(), 2);
        // Noise withdrawals are not folded into either burst.
        assert!(bursts[0].withdrawals <= 2_010);
        assert!(bursts[1].withdrawals <= 2_010);
    }

    #[test]
    fn works_from_message_streams() {
        let events: Vec<ElementaryEvent> = (0..2_000u32)
            .map(|i| ElementaryEvent::Withdraw {
                timestamp: u64::from(i) * 5_000,
                prefix: Prefix::nth_slash24(i),
            })
            .collect();
        let stream = MessageStream::from_events(events);
        let bursts = extract_bursts(&stream, &ExtractConfig::default());
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].withdrawals, 2_000);
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(extract_from_times(&[], &ExtractConfig::default()).is_empty());
        assert!(extract_bursts(&MessageStream::new(), &ExtractConfig::default()).is_empty());
    }
}
