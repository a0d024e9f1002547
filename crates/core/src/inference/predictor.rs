//! Translation of inferred links into predicted prefixes (§3.1, §4.2).
//!
//! SWIFT is deliberately conservative: because BGP messages cannot tell which
//! subset of the prefixes crossing a failed link actually lost connectivity,
//! *all* prefixes whose current path traverses an inferred link are rerouted.

use crate::inference::aggregate::InferredLinks;
use crate::inference::counters::LinkCounters;
use std::sync::Arc;
use swift_bgp::PrefixSet;

/// The prefix-level view of an inference.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Prefixes whose pre-burst path traversed an inferred link and that were
    /// already withdrawn when the inference was made. A shared handle like
    /// `predicted`: the engine keeps the accepted result and hands out a copy.
    pub already_withdrawn: Arc<PrefixSet>,
    /// Prefixes whose current path traverses an inferred link and that are
    /// still routed — these are the prefixes SWIFT reroutes (the "predicted
    /// future withdrawals" of §6.3). A shared handle: the reroute action, the
    /// action log and the runtime's report all hold this one set.
    pub predicted: Arc<PrefixSet>,
}

impl Prediction {
    /// Every prefix the inference marks as affected (withdrawn or predicted).
    pub fn affected(&self) -> PrefixSet {
        self.already_withdrawn.union(&self.predicted)
    }

    /// Number of prefixes that would be rerouted.
    pub fn rerouted_count(&self) -> usize {
        self.predicted.len()
    }

    /// Total number of prefixes the inference claims are affected — the value
    /// the history model compares against its plausibility cap.
    pub fn total_affected(&self) -> usize {
        self.already_withdrawn.len() + self.predicted.len()
    }
}

/// Computes the prediction for `links` from the current per-session counters.
///
/// Runs on the inverted prefix-bitset index: the affected prefixes are read
/// off the per-link bitsets instead of scanning every RIB entry's path.
pub fn predict(counters: &LinkCounters, links: &InferredLinks) -> Prediction {
    if links.is_empty() {
        return Prediction::default();
    }
    let (already_withdrawn, predicted) = counters.crossing_prefixes(&links.links);
    Prediction {
        already_withdrawn: Arc::new(already_withdrawn),
        predicted: Arc::new(predicted),
    }
}

/// Reference implementation of [`predict`] by full scan over the tracked
/// prefixes — kept as the baseline of the property tests and
/// `bench_inference`.
pub fn predict_scan(counters: &LinkCounters, links: &InferredLinks) -> Prediction {
    if links.is_empty() {
        return Prediction::default();
    }
    let already_withdrawn: PrefixSet = counters
        .withdrawn()
        .filter(|(_, path)| path.crosses_any(&links.links))
        .map(|(p, _)| *p)
        .collect();
    let predicted: PrefixSet = counters
        .routed()
        .filter(|(_, path)| path.crosses_any(&links.links))
        .map(|(p, _)| *p)
        .collect();
    Prediction {
        already_withdrawn: Arc::new(already_withdrawn),
        predicted: Arc::new(predicted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;
    use crate::inference::aggregate::infer_links;
    use swift_bgp::{AsPath, Prefix};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn counters() -> LinkCounters {
        let mut rib: Vec<(Prefix, AsPath)> = Vec::new();
        // 10 prefixes of AS 6, 10 of AS 7, 10 of AS 8 beyond link (5,6);
        // 5 prefixes of AS 5; 5 prefixes elsewhere.
        for i in 0..10 {
            rib.push((p(i), AsPath::new([2u32, 5, 6])));
        }
        for i in 10..20 {
            rib.push((p(i), AsPath::new([2u32, 5, 6, 7])));
        }
        for i in 20..30 {
            rib.push((p(i), AsPath::new([2u32, 5, 6, 8])));
        }
        for i in 30..35 {
            rib.push((p(i), AsPath::new([2u32, 5])));
        }
        for i in 35..40 {
            rib.push((p(i), AsPath::new([2u32, 9])));
        }
        LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)))
    }

    #[test]
    fn prediction_splits_withdrawn_and_future() {
        let mut c = counters();
        // The burst has delivered withdrawals for the AS 6 prefixes only so far.
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert_eq!(inferred.links, vec![swift_bgp::AsLink::new(5, 6)]);
        let pred = predict(&c, &inferred);
        assert_eq!(pred.already_withdrawn.len(), 10);
        assert_eq!(pred.predicted.len(), 20, "AS 7 + AS 8 prefixes predicted");
        assert_eq!(pred.total_affected(), 30);
        assert_eq!(pred.rerouted_count(), 20);
        assert_eq!(pred.affected().len(), 30);
        // Unrelated prefixes are not predicted.
        assert!(!pred.predicted.contains(&p(36)));
        assert!(!pred.predicted.contains(&p(31)));
        // The prediction is exactly the still-routed prefixes crossing (5,6).
        assert!(pred.predicted.iter().all(|q| (10..30).contains(&{
            // recover index from the deterministic /24 numbering
            (q.addr() - Prefix::nth_slash24(0).addr()) >> 8
        })));
    }

    #[test]
    fn empty_inference_predicts_nothing() {
        let c = counters();
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert!(inferred.is_empty());
        let pred = predict(&c, &inferred);
        assert_eq!(pred.total_affected(), 0);
        assert!(pred.affected().is_empty());
    }

    #[test]
    fn indexed_prediction_matches_scan_reference() {
        let mut c = counters();
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        for i in 10..15 {
            c.on_announce(p(i), AsPath::new([2u32, 5, 3, 6, 7]));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        let fast = predict(&c, &inferred);
        let slow = predict_scan(&c, &inferred);
        assert_eq!(fast.already_withdrawn, slow.already_withdrawn);
        assert_eq!(fast.predicted, slow.predicted);
    }

    #[test]
    fn prediction_tracks_reannouncements() {
        let mut c = counters();
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        // AS 7 prefixes are re-announced over a path avoiding (5,6): they must
        // no longer be predicted.
        for i in 10..20 {
            c.on_announce(p(i), AsPath::new([2u32, 5, 3, 6, 7]));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        let pred = predict(&c, &inferred);
        assert_eq!(pred.predicted.len(), 10, "only the AS 8 prefixes remain");
    }
}
