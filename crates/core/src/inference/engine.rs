//! The per-session SWIFT inference engine (§4).
//!
//! One [`InferenceEngine`] consumes the elementary per-prefix events of one BGP
//! session. It keeps the session's routing state, detects bursts, and — every
//! [`triggering threshold`](crate::config::InferenceConfig::triggering_threshold)
//! withdrawals — runs the fit-score inference. With the history model enabled,
//! an inference is only *accepted* (returned to the caller, who then installs
//! reroute rules) if the predicted burst size is plausible for the amount of
//! information received so far; otherwise the engine waits for the next
//! trigger, and always accepts once the force threshold is reached.
//!
//! # Burst lifecycle
//!
//! Counters are re-seeded at every burst start (§4.1): when the detector
//! reports [`BurstEvent::Started`], the engine resets `W` via
//! [`LinkCounters::start_burst`] and replays the withdrawals of the detection
//! window (the detector's own, which keeps their prefixes) so
//! the new burst starts from exactly the per-burst state the paper assumes —
//! burst N+1's withdrawal shares are never polluted by burst N's history.
//! Bursts also close on withdrawal-only streams: the detector checks the stop
//! threshold on withdrawals too ([`BurstEvent::Ended`]), so a later burst with
//! no interleaved announcements still gets its own inference.
//!
//! # Hot path
//!
//! Most events are not attempts. A withdrawal costs one prefix-map probe,
//! array updates of its path's links by [`LinkId`](super::counters::LinkId)
//! and a push onto the detector's window; an announcement adds the path
//! interner's probe. Nothing on that path allocates, orders a tree or touches
//! a link by name (`tests/alloc_free_event_path.rs` counts the allocator
//! calls: zero outside the calls that open or close a burst or run the
//! greedy chain).
//!
//! An inference attempt ranks candidates through the incrementally maintained
//! [`LinkRanker`] (fed by the counters' dirty-link feed) and scores link sets
//! through the inverted prefix-bitset index — no full-RIB scans, link ids
//! end to end. The history model's cap is held against the attempt twice,
//! each time before the work it would waste:
//!
//! * **Before the greedy chain.** Every set the chain can return holds the
//!   top-ranked link, so the size of that link's crossing set
//!   ([`LinkCounters::crossing_count`], a popcount or a posting-list length)
//!   is a floor under the set's `W(S) + P(S)`. An attempt whose top link
//!   already crosses more prefixes than the cap is turned down there: it
//!   costs the ranker fold, the ranking and that count — no aggregate seed,
//!   no trial, no kernel pass, no allocation.
//! * **Before the prediction.** The selected set carries its exact
//!   `(W(S), P(S))`, so an implausible one is turned down before
//!   [`predict`] builds its two id sets.
//!
//! An accepted attempt's [`predict`] lists no prefix either: it intersects
//! the set's crossing ids with the withdrawn and the routed ids into two
//! [`PrefixSnapshot`](super::PrefixSnapshot)s over a reference-counted
//! snapshot of the session's prefix list. Whoever reads the prefixes sorts
//! them, once.
//!
//! Both are exact: an attempt is accepted or rejected at the same withdrawal
//! as when the cap was held against a built prediction.

use crate::config::InferenceConfig;
use crate::inference::aggregate::{infer_links, infer_links_ranked, InferredLinks};
use crate::inference::burst_detect::{BurstDetector, BurstEvent};
use crate::inference::counters::LinkCounters;
use crate::inference::fit_score::{LinkRanker, Score};
use crate::inference::predictor::{predict, Prediction};
use swift_bgp::{AdjRibIn, AsPath, ElementaryEvent, InternedRib, Prefix, Resolved, Timestamp};

/// An accepted inference: the output SWIFT acts upon.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Time at which the inference was made (timestamp of the triggering
    /// event).
    pub time: Timestamp,
    /// Withdrawals received in the burst up to this point.
    pub withdrawals_seen: usize,
    /// The inferred failed links and their aggregate score.
    pub links: InferredLinks,
    /// The prefix-level prediction.
    pub prediction: Prediction,
}

impl InferenceResult {
    /// The fit score of the inferred link set.
    pub fn score(&self) -> Score {
        self.links.score
    }
}

/// Why the engine did or did not return an inference for an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// No burst is ongoing.
    Idle,
    /// A burst is ongoing but the next trigger has not been reached.
    WaitingForTrigger,
    /// An inference was attempted but rejected by the history model.
    RejectedByHistory,
    /// This event's inference was accepted (see the accompanying result).
    Accepted,
    /// An inference was already accepted earlier in this burst: the router has
    /// rerouted and is waiting for BGP to converge, so further withdrawals of
    /// the same burst change nothing. Distinct from [`EngineStatus::Accepted`]
    /// so callers can tell the accepting event apart from its aftermath.
    AlreadyAccepted,
}

/// Per-session inference engine.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    config: InferenceConfig,
    counters: LinkCounters,
    detector: BurstDetector,
    /// Incrementally maintained candidate ranking for the current burst.
    ranker: LinkRanker,
    /// Withdrawals seen in the current burst at the time of the last attempt.
    last_attempt_withdrawals: usize,
    /// Set once an inference has been accepted for the current burst.
    accepted: Option<InferenceResult>,
    /// Number of inference attempts made in the current burst.
    attempts: usize,
}

impl InferenceEngine {
    /// Creates an engine seeded with the session's current Adj-RIB-In.
    pub fn new<'a, I>(config: InferenceConfig, rib: I) -> Self
    where
        I: IntoIterator<Item = (&'a Prefix, &'a AsPath)>,
    {
        let counters = LinkCounters::from_rib(rib);
        Self::with_counters(config, counters)
    }

    /// Creates an engine seeded from an interned RIB (its interner is
    /// copied; no path is cloned per prefix).
    pub fn from_interned(config: InferenceConfig, rib: &InternedRib) -> Self {
        let counters = LinkCounters::from_interned(rib);
        Self::with_counters(config, counters)
    }

    /// Creates an engine seeded from a session's routes in a routing table,
    /// sharing the table's sealed prefix dictionary when the session holds
    /// at least half of its prefixes (see [`LinkCounters`]).
    pub(crate) fn from_table(config: InferenceConfig, rib: AdjRibIn<'_>) -> Self {
        let counters = LinkCounters::from_table(rib);
        Self::with_counters(config, counters)
    }

    fn with_counters(config: InferenceConfig, counters: LinkCounters) -> Self {
        let detector = BurstDetector::new(&config);
        InferenceEngine {
            config,
            counters,
            detector,
            ranker: LinkRanker::new(),
            last_attempt_withdrawals: 0,
            accepted: None,
            attempts: 0,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// The current counters (exposed for metrics and debugging).
    pub fn counters(&self) -> &LinkCounters {
        &self.counters
    }

    /// Drains the kernel dispatch/scratch statistics accumulated since the
    /// last call (see [`crate::inference::KernelStats`]). Kernels run only
    /// inside an inference attempt; the statistics accumulate until drained.
    pub fn take_kernel_stats(&self) -> crate::inference::KernelStats {
        self.counters.take_kernel_stats()
    }

    /// The burst detector state.
    pub fn in_burst(&self) -> bool {
        self.detector.in_burst()
    }

    /// Withdrawals received since the current burst started.
    pub fn withdrawals_in_burst(&self) -> usize {
        self.detector.withdrawals_in_burst()
    }

    /// The inference accepted for the current burst, if any.
    pub fn accepted(&self) -> Option<&InferenceResult> {
        self.accepted.as_ref()
    }

    /// Number of inference attempts made during the current burst.
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Processes one per-prefix event. Returns the accepted inference if this
    /// event triggered one.
    pub fn process(&mut self, event: &ElementaryEvent) -> (EngineStatus, Option<InferenceResult>) {
        self.process_resolved(event, Resolved::UNKNOWN)
    }

    /// [`InferenceEngine::process`] of an event `resolved` against the
    /// routing table the engine was seeded from (see
    /// [`crate::pipeline::SessionEngine::accept`]).
    pub(crate) fn process_resolved(
        &mut self,
        event: &ElementaryEvent,
        resolved: Resolved,
    ) -> (EngineStatus, Option<InferenceResult>) {
        match event {
            ElementaryEvent::Announce {
                timestamp,
                prefix,
                attrs,
            } => {
                self.counters.on_announce_resolved(*prefix, attrs, resolved);
                if self.detector.on_tick(*timestamp) {
                    self.reset_burst_state();
                }
                (self.idle_status(), None)
            }
            ElementaryEvent::Withdraw { timestamp, prefix } => {
                self.counters.on_withdraw_resolved(*prefix, resolved);
                match self.detector.on_withdrawal(*timestamp, *prefix) {
                    BurstEvent::None => (EngineStatus::Idle, None),
                    BurstEvent::Ended => {
                        // The previous burst drained before this withdrawal
                        // arrived (withdrawal-only stream): close it so the
                        // next burst starts clean.
                        self.reset_burst_state();
                        (EngineStatus::Idle, None)
                    }
                    BurstEvent::Started(_) => {
                        self.reset_burst_state();
                        // §4.1: seed the per-burst counters at burst start,
                        // then replay the detection window — those
                        // withdrawals belong to the new burst.
                        self.counters.start_burst(self.detector.window());
                        self.maybe_infer(*timestamp)
                    }
                    BurstEvent::Ongoing => self.maybe_infer(*timestamp),
                }
            }
        }
    }

    /// Forces an inference with the current counters, bypassing burst
    /// detection and the history model (used to evaluate "end of burst"
    /// accuracy, Theorem 4.1).
    ///
    /// Inside a burst the candidate ranking comes from the incrementally
    /// maintained [`LinkRanker`] — the same hot path the triggering attempts
    /// use, so a forced attempt costs `O(burst candidates)` instead of a walk
    /// over every link the session has ever seen. Outside a burst (where the
    /// ranker is reset and the counters may still carry a closed burst's
    /// state) it falls back to [`infer_links`](crate::inference::infer_links),
    /// which ranks every link with a withdrawal from scratch; both paths
    /// return identical results (the reference model's scan ranking,
    /// `crates/core/tests/reference/mod.rs`, holds both to the paper's).
    pub fn force_infer(&mut self, time: Timestamp) -> InferenceResult {
        let links = if self.detector.in_burst() {
            self.ranker.update(self.counters.take_dirty());
            let ranking = self.ranker.ranking(&self.counters, &self.config);
            infer_links_ranked(&self.counters, ranking, &self.config)
        } else {
            infer_links(&self.counters, &self.config)
        };
        let prediction = predict(&self.counters, &links);
        InferenceResult {
            time,
            withdrawals_seen: self.counters.total_withdrawals(),
            links,
            prediction,
        }
    }

    fn idle_status(&self) -> EngineStatus {
        if self.detector.in_burst() {
            EngineStatus::WaitingForTrigger
        } else {
            EngineStatus::Idle
        }
    }

    fn reset_burst_state(&mut self) {
        self.last_attempt_withdrawals = 0;
        self.accepted = None;
        self.attempts = 0;
        self.ranker.reset();
    }

    fn maybe_infer(&mut self, now: Timestamp) -> (EngineStatus, Option<InferenceResult>) {
        // Only one accepted inference per burst: afterwards the SWIFTED router
        // has already rerouted and simply waits for BGP to converge.
        if self.accepted.is_some() {
            return (EngineStatus::AlreadyAccepted, None);
        }
        let seen = self.detector.withdrawals_in_burst();
        if seen < self.last_attempt_withdrawals + self.config.triggering_threshold {
            return (EngineStatus::WaitingForTrigger, None);
        }
        self.last_attempt_withdrawals = seen;
        self.attempts += 1;

        self.ranker.update(self.counters.take_dirty());
        let ranking = self.ranker.ranking(&self.counters, &self.config);
        let cap = self
            .config
            .use_history
            .then(|| self.config.plausibility_cap(seen))
            .flatten();
        // Whatever set the chain returns holds the top-ranked link, and every
        // prefix crossing it is routed or withdrawn now: its crossing set is
        // a floor under the set's (W, P), so above the cap the chain cannot
        // produce a plausible set and is not run.
        if let (Some(cap), Some((top, _))) = (cap, ranking.first()) {
            if self.counters.crossing_count(*top) > cap {
                return (EngineStatus::RejectedByHistory, None);
            }
        }
        let links = infer_links_ranked(&self.counters, ranking, &self.config);
        // The set's own (W, P) is the size of the prediction it would yield:
        // an implausible one is turned down before any prefix set is built.
        if cap.is_some_and(|cap| links.total_affected() > cap) {
            return (EngineStatus::RejectedByHistory, None);
        }
        let prediction = predict(&self.counters, &links);
        let result = InferenceResult {
            time: now,
            withdrawals_seen: seen,
            links,
            prediction,
        };
        // Two handle copies and a short link list: the prefix sets are shared.
        self.accepted = Some(result.clone());
        (EngineStatus::Accepted, Some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsLink, RouteAttributes, SECOND};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    /// A session RIB with `n` prefixes beyond link (5,6) (half via AS 7, half
    /// via AS 8), plus a few local prefixes.
    fn rib(n: u32) -> Vec<(Prefix, AsPath)> {
        let mut v = Vec::new();
        for i in 0..n {
            let path = if i % 2 == 0 {
                AsPath::new([2u32, 5, 6, 7])
            } else {
                AsPath::new([2u32, 5, 6, 8])
            };
            v.push((p(i), path));
        }
        for i in n..n + 50 {
            v.push((p(i), AsPath::new([2u32, 5])));
        }
        v
    }

    fn small_config() -> InferenceConfig {
        InferenceConfig {
            burst_start_threshold: 100,
            burst_stop_threshold: 2,
            triggering_threshold: 200,
            // Scale the plausibility caps down with the thresholds.
            plausibility_table: vec![(200, 800), (400, 1_600)],
            force_threshold: 1_000,
            ..Default::default()
        }
    }

    /// Processes a whole stream of events, returning every accepted inference
    /// (at most one per burst) in order.
    fn process_all(
        engine: &mut InferenceEngine,
        events: &[ElementaryEvent],
    ) -> Vec<InferenceResult> {
        (events.iter())
            .filter_map(|event| engine.process(event).1)
            .collect()
    }

    fn withdraw_events(count: u32, gap: Timestamp) -> Vec<ElementaryEvent> {
        (0..count)
            .map(|i| ElementaryEvent::Withdraw {
                timestamp: u64::from(i) * gap,
                prefix: p(i),
            })
            .collect()
    }

    #[test]
    fn no_inference_without_a_burst() {
        let table = rib(1_000);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        // 50 withdrawals spread over 50 minutes: never a burst.
        for i in 0..50u64 {
            let ev = ElementaryEvent::Withdraw {
                timestamp: i * 60 * SECOND,
                prefix: p(i as u32),
            };
            let (status, res) = engine.process(&ev);
            assert!(res.is_none());
            assert_eq!(status, EngineStatus::Idle);
        }
        assert!(!engine.in_burst());
    }

    #[test]
    fn burst_triggers_inference_at_threshold() {
        let table = rib(700);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let events = withdraw_events(400, 10_000); // 10 ms apart → clearly a burst
        let results = process_all(&mut engine, &events);
        assert_eq!(results.len(), 1, "exactly one accepted inference per burst");
        let res = &results[0];
        assert_eq!(res.withdrawals_seen, 200, "accepted at the first trigger");
        assert!(res.links.links.contains(&AsLink::new(5, 6)));
        // The prediction covers every prefix beyond the failed link.
        assert_eq!(res.prediction.total_affected(), 700);
        assert!(engine.accepted().is_some());
        assert_eq!(engine.attempts(), 1);
    }

    #[test]
    fn history_model_delays_implausibly_large_predictions() {
        // 2,000 prefixes beyond the failed link but a cap of 800 at the first
        // trigger: the engine must reject the first attempt and accept later
        // (at 400 received, cap 1,600 — still too small — then at the force
        // threshold of 1,000 withdrawals).
        let table = rib(2_000);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let events = withdraw_events(1_200, 10_000);
        let mut statuses = Vec::new();
        let mut results = Vec::new();
        for ev in &events {
            let (status, res) = engine.process(ev);
            statuses.push(status);
            if let Some(r) = res {
                results.push(r);
            }
        }
        assert_eq!(results.len(), 1);
        assert!(
            results[0].withdrawals_seen >= 1_000,
            "accepted only once the force threshold disabled the cap (seen {})",
            results[0].withdrawals_seen
        );
        assert!(statuses.contains(&EngineStatus::RejectedByHistory));
    }

    /// The history model holds its cap against the top link's crossing set
    /// before the greedy chain and against the selected set's own `(W, P)`
    /// before the prediction: a rejected attempt here seeds no aggregate,
    /// runs no kernel pass and materialises no union, and attempts reject and
    /// accept at the same withdrawals as when the cap was held against a
    /// built prediction.
    #[test]
    fn rejected_attempts_build_no_prediction() {
        use EngineStatus::{Accepted, RejectedByHistory};
        let table = rib(2_000);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let mut attempts = Vec::new();
        for (i, ev) in withdraw_events(1_200, 10_000).iter().enumerate() {
            let (status, result) = engine.process(ev);
            if matches!(status, Accepted | RejectedByHistory) {
                assert_eq!(result.is_some(), status == Accepted);
                // Unions materialised into scratch (the greedy chain's seed,
                // and the prediction's if one was built) and fused passes.
                let stats = engine.take_kernel_stats();
                let unions = stats.scratch_reuse + stats.scratch_growth;
                let passes = stats.dense + stats.sparse + stats.mixed;
                attempts.push((i, status, unions, passes));
            }
        }
        assert_eq!(
            attempts,
            vec![
                (199, RejectedByHistory, 0, 0),
                (399, RejectedByHistory, 0, 0),
                (599, RejectedByHistory, 0, 0),
                (799, RejectedByHistory, 0, 0),
                // The seed's union and pass; the three trials are delta
                // counts, and the one-link prediction intersects the link's
                // own crossing set, building no union.
                (999, Accepted, 1, 1),
            ]
        );
        assert_eq!(engine.attempts(), 5, "turned-down attempts still count");
        let accepted = engine.accepted().expect("accepted at the force threshold");
        assert_eq!(accepted.links.total_affected(), 2_000);
        assert_eq!(accepted.prediction.total_affected(), 2_000);
    }

    #[test]
    fn without_history_first_trigger_is_accepted() {
        let table = rib(2_000);
        let config = InferenceConfig {
            use_history: false,
            ..small_config()
        };
        let mut engine = InferenceEngine::new(config, table.iter().map(|(a, b)| (a, b)));
        let events = withdraw_events(400, 10_000);
        let results = process_all(&mut engine, &events);
        assert_eq!(results.len(), 1);
        assert!(results[0].withdrawals_seen <= 250);
    }

    #[test]
    fn force_infer_at_end_of_burst_is_exact() {
        let table = rib(500);
        let mut engine = InferenceEngine::new(
            InferenceConfig::default(),
            table.iter().map(|(a, b)| (a, b)),
        );
        // Deliver the whole burst (all 500 prefixes beyond (5,6) withdrawn).
        for i in 0..500u32 {
            engine.process(&ElementaryEvent::Withdraw {
                timestamp: u64::from(i) * 1_000,
                prefix: p(i),
            });
        }
        let res = engine.force_infer(600_000);
        assert_eq!(res.links.links, vec![AsLink::new(5, 6)]);
        assert!((res.links.score.fs - 1.0).abs() < 1e-9);
        assert_eq!(res.prediction.already_withdrawn.len(), 500);
        assert_eq!(res.prediction.predicted.len(), 0);
    }

    /// `force_infer` must return exactly what the from-scratch reference
    /// (`infer_links` + `predict`) would, whether the ranker hot path (inside
    /// a burst) or the fallback (outside) serves the ranking — checked at
    /// several points of the burst lifecycle.
    #[test]
    fn force_infer_matches_reference_across_burst_lifecycle() {
        use crate::inference::aggregate::infer_links;
        use crate::inference::predictor::predict;
        let table = rib(700);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let check = |engine: &mut InferenceEngine, label: &str| {
            let reference_links = infer_links(engine.counters(), engine.config());
            let reference = predict(engine.counters(), &reference_links);
            let forced = engine.force_infer(42);
            assert_eq!(forced.links, reference_links, "{label}: links");
            assert_eq!(
                forced.prediction.predicted, reference.predicted,
                "{label}: predicted"
            );
            assert_eq!(
                forced.prediction.already_withdrawn, reference.already_withdrawn,
                "{label}: withdrawn"
            );
        };
        check(&mut engine, "fresh engine");
        // A few pre-burst withdrawals (idle state: fallback path).
        for i in 0..10u32 {
            engine.process(&ElementaryEvent::Withdraw {
                timestamp: u64::from(i) * 60 * SECOND,
                prefix: p(i),
            });
        }
        assert!(!engine.in_burst());
        check(&mut engine, "idle with stale withdrawals");
        // Mid-burst (ranker hot path), probed between triggering attempts.
        let burst_start = 3_600 * SECOND;
        for i in 0..350u32 {
            engine.process(&ElementaryEvent::Withdraw {
                timestamp: burst_start + u64::from(i) * 10_000,
                prefix: p(i),
            });
            if i % 90 == 0 {
                check(&mut engine, "mid-burst");
            }
        }
        assert!(engine.in_burst());
        check(&mut engine, "end of stream");
    }

    /// A prediction reads the prefixes it was made over for ever: after the
    /// session interns more than a chunk of never-seen prefixes over the
    /// inferred link, and after its engine is torn down and the session
    /// re-seeded.
    #[test]
    fn a_prediction_outlives_new_prefixes_and_teardown() {
        use swift_bgp::{PrefixList, PrefixSet};
        let table = rib(5_000);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        for ev in withdraw_events(600, 10_000) {
            engine.process(&ev);
        }
        let result = engine.force_infer(6 * SECOND);
        // The prediction by scan over the tracked prefixes, as they are now.
        let crossing = |it: &mut dyn Iterator<Item = (&Prefix, &AsPath)>| -> PrefixSet {
            it.filter(|(_, path)| path.crosses_any(&result.links.links))
                .map(|(q, _)| *q)
                .collect()
        };
        let counters = engine.counters();
        let (withdrawn, routed) = (
            crossing(&mut counters.withdrawn()),
            crossing(&mut counters.routed()),
        );
        let prediction = &result.prediction;
        assert_eq!(result.links.links, [AsLink::new(5, 6)]);
        assert_eq!(
            (
                prediction.already_withdrawn.len(),
                prediction.predicted.len()
            ),
            (result.links.withdrawn, result.links.routed)
        );
        assert_eq!((result.links.withdrawn, result.links.routed), (600, 4_400));
        let fresh = PrefixList::CHUNK as u32 + 100;
        for i in 0..fresh {
            engine.process(&ElementaryEvent::Announce {
                timestamp: 7 * SECOND + u64::from(i),
                prefix: p(100_000 + i),
                attrs: RouteAttributes::from_path(AsPath::new([2u32, 5, 6, 7])),
            });
        }
        assert_eq!(engine.counters().routed_count(), 4_450 + fresh as usize);
        drop(engine);
        let reseeded = InferenceEngine::new(small_config(), rib(300).iter().map(|(a, b)| (a, b)));
        assert_eq!(reseeded.counters().routed_count(), 350);
        assert_eq!(prediction.predicted.prefixes(), &routed);
        assert_eq!(prediction.already_withdrawn.prefixes(), &withdrawn);
        assert!(prediction
            .predicted
            .iter()
            .all(|q| q.addr() < p(5_000).addr()));
    }

    #[test]
    fn announcements_do_not_trigger_inference() {
        let table = rib(1_000);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        for i in 0..500u32 {
            let ev = ElementaryEvent::Announce {
                timestamp: u64::from(i) * 1_000,
                prefix: p(i),
                attrs: RouteAttributes::from_path(AsPath::new([3u32, 6, 7])),
            };
            let (status, res) = engine.process(&ev);
            assert!(res.is_none());
            assert_eq!(status, EngineStatus::Idle);
        }
    }

    #[test]
    fn one_inference_per_burst_even_with_more_triggers() {
        let table = rib(700);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let events = withdraw_events(700, 10_000);
        let results = process_all(&mut engine, &events);
        assert_eq!(results.len(), 1);
        assert_eq!(engine.attempts(), 1);
    }

    #[test]
    fn already_accepted_is_distinct_from_the_accepting_event() {
        let table = rib(700);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let events = withdraw_events(400, 10_000);
        let mut accepted_at = None;
        for (i, ev) in events.iter().enumerate() {
            let (status, res) = engine.process(ev);
            match status {
                EngineStatus::Accepted => {
                    assert!(res.is_some(), "Accepted must carry the result");
                    assert!(accepted_at.is_none(), "only one accepting event");
                    accepted_at = Some(i);
                }
                EngineStatus::AlreadyAccepted => {
                    assert!(res.is_none());
                    assert!(
                        accepted_at.is_some_and(|at| i > at),
                        "AlreadyAccepted only after the accepting event"
                    );
                }
                _ => assert!(res.is_none()),
            }
        }
        let at = accepted_at.expect("an inference was accepted");
        assert_eq!(at, 199, "accepted exactly at the 200-withdrawal trigger");
    }

    /// Regression test for the withdrawal-only burst lifecycle: a second,
    /// separate burst of pure withdrawals must close the first burst, re-seed
    /// the counters and produce its own accepted inference.
    #[test]
    fn two_withdrawal_only_bursts_both_produce_inferences() {
        let table = rib(700);
        let mut engine = InferenceEngine::new(small_config(), table.iter().map(|(a, b)| (a, b)));
        let mut events: Vec<ElementaryEvent> = Vec::new();
        // Burst 1: prefixes 0..300, 10 ms apart.
        for i in 0..300u32 {
            events.push(ElementaryEvent::Withdraw {
                timestamp: u64::from(i) * 10_000,
                prefix: p(i),
            });
        }
        // Two minutes of silence, then burst 2: prefixes 300..600. Not a
        // single announcement in the whole stream.
        let burst2_start = 120 * SECOND;
        for i in 0..300u32 {
            events.push(ElementaryEvent::Withdraw {
                timestamp: burst2_start + u64::from(i) * 10_000,
                prefix: p(300 + i),
            });
        }
        let mut results = Vec::new();
        let mut statuses = Vec::new();
        for ev in &events {
            let (status, res) = engine.process(ev);
            statuses.push(status);
            if let Some(r) = res {
                results.push(r);
            }
        }
        assert_eq!(results.len(), 2, "each burst yields its own inference");
        for res in &results {
            assert_eq!(res.withdrawals_seen, 200, "accepted at the first trigger");
            assert!(res.links.links.contains(&AsLink::new(5, 6)));
        }
        // The gap withdrawal closed the first burst...
        assert_eq!(statuses[300], EngineStatus::Idle, "burst 1 closed by gap");
        // ...and burst 2's counters were re-seeded: its WS comes out of its
        // own 200 withdrawals, not 500 accumulated ones.
        assert!((results[1].links.score.ws - 1.0).abs() < 1e-9);
        assert_eq!(engine.attempts(), 1, "attempt counter reset per burst");
    }

    /// Regression test for per-burst counter seeding: burst 2 hits a disjoint
    /// part of the topology and its inference must not drag in burst 1's
    /// links.
    #[test]
    fn second_burst_is_not_polluted_by_first_burst_counters() {
        let mut table: Vec<(Prefix, AsPath)> = Vec::new();
        for i in 0..300u32 {
            table.push((p(i), AsPath::new([2u32, 5, 6])));
        }
        for i in 300..600u32 {
            table.push((p(i), AsPath::new([2u32, 9, 10])));
        }
        let config = InferenceConfig {
            use_history: false,
            ..small_config()
        };
        let mut engine = InferenceEngine::new(config, table.iter().map(|(a, b)| (a, b)));
        let mut events: Vec<ElementaryEvent> = Vec::new();
        for i in 0..300u32 {
            events.push(ElementaryEvent::Withdraw {
                timestamp: u64::from(i) * 10_000,
                prefix: p(i),
            });
        }
        for i in 0..300u32 {
            events.push(ElementaryEvent::Withdraw {
                timestamp: 300 * SECOND + u64::from(i) * 10_000,
                prefix: p(300 + i),
            });
        }
        let results = process_all(&mut engine, &events);
        assert_eq!(results.len(), 2);
        assert!(results[0].links.links.contains(&AsLink::new(5, 6)));
        let second = &results[1];
        assert!(second.links.links.contains(&AsLink::new(9, 10)));
        assert!(
            second
                .links
                .links
                .iter()
                .all(|l| !l.has_endpoint(swift_bgp::Asn(5)) && !l.has_endpoint(swift_bgp::Asn(6))),
            "burst 1's links leaked into burst 2: {:?}",
            second.links.links
        );
        // W(t) was re-seeded: burst 2's share denominators are its own.
        assert!((second.links.score.ws - 1.0).abs() < 1e-9);
        assert_eq!(second.prediction.total_affected(), 300);
    }

    #[test]
    fn interned_seeding_behaves_identically() {
        let table = rib(700);
        let interned: InternedRib = table.iter().cloned().collect();
        assert_eq!(interned.interner().len(), 3);
        let mut a = InferenceEngine::new(small_config(), table.iter().map(|(x, y)| (x, y)));
        let mut b = InferenceEngine::from_interned(small_config(), &interned);
        let events = withdraw_events(400, 10_000);
        let ra = process_all(&mut a, &events);
        let rb = process_all(&mut b, &events);
        assert_eq!(ra.len(), rb.len());
        assert_eq!(ra[0].links.links, rb[0].links.links);
        assert_eq!(ra[0].withdrawals_seen, rb[0].withdrawals_seen);
        assert_eq!(
            ra[0].prediction.predicted.len(),
            rb[0].prediction.predicted.len()
        );
    }
}
