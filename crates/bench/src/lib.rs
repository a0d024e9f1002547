//! # swift-bench
//!
//! The SWIFT paper's measurement and evaluation artefacts as records
//! ([`eval`], driven by `swift-bench eval [artefact…]` and pinned by
//! `tests/eval.rs`) and the per-burst inference evaluation they share. The
//! implementation's own speed is measured end to end by the repo benchmark
//! (`benchmark/`), whose `--trace 1` metrics time each layer.

pub mod eval;

use swift_bgp::{PrefixSet, Timestamp};
use swift_core::inference::InferenceEngine;
use swift_core::metrics::Classification;
use swift_core::{InferenceConfig, PrefixSnapshot};
use swift_traces::{MaterializedBurst, SessionTrace};

/// The outcome of running the SWIFT inference on one corpus burst.
#[derive(Debug, Clone)]
pub struct BurstEvaluation {
    /// The burst's total withdrawal count (failure-related ones).
    pub burst_size: usize,
    /// Withdrawals received when the inference was accepted.
    pub withdrawals_at_inference: usize,
    /// Time (relative to burst start) when the inference was accepted.
    pub inference_delay: Timestamp,
    /// Localisation accuracy: predicted-affected vs actually-withdrawn over
    /// the whole burst (the Fig. 6 classification).
    pub localization: Classification,
    /// Prediction accuracy: predicted vs withdrawals arriving *after* the
    /// inference (the Table 2 classification; CPR = its TPR).
    pub prediction: Classification,
    /// Number of correctly predicted future withdrawals (Table 2's CP).
    pub correctly_predicted: usize,
    /// Number of prefixes predicted but never withdrawn (Table 2's FP).
    pub falsely_predicted: usize,
    /// The inferred links.
    pub links: Vec<swift_bgp::AsLink>,
    /// The predicted prefix set (for the encoding experiments), shared with
    /// the inference result.
    pub predicted: PrefixSnapshot,
}

/// Runs the SWIFT inference engine over one materialised burst of a session.
///
/// The engine is seeded with the session's Adj-RIB-In; the burst's messages
/// are replayed in order. Returns `None` if the burst never triggered burst
/// detection (too small for the configured thresholds).
pub fn evaluate_burst(
    session: &SessionTrace,
    burst: &MaterializedBurst,
    config: &InferenceConfig,
) -> Option<BurstEvaluation> {
    // Seeding shares the trace's interned path storage — no per-prefix clones.
    let mut engine = InferenceEngine::from_interned(config.clone(), &session.rib);
    let events: Vec<_> = burst.stream.elementary_events().collect();
    let burst_start = burst.stream.start().unwrap_or(0);

    let mut accepted = None;
    for ev in &events {
        if let (_, Some(result)) = engine.process(ev) {
            accepted = Some(result);
            break;
        }
    }
    let result = accepted?;

    // Ground truth: the prefixes withdrawn (because of the failure) over the
    // whole burst, and those withdrawn after the inference time.
    let universe = session.rib.len();
    let actual: PrefixSet = burst.withdrawn.clone();
    let future_actual: PrefixSet = burst
        .stream
        .elementary_events()
        .filter(|e| e.is_withdraw() && e.timestamp() > result.time)
        .map(|e| e.prefix())
        .filter(|p| burst.withdrawn.contains(p))
        .collect();

    let predicted_all = result.prediction.affected();
    let predicted_future = result.prediction.predicted.clone();

    let future = predicted_future.prefixes();

    let localization = Classification::from_sets(&predicted_all, &actual, universe);
    let prediction = Classification::from_sets(future, &future_actual, universe);
    let correctly_predicted = future.intersection_len(&future_actual);
    let falsely_predicted = future.len() - future.intersection_len(&actual);

    Some(BurstEvaluation {
        burst_size: burst.withdrawn.len(),
        withdrawals_at_inference: result.withdrawals_seen,
        inference_delay: result.time.saturating_sub(burst_start),
        localization,
        prediction,
        correctly_predicted,
        falsely_predicted,
        links: result.links.links.clone(),
        predicted: predicted_future,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_traces::{Corpus, TraceConfig};

    #[test]
    fn evaluate_burst_produces_consistent_metrics() {
        let corpus = Corpus::generate(TraceConfig {
            num_peers: 1,
            table_size: 8_000,
            bursts_per_peer_mean: 3.0,
            ..TraceConfig::small()
        });
        let session = corpus.materialize_session(0);
        // Scale the trigger down with the (small) test corpus so that every
        // catalogued burst is large enough to produce an inference.
        let config = InferenceConfig {
            burst_start_threshold: 500,
            triggering_threshold: 1_000,
            ..Default::default()
        };
        let mut evaluated = 0;
        for burst in &session.bursts {
            if let Some(eval) = evaluate_burst(&session, burst, &config) {
                evaluated += 1;
                assert!(eval.withdrawals_at_inference >= 1_000);
                assert!(!eval.links.is_empty());
                // TPR of the localisation should be high: the inferred links
                // are chosen from the withdrawn prefixes' paths.
                assert!(eval.localization.tpr() > 0.5);
                // The prediction never exceeds the universe.
                assert!(eval.predicted.len() <= session.rib.len());
                assert!(eval.correctly_predicted <= eval.predicted.len());
            }
        }
        // At least one burst in the session is large enough to be evaluated.
        assert!(evaluated >= 1, "no burst evaluated");
    }
}
