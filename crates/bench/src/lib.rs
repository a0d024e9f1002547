//! # swift-bench
//!
//! Experiment harness regenerating every table and figure of the SWIFT paper's
//! measurement and evaluation sections. Each `exp_*` binary in `src/bin/`
//! prints the rows/series of one paper artefact; the Criterion benches in
//! `benches/` measure the hot paths of the implementation itself.
//!
//! This library hosts the pieces shared by the binaries: the evaluation corpus
//! configuration (a scaled-down but distribution-faithful version of the
//! paper's November-2016 dataset — see `DESIGN.md` and `EXPERIMENTS.md` for the
//! scaling notes) and the per-burst inference evaluation pipeline.

#![warn(clippy::all)]

pub mod harness;

use std::collections::BTreeMap;
use std::sync::Arc;
use swift_bgp::{PeerId, PrefixSet, Timestamp};
use swift_core::inference::InferenceEngine;
use swift_core::metrics::Classification;
use swift_core::{InferenceConfig, RerouteAction};
use swift_traces::{Corpus, MaterializedBurst, SessionTrace, TraceConfig};

/// The per-session projection of a reroute action log: `(time, links,
/// predicted size)` per session, in acceptance order. Per-session
/// subsequences are deterministic across runtime modes while the global
/// interleaving is scheduling-dependent, so this projection is what the
/// concurrency and soak harnesses compare across configurations.
pub fn per_session_decisions(
    actions: &[RerouteAction],
    peers: impl IntoIterator<Item = PeerId>,
) -> BTreeMap<PeerId, Vec<String>> {
    let mut decisions: BTreeMap<PeerId, Vec<String>> =
        peers.into_iter().map(|p| (p, Vec::new())).collect();
    for a in actions {
        if let Some(list) = decisions.get_mut(&a.session) {
            list.push(format!(
                "t={} links={:?} predicted={}",
                a.time,
                a.links,
                a.predicted.len()
            ));
        }
    }
    decisions
}

/// The scaled evaluation corpus used by the trace-driven experiments
/// (Fig. 6, Table 2, Fig. 7, Fig. 8).
///
/// Scaling relative to the paper's dataset (documented in EXPERIMENTS.md):
/// 60 sessions instead of 213, 30k-prefix session tables instead of full
/// Internet tables, burst sizes capped at half the table. Distribution shapes
/// (Pareto tail, rates, head/middle/tail split, popularity) are unchanged.
pub fn eval_trace_config() -> TraceConfig {
    TraceConfig {
        num_peers: 60,
        table_size: 30_000,
        bursts_per_peer_mean: 12.0,
        seed: 0x51f7_2017,
        ..TraceConfig::default()
    }
}

/// The catalog-only corpus used by the Fig. 2 measurements (full 213 peers —
/// the catalog is cheap because nothing is materialised).
pub fn catalog_trace_config() -> TraceConfig {
    TraceConfig {
        num_peers: 213,
        bursts_per_peer_mean: 15.7,
        seed: 0x51f7_2016,
        ..TraceConfig::default()
    }
}

/// The outcome of running the SWIFT inference on one corpus burst.
#[derive(Debug, Clone)]
pub struct BurstEvaluation {
    /// The burst's total withdrawal count (failure-related ones).
    pub burst_size: usize,
    /// Whether an inference was accepted during the burst.
    pub inferred: bool,
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
    pub predicted: Arc<PrefixSet>,
    /// Whether the inferred links are exactly/partly right is evaluated by the
    /// simulation experiment; trace bursts carry their synthetic failed link.
    pub failed_link: swift_bgp::AsLink,
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

    let localization = Classification::from_sets(&predicted_all, &actual, universe);
    let prediction = Classification::from_sets(&predicted_future, &future_actual, universe);
    let correctly_predicted = predicted_future.intersection_len(&future_actual);
    let falsely_predicted = predicted_future.len() - predicted_future.intersection_len(&actual);

    Some(BurstEvaluation {
        burst_size: burst.withdrawn.len(),
        inferred: true,
        withdrawals_at_inference: result.withdrawals_seen,
        inference_delay: result.time.saturating_sub(burst_start),
        localization,
        prediction,
        correctly_predicted,
        falsely_predicted,
        links: result.links.links.clone(),
        predicted: predicted_future,
        failed_link: burst.failed_link,
    })
}

/// Materialises every session of `corpus` and evaluates every burst with the
/// given inference configuration. Sessions are processed one at a time to
/// bound memory.
pub fn evaluate_corpus(corpus: &Corpus, config: &InferenceConfig) -> Vec<BurstEvaluation> {
    let mut out = Vec::new();
    for s in 0..corpus.num_sessions() {
        let session = corpus.materialize_session(s);
        for burst in &session.bursts {
            if let Some(eval) = evaluate_burst(&session, burst, config) {
                out.push(eval);
            }
        }
    }
    out
}

/// The monitored peer id used by `SessionTrace::routing_table`.
pub const MONITORED_PEER: PeerId = PeerId(1);

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn corpus_evaluation_runs_end_to_end() {
        let corpus = Corpus::generate(TraceConfig {
            num_peers: 2,
            table_size: 6_000,
            bursts_per_peer_mean: 2.0,
            ..TraceConfig::small()
        });
        let evals = evaluate_corpus(&corpus, &InferenceConfig::default());
        for e in &evals {
            assert!(e.inferred);
            assert!(e.burst_size > 0);
        }
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.987), "98.7%");
    }
}
