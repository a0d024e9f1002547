//! Integration tests of the trace-driven evaluation pipeline (corpus →
//! inference → metrics → encoding), mirroring what the experiment binaries do
//! at a scale suitable for CI.

use swift::core::encoding::{ReroutingPolicy, TwoStageTable};
use swift::core::inference::InferenceEngine;
use swift::core::metrics::Classification;
use swift::core::{EncodingConfig, InferenceConfig};
use swift::traces::{extract_bursts, Corpus, ExtractConfig, TraceConfig};

fn test_corpus() -> Corpus {
    Corpus::generate(TraceConfig {
        num_peers: 2,
        table_size: 20_000,
        bursts_per_peer_mean: 8.0,
        seed: 123,
        ..TraceConfig::default()
    })
}

#[test]
fn corpus_bursts_are_detected_by_the_paper_extraction() {
    let corpus = test_corpus();
    let session = corpus.materialize_session(0);
    let mut detected = 0;
    for burst in &session.bursts {
        let extracted = extract_bursts(&burst.stream, &ExtractConfig::default());
        if burst.withdrawn.len() >= 1_500 {
            assert!(
                !extracted.is_empty(),
                "a {}-withdrawal burst was not detected",
                burst.withdrawn.len()
            );
            // The extracted burst covers the bulk of the generated one.
            let biggest = extracted.iter().map(|b| b.withdrawals).max().unwrap();
            assert!(biggest * 10 >= burst.withdrawn.len() * 7);
            detected += 1;
        }
    }
    assert!(detected >= 1);
}

#[test]
fn inference_on_corpus_bursts_is_accurate_and_rarely_wrong() {
    let corpus = test_corpus();
    let config = InferenceConfig::default();
    let mut evaluated = 0;
    let mut good = 0;
    for s in 0..corpus.num_sessions() {
        let session = corpus.materialize_session(s);
        for burst in &session.bursts {
            let mut engine = InferenceEngine::from_interned(config.clone(), &session.rib);
            let mut accepted = None;
            for ev in burst.stream.elementary_events() {
                if let (_, Some(r)) = engine.process(&ev) {
                    accepted = Some(r);
                    break;
                }
            }
            let Some(result) = accepted else { continue };
            evaluated += 1;
            // The inferred links must include the synthetic failed link or a
            // link sharing an endpoint with it (paper: exact or adjacent).
            assert!(
                result.links.links.iter().any(|l| {
                    l.same_undirected(&burst.failed_link)
                        || l.has_endpoint(burst.failed_link.from)
                        || l.has_endpoint(burst.failed_link.to)
                }),
                "inference {:?} unrelated to failed link {}",
                result.links.links,
                burst.failed_link
            );
            let c = Classification::from_sets(
                &result.prediction.affected(),
                &burst.withdrawn,
                session.rib.len(),
            );
            if c.tpr() >= 0.5 && c.fpr() < 0.5 {
                good += 1;
            }
        }
    }
    assert!(evaluated >= 3, "not enough bursts were evaluated");
    assert!(
        good * 10 >= evaluated * 6,
        "only {good}/{evaluated} inferences landed in the good quadrant"
    );
}

#[test]
fn encoding_covers_most_predicted_prefixes_at_18_bits() {
    let corpus = test_corpus();
    let infer_config = InferenceConfig::default();
    let enc = EncodingConfig::default();
    let session = corpus.materialize_session(0);
    let table = session.routing_table();
    let two_stage = TwoStageTable::build(&table, &enc, &ReroutingPolicy::allow_all());
    assert_eq!(two_stage.stage1_len(), table.prefix_count());

    let mut checked = 0;
    for burst in &session.bursts {
        let mut engine = InferenceEngine::from_interned(infer_config.clone(), &session.rib);
        let mut accepted = None;
        for ev in burst.stream.elementary_events() {
            if let (_, Some(r)) = engine.process(&ev) {
                accepted = Some(r);
                break;
            }
        }
        let Some(result) = accepted else { continue };
        let perf = two_stage.encoding_performance(
            &table,
            &result.prediction.predicted,
            &result.links.links,
        );
        // Large bursts come from heavily-used links, which the 18-bit plan
        // encodes; the backup-provisioned fraction of the table bounds the rest.
        if burst.withdrawn.len() >= 2_500 {
            assert!(perf > 0.8, "encoding performance {perf} too low");
            checked += 1;
        }
    }
    assert!(checked >= 1, "no large burst was checked");
}

#[test]
fn corpus_generation_is_reproducible_across_calls() {
    let a = test_corpus();
    let b = test_corpus();
    assert_eq!(a.total_bursts(), b.total_bursts());
    let sa = a.materialize_session(1);
    let sb = b.materialize_session(1);
    assert_eq!(sa.rib, sb.rib);
    assert_eq!(sa.bursts.len(), sb.bursts.len());
    for (x, y) in sa.bursts.iter().zip(sb.bursts.iter()) {
        assert_eq!(x.withdrawn, y.withdrawn);
        assert_eq!(x.failed_link, y.failed_link);
    }
}
