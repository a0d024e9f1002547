//! Ablation experiments called out in DESIGN.md: WS:PS weight ratio, history
//! model gating, and the encoding link-filter / depth parameters.
//!
//! `cargo run -p swift-bench --release --bin exp_ablation`

use swift_bench::{evaluate_burst, evaluate_corpus, pct};
use swift_core::encoding::{ReroutingPolicy, TwoStageTable};
use swift_core::metrics::percentile;
use swift_core::{EncodingConfig, InferenceConfig};
use swift_traces::{Corpus, TraceConfig};

fn corpus() -> Corpus {
    Corpus::generate(TraceConfig {
        num_peers: 15,
        table_size: 20_000,
        bursts_per_peer_mean: 8.0,
        seed: 0xab1a,
        ..TraceConfig::default()
    })
}

fn main() {
    let corpus = corpus();
    println!("Ablation A: WS:PS weight ratio (localisation TPR/FPR medians)\n");
    for (ws, ps) in [(3.0, 1.0), (1.0, 1.0), (1.0, 3.0)] {
        let config = InferenceConfig {
            ws_weight: ws,
            ps_weight: ps,
            ..Default::default()
        };
        let evals = evaluate_corpus(&corpus, &config);
        let tpr: Vec<f64> = evals.iter().map(|e| e.localization.tpr()).collect();
        let fpr: Vec<f64> = evals.iter().map(|e| e.localization.fpr()).collect();
        println!(
            "  wWS:wPS = {}:{} -> median TPR {}, median FPR {}  ({} bursts)",
            ws,
            ps,
            pct(percentile(&tpr, 0.5).unwrap_or(0.0)),
            pct(percentile(&fpr, 0.5).unwrap_or(0.0)),
            evals.len()
        );
    }

    println!("\nAblation B: history model gating (inference delay in withdrawals)\n");
    for (label, config) in [
        ("history on ", InferenceConfig::default()),
        ("history off", InferenceConfig::without_history()),
    ] {
        let evals = evaluate_corpus(&corpus, &config);
        let at: Vec<f64> = evals
            .iter()
            .map(|e| e.withdrawals_at_inference as f64)
            .collect();
        let fpr: Vec<f64> = evals.iter().map(|e| e.localization.fpr()).collect();
        println!(
            "  {label}: {} inferences, median trigger at {:.0} withdrawals, median FPR {}",
            evals.len(),
            percentile(&at, 0.5).unwrap_or(0.0),
            pct(percentile(&fpr, 0.5).unwrap_or(0.0)),
        );
    }

    println!(
        "\nAblation C: encoding link filter and protected depth (mean encoding performance)\n"
    );
    let infer = InferenceConfig::default();
    for min_prefixes in [500usize, 1_500, 5_000] {
        for depth in [3usize, 4] {
            let enc = EncodingConfig {
                min_prefixes_per_link: min_prefixes,
                max_depth: depth,
                ..Default::default()
            };
            let mut perfs = Vec::new();
            for s in 0..corpus.num_sessions().min(6) {
                let session = corpus.materialize_session(s);
                let table = session.routing_table();
                let two_stage = TwoStageTable::build(&table, &enc, &ReroutingPolicy::allow_all());
                for burst in &session.bursts {
                    if let Some(eval) = evaluate_burst(&session, burst, &infer) {
                        perfs.push(two_stage.encoding_performance(
                            &table,
                            &eval.predicted,
                            &eval.links,
                        ));
                    }
                }
            }
            let mean = perfs.iter().sum::<f64>() / perfs.len().max(1) as f64;
            println!(
                "  min prefixes/link {:>5}, depth {} -> mean encoding performance {}",
                min_prefixes,
                depth,
                pct(mean)
            );
        }
    }
}
