//! Experiment E7 — Fig. 7 (§6.4): encoding performance (fraction of predicted
//! prefixes reroutable through the pre-provisioned tags) as a function of the
//! number of bits allocated to the AS-path part of the tag.
//!
//! `cargo run -p swift-bench --release --bin exp_fig7`

use swift_bench::{eval_trace_config, evaluate_burst};
use swift_core::encoding::{ReroutingPolicy, TwoStageTable};
use swift_core::metrics::percentile;
use swift_core::{EncodingConfig, InferenceConfig};
use swift_traces::Corpus;

fn main() {
    let corpus = Corpus::generate(eval_trace_config());
    let config = InferenceConfig::default();
    let sessions_to_use = corpus.num_sessions().min(20);
    println!(
        "Fig 7: encoding performance vs AS-path bits ({} sessions sampled)\n",
        sessions_to_use
    );
    println!(
        "{:>6} | {:>10} | {:>10} | {:>10} | {:>10} | {:>12}",
        "bits", "mean", "median", "5th", "95th", "mean (>=10k)"
    );
    println!("{}", "-".repeat(72));

    for bits in [13u8, 18, 23, 28] {
        let enc = EncodingConfig {
            path_bits: bits,
            ..Default::default()
        };
        let mut perfs: Vec<f64> = Vec::new();
        let mut perfs_large: Vec<f64> = Vec::new();
        for s in 0..sessions_to_use {
            let session = corpus.materialize_session(s);
            let table = session.routing_table();
            let two_stage = TwoStageTable::build(&table, &enc, &ReroutingPolicy::allow_all());
            for burst in &session.bursts {
                if let Some(eval) = evaluate_burst(&session, burst, &config) {
                    let perf = two_stage.encoding_performance(&table, &eval.predicted, &eval.links);
                    perfs.push(perf);
                    if eval.burst_size >= 10_000 {
                        perfs_large.push(perf);
                    }
                }
            }
        }
        let mean = perfs.iter().sum::<f64>() / perfs.len().max(1) as f64;
        let mean_large = perfs_large.iter().sum::<f64>() / perfs_large.len().max(1) as f64;
        println!(
            "{:>6} | {:>9.1}% | {:>9.1}% | {:>9.1}% | {:>9.1}% | {:>11.1}%",
            bits,
            100.0 * mean,
            100.0 * percentile(&perfs, 0.5).unwrap_or(0.0),
            100.0 * percentile(&perfs, 0.05).unwrap_or(0.0),
            100.0 * percentile(&perfs, 0.95).unwrap_or(0.0),
            100.0 * mean_large
        );
    }
    println!(
        "\nPaper reference: with 18 bits SWIFT reroutes 98.7% of predicted prefixes (median),"
    );
    println!("73.9% on average over all bursts and 84.0% on average for bursts >= 10k.");
}
