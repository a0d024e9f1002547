//! Experiment E5 — §6.2.2 / §6.3.2: ground-truth validation of the inference
//! algorithm on bursts generated by the control-plane simulator, with and
//! without injected BGP noise.
//!
//! `cargo run -p swift-bench --release --bin exp_sim_validation`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swift_bench::pct;
use swift_bgp::{AsLink, Asn, PeerId, Prefix, PrefixSet};
use swift_bgpsim::Engine;
use swift_core::inference::InferenceEngine;
use swift_core::metrics::Classification;
use swift_core::InferenceConfig;
use swift_topology::{Topology, TopologyConfig};

#[derive(Default)]
struct Tally {
    exact: usize,
    superset: usize,
    adjacent: usize,
    wrong: usize,
    safe_backup: usize,
    total: usize,
    cpr: Vec<f64>,
    fpr: Vec<f64>,
}

fn classify(tally: &mut Tally, inferred: &[AsLink], failed: &AsLink) {
    tally.total += 1;
    let contains = inferred.iter().any(|l| l.same_undirected(failed));
    let adjacent = inferred
        .iter()
        .all(|l| l.has_endpoint(failed.from) || l.has_endpoint(failed.to));
    if contains && inferred.len() == 1 {
        tally.exact += 1;
    } else if contains {
        tally.superset += 1;
    } else if adjacent && !inferred.is_empty() {
        tally.adjacent += 1;
    } else {
        tally.wrong += 1;
    }
    // Safety: backups avoid every endpoint of every inferred link; that also
    // avoids the failed link iff one of its endpoints is among them.
    let endpoints: Vec<Asn> = inferred.iter().flat_map(|l| [l.from, l.to]).collect();
    if endpoints.contains(&failed.from) || endpoints.contains(&failed.to) {
        tally.safe_backup += 1;
    }
}

fn print_tally(label: &str, t: &Tally) {
    println!("{label} ({} bursts):", t.total);
    let f = |x: usize| pct(x as f64 / t.total.max(1) as f64);
    println!("  exact link identified:        {}", f(t.exact));
    println!("  superset containing the link: {}", f(t.superset));
    println!("  adjacent link(s) only:        {}", f(t.adjacent));
    println!("  wrong inference:              {}", f(t.wrong));
    println!("  backup avoids the failed link:{}", f(t.safe_backup));
    if !t.cpr.is_empty() {
        let med = |v: &Vec<f64>| swift_core::metrics::percentile(v, 0.5).unwrap_or(0.0);
        println!(
            "  prediction: median CPR {}, median FPR {}",
            pct(med(&t.cpr)),
            pct(med(&t.fpr))
        );
    }
    println!();
}

fn main() {
    let topo_config = TopologyConfig {
        num_ases: 400,
        prefixes_per_as: 10,
        seed: 0x5117,
        ..Default::default()
    };
    let topology = Topology::generate(&topo_config);
    println!(
        "Simulation validation: {}-AS hyperbolic topology (avg degree {:.1}), {} prefixes total\n",
        topology.num_ases(),
        topology.graph().average_degree(),
        topology.total_prefixes()
    );
    let mut base = Engine::new(topology.clone());
    base.converge();

    let links = topology.links();
    let mut rng = StdRng::seed_from_u64(7);
    let trials = 60usize;
    let noise_levels = [0usize, 200];
    let early_threshold = 200usize;

    for noise in noise_levels {
        let mut at_end = Tally::default();
        let mut early = Tally::default();
        let mut done = 0usize;
        let mut attempts = 0usize;
        while done < trials && attempts < trials * 10 {
            attempts += 1;
            // Pick a vantage/neighbour session, then fail a link that carries
            // enough prefixes on that session to produce an analysable burst.
            let vantage = Asn(rng.gen_range(1..=topo_config.num_ases as u32));
            let neighbors: Vec<Asn> = topology.graph().neighbors(vantage).collect();
            if neighbors.is_empty() {
                continue;
            }
            let neighbor = neighbors[rng.gen_range(0..neighbors.len())];
            let mut engine = base.clone();
            engine.monitor_session(vantage, neighbor);
            // Session RIB before the failure.
            let table = engine.vantage_routing_table(vantage);
            let peer = PeerId(neighbor.value());
            let Some(rib) = table.adj_rib_in(peer) else {
                continue;
            };
            if rib.is_empty() {
                continue;
            }
            let mut heavy: Vec<(swift_bgp::AsLink, usize)> = table
                .link_prefix_counts(peer)
                .into_iter()
                .filter(|(l, c)| {
                    *c >= early_threshold && !l.has_endpoint(vantage) && !l.has_endpoint(neighbor)
                })
                .collect();
            if heavy.is_empty() {
                continue;
            }
            heavy.sort();
            let link = heavy[rng.gen_range(0..heavy.len())].0;
            let _ = &links;
            engine.fail_link(link.from, link.to);
            let burst = engine.take_burst(link);
            if burst.withdrawal_count(&topology) < early_threshold {
                continue;
            }
            done += 1;

            let mut stream = burst.to_message_stream(&topology, 0, 1_000);
            if noise > 0 {
                // Withdrawals of prefixes unrelated to the failure.
                let unaffected: Vec<Prefix> = rib
                    .iter()
                    .filter(|(_, r)| !r.as_path().crosses_link_undirected(&link))
                    .map(|(p, _)| *p)
                    .collect();
                let mut extra = Vec::new();
                for (k, p) in unaffected.iter().take(noise).enumerate() {
                    extra.push(swift_bgp::BgpMessage::withdraw(
                        (k as u64) * 2_000 + 500,
                        *p,
                    ));
                }
                stream = stream.merge(&swift_bgp::MessageStream::from_messages(extra));
            }

            let withdrawn = burst.withdrawn_prefixes(&topology);
            let universe = rib.len();

            // Early inference: after `early_threshold` withdrawals.
            let mut ie = InferenceEngine::new(
                InferenceConfig::default(),
                rib.iter().map(|(p, r)| (p, &r.attrs.as_path)),
            );
            let mut seen = 0usize;
            let mut early_result = None;
            for ev in stream.elementary_events() {
                ie.process(&ev);
                if ev.is_withdraw() {
                    seen += 1;
                    if seen == early_threshold {
                        early_result = Some(ie.force_infer(ev.timestamp()));
                    }
                }
            }
            let end_result = Some(ie.force_infer(stream.end().unwrap_or(0)));

            if let Some(res) = &early_result {
                classify(&mut early, &res.links.links, &link);
                let future: PrefixSet = withdrawn
                    .iter()
                    .filter(|p| !res.prediction.already_withdrawn.contains(p))
                    .copied()
                    .collect();
                let c = Classification::from_sets(&res.prediction.predicted, &future, universe);
                early.cpr.push(c.tpr());
                early.fpr.push(c.fpr());
            }
            if let Some(res) = &end_result {
                classify(&mut at_end, &res.links.links, &link);
            }
        }
        println!("=== Noise level: {noise} unrelated withdrawals per burst ===\n");
        print_tally("Inference at the END of the burst", &at_end);
        print_tally(
            &format!("Inference after {early_threshold} withdrawals"),
            &early,
        );
    }
    println!(
        "Paper reference: at the end of the burst the inference always contains the failed link;"
    );
    println!("after 200 withdrawals the backup avoids the failed link for all bursts but one;");
    println!("with noise, 91% exact / 9% superset at the end of the burst; early CPR median 88% (no noise).");
}
