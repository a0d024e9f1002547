//! Remote-outage simulation: generate a 300-AS Internet-like topology, fail a
//! random transit link, and compare how a vanilla router and a SWIFTED router
//! recover — the §6.2.2 / §7 scenario end to end.
//!
//! Run with: `cargo run --release --example remote_outage_sim`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swift::bgp::{PeerId, SECOND};
use swift::core::encoding::ReroutingPolicy;
use swift::core::{InferenceConfig, SwiftConfig, SwiftRouter};
use swift::traces::dataplane::{swifted_convergence, vanilla_convergence, FibCostModel};
use swift::traces::sim::Engine;
use swift::traces::topology::{Topology, TopologyConfig};

fn main() {
    let topology = Topology::generate(&TopologyConfig {
        num_ases: 300,
        prefixes_per_as: 10,
        seed: 2017,
        ..Default::default()
    });
    println!(
        "Generated topology: {} ASes, {} links, avg degree {:.1}, {} prefixes",
        topology.num_ases(),
        topology.links().len(),
        topology.graph().average_degree(),
        topology.total_prefixes()
    );

    let mut engine = Engine::new(topology.clone());
    let stats = engine.converge();
    println!(
        "Initial BGP convergence: {} messages processed",
        stats.messages_processed
    );

    // Pick a vantage AS and a remote transit link whose failure actually
    // withdraws prefixes on the monitored session. At the paper's average
    // degree most links have alternates (failing them yields update-only
    // bursts SWIFT need not handle), so trial-fail heavy candidate links on a
    // scratch engine until one produces a real withdrawal burst.
    let mut rng = StdRng::seed_from_u64(99);
    let (vantage, neighbor, failed) = 'search: loop {
        let vantage = swift::bgp::Asn(rng.gen_range(1..=300u32));
        let neighbors: Vec<_> = topology.graph().neighbors(vantage).collect();
        if neighbors.is_empty() {
            continue;
        }
        let neighbor = neighbors[0];
        let table = engine.vantage_routing_table(vantage);
        let mut heavy: Vec<_> = table
            .link_prefix_counts(PeerId(neighbor.value()))
            .into_iter()
            .filter(|(l, c)| *c >= 100 && !l.has_endpoint(vantage) && !l.has_endpoint(neighbor))
            .collect();
        // Tie-break on the link itself: link_prefix_counts is a HashMap and
        // equal counts are common, so a count-only sort would make the chosen
        // link (and the whole printout) vary across runs despite the seeds.
        heavy.sort_by_key(|(l, c)| (std::cmp::Reverse(*c), *l));
        for (link, _) in heavy.into_iter().take(5) {
            let mut trial = engine.clone();
            trial.monitor_session(vantage, neighbor);
            trial.fail_link(link.from, link.to);
            if trial.take_burst(link, 2_000).withdrawn.len() >= 200 {
                break 'search (vantage, neighbor, link);
            }
        }
    };
    println!("Vantage: {vantage}, monitored session with {neighbor}, failing link {failed}");

    let table = engine.vantage_routing_table(vantage);
    let config = SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 100,
            triggering_threshold: 200,
            use_history: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut router = SwiftRouter::new(config, table, ReroutingPolicy::allow_all());

    engine.monitor_session(vantage, neighbor);
    engine.fail_link(failed.from, failed.to);
    let burst = engine.take_burst(failed, 2_000);
    let (stream, withdrawn) = (burst.stream, burst.withdrawn);
    println!(
        "Burst observed: {} withdrawals / {} updates ({} prefixes withdrawn in total)",
        stream.total_withdrawals(),
        stream.total_announcements(),
        withdrawn.len()
    );

    let actions = router.handle_stream(PeerId(neighbor.value()), stream.elementary_events());
    let cost = FibCostModel::default();
    let affected: Vec<_> = withdrawn.iter().copied().collect();
    let vanilla = vanilla_convergence(&affected, &cost);

    match actions.first() {
        Some(action) => {
            println!(
                "SWIFT inferred {:?}",
                action
                    .links
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
            );
            println!(
                "  (ground truth failed link: {failed}; inference endpoints cover it: {})",
                action
                    .links
                    .iter()
                    .any(|l| l.has_endpoint(failed.from) || l.has_endpoint(failed.to))
            );
            let swifted = swifted_convergence(
                &affected,
                &[],
                router
                    .engine(PeerId(neighbor.value()))
                    .unwrap()
                    .accepted()
                    .unwrap()
                    .withdrawals_seen,
                action.rules_installed,
                &cost,
            );
            println!(
                "Convergence: vanilla BGP {:.2} s vs SWIFTED {:.3} s ({:.1}% faster)",
                vanilla.completion as f64 / SECOND as f64,
                swifted.completion as f64 / SECOND as f64,
                100.0 * (1.0 - swifted.completion as f64 / vanilla.completion.max(1) as f64)
            );
        }
        None => {
            println!(
                "The burst was too small to trigger SWIFT ({} withdrawals); vanilla BGP would take {:.2} s",
                stream.total_withdrawals(),
                vanilla.completion as f64 / SECOND as f64
            );
        }
    }
}
