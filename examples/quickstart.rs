//! Quickstart: SWIFT on the paper's Fig. 1 scenario.
//!
//! Builds the AS 1 border router's routing table, replays the burst of
//! withdrawals caused by the failure of link (5,6), and shows SWIFT inferring
//! the outage and rerouting every affected prefix with a handful of rules.
//!
//! Run with: `cargo run --release --example quickstart`

use swift::bgp::{AsLink, Asn, ElementaryEvent, PeerId};
use swift::bgpsim::Engine;
use swift::core::encoding::ReroutingPolicy;
use swift::core::{InferenceConfig, SwiftConfig, SwiftRouter};
use swift::topology::Topology;

fn main() {
    // The Fig. 1 topology: AS 6/7/8 originate 1k/2k/2k prefixes (scaled down
    // from the paper's 1k/10k/10k to keep the example instantaneous).
    let topology = Topology::figure1_with_counts(1_000, 2_000, 2_000);
    let mut engine = Engine::new(topology);
    engine.converge();

    // The SWIFTED router sits in AS 1 and monitors its session with AS 2.
    let vantage = Asn(1);
    let neighbor = Asn(2);
    let table = engine.vantage_routing_table(vantage);
    println!(
        "AS 1 router: {} prefixes over {} sessions",
        table.prefix_count(),
        table.peer_count()
    );

    let config = SwiftConfig {
        inference: InferenceConfig {
            // Scaled-down thresholds to match the example's table size.
            burst_start_threshold: 200,
            triggering_threshold: 500,
            use_history: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut router = SwiftRouter::new(config, table, ReroutingPolicy::allow_all());

    // Fail the remote link (5,6) and capture the burst AS 1 receives from AS 2.
    engine.monitor_session(vantage, neighbor);
    engine.fail_link(Asn(5), Asn(6));
    let burst = engine.take_burst(AsLink::new(5, 6));
    let stream = burst.to_message_stream(engine.topology(), 0, 1_000);
    println!(
        "Burst on session (AS1 <- AS2): {} withdrawals, {} updates",
        stream.total_withdrawals(),
        stream.total_announcements()
    );

    // Replay the burst through the SWIFTED router.
    let events: Vec<ElementaryEvent> = stream.elementary_events().collect();
    let peer = PeerId(neighbor.value());
    let actions = router.handle_stream(peer, events.iter());

    match actions.first() {
        Some(action) => {
            println!(
                "SWIFT inference after {} withdrawals ({} ms into the burst):",
                router
                    .engine(peer)
                    .unwrap()
                    .accepted()
                    .unwrap()
                    .withdrawals_seen,
                action.time / 1_000
            );
            println!(
                "  inferred links: {:?}",
                action
                    .links
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
            );
            println!("  prefixes rerouted: {}", action.predicted.len());
            println!("  data-plane rules installed: {}", action.rules_installed);
            // An inference may predict no prefix that is still routed.
            if let Some(sample) = action.predicted.iter().next() {
                println!(
                    "  e.g. {} now forwarded via {:?}",
                    sample,
                    router.forwarding_next_hop(sample)
                );
            }
        }
        None => println!("no inference was triggered (burst too small?)"),
    }
}
