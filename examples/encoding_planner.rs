//! Encoding planner: inspect how SWIFT squeezes a routing table into data-plane
//! tags — bit allocation per AS-path position, backup next-hop coverage, and
//! the wildcard rules a reroute would install (§5 of the paper).
//!
//! Run with: `cargo run --release --example encoding_planner`

use swift::bgp::AsLink;
use swift::core::encoding::{EncodingPlan, ReroutingPolicy, TwoStageTable};
use swift::core::EncodingConfig;
use swift::traces::{Corpus, TraceConfig};

fn main() {
    // Use one synthetic session as the routing table of the SWIFTED router.
    let corpus = Corpus::generate(TraceConfig {
        num_peers: 1,
        table_size: 30_000,
        bursts_per_peer_mean: 1.0,
        seed: 11,
        ..TraceConfig::default()
    });
    let session = corpus.materialize_session(0);
    let table = session.routing_table();
    println!(
        "Routing table: {} prefixes, {} peers\n",
        table.prefix_count(),
        table.peer_count()
    );

    for bits in [13u8, 18, 28] {
        let config = EncodingConfig {
            path_bits: bits,
            ..Default::default()
        };
        let plan = EncodingPlan::from_routing_table(&table, &config);
        println!(
            "path budget {bits:>2} bits -> {:>3} (position, link) codes, {} bits used, per-position bits {:?}",
            plan.total_encoded_links(),
            plan.total_path_bits(),
            plan.bits_per_position()
        );
    }

    let config = EncodingConfig::default();
    let policy = ReroutingPolicy::allow_all();
    let mut two_stage = TwoStageTable::build(&table, &config, &policy);
    println!(
        "\nTwo-stage table: {} stage-1 tags, {} default stage-2 rules",
        two_stage.stage1_len(),
        two_stage.stage2_len()
    );
    println!(
        "Backup next-hop coverage (depth {}): {:.1}% of encoded (prefix, position) pairs carry a backup",
        config.max_depth,
        100.0 * two_stage.backup_coverage()
    );

    // Simulate an inference on the most-used position-1 link.
    let plan = two_stage.plan().clone();
    let busiest: Option<AsLink> = session
        .rib
        .iter()
        .filter_map(|(_, path)| path.link_at_position(1))
        .next();
    if let Some(link) = busiest {
        if plan.encodes(1, &link) {
            let installed = two_stage.install_reroute(&[link]);
            println!(
                "\nRerouting around {link}: {installed} stage-2 rules installed (independent of the {}-prefix table)",
                two_stage.stage1_len()
            );
        } else {
            println!("\nLink {link} is not encoded (too few prefixes) — per-prefix rerouting would be used.");
        }
    }
}
