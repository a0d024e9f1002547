//! Workspace-level integration tests: the full SWIFT pipeline across crates —
//! topology generation → control-plane simulation → inference → encoding →
//! data-plane reroute — on the paper's Fig. 1 scenario and on generated
//! topologies.

use swift::bgp::{AsLink, Asn, PeerId, Prefix, SECOND};
use swift::bgpsim::Engine;
use swift::core::encoding::ReroutingPolicy;
use swift::core::{InferenceConfig, SwiftConfig, SwiftRouter};
use swift::dataplane::{swifted_convergence, vanilla_convergence, FibCostModel};
use swift::topology::{Topology, TopologyConfig};

fn fig1_router_and_burst() -> (
    SwiftRouter,
    Vec<swift::bgp::ElementaryEvent>,
    swift::bgp::PrefixSet,
) {
    let topology = Topology::figure1_with_counts(500, 1_000, 1_000);
    let mut engine = Engine::new(topology);
    engine.converge();
    let mut table = engine.vantage_routing_table(Asn(1));
    // As in the paper's Fig. 1, AS 1 prefers the routes learned from AS 2 for
    // commercial reasons; model that with a higher LOCAL_PREF so the forwarding
    // plane (and therefore the encoding plan) actually uses the (2 5 6 ...)
    // paths the outage will break.
    let boosted: Vec<_> = table
        .adj_rib_in(PeerId(2))
        .unwrap()
        .iter()
        .map(|(p, r)| (*p, r.attrs.clone()))
        .collect();
    for (prefix, attrs) in boosted {
        let attrs = attrs.with_local_pref(200);
        table.announce(
            PeerId(2),
            prefix,
            swift::bgp::Route::new(PeerId(2), attrs, 0),
        );
    }

    let config = SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 100,
            triggering_threshold: 250,
            use_history: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let router = SwiftRouter::new(config, table, ReroutingPolicy::allow_all());

    engine.monitor_session(Asn(1), Asn(2));
    engine.fail_link(Asn(5), Asn(6));
    let burst = engine.take_burst(AsLink::new(5, 6));
    let withdrawn = burst.withdrawn_prefixes(engine.topology());
    let stream = burst.to_message_stream(engine.topology(), 0, 1_000);
    (router, stream.elementary_events().collect(), withdrawn)
}

#[test]
fn fig1_outage_is_inferred_and_rerouted_end_to_end() {
    let (mut router, events, withdrawn) = fig1_router_and_burst();
    let actions = router.handle_stream(PeerId(2), events.iter());
    assert_eq!(actions.len(), 1, "exactly one reroute action for the burst");
    let action = &actions[0];

    // The inferred region covers the failed link (5,6): either the link itself
    // or links sharing an endpoint with it.
    assert!(
        action
            .links
            .iter()
            .any(|l| l.has_endpoint(Asn(5)) || l.has_endpoint(Asn(6))),
        "inferred links {:?} unrelated to the outage",
        action.links
    );

    // Rerouting is prefix-count independent: a handful of rules.
    assert!(action.rules_installed > 0);
    assert!(action.rules_installed <= 16);

    // The prediction covers the majority of the actually-withdrawn prefixes.
    let covered = action.predicted.prefixes().intersection_len(&withdrawn);
    assert!(
        covered * 10 >= withdrawn.len() * 5,
        "only {covered} of {} withdrawn prefixes predicted",
        withdrawn.len()
    );

    // Safety (Lemma 3.3): no rerouted prefix is sent to a next-hop whose path
    // crosses an inferred link.
    let unsafe_set = router.unsafe_reroutes(action.predicted.prefixes(), &action.links);
    assert!(unsafe_set.is_empty());
}

#[test]
fn swift_brings_convergence_under_two_seconds_where_bgp_needs_tens() {
    let (mut router, events, withdrawn) = fig1_router_and_burst();
    let actions = router.handle_stream(PeerId(2), events.iter());
    let action = &actions[0];
    let cost = FibCostModel::default();
    let affected: Vec<Prefix> = withdrawn.iter().copied().collect();

    // Scale the affected set up to the paper's 290k to compare convergence.
    let scaled: Vec<Prefix> = (0..290_000u32).map(Prefix::nth_slash24).collect();
    let vanilla = vanilla_convergence(&scaled, &cost);
    let swifted = swifted_convergence(&scaled, &[], 2_500, action.rules_installed, &cost);
    assert!(vanilla.completion > 100 * SECOND);
    assert!(swifted.completion < 2 * SECOND);
    assert!(1.0 - (swifted.completion as f64 / vanilla.completion as f64) > 0.98);

    // Also holds at the (smaller) actual scale of this test topology.
    let vanilla_small = vanilla_convergence(&affected, &cost);
    assert!(swifted.completion < vanilla_small.completion * 3);
}

#[test]
fn generated_topology_outages_never_produce_unsafe_reroutes() {
    // A sparser-than-average topology so that link failures actually
    // disconnect destinations from some neighbours (dense graphs always have
    // alternates and produce update-only bursts, which SWIFT need not handle).
    let topology = Topology::generate(&TopologyConfig {
        num_ases: 120,
        prefixes_per_as: 8,
        avg_degree: 2.6,
        seed: 42,
        ..Default::default()
    });
    let mut base = Engine::new(topology.clone());
    base.converge();

    // Pick (vantage, neighbour) sessions and fail links that carry many
    // prefixes on that session, so the failure actually produces a burst.
    let mut tested = 0;
    'outer: for vantage_id in (1u32..=120).step_by(3) {
        let vantage = Asn(vantage_id);
        let Some(neighbor) = topology.graph().neighbors(vantage).next() else {
            continue;
        };
        let table_probe = base.vantage_routing_table(vantage);
        let mut counts: Vec<_> = table_probe
            .link_prefix_counts(PeerId(neighbor.value()))
            .into_iter()
            .filter(|(l, c)| *c >= 100 && !l.has_endpoint(vantage) && !l.has_endpoint(neighbor))
            .collect();
        counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        for (link, _) in counts.into_iter().take(3) {
            let link = &link;
            let mut engine = base.clone();
            engine.monitor_session(vantage, neighbor);
            let table = engine.vantage_routing_table(vantage);
            engine.fail_link(link.from, link.to);
            let burst = engine.take_burst(*link);
            if burst.withdrawal_count(engine.topology()) < 20 {
                continue;
            }
            tested += 1;

            let config = SwiftConfig {
                inference: InferenceConfig {
                    burst_start_threshold: 10,
                    triggering_threshold: 20,
                    use_history: false,
                    ..Default::default()
                },
                encoding: swift::core::EncodingConfig {
                    min_prefixes_per_link: 50,
                    ..Default::default()
                },
            };
            let monitored = PeerId(neighbor.value());
            let mut router = SwiftRouter::new(config, table, ReroutingPolicy::allow_all());
            let stream = burst.to_message_stream(engine.topology(), 0, 500);
            let events: Vec<_> = stream.elementary_events().collect();
            let actions = router.handle_stream(monitored, events.iter());
            for action in &actions {
                // Safety (Lemma 3.3) for every prefix that was actually moved
                // to a backup next-hop: the backup's path must not cross any
                // inferred link. Prefixes with no eligible backup keep their
                // primary next-hop (and lose traffic exactly as vanilla BGP
                // would, which the paper accepts); they are not "reroutes".
                let unsafe_set = router.unsafe_reroutes(action.predicted.prefixes(), &action.links);
                let moved_and_unsafe: Vec<_> = unsafe_set
                    .iter()
                    .filter(|p| router.forwarding_next_hop(p) != Some(monitored))
                    .collect();
                assert!(
                    moved_and_unsafe.is_empty(),
                    "unsafe reroute for failure of {link} observed at {vantage}"
                );
            }
            if tested >= 3 {
                break 'outer;
            }
        }
    }
    assert!(tested >= 1, "no failure produced an analysable burst");
}

#[test]
fn umbrella_crate_reexports_are_usable() {
    // Compile-time check that the re-exported paths line up, plus a tiny
    // runtime sanity check across three crates.
    let prefix: swift::bgp::Prefix = "10.0.0.0/8".parse().unwrap();
    assert_eq!(prefix.to_string(), "10.0.0.0/8");
    let topo = Topology::figure1_with_counts(5, 5, 5);
    assert_eq!(topo.num_ases(), 8);
    let cfg = SwiftConfig::default();
    assert_eq!(cfg.encoding.total_bits, 48);
}
