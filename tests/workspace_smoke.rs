//! Workspace smoke test: asserts the umbrella `swift` crate's re-exports are
//! reachable under their documented paths and that a minimal
//! [`swift::core::SwiftRouter`] round-trip runs — a fast bootstrap check that
//! the crate graph is wired together (manifests, re-exports, visibility)
//! without exercising the heavier end-to-end scenarios.

use swift::bgp::{AsLink, Asn, PeerId, RoutingTable, Timestamp, SECOND};
use swift::core::encoding::ReroutingPolicy;
use swift::core::{InferenceConfig, SwiftConfig, SwiftRouter};
use swift::traces::dataplane::FibCostModel;
use swift::traces::sim::Engine;
use swift::traces::topology::Topology;
use swift::traces::TraceConfig;

#[test]
fn umbrella_reexports_are_reachable() {
    // One value-level touch per re-exported crate or generator module,
    // through the umbrella paths.
    let prefix: swift::bgp::Prefix = "10.0.0.0/8".parse().unwrap();
    assert_eq!(prefix.to_string(), "10.0.0.0/8");

    let topology = Topology::figure1();
    assert!(topology.graph().has_edge(Asn(5), Asn(6)));

    let engine = Engine::new(Topology::figure1());
    assert_eq!(engine.topology().graph().nodes().count(), 8);

    let config = TraceConfig::small();
    assert!(config.table_size > 0);

    let cost = FibCostModel::default();
    assert!(cost.rule_updates(1_000) > 0);

    let one_second: Timestamp = SECOND;
    assert_eq!(one_second, 1_000_000);
}

#[test]
fn minimal_swift_router_round_trip() {
    // An empty router is valid and takes no actions.
    let empty = SwiftRouter::new(
        SwiftConfig::default(),
        RoutingTable::new(),
        ReroutingPolicy::allow_all(),
    );
    assert!(empty.actions().is_empty());

    // The smallest meaningful round-trip: converge the Fig. 1 topology, fail
    // the remote link (5,6), and feed the resulting burst to a SwiftRouter at
    // the vantage AS 1. Thresholds are scaled to the tiny prefix counts.
    let mut engine = Engine::new(Topology::figure1_with_counts(60, 120, 120));
    engine.converge();
    let table = engine.vantage_routing_table(Asn(1));

    engine.monitor_session(Asn(1), Asn(2));
    engine.fail_link(Asn(5), Asn(6));
    let burst = engine.take_burst(AsLink::new(5, 6), 1_000);

    let config = SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 10,
            triggering_threshold: 25,
            use_history: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut router = SwiftRouter::new(config, table, ReroutingPolicy::allow_all());
    let actions = router.handle_stream(PeerId(2), burst.stream.elementary_events());

    // The burst triggers at least one reroute action whose inferred region
    // touches the failed link.
    assert!(!actions.is_empty(), "burst produced no reroute action");
    assert!(actions.iter().any(|a| {
        a.links
            .iter()
            .any(|l| l.has_endpoint(Asn(5)) || l.has_endpoint(Asn(6)))
    }));
}
