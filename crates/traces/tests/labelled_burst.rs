//! The invariants every `LabelledBurst` holds, whichever generator made it:
//! one burst of the trace corpus and one of the simulator must each name
//! their failed link in undirected canonical form, carry a time-ordered
//! stream, and withdraw in the stream every prefix they label as withdrawn.

use swift_bgp::{AsLink, Asn, PrefixSet};
use swift_traces::sim::Engine;
use swift_traces::topology::Topology;
use swift_traces::{Corpus, LabelledBurst, TraceConfig};

fn check(burst: &LabelledBurst, producer: &str) {
    assert!(!burst.withdrawn.is_empty(), "{producer}: nothing withdrawn");
    assert_eq!(
        burst.failed_link,
        burst.failed_link.undirected(),
        "{producer}: failed link not canonical"
    );
    let events = burst.stream.events();
    assert!(
        events
            .windows(2)
            .all(|w| w[0].timestamp() <= w[1].timestamp()),
        "{producer}: stream not time-ordered"
    );
    let withdrawals: PrefixSet = events
        .iter()
        .filter(|e| e.is_withdraw())
        .map(|e| e.prefix())
        .collect();
    let missing = burst.withdrawn.iter().find(|p| !withdrawals.contains(p));
    assert_eq!(
        missing, None,
        "{producer}: labelled withdrawn, never withdrawn"
    );
}

#[test]
fn both_generators_label_bursts_alike() {
    let corpus = Corpus::generate(TraceConfig {
        num_peers: 1,
        table_size: 4_000,
        bursts_per_peer_mean: 2.0,
        ..TraceConfig::small()
    });
    let rib = corpus.session_rib(0);
    let meta = &corpus.session_meta(0).bursts[0];
    check(&corpus.materialize_burst(&rib, meta), "corpus");

    let mut engine = Engine::new(Topology::figure1_with_counts(3, 4, 5));
    engine.converge();
    engine.monitor_session(Asn(1), Asn(2));
    engine.fail_link(Asn(6), Asn(5));
    check(&engine.take_burst(AsLink::new(6, 5), 10), "sim");
}
