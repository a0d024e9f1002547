//! Labelling what a monitored session captured.
//!
//! The simulator routes per origin AS, so a session captures one message per
//! origin. The paper's controlled evaluation (§6.1) records, for every
//! simulated failure, the per-prefix stream of the session together with the
//! failed link; [`label`] expands the capture into that [`LabelledBurst`].

use crate::topology::Topology;
use crate::LabelledBurst;
use swift_bgp::{AsLink, AsPath, Asn, ElementaryEvent, MessageStream, RouteAttributes, Timestamp};

/// A message captured on the monitored session, at origin-AS granularity.
#[derive(Debug, Clone)]
pub(crate) struct Captured {
    /// The origin AS whose destinations the message concerns.
    pub(crate) origin: Asn,
    /// `Some(path)` for an announcement, `None` for an explicit withdrawal.
    pub(crate) path: Option<AsPath>,
}

/// Expands `captured` into one event per prefix the origin originates,
/// paced `gap` microseconds apart from time 0 (withdrawals inside a burst
/// arrive over seconds, not at once). A prefix is withdrawn if its origin was
/// explicitly withdrawn at least once.
pub(crate) fn label(
    captured: &[Captured],
    topology: &Topology,
    failed_link: AsLink,
    gap: Timestamp,
) -> LabelledBurst {
    let mut events = Vec::new();
    let mut withdrawn = Vec::new();
    for cap in captured {
        let prefixes = topology.originated_prefixes(cap.origin);
        for prefix in prefixes {
            let timestamp = events.len() as Timestamp * gap;
            let prefix = *prefix;
            events.push(match &cap.path {
                None => ElementaryEvent::Withdraw { timestamp, prefix },
                Some(path) => ElementaryEvent::Announce {
                    timestamp,
                    prefix,
                    attrs: RouteAttributes::from_path(path.clone()),
                },
            });
        }
        if cap.path.is_none() {
            withdrawn.extend_from_slice(prefixes);
        }
    }
    LabelledBurst {
        failed_link: failed_link.undirected(),
        stream: MessageStream::from_events(events),
        withdrawn: withdrawn.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Engine;
    use swift_bgp::PrefixSet;

    /// The Fig. 1 topology with 3/4/5 prefixes behind AS 6/7/8.
    fn topology() -> Topology {
        Topology::figure1_with_counts(3, 4, 5)
    }

    /// The burst AS 1 sees from AS 2 when (5,6) fails, paced 10 µs apart.
    fn fig1_burst() -> LabelledBurst {
        let mut engine = Engine::new(topology());
        engine.converge();
        engine.monitor_session(Asn(1), Asn(2));
        engine.fail_link(Asn(5), Asn(6));
        engine.take_burst(AsLink::new(6, 5), 10)
    }

    fn prefixes_of(topology: &Topology, origins: &[u32]) -> PrefixSet {
        (origins.iter())
            .flat_map(|o| topology.originated_prefixes(Asn(*o)).iter().copied())
            .collect()
    }

    #[test]
    fn origin_classification() {
        // AS 2 loses every route through (5,6): AS 3 (reached via 5 6 3) and
        // AS 6/7/8. The prefixes of the ASes it still reaches stay.
        let (topo, burst) = (topology(), fig1_burst());
        assert_eq!(burst.withdrawn, prefixes_of(&topo, &[3, 6, 7, 8]));
        assert_eq!(
            burst
                .withdrawn
                .intersection_len(&prefixes_of(&topo, &[1, 2, 4, 5])),
            0
        );
        assert_eq!(burst.failed_link, AsLink::new(5, 6));
    }

    #[test]
    fn expansion_to_prefix_stream() {
        let burst = fig1_burst();
        // 10 prefixes of AS 3, then 3 + 4 + 5, every one withdrawn.
        assert_eq!(burst.stream.total_withdrawals(), 22);
        assert_eq!(burst.stream.total_announcements(), 0);
        assert_eq!(burst.stream.start(), Some(0));
        assert_eq!(burst.stream.end(), Some(21 * 10));

        // An announcement expands per prefix too, and withdraws nothing.
        let topo = topology();
        let captured = [
            Captured {
                origin: Asn(6),
                path: None,
            },
            Captured {
                origin: Asn(7),
                path: Some(AsPath::new([2u32, 5, 3, 6, 7])),
            },
            Captured {
                origin: Asn(8),
                path: None,
            },
        ];
        let burst = label(&captured, &topo, AsLink::new(6, 5), 10);
        assert_eq!(burst.stream.len(), 12);
        assert_eq!(burst.stream.total_withdrawals(), 3 + 5);
        assert_eq!(burst.stream.total_announcements(), 4);
        assert_eq!(burst.stream.end(), Some(11 * 10));
        assert_eq!(burst.withdrawn, prefixes_of(&topo, &[6, 8]));
        assert_eq!(burst.failed_link, AsLink::new(5, 6));
    }

    #[test]
    fn prefix_sets_match_topology_origins() {
        let (topo, burst) = (topology(), fig1_burst());
        assert_eq!(burst.withdrawn.len(), burst.stream.total_withdrawals());
        let withdrawn: PrefixSet = (burst.stream.elementary_events())
            .filter(|e| e.is_withdraw())
            .map(|e| e.prefix())
            .collect();
        assert_eq!(withdrawn, burst.withdrawn);
        for p in topo.originated_prefixes(Asn(6)) {
            assert!(burst.withdrawn.contains(p));
        }
    }
}
