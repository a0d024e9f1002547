//! Capturing BGP message streams on a monitored session, with ground truth.
//!
//! The paper's controlled evaluation (§6.1) records, for every simulated link
//! failure, the stream of BGP messages seen on each session together with the
//! identity of the failed link. [`GroundTruthBurst`] is that record: the
//! per-origin messages captured on the monitored (vantage ← neighbour) session,
//! expandable into the per-prefix [`MessageStream`] the SWIFT algorithms
//! consume, plus the ground-truth failed link and affected prefix set.

use std::collections::BTreeSet;
use swift_bgp::{
    AsLink, AsPath, Asn, BgpMessage, MessageStream, PrefixSet, RouteAttributes, Timestamp,
};
use swift_topology::Topology;

/// A message captured on the monitored session, still at origin-AS granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedMessage {
    /// The origin AS whose destinations this message concerns.
    pub origin: Asn,
    /// `Some(path)` for an announcement (implicit withdrawal of the previous
    /// path), `None` for an explicit withdrawal.
    pub path: Option<AsPath>,
}

impl CapturedMessage {
    /// Returns `true` if this is an explicit withdrawal.
    pub fn is_withdraw(&self) -> bool {
        self.path.is_none()
    }
}

/// The stream captured on a monitored session during one failure event,
/// together with the ground truth needed to score SWIFT's inferences.
#[derive(Debug, Clone)]
pub struct GroundTruthBurst {
    /// The AS hosting the SWIFTED router (the vantage point).
    pub vantage: Asn,
    /// The neighbour whose session was monitored.
    pub neighbor: Asn,
    /// The link whose failure triggered the burst (undirected canonical form).
    pub failed_link: AsLink,
    /// Captured messages in reception order (origin-AS granularity).
    pub captured: Vec<CapturedMessage>,
}

impl GroundTruthBurst {
    /// Origins explicitly withdrawn at least once during the burst.
    pub fn withdrawn_origins(&self) -> BTreeSet<Asn> {
        self.captured
            .iter()
            .filter(|c| c.is_withdraw())
            .map(|c| c.origin)
            .collect()
    }

    /// Number of captured messages at origin granularity.
    pub fn len(&self) -> usize {
        self.captured.len()
    }

    /// Returns `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.captured.is_empty()
    }

    /// Expands the burst into a per-prefix [`MessageStream`].
    ///
    /// Each captured origin-level message becomes one message per prefix
    /// originated by that AS; messages are paced `gap` microseconds apart
    /// starting at `start`, mimicking the per-prefix arrival the paper observes
    /// (withdrawals inside a burst arrive over seconds, not at once).
    pub fn to_message_stream(
        &self,
        topology: &Topology,
        start: Timestamp,
        gap: Timestamp,
    ) -> MessageStream {
        let mut messages = Vec::new();
        let mut t = start;
        for cap in &self.captured {
            for prefix in topology.originated_prefixes(cap.origin) {
                let msg = match &cap.path {
                    None => BgpMessage::withdraw(t, *prefix),
                    Some(path) => {
                        BgpMessage::announce(t, *prefix, RouteAttributes::from_path(path.clone()))
                    }
                };
                messages.push(msg);
                t += gap;
            }
        }
        MessageStream::from_messages(messages)
    }

    /// The set of prefixes withdrawn during the burst (the paper's "positives"
    /// for the localisation accuracy metrics, §6.2.1).
    pub fn withdrawn_prefixes(&self, topology: &Topology) -> PrefixSet {
        self.withdrawn_origins()
            .into_iter()
            .flat_map(|o| topology.originated_prefixes(o).iter().copied())
            .collect()
    }

    /// Total number of per-prefix withdrawals the burst expands to.
    pub fn withdrawal_count(&self, topology: &Topology) -> usize {
        self.captured
            .iter()
            .filter(|c| c.is_withdraw())
            .map(|c| topology.originated_prefixes(c.origin).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst() -> (Topology, GroundTruthBurst) {
        let topo = Topology::figure1_with_counts(3, 4, 5);
        let b = GroundTruthBurst {
            vantage: Asn(1),
            neighbor: Asn(2),
            failed_link: AsLink::new(5, 6),
            captured: vec![
                CapturedMessage {
                    origin: Asn(6),
                    path: None,
                },
                CapturedMessage {
                    origin: Asn(7),
                    path: Some(AsPath::new([2u32, 5, 3, 6, 7])),
                },
                CapturedMessage {
                    origin: Asn(8),
                    path: None,
                },
            ],
        };
        (topo, b)
    }

    #[test]
    fn origin_classification() {
        let (_, b) = burst();
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(
            b.withdrawn_origins(),
            [Asn(6), Asn(8)].into_iter().collect()
        );
        let updated: Vec<Asn> = (b.captured.iter())
            .filter(|c| !c.is_withdraw())
            .map(|c| c.origin)
            .collect();
        assert_eq!(updated, [Asn(7)]);
    }

    #[test]
    fn expansion_to_prefix_stream() {
        let (topo, b) = burst();
        let stream = b.to_message_stream(&topo, 1_000, 10);
        // 3 + 4 + 5 prefixes expanded.
        assert_eq!(stream.len(), 12);
        assert_eq!(stream.total_withdrawals(), 3 + 5);
        assert_eq!(stream.total_announcements(), 4);
        assert_eq!(stream.start(), Some(1_000));
        assert_eq!(stream.end(), Some(1_000 + 11 * 10));
        assert_eq!(b.withdrawal_count(&topo), 8);
    }

    #[test]
    fn prefix_sets_match_topology_origins() {
        let (topo, b) = burst();
        let withdrawn = b.withdrawn_prefixes(&topo);
        let updated: PrefixSet = (b.captured.iter())
            .filter(|c| !c.is_withdraw())
            .flat_map(|c| topo.originated_prefixes(c.origin).iter().copied())
            .collect();
        assert_eq!(withdrawn.len(), 8);
        assert_eq!(updated.len(), 4);
        assert_eq!(withdrawn.intersection_len(&updated), 0);
        for p in topo.originated_prefixes(Asn(6)) {
            assert!(withdrawn.contains(p));
        }
    }
}
