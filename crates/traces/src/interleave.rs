//! Multi-session interleaved streams: the input shape of the sharded runtime.
//!
//! A border router does not see one session's burst at a time — it sees
//! *every* session's updates interleaved on the wire. This module provides:
//!
//! * [`interleave_streams`] — deterministically merges per-session
//!   [`MessageStream`]s into one timestamp-ordered `(peer, event)` stream,
//!   preserving each session's internal order;
//! * [`MultiSessionTrace`] — a synthetic multi-session workload (per-session
//!   Zipf-skewed RIBs, a shared backup provider, one concurrent withdrawal
//!   burst per session). Its table is the vantage router of the benchmark's
//!   `bigtable_inline` and `pathchange_inline` workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, MessageStream, PeerId, Prefix, Route, RouteAttributes,
    RoutingTable, Timestamp, MILLISECOND,
};

/// One event of a merged multi-session stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleavedEvent {
    /// The session the event was received on.
    pub peer: PeerId,
    /// The event.
    pub event: ElementaryEvent,
}

/// Merges per-session message streams into one multi-session event stream,
/// ordered by timestamp with ties broken by peer id — and, within one
/// session, always in that session's original order (the property the
/// sharded runtime's determinism rests on).
pub(crate) fn interleave_streams(streams: &[(PeerId, &MessageStream)]) -> Vec<InterleavedEvent> {
    let mut events: Vec<InterleavedEvent> = Vec::new();
    for (peer, stream) in streams {
        for event in stream.elementary_events() {
            events.push(InterleavedEvent { peer: *peer, event });
        }
    }
    // Stable sort: same-timestamp events of one session keep their order.
    events.sort_by_key(|e| (e.event.timestamp(), e.peer.0));
    events
}

/// Configuration of the synthetic multi-session workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSessionConfig {
    /// Number of peering sessions streaming concurrently.
    pub sessions: usize,
    /// Prefixes announced on each session (total RIB = `sessions ×` this).
    pub prefixes_per_session: usize,
    /// Withdrawals per session's burst. A burst simulates *one* link
    /// failure, so it is capped at the number of prefixes behind the
    /// session's heaviest link (~23 % of the session table under the Zipf-40
    /// skew); the merged stream's length reflects the actual burst sizes.
    pub burst_size: usize,
    /// Spacing between consecutive withdrawals of one session (virtual time).
    pub event_gap: Timestamp,
    /// Fraction of prefixes with an alternate route via the backup provider.
    pub backup_coverage: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiSessionConfig {
    fn default() -> Self {
        MultiSessionConfig {
            sessions: 8,
            prefixes_per_session: 50_000,
            burst_size: 5_000,
            event_gap: MILLISECOND,
            backup_coverage: 0.95,
            seed: 0x5ca1ab1e,
        }
    }
}

/// A synthetic multi-session workload: the vantage router's table and the
/// interleaved event stream of one concurrent burst per session.
#[derive(Debug)]
pub struct MultiSessionTrace {
    /// The vantage router's routing table: one primary session per prefix
    /// block (LOCAL_PREF 200) plus one shared backup provider.
    pub table: RoutingTable,
    /// The merged multi-session event stream, timestamp-ordered.
    pub events: Vec<InterleavedEvent>,
    /// The link whose failure each session's burst simulates.
    pub failed_links: BTreeMap<PeerId, AsLink>,
}

/// The shared backup provider's peer id (outside the session id range).
pub(crate) const BACKUP_PEER: PeerId = PeerId(1_000_000);

impl MultiSessionTrace {
    /// Generates the workload deterministically from `config`.
    ///
    /// Each session's RIB has a realistic link-weight skew: 40 Zipf-weighted
    /// second hops behind the peer (the heaviest carrying roughly a quarter
    /// of the table), an optional third and fourth hop. Each session's burst
    /// withdraws `burst_size` prefixes behind its heaviest link (fewer if
    /// the link carries fewer — see [`MultiSessionConfig::burst_size`]); all
    /// bursts start at time zero, so the merged stream interleaves all
    /// sessions. The table comes sealed ([`RoutingTable::seal`]).
    pub fn generate(config: &MultiSessionConfig) -> Self {
        let mut table = RoutingTable::new();
        let backup_asn = Asn(9_000_000);
        table.add_peer(BACKUP_PEER, backup_asn);
        let mut failed_links = BTreeMap::new();
        let mut streams: Vec<(PeerId, MessageStream)> = Vec::new();

        let second_hops = 40usize;
        let weights: Vec<f64> = (1..=second_hops).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();

        for s in 0..config.sessions {
            let peer = PeerId(s as u32 + 1);
            let peer_asn = Asn(1_000 + s as u32);
            let hop_base = 1_000_000 + s as u32 * 200_000;
            table.add_peer(peer, peer_asn);
            let mut rng = StdRng::seed_from_u64(config.seed ^ (s as u64).wrapping_mul(0x9e37));
            let prefix_base = s as u32 * config.prefixes_per_session as u32;
            let failed = AsLink::new(peer_asn, Asn(hop_base));
            failed_links.insert(peer, failed);

            let mut on_failed: Vec<Prefix> = Vec::new();
            for i in 0..config.prefixes_per_session {
                let prefix = Prefix::nth_slash24(prefix_base + i as u32);
                let u: f64 = rng.gen_range(0.0..1.0);
                let h1 = cumulative.partition_point(|c| *c < u).min(second_hops - 1) as u32;
                let mut hops: Vec<u32> = vec![peer_asn.value(), hop_base + h1];
                if rng.gen_bool(0.8) {
                    hops.push(hop_base + 10_000 + h1 * 8 + rng.gen_range(0..8));
                    if rng.gen_bool(0.4) {
                        hops.push(hop_base + 100_000 + rng.gen_range(0..200));
                    }
                }
                if h1 == 0 && on_failed.len() < config.burst_size {
                    on_failed.push(prefix);
                }
                let mut attrs = RouteAttributes::from_path(AsPath::new(hops));
                attrs.local_pref = Some(200);
                table.announce(peer, prefix, Route::new(peer, attrs));
                if rng.gen_bool(config.backup_coverage) {
                    let alt = AsPath::new([
                        backup_asn.value(),
                        9_100_000 + (prefix_base + i as u32) % 1_000,
                    ]);
                    table.announce(
                        BACKUP_PEER,
                        prefix,
                        Route::new(BACKUP_PEER, RouteAttributes::from_path(alt)),
                    );
                }
            }

            // The session's burst: withdrawals of the prefixes behind the
            // heaviest link, paced `event_gap` apart from time zero.
            let events: Vec<ElementaryEvent> = on_failed
                .iter()
                .enumerate()
                .map(|(k, p)| ElementaryEvent::Withdraw {
                    timestamp: k as u64 * config.event_gap,
                    prefix: *p,
                })
                .collect();
            streams.push((peer, MessageStream::from_events(events)));
        }

        let stream_refs: Vec<(PeerId, &MessageStream)> =
            streams.iter().map(|(p, s)| (*p, s)).collect();
        let events = interleave_streams(&stream_refs);
        table.seal();
        MultiSessionTrace {
            table,
            events,
            failed_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn wd(timestamp: u64, i: u32) -> ElementaryEvent {
        ElementaryEvent::Withdraw {
            timestamp,
            prefix: p(i),
        }
    }

    #[test]
    fn interleaving_is_time_ordered_and_per_session_stable() {
        // Session 1: withdrawals at t = 0, 10, 10, 20 (two ties at 10).
        let s1 = MessageStream::from_events(vec![wd(0, 1), wd(10, 2), wd(10, 3), wd(20, 4)]);
        // Session 2: withdrawals at t = 5, 10.
        let s2 = MessageStream::from_events(vec![wd(5, 5), wd(10, 6)]);
        let merged = interleave_streams(&[(PeerId(1), &s1), (PeerId(2), &s2)]);
        assert_eq!(merged.len(), 6);
        // Global order by (timestamp, peer).
        let times: Vec<u64> = merged.iter().map(|e| e.event.timestamp()).collect();
        assert_eq!(times, vec![0, 5, 10, 10, 10, 20]);
        // Per-session order is each stream's original order.
        let session1: Vec<Prefix> = merged
            .iter()
            .filter(|e| e.peer == PeerId(1))
            .map(|e| e.event.prefix())
            .collect();
        assert_eq!(session1, vec![p(1), p(2), p(3), p(4)]);
        // The t=10 tie puts peer 1's events before peer 2's.
        let at_10: Vec<u32> = merged
            .iter()
            .filter(|e| e.event.timestamp() == 10)
            .map(|e| e.peer.0)
            .collect();
        assert_eq!(at_10, vec![1, 1, 2]);
    }

    #[test]
    fn generated_trace_is_deterministic_and_consistent() {
        let config = MultiSessionConfig {
            sessions: 3,
            prefixes_per_session: 2_000,
            burst_size: 300,
            ..Default::default()
        };
        let a = MultiSessionTrace::generate(&config);
        let b = MultiSessionTrace::generate(&config);
        assert_eq!(a.events, b.events, "generation is deterministic");
        assert_eq!(a.events.len(), 900, "burst_size withdrawals per session");

        // Table shape: one peer per session plus the backup provider.
        assert_eq!(a.table.peer_count(), 4);
        assert_eq!(a.table.prefix_count(), 6_000);

        // Every withdrawn prefix crossed its session's failed link.
        for ev in &a.events {
            let failed = a.failed_links[&ev.peer];
            let rib = a.table.adj_rib_in(ev.peer).unwrap();
            let route = rib.get(&ev.event.prefix()).expect("withdrawn from RIB");
            assert!(route.as_path().crosses_link(&failed));
        }

        // Sessions genuinely interleave: the first 3 × sessions events are
        // not all from one session.
        let head_peers: std::collections::BTreeSet<u32> =
            a.events.iter().take(9).map(|e| e.peer.0).collect();
        assert_eq!(head_peers.len(), 3, "all sessions active from the start");
    }
}
