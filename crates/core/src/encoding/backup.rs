//! Backup next-hop selection (§5, "Encoding backup next-hops").
//!
//! For every prefix and every protected link of its primary AS path, SWIFT
//! pre-computes the next-hop to use should that link fail. The chosen backup
//! must offer a path that avoids **both endpoints** of the protected link
//! (§4.2 safety rule: the common endpoint of an aggregated inference is not
//! known in advance), must be allowed by the operator's rerouting policy, and
//! among the eligible candidates the policy rank and then the ordinary BGP
//! preference decide.
//!
//! The forwarding table's retag is the one caller: it stores the choice for
//! each encoded position in the prefix's stage-1 tag
//! ([`crate::encoding::TwoStageTable`]), where the data plane reads it.

use crate::encoding::policy::ReroutingPolicy;
use swift_bgp::{AsLink, PeerId, RouteRef};

/// Selects, among one prefix's candidate routes, the backup next-hop
/// protecting against the failure of `link`: the primary peer and any path
/// visiting either endpoint of `link` are excluded.
pub fn select_backup_among<'a>(
    candidates: impl Iterator<Item = RouteRef<'a>>,
    primary: PeerId,
    link: &AsLink,
    policy: &ReroutingPolicy,
) -> Option<PeerId> {
    candidates
        .filter(|r| r.peer != primary)
        .filter(|r| policy.allows(r.peer))
        .filter(|r| !r.as_path().visits_endpoint_of(link))
        .max_by(|a, b| {
            // Lower policy rank preferred, then the standard BGP preference.
            policy
                .rank_of(b.peer)
                .cmp(&policy.rank_of(a.peer))
                .then_with(|| a.compare_preference(b))
        })
        .map(|r| r.peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsPath, Asn, Prefix, Route, RouteAttributes, RoutingTable};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn route(peer: u32, hops: &[u32]) -> Route {
        Route::new(
            PeerId(peer),
            RouteAttributes::from_path(AsPath::new(hops.iter().copied())),
        )
    }

    /// The Fig. 1 routing table as seen by AS 1 (peers 2, 3, 4).
    fn fig1_table() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.add_peer(PeerId(2), Asn(2));
        t.add_peer(PeerId(3), Asn(3));
        t.add_peer(PeerId(4), Asn(4));
        for i in 0..10 {
            t.announce(PeerId(2), p(i), route(2, &[2, 5, 6]));
            t.announce(PeerId(4), p(i), route(4, &[4, 5, 6]));
            t.announce(PeerId(3), p(i), route(3, &[3, 6]));
        }
        for i in 10..20 {
            t.announce(PeerId(2), p(i), route(2, &[2, 5, 6, 7]));
            t.announce(PeerId(4), p(i), route(4, &[4, 5, 6, 7]));
            t.announce(PeerId(3), p(i), route(3, &[3, 6, 7]));
        }
        t
    }

    /// The backup of `prefix`'s candidates in `t`.
    fn select(
        t: &RoutingTable,
        prefix: Prefix,
        link: AsLink,
        policy: &ReroutingPolicy,
    ) -> Option<PeerId> {
        select_backup_among(t.candidates(&prefix), PeerId(2), &link, policy)
    }

    #[test]
    fn backup_avoids_both_endpoints_of_the_protected_link() {
        let t = fig1_table();
        let policy = ReroutingPolicy::allow_all();
        // Protecting (5,6) for an AS 7 prefix whose primary is peer 2: peer 4's
        // path also crosses (5,6) and peer 3's path visits AS 6, so *no* backup
        // avoids both endpoints.
        assert_eq!(select(&t, p(10), AsLink::new(5, 6), &policy), None);
        // Protecting (2,5) (position 1): both peer 3 and peer 4 avoid AS 2 and
        // AS 5? Peer 4's path (4 5 6 7) visits AS 5 → only peer 3 qualifies.
        let backup = select(&t, p(10), AsLink::new(2, 5), &policy);
        assert_eq!(backup, Some(PeerId(3)));
        // Protecting (6,7): no alternative avoids AS 6/AS 7 (every path ends
        // there) → none.
        assert_eq!(select(&t, p(10), AsLink::new(6, 7), &policy), None);
    }

    #[test]
    fn policy_forbids_and_reranks_backups() {
        let t = fig1_table();
        // Forbidding peer 3 removes the only endpoint-avoiding backup for (2,5).
        let forbidding = ReroutingPolicy::allow_all().forbid(PeerId(3));
        assert_eq!(select(&t, p(10), AsLink::new(2, 5), &forbidding), None);
        // For an AS 6 prefix protecting (1-hop) link (2,5): candidates are
        // peer 3 (3 6) and peer 4 (4 5 6) — the latter visits AS 5, so peer 3
        // wins regardless of rank. Protecting (5,6): only peer 3 (3 6) avoids
        // both 5 and 6? No — (3 6) visits 6 → None.
        let policy = ReroutingPolicy::allow_all().rank(PeerId(4), -5);
        assert_eq!(
            select(&t, p(0), AsLink::new(2, 5), &policy),
            Some(PeerId(3))
        );
    }
}
