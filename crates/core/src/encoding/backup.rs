//! Backup next-hop computation (§5, "Encoding backup next-hops").
//!
//! For every prefix and every protected link of its primary AS path, SWIFT
//! pre-computes the next-hop to use should that link fail. The chosen backup
//! must offer a path that avoids **both endpoints** of the protected link
//! (§4.2 safety rule: the common endpoint of an aggregated inference is not
//! known in advance), must be allowed by the operator's rerouting policy, and
//! among the eligible candidates the policy rank and then the ordinary BGP
//! preference decide.

use crate::encoding::policy::ReroutingPolicy;
use std::collections::BTreeMap;
use swift_bgp::{AsLink, PeerId, Prefix, Route, RoutingTable};

/// The pre-computed next-hops of one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixBackups {
    /// The primary next-hop (the best route's peer).
    pub primary: PeerId,
    /// Backup next-hop per protected position (index 0 ⇒ position 1), `None`
    /// if no eligible alternative exists or the path has no link there.
    pub backups: Vec<Option<PeerId>>,
}

/// Backup next-hops for every prefix of a routing table.
#[derive(Debug, Clone, Default)]
pub struct BackupTable {
    entries: BTreeMap<Prefix, PrefixBackups>,
}

/// Selects the backup next-hop for `prefix` protecting against the failure of
/// `link`, excluding the primary peer and any path visiting either endpoint of
/// `link`.
pub fn select_backup(
    table: &RoutingTable,
    prefix: &Prefix,
    primary: PeerId,
    link: &AsLink,
    policy: &ReroutingPolicy,
) -> Option<PeerId> {
    select_backup_among(table.candidates(prefix), primary, link, policy)
}

/// [`select_backup`] over an already-resolved candidate set — lets a caller
/// that needs several backups of one prefix look the prefix up once.
pub fn select_backup_among<'a>(
    candidates: impl Iterator<Item = &'a Route>,
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

impl BackupTable {
    /// Pre-computes primary and backup next-hops for every prefix of `table`,
    /// protecting the first `max_depth` links of each primary path.
    pub fn compute(table: &RoutingTable, max_depth: usize, policy: &ReroutingPolicy) -> Self {
        let mut entries = BTreeMap::new();
        for (prefix, best) in table.best_routes() {
            let primary = best.peer;
            let path = best.as_path().clone();
            let mut backups = Vec::with_capacity(max_depth);
            for pos in 1..=max_depth {
                let backup = path
                    .link_at_position(pos)
                    .and_then(|link| select_backup(table, prefix, primary, &link, policy));
                backups.push(backup);
            }
            entries.insert(*prefix, PrefixBackups { primary, backups });
        }
        BackupTable { entries }
    }

    /// The entry for `prefix`, if the table knows it.
    pub fn get(&self, prefix: &Prefix) -> Option<&PrefixBackups> {
        self.entries.get(prefix)
    }

    /// Number of prefixes covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no prefix is covered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(prefix, backups)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &PrefixBackups)> {
        self.entries.iter()
    }

    /// Fraction of `(prefix, protected position)` pairs that have a backup,
    /// over the pairs where the primary path actually has a link at that
    /// position. A coverage diagnostic used by the ablation experiments.
    pub fn coverage(&self, table: &RoutingTable) -> f64 {
        let mut have = 0usize;
        let mut want = 0usize;
        for (prefix, entry) in &self.entries {
            let Some(best) = table.best(prefix) else {
                continue;
            };
            for (i, b) in entry.backups.iter().enumerate() {
                if best.as_path().link_at_position(i + 1).is_some() {
                    want += 1;
                    if b.is_some() {
                        have += 1;
                    }
                }
            }
        }
        if want == 0 {
            1.0
        } else {
            have as f64 / want as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsPath, Asn, Route, RouteAttributes};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn route(peer: u32, hops: &[u32]) -> Route {
        Route::new(
            PeerId(peer),
            RouteAttributes::from_path(AsPath::new(hops.iter().copied())),
            0,
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
        for i in 20..30 {
            t.announce(PeerId(2), p(i), route(2, &[2, 5, 6, 8]));
            t.announce(PeerId(4), p(i), route(4, &[4, 5, 6, 8]));
            t.announce(PeerId(3), p(i), route(3, &[3, 6, 8]));
        }
        t
    }

    #[test]
    fn backup_avoids_both_endpoints_of_the_protected_link() {
        let t = fig1_table();
        let policy = ReroutingPolicy::allow_all();
        // Protecting (5,6) for an AS 7 prefix whose primary is peer 2: peer 4's
        // path also crosses (5,6) and peer 3's path visits AS 6, so *no* backup
        // avoids both endpoints.
        let none = select_backup(&t, &p(10), PeerId(2), &AsLink::new(5, 6), &policy);
        assert_eq!(none, None);
        // Protecting (2,5) (position 1): both peer 3 and peer 4 avoid AS 2 and
        // AS 5? Peer 4's path (4 5 6 7) visits AS 5 → only peer 3 qualifies.
        let backup = select_backup(&t, &p(10), PeerId(2), &AsLink::new(2, 5), &policy);
        assert_eq!(backup, Some(PeerId(3)));
        // Protecting (6,7): no alternative avoids AS 6/AS 7 (every path ends
        // there) → none.
        assert_eq!(
            select_backup(&t, &p(10), PeerId(2), &AsLink::new(6, 7), &policy),
            None
        );
    }

    #[test]
    fn policy_forbids_and_reranks_backups() {
        let t = fig1_table();
        // Forbidding peer 3 removes the only endpoint-avoiding backup for (2,5).
        let forbidding = ReroutingPolicy::allow_all().forbid(PeerId(3));
        assert_eq!(
            select_backup(&t, &p(10), PeerId(2), &AsLink::new(2, 5), &forbidding),
            None
        );
        // For an AS 6 prefix protecting (1-hop) link (2,5): candidates are
        // peer 3 (3 6) and peer 4 (4 5 6) — the latter visits AS 5, so peer 3
        // wins regardless of rank. Protecting (5,6): only peer 3 (3 6) avoids
        // both 5 and 6? No — (3 6) visits 6 → None.
        let policy = ReroutingPolicy::allow_all().rank(PeerId(4), -5);
        assert_eq!(
            select_backup(&t, &p(0), PeerId(2), &AsLink::new(2, 5), &policy),
            Some(PeerId(3))
        );
    }

    #[test]
    fn backup_table_structure_matches_paths() {
        let t = fig1_table();
        let bt = BackupTable::compute(&t, 4, &ReroutingPolicy::allow_all());
        assert_eq!(bt.len(), 30);
        assert!(!bt.is_empty());
        // The best route for every prefix is via peer 3 (shortest paths).
        let entry = bt.get(&p(0)).unwrap();
        assert_eq!(entry.primary, PeerId(3));
        // Primary path (3 6): position 1 is link (3,6); a backup must avoid
        // AS 3 and AS 6 — impossible here (all alternates go through 6).
        assert_eq!(entry.backups[0], None);
        // Positions beyond the path length have no backup either.
        assert_eq!(entry.backups[1], None);
        assert_eq!(entry.backups.len(), 4);
        // Coverage is low in this tiny fixture but well-defined.
        let cov = bt.coverage(&t);
        assert!((0.0..=1.0).contains(&cov));
    }

    #[test]
    fn backup_exists_when_a_disjoint_path_is_available() {
        // Add a fourth peer offering a fully disjoint path to AS 8's prefixes.
        let mut t = fig1_table();
        t.add_peer(PeerId(9), Asn(9));
        for i in 20..30 {
            t.announce(PeerId(9), p(i), route(9, &[9, 11, 8]));
        }
        let bt = BackupTable::compute(&t, 4, &ReroutingPolicy::allow_all());
        let entry = bt.get(&p(20)).unwrap();
        // Best is still peer 3 (3 6 8); protecting (3,6) and (6,8) the disjoint
        // (9 11 8) path qualifies... except that (6,8)'s endpoint AS 8 is the
        // origin, which every path must visit, so only (3,6) is protectable.
        assert_eq!(entry.primary, PeerId(3));
        assert_eq!(entry.backups[0], Some(PeerId(9)));
        assert_eq!(
            entry.backups[1], None,
            "origin-adjacent links cannot be avoided"
        );
    }

    #[test]
    fn empty_table_yields_empty_backup_table() {
        let t = RoutingTable::new();
        let bt = BackupTable::compute(&t, 4, &ReroutingPolicy::allow_all());
        assert!(bt.is_empty());
        assert_eq!(bt.coverage(&t), 1.0);
        assert_eq!(bt.iter().count(), 0);
    }
}
