//! Prefix-range partitioning — the encoding half of applier sharding.
//!
//! The SWIFT install path (inference accepted → stage-2 rules in the data
//! plane) serializes on the forwarding table. But the table's state is *per
//! prefix range*: a reroute's rules depend only on the tags of the prefixes
//! crossing the inferred link (read from each table's backup-in-use index,
//! not by scanning stage 1 — so a partition divides the retag work and the
//! lock, not the install cost), and a session's predicted prefixes all live
//! in its own prefix block (`swift-traces` spaces sessions
//! `SESSION_PREFIX_SPACING` = 65,536 /24-indexes apart, which under
//! `Prefix::nth_slash24` is exactly one /8 of address space). Partitioning
//! the routing state by /8 block therefore makes installs coordination-free:
//! each partition owns its prefixes' routes and tags, its own SWIFT rules and
//! its own claim bookkeeping, and K partitions can install concurrently with
//! no shared locks.
//!
//! What stays global is the *offline-precomputed* state (§5): the encoding
//! plan, tag layout and next-hop index are computed once from the full
//! routing table and cloned verbatim into every partition
//! ([`crate::encoding::TwoStageTable::partition_clone`]), so a prefix's tag —
//! and hence every install's rule bits — is identical to the unpartitioned
//! table's. [`crate::pipeline::partition_appliers`] does the split; this
//! module holds the rule that says which partition a prefix belongs to.

use swift_bgp::Prefix;

/// Maps prefixes onto applier partitions by /8 address block.
///
/// The invariant that makes this sound: a session's prefix space must map
/// wholly into one partition, so that session's installs and claims never
/// straddle partitions. `swift-traces` guarantees it by construction —
/// session k announces prefix indexes `[k·65_536, (k+1)·65_536)`, i.e. one
/// whole /8 under `Prefix::nth_slash24` — so "same /8 → same partition" pins
/// each session to one home partition while spreading sessions round-robin
/// across the K partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixPartitioner {
    partitions: usize,
}

impl PrefixPartitioner {
    /// A partitioner over `partitions` partitions (clamped to at least 1).
    pub fn new(partitions: usize) -> Self {
        PrefixPartitioner {
            partitions: partitions.max(1),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition owning `prefix`: its /8 block folded onto the partition
    /// count. Stable across runs by construction.
    pub fn partition_of(&self, prefix: &Prefix) -> usize {
        (prefix.addr() >> 24) as usize % self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncodingConfig, SwiftConfig};
    use crate::encoding::{ReroutingPolicy, TwoStageTable};
    use crate::pipeline::{partition_appliers, Applier};
    use swift_bgp::{
        AsLink, AsPath, Asn, ElementaryEvent, PeerId, Route, RouteAttributes, RoutingTable,
    };

    /// Prefix `i` of session `s`: one /8 block per session, exactly the
    /// `SESSION_PREFIX_SPACING` layout of `swift-traces`.
    fn p(s: u32, i: u32) -> Prefix {
        Prefix::nth_slash24(s * 65_536 + i)
    }

    fn config() -> SwiftConfig {
        SwiftConfig {
            encoding: EncodingConfig {
                min_prefixes_per_link: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// `sessions` peers, each the preferred route for `n` prefixes in its own
    /// /8 block over its own AS neighbourhood, plus one shared backup peer
    /// whose alternates span *every* block (the cross-partition routing state
    /// the soak corpus also has).
    fn multi_block_table(sessions: u32, n: u32) -> RoutingTable {
        let mut t = RoutingTable::new();
        let backup = PeerId(1_000);
        t.add_peer(backup, Asn(1_000));
        for s in 0..sessions {
            let peer = PeerId(s + 1);
            t.add_peer(peer, Asn(100 + s * 1_000));
            for i in 0..n {
                let base = 100 + s * 1_000;
                let mut attrs =
                    RouteAttributes::from_path(AsPath::new([base, base + 1, base + 10 + i % 3]));
                attrs.local_pref = Some(200);
                t.announce(peer, p(s, i), Route::new(peer, attrs, 0));
                t.announce(
                    backup,
                    p(s, i),
                    Route::new(
                        backup,
                        RouteAttributes::from_path(AsPath::new([1_000u32, 30_000 + i % 7])),
                        0,
                    ),
                );
            }
        }
        t
    }

    /// The single applier and its `k`-way split over the same routing state.
    fn single_and_split(table: &RoutingTable, k: usize) -> (Applier, Vec<Applier>) {
        let policy = ReroutingPolicy::allow_all();
        let single = Applier::new(config(), table.clone(), policy.clone());
        let split = partition_appliers(
            &config(),
            table.clone(),
            &policy,
            &PrefixPartitioner::new(k),
        );
        (single, split)
    }

    /// A partition's forwarding table on its own, with the routing table that
    /// owns it: what installs and by-prefix reads go through.
    fn part(applier: &Applier) -> (TwoStageTable, &RoutingTable) {
        (applier.forwarding().clone(), applier.table())
    }

    #[test]
    fn sessions_map_wholly_into_one_partition() {
        for k in 1..=4usize {
            let part = PrefixPartitioner::new(k);
            assert_eq!(part.partitions(), k);
            for s in 0..6u32 {
                let home = part.partition_of(&p(s, 0));
                for i in [1u32, 7, 65_535] {
                    assert_eq!(
                        part.partition_of(&p(s, i)),
                        home,
                        "session {s} prefix {i} strays from its home partition"
                    );
                }
            }
            // With enough partitions, adjacent sessions land on different ones.
            if k >= 2 {
                assert_ne!(
                    PrefixPartitioner::new(k).partition_of(&p(0, 0)),
                    PrefixPartitioner::new(k).partition_of(&p(1, 0)),
                );
            }
        }
    }

    #[test]
    fn zero_partitions_clamp_to_one() {
        let part = PrefixPartitioner::new(0);
        assert_eq!(part.partitions(), 1);
        assert_eq!(part.partition_of(&p(5, 3)), 0);
    }

    #[test]
    fn partitioned_build_matches_single_table_lookups() {
        let sessions = 3u32;
        let n = 40u32;
        let table = multi_block_table(sessions, n);
        for k in [1usize, 2, 3] {
            let (single, split) = single_and_split(&table, k);
            let partitioner = PrefixPartitioner::new(k);
            let tagged: usize = split.iter().map(|a| a.forwarding().stage1_len()).sum();
            assert_eq!(tagged, single.forwarding().stage1_len(), "k={k}");
            for applier in &split {
                assert_eq!(applier.forwarding().swift_rule_count(), 0);
            }
            for s in 0..sessions {
                for i in 0..n {
                    let prefix = p(s, i);
                    let home = &split[partitioner.partition_of(&prefix)];
                    assert_eq!(
                        home.forwarding().tag_of(home.table(), &prefix),
                        single.forwarding().tag_of(single.table(), &prefix),
                        "k={k}"
                    );
                    assert_eq!(
                        home.forwarding_next_hop(&prefix),
                        single.forwarding_next_hop(&prefix),
                        "k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_install_and_remove_match_single_table() {
        let sessions = 3u32;
        let n = 40u32;
        let table = multi_block_table(sessions, n);
        for k in [1usize, 2, 3] {
            let (single, split) = single_and_split(&table, k);
            let partitioner = PrefixPartitioner::new(k);
            let (mut single, single_table) = part(&single);
            let mut parts: Vec<(TwoStageTable, &RoutingTable)> = split.iter().map(part).collect();
            // Each session infers the first link of its own primary paths.
            let mut ids = Vec::new();
            for s in 0..sessions {
                let base = 100 + s * 1_000;
                let links = [AsLink::new(base, base + 1)];
                let installed_single = single.install_reroute(&links);
                let home = partitioner.partition_of(&p(s, 0));
                let (id, installed_split) = parts[home].0.install_reroute_tracked(&links);
                assert_eq!(installed_split, installed_single, "session {s} k={k}");
                assert!(installed_split >= 1, "the burst must install rules");
                ids.push((home, id));
                // The session's prefixes are redirected to the backup peer.
                let (fw, owner) = &parts[home];
                assert_eq!(fw.lookup(owner, &p(s, 0)), Some(PeerId(1_000)), "k={k}");
                // Other sessions' prefixes are untouched by this install.
                for other in 0..sessions {
                    let other_home = partitioner.partition_of(&p(other, 0));
                    if other != s && !ids.iter().any(|(h, _)| *h == other_home) {
                        let (fw, owner) = &parts[other_home];
                        assert_eq!(fw.lookup(owner, &p(other, 0)), Some(PeerId(other + 1)));
                    }
                }
            }
            let split_rules: usize = parts.iter().map(|(fw, _)| fw.swift_rule_count()).sum();
            assert_eq!(split_rules, single.swift_rule_count(), "k={k}");
            assert_eq!(
                single.lookup(single_table, &p(0, 0)),
                Some(PeerId(1_000)),
                "k={k}"
            );
            // Remove them all: forwarding reverts to the primaries.
            for (s, (home, id)) in ids.into_iter().enumerate() {
                let removed = parts[home].0.remove_reroute(id);
                assert!(removed >= 1, "session {s} k={k}");
                let (fw, owner) = &parts[home];
                assert_eq!(
                    fw.lookup(owner, &p(s as u32, 0)),
                    Some(PeerId(s as u32 + 1))
                );
            }
            for (fw, _) in &parts {
                assert_eq!(fw.swift_rule_count(), 0, "k={k}");
            }
        }
    }

    #[test]
    fn overlapping_claims_stay_within_a_partition() {
        let table = multi_block_table(2, 40);
        let (_, split) = single_and_split(&table, 2);
        let home = PrefixPartitioner::new(2).partition_of(&p(0, 0));
        let (mut fw, owner) = part(&split[home]);
        let links = [AsLink::new(100, 101)];
        let (id_a, installed_a) = fw.install_reroute_tracked(&links);
        assert!(installed_a >= 1);
        let (id_b, installed_b) = fw.install_reroute_tracked(&links);
        assert_eq!(installed_b, 0, "identical rules are claims, not installs");
        assert_eq!(fw.remove_reroute(id_a), 0, "still claimed by b");
        assert_eq!(fw.lookup(owner, &p(0, 0)), Some(PeerId(1_000)));
        assert_eq!(fw.remove_reroute(id_b), installed_a);
        assert_eq!(fw.lookup(owner, &p(0, 0)), Some(PeerId(1)));
        // The sibling partition holds none of the session's tags, so the
        // same inference finds no backup in use there and installs nothing.
        let (mut sibling, _) = part(&split[1 - home]);
        assert_eq!(sibling.install_reroute(&links), 0);
    }

    #[test]
    fn refresh_routes_changes_to_the_home_partition() {
        let table = multi_block_table(2, 40);
        let (mut single, mut split) = single_and_split(&table, 2);
        let partitioner = PrefixPartitioner::new(2);
        // Session 1 withdraws one prefix: after the resync both agree the
        // backup peer is the new best.
        let prefix = p(1, 3);
        let home = partitioner.partition_of(&prefix);
        let withdraw = ElementaryEvent::Withdraw {
            timestamp: 0,
            prefix,
        };
        single.note_event(PeerId(2), &withdraw);
        split[home].note_event(PeerId(2), &withdraw);
        single.resync_after_convergence();
        split[home].resync_after_convergence();
        assert_eq!(
            split[home].forwarding_next_hop(&prefix),
            single.forwarding_next_hop(&prefix)
        );
        assert_eq!(
            split[home].forwarding_next_hop(&prefix),
            Some(PeerId(1_000))
        );
        assert_eq!(
            split[home]
                .forwarding()
                .tag_of(split[home].table(), &prefix),
            single.forwarding().tag_of(single.table(), &prefix)
        );
        // The sibling partition never saw the prefix.
        let other = partitioner.partition_of(&p(0, 0));
        assert_ne!(other, home);
        assert_eq!(split[other].table().prefix_id(&prefix), None);
        assert_eq!(split[other].forwarding_next_hop(&prefix), None);
    }
}
