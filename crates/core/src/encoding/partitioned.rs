//! Prefix-range partitioning of the two-stage table — the encoding half of
//! applier sharding.
//!
//! The SWIFT install path (inference accepted → stage-2 rules in the data
//! plane) serializes on the forwarding table. But the table's state is *per
//! prefix range*: a reroute's rules depend only on the tags of the prefixes
//! crossing the inferred link (read from each table's backup-in-use index,
//! no longer by scanning stage 1 — so a partition divides the retag work and
//! the lock, not the install cost), and a session's predicted prefixes all
//! live in its own prefix block (`swift-traces` spaces sessions
//! `SESSION_PREFIX_SPACING` = 65,536 /24-indexes apart, which under
//! `Prefix::nth_slash24` is exactly one /8 of address space). Partitioning
//! stage 1 by /8 block therefore makes installs coordination-free: each
//! partition owns its prefixes' tags, its own SWIFT rules and its own claim
//! bookkeeping, and K partitions can install concurrently with no shared
//! locks.
//!
//! What stays global is the *offline-precomputed* state (§5): the encoding
//! plan, tag layout and next-hop index are computed once from the full
//! routing table and cloned verbatim into every partition
//! ([`TwoStageTable::partition_clone`]), so a prefix's tag — and hence every
//! install's rule bits — is identical to the unpartitioned table's.

use crate::config::EncodingConfig;
use crate::encoding::policy::ReroutingPolicy;
use crate::encoding::tag::TagRule;
use crate::encoding::two_stage::{RerouteId, TwoStageTable};
use std::collections::BTreeSet;
use swift_bgp::{AsLink, PeerId, Prefix, RoutingTable};

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

/// The two-stage forwarding table split into K independent prefix-range
/// partitions, each a full [`TwoStageTable`] sharing the global encoding
/// plan.
///
/// Reads route by prefix ([`PartitionedTable::lookup`],
/// [`PartitionedTable::tag_of`]); installs and removals go to an explicit
/// *home* partition — the partition of the inferring session's prefix space —
/// because a reroute is keyed by the session that inferred it, not by any one
/// prefix. [`PartitionedTable::into_parts`] /
/// [`PartitionedTable::from_parts`] let the runtime move the partitions onto
/// per-shard applier threads and reassemble them for the final report.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    partitioner: PrefixPartitioner,
    parts: Vec<TwoStageTable>,
}

impl PartitionedTable {
    /// Builds the global table from the routing state, then splits it: stage 1
    /// is distributed by [`PrefixPartitioner::partition_of`], the encoding
    /// plan / tag layout / next-hop index are shared verbatim, and each
    /// partition starts with the default stage-2 rules. With one partition
    /// this is exactly [`TwoStageTable::build`].
    pub fn build(
        table: &RoutingTable,
        config: &EncodingConfig,
        policy: &ReroutingPolicy,
        partitioner: PrefixPartitioner,
    ) -> Self {
        Self::from_global(TwoStageTable::build(table, config, policy), partitioner)
    }

    /// Splits an already-built global table (see [`PartitionedTable::build`]).
    pub fn from_global(global: TwoStageTable, partitioner: PrefixPartitioner) -> Self {
        let k = partitioner.partitions();
        let parts = if k == 1 {
            vec![global]
        } else {
            (0..k)
                .map(|i| global.partition_clone(|p| partitioner.partition_of(p) == i))
                .collect()
        };
        PartitionedTable { partitioner, parts }
    }

    /// Reassembles a facade from partitions previously taken apart with
    /// [`PartitionedTable::into_parts`] (the runtime's shutdown path).
    ///
    /// # Panics
    ///
    /// If `parts.len()` does not match the partitioner's partition count.
    pub fn from_parts(partitioner: PrefixPartitioner, parts: Vec<TwoStageTable>) -> Self {
        assert_eq!(
            parts.len(),
            partitioner.partitions(),
            "partition count mismatch"
        );
        PartitionedTable { partitioner, parts }
    }

    /// Takes the facade apart into its partitioner and partitions.
    pub fn into_parts(self) -> (PrefixPartitioner, Vec<TwoStageTable>) {
        (self.partitioner, self.parts)
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> &PrefixPartitioner {
        &self.partitioner
    }

    /// The partitions, in partition order.
    pub fn partitions(&self) -> &[TwoStageTable] {
        &self.parts
    }

    /// Mutable access to one partition (benches and tests).
    pub fn partition_mut(&mut self, idx: usize) -> &mut TwoStageTable {
        &mut self.parts[idx]
    }

    /// The home partition of `prefix` — where its stage-1 entry lives and
    /// where reroutes for the session announcing it install their rules.
    pub fn home_of(&self, prefix: &Prefix) -> usize {
        self.partitioner.partition_of(prefix)
    }

    /// Installs the reroute rules for `links` on the `home` partition (the
    /// inferring session's partition) and returns the partition-local
    /// [`RerouteId`] plus the number of data-plane rules installed. Only the
    /// home partition's backup-in-use index and stage 2 are touched.
    pub fn install_reroute_tracked(&mut self, home: usize, links: &[AsLink]) -> (RerouteId, usize) {
        self.parts[home].install_reroute_tracked(links)
    }

    /// Removes one reroute's rules from its `home` partition; see
    /// [`TwoStageTable::remove_reroute`] for the claim semantics.
    pub fn remove_reroute(&mut self, home: usize, id: RerouteId) -> usize {
        self.parts[home].remove_reroute(id)
    }

    /// Recomputes the stage-1 entries of the given prefixes, each on its home
    /// partition. Returns the number of entries touched.
    pub fn refresh_prefixes<I>(
        &mut self,
        table: &RoutingTable,
        policy: &ReroutingPolicy,
        prefixes: I,
    ) -> usize
    where
        I: IntoIterator<Item = Prefix>,
    {
        let mut touched = 0;
        for prefix in prefixes {
            let home = self.partitioner.partition_of(&prefix);
            touched += self.parts[home].refresh_prefixes(table, policy, [prefix]);
        }
        touched
    }

    /// Looks up the forwarding next-hop of `prefix` on its home partition.
    pub fn lookup(&self, prefix: &Prefix) -> Option<PeerId> {
        self.parts[self.partitioner.partition_of(prefix)].lookup(prefix)
    }

    /// The stage-1 tag of `prefix`, if it has one.
    pub fn tag_of(&self, prefix: &Prefix) -> Option<u64> {
        self.parts[self.partitioner.partition_of(prefix)].tag_of(prefix)
    }

    /// Total stage-1 entries across all partitions (each prefix lives in
    /// exactly one).
    pub fn stage1_len(&self) -> usize {
        self.parts.iter().map(TwoStageTable::stage1_len).sum()
    }

    /// Distinct SWIFT-installed data-plane rules across all partitions.
    ///
    /// Under the per-session partitioning invariant two partitions never
    /// install the same rule bits (disjoint AS neighbourhoods → disjoint link
    /// codes), but the count dedups across partitions anyway so it can never
    /// over-report the data plane.
    pub fn swift_rule_count(&self) -> usize {
        self.parts
            .iter()
            .flat_map(|part| {
                part.stage2_rules()
                    .iter()
                    .filter(|r| r.swift_installed)
                    .map(|r| r.rule)
            })
            .collect::<BTreeSet<TagRule>>()
            .len()
    }

    /// Removes every SWIFT-installed rule from every partition. Returns the
    /// number of distinct data-plane rules removed.
    pub fn clear_swift_rules(&mut self) -> usize {
        let distinct = self.swift_rule_count();
        for part in &mut self.parts {
            part.clear_swift_rules();
        }
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsPath, Asn, PeerId, Route, RouteAttributes};

    /// Prefix `i` of session `s`: one /8 block per session, exactly the
    /// `SESSION_PREFIX_SPACING` layout of `swift-traces`.
    fn p(s: u32, i: u32) -> Prefix {
        Prefix::nth_slash24(s * 65_536 + i)
    }

    fn config() -> EncodingConfig {
        EncodingConfig {
            min_prefixes_per_link: 5,
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
        let policy = ReroutingPolicy::allow_all();
        let single = TwoStageTable::build(&table, &config(), &policy);
        for k in [1usize, 2, 3] {
            let split =
                PartitionedTable::build(&table, &config(), &policy, PrefixPartitioner::new(k));
            assert_eq!(split.stage1_len(), single.stage1_len(), "k={k}");
            assert_eq!(split.swift_rule_count(), 0);
            for s in 0..sessions {
                for i in 0..n {
                    let prefix = p(s, i);
                    assert_eq!(split.tag_of(&prefix), single.tag_of(&prefix), "k={k}");
                    assert_eq!(split.lookup(&prefix), single.lookup(&prefix), "k={k}");
                }
            }
        }
    }

    #[test]
    fn partitioned_install_and_remove_match_single_table() {
        let sessions = 3u32;
        let n = 40u32;
        let table = multi_block_table(sessions, n);
        let policy = ReroutingPolicy::allow_all();
        for k in [1usize, 2, 3] {
            let mut single = TwoStageTable::build(&table, &config(), &policy);
            let mut split =
                PartitionedTable::build(&table, &config(), &policy, PrefixPartitioner::new(k));
            // Each session infers the first link of its own primary paths.
            let mut ids = Vec::new();
            for s in 0..sessions {
                let base = 100 + s * 1_000;
                let links = [AsLink::new(base, base + 1)];
                let installed_single = single.install_reroute(&links);
                let home = split.home_of(&p(s, 0));
                let (id, installed_split) = split.install_reroute_tracked(home, &links);
                assert_eq!(installed_split, installed_single, "session {s} k={k}");
                assert!(installed_split >= 1, "the burst must install rules");
                ids.push((home, id));
                // The session's prefixes are redirected to the backup peer.
                assert_eq!(split.lookup(&p(s, 0)), Some(PeerId(1_000)), "k={k}");
                // Other sessions' prefixes are untouched by this install.
                for other in 0..sessions {
                    if other != s && !ids.iter().any(|(h, _)| *h == split.home_of(&p(other, 0))) {
                        assert_eq!(split.lookup(&p(other, 0)), Some(PeerId(other + 1)));
                    }
                }
            }
            assert_eq!(split.swift_rule_count(), single.swift_rule_count(), "k={k}");
            // Remove them all: forwarding reverts to the primaries.
            for (s, (home, id)) in ids.into_iter().enumerate() {
                let removed = split.remove_reroute(home, id);
                assert!(removed >= 1, "session {s} k={k}");
                assert_eq!(split.lookup(&p(s as u32, 0)), Some(PeerId(s as u32 + 1)));
            }
            assert_eq!(split.swift_rule_count(), 0, "k={k}");
        }
    }

    #[test]
    fn overlapping_claims_stay_within_a_partition() {
        let table = multi_block_table(2, 40);
        let policy = ReroutingPolicy::allow_all();
        let mut split =
            PartitionedTable::build(&table, &config(), &policy, PrefixPartitioner::new(2));
        let home = split.home_of(&p(0, 0));
        let links = [AsLink::new(100, 101)];
        let (id_a, installed_a) = split.install_reroute_tracked(home, &links);
        assert!(installed_a >= 1);
        let (id_b, installed_b) = split.install_reroute_tracked(home, &links);
        assert_eq!(installed_b, 0, "identical rules are claims, not installs");
        assert_eq!(split.remove_reroute(home, id_a), 0, "still claimed by b");
        assert_eq!(split.lookup(&p(0, 0)), Some(PeerId(1_000)));
        assert_eq!(split.remove_reroute(home, id_b), installed_a);
        assert_eq!(split.lookup(&p(0, 0)), Some(PeerId(1)));
    }

    #[test]
    fn refresh_routes_changes_to_the_home_partition() {
        let mut table = multi_block_table(2, 40);
        let policy = ReroutingPolicy::allow_all();
        let mut single = TwoStageTable::build(&table, &config(), &policy);
        let mut split =
            PartitionedTable::build(&table, &config(), &policy, PrefixPartitioner::new(2));
        // Session 1 withdraws one prefix: after the refresh both tables agree
        // the backup peer is the new best.
        let prefix = p(1, 3);
        table.apply(
            PeerId(2),
            &swift_bgp::ElementaryEvent::Withdraw {
                timestamp: 0,
                prefix,
            },
        );
        assert_eq!(single.refresh_prefixes(&table, &policy, [prefix]), 1);
        assert_eq!(split.refresh_prefixes(&table, &policy, [prefix]), 1);
        assert_eq!(split.lookup(&prefix), single.lookup(&prefix));
        assert_eq!(split.lookup(&prefix), Some(PeerId(1_000)));
        // The sibling partition never saw the prefix.
        let other = split.home_of(&p(0, 0));
        assert_ne!(other, split.home_of(&prefix));
        assert_eq!(split.partitions()[other].tag_of(&prefix), None);
    }

    #[test]
    fn into_parts_round_trips() {
        let table = multi_block_table(3, 20);
        let policy = ReroutingPolicy::allow_all();
        let split = PartitionedTable::build(&table, &config(), &policy, PrefixPartitioner::new(3));
        let want = split.stage1_len();
        let (partitioner, parts) = split.into_parts();
        assert_eq!(parts.len(), 3);
        let rebuilt = PartitionedTable::from_parts(partitioner, parts);
        assert_eq!(rebuilt.stage1_len(), want);
    }
}
