//! The two-stage forwarding table (§3.2, §5).
//!
//! * **Stage 1** maps each destination prefix to its pre-computed SWIFT tag
//!   (in a real router: a per-prefix rewrite of the destination MAC).
//! * **Stage 2** forwards on the tag: a low-priority rule per primary next-hop,
//!   plus — upon an inference — one high-priority reroute rule per (inferred
//!   link position, backup next-hop).
//!
//! The crucial property reproduced here is that rerouting N affected prefixes
//! requires a number of stage-2 rule installations that is independent of N —
//! and so is the work of finding them.
//!
//! # Stage 1 layout
//!
//! Stage 1 is a flat array of tags indexed by the [`PrefixId`] of the
//! *owning* [`RoutingTable`] — the table this forwarding table was built from
//! (or a clone of it: `Clone` preserves ids) and is refreshed against. The
//! forwarding table keeps no dictionary of its own: a retag works on ids from
//! end to end (dirty id → that id's candidates → tag → array write), and a
//! by-prefix read ([`TwoStageTable::tag_of`], [`TwoStageTable::lookup`], …)
//! takes the owning table and resolves the prefix through *its* dictionary,
//! one probe, before the array read.
//!
//! * **No tag** is the reserved word `NO_TAG` (all ones). A real tag never
//!   equals it: `build` refuses a layout that uses all 64 bits, so bit 63 of
//!   every tag is clear. Ids at or beyond the array's end have no tag either.
//! * **Growth.** `build` sizes the array for the ids handed out so far. A
//!   prefix first announced later gets an id beyond the end; the array grows
//!   to cover it (amortised doubling, filled with `NO_TAG`) the first time
//!   that id is given a tag. Removing the tag of an id beyond the end is a
//!   no-op, and the array never shrinks: ids are never reused.
//! * **One writer.** The private `set_tag` is the only code that writes
//!   `stage1`, its `tagged` count and `backup_refs` (`build` and
//!   `refresh_ids` retag through it).
//!
//! # The retag
//!
//! [`TwoStageTable::refresh_ids`] is the one retag loop (`build`, the
//! resync, registration and teardown call it). Its reads miss the cache:
//! per peer a slot, the 16-byte route record behind it, the attribute set
//! the record names in the table's dictionary, then the stage-1 word. One id
//! at a time, those misses queue. So ids go in batches of
//! B = [`TwoStageTable::RETAG_BATCH`], each in two phases:
//!
//! 1. **Gather.** [`RoutingTable::for_each_candidate`] walks the peers once
//!    for the batch and puts each id's routes, as [`RouteRef`] views, in
//!    peer order, in a stack buffer of K = [`TwoStageTable::RETAG_GATHER`];
//!    it also reads each route's peer and path length — touching its
//!    dictionary entry — and each id's stage-1 word. These reads do not
//!    depend on each other, so their misses overlap.
//! 2. **Compute and write.** Each tag is computed from the buffer — the best
//!    route and every position's backup ([`select_backup_among`]) — and
//!    written through `set_tag`. It is compute: a hashed code lookup per
//!    encoded position ([`EncodingPlan::code_of`]) and precomputed tag
//!    offsets. Warm, on 15 575 scattered ids of a 1 M-id two-peer table
//!    (2-vCPU x86-64), it costs ~45 ns per id beside phase 1's ~50; with
//!    ordered-map lookups and offsets summed per access it cost ~105.
//!
//! B = 16: on a two-peer 1 M and a 12-session 240 k table (2-vCPU x86-64)
//! 8 was slower and 32 no faster. K = 8 holds a prefix announced by eight
//! peers; one with more is computed from a second walk
//! ([`RoutingTable::candidates_by_id`]). Both keep peer order, so the tags
//! are those of a one-id-at-a-time retag.
//!
//! **Duplicates.** An id may repeat, within a batch too: registration passes
//! the ids of the routes it announces as given. So phase 1 keeps none of
//! the values it reads; `set_tag` reads the old tag when it writes, and a
//! repeated id moves its `backup_refs` from the tag its first occurrence
//! wrote, not from a stale word read in phase 1.
//!
//! # The backup-in-use index
//!
//! A reroute for link `l` at position `d` needs one rule per backup next-hop
//! that some tagged prefix crossing `l` at `d` actually carries in slot `d`.
//! Instead of scanning stage 1 for them, the table keeps `backup_refs`: for
//! every `(position, code, next-hop slot)` the number of stage-1 tags whose
//! position-`d` field is `code` and whose slot-`d` field is that next-hop.
//! Invariant: `backup_refs` equals that count over the current `stage1`, for
//! every triple with a non-zero code and next-hop; `set_tag` moves a prefix's
//! references from its old tag to its new one.
//! [`TwoStageTable::install_reroute_tracked`] reads one row of it per
//! (link, position): O(rules), whatever the table size.
//! `crates/core/tests/proptest_install_index.rs` checks the index against a
//! stage-1 scan under random churn.

use crate::config::EncodingConfig;
use crate::encoding::allocator::EncodingPlan;
use crate::encoding::backup::select_backup_among;
use crate::encoding::policy::ReroutingPolicy;
use crate::encoding::tag::{TagLayout, TagRule};
use std::collections::BTreeSet;
use swift_bgp::{AsLink, PeerId, Prefix, PrefixId, PrefixSet, RouteRef, RoutingTable};

/// Identifier of one installed reroute (one accepted inference's batch of
/// stage-2 rules), handed out by [`TwoStageTable::install_reroute_tracked`]
/// and consumed by [`TwoStageTable::remove_reroute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RerouteId(pub u32);

/// A stage-2 rule: a ternary tag match forwarding to a next-hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage2Rule {
    /// Match priority (higher wins).
    pub priority: u32,
    /// The ternary match.
    pub rule: TagRule,
    /// The next-hop to forward matching packets to.
    pub next_hop: PeerId,
    /// Whether the rule was installed by SWIFT fast-reroute (vs. the default
    /// BGP-consistent rules).
    pub swift_installed: bool,
    /// The reroute this rule belongs to (`None` for default rules), so a
    /// converged reroute can be undone without touching the rest of the table.
    pub reroute: Option<RerouteId>,
}

/// Priorities used for the two rule classes.
const PRIMARY_PRIORITY: u32 = 10;
const REROUTE_PRIORITY: u32 = 100;

/// "No tag" marker of `TwoStageTable::stage1` (see "Stage 1 layout").
const NO_TAG: u64 = u64::MAX;

/// The SWIFTED router's two-stage forwarding table.
#[derive(Debug, Clone)]
pub struct TwoStageTable {
    layout: TagLayout,
    plan: EncodingPlan,
    /// Stage 1: the tag of each of the owning table's prefix ids, `NO_TAG`
    /// where there is none. Written only by `set_tag`.
    stage1: Vec<u64>,
    /// Number of `stage1` entries holding a tag.
    tagged: usize,
    /// `backup_refs[d - 1][code * refs_stride + nh]`: stage-1 tags with
    /// `code` at position `d` and next-hop `nh` in backup slot `d` (see the
    /// module docs). Rows grow on first use.
    backup_refs: Vec<Vec<u32>>,
    /// Row length of `backup_refs`: one counter per next-hop index, 0 unused.
    refs_stride: usize,
    /// Stage 2: rules, scanned highest priority first.
    stage2: Vec<Stage2Rule>,
    /// The next-hops used in tags, ascending: `nexthops[i]` has slot `i + 1`.
    nexthops: Vec<PeerId>,
    max_depth: usize,
    next_reroute: u32,
}

impl TwoStageTable {
    /// Ids per retag batch (see "The retag").
    pub const RETAG_BATCH: usize = 16;

    /// Candidate routes a retag gathers per id (see "The retag").
    pub const RETAG_GATHER: usize = 8;

    /// Builds the table from the router's routing state; `table` becomes its
    /// owning table (see "Stage 1 layout").
    ///
    /// The plan is derived from the best paths, the backup next-hops honour
    /// `policy`, and one default stage-2 rule per known next-hop is installed.
    ///
    /// The encoding plan, tag layout and next-hop index computed here are the
    /// *offline* part of the scheme (§5: pre-computed before any outage); they
    /// stay fixed until the next full `build`. Stage-1 tags, by contrast, can
    /// be refreshed per prefix as routes change — see
    /// [`TwoStageTable::refresh_ids`].
    ///
    /// # Panics
    ///
    /// If the tag layout uses all 64 bits: the all-ones word is reserved for
    /// "no tag" (the paper's tags are 48 bits).
    pub fn build(table: &RoutingTable, config: &EncodingConfig, policy: &ReroutingPolicy) -> Self {
        let plan = EncodingPlan::from_routing_table(table, config);
        let layout = plan.layout(config);
        assert!(
            layout.total_bits() < 64,
            "a 64-bit tag layout leaves no word to mark \"no tag\""
        );

        // Index the next-hops: every peer, capped by the slot width. Index 0 is
        // reserved for "no next-hop", so peers start at 1.
        let nexthops: Vec<PeerId> = table
            .peers()
            .map(|(peer, _)| peer)
            .take(config.max_nexthops().saturating_sub(1))
            .collect();

        // Default stage-2 rules: forward on the primary next-hop slot.
        let stage2 = (1..)
            .zip(&nexthops)
            .map(|(idx, peer)| Stage2Rule {
                priority: PRIMARY_PRIORITY,
                rule: layout.primary_rule(idx),
                next_hop: *peer,
                swift_installed: false,
                reroute: None,
            })
            .collect();

        let mut ts = TwoStageTable {
            layout,
            plan,
            stage1: vec![NO_TAG; table.id_count()],
            tagged: 0,
            backup_refs: vec![Vec::new(); config.max_depth],
            refs_stride: nexthops.len() + 1,
            stage2,
            nexthops,
            max_depth: config.max_depth,
            next_reroute: 0,
        };
        // Tag every prefix through the incremental refresh itself — build and
        // refresh cannot drift apart — walking the table's ids in id order
        // (tagging is order-independent; an id without a route gets no tag).
        ts.refresh_ids(table, policy, table.ids());
        ts
    }

    /// Recomputes the stage-1 entry of each given id of the owning `table`
    /// from the current routing state: tag (AS-path codes, primary and backup
    /// next-hops) for routed prefixes, no tag for prefixes without any
    /// remaining route. Returns the number of entries touched.
    ///
    /// This is the incremental half of `resync_after_convergence`: after BGP
    /// reconverges, only the prefixes whose routes changed during the outage
    /// need new tags — the encoding plan, layout and next-hop index (the
    /// offline-precomputed state) are reused as-is. Callers that suspect the
    /// plan itself has rotted (e.g. after massive topology churn) should
    /// rebuild with [`TwoStageTable::build`] instead.
    ///
    /// Ids may repeat. They are retagged in batches of
    /// [`TwoStageTable::RETAG_BATCH`], each in two phases (see "The retag").
    pub fn refresh_ids<I>(
        &mut self,
        table: &RoutingTable,
        policy: &ReroutingPolicy,
        ids: I,
    ) -> usize
    where
        I: IntoIterator<Item = PrefixId>,
    {
        let mut ids = ids.into_iter().peekable();
        let Some(&first) = ids.peek() else {
            return 0;
        };
        let mut touched = 0;
        // Entries past a batch's `n` ids or an id's count are stale, unread.
        let mut batch = [first; Self::RETAG_BATCH];
        let mut gathered = [[None; Self::RETAG_GATHER]; Self::RETAG_BATCH];
        loop {
            let mut n = 0;
            for (slot, id) in batch.iter_mut().zip(&mut ids) {
                *slot = id;
                n += 1;
            }
            // Phase 1. The `black_box` reads only fetch cache lines.
            let mut counts = [0; Self::RETAG_BATCH];
            table.for_each_candidate(&batch[..n], |i, route| {
                if let Some(at) = gathered[i].get_mut(counts[i]) {
                    *at = Some(route);
                }
                counts[i] += 1;
                std::hint::black_box((route.peer, route.as_path().len()));
            });
            for id in &batch[..n] {
                std::hint::black_box(self.stage1.get(id.index()).copied());
            }
            // Phase 2, in list order. `filter_map`, not `flatten`: the
            // iterator `compute_tag` clones per position stays a slice
            // iterator, which made a full-table build markedly faster.
            for ((id, routes), count) in batch[..n].iter().zip(&gathered).zip(counts) {
                let tag = match routes.get(..count) {
                    Some(routes) => self.compute_tag(routes.iter().filter_map(|r| *r), policy),
                    None => self.compute_tag(table.candidates_by_id(*id), policy),
                };
                self.set_tag(*id, tag);
            }
            touched += n;
            if n < Self::RETAG_BATCH {
                return touched;
            }
        }
    }

    /// Sets (or, with `None`, removes) the stage-1 entry of `id` and moves
    /// its references in the backup-in-use index from the old tag to the new
    /// one. The only writer of `stage1`, `tagged` and `backup_refs`.
    fn set_tag(&mut self, id: PrefixId, tag: Option<u64>) {
        let new = tag.unwrap_or(NO_TAG);
        if self.stage1.len() <= id.index() {
            if new == NO_TAG {
                return;
            }
            self.stage1.resize(id.index() + 1, NO_TAG);
        }
        let old = std::mem::replace(&mut self.stage1[id.index()], new);
        if old == new {
            return;
        }
        self.tagged = self.tagged + usize::from(new != NO_TAG) - usize::from(old != NO_TAG);
        for (tag, counted) in [(old, true), (new, false)] {
            if tag == NO_TAG {
                continue;
            }
            for pos in 1..=self.max_depth {
                let code = self.layout.get_position(tag, pos) as usize;
                let nh = self.layout.get_nexthop(tag, pos) as usize;
                if code == 0 || nh == 0 {
                    continue;
                }
                let row = &mut self.backup_refs[pos - 1];
                let at = code * self.refs_stride + nh;
                if counted {
                    row[at] -= 1;
                } else {
                    if row.len() <= at {
                        row.resize((code + 1) * self.refs_stride, 0);
                    }
                    row[at] += 1;
                }
            }
        }
    }

    /// The stage-1 tag of a prefix with the given candidate routes, or `None`
    /// if there are none. Best path and every backup slot are passes over the
    /// same candidates, so the caller resolves the prefix once.
    fn compute_tag<'a>(
        &self,
        candidates: impl Iterator<Item = RouteRef<'a>> + Clone,
        policy: &ReroutingPolicy,
    ) -> Option<u64> {
        let best = candidates.clone().max_by(|a, b| a.compare_preference(b))?;
        let mut tag = 0u64;
        // Slot 0: the primary next-hop.
        if let Some(idx) = self.nexthop_slot(best.peer) {
            tag = self.layout.set_nexthop(tag, 0, idx);
        }
        // Per position d: the code of the path's link there (0 when not
        // encoded) and, in slot d, the backup next-hop protecting it.
        for pos in 1..=self.max_depth {
            let Some(link) = best.as_path().link_at_position(pos) else {
                break;
            };
            if let Some(code) = self.plan.code_of(pos, &link) {
                tag = self.layout.set_position(tag, pos, code);
            }
            if let Some(peer) = select_backup_among(candidates.clone(), best.peer, &link, policy) {
                if let Some(idx) = self.nexthop_slot(peer) {
                    tag = self.layout.set_nexthop(tag, pos, idx);
                }
            }
        }
        Some(tag)
    }

    /// The tag stored for `id` of the owning table, if it has one.
    fn tag_at(&self, id: PrefixId) -> Option<u64> {
        self.stage1
            .get(id.index())
            .copied()
            .filter(|tag| *tag != NO_TAG)
    }

    /// The tag of `prefix`, if it has one. `table` is the owning table: it
    /// resolves the prefix (see "Stage 1 layout").
    pub fn tag_of(&self, table: &RoutingTable, prefix: &Prefix) -> Option<u64> {
        self.tag_at(table.prefix_id(prefix)?)
    }

    /// The dense tag slot assigned to `peer`, if the peer is indexed.
    ///
    /// Slot 0 is reserved for "no next-hop", so indexed peers start at 1.
    pub fn nexthop_slot(&self, peer: PeerId) -> Option<u64> {
        let at = self.nexthops.binary_search(&peer).ok()?;
        Some(at as u64 + 1)
    }

    /// The encoding plan in use.
    pub fn plan(&self) -> &EncodingPlan {
        &self.plan
    }

    /// The tag layout in use.
    pub fn layout(&self) -> &TagLayout {
        &self.layout
    }

    /// Number of stage-1 entries (tagged prefixes).
    pub fn stage1_len(&self) -> usize {
        self.tagged
    }

    /// Length of the stage-1 array: one slot per id of the owning table the
    /// array has had to cover, tagged or not — never more than that table's
    /// [`RoutingTable::id_count`].
    pub fn stage1_slots(&self) -> usize {
        self.stage1.len()
    }

    /// Number of stage-2 rules currently installed.
    pub fn stage2_len(&self) -> usize {
        self.stage2.len()
    }

    /// Number of SWIFT-installed (fast-reroute) stage-2 rules.
    pub fn swift_rule_count(&self) -> usize {
        // Distinct rule bits: overlapping reroutes may hold claims on one
        // shared rule (see `install_reroute_tracked`), which is still a
        // single data-plane rule.
        self.stage2
            .iter()
            .filter(|r| r.swift_installed)
            .map(|r| r.rule)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Looks up the forwarding next-hop of `prefix` through both stages;
    /// `table` is the owning table, as for [`TwoStageTable::tag_of`].
    pub fn lookup(&self, table: &RoutingTable, prefix: &Prefix) -> Option<PeerId> {
        let tag = self.tag_of(table, prefix)?;
        self.stage2
            .iter()
            .filter(|r| r.rule.matches(tag))
            .max_by_key(|r| r.priority)
            .map(|r| r.next_hop)
    }

    /// Installs the high-priority reroute rules for the inferred `links`
    /// (§3.2: one rule per encoded position of each link and per backup
    /// next-hop in use). Returns the [`RerouteId`] tagged onto them, which
    /// [`TwoStageTable::remove_reroute`] undoes, and the number of rules
    /// installed — the data-plane updates a real router would perform,
    /// independent of how many prefixes are rerouted.
    pub fn install_reroute_tracked(&mut self, links: &[AsLink]) -> (RerouteId, usize) {
        let id = RerouteId(self.next_reroute);
        self.next_reroute += 1;
        let mut installed = 0usize;
        for link in links {
            for (pos, code) in self.plan.codes_of(link) {
                // One rule per backup next-hop actually used by tagged prefixes
                // crossing this link at this position, in ascending next-hop
                // order (`lookup` breaks priority ties by stage-2 position):
                // the non-zero counters of this (position, code)'s index row.
                for nh in 1..self.refs_stride {
                    let at = code as usize * self.refs_stride + nh;
                    if self.backup_refs[pos - 1].get(at).map_or(true, |n| *n == 0) {
                        continue;
                    }
                    let peer = self.nexthops[nh - 1];
                    let rule = self.layout.reroute_rule(pos, code, nh as u64);
                    // Idempotence at the data plane: an identical rule already
                    // present means no new data-plane update. The entry is
                    // still recorded under this reroute's id — a *claim* on
                    // the shared rule — so removing the earlier reroute (in
                    // any order, e.g. a session teardown) cannot strip a rule
                    // this reroute still needs.
                    let duplicate = self
                        .stage2
                        .iter()
                        .any(|r| r.swift_installed && r.rule == rule);
                    self.stage2.push(Stage2Rule {
                        priority: REROUTE_PRIORITY,
                        rule,
                        next_hop: peer,
                        swift_installed: true,
                        reroute: Some(id),
                    });
                    if !duplicate {
                        installed += 1;
                    }
                }
            }
        }
        (id, installed)
    }

    /// Removes the stage-2 rules belonging to one converged reroute, leaving
    /// every other reroute's rules (and the default rules) in place. Returns
    /// the number of **data-plane** rules removed: an entry that was a claim
    /// on a rule shared with another still-outstanding reroute keeps the rule
    /// alive and counts zero, so reroutes can be removed selectively in any
    /// order (e.g. a session teardown mid-burst).
    pub fn remove_reroute(&mut self, id: RerouteId) -> usize {
        let removed: Vec<TagRule> = self
            .stage2
            .iter()
            .filter(|r| r.reroute == Some(id))
            .map(|r| r.rule)
            .collect();
        self.stage2.retain(|r| r.reroute != Some(id));
        removed
            .iter()
            .filter(|rule| {
                !self
                    .stage2
                    .iter()
                    .any(|r| r.swift_installed && r.rule == **rule)
            })
            .count()
    }

    /// Removes every SWIFT-installed rule that forwards to `peer`, whichever
    /// reroutes claim it (used when the session with `peer` goes down and no
    /// tag names it any longer). Returns the number of distinct data-plane
    /// rules removed (claims on a shared rule count once).
    pub fn remove_rules_to(&mut self, peer: PeerId) -> usize {
        let to_peer = |r: &Stage2Rule| r.swift_installed && r.next_hop == peer;
        let distinct: BTreeSet<TagRule> = self
            .stage2
            .iter()
            .filter(|r| to_peer(r))
            .map(|r| r.rule)
            .collect();
        self.stage2.retain(|r| !to_peer(r));
        distinct.len()
    }

    /// The stage-2 rules, for inspection.
    pub fn stage2_rules(&self) -> &[Stage2Rule] {
        &self.stage2
    }

    /// Encoding performance (§6.4): among `predicted` prefixes, the fraction
    /// whose tag lets SWIFT actually reroute them around `links` — i.e. their
    /// path crosses an inferred link at an encoded position *and* a backup
    /// next-hop is provisioned in that slot.
    /// `table` is the owning table, as for [`TwoStageTable::tag_of`].
    pub fn encoding_performance(
        &self,
        table: &RoutingTable,
        predicted: &PrefixSet,
        links: &[AsLink],
    ) -> f64 {
        if predicted.is_empty() {
            return 1.0;
        }
        let reroutable = |tag: u64| {
            links.iter().any(|link| {
                self.plan.codes_of(link).any(|(pos, code)| {
                    self.layout.get_position(tag, pos) == code
                        && self.layout.get_nexthop(tag, pos) != 0
                })
            })
        };
        let tags = predicted.iter().filter_map(|p| self.tag_of(table, p));
        tags.filter(|tag| reroutable(*tag)).count() as f64 / predicted.len() as f64
    }

    /// Backup coverage, read off stage 1: among the (tagged prefix,
    /// position) pairs whose tag encodes the link at that position, the
    /// share whose tag also carries a backup next-hop for it — the pairs a
    /// reroute of that link can move. 1.0 when no pair is encoded.
    pub fn backup_coverage(&self) -> f64 {
        let (mut encoded, mut covered) = (0, 0);
        for tag in self.stage1.iter().filter(|tag| **tag != NO_TAG) {
            for pos in 1..=self.max_depth {
                if self.layout.get_position(*tag, pos) != 0 {
                    encoded += 1;
                    covered += u32::from(self.layout.get_nexthop(*tag, pos) != 0);
                }
            }
        }
        if encoded == 0 {
            return 1.0;
        }
        f64::from(covered) / f64::from(encoded)
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

    /// A Fig.1-like table large enough to pass the 1,500-prefix encoding
    /// threshold is expensive in a unit test, so tests use a lowered threshold.
    fn config() -> EncodingConfig {
        EncodingConfig {
            min_prefixes_per_link: 5,
            ..Default::default()
        }
    }

    /// Routing table where peer 2 is the primary for everything (forced via
    /// LOCAL_PREF) and peers 3/4 offer alternates, mirroring Fig. 1.
    fn fig1_table(n_per_origin: u32) -> RoutingTable {
        let mut t = RoutingTable::new();
        t.add_peer(PeerId(2), Asn(2));
        t.add_peer(PeerId(3), Asn(3));
        t.add_peer(PeerId(4), Asn(4));
        let mut announce = |idx: u32, via2: &[u32], via3: &[u32], via4: Option<&[u32]>| {
            let mut attrs2 = RouteAttributes::from_path(AsPath::new(via2.iter().copied()));
            attrs2.local_pref = Some(200); // operator prefers peer 2 (as in Fig. 1)
            t.announce(PeerId(2), p(idx), Route::new(PeerId(2), attrs2, 0));
            t.announce(PeerId(3), p(idx), route(3, via3));
            if let Some(via4) = via4 {
                t.announce(PeerId(4), p(idx), route(4, via4));
            }
        };
        for i in 0..n_per_origin {
            announce(i, &[2, 5, 6], &[3, 6], Some(&[4, 5, 6]));
        }
        for i in n_per_origin..2 * n_per_origin {
            announce(i, &[2, 5, 6, 7], &[3, 6, 7], Some(&[4, 5, 6, 7]));
        }
        for i in 2 * n_per_origin..3 * n_per_origin {
            announce(i, &[2, 5, 6, 8], &[3, 6, 8], Some(&[4, 5, 6, 8]));
        }
        t
    }

    #[test]
    fn build_tags_every_prefix_and_installs_primary_rules() {
        let table = fig1_table(10);
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        assert_eq!(ts.stage1_len(), 30);
        assert_eq!(ts.stage2_len(), 3, "one default rule per peer");
        assert_eq!(ts.swift_rule_count(), 0);
        // Lookups follow the primary next-hop (peer 2 for everything).
        for i in 0..30 {
            assert_eq!(ts.lookup(&table, &p(i)), Some(PeerId(2)), "prefix {i}");
        }
        assert_eq!(ts.lookup(&table, &p(999)), None);
    }

    #[test]
    fn reroute_rules_are_few_and_redirect_all_affected_prefixes() {
        let table = fig1_table(10);
        let mut ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        // Link (5,6) appears at position 2 of every primary path. The only
        // backup avoiding AS 5 and AS 6 is... none (all alternates go via 6),
        // so protect position 1's link (2,5) instead where peer 3 qualifies.
        let installed = ts.install_reroute_tracked(&[AsLink::new(2, 5)]).1;
        assert!(installed >= 1);
        assert!(
            installed <= 2,
            "rules are per (position, backup), not per prefix"
        );
        assert_eq!(ts.swift_rule_count(), installed);
        // Every prefix is now forwarded to peer 3 (the only endpoint-avoiding
        // backup for (2,5)).
        for i in 0..30 {
            assert_eq!(ts.lookup(&table, &p(i)), Some(PeerId(3)), "prefix {i}");
        }
        // Installing the same reroute again is a no-op.
        assert_eq!(ts.install_reroute_tracked(&[AsLink::new(2, 5)]).1, 0);
        // Removing the rules to peer 3 restores primary forwarding.
        assert_eq!(ts.remove_rules_to(PeerId(3)), installed);
        assert_eq!(ts.lookup(&table, &p(0)), Some(PeerId(2)));
    }

    #[test]
    fn unencoded_links_install_nothing() {
        let table = fig1_table(10);
        let mut ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        assert_eq!(ts.install_reroute_tracked(&[AsLink::new(99, 100)]).1, 0);
        assert_eq!(ts.swift_rule_count(), 0);
    }

    #[test]
    fn encoding_performance_reflects_backup_availability() {
        let table = fig1_table(10);
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        let all: PrefixSet = (0..30).map(p).collect();
        // (2,5) is encoded and every prefix has a backup (peer 3): performance 1.
        let perf_25 = ts.encoding_performance(&table, &all, &[AsLink::new(2, 5)]);
        assert!((perf_25 - 1.0).abs() < 1e-9, "got {perf_25}");
        // (5,6) is encoded but no backup avoids both endpoints: performance 0.
        let perf_56 = ts.encoding_performance(&table, &all, &[AsLink::new(5, 6)]);
        assert!(perf_56.abs() < 1e-9, "got {perf_56}");
        // Unknown link: nothing reroutable.
        assert_eq!(
            ts.encoding_performance(&table, &all, &[AsLink::new(77, 88)]),
            0.0
        );
        // Empty prediction is trivially fully covered.
        assert_eq!(
            ts.encoding_performance(&table, &PrefixSet::new(), &[AsLink::new(2, 5)]),
            1.0
        );
    }

    /// Fig. 1 with no LOCAL_PREF: peer 3's paths are the shortest, so it is
    /// the primary everywhere, and peers 2 and 4 offer the longer alternates.
    fn shortest_first_table() -> RoutingTable {
        let mut t = RoutingTable::new();
        for peer in [2u32, 3, 4] {
            t.add_peer(PeerId(peer), Asn(peer));
        }
        // AS 6's prefixes, then AS 7's and AS 8's behind it.
        for (block, tail) in [(0u32, &[][..]), (10, &[7]), (20, &[8])] {
            for i in block..block + 10 {
                for hops in [&[2u32, 5, 6][..], &[4, 5, 6], &[3, 6]] {
                    let path: Vec<u32> = hops.iter().chain(tail).copied().collect();
                    t.announce(PeerId(hops[0]), p(i), route(hops[0], &path));
                }
            }
        }
        t
    }

    #[test]
    fn tags_carry_no_backup_where_every_alternate_meets_the_link() {
        let table = shortest_first_table();
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        let tag = ts.tag_of(&table, &p(0)).unwrap();
        let layout = ts.layout();
        assert_eq!(
            layout.get_nexthop(tag, 0),
            ts.nexthop_slot(PeerId(3)).unwrap()
        );
        // Primary path (3 6): a backup for (3,6) must avoid AS 3 and AS 6,
        // and every alternate ends in AS 6. Position 2 is past the path.
        assert_ne!(layout.get_position(tag, 1), 0, "(3,6) is encoded");
        assert_eq!(layout.get_nexthop(tag, 1), 0);
        assert_eq!(layout.get_nexthop(tag, 2), 0);
        // No encoded (prefix, position) pair of the table has a backup.
        assert_eq!(ts.backup_coverage(), 0.0);
    }

    #[test]
    fn tags_carry_a_disjoint_backup_except_beside_the_origin() {
        // Peer 9 offers a path to AS 8's prefixes that avoids AS 3 and AS 6.
        let mut table = shortest_first_table();
        table.add_peer(PeerId(9), Asn(9));
        for i in 20..30 {
            table.announce(PeerId(9), p(i), route(9, &[9, 11, 8]));
        }
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        let tag = ts.tag_of(&table, &p(20)).unwrap();
        let layout = ts.layout();
        // Best is still peer 3 (3 6 8): the tie with (9 11 8) goes to the
        // lower peer id. (3,6) is protected by peer 9; (6,8) cannot be, as
        // every path visits the origin AS 8.
        assert_eq!(
            layout.get_nexthop(tag, 0),
            ts.nexthop_slot(PeerId(3)).unwrap()
        );
        assert_eq!(
            layout.get_nexthop(tag, 1),
            ts.nexthop_slot(PeerId(9)).unwrap()
        );
        assert_ne!(layout.get_position(tag, 2), 0, "(6,8) is encoded");
        assert_eq!(layout.get_nexthop(tag, 2), 0);
        // Encoded pairs: (3,6) for all 30 prefixes, (6,7) and (6,8) for ten
        // each; covered: (3,6) of AS 8's ten.
        assert!((ts.backup_coverage() - 10.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn an_empty_table_has_no_tags_and_full_backup_coverage() {
        let table = RoutingTable::new();
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        assert_eq!((ts.stage1_len(), ts.stage1_slots()), (0, 0));
        assert_eq!(ts.backup_coverage(), 1.0);
    }

    #[test]
    fn tags_differ_between_prefixes_with_different_paths() {
        let table = fig1_table(10);
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        let t6 = ts.tag_of(&table, &p(0)).unwrap();
        let t7 = ts.tag_of(&table, &p(10)).unwrap();
        let t8 = ts.tag_of(&table, &p(20)).unwrap();
        assert_eq!(
            ts.layout().get_position(t6, 1),
            ts.layout().get_position(t7, 1),
            "all share link (2,5) at position 1"
        );
        assert_ne!(
            ts.layout().get_position(t7, 3),
            ts.layout().get_position(t8, 3),
            "position 3 distinguishes (6,7) from (6,8)"
        );
        // Same-path prefixes share the same tag.
        assert_eq!(t6, ts.tag_of(&table, &p(1)).unwrap());
    }

    #[test]
    fn remove_reroute_undoes_exactly_one_inference() {
        let table = fig1_table(10);
        let mut ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        let (id_a, installed_a) = ts.install_reroute_tracked(&[AsLink::new(2, 5)]);
        assert!(installed_a >= 1);
        // A second, disjoint reroute on an unencoded link installs nothing but
        // still consumes a distinct id.
        let (id_b, installed_b) = ts.install_reroute_tracked(&[AsLink::new(99, 100)]);
        assert_ne!(id_a, id_b);
        assert_eq!(installed_b, 0);
        assert_eq!(ts.swift_rule_count(), installed_a);
        // Removing the empty reroute touches nothing.
        assert_eq!(ts.remove_reroute(id_b), 0);
        assert_eq!(ts.swift_rule_count(), installed_a);
        // Removing the real one restores primary forwarding.
        assert_eq!(ts.remove_reroute(id_a), installed_a);
        assert_eq!(ts.swift_rule_count(), 0);
        assert_eq!(ts.lookup(&table, &p(0)), Some(PeerId(2)));
        // Removing an already-removed reroute is a no-op.
        assert_eq!(ts.remove_reroute(id_a), 0);
    }

    #[test]
    fn overlapping_reroutes_survive_out_of_order_removal() {
        // Two sessions infer the same failed link: the second reroute's rules
        // are all claims on the first's. Removing the *older* reroute first
        // (a session teardown mid-burst) must keep the shared rules alive
        // for the younger one.
        let table = fig1_table(10);
        let mut ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        let (id_a, installed_a) = ts.install_reroute_tracked(&[AsLink::new(2, 5)]);
        assert!(installed_a >= 1);
        let (id_b, installed_b) = ts.install_reroute_tracked(&[AsLink::new(2, 5)]);
        assert_eq!(
            installed_b, 0,
            "identical rules are no new data-plane updates"
        );
        assert_eq!(
            ts.swift_rule_count(),
            installed_a,
            "one shared set of rules"
        );
        // Oldest removed first: the rules are still claimed by id_b.
        assert_eq!(ts.remove_reroute(id_a), 0);
        assert_eq!(ts.swift_rule_count(), installed_a);
        assert_eq!(
            ts.lookup(&table, &p(0)),
            Some(PeerId(3)),
            "the younger reroute still redirects traffic"
        );
        // Last claim released: now the rules really leave the data plane.
        assert_eq!(ts.remove_reroute(id_b), installed_a);
        assert_eq!(ts.swift_rule_count(), 0);
        assert_eq!(ts.lookup(&table, &p(0)), Some(PeerId(2)));
    }

    #[test]
    fn refresh_prefixes_tracks_route_changes() {
        let mut table = fig1_table(10);
        let policy = ReroutingPolicy::allow_all();
        let mut ts = TwoStageTable::build(&table, &config(), &policy);
        assert_eq!(ts.lookup(&table, &p(0)), Some(PeerId(2)));

        // Peer 2 withdraws p(0): after a refresh of just that prefix the
        // lookup follows the new best route; other prefixes are untouched.
        table.apply(
            PeerId(2),
            &swift_bgp::ElementaryEvent::Withdraw {
                timestamp: 0,
                prefix: p(0),
            },
        );
        let ids: Vec<PrefixId> = table.ids().collect();
        assert_eq!(
            table.prefix_of(ids[1]),
            p(1),
            "ids follow announcement order"
        );
        assert_eq!(ts.refresh_ids(&table, &policy, [ids[0]]), 1);
        assert_eq!(
            ts.lookup(&table, &p(0)),
            Some(PeerId(3)),
            "new best is peer 3"
        );
        assert_eq!(ts.lookup(&table, &p(1)), Some(PeerId(2)));

        // All peers withdraw p(1): the stage-1 entry disappears.
        for peer in [2u32, 3, 4] {
            table.apply(
                PeerId(peer),
                &swift_bgp::ElementaryEvent::Withdraw {
                    timestamp: 0,
                    prefix: p(1),
                },
            );
        }
        ts.refresh_ids(&table, &policy, [ids[1]]);
        assert_eq!(ts.lookup(&table, &p(1)), None);
        assert_eq!(ts.stage1_len(), 29);

        // Refreshing every prefix of an *unchanged* table is a no-op: the
        // per-prefix path and the bulk build agree entry for entry.
        let rebuilt = TwoStageTable::build(&table, &config(), &policy);
        ts.refresh_ids(&table, &policy, table.ids());
        for i in 0..30 {
            assert_eq!(
                ts.tag_of(&table, &p(i)),
                rebuilt.tag_of(&table, &p(i)),
                "prefix {i}"
            );
        }
    }

    #[test]
    fn nexthop_index_is_capped_by_the_slot_width() {
        let mut table = RoutingTable::new();
        // 70 peers with a 6-bit next-hop slot (max 64, minus the reserved 0).
        for peer in 1..=70u32 {
            table.add_peer(PeerId(peer), Asn(peer));
            table.announce(PeerId(peer), p(peer), route(peer, &[peer, 200]));
        }
        let ts = TwoStageTable::build(&table, &config(), &ReroutingPolicy::allow_all());
        assert!(ts.stage2_len() <= 63);
    }

    /// Withdraws `prefix` on `peer`.
    fn withdraw(table: &mut RoutingTable, peer: u32, prefix: Prefix) {
        let event = swift_bgp::ElementaryEvent::Withdraw {
            timestamp: 0,
            prefix,
        };
        table.apply(PeerId(peer), &event);
    }

    #[test]
    fn id_order_build_matches_the_sorted_walk() {
        // Ids out of prefix order (announced descending), one id that lost
        // every route and one that lost its best route after interning.
        let mut table = RoutingTable::new();
        for peer in [2u32, 3, 4] {
            table.add_peer(PeerId(peer), Asn(peer));
        }
        for i in (0..60u32).rev() {
            let origin = 6 + i % 3;
            table.announce(PeerId(2), p(i), route(2, &[2, 5, 6, origin]));
            table.announce(PeerId(3), p(i), route(3, &[3, 6, origin, 9]));
            if i % 4 == 0 {
                table.announce(PeerId(4), p(i), route(4, &[4, 5 + i % 2, origin]));
            }
        }
        for peer in [2u32, 3, 4] {
            withdraw(&mut table, peer, p(8));
        }
        withdraw(&mut table, 2, p(9));
        let policy = ReroutingPolicy::allow_all();
        let ts = TwoStageTable::build(&table, &config(), &policy);

        // The plan, from the sorted best-route walk on the default hasher.
        let mut counts = std::collections::HashMap::new();
        for (_, best) in table.best_routes() {
            for (i, link) in best.as_path().links().enumerate() {
                *counts.entry((i + 1, link)).or_insert(0) += 1;
            }
        }
        assert_eq!(ts.plan(), &EncodingPlan::from_counts(&counts, &config()));
        assert!(
            ts.plan().total_encoded_links() >= 4,
            "the plan is not empty"
        );

        // The tags, prefix by prefix in ascending prefix order.
        let mut routed = 0;
        for (prefix, candidates) in table.routed() {
            routed += 1;
            let tag = ts.compute_tag(candidates, &policy);
            assert!(tag.is_some());
            assert_eq!(ts.tag_of(&table, prefix), tag, "{prefix}");
        }
        assert_eq!(routed, 59);
        assert_eq!(ts.stage1_len(), routed);
        assert_eq!(ts.tag_of(&table, &p(8)), None, "interned, unrouted");
        assert_eq!(ts.stage1_slots(), table.id_count());
    }

    #[test]
    fn stage1_grows_for_prefixes_announced_after_build() {
        let mut table = fig1_table(10);
        let policy = ReroutingPolicy::allow_all();
        let mut ts = TwoStageTable::build(&table, &config(), &policy);
        assert_eq!(ts.stage1_slots(), 30);

        // A prefix first announced after the build has an id past the array:
        // no tag until it is refreshed, then the array covers it.
        let late = table
            .announce(PeerId(3), p(500), route(3, &[3, 6, 7]))
            .unwrap();
        assert_eq!(late.index(), 30);
        assert_eq!(ts.lookup(&table, &p(500)), None);
        ts.refresh_ids(&table, &policy, [late]);
        assert_eq!(ts.lookup(&table, &p(500)), Some(PeerId(3)));
        assert_eq!((ts.stage1_len(), ts.stage1_slots()), (31, 31));
        assert_eq!(ts.lookup(&table, &p(501)), None, "never announced");

        // It loses its only route: the tag goes, the slot stays.
        withdraw(&mut table, 3, p(500));
        ts.refresh_ids(&table, &policy, [late]);
        assert_eq!(ts.lookup(&table, &p(500)), None);
        assert_eq!((ts.stage1_len(), ts.stage1_slots()), (30, 31));

        // Removing the tag of an id past the end grows nothing.
        let later = table
            .announce(PeerId(3), p(600), route(3, &[3, 6, 7]))
            .unwrap();
        withdraw(&mut table, 3, p(600));
        ts.refresh_ids(&table, &policy, [later]);
        assert_eq!((ts.stage1_len(), ts.stage1_slots()), (30, 31));
    }

    #[test]
    #[should_panic(expected = "no tag")]
    fn a_64_bit_layout_is_refused() {
        let wide = EncodingConfig {
            total_bits: 64,
            path_bits: 4,
            ..config()
        };
        TwoStageTable::build(&fig1_table(10), &wide, &ReroutingPolicy::allow_all());
    }
}
