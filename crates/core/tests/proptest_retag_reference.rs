//! Differential property test of the stage-1 retag against a naive model.
//!
//! The library computes a tag from hashed per-position link dictionaries and
//! bit groups whose offsets `TagLayout::new` computes once. The model here
//! shares neither: it rebuilds the encoding plan as ordered maps from the
//! table's best routes (the allocator's rule: candidates above the
//! threshold, highest prefix count first, admitted while the bit budget
//! allows), sums each group's offset on every read and write, and picks each
//! position's backup with `select_backup_among`, one prefix at a time.
//!
//! Inputs: 2–8 peers, paths of 1–7 hops over a small AS universe (so links
//! repeat at every position), depth 1–4, tight and loose bit budgets, and
//! policies that forbid and rank peers. Every prefix's tag must equal the
//! model's after the build, and again after random churn and a resync (the
//! plan, layout and next-hop index stay those of the build). The rule count
//! of `install_reroute_tracked` for every link must be the number of
//! distinct backups the model's tags carry for it.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
};
use swift_core::encoding::{select_backup_among, ReroutingPolicy};
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, SwiftConfig};

/// Prefix indexes the table and the churn draw from.
const PREFIXES: u32 = 24;
/// Tail ASes of a path: `FIRST_AS..FIRST_AS + ASES`.
const FIRST_AS: u32 = 10;
const ASES: u32 = 6;

fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(i)
}

/// One route: `(peer draw, prefix index, tail hops, LOCAL_PREF draw)`.
type Announce = (u32, u32, Vec<u32>, u32);

fn arb_announce() -> impl Strategy<Value = Announce> {
    (
        0u32..64,
        0u32..PREFIXES,
        proptest::collection::vec(0u32..ASES, 0..7),
        0u32..3,
    )
}

/// The route `peer` announces: its own AS, then 0–6 tail hops.
fn route(peer: PeerId, tail: &[u32], local_pref: u32, t: u64) -> Route {
    let hops = std::iter::once(peer.0).chain(tail.iter().map(|x| FIRST_AS + x));
    let mut attrs = RouteAttributes::from_path(AsPath::new(hops));
    attrs.local_pref = [None, Some(100), Some(200)][local_pref as usize];
    Route::new(peer, attrs, t)
}

/// The model's encoding plan: one ordered map per position, and the bits
/// each position takes.
struct Plan {
    per_position: Vec<BTreeMap<AsLink, u64>>,
    bits: Vec<u8>,
}

fn bits_for(n: usize) -> u32 {
    usize::BITS - n.leading_zeros()
}

fn model_plan(table: &RoutingTable, config: &EncodingConfig) -> Plan {
    let mut counts: BTreeMap<(usize, AsLink), usize> = BTreeMap::new();
    for (_, best) in table.best_routes() {
        for (pos, link) in (1..=config.max_depth).zip(best.as_path().links()) {
            *counts.entry((pos, link)).or_insert(0) += 1;
        }
    }
    let mut candidates: Vec<(usize, (usize, AsLink))> = counts
        .into_iter()
        .filter(|(_, count)| *count >= config.min_prefixes_per_link)
        .map(|(key, count)| (count, key))
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut per_position = vec![BTreeMap::new(); config.max_depth];
    for (_, (pos, link)) in candidates {
        let mut sizes: Vec<usize> = per_position.iter().map(BTreeMap::len).collect();
        sizes[pos - 1] += 1;
        if sizes.iter().map(|n| bits_for(*n)).sum::<u32>() <= u32::from(config.path_bits) {
            let code = per_position[pos - 1].len() as u64 + 1;
            per_position[pos - 1].insert(link, code);
        }
    }
    let bits = per_position
        .iter()
        .map(|m| bits_for(m.len()) as u8)
        .collect();
    Plan { per_position, bits }
}

/// The model's tag layout: every offset summed again on every access.
struct Layout {
    position_bits: Vec<u8>,
    nexthop_bits: u8,
    nexthop_slots: usize,
}

impl Layout {
    fn position_group(&self, pos: usize) -> (u32, u8) {
        let before: u32 = self.position_bits[..pos - 1]
            .iter()
            .map(|b| u32::from(*b))
            .sum();
        let nexthops = u32::from(self.nexthop_bits) * self.nexthop_slots as u32;
        (nexthops + before, self.position_bits[pos - 1])
    }

    fn nexthop_group(&self, slot: usize) -> (u32, u8) {
        (
            u32::from(self.nexthop_bits) * slot as u32,
            self.nexthop_bits,
        )
    }

    fn put(tag: u64, (shift, bits): (u32, u8), value: u64) -> u64 {
        if bits == 0 {
            return tag;
        }
        let mask = ((1u64 << bits) - 1) << shift;
        (tag & !mask) | ((value << shift) & mask)
    }

    fn read(tag: u64, (shift, bits): (u32, u8)) -> u64 {
        if bits == 0 {
            return 0;
        }
        (tag >> shift) & ((1u64 << bits) - 1)
    }
}

/// Everything a retag reads that the build fixed.
struct Model {
    plan: Plan,
    layout: Layout,
    /// The next-hops in tag slot order: `nexthops[i]` has slot `i + 1`.
    nexthops: Vec<PeerId>,
    policy: ReroutingPolicy,
}

impl Model {
    fn build(table: &RoutingTable, config: &EncodingConfig, policy: &ReroutingPolicy) -> Self {
        let plan = model_plan(table, config);
        let layout = Layout {
            position_bits: plan.bits.clone(),
            nexthop_bits: config.bits_per_nexthop(),
            nexthop_slots: config.max_depth + 1,
        };
        let mut nexthops: Vec<PeerId> = table.peers().map(|(peer, _)| peer).collect();
        nexthops.sort();
        nexthops.truncate(config.max_nexthops().saturating_sub(1));
        Model {
            plan,
            layout,
            nexthops,
            policy: policy.clone(),
        }
    }

    fn slot(&self, peer: PeerId) -> u64 {
        self.nexthops
            .iter()
            .position(|p| *p == peer)
            .map_or(0, |i| i as u64 + 1)
    }

    /// The tag `prefix` must carry under `table`'s current routes.
    fn tag(&self, table: &RoutingTable, prefix: &Prefix) -> Option<u64> {
        let candidates = table.candidates(prefix);
        let best = candidates.clone().max_by(|a, b| a.compare_preference(b))?;
        let mut tag = Layout::put(0, self.layout.nexthop_group(0), self.slot(best.peer));
        for pos in 1..=self.plan.per_position.len() {
            let Some(link) = best.as_path().link_at_position(pos) else {
                break;
            };
            let code = self.plan.per_position[pos - 1].get(&link).copied();
            tag = Layout::put(tag, self.layout.position_group(pos), code.unwrap_or(0));
            let backup = select_backup_among(candidates.clone(), best.peer, &link, &self.policy);
            let slot = backup.map_or(0, |peer| self.slot(peer));
            tag = Layout::put(tag, self.layout.nexthop_group(pos), slot);
        }
        Some(tag)
    }

    /// The rules an install of `link` must add to a table holding none: per
    /// position the link is encoded at, one per distinct backup slot the
    /// tags crossing it there carry.
    fn rules_for(&self, tags: &[u64], link: &AsLink) -> usize {
        let mut rules = 0;
        for (i, codes) in self.plan.per_position.iter().enumerate() {
            let Some(code) = codes.get(link) else {
                continue;
            };
            let pos = i + 1;
            let backups: BTreeSet<u64> = tags
                .iter()
                .filter(|tag| Layout::read(**tag, self.layout.position_group(pos)) == *code)
                .map(|tag| Layout::read(*tag, self.layout.nexthop_group(pos)))
                .filter(|slot| *slot != 0)
                .collect();
            rules += backups.len();
        }
        rules
    }
}

/// Every link a path of the generated tables can hold.
fn all_links(peers: u32) -> Vec<AsLink> {
    let ases = (1..=peers).chain(FIRST_AS..FIRST_AS + ASES);
    let ases: Vec<u32> = ases.collect();
    ases.iter()
        .flat_map(|a| ases.iter().map(move |b| AsLink::new(*a, *b)))
        .collect()
}

/// The library's tags, plan and install counts against the model's.
fn check(applier: &Applier, model: &Model, peers: u32) -> Result<(), String> {
    let (fw, table) = (applier.forwarding(), applier.table());
    let plan = fw.plan();
    prop_assert_eq!(plan.bits_per_position(), &model.plan.bits[..]);
    let encoded: usize = model.plan.per_position.iter().map(BTreeMap::len).sum();
    prop_assert_eq!(plan.total_encoded_links(), encoded);
    for (i, codes) in model.plan.per_position.iter().enumerate() {
        prop_assert_eq!(plan.links_at(i + 1), codes.len());
        for (link, code) in codes {
            prop_assert_eq!(plan.code_of(i + 1, link), Some(*code));
        }
    }
    let mut tags = Vec::new();
    for prefix in (0..PREFIXES).map(p) {
        let (tag, expected) = (fw.tag_of(table, &prefix), model.tag(table, &prefix));
        prop_assert!(
            tag == expected,
            "{prefix}: {tag:x?}, expected {expected:x?}"
        );
        tags.extend(expected);
    }
    prop_assert_eq!(fw.stage1_len(), tags.len());
    for link in all_links(peers) {
        let (_, installed) = fw.clone().install_reroute_tracked(&[link]);
        let expected = model.rules_for(&tags, &link);
        prop_assert!(
            installed == expected,
            "{link:?}: {installed} rules, expected {expected}"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn the_retag_equals_a_naive_model(
        shape in (2u32..9, 1usize..5, 3u8..20, 1usize..4),
        seed in proptest::collection::vec(arb_announce(), 4..60),
        policy_draws in proptest::collection::vec((0u32..8, 0u32..4, -1i32..2), 0..6),
        churn in proptest::collection::vec((any::<bool>(), arb_announce()), 1..40),
    ) {
        let (peers, max_depth, path_bits, min_prefixes_per_link) = shape;
        let config = EncodingConfig {
            path_bits,
            max_depth,
            min_prefixes_per_link,
            ..Default::default()
        };
        let peer = |draw: u32| PeerId(1 + draw % peers);
        let mut table = RoutingTable::new();
        for k in 1..=peers {
            table.add_peer(PeerId(k), Asn(k));
        }
        for (draw, i, tail, lp) in &seed {
            table.announce(peer(*draw), p(*i), route(peer(*draw), tail, *lp, 0));
        }
        let mut policy = ReroutingPolicy::allow_all();
        for (draw, kind, rank) in &policy_draws {
            policy = match kind {
                0 => policy.forbid(peer(*draw)),
                _ => policy.rank(peer(*draw), *rank),
            };
        }

        let model = Model::build(&table, &config, &policy);
        let swift = SwiftConfig { encoding: config, ..Default::default() };
        let mut applier = Applier::new(swift, table, policy);
        check(&applier, &model, peers)?;

        for (k, (withdraw, (draw, i, tail, lp))) in churn.iter().enumerate() {
            let t = k as u64 + 1;
            let event = if *withdraw {
                ElementaryEvent::Withdraw { timestamp: t, prefix: p(*i) }
            } else {
                let attrs = route(peer(*draw), tail, *lp, t).attrs;
                ElementaryEvent::Announce { timestamp: t, prefix: p(*i), attrs }
            };
            applier.note_event(peer(*draw), &event);
        }
        applier.resync_after_convergence();
        check(&applier, &model, peers)?;
    }
}
