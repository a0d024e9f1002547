//! Property tests for the two indexes the applier's per-event path rests on:
//!
//! * **index equals scan** — `TwoStageTable::install_reroute_tracked` reads
//!   the backups in use off the `(position, code) → next-hop refcount` index.
//!   The reference here is the stage-1 scan the library used to run, written
//!   over the public accessors (`tag_of`, `layout()`, `plan()`): after every
//!   step of a random announce / withdraw / path-change / resync / direct
//!   `refresh_ids` / session teardown / session registration / install
//!   sequence both must push the same stage-2 entries in the same order and
//!   count the same rules.
//! * **incremental resync equals rebuild** — the id-keyed dirty set and the
//!   id-indexed stage 1 must retag exactly what changed:
//!   `resync_after_convergence` and `resync_with_rebuild` forward every
//!   prefix identically, and tag it identically whenever the rebuild arrived
//!   at the same encoding plan.
//!
//! * **the retag equals its reference** — after every resync, and for every
//!   id of a direct `refresh_ids`, a prefix's tag is the one
//!   `reference_tag` computes prefix by prefix from the public accessors and
//!   `select_backup_among`, with no batches.
//!
//! Both hold where the stage-1 array has to *grow*: the random steps draw
//! from `LATE` prefixes the seed table never holds, and every case ends with
//! a fixed tail on a prefix no step can have touched — first announced after
//! the build, retagged, withdrawn again — beside one that is never announced.
//! They hold for the retag's batch edges: direct refreshes take id lists of
//! 1, B − 1, B, B + 1 and 2B + 3 ids (B = `TwoStageTable::RETAG_BATCH`), each
//! id twice in a row, and a registration announces one prefix twice; and for
//! prefixes with more candidates than a retag gathers (`CROWDED`).

use proptest::prelude::*;
use std::collections::BTreeSet;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, PrefixId, Route, RouteAttributes,
    RoutingTable,
};
use swift_core::encoding::{select_backup_among, ReroutingPolicy, Stage2Rule, TwoStageTable};
use swift_core::inference::{InferenceResult, InferredLinks, Prediction, Score};
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, SwiftConfig};

/// Peers 1 and 2 are sessions (their routes carry LOCAL_PREF 200 / 150),
/// 3 and 4 are backup providers. All four are in the table at build time, so
/// all four own a next-hop slot.
const PEERS: u32 = 4;
/// Further peers, also in the table at build time, that announce only the
/// `CROWDED` prefixes: those hold more candidates than a retag gathers.
const CROWD: u32 = TwoStageTable::RETAG_GATHER as u32 + 1;
/// The seed table's crowded prefixes: indexes `0..CROWDED`.
const CROWDED: u32 = 3;
/// Prefix indexes the seed table draws from.
const PREFIXES: u32 = 32;
/// Further indexes only the random steps draw from: a prefix among them is
/// first announced after the forwarding table was built, if at all.
const LATE: u32 = 8;
/// Indexes reserved for the fixed tail of each case.
const FRESH: u32 = 4;
/// Never announced by anything.
const NEVER: u32 = 1_000;

fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(i)
}

/// Every prefix that can ever carry a tag.
fn universe() -> Vec<Prefix> {
    (0..PREFIXES + LATE + FRESH).map(p).collect()
}

/// A path from `peer` over a tiny AS universe, so paths share links at every
/// position and backups sometimes visit the protected link's endpoints.
fn path(peer: u32, x: u32, y: u32) -> AsPath {
    AsPath::new([peer, 10 + x % 3, 20 + y % 4, 30 + (x + y) % 2])
}

fn route(peer: u32, x: u32, y: u32, t: u64) -> Route {
    let mut attrs = RouteAttributes::from_path(path(peer, x, y));
    attrs.local_pref = match peer {
        1 => Some(200),
        2 => Some(150),
        _ => None,
    };
    Route::new(PeerId(peer), attrs, t)
}

/// Every link a generated path can contain.
fn all_links() -> Vec<AsLink> {
    let mut links = BTreeSet::new();
    for peer in 1..=PEERS + CROWD {
        for x in 0..3 {
            for y in 0..4 {
                links.extend(path(peer, x, y).links());
            }
        }
    }
    links.into_iter().collect()
}

fn config() -> SwiftConfig {
    SwiftConfig {
        encoding: EncodingConfig {
            min_prefixes_per_link: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The initial table: `(peer, prefix index, x, y)` announcements.
fn arb_table() -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
    proptest::collection::vec((1u32..PEERS + 1, 0u32..PREFIXES, 0u32..3, 0u32..4), 20..160)
}

/// One step: `(operation, peer, prefix index, (x, y))`.
type Op = (u8, u32, u32, (u32, u32));

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..12,
            1u32..PEERS + 1,
            0u32..PREFIXES + LATE,
            (0u32..3, 0u32..4),
        ),
        1..40,
    )
}

/// The stage-2 entries an install of `links` must push, by the stage-1 scan
/// the refcount index replaced: per link and encoded position, one rule per
/// backup next-hop carried by a tag crossing the link there, ascending by
/// next-hop slot.
fn scan_rules(
    fw: &TwoStageTable,
    table: &RoutingTable,
    peers: &[PeerId],
    links: &[AsLink],
) -> Vec<Stage2Rule> {
    let mut rules = Vec::new();
    for link in links {
        for (pos, code) in fw.plan().codes_of(link) {
            let mut backups_in_use = BTreeSet::new();
            for tag in universe().iter().filter_map(|q| fw.tag_of(table, q)) {
                if fw.layout().get_position(tag, pos) == code {
                    let nh = fw.layout().get_nexthop(tag, pos);
                    if nh != 0 {
                        backups_in_use.insert(nh);
                    }
                }
            }
            for nh in backups_in_use {
                let next_hop = *peers
                    .iter()
                    .find(|peer| fw.nexthop_slot(**peer) == Some(nh))
                    .expect("every slot in a tag belongs to a peer");
                rules.push(Stage2Rule {
                    priority: 100,
                    rule: fw.layout().reroute_rule(pos, code, nh),
                    next_hop,
                    swift_installed: true,
                    reroute: None,
                });
            }
        }
    }
    rules
}

/// Installs `links` on a copy of `fw` and compares what was pushed, and the
/// number of new data-plane rules, with the scan.
fn check_install(
    fw: &TwoStageTable,
    table: &RoutingTable,
    peers: &[PeerId],
    links: &[AsLink],
) -> Result<(), String> {
    let mut installed = fw.clone();
    let before = installed.stage2_len();
    let (id, count) = installed.install_reroute_tracked(links);
    let expected: Vec<Stage2Rule> = scan_rules(fw, table, peers, links)
        .into_iter()
        .map(|rule| Stage2Rule {
            reroute: Some(id),
            ..rule
        })
        .collect();
    prop_assert_eq!(&installed.stage2_rules()[before..], &expected[..]);
    // Rules an outstanding reroute already holds are claims, not updates.
    let held = |rule: &Stage2Rule| {
        let same = |r: &Stage2Rule| r.swift_installed && r.rule == rule.rule;
        fw.stage2_rules().iter().any(same)
    };
    let expected_count = expected.iter().filter(|rule| !held(rule)).count();
    prop_assert_eq!(count, expected_count);
    prop_assert_eq!(
        installed.swift_rule_count(),
        fw.swift_rule_count() + expected_count
    );
    Ok(())
}

/// The index answers like the scan for every single link, for all links at
/// once and for an unencoded link. `table` is the owning table of `fw`.
fn check_index(fw: &TwoStageTable, table: &RoutingTable, peers: &[PeerId]) -> Result<(), String> {
    prop_assert!(fw.stage1_slots() <= table.id_count());
    let tagged = universe()
        .into_iter()
        .filter(|q| fw.tag_of(table, q).is_some());
    prop_assert_eq!(fw.stage1_len(), tagged.count());
    prop_assert_eq!(fw.lookup(table, &p(NEVER)), None);
    let links = all_links();
    for link in &links {
        check_install(fw, table, peers, &[*link])?;
    }
    check_install(fw, table, peers, &links)?;
    check_install(fw, table, peers, &[AsLink::new(900, 901)])
}

/// The tag `prefix` must carry, from `table`'s current routes: the best
/// route's next-hop in slot 0 and, per position of its path, the link's code
/// and the backup `select_backup_among` picks — the retag, one prefix at a
/// time, over the public accessors.
fn reference_tag(
    fw: &TwoStageTable,
    table: &RoutingTable,
    policy: &ReroutingPolicy,
    prefix: &Prefix,
) -> Option<u64> {
    let (layout, plan) = (fw.layout(), fw.plan());
    let best = table.best(prefix)?;
    let slot = |peer| fw.nexthop_slot(peer).unwrap_or(0);
    let mut tag = layout.set_nexthop(0, 0, slot(best.peer));
    for pos in 1..=plan.max_depth() {
        let Some(link) = best.as_path().link_at_position(pos) else {
            break;
        };
        tag = layout.set_position(tag, pos, plan.code_of(pos, &link).unwrap_or(0));
        let backup = select_backup_among(table.candidates(prefix), best.peer, &link, policy);
        tag = layout.set_nexthop(tag, pos, backup.map_or(0, slot));
    }
    Some(tag)
}

/// Every prefix in `prefixes` carries its reference tag.
fn check_tags<'a>(
    fw: &TwoStageTable,
    table: &RoutingTable,
    prefixes: impl IntoIterator<Item = &'a Prefix>,
) -> Result<(), String> {
    let policy = ReroutingPolicy::allow_all();
    for prefix in prefixes {
        let (tag, expected) = (
            fw.tag_of(table, prefix),
            reference_tag(fw, table, &policy, prefix),
        );
        prop_assert!(tag == expected, "{prefix}: {tag:?}, expected {expected:?}");
    }
    Ok(())
}

/// Convergence on `applier`: the incremental resync against the rebuild and
/// the reference. Every prefix is current after a resync.
fn check_resync(applier: &mut Applier) -> Result<(), String> {
    let mut rebuilt = applier.clone();
    let removed = applier.resync_after_convergence();
    prop_assert_eq!(removed, rebuilt.resync_with_rebuild());
    check_tags(applier.forwarding(), applier.table(), &universe())?;
    let (inc, reb) = (applier.forwarding(), rebuilt.forwarding());
    prop_assert_eq!(inc.swift_rule_count(), 0);
    prop_assert_eq!(inc.stage1_len(), reb.stage1_len());
    let same_plan = inc.plan() == reb.plan();
    for prefix in universe().into_iter().chain([p(NEVER)]) {
        prop_assert_eq!(
            applier.forwarding_next_hop(&prefix),
            rebuilt.forwarding_next_hop(&prefix)
        );
        let tags = (
            inc.tag_of(applier.table(), &prefix),
            reb.tag_of(rebuilt.table(), &prefix),
        );
        prop_assert_eq!(tags.0.is_some(), tags.1.is_some());
        if same_plan {
            prop_assert_eq!(tags.0, tags.1);
        }
    }
    Ok(())
}

fn inference(link: AsLink, time: u64) -> InferenceResult {
    InferenceResult {
        time,
        withdrawals_seen: 1,
        links: InferredLinks {
            links: vec![link],
            score: Score {
                ws: 1.0,
                ps: 1.0,
                fs: 1.0,
            },
            withdrawn: 0,
            routed: 0,
        },
        prediction: Prediction::default(),
    }
}

proptest! {
    #[test]
    fn install_index_equals_scan_and_resync_equals_rebuild(
        seed in arb_table(),
        ops in arb_ops(),
    ) {
        let mut table = RoutingTable::new();
        let peers: Vec<PeerId> = (1..=PEERS + CROWD).map(PeerId).collect();
        for peer in &peers {
            table.add_peer(*peer, Asn(peer.0));
        }
        for peer in PEERS + 1..=PEERS + CROWD {
            for i in 0..CROWDED {
                table.announce(PeerId(peer), p(i), route(peer, peer + i, i, 0));
            }
        }
        for (peer, i, x, y) in &seed {
            table.announce(PeerId(*peer), p(*i), route(*peer, *x, *y, 0));
        }
        let policy = ReroutingPolicy::allow_all();
        let mut applier = Applier::new(config(), table, policy.clone());
        check_index(applier.forwarding(), applier.table(), &peers)?;
        check_tags(applier.forwarding(), applier.table(), &universe())?;

        let links = all_links();
        for (k, (kind, peer, i, (x, y))) in ops.iter().enumerate() {
            let t = k as u64 + 1;
            match kind {
                // Announcement: a new route, a path change or a new prefix.
                0..=2 => applier.note_event(
                    PeerId(*peer),
                    &ElementaryEvent::Announce {
                        timestamp: t,
                        prefix: p(*i),
                        attrs: route(*peer, *x, *y, t).attrs,
                    },
                ),
                3 | 4 => applier.note_event(
                    PeerId(*peer),
                    &ElementaryEvent::Withdraw { timestamp: t, prefix: p(*i) },
                ),
                // An accepted inference leaves rules outstanding, so later
                // installs meet duplicates and claims.
                5 => {
                    let link = links[(*i + *x) as usize % links.len()];
                    let fw = applier.forwarding().clone();
                    let action = applier.apply_inference(PeerId(*peer), &inference(link, t));
                    let expected = scan_rules(&fw, applier.table(), &peers, &[link])
                        .iter()
                        .filter(|rule| {
                            !fw.stage2_rules()
                                .iter()
                                .any(|r| r.swift_installed && r.rule == rule.rule)
                        })
                        .count();
                    prop_assert_eq!(action.rules_installed, expected);
                }
                6 | 7 => check_resync(&mut applier)?,
                8 => {
                    applier.teardown_session(PeerId(*peer));
                }
                // Registration; past `PREFIXES` it announces late prefixes,
                // and it announces its first prefix a second time, last.
                9 => {
                    let mut routes: Vec<(Prefix, Route)> = (0..*i)
                        .map(|j| (p(j), route(*peer, x + j, y + j / 3, t)))
                        .collect();
                    routes.extend(routes.first().map(|(q, _)| (*q, route(*peer, x + 1, *y, t))));
                    applier.register_session(PeerId(*peer), Asn(*peer), routes);
                }
                // A direct refresh on a copy of the table, where stage 1 is
                // partly current, partly stale: a list of a batch-edge
                // length, each id twice in a row.
                _ => {
                    let mut fw = applier.forwarding().clone();
                    let table = applier.table();
                    let all: Vec<PrefixId> = table.ids().collect();
                    let b = TwoStageTable::RETAG_BATCH;
                    let len = [1, b - 1, b, b + 1, 2 * b + 3][*i as usize % 5];
                    let stride = *y as usize + 1;
                    let ids: Vec<PrefixId> = (0..len)
                        .map(|j| all[(*x as usize + j / 2 * stride) % all.len()])
                        .collect();
                    prop_assert_eq!(fw.refresh_ids(table, &policy, ids.iter().copied()), len);
                    check_index(&fw, table, &peers)?;
                    let refreshed: Vec<Prefix> = ids.iter().map(|id| table.prefix_of(*id)).collect();
                    check_tags(&fw, table, &refreshed)?;
                }
            }
            check_index(applier.forwarding(), applier.table(), &peers)?;
        }

        // The fixed tail: a prefix no step above can have announced gets its
        // id — one past the stage-1 array — only now.
        let fresh = p(PREFIXES + LATE + ops.len() as u32 % FRESH);
        let t = ops.len() as u64 + 1;
        check_resync(&mut applier)?;
        let (tagged, slots) = (applier.forwarding().stage1_len(), applier.forwarding().stage1_slots());
        prop_assert_eq!(applier.table().prefix_id(&fresh), None);
        prop_assert_eq!(applier.forwarding_next_hop(&fresh), None);
        applier.note_event(
            PeerId(1),
            &ElementaryEvent::Announce { timestamp: t, prefix: fresh, attrs: route(1, 1, 2, t).attrs },
        );
        applier.sync_rib();
        let id = applier.table().prefix_id(&fresh).expect("interned by the announcement");
        prop_assert_eq!(id.index() + 1, applier.table().id_count());
        prop_assert!(slots <= id.index(), "the build cannot have sized for it");
        // Interned, not retagged yet.
        prop_assert_eq!(applier.forwarding_next_hop(&fresh), None);
        prop_assert_eq!(applier.forwarding().stage1_slots(), slots);
        check_resync(&mut applier)?;
        prop_assert_eq!(applier.forwarding_next_hop(&fresh), Some(PeerId(1)));
        prop_assert_eq!(applier.forwarding().stage1_len(), tagged + 1);
        // The array grew to cover it.
        prop_assert_eq!(applier.forwarding().stage1_slots(), id.index() + 1);
        check_index(applier.forwarding(), applier.table(), &peers)?;
        // It loses its only route: no tag, one entry fewer, the slot stays.
        applier.note_event(PeerId(1), &ElementaryEvent::Withdraw { timestamp: t + 1, prefix: fresh });
        check_resync(&mut applier)?;
        prop_assert_eq!(applier.forwarding_next_hop(&fresh), None);
        prop_assert_eq!(applier.forwarding().stage1_len(), tagged);
        prop_assert_eq!(applier.forwarding().stage1_slots(), id.index() + 1);
        check_index(applier.forwarding(), applier.table(), &peers)?;
    }
}
