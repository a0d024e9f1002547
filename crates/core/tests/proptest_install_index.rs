//! Property tests for the two indexes the applier's per-event path rests on:
//!
//! * **index equals scan** — `TwoStageTable::install_reroute_tracked` reads
//!   the backups in use off the `(position, code) → next-hop refcount` index.
//!   The reference here is the stage-1 scan the library used to run, written
//!   over the public accessors (`tag_of`, `layout()`, `plan()`): after every
//!   step of a random announce / withdraw / path-change / resync / direct
//!   `refresh_prefixes` / session teardown / session registration / install
//!   sequence — and on a `partition_clone` of the table — both must push the
//!   same stage-2 entries in the same order and count the same rules.
//! * **incremental resync equals rebuild** — the id-keyed dirty set must
//!   retag exactly what changed: `resync_after_convergence` and
//!   `resync_with_rebuild` forward every prefix identically, and tag it
//!   identically whenever the rebuild arrived at the same encoding plan.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, PrefixSet, Route, RouteAttributes,
    RoutingTable,
};
use swift_core::encoding::{ReroutingPolicy, Stage2Rule, TwoStageTable};
use swift_core::inference::{InferenceResult, InferredLinks, Prediction, Score};
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, SwiftConfig};

/// Peers 1 and 2 are sessions (their routes carry LOCAL_PREF 200 / 150),
/// 3 and 4 are backup providers. All four are in the table at build time, so
/// all four own a next-hop slot.
const PEERS: u32 = 4;
const PREFIXES: u32 = 32;

fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(i)
}

fn universe() -> Vec<Prefix> {
    (0..PREFIXES).map(p).collect()
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
    for peer in 1..=PEERS {
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
        (0u8..12, 1u32..PEERS + 1, 0u32..PREFIXES, (0u32..3, 0u32..4)),
        1..40,
    )
}

/// The stage-2 entries an install of `links` must push, by the stage-1 scan
/// the refcount index replaced: per link and encoded position, one rule per
/// backup next-hop carried by a tag crossing the link there, ascending by
/// next-hop slot.
fn scan_rules(fw: &TwoStageTable, peers: &[PeerId], links: &[AsLink]) -> Vec<Stage2Rule> {
    let mut rules = Vec::new();
    for link in links {
        for pos in fw.plan().positions_of(link) {
            let code = fw.plan().code_of(pos, link).expect("encoded position");
            let mut backups_in_use = BTreeSet::new();
            for tag in universe().iter().filter_map(|prefix| fw.tag_of(prefix)) {
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
fn check_install(fw: &TwoStageTable, peers: &[PeerId], links: &[AsLink]) -> Result<(), String> {
    let mut installed = fw.clone();
    let before = installed.stage2_len();
    let (id, count) = installed.install_reroute_tracked(links);
    let expected: Vec<Stage2Rule> = scan_rules(fw, peers, links)
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
/// once and for an unencoded link — on the table and on a partition of it.
fn check_index(fw: &TwoStageTable, peers: &[PeerId]) -> Result<(), String> {
    let links = all_links();
    for link in &links {
        check_install(fw, peers, &[*link])?;
    }
    check_install(fw, peers, &links)?;
    check_install(fw, peers, &[AsLink::new(900, 901)])?;
    let part = fw.partition_clone(|prefix| (prefix.addr() >> 8) & 1 == 0);
    prop_assert_eq!(part.swift_rule_count(), 0);
    for prefix in universe() {
        let kept = (prefix.addr() >> 8) & 1 == 0;
        prop_assert_eq!(part.tag_of(&prefix), fw.tag_of(&prefix).filter(|_| kept));
    }
    check_install(&part, peers, &links)
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
        prediction: Prediction {
            already_withdrawn: PrefixSet::new(),
            predicted: Arc::new(PrefixSet::new()),
        },
    }
}

proptest! {
    #[test]
    fn install_index_equals_scan_and_resync_equals_rebuild(
        seed in arb_table(),
        ops in arb_ops(),
    ) {
        let mut table = RoutingTable::new();
        let peers: Vec<PeerId> = (1..=PEERS).map(PeerId).collect();
        for peer in &peers {
            table.add_peer(*peer, Asn(peer.0));
        }
        for (peer, i, x, y) in &seed {
            table.announce(PeerId(*peer), p(*i), route(*peer, *x, *y, 0));
        }
        let policy = ReroutingPolicy::allow_all();
        let mut applier = Applier::new(config(), table, policy.clone());
        check_index(applier.forwarding(), &peers)?;

        let links = all_links();
        for (k, (kind, peer, i, (x, y))) in ops.iter().enumerate() {
            let t = k as u64 + 1;
            match kind {
                // Announcement: a new route or a path change.
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
                    let expected = scan_rules(&fw, &peers, &[link])
                        .iter()
                        .filter(|rule| {
                            !fw.stage2_rules()
                                .iter()
                                .any(|r| r.swift_installed && r.rule == rule.rule)
                        })
                        .count();
                    prop_assert_eq!(action.rules_installed, expected);
                }
                // Convergence: the incremental resync against the rebuild.
                6 | 7 => {
                    let mut rebuilt = applier.clone();
                    let removed = applier.resync_after_convergence();
                    prop_assert_eq!(removed, rebuilt.resync_with_rebuild());
                    let (inc, reb) = (applier.forwarding(), rebuilt.forwarding());
                    prop_assert_eq!(inc.swift_rule_count(), 0);
                    prop_assert_eq!(inc.stage1_len(), reb.stage1_len());
                    let same_plan = format!("{:?}", inc.plan()) == format!("{:?}", reb.plan());
                    for prefix in universe() {
                        prop_assert_eq!(inc.lookup(&prefix), reb.lookup(&prefix));
                        prop_assert_eq!(inc.tag_of(&prefix).is_some(), reb.tag_of(&prefix).is_some());
                        if same_plan {
                            prop_assert_eq!(inc.tag_of(&prefix), reb.tag_of(&prefix));
                        }
                    }
                }
                8 => {
                    applier.teardown_session(PeerId(*peer));
                }
                9 => {
                    let routes: Vec<(Prefix, Route)> = (0..*i)
                        .map(|j| (p(j), route(*peer, x + j, y + j / 3, t)))
                        .collect();
                    applier.register_session(PeerId(*peer), Asn(*peer), routes);
                }
                // A direct refresh of a few prefixes on a copy of the table:
                // stage 1 there is partly current, partly stale.
                _ => {
                    let mut fw = applier.forwarding().clone();
                    fw.refresh_prefixes(applier.table(), &policy, (0..*i).step_by(3).map(p));
                    check_index(&fw, &peers)?;
                }
            }
            check_index(applier.forwarding(), &peers)?;
        }
    }
}
