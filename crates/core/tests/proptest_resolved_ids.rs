//! `SwiftRouter::handle_event` resolves each event against its routing
//! table once and hands the ids to the session's engine and to the RIB
//! mirror: a full-feed engine takes the table's prefix id below its seal
//! boundary as its own, every engine finds the path of an attribute set it
//! has seen through its memo, and the mirror folds with the ids found. None
//! of it may change a decision or a count. On random streams over a sealed
//! table of two full feeds and one small session, a `SwiftRouter` must match
//! the same composition fed unresolved — `session_engines` +
//! `SessionEngine::process` + `Applier::note_event_owned` — after every
//! step: equal reroute actions, equal `(W, P)` of every link in every
//! engine, and at every resync equal rules removed and equal mirrors.
//!
//! The streams hold withdrawals (noise included), announcements over paths
//! and attribute sets the table holds and over ones it has never seen,
//! prefixes first seen mid-stream, re-entering while their announcement
//! still waits in the mirror's buffer (so the router resolves them as
//! unknown), 9-hop paths (past what a path holds in place), link failures
//! with their recoveries, a teardown and re-registration of a session, and
//! resyncs anywhere. After every resync, each prefix's forwarding next-hop
//! must be the peer of its best route in a reference `RoutingTable` fed the
//! same events one `apply_owned` at a time: a resync that retags nothing
//! fails there.

use proptest::prelude::*;
use std::collections::BTreeMap;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
    MILLISECOND, SECOND,
};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::{EngineStatus, InferenceEngine};
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig, SwiftRouter};

const PEERS: u32 = 3;
/// Prefix indexes the table holds; those from here up to [`POOL`] only ever
/// come in as events.
const TABLE_PREFIXES: u32 = 96;
const POOL: u32 = TABLE_PREFIXES + 24;
/// The small session (peer 3) announces the first `SMALL` prefixes: fewer
/// than half of the table's, so its engine keeps a dictionary of its own.
const SMALL: u32 = 24;
/// Path shapes the table uses; events draw from twice as many.
const TABLE_SHAPES: u32 = 8;

/// Descending addresses for ascending indexes: id order is not prefix order.
fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(50_000 - i * 3)
}

/// A path of session `s`: three hops over a small AS universe, so paths
/// share links, plus a tail of one hop or, for one shape in four, of six
/// (nine hops in all).
fn path(s: u32, shape: u32) -> AsPath {
    let head = [10 * (s + 1), 100 + shape % 3, 200 + shape % 4];
    let tail: &[u32] = if shape % 4 == 3 {
        &[300, 301, 302, 303, 304, 305 + shape % 2]
    } else {
        &[300 + shape % 5]
    };
    AsPath::new(head.iter().chain(tail).copied())
}

/// Variant 0 carries the path alone; 1 and 2 add LOCAL_PREF or MED, so
/// several attribute sets share one path.
fn attrs(s: u32, shape: u32, variant: u32) -> RouteAttributes {
    let mut attrs = RouteAttributes::from_path(path(s, shape));
    match variant % 3 {
        1 => attrs.local_pref = Some(200),
        2 => attrs.med = Some(5),
        _ => {}
    }
    attrs
}

/// What session `s` announces for prefix `i` in the table, if anything.
fn table_attrs(s: u32, i: u32) -> Option<RouteAttributes> {
    match s {
        0 => Some(attrs(0, i % TABLE_SHAPES, u32::from(i % 5 == 0))),
        1 => (i % 4 != 3).then(|| attrs(1, (i / 2) % TABLE_SHAPES, 2 * u32::from(i % 7 == 0))),
        _ => (i < SMALL).then(|| attrs(2, i % 6, 0)),
    }
}

fn table() -> RoutingTable {
    let mut table = RoutingTable::new();
    for s in 0..PEERS {
        table.add_peer(PeerId(s + 1), Asn(10 * (s + 1)));
    }
    for i in 0..TABLE_PREFIXES {
        for s in 0..PEERS {
            if let Some(attrs) = table_attrs(s, i) {
                let peer = PeerId(s + 1);
                table.announce(peer, p(i), Route::new(peer, attrs));
            }
        }
    }
    table.seal();
    table
}

/// Low thresholds, so short streams open bursts, run attempts and install
/// reroutes.
fn config(use_history: bool) -> SwiftConfig {
    SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 4,
            burst_stop_threshold: 1,
            triggering_threshold: 3,
            use_history,
            plausibility_table: vec![(3, 6), (6, 12), (9, 40)],
            force_threshold: 12,
            ..Default::default()
        },
        encoding: EncodingConfig {
            min_prefixes_per_link: 4,
            ..Default::default()
        },
    }
}

/// The composition `SwiftRouter` runs, fed every event unresolved.
struct Unresolved {
    engines: BTreeMap<PeerId, SessionEngine>,
    applier: Applier,
}

impl Unresolved {
    fn handle_event(&mut self, peer: PeerId, event: ElementaryEvent) {
        let accepted = self.engines.get_mut(&peer).and_then(|engine| {
            let (status, result) = engine.process(&event);
            (status == EngineStatus::Accepted)
                .then_some(result)
                .flatten()
        });
        self.applier.note_event_owned(peer, event);
        if let Some(result) = accepted {
            self.applier.apply_inference(peer, &result);
        }
    }
}

/// An engine's counters, comparable across the two compositions: `(W, P)`
/// of every link, and the totals.
type Counts = (Vec<(AsLink, (usize, usize))>, [usize; 3]);

fn counters(engine: &InferenceEngine) -> Counts {
    let c = engine.counters();
    let mut links: Vec<(AsLink, (usize, usize))> =
        c.all_links().map(|link| (*link, c.wp(link))).collect();
    links.sort_unstable();
    let totals = [c.total_withdrawals(), c.routed_count(), c.withdrawn_count()];
    (links, totals)
}

/// Everything a mirror holds: its peers, every id's prefix and candidate
/// routes, in id order, and its number of attribute sets.
type Mirror = (Vec<(PeerId, Asn)>, Vec<(Prefix, Vec<Route>)>, usize);

fn mirror(table: &RoutingTable) -> Mirror {
    let ids = table.ids().map(|id| {
        let routes = table.candidates_by_id(id).map(|r| r.to_route()).collect();
        (table.prefix_of(id), routes)
    });
    (table.peers().collect(), ids.collect(), table.attr_count())
}

/// One step: `(kind, session, (prefix index, shape), (variant, gap))`.
type Op = (u8, u32, (u32, u32), (u32, u8));

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0u8..16,
        0..PEERS,
        (0..POOL, 0..2 * TABLE_SHAPES),
        (0u32..3, 0u8..4),
    );
    proptest::collection::vec(op, 0..160)
}

proptest! {
    #[test]
    fn resolved_ids_change_no_decision_and_no_count(
        ops in arb_ops(),
        use_history in any::<bool>(),
    ) {
        let config = config(use_history);
        let policy = ReroutingPolicy::allow_all;
        let table = table();
        let mut router = SwiftRouter::new(config.clone(), table.clone(), policy());
        let mut plain = Unresolved {
            engines: session_engines(&config, &table),
            applier: Applier::new(config.clone(), table.clone(), policy()),
        };
        let mut reference = table;
        let mut torn_down: BTreeMap<PeerId, Vec<(Prefix, Route)>> = BTreeMap::new();
        let mut time = SECOND;
        for (kind, s, (i, shape), (variant, gap)) in ops {
            let peer = PeerId(s + 1);
            time += [MILLISECOND, 10 * MILLISECOND, 100 * MILLISECOND, 30 * SECOND][gap as usize];
            let mut events = Vec::new();
            let withdraw = |prefix, timestamp| ElementaryEvent::Withdraw { timestamp, prefix };
            let announce = |prefix, attrs, timestamp| ElementaryEvent::Announce { timestamp, prefix, attrs };
            match kind {
                // Withdrawals, mostly of the session's own routes; some of
                // prefixes it never held, or nobody did.
                0..=4 => {
                    let i = if s == 2 && kind < 4 { i % SMALL } else { i };
                    events.push(withdraw(p(i), time));
                }
                // Announcements, over sets the table may never have seen.
                5..=8 => events.push(announce(p(i), attrs(s, shape, variant), time)),
                // Re-announcements with the table's own attributes.
                9 | 10 => {
                    if let Some(attrs) = table_attrs(s, i % TABLE_PREFIXES) {
                        events.push(announce(p(i % TABLE_PREFIXES), attrs, time));
                    }
                }
                // A link failure: every table prefix of the session over
                // one shape, withdrawn 1 ms apart — or its recovery.
                11 | 12 => {
                    for k in 0..TABLE_PREFIXES {
                        let Some(attrs) = table_attrs(s, k) else { continue };
                        if attrs.as_path != path(s, shape % TABLE_SHAPES) {
                            continue;
                        }
                        time += MILLISECOND;
                        events.push(if kind == 11 {
                            withdraw(p(k), time)
                        } else {
                            announce(p(k), attrs, time)
                        });
                    }
                }
                // A prefix and a set first seen here, re-entering at once:
                // still in the mirror's buffer, so resolved as unknown.
                13 => {
                    let fresh = p(TABLE_PREFIXES + i % (POOL - TABLE_PREFIXES));
                    let set = attrs(s, TABLE_SHAPES + shape % TABLE_SHAPES, variant);
                    events.push(announce(fresh, set.clone(), time));
                    events.push(announce(p(i % TABLE_PREFIXES), set, time + 1));
                    events.push(withdraw(fresh, time + 2));
                    time += 2;
                }
                // A resync, then the checks that need the folded mirrors.
                14 => {
                    let removed = router.resync_after_convergence();
                    prop_assert_eq!(removed, plain.applier.resync_after_convergence());
                    let folded = mirror(router.routing_table());
                    prop_assert_eq!(&folded, &mirror(plain.applier.table()));
                    prop_assert_eq!(&folded, &mirror(&reference));
                    for k in 0..POOL {
                        let best = reference.best(&p(k)).map(|r| r.peer);
                        prop_assert_eq!((k, router.forwarding_next_hop(&p(k))), (k, best));
                        prop_assert_eq!(plain.applier.forwarding_next_hop(&p(k)), best);
                    }
                }
                // The session goes down, or comes back with the routes it
                // had when it went.
                _ => match torn_down.remove(&peer) {
                    None => {
                        let rib = reference.adj_rib_in(peer).expect("registered");
                        let routes: Vec<(Prefix, Route)> = rib.iter().map(|(q, r)| (*q, r)).collect();
                        torn_down.insert(peer, routes);
                        plain.engines.remove(&peer);
                        let cleared = plain.applier.teardown_session(peer);
                        prop_assert_eq!(router.teardown_session(peer), cleared);
                        reference.clear_peer(peer);
                    }
                    Some(routes) => {
                        let asn = Asn(10 * (s + 1));
                        let engine = SessionEngine::from_routes(peer, &config, &routes);
                        plain.engines.insert(peer, engine);
                        let announced = plain.applier.register_session(peer, asn, routes.clone());
                        prop_assert_eq!(router.register_session(peer, asn, routes.clone()), announced);
                        reference.add_peer(peer, asn);
                        for (prefix, route) in routes {
                            reference.announce(peer, prefix, route);
                        }
                    }
                },
            }
            for event in events {
                reference.apply_owned(peer, event.clone());
                plain.handle_event(peer, event.clone());
                router.handle_event(peer, event);
            }
            let (a, b) = (router.actions(), plain.applier.actions());
            prop_assert_eq!(a.len(), b.len());
            if let (Some(a), Some(b)) = (a.last(), b.last()) {
                prop_assert_eq!(
                    (a.session, a.time, &a.links, a.predicted.prefixes(), a.rules_installed),
                    (b.session, b.time, &b.links, b.predicted.prefixes(), b.rules_installed)
                );
            }
            let state = |e: &InferenceEngine| (e.in_burst(), e.attempts(), counters(e));
            prop_assert_eq!(
                router.engine(peer).map(state),
                plain.engines.get(&peer).map(|e| state(e.engine()))
            );
        }
        router.resync_after_convergence();
        plain.applier.resync_after_convergence();
        prop_assert_eq!(mirror(router.routing_table()), mirror(plain.applier.table()));
    }
}
