//! Differential test of [`RoutingTable`]'s single-copy, id-indexed storage
//! against the plainest possible model: one ordered map
//! `(peer, prefix) → route` plus the set of registered peers. Random
//! `add_peer` / `announce` / `apply` / `clear_peer` sequences — including
//! events from unknown peers, duplicate withdrawals, withdrawals of prefixes
//! nobody ever announced and implicit withdrawals by re-announcement — must
//! leave every query of the table equal to the model's answer.
//!
//! The table stores each distinct attribute set once, in its attribute
//! dictionary, and hands routes out as views into it. The churn varies every
//! attribute the dictionary keys on — LOCAL_PREF and MED, each unset or set
//! to a value equal to its default, and ORIGIN — over paths of one to eight
//! hops (past the five a path holds in place), so that every view must
//! equal the model's owned route, equal sets must share one entry (views of
//! them read the same address) and the dictionary must hold exactly the
//! distinct sets ever announced. Halfway through, the table is sealed and
//! cloned and both copies take the rest of the churn: each must read like
//! the model.
//!
//! The batched fold, `RoutingTable::apply_all`, is checked against the
//! per-event `apply_owned` it must equal, on streams at the batch's edges.
//!
//! A peer stores its routes in pages of 64 ids. So that the ops cross
//! pages, every table starts seeded: a peer no op names numbers filler
//! prefixes around twelve of the drawn ones, whose ids then straddle two
//! page boundaries, and withdraws them all again. A scripted sequence pins
//! the page cases a random one may miss.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, Origin, PathId, PathInterner, PeerId, Prefix, PrefixId,
    Resolved, Route, RouteAttributes, RouteRef, RoutingTable,
};

/// Peers 1..=4 can be registered; 5 never is, so its events must bounce.
const PEERS: u32 = 5;
/// Withdrawals draw from all 24 prefixes, announcements from the first 16:
/// the last 8 are prefixes the table has never seen.
const PREFIXES: u32 = 24;
const ANNOUNCED: u32 = 16;
/// The peer that numbers the seeded ids; no op names it.
const FILLER: PeerId = PeerId(9);
/// The first `SEEDED` drawn prefixes get ids `FIRST_ID + STRIDE * i`
/// (58, 65, …, 135: three 64-id pages); the other announced ones are
/// numbered by the ops, after them.
const SEEDED: u32 = 12;
const FIRST_ID: u32 = 58;
const STRIDE: u32 = 7;

fn p(i: u32) -> Prefix {
    // Descending addresses: id order (first announcement) and prefix order
    // disagree, so every ordered iteration has to sort.
    Prefix::nth_slash24(1_000 - i * 37 % 101)
}

/// The attributes of an announcement besides its path: indices into
/// [`LOCAL_PREFS`], [`MEDS`] and [`ORIGINS`].
type AttrChoice = (usize, usize, usize);

/// LOCAL_PREF values: unset, set to the default it reads as, and higher.
const LOCAL_PREFS: [Option<u32>; 3] = [None, Some(100), Some(200)];
/// MED values: unset, set to the default it reads as, and higher.
const MEDS: [Option<u32>; 3] = [None, Some(0), Some(5)];
const ORIGINS: [Origin; 3] = [Origin::Igp, Origin::Egp, Origin::Incomplete];

/// What an announcement carries: path hops and the other attributes.
type Announced = (Vec<u32>, AttrChoice);

/// One step: `(operation, peer, prefix index, announced)`.
type Op = (u8, u32, u32, Announced);

/// One to eight hops, past the five a path holds in place.
fn arb_announced() -> impl Strategy<Value = Announced> {
    (
        proptest::collection::vec(1u32..9, 1..9),
        (0..LOCAL_PREFS.len(), 0..MEDS.len(), 0..ORIGINS.len()),
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..10, 1u32..PEERS + 1, 0u32..PREFIXES, arb_announced()),
        0..120,
    )
}

#[derive(Default, Clone)]
struct Model {
    peers: BTreeMap<PeerId, Asn>,
    routes: BTreeMap<(PeerId, Prefix), Route>,
    /// Every attribute set a registered peer ever announced.
    announced: HashSet<RouteAttributes>,
}

impl Model {
    fn candidates(&self, prefix: &Prefix) -> Vec<Route> {
        self.routes
            .iter()
            .filter(|((_, q), _)| q == prefix)
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// The decision process written out here, not read from the library's
    /// `compare_preference`: the greatest key wins. Highest LOCAL_PREF (unset
    /// reads 100), shortest AS path, lowest ORIGIN (IGP, EGP, INCOMPLETE),
    /// lowest MED (unset reads 0), then lowest peer.
    fn best_among(routes: impl IntoIterator<Item = Route>) -> Option<Route> {
        routes.into_iter().max_by_key(|r| {
            let origin = match r.attrs.origin {
                Origin::Igp => 0,
                Origin::Egp => 1,
                Origin::Incomplete => 2,
            };
            (
                r.attrs.local_pref.unwrap_or(100),
                Reverse(r.attrs.as_path.len()),
                Reverse(origin),
                Reverse(r.attrs.med.unwrap_or(0)),
                Reverse(r.peer),
            )
        })
    }

    fn rib(&self, peer: PeerId) -> Vec<(Prefix, &Route)> {
        self.routes
            .iter()
            .filter(|((q, _), _)| *q == peer)
            .map(|((_, prefix), r)| (*prefix, r))
            .collect()
    }
}

/// A route whose LOCAL_PREF, MED and ORIGIN vary, so that every step of the
/// decision process decides somewhere and the dictionary must tell apart
/// sets that differ in one attribute only.
fn route(peer: PeerId, hops: &[u32], (lp, med, origin): AttrChoice) -> Route {
    let attrs = RouteAttributes {
        as_path: AsPath::new(hops.iter().copied()),
        origin: ORIGINS[origin],
        local_pref: LOCAL_PREFS[lp],
        med: MEDS[med],
    };
    Route::new(peer, attrs)
}

/// The owned routes behind some views.
fn owned<'a>(views: impl IntoIterator<Item = RouteRef<'a>>) -> Vec<Route> {
    views.into_iter().map(|r| r.to_route()).collect()
}

/// A table and its model after the filler peer numbered ids
/// `0..=FIRST_ID + STRIDE * (SEEDED - 1)`, the seeded drawn prefixes among
/// filler ones, and withdrew every route again: the ids stay.
fn seeded() -> (RoutingTable, Model) {
    let (mut table, mut model) = (RoutingTable::new(), Model::default());
    table.add_peer(FILLER, Asn(9));
    model.peers.insert(FILLER, Asn(9));
    let filler = route(FILLER, &[9], (0, 0, 0));
    for id in 0..=FIRST_ID + STRIDE * (SEEDED - 1) {
        let prefix = match id.checked_sub(FIRST_ID) {
            Some(k) if k % STRIDE == 0 => p(k / STRIDE),
            _ => Prefix::nth_slash24(2_000 + id),
        };
        let got = table.announce(FILLER, prefix, filler.clone());
        assert_eq!(got.map(PrefixId::index), Some(id as usize));
    }
    assert_eq!(table.clear_peer(FILLER).len(), table.id_count());
    model.announced.insert(filler.attrs);
    (table, model)
}

/// Applies one operation to both sides and checks their return values agree.
fn step(table: &mut RoutingTable, model: &mut Model, k: usize, op: &Op) -> Result<(), String> {
    let (kind, peer, i, (hops, attrs)) = op;
    let (peer, t) = (PeerId(*peer), k as u64);
    let prefix = if *kind < 6 { p(*i % ANNOUNCED) } else { p(*i) };
    let known = model.peers.contains_key(&peer);
    match kind {
        0 if peer.0 < PEERS => {
            // Registration, or re-registration with a new AS number (which
            // keeps the RIB).
            let asn = Asn(100 + hops[0]);
            table.add_peer(peer, asn);
            model.peers.insert(peer, asn);
        }
        0 => {}
        1 => {
            let cleared = table.clear_peer(peer);
            prop_assert!(cleared.windows(2).all(|w| w[0] < w[1]), "id order");
            let cleared: BTreeSet<Prefix> =
                cleared.into_iter().map(|id| table.prefix_of(id)).collect();
            let expected: BTreeSet<Prefix> = model.rib(peer).iter().map(|(q, _)| *q).collect();
            prop_assert_eq!(cleared, expected);
            model.routes.retain(|(q, _), _| *q != peer);
        }
        2 | 3 => {
            let r = route(peer, hops, *attrs);
            let id = table.announce(peer, prefix, r.clone());
            prop_assert_eq!(id.map(|id| table.prefix_of(id)), known.then_some(prefix));
            prop_assert_eq!(id, table.prefix_id(&prefix).filter(|_| known));
            if known {
                model.announced.insert(r.attrs.clone());
                model.routes.insert((peer, prefix), r);
            }
        }
        4 | 5 => {
            let r = route(peer, hops, *attrs);
            let event = ElementaryEvent::Announce {
                timestamp: t,
                prefix,
                attrs: r.attrs.clone(),
            };
            let id = table.apply_owned(peer, event);
            prop_assert_eq!(id.map(|id| table.prefix_of(id)), known.then_some(prefix));
            if known {
                model.announced.insert(r.attrs.clone());
                model.routes.insert((peer, prefix), r);
            }
        }
        _ => {
            let event = ElementaryEvent::Withdraw {
                timestamp: t,
                prefix,
            };
            let held = model.routes.remove(&(peer, prefix)).is_some();
            let changed = table.apply_owned(peer, event);
            prop_assert_eq!(table.peer_asn(peer).is_some(), known);
            prop_assert_eq!(
                changed.map(|id| table.prefix_of(id)),
                held.then_some(prefix)
            );
        }
    }
    Ok(())
}

/// Every query of the table against the model's answer.
fn check(table: &RoutingTable, model: &Model) -> Result<(), String> {
    let peers: Vec<(PeerId, Asn)> = model.peers.iter().map(|(q, a)| (*q, *a)).collect();
    prop_assert_eq!(table.peers().collect::<Vec<_>>(), peers);
    prop_assert_eq!(table.peer_count(), model.peers.len());

    // Per-peer view: length, ascending order, point lookups, link counts.
    for probe in 1..=PEERS + 1 {
        let peer = PeerId(probe);
        let Some(rib) = table.adj_rib_in(peer) else {
            prop_assert!(!model.peers.contains_key(&peer));
            prop_assert!(table.link_prefix_counts(peer).is_empty());
            continue;
        };
        prop_assert_eq!(table.peer_asn(peer), model.peers.get(&peer).copied());
        let expected = model.rib(peer);
        prop_assert_eq!(rib.len(), expected.len());
        prop_assert_eq!(rib.is_empty(), expected.is_empty());
        let got: Vec<(Prefix, Route)> = rib.iter().map(|(q, r)| (*q, r)).collect();
        let want: Vec<(Prefix, Route)> = expected.iter().map(|(q, r)| (*q, (*r).clone())).collect();
        prop_assert_eq!(&got, &want);
        let views: Vec<(Prefix, Route)> = rib.views().map(|(q, r)| (*q, r.to_route())).collect();
        prop_assert_eq!(&views, &want);
        // The seeding walk: the peer's routes in id order, each path id that
        // of interning every route's path in that order, whatever the
        // attribute dictionary shares.
        let mut by_id: Vec<(PrefixId, Route)> = want
            .iter()
            .map(|(q, r)| (table.prefix_id(q).expect("routed"), r.clone()))
            .collect();
        by_id.sort_unstable_by_key(|(id, _)| *id);
        let mut paths = PathInterner::new();
        let expected_paths: Vec<(PrefixId, PathId)> = by_id
            .iter()
            .map(|(id, r)| (*id, paths.intern(r.as_path())))
            .collect();
        let mut seeded = PathInterner::new();
        prop_assert_eq!(rib.intern_paths(&mut seeded), expected_paths);
        prop_assert_eq!(seeded.len(), paths.len());
        let prefixes: Vec<Prefix> = rib.prefixes().copied().collect();
        prop_assert_eq!(
            prefixes,
            expected.iter().map(|(q, _)| *q).collect::<Vec<_>>()
        );
        for i in 0..PREFIXES {
            prop_assert_eq!(
                rib.get(&p(i)),
                model.routes.get(&(peer, p(i))).map(Route::view)
            );
        }
        let mut links: HashMap<AsLink, usize> = HashMap::new();
        for (_, r) in &expected {
            for link in r.as_path().links() {
                *links.entry(link).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(table.link_prefix_counts(peer), links.clone());
        for link in links.keys() {
            let via: Vec<Prefix> = expected
                .iter()
                .filter(|(_, r)| r.as_path().crosses_link(link))
                .map(|(q, _)| *q)
                .collect();
            prop_assert_eq!(&rib.prefix_set_via_link(link), &via);
        }
    }

    // Router-wide view.
    let routed: BTreeSet<Prefix> = model.routes.keys().map(|(_, q)| *q).collect();
    prop_assert_eq!(table.prefix_count(), routed.len());
    let ordered: Vec<Prefix> = routed.iter().copied().collect();
    prop_assert_eq!(
        table.prefixes().copied().collect::<Vec<_>>(),
        ordered.clone()
    );
    for ((prefix, candidates), expected) in table.routed().zip(&ordered) {
        prop_assert_eq!(prefix, expected);
        let mut got = owned(candidates);
        got.sort_by_key(|r| r.peer);
        prop_assert_eq!(got, model.candidates(prefix));
    }
    // The id view: ids round-trip through the dictionary, answer like their
    // prefix, and the routed ones are exactly the routed prefixes.
    prop_assert_eq!(table.ids().count(), table.id_count());
    for id in table.ids() {
        let prefix = table.prefix_of(id);
        prop_assert_eq!(table.prefix_id(&prefix), Some(id));
        let mut got = owned(table.candidates_by_id(id));
        got.sort_by_key(|r| r.peer);
        prop_assert_eq!(got, model.candidates(&prefix));
    }
    let routed_ids: BTreeSet<Prefix> = table.routed_ids().map(|id| table.prefix_of(id)).collect();
    prop_assert_eq!(&routed_ids, &routed);
    let bests: Vec<(Prefix, Route)> = table
        .best_routes()
        .map(|(q, r)| (*q, r.to_route()))
        .collect();
    let expected_bests: Vec<(Prefix, Route)> = ordered
        .iter()
        .map(|q| {
            let best = Model::best_among(model.candidates(q)).expect("routed");
            (*q, best)
        })
        .collect();
    prop_assert_eq!(bests, expected_bests);
    for i in 0..PREFIXES {
        let prefix = p(i);
        let candidates = model.candidates(&prefix);
        prop_assert_eq!(
            table.best(&prefix).map(|r| r.to_route()),
            Model::best_among(candidates.iter().cloned())
        );
        let mut got = owned(table.candidates(&prefix));
        got.sort_by_key(|r| r.peer); // compared as a set
        prop_assert_eq!(&got, &candidates);
    }

    // The attribute dictionary: one entry per set ever announced, and every
    // view of equal sets reads that one entry.
    prop_assert_eq!(table.attr_count(), model.announced.len());
    let mut entries: HashMap<&RouteAttributes, *const RouteAttributes> = HashMap::new();
    for id in table.ids() {
        for route in table.candidates_by_id(id) {
            let at: *const RouteAttributes = route.attrs;
            let first = *entries.entry(route.attrs).or_insert(at);
            prop_assert!(std::ptr::eq(first, at), "{:?} stored twice", route.attrs);
        }
    }
    Ok(())
}

/// The stream lengths the batch test draws: one event, a batch less one, a
/// batch, a batch plus one, and two batches plus one.
const STREAM_LENGTHS: [usize; 5] = [1, 15, 16, 17, 33];

/// One event of a stream: `(kind, peer, (prefix index, back), announced)`.
type StreamOp = (u8, u32, (u32, usize), Announced);

fn arb_stream() -> impl Strategy<Value = (usize, Vec<StreamOp>)> {
    let op = (
        0u8..3,
        1u32..PEERS + 1,
        (0u32..PREFIXES, 1usize..16),
        arb_announced(),
    );
    (
        0..STREAM_LENGTHS.len(),
        proptest::collection::vec(op, 33..34),
    )
}

/// One event per op, over peers 1..=5 (5 never registered): announcements
/// of any of the first `ANNOUNCED` prefixes, withdrawals of any prefix (the
/// last 8 never announced), and withdrawals by the peer of the event `back`
/// places earlier of the prefix it touched — so a prefix announced earlier
/// in a batch, new ones included, is withdrawn in it.
fn stream_events(ops: &[StreamOp]) -> Vec<(PeerId, ElementaryEvent)> {
    let mut events: Vec<(PeerId, ElementaryEvent)> = Vec::new();
    for (k, (kind, peer, (i, back), (hops, attrs))) in ops.iter().enumerate() {
        let timestamp = k as u64;
        let (peer, prefix) = match (kind, k.checked_sub(*back)) {
            (0, _) => {
                let attrs = route(PeerId(*peer), hops, *attrs).attrs;
                let prefix = p(*i % ANNOUNCED);
                let announce = ElementaryEvent::Announce {
                    timestamp,
                    prefix,
                    attrs,
                };
                events.push((PeerId(*peer), announce));
                continue;
            }
            (2, Some(j)) => (events[j].0, events[j].1.prefix()),
            _ => (PeerId(*peer), p(*i)),
        };
        events.push((peer, ElementaryEvent::Withdraw { timestamp, prefix }));
    }
    events
}

/// Everything a routing table holds: its peers, every id's prefix and
/// candidate routes, in id order, and its number of attribute sets.
type TableState = (Vec<(PeerId, Asn)>, Vec<(Prefix, Vec<Route>)>, usize);

fn state(table: &RoutingTable) -> TableState {
    let ids = table
        .ids()
        .map(|id| (table.prefix_of(id), owned(table.candidates_by_id(id))));
    (table.peers().collect(), ids.collect(), table.attr_count())
}

proptest! {
    /// After every step of a random operation sequence the table answers
    /// every query like the ordered-map model. Halfway through it is
    /// sealed and cloned, and the clone takes the rest of the sequence too,
    /// interning new prefixes apart from the original; three quarters
    /// through, the original is sealed again, over the prefixes it gained.
    #[test]
    fn routing_table_matches_the_ordered_map_model(ops in arb_ops()) {
        let (mut table, mut model) = seeded();
        let half = ops.len() / 2;
        for (k, op) in ops[..half].iter().enumerate() {
            step(&mut table, &mut model, k, op)?;
            check(&table, &model)?;
        }
        table.seal();
        check(&table, &model)?;
        let mut clone = table.clone();
        let mut clone_model = model.clone();
        check(&clone, &clone_model)?;
        for (k, op) in ops.iter().enumerate().skip(half) {
            if k == half + half / 2 {
                table.seal();
            }
            step(&mut table, &mut model, k, op)?;
            check(&table, &model)?;
            step(&mut clone, &mut clone_model, k, op)?;
            check(&clone, &clone_model)?;
        }
        check(&table.clone(), &model)?;
    }

    /// `apply_all` is `apply_owned` one event at a time: on a seeded table,
    /// a stream of 1, 15, 16, 17 or 33 events leaves the same table and
    /// reports the same changed ids, in the same order. The stream is then
    /// applied a second time through the same buffer, now over prefixes
    /// and attribute sets the table knows. In both rounds the events that
    /// `resolved` picks carry what `resolve` found of them before the
    /// buffer was applied, as a router resolves each event where it enters;
    /// the others arrive unresolved. A prefix or set the table learns from
    /// an earlier event of the buffer is unknown to the later ones.
    #[test]
    fn applying_a_batch_equals_applying_each_event(
        seed in proptest::collection::vec((1u32..PEERS, 0u32..ANNOUNCED / 2), 0..24),
        stream in arb_stream(),
        resolved in any::<u64>(),
    ) {
        let (mut batched, _) = seeded();
        for peer in 1..PEERS {
            batched.add_peer(PeerId(peer), Asn(100 + peer));
        }
        for (peer, i) in &seed {
            let r = route(PeerId(*peer), &[*peer], (0, 0, 0));
            batched.announce(PeerId(*peer), p(*i), r);
        }
        let mut single = batched.clone();
        let (length, ops) = stream;
        let events = stream_events(&ops[..STREAM_LENGTHS[length]]);
        let mut buffer = Vec::new();
        for _ in 0..2 {
            let expected: Vec<PrefixId> = events
                .iter()
                .filter_map(|(peer, event)| single.apply_owned(*peer, event.clone()))
                .collect();
            buffer.extend(events.iter().enumerate().map(|(k, (peer, event))| {
                let ids = if resolved >> (k % 64) & 1 == 1 {
                    batched.resolve(event)
                } else {
                    Resolved::UNKNOWN
                };
                (*peer, event.clone(), ids)
            }));
            let mut changed = Vec::new();
            batched.apply_all(&mut buffer, |id| changed.push(id));
            prop_assert!(buffer.is_empty() && buffer.capacity() >= events.len());
            prop_assert_eq!(changed, expected);
            prop_assert_eq!(state(&batched), state(&single));
        }
    }
}

/// The page cases, each followed by a full check (per-peer lengths
/// included): withdrawals on pages the peer never touched, past its
/// directory's end and inside it; a re-announcement into a page its
/// withdrawals emptied; `clear_peer` followed by re-announcements.
#[test]
fn scripted_ops_cross_pages() {
    let (mut table, mut model) = seeded();
    let announced = || (vec![1, 2], (0, 0, 0));
    // `(kind, peer, prefix index)`, kinds as `step` reads them; the
    // comments give each prefix's id and page.
    let script: [(u8, u32, u32); 14] = [
        (0, 1, 0),
        (2, 1, 0),  // id 58, page 0
        (7, 1, 10), // id 128: page 2, past the directory
        (4, 1, 11), // id 135, page 2
        (7, 1, 1),  // id 65: page 1, inside the directory, never touched
        (6, 1, 0),  // page 0 emptied
        (2, 1, 0),  // and announced into again
        (2, 1, 13), // a new prefix: id 136, page 2
        (1, 1, 0),
        (6, 1, 11),
        (4, 1, 11),
        (7, 1, 20), // a prefix the table has never seen
        (0, 2, 0),
        (2, 2, 1),
    ];
    for (k, (kind, peer, i)) in script.into_iter().enumerate() {
        step(&mut table, &mut model, k, &(kind, peer, i, announced())).unwrap();
        check(&table, &model).unwrap();
    }
    assert_eq!(table.prefix_id(&p(13)).map(PrefixId::index), Some(136));
}
