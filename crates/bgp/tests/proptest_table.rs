//! Differential test of [`RoutingTable`]'s single-copy, id-indexed storage
//! against the plainest possible model: one ordered map
//! `(peer, prefix) → route` plus the set of registered peers. Random
//! `add_peer` / `announce` / `apply` / `clear_peer` sequences — including
//! events from unknown peers, duplicate withdrawals, withdrawals of prefixes
//! nobody ever announced and implicit withdrawals by re-announcement — must
//! leave every query of the table equal to the model's answer.
//!
//! The batched fold, `RoutingTable::apply_all`, is checked against the
//! per-event `apply_owned` it must equal, on streams at the batch's edges.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, PrefixId, Route, RouteAttributes,
    RoutingTable,
};

/// Peers 1..=4 can be registered; 5 never is, so its events must bounce.
const PEERS: u32 = 5;
/// Withdrawals draw from all 24 prefixes, announcements from the first 16:
/// the last 8 are prefixes the table has never seen.
const PREFIXES: u32 = 24;
const ANNOUNCED: u32 = 16;

fn p(i: u32) -> Prefix {
    // Descending addresses: id order (first announcement) and prefix order
    // disagree, so every ordered iteration has to sort.
    Prefix::nth_slash24(1_000 - i * 37 % 101)
}

/// One step: `(operation, peer, prefix index, path hops)`.
type Op = (u8, u32, u32, Vec<u32>);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..10,
            1u32..PEERS + 1,
            0u32..PREFIXES,
            proptest::collection::vec(1u32..9, 1..5),
        ),
        0..120,
    )
}

#[derive(Default)]
struct Model {
    peers: BTreeMap<PeerId, Asn>,
    routes: BTreeMap<(PeerId, Prefix), Route>,
}

impl Model {
    fn candidates(&self, prefix: &Prefix) -> Vec<&Route> {
        self.routes
            .iter()
            .filter(|((_, q), _)| q == prefix)
            .map(|(_, r)| r)
            .collect()
    }

    fn best_among<'a>(routes: impl IntoIterator<Item = &'a Route>) -> Option<&'a Route> {
        routes.into_iter().max_by(|a, b| a.compare_preference(b))
    }

    fn rib(&self, peer: PeerId) -> Vec<(Prefix, &Route)> {
        self.routes
            .iter()
            .filter(|((q, _), _)| *q == peer)
            .map(|((_, prefix), r)| (*prefix, r))
            .collect()
    }
}

fn route(peer: PeerId, hops: &[u32], t: u64) -> Route {
    let mut attrs = RouteAttributes::from_path(AsPath::new(hops.iter().copied()));
    // Vary LOCAL_PREF and MED so every step of the decision process decides
    // somewhere.
    attrs.local_pref = (hops[0] % 3 == 0).then_some(100 + hops[0]);
    attrs.med = (hops.len() % 2 == 0).then_some(hops[0]);
    Route::new(peer, attrs, t)
}

/// Applies one operation to both sides and checks their return values agree.
fn step(table: &mut RoutingTable, model: &mut Model, k: usize, op: &Op) -> Result<(), String> {
    let (kind, peer, i, hops) = op;
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
            let r = route(peer, hops, t);
            let id = table.announce(peer, prefix, r.clone());
            prop_assert_eq!(id.map(|id| table.prefix_of(id)), known.then_some(prefix));
            prop_assert_eq!(id, table.prefix_id(&prefix).filter(|_| known));
            if known {
                model.routes.insert((peer, prefix), r);
            }
        }
        4 | 5 => {
            let event = ElementaryEvent::Announce {
                timestamp: t,
                prefix,
                attrs: route(peer, hops, t).attrs,
            };
            prop_assert_eq!(table.apply(peer, &event), known);
            if known {
                model.routes.insert((peer, prefix), route(peer, hops, t));
            }
        }
        _ => {
            // Withdrawals, half by reference and half owned.
            let event = ElementaryEvent::Withdraw {
                timestamp: t,
                prefix,
            };
            let held = model.routes.remove(&(peer, prefix)).is_some();
            if kind % 2 == 0 {
                prop_assert_eq!(table.apply(peer, &event), known);
            } else {
                let changed = table.apply_owned(peer, event);
                prop_assert_eq!(
                    changed.map(|id| table.prefix_of(id)),
                    held.then_some(prefix)
                );
            }
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
        let got: Vec<(Prefix, &Route)> = rib.iter().map(|(q, r)| (*q, r)).collect();
        prop_assert_eq!(&got, &expected);
        let prefixes: Vec<Prefix> = rib.prefixes().copied().collect();
        prop_assert_eq!(
            prefixes,
            expected.iter().map(|(q, _)| *q).collect::<Vec<_>>()
        );
        for i in 0..PREFIXES {
            prop_assert_eq!(rib.get(&p(i)), model.routes.get(&(peer, p(i))));
        }
        let mut links: HashMap<AsLink, usize> = HashMap::new();
        let mut positional: HashMap<(usize, AsLink), usize> = HashMap::new();
        for (_, r) in &expected {
            for (d, link) in r.as_path().links().enumerate() {
                *links.entry(link).or_insert(0) += 1;
                *positional.entry((d + 1, link)).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(table.link_prefix_counts(peer), links.clone());
        prop_assert_eq!(table.positional_link_counts(peer), positional);
        for link in links.keys() {
            let via: Vec<Prefix> = expected
                .iter()
                .filter(|(_, r)| r.as_path().crosses_link(link))
                .map(|(q, _)| *q)
                .collect();
            prop_assert_eq!(&rib.prefix_set_via_link(link), &via);
            prop_assert_eq!(&table.prefixes_via_links(peer, &[*link]), &via);
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
        let mut got: Vec<&Route> = candidates.collect();
        got.sort_by_key(|r| r.peer);
        prop_assert_eq!(got, model.candidates(prefix));
    }
    // The id view: ids round-trip through the dictionary, answer like their
    // prefix, and the routed ones are exactly the routed prefixes.
    prop_assert_eq!(table.ids().count(), table.id_count());
    for id in table.ids() {
        let prefix = table.prefix_of(id);
        prop_assert_eq!(table.prefix_id(&prefix), Some(id));
        let mut got: Vec<&Route> = table.candidates_by_id(id).collect();
        got.sort_by_key(|r| r.peer);
        prop_assert_eq!(got, model.candidates(&prefix));
    }
    let routed_ids: BTreeSet<Prefix> = table.routed_ids().map(|id| table.prefix_of(id)).collect();
    prop_assert_eq!(&routed_ids, &routed);
    let bests: Vec<(Prefix, &Route)> = table.best_routes().map(|(q, r)| (*q, r)).collect();
    let expected_bests: Vec<(Prefix, &Route)> = ordered
        .iter()
        .map(|q| (*q, Model::best_among(model.candidates(q)).expect("routed")))
        .collect();
    prop_assert_eq!(bests, expected_bests);
    for i in 0..PREFIXES {
        let prefix = p(i);
        let candidates = model.candidates(&prefix);
        prop_assert_eq!(
            table.best(&prefix),
            Model::best_among(candidates.iter().copied())
        );
        let mut got: Vec<&Route> = table.candidates(&prefix).collect();
        got.sort_by_key(|r| r.peer); // compared as a set
        prop_assert_eq!(&got, &candidates);
        for excluded in 1..=PEERS {
            let others = candidates.iter().copied().filter(|r| r.peer.0 != excluded);
            for avoid in [vec![], vec![Asn(3)], vec![Asn(2), Asn(7)]] {
                let eligible = others
                    .clone()
                    .filter(|r| !avoid.iter().any(|a| r.as_path().contains_as(*a)));
                prop_assert_eq!(
                    table.alternative_avoiding(&prefix, PeerId(excluded), &avoid),
                    Model::best_among(eligible)
                );
            }
        }
    }
    Ok(())
}

/// The stream lengths the batch test draws: one event, a batch less one, a
/// batch, a batch plus one, and two batches plus one.
const STREAM_LENGTHS: [usize; 5] = [1, 15, 16, 17, 33];

/// One event of a stream: `(kind, peer, (prefix index, back), path hops)`.
type StreamOp = (u8, u32, (u32, usize), Vec<u32>);

fn arb_stream() -> impl Strategy<Value = (usize, Vec<StreamOp>)> {
    let op = (
        0u8..3,
        1u32..PEERS + 1,
        (0u32..PREFIXES, 1usize..16),
        proptest::collection::vec(1u32..9, 1..5),
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
    for (k, (kind, peer, (i, back), hops)) in ops.iter().enumerate() {
        let timestamp = k as u64;
        let (peer, prefix) = match (kind, k.checked_sub(*back)) {
            (0, _) => {
                let attrs = route(PeerId(*peer), hops, timestamp).attrs;
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

/// Everything a routing table holds: its peers, and every id's prefix and
/// candidate routes, in id order.
type TableState = (Vec<(PeerId, Asn)>, Vec<(Prefix, Vec<Route>)>);

fn state(table: &RoutingTable) -> TableState {
    let ids = table.ids().map(|id| {
        let routes = table.candidates_by_id(id).cloned().collect();
        (table.prefix_of(id), routes)
    });
    (table.peers().collect(), ids.collect())
}

proptest! {
    /// After every step of a random operation sequence the table answers
    /// every query like the ordered-map model, and a clone of it does too.
    #[test]
    fn routing_table_matches_the_ordered_map_model(ops in arb_ops()) {
        let mut table = RoutingTable::new();
        let mut model = Model::default();
        for (k, op) in ops.iter().enumerate() {
            step(&mut table, &mut model, k, op)?;
            check(&table, &model)?;
        }
        check(&table.clone(), &model)?;
    }

    /// `apply_all` is `apply_owned` one event at a time: on a seeded table,
    /// a stream of 1, 15, 16, 17 or 33 events leaves the same table and
    /// reports the same changed ids, in the same order. The stream is then
    /// applied a second time through the same buffer, now over prefixes
    /// the table knows.
    #[test]
    fn applying_a_batch_equals_applying_each_event(
        seed in proptest::collection::vec((1u32..PEERS, 0u32..ANNOUNCED / 2), 0..24),
        stream in arb_stream(),
    ) {
        let mut batched = RoutingTable::new();
        for peer in 1..PEERS {
            batched.add_peer(PeerId(peer), Asn(100 + peer));
        }
        for (peer, i) in &seed {
            batched.announce(PeerId(*peer), p(*i), route(PeerId(*peer), &[*peer], 0));
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
            buffer.extend(events.iter().cloned());
            let mut changed = Vec::new();
            batched.apply_all(&mut buffer, |id| changed.push(id));
            prop_assert!(buffer.is_empty() && buffer.capacity() >= events.len());
            prop_assert_eq!(changed, expected);
            prop_assert_eq!(state(&batched), state(&single));
        }
    }
}
