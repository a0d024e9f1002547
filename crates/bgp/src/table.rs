//! Router-wide routing table: the view a SWIFTED border router has of the
//! world.
//!
//! [`RoutingTable`] holds the per-peer Adj-RIB-Ins, runs best-path selection
//! over them and offers the queries the SWIFT algorithms are built on:
//!
//! * how many of a peer's prefixes cross each AS link
//!   ([`RoutingTable::link_prefix_counts`], the `W + P` basis of Path Share);
//! * each prefix's candidate routes and best route, by prefix or by id (read
//!   by the forwarding table's tags and backup next-hops, §5).
//!
//! # Single-copy storage
//!
//! Every route is stored once, as a 4-byte record in its peer's
//! id-indexed pages (see [`crate::rib`]); the table adds the two shared
//! dictionaries: a [`PrefixInterner`] whose packed index answers a hit from
//! one cache line, and the attribute dictionary every record's attributes
//! are read from (see [`crate::attributes`]). There is no per-prefix
//! candidate map: the router-wide questions ([`RoutingTable::best`],
//! [`RoutingTable::candidates`], …) resolve the prefix to its id with one
//! probe of that index and read that id's record in each peer, handing each
//! route out as a [`RouteRef`] that names the peer the record is filed
//! under. The one invariant the table itself owns is that a peer's pages
//! are indexed by *this* table's ids, which holds because the private
//! `insert` is the only place a route enters a peer's storage. Withdrawing —
//! or clearing a peer — never interns and never adds a page, so withdrawals
//! for prefixes the table has never seen cost one failed probe.
//!
//! # The id space
//!
//! Ids are handed out densely in first-announcement order and never reused:
//! a prefix keeps its id after losing every route, and a clone of the table
//! keeps every id. That makes an id a stable array index for state kept
//! *beside* the table — the forwarding table's stage-1 tags are such an array
//! — and the id accessors ([`RoutingTable::prefix_id`],
//! [`RoutingTable::candidates_by_id`], [`RoutingTable::ids`],
//! [`RoutingTable::routed_ids`]) let that state be maintained without going
//! back through the dictionary. Two tables number independently: an id means
//! nothing to a table that did not hand it out. Once the table is sealed
//! ([`RoutingTable::seal`]) its clones, and the inference engines of its full
//! feeds, share the dictionary's index for every id handed out so far; the
//! ids each of them hands out later are its own.
//!
//! # Applying a batch
//!
//! An event starts with a dictionary probe that misses the cache on a large
//! table, and everything after it waits for the id.
//! [`RoutingTable::resolve`] is that probe on its own: it looks up the
//! event's prefix and, for an announcement, its attribute set, never
//! interning either, and returns both ids as a [`Resolved`]. A caller that
//! resolves an event where it enters (`SwiftRouter` does, and hands the
//! same value to the session's inference engine) buffers it with the event,
//! and the fold uses it instead of probing again. Events are folded by
//! [`RoutingTable::apply_all`], [`RoutingTable::APPLY_BATCH`] at a time, in
//! two phases:
//!
//! 1. every event that arrives unresolved is resolved: the sharded
//!    runtime's, and one whose prefix or set was not in the table yet when
//!    it was resolved (an earlier event still waiting in the buffer
//!    announces it). These probes are independent, so their misses overlap;
//! 2. the events are applied in order, each through the one body behind
//!    [`RoutingTable::apply_owned`], handed the ids.
//!
//! A found id is still its prefix's or set's id in phase 2, however long
//! the event waited, because neither dictionary frees or reuses ids,
//! whatever the earlier events did. A prefix or set phase 1 did not find is
//! looked up again: an earlier announcement of the same batch may have
//! interned it since. So the batch is exactly one `apply_owned` per event,
//! in order. (Phase 1 also reading the routes, as the retag's gather does,
//! measured slower on the slot-and-slab storage the pages replaced.)

use crate::as_path::{AsLink, Asn};
use crate::attributes::{AttrDictionary, AttrId};
use crate::message::ElementaryEvent;
use crate::prefix::Prefix;
use crate::rib::{AdjRibIn, PeerRoutes, PrefixId, PrefixInterner, Route, RouteRef};
use crate::session::PeerId;
use std::collections::{BTreeMap, HashMap};

/// The router-wide routing state: the routes of every peer, stored once, over
/// one shared prefix dictionary and one shared attribute dictionary.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    peers: BTreeMap<PeerId, PeerState>,
    interner: PrefixInterner,
    dictionary: AttrDictionary,
}

/// What [`RoutingTable::resolve`] found of one event: its prefix's
/// [`PrefixId`] and, for an announcement, its attribute set's [`AttrId`],
/// each unknown where the table did not hold it. Both ids mean something
/// only to the table that handed them out, and its clones; neither
/// dictionary frees an id, so a found id stays valid for the table's life.
/// Eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The prefix's id, or [`Resolved::NO_PREFIX`].
    prefix: u32,
    attrs: Option<AttrId>,
}

impl Resolved {
    /// Nothing found: what an event carries that no one resolved.
    pub const UNKNOWN: Resolved = Resolved {
        prefix: Self::NO_PREFIX,
        attrs: None,
    };

    /// No prefix id: one above the dictionary's id cap.
    const NO_PREFIX: u32 = u32::MAX;

    /// The prefix's id, if it was found.
    #[inline]
    pub fn prefix(self) -> Option<PrefixId> {
        (self.prefix != Self::NO_PREFIX).then_some(PrefixId(self.prefix))
    }

    /// The announced attribute set's id, if it was found.
    #[inline]
    pub fn attrs(self) -> Option<AttrId> {
        self.attrs
    }

    /// Whether this holds every id folding `event` needs.
    #[inline]
    fn covers(self, event: &ElementaryEvent) -> bool {
        self.prefix != Self::NO_PREFIX
            && (self.attrs.is_some() || matches!(event, ElementaryEvent::Withdraw { .. }))
    }
}

/// Per-peer state held by the routing table.
#[derive(Debug, Clone)]
struct PeerState {
    asn: Asn,
    routes: PeerRoutes,
}

impl RoutingTable {
    /// Events per batch of [`RoutingTable::apply_all`] (see "Applying a
    /// batch").
    pub const APPLY_BATCH: usize = 16;

    /// Creates an empty routing table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a peer. Re-registering an existing peer keeps its RIB but
    /// adopts the given AS number (a peer may renumber between sessions).
    /// Messages from unknown peers are rejected by [`RoutingTable::apply_owned`].
    pub fn add_peer(&mut self, peer: PeerId, asn: Asn) {
        self.peers
            .entry(peer)
            .and_modify(|state| state.asn = asn)
            .or_insert(PeerState {
                asn,
                routes: PeerRoutes::default(),
            });
    }

    /// The AS number of a registered peer.
    pub fn peer_asn(&self, peer: PeerId) -> Option<Asn> {
        self.peers.get(&peer).map(|s| s.asn)
    }

    /// The registered peers, in id order.
    pub fn peers(&self) -> impl Iterator<Item = (PeerId, Asn)> + '_ {
        self.peers.iter().map(|(p, s)| (*p, s.asn))
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The per-peer RIB of a registered peer.
    pub fn adj_rib_in(&self, peer: PeerId) -> Option<AdjRibIn<'_>> {
        self.peers.get(&peer).map(|s| AdjRibIn {
            peer,
            interner: &self.interner,
            dictionary: &self.dictionary,
            routes: &s.routes,
        })
    }

    /// The prefix behind an id this table handed out.
    pub fn prefix_of(&self, id: PrefixId) -> Prefix {
        *self.interner.prefix(id)
    }

    /// The id of `prefix`: one probe of the table's dictionary. `None` for a
    /// prefix no peer ever announced.
    pub fn prefix_id(&self, prefix: &Prefix) -> Option<PrefixId> {
        self.interner.get(prefix)
    }

    /// Number of ids handed out so far — the length an array indexed by
    /// [`PrefixId::index`] needs to cover every prefix the table has seen.
    pub fn id_count(&self) -> usize {
        self.interner.len()
    }

    /// Every id handed out so far, routed or not, in id order.
    pub fn ids(&self) -> impl Iterator<Item = PrefixId> {
        (0..self.interner.len() as u32).map(PrefixId)
    }

    /// Number of distinct attribute sets in the table's attribute
    /// dictionary: every set ever announced to it, carried by a route now
    /// or not (ids are never freed).
    pub fn attr_count(&self) -> usize {
        self.dictionary.len()
    }

    /// Seals the prefix dictionary ([`PrefixInterner::seal`]) and trims
    /// each peer's route pages and page directory to their length. Clones
    /// taken afterwards share the dictionary's index instead of copying it,
    /// and so do the inference engines of the table's full feeds. Changes
    /// no id, route or answer. Routers call it on the table they are
    /// handed; bulk builders call it on the table they return.
    pub fn seal(&mut self) {
        self.interner.seal();
        for state in self.peers.values_mut() {
            state.routes.shrink_to_fit();
        }
    }

    /// Applies a per-prefix event received from `peer`, taking it by value
    /// (an announcement's attributes move into the table instead of being
    /// cloned). Returns the id of the prefix whose routes changed, `None`
    /// when nothing did: the peer is not registered, or it withdrew a route
    /// it does not hold.
    pub fn apply_owned(&mut self, peer: PeerId, event: ElementaryEvent) -> Option<PrefixId> {
        self.apply_found(peer, event, Resolved::UNKNOWN)
    }

    /// The ids of `event`'s prefix and, for an announcement, of its
    /// attribute set: the probes folding it would make, made ahead. Looks
    /// up, never interns.
    #[inline]
    pub fn resolve(&self, event: &ElementaryEvent) -> Resolved {
        let (prefix, attrs) = match event {
            ElementaryEvent::Announce { prefix, attrs, .. } => {
                (self.interner.get(prefix), self.dictionary.lookup(attrs))
            }
            ElementaryEvent::Withdraw { prefix, .. } => (self.interner.get(prefix), None),
        };
        Resolved {
            prefix: prefix.map_or(Resolved::NO_PREFIX, u32::from),
            attrs,
        }
    }

    /// Applies every event of `events`, in order, and calls `changed` with
    /// each id [`RoutingTable::apply_owned`] would return. Each event
    /// carries what [`RoutingTable::resolve`] found of it on this table, at
    /// any earlier time, or [`Resolved::UNKNOWN`]: a found id stays this
    /// table's for its life, a clone's may not. Drains `events`
    /// in place, so the buffer keeps its capacity. Works in batches of
    /// [`RoutingTable::APPLY_BATCH`], each in two phases (see "Applying a
    /// batch").
    pub fn apply_all(
        &mut self,
        events: &mut Vec<(PeerId, ElementaryEvent, Resolved)>,
        mut changed: impl FnMut(PrefixId),
    ) {
        let mut found = [Resolved::UNKNOWN; Self::APPLY_BATCH];
        let mut events = events.drain(..);
        while !events.as_slice().is_empty() {
            let n = events.len().min(Self::APPLY_BATCH);
            // Phase 1: the probes the batch still needs, whose misses overlap.
            for (ids, (_, event, resolved)) in found.iter_mut().zip(events.as_slice()) {
                *ids = if resolved.covers(event) {
                    *resolved
                } else {
                    self.resolve(event)
                };
            }
            // Phase 2, in order.
            for (ids, (peer, event, _)) in found.iter().zip(events.by_ref().take(n)) {
                if let Some(id) = self.apply_found(peer, event, *ids) {
                    changed(id);
                }
            }
        }
    }

    /// The body of [`RoutingTable::apply_owned`], given what the caller
    /// already resolved; an unknown id is looked up.
    fn apply_found(
        &mut self,
        peer: PeerId,
        event: ElementaryEvent,
        found: Resolved,
    ) -> Option<PrefixId> {
        match event {
            ElementaryEvent::Announce { prefix, attrs, .. } => {
                self.insert(peer, prefix, Route::new(peer, attrs), found)
            }
            ElementaryEvent::Withdraw { prefix, .. } => {
                let state = self.peers.get_mut(&peer)?;
                let id = found.prefix().or_else(|| self.interner.get(&prefix))?;
                debug_assert_eq!(self.interner.prefix(id), &prefix, "resolved elsewhere");
                state.routes.remove(id).then_some(id)
            }
        }
    }

    /// Bulk-announces a prefix from a peer (convenience used by generators).
    /// Returns the prefix's id, `None` (and changes nothing) if the peer is
    /// not registered. `route.peer` must be `peer`: the table stores no peer
    /// per route, and hands the route out as `peer`'s.
    pub fn announce(&mut self, peer: PeerId, prefix: Prefix, route: Route) -> Option<PrefixId> {
        self.insert(peer, prefix, route, Resolved::UNKNOWN)
    }

    /// Installs or replaces `peer`'s route for `prefix`; `found` holds what
    /// the caller already resolved. The only place a prefix or an attribute
    /// set is interned and a route enters a peer's storage: the route's
    /// attributes move into the dictionary if they are new and are dropped
    /// otherwise.
    fn insert(
        &mut self,
        peer: PeerId,
        prefix: Prefix,
        route: Route,
        found: Resolved,
    ) -> Option<PrefixId> {
        debug_assert_eq!(route.peer, peer, "a route is filed under its own peer");
        let state = self.peers.get_mut(&peer)?;
        let id = (found.prefix()).unwrap_or_else(|| self.interner.intern(prefix));
        debug_assert_eq!(self.interner.prefix(id), &prefix, "resolved elsewhere");
        let attrs = match found.attrs() {
            Some(attrs) => {
                debug_assert_eq!(
                    self.dictionary.get(attrs),
                    &route.attrs,
                    "resolved elsewhere"
                );
                attrs
            }
            None => self.dictionary.intern(route.attrs),
        };
        state.routes.insert(id, attrs);
        Some(id)
    }

    /// Withdraws every route learned from `peer` while keeping the peer
    /// registered: the state of a BGP session that just went down but may
    /// re-establish. Returns the ids of the prefixes whose route from `peer`
    /// was withdrawn, in id order (unregistered peers yield an empty list).
    pub fn clear_peer(&mut self, peer: PeerId) -> Vec<PrefixId> {
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        let routes = std::mem::take(&mut state.routes);
        routes.iter().map(|(id, _)| id).collect()
    }

    /// Total number of prefixes with at least one route.
    pub fn prefix_count(&self) -> usize {
        self.routed_ids().count()
    }

    /// The ids that currently have a route from some peer, in id order.
    pub fn routed_ids(&self) -> impl Iterator<Item = PrefixId> + '_ {
        self.ids()
            .filter(|id| self.candidates_of(Some(*id)).next().is_some())
    }

    /// The routed ids in ascending prefix order — the sort every ordered
    /// iteration of the table pays instead of keeping an ordered map.
    fn routed_ids_by_prefix(&self) -> impl Iterator<Item = PrefixId> {
        let mut routed: Vec<(Prefix, PrefixId)> = self
            .routed_ids()
            .map(|id| (*self.interner.prefix(id), id))
            .collect();
        routed.sort_unstable();
        routed.into_iter().map(|(_, id)| id)
    }

    /// The routes every peer holds for one id (none for `None`).
    fn candidates_of(&self, id: Option<PrefixId>) -> impl Iterator<Item = RouteRef<'_>> + Clone {
        self.peers.iter().filter_map(move |(peer, state)| {
            let attrs = self.dictionary.get(state.routes.get(id?)?);
            Some(RouteRef { peer: *peer, attrs })
        })
    }

    /// The best route for a prefix.
    pub fn best(&self, prefix: &Prefix) -> Option<RouteRef<'_>> {
        self.candidates(prefix)
            .max_by(|a, b| a.compare_preference(b))
    }

    /// All candidate routes for a prefix, in no particular order. The
    /// iterator is cheap to clone: the prefix is resolved once, so several
    /// passes over one prefix's candidates cost one hash probe.
    pub fn candidates(&self, prefix: &Prefix) -> impl Iterator<Item = RouteRef<'_>> + Clone {
        self.candidates_of(self.interner.get(prefix))
    }

    /// [`RoutingTable::candidates`] of the prefix behind `id`, without the
    /// probe: one record read per peer.
    pub fn candidates_by_id(&self, id: PrefixId) -> impl Iterator<Item = RouteRef<'_>> + Clone {
        self.candidates_of(Some(id))
    }

    /// Calls `f(i, route)` for every candidate route of `ids[i]`, for every
    /// `i`: [`RoutingTable::candidates_by_id`] of several ids in one walk of
    /// the peers. The walk is peer-major, so each id's routes arrive in peer
    /// order, as `candidates_by_id` yields them, and one peer's record reads
    /// for the whole slice are independent of each other.
    pub fn for_each_candidate<'a>(
        &'a self,
        ids: &[PrefixId],
        mut f: impl FnMut(usize, RouteRef<'a>),
    ) {
        for (peer, state) in &self.peers {
            for (i, id) in ids.iter().enumerate() {
                if let Some(route) = state.routes.get(*id) {
                    let attrs = self.dictionary.get(route);
                    f(i, RouteRef { peer: *peer, attrs });
                }
            }
        }
    }

    /// Every routed prefix with its candidate routes, in ascending prefix
    /// order: the whole-table pass (plan building, the forwarding-table
    /// build) that resolves no prefix by hash.
    pub fn routed(
        &self,
    ) -> impl Iterator<Item = (&Prefix, impl Iterator<Item = RouteRef<'_>> + Clone)> {
        self.routed_ids_by_prefix()
            .map(|id| (self.interner.prefix(id), self.candidates_of(Some(id))))
    }

    /// Iterates over `(prefix, best route)` pairs in ascending prefix order.
    pub fn best_routes(&self) -> impl Iterator<Item = (&Prefix, RouteRef<'_>)> {
        self.routed().map(|(prefix, candidates)| {
            let best = candidates.max_by(|a, b| a.compare_preference(b));
            (prefix, best.expect("routed ids have a candidate"))
        })
    }

    /// Counts, for every directed AS link appearing in the best paths learned
    /// from `peer`, how many of that peer's prefixes traverse it.
    ///
    /// This is the `W(l,t) + P(l,t)` denominator basis of the Path Share metric
    /// and the per-link prefix counts the encoding scheme prioritises on.
    pub fn link_prefix_counts(&self, peer: PeerId) -> HashMap<AsLink, usize> {
        let mut counts: HashMap<AsLink, usize> = HashMap::new();
        if let Some(state) = self.peers.get(&peer) {
            for (_, route) in state.routes.iter() {
                for link in self.dictionary.get(route).as_path.links() {
                    *counts.entry(link).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// All prefixes known to the table (those with at least one route), in
    /// ascending order.
    pub fn prefixes(&self) -> impl Iterator<Item = &Prefix> {
        self.routed().map(|(prefix, _)| prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::AsPath;
    use crate::attributes::RouteAttributes;

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn route(peer: u32, hops: &[u32]) -> Route {
        Route::new(
            PeerId(peer),
            RouteAttributes::from_path(AsPath::new(hops.iter().copied())),
        )
    }

    /// Builds the Fig. 1 routing table of the paper as seen by the AS 1 router:
    /// peers AS 2 (peer 2), AS 3 (peer 3) and AS 4 (peer 4). AS 6/7/8 originate
    /// prefixes; the best paths go through AS 2.
    fn fig1_table() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.add_peer(PeerId(2), Asn(2));
        t.add_peer(PeerId(3), Asn(3));
        t.add_peer(PeerId(4), Asn(4));

        // Prefixes of AS 6 (indices 0..10): best (2 5 6), alt (4 5 6), alt (3 6).
        for i in 0..10 {
            t.announce(PeerId(2), p(i), route(2, &[2, 5, 6]));
            t.announce(PeerId(4), p(i), route(4, &[4, 5, 6]));
            t.announce(PeerId(3), p(i), route(3, &[3, 6]));
        }
        // Prefixes of AS 7 (indices 10..20): best (2 5 6 7), alt (3 6 7).
        for i in 10..20 {
            t.announce(PeerId(2), p(i), route(2, &[2, 5, 6, 7]));
            t.announce(PeerId(3), p(i), route(3, &[3, 6, 7]));
        }
        // Prefixes of AS 8 (indices 20..30): best (2 5 6 8), alt (3 6 8).
        for i in 20..30 {
            t.announce(PeerId(2), p(i), route(2, &[2, 5, 6, 8]));
            t.announce(PeerId(3), p(i), route(3, &[3, 6, 8]));
        }
        t
    }

    #[test]
    fn apply_requires_registered_peer() {
        let mut t = RoutingTable::new();
        let ev = ElementaryEvent::Announce {
            timestamp: 0,
            prefix: p(0),
            attrs: RouteAttributes::from_path(AsPath::new([9u32])),
        };
        assert_eq!(t.apply_owned(PeerId(9), ev.clone()), None);
        assert!(t.peer_asn(PeerId(9)).is_none());
        assert_eq!(t.prefix_count(), 0);
        t.add_peer(PeerId(9), Asn(9));
        assert!(t.apply_owned(PeerId(9), ev).is_some());
        assert!(t.peer_asn(PeerId(9)).is_some());
        assert_eq!(t.prefix_count(), 1);
    }

    #[test]
    fn withdrawing_an_unseen_prefix_interns_and_grows_nothing() {
        let mut t = fig1_table();
        let ids = t.interner.len();
        let footprints = |t: &RoutingTable| -> Vec<(usize, usize)> {
            t.peers.values().map(|s| s.routes.footprint()).collect()
        };
        let before = footprints(&t);
        // Noise: a prefix no peer ever announced, and a known prefix (id 15)
        // withdrawn by a peer whose routes stop at id 9.
        for (peer, prefix) in [(2, p(999)), (4, p(15)), (4, p(999))] {
            let ev = ElementaryEvent::Withdraw {
                timestamp: 1,
                prefix,
            };
            assert_eq!(t.apply_owned(PeerId(peer), ev), None);
        }
        assert_eq!(t.interner.len(), ids, "no id interned");
        assert_eq!(footprints(&t), before, "no per-peer storage grew");
        // Clearing a peer interns nothing either, and a real withdrawal
        // reports the prefix's id.
        assert_eq!(t.clear_peer(PeerId(4)).len(), 10);
        assert_eq!(t.interner.len(), ids);
        let ev = ElementaryEvent::Withdraw {
            timestamp: 2,
            prefix: p(15),
        };
        let id = t.apply_owned(PeerId(2), ev).expect("route removed");
        assert_eq!(t.prefix_of(id), p(15));
    }

    /// `resolve` finds what the table holds and interns nothing; a
    /// resolved event folds like an unresolved one.
    #[test]
    fn resolve_looks_up_and_never_interns() {
        assert_eq!(std::mem::size_of::<Resolved>(), 8);
        let mut t = fig1_table();
        let (ids, sets) = (t.id_count(), t.attr_count());
        let announce = |i, hops: &[u32]| ElementaryEvent::Announce {
            timestamp: 1,
            prefix: p(i),
            attrs: route(2, hops).attrs,
        };
        let known = t.resolve(&announce(3, &[2, 5, 6]));
        assert_eq!(known.prefix(), t.prefix_id(&p(3)));
        assert!(known.attrs().is_some());
        let new_set = t.resolve(&announce(3, &[2, 9]));
        assert_eq!((new_set.prefix(), new_set.attrs()), (known.prefix(), None));
        let noise = ElementaryEvent::Withdraw {
            timestamp: 1,
            prefix: p(999),
        };
        assert_eq!(t.resolve(&noise), Resolved::UNKNOWN);
        assert_eq!((t.id_count(), t.attr_count()), (ids, sets));

        let mut buffer = vec![
            (PeerId(2), announce(3, &[2, 9]), new_set),
            (PeerId(2), announce(40, &[2, 9]), Resolved::UNKNOWN),
            (PeerId(4), noise.clone(), t.resolve(&noise)),
        ];
        let mut changed = Vec::new();
        t.apply_all(&mut buffer, |id| changed.push(id));
        let changed: Vec<Prefix> = changed.into_iter().map(|id| t.prefix_of(id)).collect();
        assert_eq!(changed, [p(3), p(40)]);
        assert_eq!((t.id_count(), t.attr_count()), (ids + 1, sets + 1));
        assert_eq!(t.best(&p(40)).unwrap().as_path().hops(), [Asn(2), Asn(9)]);
    }

    #[test]
    fn clear_peer_withdraws_routes_but_keeps_registration() {
        let mut t = fig1_table();
        // Peer 3 offers the shortest paths, so it is best everywhere.
        assert_eq!(t.best(&p(0)).unwrap().peer, PeerId(3));
        let cleared = t.clear_peer(PeerId(3));
        assert_eq!(cleared.len(), 30);
        assert_eq!(t.adj_rib_in(PeerId(3)).unwrap().len(), 0);
        assert_eq!(t.peer_asn(PeerId(3)), Some(Asn(3)), "peer stays registered");
        // Best paths fall back to the surviving peers; nothing dangles.
        assert_eq!(t.best(&p(0)).unwrap().peer, PeerId(2));
        assert_eq!(t.prefix_count(), 30, "every prefix kept an alternate");
        // The session can re-establish: announcements flow again.
        assert!(t.announce(PeerId(3), p(0), route(3, &[3, 6])).is_some());
        assert_eq!(t.adj_rib_in(PeerId(3)).unwrap().len(), 1);
        // Re-registering adopts a new AS number without touching the RIB.
        t.add_peer(PeerId(3), Asn(33));
        assert_eq!(t.peer_asn(PeerId(3)), Some(Asn(33)));
        assert_eq!(t.adj_rib_in(PeerId(3)).unwrap().len(), 1);
        // Clearing an unknown peer is a no-op.
        assert!(t.clear_peer(PeerId(99)).is_empty());
    }

    #[test]
    fn peer_registration_and_lookup() {
        let t = fig1_table();
        assert_eq!(t.peer_count(), 3);
        assert_eq!(t.peer_asn(PeerId(2)), Some(Asn(2)));
        assert_eq!(t.peer_asn(PeerId(99)), None);
        assert_eq!(t.prefix_count(), 30);
        assert_eq!(t.adj_rib_in(PeerId(2)).unwrap().len(), 30);
        assert_eq!(t.adj_rib_in(PeerId(3)).unwrap().len(), 30);
        assert_eq!(t.adj_rib_in(PeerId(4)).unwrap().len(), 10);
    }

    #[test]
    fn link_prefix_counts_match_fig1() {
        let t = fig1_table();
        let counts = t.link_prefix_counts(PeerId(2));
        assert_eq!(counts[&AsLink::new(2, 5)], 30);
        assert_eq!(counts[&AsLink::new(5, 6)], 30);
        assert_eq!(counts[&AsLink::new(6, 7)], 10);
        assert_eq!(counts[&AsLink::new(6, 8)], 10);
        assert!(!counts.contains_key(&AsLink::new(3, 6)));
    }

    #[test]
    fn best_route_prefers_shortest_path() {
        let t = fig1_table();
        // For AS 6 prefixes, (3 6) is shorter than (2 5 6).
        assert_eq!(t.best(&p(0)).unwrap().peer, PeerId(3));
        // Excluding peer 3, (2 5 6) and (4 5 6) tie; lowest peer id wins.
        let excluding = (t.candidates(&p(0)))
            .filter(|r| r.peer != PeerId(3))
            .max_by(|a, b| a.compare_preference(b));
        assert_eq!(excluding.unwrap().peer, PeerId(2));
        assert_eq!(t.candidates(&p(0)).count(), 3);
    }

    #[test]
    fn withdrawal_updates_both_ribs() {
        let mut t = fig1_table();
        let ev = ElementaryEvent::Withdraw {
            timestamp: 10,
            prefix: p(0),
        };
        assert!(t.apply_owned(PeerId(2), ev).is_some());
        assert_eq!(t.adj_rib_in(PeerId(2)).unwrap().len(), 29);
        // Loc-RIB still has routes from peers 3 and 4 for p(0).
        assert_eq!(t.candidates(&p(0)).count(), 2);
        assert_eq!(t.prefix_count(), 30);
    }
}
