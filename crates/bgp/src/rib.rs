//! Routing Information Bases.
//!
//! * [`Route`] — one route for one prefix from one peer, owned: the form
//!   routes and events enter a table in, and the BGP decision process
//!   ordering two of them.
//! * [`RouteRef`] — a route as a table hands it out: a `Copy` view of a
//!   stored route whose attributes are borrowed from the table's attribute
//!   dictionary.
//! * [`AdjRibIn`] — the per-peer RIB: what one neighbour currently announces,
//!   as a view into a [`crate::table::RoutingTable`].
//!
//! There is no separate router-wide RIB (a "Loc-RIB" holding a second copy of
//! every candidate route): [`crate::table::RoutingTable`] answers the
//! router-wide questions from the per-peer storage below, so every route
//! exists exactly once.
//!
//! SWIFT needs both views: the inference algorithm's `W(l,t)` / `P(l,t)`
//! counters are defined over the paths announced on *one* session (the per-peer
//! view), whereas backup next-hop computation (§5) needs the alternative routes
//! announced by *other* peers (the router-wide view, see
//! [`crate::table::RoutingTable`]).
//!
//! # Storage and its invariants
//!
//! The table interns every prefix once ([`PrefixInterner`]: `Prefix` → dense
//! [`PrefixId`], ids never reused) and every distinct attribute set once (its
//! attribute dictionary, see [`crate::attributes`]), and each peer keeps
//! `PeerRoutes`: a 4-byte slot per prefix id pointing into a slab of 16-byte
//! `StoredRoute` records — peer, attribute id, time learned — with a free
//! list. The record is `Copy` and owns nothing, so applying an event is a
//! probe of the prefix dictionary (one cache line on a hit), for an
//! announcement a probe of the attribute dictionary, plus array writes: an
//! announcement writes its record into its slab entry (the event's
//! attributes move into the dictionary if they are new and are dropped
//! otherwise), a withdrawal marks the entry free and reads nothing. Nothing
//! on that path is ordered.
//! The invariants (the index maps the prefix of id `i` to `i`; non-vacant slots
//! point at distinct live slab entries, the rest of the slab is the free
//! list) are maintained in exactly four functions —
//! `PrefixInterner::intern`, `PrefixInterner::seal`, `PeerRoutes::insert`
//! and `PeerRoutes::remove` — and checked against a plain ordered-map model
//! by `crates/bgp/tests/proptest_table.rs` (the interner alone, sealed and
//! cloned, against a map model by `crates/bgp/tests/proptests.rs`). Ordered
//! iteration ([`AdjRibIn::iter`], [`AdjRibIn::views`]) sorts on demand: it is
//! used by generators and the forwarding-table build, never per event;
//! engine seeding walks the routes in id order
//! ([`AdjRibIn::intern_paths`]).

use crate::as_path::{AsLink, AsPath};
use crate::attributes::{AttrDictionary, AttrId, RouteAttributes};
use crate::interner::{PathId, PathInterner};
use crate::prefix::Prefix;
use crate::session::PeerId;
use crate::Timestamp;
use std::cmp::Ordering;
use std::sync::Arc;

/// A route for one prefix learned from one peer, owned: what
/// [`crate::RoutingTable::announce`] takes and [`AdjRibIn::iter`] yields.
/// A table stores it as a 16-byte record and hands it out as a
/// [`RouteRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The peer the route was learned from.
    pub peer: PeerId,
    /// The route's path attributes.
    pub attrs: RouteAttributes,
    /// When the route was last announced.
    pub learned_at: Timestamp,
}

impl Route {
    /// Creates a route.
    pub fn new(peer: PeerId, attrs: RouteAttributes, learned_at: Timestamp) -> Self {
        Route {
            peer,
            attrs,
            learned_at,
        }
    }

    /// The route's AS path.
    pub fn as_path(&self) -> &AsPath {
        &self.attrs.as_path
    }

    /// The route as a borrowed view, the form a table hands out.
    pub fn view(&self) -> RouteRef<'_> {
        RouteRef {
            peer: self.peer,
            attrs: &self.attrs,
            learned_at: self.learned_at,
        }
    }

    /// [`RouteRef::compare_preference`] of the two routes.
    pub fn compare_preference(&self, other: &Route) -> Ordering {
        self.view().compare_preference(&other.view())
    }
}

/// A route as a [`crate::RoutingTable`] hands it out: the stored record's
/// peer and time, and its attributes borrowed from the table's attribute
/// dictionary. `Copy`, 24 bytes; [`RouteRef::to_route`] makes it owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRef<'a> {
    /// The peer the route was learned from.
    pub peer: PeerId,
    /// The route's path attributes.
    pub attrs: &'a RouteAttributes,
    /// When the route was last announced.
    pub learned_at: Timestamp,
}

impl<'a> RouteRef<'a> {
    /// The route's AS path, borrowed from the table (not from the view).
    #[inline]
    pub fn as_path(&self) -> &'a AsPath {
        &self.attrs.as_path
    }

    /// Compares two routes with the standard BGP decision process:
    /// 1. highest LOCAL_PREF,
    /// 2. shortest AS path,
    /// 3. lowest ORIGIN rank,
    /// 4. lowest MED,
    /// 5. oldest route,
    /// 6. lowest peer identifier (stand-in for lowest router ID).
    ///
    /// Returns [`Ordering::Greater`] if `self` is preferred over `other`.
    pub fn compare_preference(&self, other: &RouteRef<'_>) -> Ordering {
        self.attrs
            .effective_local_pref()
            .cmp(&other.attrs.effective_local_pref())
            .then_with(|| other.attrs.as_path.len().cmp(&self.attrs.as_path.len()))
            .then_with(|| other.attrs.origin.rank().cmp(&self.attrs.origin.rank()))
            .then_with(|| other.attrs.effective_med().cmp(&self.attrs.effective_med()))
            .then_with(|| other.learned_at.cmp(&self.learned_at))
            .then_with(|| other.peer.cmp(&self.peer))
    }

    /// The route, owned (its attributes cloned).
    pub fn to_route(&self) -> Route {
        Route::new(self.peer, self.attrs.clone(), self.learned_at)
    }
}

/// A route as a peer's slab stores it: 16 bytes, `Copy`, its attributes by
/// id into the owning table's attribute dictionary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoredRoute {
    pub(crate) peer: PeerId,
    pub(crate) attrs: AttrId,
    pub(crate) learned_at: Timestamp,
}

impl StoredRoute {
    /// The record as a view, its attributes read from `dictionary`.
    #[inline]
    pub(crate) fn view(self, dictionary: &AttrDictionary) -> RouteRef<'_> {
        RouteRef {
            peer: self.peer,
            attrs: dictionary.get(self.attrs),
            learned_at: self.learned_at,
        }
    }
}

/// Dense id of a prefix, handed out by a [`PrefixInterner`] in first-seen
/// order: table-wide for a [`crate::table::RoutingTable`]'s interner and the
/// engines that share it, session-local for an engine's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixId(pub(crate) u32);

impl PrefixId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id whose [`PrefixId::index`] is `index` (for a bitmap of ids).
    pub fn from_index(index: usize) -> Self {
        PrefixId(index as u32)
    }
}

impl From<PrefixId> for u32 {
    fn from(id: PrefixId) -> u32 {
        id.0
    }
}

/// Width of the id field of a [`PrefixInterner`] slot; the key takes the 38
/// bits above it.
const ID_BITS: u32 = 26;

/// The id field of a slot. Also the interner's id cap: ids are handed out
/// below it, so at most 2^26 − 1 prefixes are interned.
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// An unoccupied slot. No prefix packs to it: its key would have length 63.
const EMPTY: u64 = u64::MAX;

/// The interner's max load, in eighths: the index doubles before more than
/// 7/8 of its slots would be occupied.
const MAX_LOAD_EIGHTHS: usize = 7;

/// Fewest slots a non-empty index has.
const MIN_SLOTS: usize = 16;

/// A prefix as a slot key: `addr << 6 | len`, 38 bits.
#[inline]
fn key(prefix: &Prefix) -> u64 {
    u64::from(prefix.addr()) << 6 | u64::from(prefix.len())
}

/// The id the next new prefix gets when `interned` prefixes already have
/// one; `None` past the cap.
fn next_id(interned: usize) -> Option<u32> {
    (interned < ID_MASK as usize).then_some(interned as u32)
}

/// Whether `n` occupied slots out of `slots` stay within the max load.
fn fits(n: usize, slots: usize) -> bool {
    n * 8 <= slots * MAX_LOAD_EIGHTHS
}

/// Prefixes per chunk of a [`PrefixList`], as a power of two.
const CHUNK_BITS: u32 = 12;

/// One chunk of a [`PrefixList`].
type Chunk = [Prefix; PrefixList::CHUNK];

/// Newest ids a [`PrefixList`] holds inline before writing them to its
/// open chunk together: a write to a chunk behind an `Arc` first checks,
/// with a locked instruction, that no snapshot shares it, and one such
/// check per prefix stalled a million-prefix seeding by 10–15 % (2-vCPU
/// x86-64). A divisor of the chunk size.
const TAIL: usize = 16;

/// A [`PrefixInterner`]'s id → prefix list, kept in fixed-size chunks that
/// its copies share.
///
/// The prefix behind id `i` is [`PrefixList::get`]`(i)`: slot
/// `i % CHUNK` of chunk `i / CHUNK`, or, for the newest ids, an inline
/// tail of up to 16 prefixes. Every chunk is allocated whole, once,
/// behind an `Arc`. The full chunks, and the list of them, are immutable
/// and shared; the open chunk after them is copied on the first write after
/// it was shared. So a clone — what [`PrefixInterner::snapshot`] hands out
/// — costs two reference-count bumps and a copy of the tail, no
/// allocation, and reads the same prefixes for ever: whatever its source
/// interns later lands where the clone does not read (its own tail, past
/// the clone's length in a copy of the open chunk, in new chunks, in a copy
/// of the chunk list). Filling a chunk moves it to the full ones without a
/// copy.
///
/// A clone keeps alive every chunk it indexes: the full ones shared with
/// every other copy, and the open one privately once its source has written
/// to it — at most one partial chunk per clone.
#[derive(Debug, Clone)]
pub struct PrefixList {
    /// The full chunks, in id order.
    full: Arc<Vec<Arc<Chunk>>>,
    /// The chunk after them, holding the ids up to the tail; `None` while
    /// there are none.
    open: Option<Arc<Chunk>>,
    /// The last `len % TAIL` ids.
    tail: [Prefix; TAIL],
    /// Number of ids.
    len: usize,
}

impl Default for PrefixList {
    fn default() -> Self {
        PrefixList {
            full: Arc::default(),
            open: None,
            tail: [Prefix::DEFAULT; TAIL],
            len: 0,
        }
    }
}

impl PrefixList {
    /// Prefixes per chunk (32 KiB of them).
    pub const CHUNK: usize = 1 << CHUNK_BITS;

    /// Number of prefixes, one per id.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list holds no prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of ids written to chunks: all but the tail.
    fn chunked(&self) -> usize {
        self.len - self.len % TAIL
    }

    /// The prefix behind id `id`. Panics if `id >= len()`.
    #[inline]
    pub fn get(&self, id: usize) -> &Prefix {
        assert!(id < self.len, "id {id} is past the list's {}", self.len);
        if id >= self.chunked() {
            return &self.tail[id % TAIL];
        }
        let chunk = match self.full.get(id >> CHUNK_BITS) {
            Some(chunk) => chunk,
            None => self
                .open
                .as_ref()
                .expect("the open chunk holds the ids past the full ones"),
        };
        &chunk[id & (Self::CHUNK - 1)]
    }

    /// The prefixes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Prefix> + Clone {
        let open = self.chunked() & (Self::CHUNK - 1);
        self.full
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(self.open.iter().flat_map(move |chunk| &chunk[..open]))
            .chain(&self.tail[..self.len % TAIL])
    }

    /// Appends the prefix of the next id. A full tail moves to the open
    /// chunk, and a full open chunk to the full ones.
    fn push(&mut self, prefix: Prefix) {
        self.tail[self.len % TAIL] = prefix;
        self.len += 1;
        if self.len % TAIL != 0 {
            return;
        }
        let at = (self.len - TAIL) & (Self::CHUNK - 1);
        let open = self
            .open
            .get_or_insert_with(|| Arc::new([Prefix::DEFAULT; Self::CHUNK]));
        Arc::make_mut(open)[at..at + TAIL].copy_from_slice(&self.tail);
        if at + TAIL == Self::CHUNK {
            let full = self.open.take().expect("just written");
            Arc::make_mut(&mut self.full).push(full);
        }
    }
}

/// The `Prefix` ↔ [`PrefixId`] dictionary: a routing table's (behind every
/// [`AdjRibIn`] probe), shared by the inference engines of the table's full
/// feeds, and an engine's own otherwise.
///
/// # Layout
///
/// The id → prefix direction is a [`PrefixList`], shared by clones and
/// snapshots. The other direction is two insert-only open-addressing
/// indexes with linear probing:
///
/// * `base`, sealed: it covers the ids below `base_len`, sits behind an
///   `Arc` and never changes, so every clone shares it;
/// * `own`, private: the ids interned since the last
///   [`PrefixInterner::seal`], which a clone copies.
///
/// A lookup probes `base`, and `own` only on a miss while `own` holds an
/// id; an intern that misses both goes to `own`. So a clone costs a
/// reference-count bump plus a copy of `own` — nothing once sealed — and
/// holders that intern different prefixes after a seal number them apart
/// without disturbing each other. [`PrefixInterner::seal`] folds `own` into
/// a new `base`: it wraps `own` as it is when nothing was sealed before
/// (no copy), and otherwise rebuilds one index over both.
///
/// Each slot is one `u64` packing the key (`addr << 6 | len`, 38 bits)
/// above the id (26 bits), so a probe that hits reads one cache line, and
/// compares the key where it reads the id. The slot count is a power of two;
/// a key's home slot is the low bits of its product with an odd constant,
/// with the product's high half folded onto them. The fold matters:
/// consecutive /24s have keys 2^14 apart, and with the product's top bits
/// alone (Fibonacci hashing) a lookup among a million of them walks ~13
/// slots on average; with the fold it walks ~1.2 at that table's load of ½.
/// An index doubles before its load would pass 7/8 (`MAX_LOAD_EIGHTHS`), so
/// it costs 9.1 to 18.3 bytes per prefix, plus 8 for the list entry; a
/// clone shares both for every sealed id. Ids are never freed, so neither
/// index has tombstones.
///
/// # Invariants
///
/// The slot holding `prefixes.get(i)`'s key holds id `i` — in `base` if
/// `i < base_len`, in `own` otherwise — and it is reached from that key's
/// home slot without crossing an empty one. A key is in at most one of the
/// two indexes: an intern probes both before it adds one. Ids are handed
/// out densely in first-seen order and never reused — a prefix that lost
/// all its routes keeps its id, so arrays indexed by ids stay valid — and a
/// clone keeps every id. Ids below `base_len` mean the same prefix to every
/// holder of the sealed index; an id interned after the seal means
/// something only to the holder that interned it. Only an announcement
/// interns; withdrawals look up.
///
/// # Id cap
///
/// At most 2^26 − 1 (~67 M) prefixes: [`PrefixInterner::intern`] panics on
/// the next one. A full IPv4 table is ~1 M prefixes, so one session or one
/// router would have to announce ~60 full tables' worth of distinct
/// prefixes, which no BGP speaker holds.
#[derive(Debug, Clone, Default)]
pub struct PrefixInterner {
    /// The sealed index of the ids below `base_len`: packed
    /// `key << ID_BITS | id` slots, or [`EMPTY`]; a power of two long, or
    /// empty until the first seal.
    base: Arc<Vec<u64>>,
    /// Number of ids `base` covers.
    base_len: usize,
    /// The index of the ids interned since the seal, laid out as `base`.
    own: Vec<u64>,
    prefixes: PrefixList,
}

impl PrefixInterner {
    /// Creates an empty interner; the index is allocated on first intern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids handed out.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Number of ids interned since the last seal (held in `own`).
    fn own_len(&self) -> usize {
        self.len() - self.base_len
    }

    /// Number of slots in the two indexes.
    pub fn capacity(&self) -> usize {
        self.base.len() + self.own.len()
    }

    /// Sizes the private index, once, for `additional` more prefixes:
    /// interning that many new ones afterwards never grows it.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.own_len() + additional;
        if !fits(needed, self.own.len()) {
            let mut slots = self.own.len().max(MIN_SLOTS);
            while !fits(needed, slots) {
                slots *= 2;
            }
            self.rehash(slots);
        }
    }

    /// The id of `prefix`, if it was ever interned.
    #[inline]
    pub fn get(&self, prefix: &Prefix) -> Option<PrefixId> {
        let key = key(prefix);
        match probe(&self.base, key) {
            Ok(id) => Some(id),
            Err(_) if self.own_len() == 0 => None,
            Err(_) => probe(&self.own, key).ok(),
        }
    }

    /// The id of `prefix`, handing out the next one if it is new.
    ///
    /// Panics past the id cap (see the type docs).
    pub fn intern(&mut self, prefix: Prefix) -> PrefixId {
        let key = key(&prefix);
        if let Ok(id) = probe(&self.base, key) {
            return id;
        }
        let mut at = match probe(&self.own, key) {
            Ok(id) => return id,
            Err(at) => at,
        };
        let id = next_id(self.len()).expect("more than 2^26 - 1 interned prefixes");
        if !fits(self.own_len() + 1, self.own.len()) {
            self.rehash((self.own.len() * 2).max(MIN_SLOTS));
            at = vacant(&self.own, key);
        }
        self.own[at] = key << ID_BITS | u64::from(id);
        self.prefixes.push(prefix);
        PrefixId(id)
    }

    /// Folds the ids interned since the last seal into the sealed index,
    /// which this interner's later clones share instead of copying. Free
    /// when nothing was sealed before (the private index becomes the sealed
    /// one as it is) or nothing was interned since; otherwise one pass over
    /// both indexes into a new sealed one, which leaves the old one to the
    /// clones that share it. Ids and lookups are unchanged.
    pub fn seal(&mut self) {
        if self.own_len() == 0 {
            return;
        }
        let own = std::mem::take(&mut self.own);
        if self.base.is_empty() {
            self.base = Arc::new(own);
        } else {
            let mut slots = MIN_SLOTS;
            while !fits(self.len(), slots) {
                slots *= 2;
            }
            let mut index = vec![EMPTY; slots];
            for &slot in self.base.iter().chain(&own).filter(|slot| **slot != EMPTY) {
                let at = vacant(&index, slot >> ID_BITS);
                index[at] = slot;
            }
            self.base = Arc::new(index);
        }
        self.base_len = self.len();
    }

    /// The prefix behind `id`. Panics if `id` came from another interner.
    #[inline]
    pub fn prefix(&self, id: PrefixId) -> &Prefix {
        self.prefixes.get(id.index())
    }

    /// The interned prefixes, in id order.
    pub fn prefixes(&self) -> &PrefixList {
        &self.prefixes
    }

    /// The interned prefixes as they are now, for as long as the caller
    /// keeps them: reference-count bumps, no copy (see [`PrefixList`]).
    pub fn snapshot(&self) -> PrefixList {
        self.prefixes.clone()
    }

    /// Moves every occupied slot of the private index into a fresh one of
    /// `slots` slots, each re-probed from its home there.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.own, vec![EMPTY; slots]);
        for slot in old.into_iter().filter(|slot| *slot != EMPTY) {
            let at = vacant(&self.own, slot >> ID_BITS);
            self.own[at] = slot;
        }
    }
}

/// `key`'s home slot in an index of `slots.len()` slots: the low bits of
/// its product with an odd constant, the product's high half folded onto
/// them.
#[inline]
fn home(slots: &[u64], key: u64) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h ^ h >> 32) as usize & (slots.len() - 1)
}

/// Walks an index from `key`'s home slot: its id if the key is held,
/// otherwise the empty slot that ends the walk (0 in an index with no
/// slots).
#[inline]
fn probe(slots: &[u64], key: u64) -> Result<PrefixId, usize> {
    if slots.is_empty() {
        return Err(0);
    }
    let mask = slots.len() - 1;
    let mut at = home(slots, key);
    loop {
        let slot = slots[at];
        if slot == EMPTY {
            return Err(at);
        }
        if slot >> ID_BITS == key {
            return Ok(PrefixId((slot & ID_MASK) as u32));
        }
        at = (at + 1) & mask;
    }
}

/// The empty slot of an index that a key known to be absent goes into.
fn vacant(slots: &[u64], key: u64) -> usize {
    let mask = slots.len() - 1;
    let mut at = home(slots, key);
    while slots[at] != EMPTY {
        at = (at + 1) & mask;
    }
    at
}

/// "No route" marker of [`PeerRoutes::slots`].
const VACANT: u32 = u32::MAX;

/// One peer's routes, stored once and found by [`PrefixId`].
///
/// `slots[id]` is the index of the id's route in the `routes` slab, or
/// [`VACANT`] (as is every id beyond `slots.len()`). Invariants, maintained
/// by `insert` / `remove` (the only writers): every non-vacant slot points at
/// a distinct `Some` entry, and the `None` entries of `routes` are exactly
/// the indices on the `free` list. A slot is 4 bytes, so a peer that
/// announces only its own block of a large shared id space pays 4 bytes per
/// foreign id, not a route-sized hole.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerRoutes {
    slots: Vec<u32>,
    routes: Vec<Option<StoredRoute>>,
    free: Vec<u32>,
}

impl PeerRoutes {
    pub(crate) fn len(&self) -> usize {
        self.routes.len() - self.free.len()
    }

    #[inline]
    pub(crate) fn get(&self, id: PrefixId) -> Option<StoredRoute> {
        match self.slots.get(id.index()) {
            Some(&slot) if slot != VACANT => self.routes[slot as usize],
            _ => None,
        }
    }

    /// Installs or replaces the route for `id`.
    pub(crate) fn insert(&mut self, id: PrefixId, route: StoredRoute) {
        if self.slots.len() <= id.index() {
            self.slots.resize(id.index() + 1, VACANT);
        }
        let slot = &mut self.slots[id.index()];
        if *slot == VACANT {
            *slot = self.free.pop().unwrap_or_else(|| {
                self.routes.push(None);
                self.routes.len() as u32 - 1
            });
        }
        self.routes[*slot as usize] = Some(route);
    }

    /// Removes the route for `id`, freeing its slab entry; returns whether
    /// there was one. Never grows the slot array.
    pub(crate) fn remove(&mut self, id: PrefixId) -> bool {
        let Some(slot) = self.slots.get_mut(id.index()) else {
            return false;
        };
        let slot = std::mem::replace(slot, VACANT);
        if slot == VACANT {
            return false;
        }
        self.free.push(slot);
        self.routes[slot as usize] = None;
        true
    }

    /// Releases the slack the slab, the slot array and the free list grew
    /// by doubling (a bulk load leaves up to half of each unused).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.routes.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Length of the id-indexed slot array (what a withdrawal must not grow).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `(id, route)` pairs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PrefixId, StoredRoute)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| **slot != VACANT)
            .map(|(id, slot)| {
                let route = self.routes[*slot as usize];
                (PrefixId(id as u32), route.expect("occupied slot"))
            })
    }
}

/// The Adjacency-RIB-In of one peering session — what that peer currently
/// announces — as a read-only view into the owning
/// [`crate::table::RoutingTable`] (the peer's routes plus the table's prefix
/// and attribute dictionaries). Lookups are one hash probe; the ordered
/// iterations sort on demand, which is what keeps a B-tree off the
/// per-event path.
#[derive(Debug, Clone, Copy)]
pub struct AdjRibIn<'a> {
    pub(crate) interner: &'a PrefixInterner,
    pub(crate) dictionary: &'a AttrDictionary,
    pub(crate) routes: &'a PeerRoutes,
}

impl<'a> AdjRibIn<'a> {
    /// Number of prefixes currently announced by the peer.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns `true` if the peer announces nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The route for `prefix`, if announced.
    pub fn get(&self, prefix: &Prefix) -> Option<RouteRef<'a>> {
        let route = self.routes.get(self.interner.get(prefix)?)?;
        Some(route.view(self.dictionary))
    }

    /// Iterates over `(prefix, route)` pairs in ascending prefix order, each
    /// route viewed in place.
    pub fn views(&self) -> impl Iterator<Item = (&'a Prefix, RouteRef<'a>)> + 'a {
        let (interner, dictionary) = (self.interner, self.dictionary);
        let mut entries: Vec<(Prefix, PrefixId, StoredRoute)> = self
            .routes
            .iter()
            .map(|(id, route)| (*interner.prefix(id), id, route))
            .collect();
        entries.sort_unstable_by_key(|(prefix, _, _)| *prefix);
        entries
            .into_iter()
            .map(move |(_, id, route)| (interner.prefix(id), route.view(dictionary)))
    }

    /// The table's prefix dictionary, which numbers this peer's routes: a
    /// clone of it shares its sealed part (see [`PrefixInterner`]).
    pub fn prefix_ids(&self) -> &'a PrefixInterner {
        self.interner
    }

    /// The peer's routes in id order, as `(prefix id, path id)` pairs, the
    /// inference engines' seeding walk: a path is interned into `paths`
    /// when the first attribute set carrying it comes up, so the path ids
    /// are those of interning every route's path in id order, at one intern
    /// per distinct attribute set instead of one per route. Nothing is
    /// sorted and no prefix is read.
    pub fn intern_paths(&self, paths: &mut PathInterner) -> Vec<(PrefixId, PathId)> {
        let mut memo: Vec<Option<PathId>> = vec![None; self.dictionary.len()];
        let mut routes = Vec::with_capacity(self.len());
        for (id, route) in self.routes.iter() {
            let path = &self.dictionary.get(route.attrs).as_path;
            routes.push((
                id,
                *memo[route.attrs.index()].get_or_insert_with(|| paths.intern(path)),
            ));
        }
        routes
    }

    /// Iterates over `(prefix, route)` pairs in ascending prefix order, each
    /// route owned ([`AdjRibIn::views`] without the clones).
    pub fn iter(&self) -> impl Iterator<Item = (&'a Prefix, Route)> + 'a {
        self.views()
            .map(|(prefix, route)| (prefix, route.to_route()))
    }

    /// Iterates over the announced prefixes in ascending order.
    pub fn prefixes(&self) -> impl Iterator<Item = &'a Prefix> + 'a {
        self.views().map(|(prefix, _)| prefix)
    }

    /// Collects, in ascending order, the prefixes whose AS path traverses
    /// `link` (directed).
    pub fn prefix_set_via_link(&self, link: &AsLink) -> Vec<Prefix> {
        self.views()
            .filter(|(_, r)| r.as_path().crosses_link(link))
            .map(|(prefix, _)| *prefix)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::AsPath;
    use crate::message::ElementaryEvent;
    use crate::table::RoutingTable;

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn route(peer: u32, hops: &[u32], lp: Option<u32>, t: Timestamp) -> Route {
        let mut attrs = RouteAttributes::from_path(AsPath::new(hops.iter().copied()));
        attrs.local_pref = lp;
        Route::new(PeerId(peer), attrs, t)
    }

    /// The cap is the id field's width: the last id it hands out still packs
    /// beside the widest key without reaching the empty marker, and the next
    /// intern is refused — checked on the arithmetic, not on 67 M prefixes.
    #[test]
    fn interner_id_cap_matches_the_packed_id_width() {
        let cap = ID_MASK as usize;
        assert_eq!(cap, (1 << 26) - 1);
        assert_eq!(next_id(0), Some(0));
        assert_eq!(next_id(cap - 1), Some(cap as u32 - 1));
        assert_eq!(next_id(cap), None);
        assert_eq!(next_id(u32::MAX as usize + 1), None, "no silent wrap");
        for prefix in [Prefix::DEFAULT, "255.255.255.255/32".parse().unwrap()] {
            assert!(key(&prefix) < 1 << (64 - ID_BITS), "key fits 38 bits");
            for id in [0, cap as u64 - 1] {
                let slot = key(&prefix) << ID_BITS | id;
                assert_ne!(slot, EMPTY);
                assert_eq!((slot >> ID_BITS, slot & ID_MASK), (key(&prefix), id));
            }
        }
    }

    /// `reserve(n)` sizes the index once: n new prefixes after it never
    /// rehash, the (n + 1)-th past the load limit doubles it.
    #[test]
    fn interner_reserve_sizes_the_index_once() {
        for n in [1usize, 14, 15, 100, 896, 897, 5_000] {
            let mut interner = PrefixInterner::new();
            interner.reserve(n);
            let slots = interner.capacity();
            assert!(slots.is_power_of_two() && fits(n, slots));
            assert!(slots == MIN_SLOTS || !fits(n, slots / 2), "smallest fit");
            for i in 0..n as u32 {
                assert_eq!(interner.intern(p(i)).index(), i as usize);
            }
            assert_eq!(interner.capacity(), slots, "{n} prefixes grew the index");
            interner.intern(p(n as u32));
            let grown = if fits(n + 1, slots) { slots } else { slots * 2 };
            assert_eq!(interner.capacity(), grown);
            for i in 0..=n as u32 {
                assert_eq!(interner.get(&p(i)).map(PrefixId::index), Some(i as usize));
            }
        }
        let mut empty = PrefixInterner::new();
        assert_eq!((empty.capacity(), empty.get(&p(0))), (0, None));
        empty.reserve(0);
        assert_eq!(empty.capacity(), 0, "nothing to size for");
    }

    /// The first seal wraps the private index as it is; clones share it and
    /// keep their later interns to themselves; a seal over new prefixes
    /// builds a new sealed index and leaves the clones theirs.
    #[test]
    fn sealing_shares_the_index_with_clones() {
        let mut interner = PrefixInterner::new();
        for i in 0..1_000 {
            interner.intern(p(i));
        }
        let own = interner.own.as_ptr();
        interner.seal();
        assert_eq!((interner.base.as_ptr(), interner.own.len()), (own, 0));
        let mut clone = interner.clone();
        assert!(Arc::ptr_eq(&clone.base, &interner.base));
        assert_eq!(clone.intern(p(5_000)).index(), 1_000);
        assert_eq!(interner.intern(p(6_000)).index(), 1_000);
        assert_eq!(clone.get(&p(6_000)), None);
        interner.seal();
        assert!(!Arc::ptr_eq(&clone.base, &interner.base));
        assert_eq!((interner.base_len, interner.own.len()), (1_001, 0));
        for i in (0..1_000).chain([6_000]) {
            assert_eq!(*interner.prefix(interner.get(&p(i)).expect("kept")), p(i));
        }
        assert_eq!(clone.get(&p(5_000)).map(PrefixId::index), Some(1_000));
        assert_eq!(clone.get(&p(999)).map(PrefixId::index), Some(999));
    }

    /// A snapshot reads the prefixes it was taken over for ever, however far
    /// its source interns past it — into the open chunk it shares, across
    /// chunk boundaries, and through a clone that interns elsewhere.
    #[test]
    fn a_snapshot_never_sees_later_interns() {
        let chunk = PrefixList::CHUNK as u32;
        let mut interner = PrefixInterner::new();
        for i in 0..chunk + 21 {
            interner.intern(p(i));
        }
        let snap = interner.snapshot();
        let open = |list: &PrefixList| list.open.clone().expect("a partial chunk");
        assert!(
            Arc::ptr_eq(&open(&snap), &open(&interner.prefixes)),
            "shared"
        );
        let mut clone = interner.clone();
        for i in chunk + 21..3 * chunk {
            interner.intern(p(i));
        }
        clone.intern(p(9 * chunk));
        assert_eq!(snap.len(), chunk as usize + 21);
        assert!(snap.iter().copied().eq((0..chunk + 21).map(p)));
        // Ids in the shared open chunk, and in the snapshot's own tail.
        assert_eq!(*snap.get(chunk as usize + 15), p(chunk + 15));
        assert_eq!(*snap.get(chunk as usize + 20), p(chunk + 20));
        assert_eq!(interner.prefixes().len(), 3 * chunk as usize);
        assert_eq!(
            interner.prefixes.full.len(),
            3,
            "the open chunk moved on filling"
        );
        assert!(interner
            .prefixes()
            .iter()
            .copied()
            .eq((0..3 * chunk).map(p)));
        assert_eq!(*clone.prefix(PrefixId(chunk + 21)), p(9 * chunk));
        assert_eq!(interner.get(&p(9 * chunk)), None);
        assert!(Arc::ptr_eq(&snap.full[0], &interner.prefixes.full[0]));
    }

    #[test]
    #[should_panic(expected = "past the list")]
    fn an_id_past_the_snapshot_panics() {
        let mut interner = PrefixInterner::new();
        interner.intern(p(0));
        let snap = interner.snapshot();
        interner.intern(p(1));
        snap.get(1);
    }

    #[test]
    fn adj_rib_announce_withdraw_roundtrip() {
        let mut t = table_with_peers(1);
        let withdraw = |t: &mut RoutingTable| {
            t.apply_owned(
                PeerId(1),
                ElementaryEvent::Withdraw {
                    timestamp: 9,
                    prefix: p(1),
                },
            )
        };
        assert!(t.adj_rib_in(PeerId(1)).unwrap().is_empty());
        assert!(t
            .announce(PeerId(1), p(1), route(1, &[2, 5, 6], None, 0))
            .is_some());
        assert_eq!(t.adj_rib_in(PeerId(1)).unwrap().len(), 1);
        // Re-announcement is an implicit withdrawal: the route is replaced.
        assert!(t
            .announce(PeerId(1), p(1), route(1, &[3, 6], None, 5))
            .is_some());
        let rib = t.adj_rib_in(PeerId(1)).unwrap();
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(&p(1)).unwrap().as_path(), &AsPath::new([3u32, 6]));
        assert!(withdraw(&mut t).is_some());
        assert!(withdraw(&mut t).is_none());
        assert!(t.adj_rib_in(PeerId(1)).unwrap().is_empty());
    }

    #[test]
    fn adj_rib_link_queries() {
        let mut t = table_with_peers(1);
        // Announced out of order: the ordered queries sort.
        t.announce(PeerId(1), p(3), route(1, &[2, 5, 7], None, 0));
        t.announce(PeerId(1), p(2), route(1, &[2, 5, 6, 8], None, 0));
        t.announce(PeerId(1), p(1), route(1, &[2, 5, 6], None, 0));
        let rib = t.adj_rib_in(PeerId(1)).unwrap();
        assert_eq!(rib.prefix_set_via_link(&AsLink::new(2, 5)).len(), 3);
        assert_eq!(rib.prefix_set_via_link(&AsLink::new(6, 8)).len(), 1);
        assert!(rib.prefix_set_via_link(&AsLink::new(9, 9)).is_empty());
        let via = rib.prefix_set_via_link(&AsLink::new(5, 6));
        assert_eq!(via, vec![p(1), p(2)]);
        assert_eq!(
            rib.prefixes().copied().collect::<Vec<_>>(),
            vec![p(1), p(2), p(3)]
        );
    }

    #[test]
    fn decision_process_local_pref_dominates() {
        let short_low = route(1, &[2, 6], Some(50), 0);
        let long_high = route(2, &[3, 4, 5, 6], Some(200), 0);
        assert_eq!(long_high.compare_preference(&short_low), Ordering::Greater);
    }

    #[test]
    fn decision_process_path_length_then_origin_then_med() {
        let a = route(1, &[2, 6], None, 0);
        let b = route(2, &[3, 4, 6], None, 0);
        assert_eq!(a.compare_preference(&b), Ordering::Greater);

        let mut igp = route(1, &[2, 6], None, 0);
        igp.attrs.origin = crate::attributes::Origin::Igp;
        let mut incomplete = route(2, &[3, 6], None, 0);
        incomplete.attrs.origin = crate::attributes::Origin::Incomplete;
        assert_eq!(igp.compare_preference(&incomplete), Ordering::Greater);

        let mut low_med = route(1, &[2, 6], None, 0).attrs;
        low_med.med = Some(5);
        let mut high_med = route(2, &[3, 6], None, 0).attrs;
        high_med.med = Some(50);
        let low = Route::new(PeerId(1), low_med, 0);
        let high = Route::new(PeerId(2), high_med, 0);
        assert_eq!(low.compare_preference(&high), Ordering::Greater);
    }

    #[test]
    fn decision_process_tiebreaks_on_age_then_peer() {
        let older = route(2, &[2, 6], None, 10);
        let newer = route(1, &[3, 6], None, 20);
        assert_eq!(older.compare_preference(&newer), Ordering::Greater);

        let peer_low = route(1, &[2, 6], None, 10);
        let peer_high = route(2, &[3, 6], None, 10);
        assert_eq!(peer_low.compare_preference(&peer_high), Ordering::Greater);
    }

    // The router-wide ("Loc-RIB") view: all candidates of a prefix and the
    // decision process over them, answered from the per-peer slots.

    /// A table with peers 1..=n registered.
    fn table_with_peers(n: u32) -> RoutingTable {
        let mut t = RoutingTable::new();
        for peer in 1..=n {
            t.add_peer(PeerId(peer), crate::as_path::Asn(peer));
        }
        t
    }

    fn announce(t: &mut RoutingTable, prefix: Prefix, route: Route) {
        assert!(t.announce(route.peer, prefix, route).is_some());
    }

    fn withdraw(t: &mut RoutingTable, prefix: Prefix, peer: u32) -> bool {
        let event = ElementaryEvent::Withdraw {
            timestamp: 2,
            prefix,
        };
        t.apply_owned(PeerId(peer), event).is_some()
    }

    #[test]
    fn loc_rib_best_and_best_excluding() {
        let mut t = table_with_peers(3);
        announce(&mut t, p(1), route(1, &[2, 5, 6], None, 0));
        announce(&mut t, p(1), route(2, &[3, 6], None, 0));
        announce(&mut t, p(1), route(3, &[4, 5, 6], None, 0));
        // Peer 2 has the shortest path.
        assert_eq!(t.best(&p(1)).unwrap().peer, PeerId(2));
        // Excluding peer 2, peers 1 and 3 tie on length; lowest peer id wins.
        let excluding = t.alternative_avoiding(&p(1), PeerId(2), &[]);
        assert_eq!(excluding.unwrap().peer, PeerId(1));
        assert_eq!(t.candidates(&p(1)).count(), 3);
    }

    #[test]
    fn loc_rib_withdraw_cleans_up() {
        let mut t = table_with_peers(2);
        announce(&mut t, p(1), route(1, &[2, 6], None, 0));
        announce(&mut t, p(1), route(2, &[3, 6], None, 0));
        assert_eq!(t.prefix_count(), 1);
        assert!(withdraw(&mut t, p(1), 1));
        assert!(!withdraw(&mut t, p(1), 1));
        assert_eq!(t.best(&p(1)).unwrap().peer, PeerId(2));
        withdraw(&mut t, p(1), 2);
        assert_eq!(t.prefix_count(), 0);
        assert!(t.best(&p(1)).is_none());
        assert_eq!(
            t.prefixes().count(),
            0,
            "the id survives, the prefix does not"
        );
    }

    #[test]
    fn loc_rib_apply_events() {
        let mut t = table_with_peers(1);
        let attrs = RouteAttributes::from_path(AsPath::new([2u32, 6]));
        t.apply(
            PeerId(1),
            &ElementaryEvent::Announce {
                timestamp: 1,
                prefix: p(1),
                attrs,
            },
        );
        assert_eq!(t.prefix_count(), 1);
        assert_eq!(t.best(&p(1)).unwrap().learned_at, 1);
        t.apply(
            PeerId(1),
            &ElementaryEvent::Withdraw {
                timestamp: 2,
                prefix: p(1),
            },
        );
        assert_eq!(t.prefix_count(), 0);
    }

    #[test]
    fn best_routes_iterates_all() {
        let mut t = table_with_peers(2);
        // Announced in descending order: the iteration is ascending.
        for i in (0..5).rev() {
            announce(&mut t, p(i), route(1, &[2, 6], None, 0));
            announce(&mut t, p(i), route(2, &[3, 4, 6], None, 0));
        }
        let bests: Vec<_> = t.best_routes().collect();
        assert_eq!(bests.len(), 5);
        assert!(bests.iter().all(|(_, r)| r.peer == PeerId(1)));
        assert!(bests.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
