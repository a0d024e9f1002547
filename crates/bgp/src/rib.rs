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
//! `PeerRoutes`: its routes in id-indexed pages of 64 ids, a 256-byte page
//! whose entries are 4-byte `StoredRoute` records — the route's attribute
//! id, nothing else; the peer is the one whose pages hold it — found
//! through a 4-byte directory entry per page. The record is `Copy` and owns
//! nothing, so applying an event is a probe of the prefix dictionary (one
//! cache line on a hit), for an announcement a probe of the attribute
//! dictionary, plus array writes: an announcement writes its record into
//! its page (the event's attributes move into the dictionary if they are
//! new and are dropped otherwise), a withdrawal empties the entry. Nothing
//! on that path is ordered.
//! The invariants (the index maps the prefix of id `i` to `i`; distinct
//! directory entries name distinct pages, and a peer's route count is its
//! pages' occupied entries) are maintained in exactly four functions —
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
use std::cmp::Ordering;
use std::sync::Arc;

/// A route for one prefix learned from one peer, owned: what
/// [`crate::RoutingTable::announce`] takes and [`AdjRibIn::iter`] yields.
/// A table stores it as its attribute set's 4-byte id under its peer and
/// hands it out as a [`RouteRef`]. It carries no time: the decision process
/// reads none (see [`RouteRef::compare_preference`]). 56 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// The peer the route was learned from. A table files the route under
    /// this peer, and every [`RouteRef`] it hands out of it names that peer.
    pub peer: PeerId,
    /// The route's path attributes.
    pub attrs: RouteAttributes,
}

impl Route {
    /// Creates a route.
    pub fn new(peer: PeerId, attrs: RouteAttributes) -> Self {
        Route { peer, attrs }
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
        }
    }

    /// [`RouteRef::compare_preference`] of the two routes.
    pub fn compare_preference(&self, other: &Route) -> Ordering {
        self.view().compare_preference(&other.view())
    }
}

/// A route as a [`crate::RoutingTable`] hands it out: the peer it is filed
/// under and its attributes borrowed from the table's attribute dictionary.
/// `Copy`, 16 bytes; [`RouteRef::to_route`] makes it owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRef<'a> {
    /// The peer the route was learned from.
    pub peer: PeerId,
    /// The route's path attributes.
    pub attrs: &'a RouteAttributes,
}

impl<'a> RouteRef<'a> {
    /// The route's AS path, borrowed from the table (not from the view).
    #[inline]
    pub fn as_path(&self) -> &'a AsPath {
        &self.attrs.as_path
    }

    /// Compares two routes with the BGP decision process of RFC 4271
    /// §9.1.2.2, as far as this table's sessions tell routes apart:
    /// 1. highest LOCAL_PREF,
    /// 2. shortest AS path,
    /// 3. lowest ORIGIN rank,
    /// 4. lowest MED,
    /// 5. lowest peer id, the stand-in for the lowest BGP identifier.
    ///
    /// The RFC's two steps between MED and the identifier, eBGP over iBGP
    /// and lowest IGP cost to the next hop, are left out: every session here
    /// is eBGP and there is no IGP, so they never separate two routes. Nor
    /// is there an "oldest route" step; the RFC has none, and the table
    /// stores no time.
    ///
    /// Returns [`Ordering::Greater`] if `self` is preferred over `other`.
    pub fn compare_preference(&self, other: &RouteRef<'_>) -> Ordering {
        self.attrs
            .effective_local_pref()
            .cmp(&other.attrs.effective_local_pref())
            .then_with(|| other.attrs.as_path.len().cmp(&self.attrs.as_path.len()))
            .then_with(|| other.attrs.origin.rank().cmp(&self.attrs.origin.rank()))
            .then_with(|| other.attrs.effective_med().cmp(&self.attrs.effective_med()))
            .then_with(|| other.peer.cmp(&self.peer))
    }

    /// The route, owned (its attributes cloned).
    pub fn to_route(&self) -> Route {
        Route::new(self.peer, self.attrs.clone())
    }
}

/// A route as a peer's pages store it: its attribute set's id into the
/// owning table's attribute dictionary. 4 bytes, and 4 in an `Option`, as
/// the id is non-zero; its peer is the one whose pages hold it.
pub(crate) type StoredRoute = AttrId;

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

    /// Number of ids the sealed index covers: ids below it mean the same
    /// prefix to every clone of this interner, whatever each interns later.
    pub fn sealed_len(&self) -> usize {
        self.base_len
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

/// Ids per page of a [`PeerRoutes`].
const PAGE: usize = 64;

/// A [`PeerRoutes`] directory entry for a page the peer never wrote to.
const NO_PAGE: u32 = u32::MAX;

/// One peer's routes, stored once and found by [`PrefixId`]: entry
/// `id % PAGE` of page `directory[id / PAGE]` of `pages` (whole pages, back
/// to back), none where that entry is [`NO_PAGE`] or past the directory's
/// end. A page is appended on its first insert and never freed, as ids are
/// never reused. Invariants, kept by `insert` / `remove` (the only
/// writers): distinct directory entries name distinct pages, and `len`
/// counts the `Some` entries. A peer whose ids fill its pages pays 4 bytes
/// per route; one scattered over a large id space up to a 256-byte page.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerRoutes {
    directory: Vec<u32>,
    pages: Vec<Option<StoredRoute>>,
    len: usize,
}

impl PeerRoutes {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The index in `pages` of `id`'s entry, if its page exists.
    #[inline]
    fn entry(&self, id: PrefixId) -> Option<usize> {
        let page = *self.directory.get(id.index() / PAGE)?;
        (page != NO_PAGE).then(|| page as usize * PAGE + id.index() % PAGE)
    }

    #[inline]
    pub(crate) fn get(&self, id: PrefixId) -> Option<StoredRoute> {
        self.pages[self.entry(id)?]
    }

    /// Installs or replaces the route for `id`.
    pub(crate) fn insert(&mut self, id: PrefixId, route: StoredRoute) {
        let page = id.index() / PAGE;
        if self.directory.len() <= page {
            self.directory.resize(page + 1, NO_PAGE);
        }
        if self.directory[page] == NO_PAGE {
            self.directory[page] = (self.pages.len() / PAGE) as u32;
            self.pages.resize(self.pages.len() + PAGE, None);
        }
        let entry = &mut self.pages[self.directory[page] as usize * PAGE + id.index() % PAGE];
        self.len += usize::from(entry.is_none());
        *entry = Some(route);
    }

    /// Removes the route for `id`; returns whether there was one. Never
    /// grows the directory or adds a page.
    pub(crate) fn remove(&mut self, id: PrefixId) -> bool {
        let held = self
            .entry(id)
            .and_then(|at| self.pages[at].take())
            .is_some();
        self.len -= usize::from(held);
        held
    }

    /// Releases the slack the directory and the pages grew by doubling (a
    /// bulk load leaves up to half of each unused).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.directory.shrink_to_fit();
        self.pages.shrink_to_fit();
    }

    /// Lengths of the directory and of the pages (what a withdrawal must
    /// not grow).
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize) {
        (self.directory.len(), self.pages.len())
    }

    /// `(id, route)` pairs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PrefixId, StoredRoute)> + '_ {
        let ids = (0..self.directory.len() * PAGE).map(PrefixId::from_index);
        ids.filter_map(|id| Some((id, self.get(id)?)))
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
    pub(crate) peer: PeerId,
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
        Some(RouteRef {
            peer: self.peer,
            attrs: self.dictionary.get(route),
        })
    }

    /// Iterates over `(prefix, route)` pairs in ascending prefix order, each
    /// route viewed in place.
    pub fn views(&self) -> impl Iterator<Item = (&'a Prefix, RouteRef<'a>)> + 'a {
        let (peer, interner, dictionary) = (self.peer, self.interner, self.dictionary);
        let mut entries: Vec<(Prefix, PrefixId, StoredRoute)> = self
            .routes
            .iter()
            .map(|(id, route)| (*interner.prefix(id), id, route))
            .collect();
        entries.sort_unstable_by_key(|(prefix, _, _)| *prefix);
        entries.into_iter().map(move |(_, id, route)| {
            let attrs = dictionary.get(route);
            (interner.prefix(id), RouteRef { peer, attrs })
        })
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
            let path = &self.dictionary.get(route).as_path;
            routes.push((
                id,
                *memo[route.index()].get_or_insert_with(|| paths.intern(path)),
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

    fn route(peer: u32, hops: &[u32], lp: Option<u32>) -> Route {
        let mut attrs = RouteAttributes::from_path(AsPath::new(hops.iter().copied()));
        attrs.local_pref = lp;
        Route::new(PeerId(peer), attrs)
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
        assert_eq!(interner.sealed_len(), 1_000);
        let mut clone = interner.clone();
        assert!(Arc::ptr_eq(&clone.base, &interner.base));
        assert_eq!(clone.intern(p(5_000)).index(), 1_000);
        assert_eq!(interner.intern(p(6_000)).index(), 1_000);
        assert_eq!(clone.get(&p(6_000)), None);
        interner.seal();
        assert!(!Arc::ptr_eq(&clone.base, &interner.base));
        assert_eq!((interner.sealed_len(), interner.own.len()), (1_001, 0));
        assert_eq!(clone.sealed_len(), 1_000, "a clone keeps its boundary");
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
            .announce(PeerId(1), p(1), route(1, &[2, 5, 6], None))
            .is_some());
        assert_eq!(t.adj_rib_in(PeerId(1)).unwrap().len(), 1);
        // Re-announcement is an implicit withdrawal: the route is replaced.
        assert!(t
            .announce(PeerId(1), p(1), route(1, &[3, 6], None))
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
        t.announce(PeerId(1), p(3), route(1, &[2, 5, 7], None));
        t.announce(PeerId(1), p(2), route(1, &[2, 5, 6, 8], None));
        t.announce(PeerId(1), p(1), route(1, &[2, 5, 6], None));
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
        let short_low = route(1, &[2, 6], Some(50));
        let long_high = route(2, &[3, 4, 5, 6], Some(200));
        assert_eq!(long_high.compare_preference(&short_low), Ordering::Greater);
    }

    #[test]
    fn decision_process_path_length_then_origin_then_med() {
        let a = route(1, &[2, 6], None);
        let b = route(2, &[3, 4, 6], None);
        assert_eq!(a.compare_preference(&b), Ordering::Greater);

        let mut igp = route(1, &[2, 6], None);
        igp.attrs.origin = crate::attributes::Origin::Igp;
        let mut incomplete = route(2, &[3, 6], None);
        incomplete.attrs.origin = crate::attributes::Origin::Incomplete;
        assert_eq!(igp.compare_preference(&incomplete), Ordering::Greater);

        let mut low_med = route(1, &[2, 6], None).attrs;
        low_med.med = Some(5);
        let mut high_med = route(2, &[3, 6], None).attrs;
        high_med.med = Some(50);
        let low = Route::new(PeerId(1), low_med);
        let high = Route::new(PeerId(2), high_med);
        assert_eq!(low.compare_preference(&high), Ordering::Greater);
    }

    /// Routes equal on LOCAL_PREF, path length, ORIGIN and MED break on the
    /// lowest peer, whichever was announced first: the table keeps no time.
    #[test]
    fn decision_process_tiebreaks_on_the_lowest_peer() {
        let peer_low = route(1, &[2, 6], None);
        let peer_high = route(2, &[3, 6], None);
        assert_eq!(peer_low.compare_preference(&peer_high), Ordering::Greater);
        assert_eq!(peer_high.compare_preference(&peer_low), Ordering::Less);
        for order in [[&peer_low, &peer_high], [&peer_high, &peer_low]] {
            let mut t = table_with_peers(2);
            for (timestamp, route) in (0..).zip(order) {
                let attrs = route.attrs.clone();
                let event = ElementaryEvent::Announce {
                    timestamp,
                    prefix: p(1),
                    attrs,
                };
                assert!(t.apply_owned(route.peer, event).is_some());
            }
            assert_eq!(t.best(&p(1)).unwrap().peer, PeerId(1));
        }
    }

    // The router-wide ("Loc-RIB") view: all candidates of a prefix and the
    // decision process over them, answered from the per-peer pages.

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
        announce(&mut t, p(1), route(1, &[2, 5, 6], None));
        announce(&mut t, p(1), route(2, &[3, 6], None));
        announce(&mut t, p(1), route(3, &[4, 5, 6], None));
        // Peer 2 has the shortest path.
        assert_eq!(t.best(&p(1)).unwrap().peer, PeerId(2));
        // Excluding peer 2, peers 1 and 3 tie on length; lowest peer id wins.
        let excluding = (t.candidates(&p(1)))
            .filter(|r| r.peer != PeerId(2))
            .max_by(|a, b| a.compare_preference(b));
        assert_eq!(excluding.unwrap().peer, PeerId(1));
        assert_eq!(t.candidates(&p(1)).count(), 3);
    }

    #[test]
    fn loc_rib_withdraw_cleans_up() {
        let mut t = table_with_peers(2);
        announce(&mut t, p(1), route(1, &[2, 6], None));
        announce(&mut t, p(1), route(2, &[3, 6], None));
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
        t.apply_owned(
            PeerId(1),
            ElementaryEvent::Announce {
                timestamp: 1,
                prefix: p(1),
                attrs,
            },
        );
        assert_eq!(t.prefix_count(), 1);
        t.apply_owned(
            PeerId(1),
            ElementaryEvent::Withdraw {
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
            announce(&mut t, p(i), route(1, &[2, 6], None));
            announce(&mut t, p(i), route(2, &[3, 4, 6], None));
        }
        let bests: Vec<_> = t.best_routes().collect();
        assert_eq!(bests.len(), 5);
        assert!(bests.iter().all(|(_, r)| r.peer == PeerId(1)));
        assert!(bests.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
