//! Per-link withdrawal/path counters: the `W(l,t)` and `P(l,t)` quantities of
//! §4.1, backed by an interned-path inverted index.
//!
//! The tracker is seeded with the session's Adj-RIB-In at burst start (each
//! prefix's current AS path) and updated with every subsequent per-prefix
//! event:
//!
//! * a **withdrawal** of prefix `p` increments `W(l)` and decrements `P(l)` for
//!   every link `l` on `p`'s current path, and increments the global
//!   withdrawal count `W(t)`;
//! * a **re-announcement** of `p` with a new path moves `P` from the links of
//!   the old path to the links of the new one (an implicit withdrawal does not
//!   count towards `W`, exactly as in the paper's Fig. 4 where the 10k updated
//!   prefixes of AS 7 lower the path share of `(1,2)`/`(2,5)` without raising
//!   any withdrawal share).
//!
//! # Data layout
//!
//! Every withdrawal of every session runs through here, so the per-event
//! path is one probe of a packed prefix index (one cache line on a hit)
//! plus array indexing. Everything is keyed by one of three dense id spaces,
//! each handed out in first-seen order and never reused:
//!
//! * **Prefix ids** (`u32`): `ids` is the one per-event probe, a
//!   [`PrefixInterner`]. Seeded from a routing table (what
//!   [`crate::pipeline::session_engines`] does) for a session that holds at
//!   least half of the table's prefixes — a full feed — it is a clone of
//!   the table's dictionary: the ids are the table's, and the sealed index
//!   and the id → prefix list are shared with the table rather than
//!   copied; a prefix the session announces after the seal gets the next id
//!   of this session's own part, which means nothing outside it. A smaller
//!   session keeps a dictionary of its own, numbered in the table's id
//!   order, as does one seeded from an [`InternedRib`] (in the RIB's
//!   order): its routes then cost it ~21 bytes each, and its per-event
//!   probe stays within an index sized for its own prefixes instead of
//!   missing the cache across one sized for the table (on the corpus's
//!   20 000-prefix sessions of a 240 000-prefix table, sharing cost the
//!   benchmark's `corpus_sharded` 15 % of its `events_per_s` on a 2-vCPU
//!   x86-64 box). Nothing decides on an id: ranking ties break by link
//!   name, and predictions are read as prefixes. `state[id]` says whether
//!   the prefix is routed or withdrawn and over which path (a 4-byte slot
//!   per id of the dictionary, other sessions' prefixes `Gone`); two global
//!   bitsets split the id space into *routed* and *withdrawn*.
//! * **Path ids** ([`PathId`], from the [`PathInterner`]): every distinct AS
//!   path is stored once; seeding from a table interns each distinct
//!   attribute set's path once, seeding from an [`InternedRib`] copies its
//!   interner (one flat record per distinct path). When a path is first seen its *distinct* links are
//!   resolved to link ids once and appended to one flat arena
//!   (`path_links`, delimited by `path_end`) — an event then walks a slice of
//!   that arena instead of re-deriving the links from the hops (a looped
//!   path repeating a link lists it once, keeping counter increments and
//!   bitset updates symmetric).
//! * **Link ids** ([`LinkId`]): `links[lid]` holds the link's `W`/`P` counts
//!   and its slice of the inverted index — the [`IdBitSet`] of prefixes whose
//!   tracked path crosses it. The dirty-link feed, the ranker's candidates,
//!   the ranking and the greedy aggregation all carry `LinkId`s.
//!   `link_ids`, the one `AsLink → LinkId` map, is consulted only where
//!   links enter or leave by name: when a new path is interned, and in the
//!   by-name queries (`wp`, `union_counts`, `crossing_ids`) that tests,
//!   tools and the prediction of an *accepted* inference use.
//!
//! [`LinkCounters::union_counts`] is an `O(candidate links × words)` bitset
//! union instead of an `O(RIB × path length)` scan; the scan is the
//! reference model's, in test scope.
//!
//! A re-announcement only touches the links on which the old and the new
//! path *differ*: a link on both keeps its index bit and its `P` count. So a
//! routed prefix re-announced over the path it already has is a no-op after
//! the probe, and a withdrawn prefix coming back over its old path moves
//! `P` counts and the two global bitsets but no per-link posting list — the
//! common shapes of BGP path exploration and of post-outage recovery.
//!
//! Per-burst seeding (§4.1, "seeded at burst start") is provided by
//! [`LinkCounters::start_burst`]: it zeroes `W(l)`/`W(t)`, forgets withdrawals
//! from previous bursts, and replays the withdrawals of the detection window
//! so the new burst starts from exactly the state the paper's algorithm
//! assumes. Its cost is the withdrawn prefixes, the window and the links —
//! never the table.
//!
//! The purge keeps one invariant the engine relies on: **`crosses(l) ⊆ routed
//! ∪ withdrawn`**. A prefix enters `crosses(l)` only when it is announced over
//! a path through `l`, stays there while withdrawn in the current burst, and
//! leaves when it moves to a path avoiding `l` or is purged as `Gone`. So
//! `|crosses(l)|` is exactly the routed prefixes crossing `l` (`P(l)`) plus
//! the ones crossing it that are withdrawn *now*, and no set `S` holding `l`
//! has `W(S) + P(S)` below it. `W(l)` is not that withdrawn part: it counts
//! withdrawal *events* since the burst start, so a prefix withdrawn and then
//! re-announced over `l` in the same burst is in both `W(l)` and `P(l)`, and
//! `W(l) + P(l)` can exceed `|crosses(l)|`. Anything that bounds a prediction
//! size by a link must read [`LinkCounters::crossing_count`], not
//! [`LinkCounters::wp_of`].

use crate::dirty::{DenseId, DirtySet};
use crate::inference::bitset::IdBitSet;
use crate::inference::kernels::{delta_union_counts, fused_wp, KernelStats, ScoreScratch};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use swift_bgp::{
    AdjRibIn, AsLink, AsPath, FoldBuildHasher, InternedRib, PathId, PathInterner, Prefix,
    PrefixInterner, PrefixList,
};

/// Largest candidate-set size scored through the stack-resident source array
/// of the fused kernel; bigger sets (which never occur in practice — greedy
/// aggregates hold a handful of links) fall back to the scratch-buffered
/// materialised union, still without a per-call allocation in steady state.
const MAX_FUSED_SOURCES: usize = 32;

/// Dense id of an AS link within one [`LinkCounters`], handed out in
/// first-seen order; meaningful only relative to the counters it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(u32);

impl DenseId for LinkId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// What the counters currently know about a tracked prefix, as read from
/// its [`SlotState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Routed: the path behind the id is the prefix's current path.
    Routed(PathId),
    /// Withdrawn during the current burst; the path it had is kept for `W`.
    Withdrawn(PathId),
    /// Withdrawn in a previous burst and purged at burst start: the prefix is
    /// not in the RIB and contributes to no counter.
    Gone,
}

/// Width of the path id in a [`SlotState`]; the tag takes the 2 bits above.
const PATH_BITS: u32 = 30;
const PATH_MASK: u32 = (1 << PATH_BITS) - 1;
const ROUTED: u32 = 1 << PATH_BITS;
const WITHDRAWN: u32 = 2 << PATH_BITS;

/// A [`Slot`] packed in 4 bytes, one per tracked prefix: a 2-bit tag (0
/// gone, 1 routed, 2 withdrawn) above a 30-bit [`PathId`]. The counters
/// refuse a path id that does not fit (`index_new_paths`): 2^30 distinct
/// paths is ~10 000 times what a full table carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotState(u32);

impl SlotState {
    #[inline]
    fn get(self) -> Slot {
        let pid = PathId::from_index((self.0 & PATH_MASK) as usize);
        match self.0 & !PATH_MASK {
            ROUTED => Slot::Routed(pid),
            WITHDRAWN => Slot::Withdrawn(pid),
            _ => Slot::Gone,
        }
    }
}

impl From<Slot> for SlotState {
    #[inline]
    fn from(slot: Slot) -> Self {
        // `index_new_paths` holds every path id below 2^30.
        SlotState(match slot {
            Slot::Routed(pid) => ROUTED | pid.index() as u32,
            Slot::Withdrawn(pid) => WITHDRAWN | pid.index() as u32,
            Slot::Gone => 0,
        })
    }
}

/// Per-link slice of the inverted index.
#[derive(Debug, Clone, Default)]
struct LinkEntry {
    /// Prefixes (by dense id) whose tracked path crosses this link — routed
    /// and withdrawn-this-burst alike.
    crosses: IdBitSet,
    /// W(l): withdrawals of prefixes whose path included l.
    w: u32,
    /// P(l): prefixes whose current path still includes l.
    p: u32,
}

/// The per-link counters for one session.
#[derive(Debug, Clone)]
pub struct LinkCounters {
    /// Shared storage for every distinct AS path seen.
    interner: PathInterner,
    /// Path id → end of its slice of `path_links` (it starts where the
    /// previous path's ends). Covers every path of `interner`.
    path_end: Vec<u32>,
    /// The distinct links of every interned path, in path order.
    path_links: Vec<LinkId>,
    /// Prefix ↔ dense id: the one per-event probe.
    ids: PrefixInterner,
    /// Dense id → tracking state.
    state: Vec<SlotState>,
    /// Ids of still-routed prefixes.
    routed_bits: IdBitSet,
    /// Ids of prefixes withdrawn during the current burst. Word-packed from
    /// the start: every withdrawal sets a bit and every recovery clears one,
    /// in no particular id order, which a posting list pays for in memmoves.
    withdrawn_bits: IdBitSet,
    /// Link → link id: the by-name boundary (see the module docs).
    link_ids: HashMap<AsLink, LinkId, FoldBuildHasher>,
    /// Link id → link.
    link_names: Vec<AsLink>,
    /// Link id → inverted-index slice plus the maintained W(l)/P(l) counts.
    links: Vec<LinkEntry>,
    /// W(t): total withdrawals received (including unknown/noise prefixes).
    total_withdrawals: usize,
    /// Number of still-routed prefixes.
    routed_count: usize,
    /// Number of withdrawn (not re-announced) prefixes.
    withdrawn_count: usize,
    /// Links whose `W(l)` changed since the last [`LinkCounters::take_dirty`].
    dirty: DirtySet<LinkId>,
    /// Reusable kernel scratch (pass cursors, union buffers, dispatch stats).
    ///
    /// Interior mutability keeps the read-only scoring API (`union_counts`
    /// and friends take `&self`) while the scratch warms its capacity across
    /// calls. A `LinkCounters` lives inside exactly one session engine and is
    /// only ever *moved* between threads, never shared — `RefCell` (Send, not
    /// Sync) encodes precisely that.
    scratch: RefCell<ScoreScratch>,
}

impl Default for LinkCounters {
    fn default() -> Self {
        LinkCounters {
            interner: PathInterner::default(),
            path_end: Vec::new(),
            path_links: Vec::new(),
            ids: PrefixInterner::new(),
            state: Vec::new(),
            routed_bits: IdBitSet::new(),
            withdrawn_bits: IdBitSet::with_capacity(0),
            link_ids: HashMap::default(),
            link_names: Vec::new(),
            links: Vec::new(),
            total_withdrawals: 0,
            routed_count: 0,
            withdrawn_count: 0,
            dirty: DirtySet::default(),
            scratch: RefCell::default(),
        }
    }
}

impl LinkCounters {
    /// Creates counters seeded with the session's current routes.
    pub fn from_rib<'a, I>(rib: I) -> Self
    where
        I: IntoIterator<Item = (&'a Prefix, &'a AsPath)>,
    {
        let mut c = LinkCounters::default();
        for (prefix, path) in rib {
            c.on_announce_path(*prefix, path);
        }
        c
    }

    /// Creates counters seeded from an interned RIB: its interner is copied
    /// (a record per distinct path), no path is cloned per prefix.
    pub fn from_interned(rib: &InternedRib) -> Self {
        let mut c = LinkCounters {
            interner: rib.interner().clone(),
            ..LinkCounters::default()
        };
        c.index_new_paths();
        let n = rib.len();
        c.ids.reserve(n);
        c.state.reserve_exact(n);
        for (prefix, pid) in rib.entries() {
            c.announce_interned(*prefix, *pid);
        }
        c
    }

    /// Creates counters seeded from a session's routes in a routing table:
    /// each distinct attribute set's path is interned once (see
    /// [`AdjRibIn::intern_paths`]) and nothing is sorted. A session holding
    /// at least half of the table's prefixes numbers them by the table's
    /// ids: `ids` is a clone of the table's dictionary (its sealed index and
    /// its list are shared, not copied) and `state` covers every id the
    /// table has handed out. A smaller one interns its prefixes, in id
    /// order, into a dictionary of its own (see the module docs).
    pub(crate) fn from_table(rib: AdjRibIn<'_>) -> Self {
        let mut c = LinkCounters::default();
        let routes = rib.intern_paths(&mut c.interner);
        c.index_new_paths();
        let table = rib.prefix_ids();
        if 2 * routes.len() >= table.len() {
            c.ids = table.clone();
            c.state = vec![Slot::Gone.into(); table.len()];
            for (id, pid) in routes {
                c.announce_id(u32::from(id), pid);
            }
        } else {
            c.ids.reserve(routes.len());
            c.state.reserve_exact(routes.len());
            for (id, pid) in routes {
                c.announce_interned(*table.prefix(id), pid);
            }
        }
        c
    }

    /// Creates empty counters (no seeded routes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the distinct links of every path the interner gained since
    /// the last call into `path_links` — the only place links are looked up
    /// (and link ids handed out) by name on behalf of an event.
    fn index_new_paths(&mut self) {
        assert!(
            self.interner.len() <= 1 << PATH_BITS,
            "more than 2^30 paths: a slot packs a 30-bit path id"
        );
        for path in self.interner.paths_from(self.path_end.len()) {
            let start = self.path_links.len();
            for link in path.links() {
                let next = self.link_names.len();
                let lid = *self.link_ids.entry(link).or_insert_with(|| {
                    LinkId(u32::try_from(next).expect("more than u32::MAX links"))
                });
                if lid.index() == next {
                    self.link_names.push(link);
                    self.links.push(LinkEntry::default());
                }
                if !self.path_links[start..].contains(&lid) {
                    self.path_links.push(lid);
                }
            }
            let end = u32::try_from(self.path_links.len()).expect("link arena beyond u32::MAX");
            self.path_end.push(end);
        }
    }

    /// Where the distinct links of path `pid` sit in `path_links`.
    #[inline]
    fn path_span(&self, pid: PathId) -> Range<usize> {
        let i = pid.index();
        let start = if i == 0 { 0 } else { self.path_end[i - 1] };
        start as usize..self.path_end[i] as usize
    }

    /// Registers a withdrawal of `prefix`.
    pub fn on_withdraw(&mut self, prefix: Prefix) {
        self.total_withdrawals += 1;
        // Withdrawals for prefixes we never had a route for (BGP noise) still
        // count towards W(t) but touch no link counter.
        let Some(id) = self.ids.get(&prefix).map(u32::from) else {
            return;
        };
        let Slot::Routed(pid) = self.state[id as usize].get() else {
            return;
        };
        self.state[id as usize] = Slot::Withdrawn(pid).into();
        self.routed_bits.clear(id);
        self.withdrawn_bits.set(id);
        self.routed_count -= 1;
        self.withdrawn_count += 1;
        for &lid in &self.path_links[self.path_span(pid)] {
            let e = &mut self.links[lid.index()];
            e.w += 1;
            e.p -= 1;
            self.dirty.mark(lid);
        }
    }

    /// Registers a re-announcement of `prefix` with `new_path`, interning the
    /// path by reference (it is cloned only the first time it is ever seen).
    pub fn on_announce_path(&mut self, prefix: Prefix, new_path: &AsPath) {
        let pid = self.interner.intern(new_path);
        self.index_new_paths();
        self.announce_interned(prefix, pid);
    }

    /// Announce handler over an already-interned path: interns the prefix
    /// (a new id gets a `Gone` slot) and hands over to
    /// [`LinkCounters::announce_id`].
    fn announce_interned(&mut self, prefix: Prefix, new_pid: PathId) {
        let id = u32::from(self.ids.intern(prefix));
        if id as usize == self.state.len() {
            self.state.push(Slot::Gone.into());
        }
        self.announce_id(id, new_pid);
    }

    /// Core announce handler, of the prefix interned as `id` (which has a
    /// slot) over an already-interned path.
    ///
    /// If the prefix had been withdrawn during this burst it becomes routed
    /// again; its withdrawal contribution to W is kept (the withdrawal did
    /// happen) but the new path now counts towards P. Only the links on which
    /// the old and the new path differ have their index bit moved; paths are
    /// a handful of links, so the membership tests below are a few compares.
    fn announce_id(&mut self, id: u32, new_pid: PathId) {
        // The old path's links still indexed under `id`, and whether they
        // still hold its P contribution (a withdrawal already removed it).
        let (old, was_routed) = match self.state[id as usize].get() {
            Slot::Routed(old_pid) if old_pid == new_pid => return,
            Slot::Routed(old_pid) => (self.path_span(old_pid), true),
            Slot::Withdrawn(old_pid) => {
                self.withdrawn_bits.clear(id);
                self.withdrawn_count -= 1;
                (self.path_span(old_pid), false)
            }
            Slot::Gone => (0..0, false),
        };
        let old = &self.path_links[old];
        let new = &self.path_links[self.path_span(new_pid)];
        for lid in old.iter().filter(|lid| !new.contains(lid)) {
            let e = &mut self.links[lid.index()];
            e.crosses.clear(id);
            if was_routed {
                e.p -= 1;
            }
        }
        for lid in new {
            let e = &mut self.links[lid.index()];
            if !old.contains(lid) {
                e.crosses.set(id);
                e.p += 1;
            } else if !was_routed {
                e.p += 1;
            }
        }
        self.state[id as usize] = Slot::Routed(new_pid).into();
        if !was_routed {
            self.routed_bits.set(id);
            self.routed_count += 1;
        }
    }

    /// Re-seeds the counters at burst start (§4.1: `W` is "seeded at burst
    /// start").
    ///
    /// Zeroes every `W(l)` and `W(t)`, forgets prefixes withdrawn in previous
    /// bursts (they are not in the RIB the new burst starts from), then
    /// replays `window` — the withdrawals of the burst-detection window, which
    /// *are* part of the new burst. Prefixes of the window that are currently
    /// withdrawn regain their `W` contributions (once each, however often the
    /// window names them); unknown or re-announced ones count towards `W(t)`
    /// only.
    ///
    /// Also clears the dirty-link set: callers keeping an incremental ranking
    /// (see [`crate::inference::fit_score::LinkRanker`]) must reset it
    /// alongside this call.
    pub fn start_burst<I>(&mut self, window: I)
    where
        I: IntoIterator<Item = Prefix>,
    {
        for e in &mut self.links {
            e.w = 0;
        }
        self.total_withdrawals = 0;
        self.dirty.clear();

        // The window's currently-withdrawn prefixes stay withdrawn, into the
        // new burst, and regain their W contributions — once each.
        let mut kept: Vec<u32> = Vec::new();
        for prefix in window {
            self.total_withdrawals += 1;
            if let Some(id) = self.ids.get(&prefix).map(u32::from) {
                if matches!(self.state[id as usize].get(), Slot::Withdrawn(_)) {
                    kept.push(id);
                }
            }
        }
        kept.sort_unstable();
        kept.dedup();
        for &id in &kept {
            let Slot::Withdrawn(pid) = self.state[id as usize].get() else {
                unreachable!("kept slots were checked to be withdrawn")
            };
            for &lid in &self.path_links[self.path_span(pid)] {
                self.links[lid.index()].w += 1;
                self.dirty.mark(lid);
            }
            self.withdrawn_bits.clear(id);
        }

        // Every other withdrawal is from a previous burst: purge it.
        // `withdrawn_bits` held exactly the `Withdrawn` slots, so without
        // the kept ids it is the stale set, and each link a stale prefix
        // crossed drops all of them in one pass.
        let mut touched: DirtySet<LinkId> = DirtySet::default();
        for id in self.withdrawn_bits.ids() {
            let Slot::Withdrawn(pid) = self.state[id as usize].get() else {
                unreachable!("withdrawn bit set on a slot that is not withdrawn")
            };
            self.state[id as usize] = Slot::Gone.into();
            for &lid in &self.path_links[self.path_span(pid)] {
                touched.mark(lid);
            }
        }
        for lid in touched.ids() {
            self.links[lid.index()]
                .crosses
                .subtract(&self.withdrawn_bits);
        }
        self.withdrawn_bits.clear_all();
        for &id in &kept {
            self.withdrawn_bits.set(id);
        }
        self.withdrawn_count = kept.len();
    }

    /// The id of `link`, if any path seen so far crosses it.
    pub fn link_id(&self, link: &AsLink) -> Option<LinkId> {
        self.link_ids.get(link).copied()
    }

    /// The link behind `id`. Panics if `id` came from other counters.
    #[inline]
    pub fn link(&self, id: LinkId) -> AsLink {
        self.link_names[id.index()]
    }

    /// `W(t)`: total withdrawals received.
    pub fn total_withdrawals(&self) -> usize {
        self.total_withdrawals
    }

    /// The links with a non-zero `W` counter (the candidate failed links):
    /// what a from-scratch ranking walks.
    pub(crate) fn ids_with_withdrawals(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0u32..)
            .zip(&self.links)
            .filter(|(_, e)| e.w > 0)
            .map(|(i, _)| LinkId(i))
    }

    /// Every link currently known to the counters (withdrawn or still routed).
    pub fn all_links(&self) -> impl Iterator<Item = &AsLink> {
        self.link_names.iter()
    }

    /// Links whose `W(l)` changed since the last call, drained in first-change
    /// order (in place: the feed keeps its capacity, so the withdrawals after
    /// an attempt do not regrow it). Feeds the incremental candidate ranking
    /// in the engine.
    pub fn take_dirty(&mut self) -> std::vec::Drain<'_, LinkId> {
        self.dirty.drain()
    }

    /// Number of prefixes withdrawn (with a known pre-withdrawal path).
    pub fn withdrawn_count(&self) -> usize {
        self.withdrawn_count
    }

    /// Number of prefixes still routed.
    pub fn routed_count(&self) -> usize {
        self.routed_count
    }

    /// Iterates over the still-routed prefixes and their current paths.
    pub fn routed(&self) -> impl Iterator<Item = (&Prefix, &AsPath)> {
        self.ids
            .prefixes()
            .iter()
            .zip(&self.state)
            .filter_map(move |(prefix, s)| match s.get() {
                Slot::Routed(pid) => Some((prefix, self.interner.get(pid))),
                _ => None,
            })
    }

    /// Iterates over the withdrawn prefixes and the path they had.
    pub fn withdrawn(&self) -> impl Iterator<Item = (&Prefix, &AsPath)> {
        self.ids
            .prefixes()
            .iter()
            .zip(&self.state)
            .filter_map(move |(prefix, s)| match s.get() {
                Slot::Withdrawn(pid) => Some((prefix, self.interner.get(pid))),
                _ => None,
            })
    }

    /// The ids `links` resolve to, unknown links dropped: the by-name
    /// boundary of the link-set queries.
    fn resolve<'a>(&'a self, links: &'a [AsLink]) -> impl Iterator<Item = LinkId> + Clone + 'a {
        links.iter().filter_map(|link| self.link_id(link))
    }

    /// `(W(S,t), P(S,t))` for a link set: one fused streaming pass over the
    /// per-link bitsets and both masks, no materialised union, no per-call
    /// heap allocation (see [`crate::inference::fused_union_counts`]).
    pub fn union_counts(&self, links: &[AsLink]) -> (usize, usize) {
        self.fused_counts(self.resolve(links))
    }

    /// [`LinkCounters::union_counts`] of a set of link ids.
    pub fn union_counts_of(&self, ids: &[LinkId]) -> (usize, usize) {
        self.fused_counts(ids.iter().copied())
    }

    fn fused_counts<I>(&self, ids: I) -> (usize, usize)
    where
        I: Iterator<Item = LinkId> + Clone,
    {
        let mut srcs: [&IdBitSet; MAX_FUSED_SOURCES] = [&self.routed_bits; MAX_FUSED_SOURCES];
        let mut n = 0;
        for lid in ids.clone() {
            if n == MAX_FUSED_SOURCES {
                return self.union_counts_buffered(ids);
            }
            srcs[n] = &self.links[lid.index()].crosses;
            n += 1;
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        fused_wp(
            &srcs[..n],
            &self.withdrawn_bits,
            &self.routed_bits,
            &mut s.pass,
            &mut s.stats,
        )
    }

    /// Overflow path of [`LinkCounters::union_counts`]: materialises the union
    /// into the reusable scratch buffer (capacity retained across calls).
    fn union_counts_buffered(&self, ids: impl Iterator<Item = LinkId>) -> (usize, usize) {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        let before = s.union_buf.heap_bytes();
        s.union_buf.clear_all();
        for lid in ids {
            s.union_buf.union_with(&self.links[lid.index()].crosses);
        }
        if s.union_buf.heap_bytes() > before {
            s.stats.scratch_growth += 1;
        } else {
            s.stats.scratch_reuse += 1;
        }
        (
            s.union_buf.intersection_count(&self.withdrawn_bits),
            s.union_buf.intersection_count(&self.routed_bits),
        )
    }

    /// `(W(l,t), P(l,t))` of a single link, by name.
    pub fn wp(&self, link: &AsLink) -> (usize, usize) {
        self.link_id(link).map_or((0, 0), |lid| self.wp_of(lid))
    }

    /// `(W(l,t), P(l,t))` of a single link: an array read.
    #[inline]
    pub fn wp_of(&self, id: LinkId) -> (usize, usize) {
        let e = &self.links[id.index()];
        (e.w as usize, e.p as usize)
    }

    /// `|crosses(l)|`: the prefixes whose tracked path crosses `id`, routed
    /// or withdrawn in this burst. A lower bound on `W(S) + P(S)` of every
    /// set `S` holding the link (see the module docs), read without a kernel
    /// pass.
    pub fn crossing_count(&self, id: LinkId) -> usize {
        self.links[id.index()].crosses.count()
    }

    /// Seeds the scratch-resident greedy aggregate with `seed`'s crossing set
    /// and returns its fused `(W, P)`.
    ///
    /// Together with [`LinkCounters::agg_delta`] and
    /// [`LinkCounters::agg_accept`] this gives the greedy common-endpoint
    /// aggregation a running union: a trial counts what one crossing set adds
    /// to it, in time proportional to that set, instead of re-unioning the
    /// whole link set from scratch or re-sweeping the aggregate.
    pub fn agg_seed(&self, seed: LinkId) -> (usize, usize) {
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        let before = s.agg.heap_bytes();
        s.agg.clear_all();
        s.agg.union_with(&self.links[seed.index()].crosses);
        if s.agg.heap_bytes() > before {
            s.stats.scratch_growth += 1;
        } else {
            s.stats.scratch_reuse += 1;
        }
        let srcs: [&IdBitSet; 1] = [&s.agg];
        fused_wp(
            &srcs,
            &self.withdrawn_bits,
            &self.routed_bits,
            &mut s.pass,
            &mut s.stats,
        )
    }

    /// The withdrawn and routed prefixes `candidate` would add to the current
    /// aggregate, without committing the extension: the aggregate's `(W, P)`
    /// plus these is the extended set's.
    pub fn agg_delta(&self, candidate: LinkId) -> (usize, usize) {
        delta_union_counts(
            &self.links[candidate.index()].crosses,
            &self.scratch.borrow().agg,
            &self.withdrawn_bits,
            &self.routed_bits,
        )
    }

    /// Folds `candidate`'s crossing set into the running aggregate (call
    /// after a successful trial).
    pub fn agg_accept(&self, candidate: LinkId) {
        let mut scratch = self.scratch.borrow_mut();
        scratch
            .agg
            .union_with(&self.links[candidate.index()].crosses);
    }

    /// Drains the kernel dispatch/scratch statistics accumulated since the
    /// last call (exported as `inference.kernel.*` / `inference.scratch.*`
    /// registry counters by the runtime).
    pub fn take_kernel_stats(&self) -> KernelStats {
        self.scratch.borrow_mut().take_stats()
    }

    /// The ids behind a link set, split into `(withdrawn, routed)` — the
    /// index-driven form of the §4.2 prediction (reroute everything whose
    /// current path crosses an inferred link).
    ///
    /// Each output is one intersection of the set's crossing ids with the
    /// withdrawn or the routed ids, into a set of its own exact size (see
    /// [`IdBitSet::intersection`]), whose form `sizes` — the set's
    /// `(W(S), P(S))` — picks. A one-link set intersects the link's own
    /// crossing set; a larger one first builds their union in the reusable
    /// scratch buffer (its dense words are cleared in place and grow once
    /// per session). Nothing here sorts, hashes or reads a prefix.
    pub(crate) fn crossing_ids(
        &self,
        links: &[AsLink],
        sizes: (usize, usize),
    ) -> (IdBitSet, IdBitSet) {
        let split = |union: &IdBitSet| {
            (
                union.intersection(&self.withdrawn_bits, sizes.0),
                union.intersection(&self.routed_bits, sizes.1),
            )
        };
        let mut ids = self.resolve(links);
        if let (Some(only), None) = (ids.next(), ids.next()) {
            return split(&self.links[only.index()].crosses);
        }
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut *scratch;
        let before = s.union_buf.heap_bytes();
        s.union_buf.clear_all();
        for lid in self.resolve(links) {
            s.union_buf.union_with(&self.links[lid.index()].crosses);
        }
        if s.union_buf.heap_bytes() > before {
            s.stats.scratch_growth += 1;
        } else {
            s.stats.scratch_reuse += 1;
        }
        split(&s.union_buf)
    }

    /// The session's id → prefix list as it is now: what a set of ids from
    /// [`LinkCounters::crossing_ids`] reads its prefixes from, for as long
    /// as it is kept. Reference-count bumps, no copy.
    pub(crate) fn prefix_list(&self) -> PrefixList {
        self.ids.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::PrefixSet;

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    /// `W(l)` of the link `(a, b)`.
    fn w(c: &LinkCounters, a: u32, b: u32) -> usize {
        c.wp(&AsLink::new(a, b)).0
    }

    /// `P(l)` of the link `(a, b)`.
    fn p_of(c: &LinkCounters, a: u32, b: u32) -> usize {
        c.wp(&AsLink::new(a, b)).1
    }

    fn is_withdrawn(c: &LinkCounters, prefix: Prefix) -> bool {
        c.withdrawn().any(|(q, _)| *q == prefix)
    }

    /// `(W(S), P(S))` by scanning the tracked prefixes.
    fn scan(c: &LinkCounters, set: &[AsLink]) -> (usize, usize) {
        let crossing = |it: &mut dyn Iterator<Item = (&Prefix, &AsPath)>| {
            it.filter(|(_, path)| path.crosses_any(set)).count()
        };
        (crossing(&mut c.withdrawn()), crossing(&mut c.routed()))
    }

    /// Builds the Fig. 1 / Fig. 4 scenario at small scale: on the session with
    /// AS 2, prefixes of AS 2 (1), AS 5 (1), AS 6 (1), AS 7 (10) and AS 8 (10)
    /// are routed via (2), (2 5), (2 5 6), (2 5 6 7) and (2 5 6 8).
    fn fig4_counters() -> LinkCounters {
        let mut rib: Vec<(Prefix, AsPath)> = Vec::new();
        rib.push((p(0), AsPath::new([2u32])));
        rib.push((p(1), AsPath::new([2u32, 5])));
        rib.push((p(2), AsPath::new([2u32, 5, 6])));
        for i in 0..10 {
            rib.push((p(10 + i), AsPath::new([2u32, 5, 6, 7])));
        }
        for i in 0..10 {
            rib.push((p(30 + i), AsPath::new([2u32, 5, 6, 8])));
        }
        LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)))
    }

    /// A slot is 4 bytes and reads back what was packed, up to the largest
    /// path id the counters accept.
    #[test]
    fn a_slot_packs_its_state_and_path_in_four_bytes() {
        assert_eq!(std::mem::size_of::<SlotState>(), 4);
        for index in [0, 1, 12_345, PATH_MASK as usize] {
            let pid = PathId::from_index(index);
            for slot in [Slot::Routed(pid), Slot::Withdrawn(pid), Slot::Gone] {
                assert_eq!(SlotState::from(slot).get(), slot);
            }
        }
    }

    #[test]
    fn seeding_counts_paths_per_link() {
        let c = fig4_counters();
        assert_eq!(p_of(&c, 2, 5), 22);
        assert_eq!(p_of(&c, 5, 6), 21);
        assert_eq!(p_of(&c, 6, 7), 10);
        assert_eq!(p_of(&c, 6, 8), 10);
        assert_eq!(w(&c, 5, 6), 0);
        assert_eq!(c.total_withdrawals(), 0);
        assert_eq!(c.routed_count(), 23);
        // 23 prefixes but only 5 distinct paths.
        assert_eq!(c.interner.len(), 5);
    }

    #[test]
    fn fig4_end_of_burst_counters() {
        // Failure of (5,6): AS 6 and AS 8 prefixes withdrawn (11 messages),
        // AS 7 prefixes re-announced over a path avoiding (5,6).
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        for i in 0..10 {
            c.on_withdraw(p(30 + i));
        }
        for i in 0..10 {
            c.on_announce_path(p(10 + i), &AsPath::new([2u32, 5, 3, 6, 7]));
        }
        assert_eq!(c.total_withdrawals(), 11);
        // W/P per link, as in Fig. 4 (scaled down 1000×).
        assert_eq!(w(&c, 5, 6), 11);
        assert_eq!(p_of(&c, 5, 6), 0);
        assert_eq!(w(&c, 2, 5), 11);
        assert_eq!(p_of(&c, 2, 5), 11, "AS5 prefix + 10 updated AS7 prefixes");
        assert_eq!(w(&c, 6, 8), 10);
        assert_eq!(p_of(&c, 6, 8), 0);
        assert_eq!(w(&c, 6, 7), 0);
        assert_eq!(
            p_of(&c, 6, 7),
            10,
            "re-announced paths still end at (6,7)... via 3"
        );
        assert_eq!(c.withdrawn_count(), 11);
        assert_eq!(c.routed_count(), 12);
    }

    #[test]
    fn noise_withdrawals_count_globally_only() {
        let mut c = fig4_counters();
        c.on_withdraw(p(9_999));
        assert_eq!(c.total_withdrawals(), 1);
        assert_eq!(c.withdrawn_count(), 0);
        assert_eq!(w(&c, 2, 5), 0);
    }

    #[test]
    fn reannouncement_after_withdrawal_restores_p_but_keeps_w() {
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        assert_eq!(w(&c, 5, 6), 1);
        assert_eq!(p_of(&c, 5, 6), 20);
        assert!(is_withdrawn(&c, p(2)));
        c.on_announce_path(p(2), &AsPath::new([2u32, 5, 6]));
        assert_eq!(w(&c, 5, 6), 1, "the withdrawal still happened");
        assert_eq!(p_of(&c, 5, 6), 21);
        assert!(!is_withdrawn(&c, p(2)));
        let path = c.routed().find(|(q, _)| **q == p(2)).map(|(_, path)| path);
        assert_eq!(path, Some(&AsPath::new([2u32, 5, 6])));
    }

    #[test]
    fn double_withdrawal_is_counted_once_per_message() {
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        c.on_withdraw(p(2));
        // Second withdrawal of an already-withdrawn prefix counts towards W(t)
        // (it is a received message) but cannot touch link counters again.
        assert_eq!(c.total_withdrawals(), 2);
        assert_eq!(w(&c, 5, 6), 1);
    }

    #[test]
    fn links_with_withdrawals_iterates_only_positive_w() {
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        let links: Vec<AsLink> = c.ids_with_withdrawals().map(|id| c.link(id)).collect();
        assert!(links.contains(&AsLink::new(2, 5)));
        assert!(links.contains(&AsLink::new(5, 6)));
        assert!(!links.contains(&AsLink::new(6, 7)));
        assert!(!links.contains(&AsLink::new(6, 8)));
    }

    #[test]
    fn union_counters_count_each_prefix_once() {
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        for i in 0..10 {
            c.on_withdraw(p(30 + i));
        }
        let set = [AsLink::new(5, 6), AsLink::new(6, 8)];
        // The 11 withdrawn prefixes all cross (5,6); the 10 AS 8 prefixes also
        // cross (6,8) but are not double-counted.
        assert_eq!(c.union_counts(&set).0, 11);
        // Still routed across the set: the 10 AS 7 prefixes (via (5,6)).
        assert_eq!(c.union_counts(&set).1, 10);
        // Adding an upstream link brings in its extra still-routed prefixes.
        let with_upstream = [AsLink::new(2, 5), AsLink::new(5, 6)];
        assert_eq!(c.union_counts(&with_upstream).0, 11);
        assert_eq!(
            c.union_counts(&with_upstream).1,
            11,
            "AS 5 prefix + 10 AS 7 prefixes"
        );
        assert_eq!(c.union_counts(&[]).0, 0);
        assert_eq!(c.union_counts(&[]).1, 0);
    }

    #[test]
    fn announce_of_new_prefix_adds_paths() {
        let mut c = LinkCounters::new();
        c.on_announce_path(p(1), &AsPath::new([9u32, 8]));
        assert_eq!(p_of(&c, 9, 8), 1);
        assert_eq!(c.routed_count(), 1);
        assert_eq!(c.withdrawn_count(), 0);
    }

    #[test]
    fn indexed_unions_match_scan_reference() {
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        for i in 0..10 {
            c.on_withdraw(p(30 + i));
        }
        for i in 0..5 {
            c.on_announce_path(p(10 + i), &AsPath::new([2u32, 5, 3, 6, 7]));
        }
        let sets: [&[AsLink]; 5] = [
            &[AsLink::new(5, 6)],
            &[AsLink::new(5, 6), AsLink::new(6, 8)],
            &[AsLink::new(2, 5), AsLink::new(5, 6), AsLink::new(6, 7)],
            &[AsLink::new(9, 9)],
            &[],
        ];
        for set in sets {
            assert_eq!(c.union_counts(set), scan(&c, set), "set {set:?}");
        }
    }

    #[test]
    fn crossing_prefixes_split_matches_iterators() {
        let mut c = fig4_counters();
        c.on_withdraw(p(2));
        for i in 0..10 {
            c.on_withdraw(p(30 + i));
        }
        let set = [AsLink::new(5, 6)];
        let (withdrawn, routed) = c.crossing_ids(&set, c.union_counts(&set));
        let behind = |ids: &IdBitSet| -> PrefixSet {
            ids.ids()
                .map(|id| *c.ids.prefixes().get(id as usize))
                .collect()
        };
        let scan_withdrawn: PrefixSet = c
            .withdrawn()
            .filter(|(_, path)| path.crosses_any(&set))
            .map(|(q, _)| *q)
            .collect();
        let scan_routed: PrefixSet = c
            .routed()
            .filter(|(_, path)| path.crosses_any(&set))
            .map(|(q, _)| *q)
            .collect();
        assert_eq!(behind(&withdrawn), scan_withdrawn);
        assert_eq!(behind(&routed), scan_routed);
        assert_eq!((withdrawn.count(), routed.count()), (11, 10));
    }

    #[test]
    fn from_interned_matches_from_rib() {
        let mut rib = InternedRib::new();
        rib.push_owned(p(0), AsPath::new([2u32, 5]));
        for i in 0..8 {
            rib.push_owned(p(1 + i), AsPath::new([2u32, 5, 6]));
        }
        let mut a = LinkCounters::from_interned(&rib);
        let mut b = LinkCounters::from_rib(rib.iter());
        assert_eq!(a.interner.len(), 2);
        for c in [&mut a, &mut b] {
            c.on_withdraw(p(3));
            c.on_announce_path(p(4), &AsPath::new([2u32, 9, 6]));
        }
        assert_eq!(w(&a, 5, 6), w(&b, 5, 6));
        assert_eq!(p_of(&a, 5, 6), p_of(&b, 5, 6));
        assert_eq!(p_of(&a, 9, 6), 1);
        assert_eq!(
            a.union_counts(&[AsLink::new(2, 5)]).0,
            b.union_counts(&[AsLink::new(2, 5)]).0
        );
        assert_eq!(a.routed_count(), b.routed_count());
        assert_eq!(a.total_withdrawals(), b.total_withdrawals());
    }

    /// Seeded from a table, a session holding half of its prefixes numbers
    /// them by the table's ids and shares its dictionary; a smaller one
    /// numbers its own. Both count alike.
    #[test]
    fn a_full_feed_shares_the_table_dictionary_a_partial_one_does_not() {
        use swift_bgp::{Asn, PeerId, Route, RouteAttributes, RoutingTable};
        let mut table = RoutingTable::new();
        for (peer, prefixes) in [(1, 0..200), (2, 100..200), (3, 190..200)] {
            table.add_peer(PeerId(peer), Asn(peer));
            for i in prefixes {
                let attrs = RouteAttributes::from_path(AsPath::new([peer, 5, 6 + i % 2]));
                table.announce(PeerId(peer), p(i), Route::new(PeerId(peer), attrs, 0));
            }
        }
        table.seal();
        let seeded = |peer| LinkCounters::from_table(table.adj_rib_in(PeerId(peer)).expect("peer"));
        for (peer, routes, ids) in [(1, 200, 200), (2, 100, 200), (3, 10, 10)] {
            let mut c = seeded(peer);
            assert_eq!(
                (c.routed_count(), c.ids.len()),
                (routes, ids),
                "peer {peer}"
            );
            // The table's id, or the sixth of the session's own.
            let id = if ids == 200 { 195 } else { 5 };
            assert_eq!(c.ids.get(&p(195)).map(|id| id.index()), Some(id));
            c.on_withdraw(p(195));
            c.on_withdraw(p(0));
            let withdrawn = usize::from(peer == 1);
            assert_eq!(c.withdrawn_count(), 1 + withdrawn, "peer {peer}");
            let l56 = [AsLink::new(5, 6)];
            assert_eq!(c.union_counts(&l56), scan(&c, &l56));
            assert_eq!(c.wp(&l56[0]), (withdrawn, routes / 2 - withdrawn));
        }
    }

    /// Seeding sizes the prefix index once, up front: a RIB just past a
    /// doubling boundary ends at exactly the size `reserve` picks for it.
    #[test]
    fn from_interned_sizes_the_prefix_index_once() {
        for n in [15u32, 897, 3_585] {
            let rib: InternedRib = (0..n).map(|i| (p(i), AsPath::new([2u32, i % 7]))).collect();
            let c = LinkCounters::from_interned(&rib);
            let mut reserved = PrefixInterner::new();
            reserved.reserve(n as usize);
            assert_eq!(c.ids.capacity(), reserved.capacity(), "{n} prefixes");
            assert_eq!(c.ids.len(), n as usize);
            assert_eq!(c.routed_count(), n as usize);
        }
    }

    #[test]
    fn start_burst_resets_w_and_purges_old_withdrawals() {
        let mut c = fig4_counters();
        // Burst 1: the AS 8 prefixes go away.
        for i in 0..10 {
            c.on_withdraw(p(30 + i));
        }
        assert_eq!(w(&c, 6, 8), 10);
        assert_eq!(c.total_withdrawals(), 10);

        // Burst 2 starts with an empty detection window: every counter the
        // paper seeds at burst start must be fresh.
        c.start_burst(std::iter::empty());
        assert_eq!(c.total_withdrawals(), 0);
        assert_eq!(w(&c, 6, 8), 0);
        assert_eq!(w(&c, 5, 6), 0);
        assert_eq!(c.withdrawn_count(), 0);
        assert_eq!(c.union_counts(&[AsLink::new(6, 8)]).0, 0);
        // The routed side is untouched.
        assert_eq!(c.routed_count(), 13);
        assert_eq!(p_of(&c, 5, 6), 11);
        // Old withdrawals are gone for good: withdrawing one again is noise.
        c.on_withdraw(p(30));
        assert_eq!(c.total_withdrawals(), 1);
        assert_eq!(w(&c, 6, 8), 0);
        // ... but a re-announcement brings the prefix back under tracking.
        c.on_announce_path(p(31), &AsPath::new([2u32, 5, 6, 8]));
        assert_eq!(p_of(&c, 6, 8), 1);
        c.on_withdraw(p(31));
        assert_eq!(w(&c, 6, 8), 1);
    }

    #[test]
    fn start_burst_replays_the_detection_window() {
        let mut c = fig4_counters();
        // Pre-burst history: p(2) withdrawn long ago.
        c.on_withdraw(p(2));
        // The detection window contains the burst's first withdrawals (p(30),
        // p(31)) plus one noise prefix.
        c.on_withdraw(p(30));
        c.on_withdraw(p(31));
        c.start_burst([p(30), p(31), p(9_999)]);
        // W(t) counts the whole window; W(l) only the known prefixes.
        assert_eq!(c.total_withdrawals(), 3);
        assert_eq!(w(&c, 6, 8), 2);
        assert_eq!(w(&c, 5, 6), 2, "p(2)'s old withdrawal purged");
        assert_eq!(c.withdrawn_count(), 2);
        assert!(is_withdrawn(&c, p(30)));
        assert!(!is_withdrawn(&c, p(2)), "pre-burst withdrawal forgotten");
        assert_eq!(c.union_counts(&[AsLink::new(6, 8)]).0, 2);
        assert_eq!(scan(&c, &[AsLink::new(6, 8)]).0, 2);
    }

    #[test]
    fn dirty_tracking_follows_w_changes() {
        fn drain(c: &mut LinkCounters) -> Vec<AsLink> {
            let ids: Vec<LinkId> = c.take_dirty().collect();
            ids.into_iter().map(|id| c.link(id)).collect()
        }
        let mut c = fig4_counters();
        assert_eq!(c.take_dirty().len(), 0, "seeding never dirties W");
        c.on_withdraw(p(2));
        assert_eq!(drain(&mut c), vec![AsLink::new(2, 5), AsLink::new(5, 6)]);
        assert_eq!(c.take_dirty().len(), 0, "drained");
        c.on_announce_path(p(10), &AsPath::new([2u32, 9]));
        assert_eq!(c.take_dirty().len(), 0, "announcements do not change W");
        c.start_burst([p(2)]);
        assert_eq!(
            drain(&mut c),
            vec![AsLink::new(2, 5), AsLink::new(5, 6)],
            "burst-start replay re-dirties the resurrected links"
        );
    }

    /// A re-announcement over the path a prefix already has moves no index
    /// bit: a routed prefix is left alone, a withdrawn one gets its `P` back.
    #[test]
    fn same_path_reannouncement_keeps_the_index() {
        let mut c = fig4_counters();
        let l56 = AsLink::new(5, 6);
        let before = (c.wp(&l56), c.routed_count(), c.union_counts(&[l56]));
        c.on_announce_path(p(2), &AsPath::new([2u32, 5, 6]));
        assert_eq!(
            (c.wp(&l56), c.routed_count(), c.union_counts(&[l56])),
            before
        );
        c.on_withdraw(p(2));
        assert_eq!(c.wp(&l56), (1, 20));
        assert_eq!(c.union_counts(&[l56]), (1, 20));
        c.on_announce_path(p(2), &AsPath::new([2u32, 5, 6]));
        assert_eq!(c.wp(&l56), (1, 21), "W kept, P restored");
        assert_eq!(c.union_counts(&[l56]), (0, 21), "no longer withdrawn");
        assert_eq!(scan(&c, &[l56]).1, 21);
        assert_eq!((c.routed_count(), c.withdrawn_count()), (23, 0));
        // A looped path lists a repeated link once.
        c.on_announce_path(p(50), &AsPath::new([2u32, 5, 2, 5]));
        assert_eq!(p_of(&c, 2, 5), 23);
        c.on_withdraw(p(50));
        assert_eq!(w(&c, 2, 5), 2);
    }

    #[test]
    fn start_burst_counts_window_duplicates_once_and_skips_reannounced() {
        let mut c = fig4_counters();
        for i in [2, 30, 31, 32] {
            c.on_withdraw(p(i));
        }
        // p(31) came back before the burst was detected; p(30) is named
        // twice; p(9_999) was never routed; p(32) fell out of the window.
        c.on_announce_path(p(31), &AsPath::new([2u32, 5, 6, 8]));
        c.start_burst([p(30), p(31), p(30), p(9_999), p(2)]);
        assert_eq!(c.total_withdrawals(), 5, "W(t) counts every window entry");
        assert_eq!(c.withdrawn_count(), 2, "p(2) and p(30)");
        assert_eq!(w(&c, 6, 8), 1);
        assert_eq!(w(&c, 5, 6), 2);
        assert!(!is_withdrawn(&c, p(32)), "purged with the previous burst");
        assert_eq!(c.routed_count(), 20);
        for set in [[AsLink::new(6, 8)], [AsLink::new(5, 6)]] {
            assert_eq!(c.union_counts(&set), scan(&c, &set));
        }
    }
}
