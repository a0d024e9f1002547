//! AS numbers, AS-level links and AS paths.
//!
//! The SWIFT inference algorithm localises failures to *AS links* extracted from
//! the AS paths carried in BGP messages, and the encoding scheme assigns tag bits
//! to `(link, position-in-path)` pairs. This module provides those types, with
//! the position conventions of the paper (§5): position *i* denotes the *i*-th
//! link of the AS path as seen from the SWIFTED router, where position 1 is the
//! link between the first and second ASes in the path (the link adjacent to the
//! router's next-hop AS is "depth 0" and is handled by ordinary local
//! fast-reroute, so SWIFT encodes positions starting at 1).
//!
//! # Storage
//!
//! An [`AsPath`] keeps up to five hops **in place**: a length byte and a
//! `[Asn; 5]` inside the record, no heap block behind it. Five is not tuned,
//! it is what fits: the `Vec<Asn>` this replaced had a 24-byte header
//! (pointer, capacity, length), and 24 bytes at 8-byte alignment hold a tag,
//! a length and 5 × 4 bytes of hops. The owned records stay at 64 bytes:
//! `size_of::<AsPath>()` is 24 and [`crate::Route`] /
//! [`crate::ElementaryEvent`] are 64 bytes, so everything that merely moves
//! events (batches, queues, the applier's event buffer) pays nothing for the
//! path. A route carries no communities: a `Vec` of them cost 24 bytes per
//! record and nothing set or read it. A longer path **spills**: its hops
//! live in one boxed slice, behind the same [`AsPath::hops`] every accessor
//! goes through, so no caller can tell.
//!
//! A routing table does not store routes in that form. It keeps each
//! distinct attribute set, path included, once in its attribute dictionary
//! (see [`crate::attributes`]), and a stored route is a 4-byte record —
//! its attribute set's id, filed under its peer — with no path in it
//! (the unit test below pins both sizes, `Option` included). Withdrawing a route frees
//! nothing and reads no path; announcing a set the dictionary holds
//! allocates nothing and drops the event's copy (for a spilled path, that
//! frees the event's block); cloning a table or an interner copies bytes
//! plus one block per distinct spilled path, and comparing the candidates
//! of a prefix reads each set where the dictionary holds it.
//! `crates/core/tests/alloc_free_event_path.rs` holds the per-event path to
//! zero `alloc` calls.
//!
//! Equality, ordering and hashing are those of the hop slice (`[Asn]`), as
//! they were for the `Vec`: a path of at most five hops is always stored in
//! place, so equal paths also have equal representations, and path ids,
//! encoding plans and the benchmark's pinned digests did not move.
//!
//! Is five enough? On the repo benchmark's tables every path fits (seed 1,
//! share of routes by hop count):
//!
//! | table | routes | 2 hops | 3 hops | 4 hops | longer |
//! |---|---|---|---|---|---|
//! | `corpus_inline` / `corpus_sharded` | 611 612 | 68.6 % | 18.9 % | 12.5 % | — |
//! | `bigtable_inline` | 1 949 751 | 59.0 % | 24.6 % | 16.4 % | — |
//! | `pathchange_inline` | 779 832 | 59.1 % | 24.6 % | 16.3 % | — |
//!
//! Real tables are longer: the public route collectors (RouteViews, RIPE
//! RIS, and the yearly BGP reports built on them) put the *mean* AS-path
//! length a collector peer sees at 4–6 hops, prepending included. A real
//! full table therefore spills a sizeable minority of its routes; those pay
//! what every route paid before (one block, one pointer), not more. The
//! spill is a tested path, not a corner: the property tests drive every
//! accessor across the boundary in both directions
//! (`crates/bgp/tests/proptests.rs`) and the allocation test replays its
//! cycle over 9-hop paths.

use std::fmt;
use std::hash::{Hash, Hasher};

/// An Autonomous System number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl Asn {
    /// The raw 32-bit AS number.
    pub fn value(&self) -> u32 {
        self.0
    }
}

/// A directed AS-level link `(from, to)` as it appears along a forwarding path.
///
/// The paper writes links as ordered pairs following the direction of the AS
/// path from the vantage point, e.g. `(5, 6)` in Fig. 1. Two helpers are
/// provided: [`AsLink::reversed`] and [`AsLink::same_undirected`], since
/// inference treats a link and its reverse as the same physical adjacency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsLink {
    /// The AS closer to the vantage point along the path.
    pub from: Asn,
    /// The AS farther from the vantage point along the path.
    pub to: Asn,
}

impl AsLink {
    /// Creates a directed link.
    pub fn new(from: impl Into<Asn>, to: impl Into<Asn>) -> Self {
        AsLink {
            from: from.into(),
            to: to.into(),
        }
    }

    /// The same adjacency traversed in the opposite direction.
    pub fn reversed(&self) -> AsLink {
        AsLink {
            from: self.to,
            to: self.from,
        }
    }

    /// Returns `true` if `other` is the same physical adjacency, regardless of
    /// direction.
    pub fn same_undirected(&self, other: &AsLink) -> bool {
        self == other || *self == other.reversed()
    }

    /// Canonical undirected form: endpoints ordered by AS number.
    pub fn undirected(&self) -> AsLink {
        if self.from <= self.to {
            *self
        } else {
            self.reversed()
        }
    }

    /// Returns `true` if `asn` is one of the two endpoints.
    pub fn has_endpoint(&self, asn: Asn) -> bool {
        self.from == asn || self.to == asn
    }

    /// The endpoint shared with `other`, if any.
    pub fn common_endpoint(&self, other: &AsLink) -> Option<Asn> {
        [self.from, self.to]
            .into_iter()
            .find(|&a| other.has_endpoint(a))
    }
}

impl fmt::Display for AsLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.from.0, self.to.0)
    }
}

/// Hops an [`AsPath`] holds in place (see the module's "Storage" section:
/// what fits in the 24 bytes of the `Vec` header the array replaced).
const INLINE_HOPS: usize = 5;

/// Where a path's hops live. Invariant: `Inline::len <= INLINE_HOPS`, and a
/// path of at most `INLINE_HOPS` hops is always `Inline` (every constructor
/// goes through [`AsPath::new`]), so equal paths have equal representations.
#[derive(Clone)]
enum Hops {
    Inline { len: u8, hops: [Asn; INLINE_HOPS] },
    Spilled(Box<[Asn]>),
}

/// An AS path: the sequence of ASes a route traverses, nearest AS first.
///
/// `AsPath::new([2, 5, 6])` is the path through neighbour AS 2, then AS 5, then
/// origin AS 6 — matching the notation `(2 5 6)` in the paper.
///
/// Equality, ordering and hashing are those of [`AsPath::hops`].
#[derive(Clone)]
pub struct AsPath(Hops);

impl AsPath {
    /// Builds a path from a sequence of AS numbers, nearest first.
    pub fn new<I, T>(hops: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Asn>,
    {
        let mut iter = hops.into_iter().map(Into::into);
        let mut inline = [Asn(0); INLINE_HOPS];
        let mut len = 0;
        while len < INLINE_HOPS {
            match iter.next() {
                Some(hop) => inline[len] = hop,
                None => break,
            }
            len += 1;
        }
        match iter.next() {
            None => AsPath(Hops::Inline {
                len: len as u8,
                hops: inline,
            }),
            Some(hop) => {
                let mut spilled = Vec::with_capacity(INLINE_HOPS + 1 + iter.size_hint().0);
                spilled.extend_from_slice(&inline);
                spilled.push(hop);
                spilled.extend(iter);
                AsPath(Hops::Spilled(spilled.into_boxed_slice()))
            }
        }
    }

    /// The empty path (used for locally-originated routes).
    pub fn empty() -> Self {
        AsPath(Hops::Inline {
            len: 0,
            hops: [Asn(0); INLINE_HOPS],
        })
    }

    /// Number of ASes in the path.
    #[inline]
    pub fn len(&self) -> usize {
        self.hops().len()
    }

    /// Returns `true` if the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.hops().is_empty()
    }

    /// The ASes in order, nearest first — the one read path every other
    /// accessor goes through.
    #[inline]
    pub fn hops(&self) -> &[Asn] {
        match &self.0 {
            // `len <= INLINE_HOPS` always; `min` says so without a bounds
            // check, so the read has no panic path.
            Hops::Inline { len, hops } => &hops[..usize::from(*len).min(INLINE_HOPS)],
            Hops::Spilled(hops) => hops,
        }
    }

    /// The neighbouring AS (first hop), i.e. the BGP next-hop AS.
    pub fn first_hop(&self) -> Option<Asn> {
        self.hops().first().copied()
    }

    /// The origin AS (last hop).
    pub fn origin(&self) -> Option<Asn> {
        self.hops().last().copied()
    }

    /// Returns `true` if `asn` appears anywhere in the path.
    #[inline]
    pub fn contains_as(&self, asn: Asn) -> bool {
        self.hops().contains(&asn)
    }

    /// Prepends an AS (standard BGP export behaviour).
    pub fn prepend(&self, asn: impl Into<Asn>) -> AsPath {
        AsPath::new(std::iter::once(asn.into()).chain(self.hops().iter().copied()))
    }

    /// Iterates over the directed links of the path, nearest first.
    ///
    /// The path `(2 5 6)` yields `(2,5)` then `(5,6)`.
    #[inline]
    pub fn links(&self) -> impl Iterator<Item = AsLink> + '_ {
        self.hops().windows(2).map(|w| AsLink::new(w[0], w[1]))
    }

    /// The link at 1-based position `pos` (position 1 = first link), if any.
    ///
    /// This matches the paper's tag layout where the first encoded bit group
    /// represents the first link of the AS path.
    #[inline]
    pub fn link_at_position(&self, pos: usize) -> Option<AsLink> {
        let hops = self.hops();
        if pos == 0 || pos >= hops.len() {
            return None;
        }
        Some(AsLink::new(hops[pos - 1], hops[pos]))
    }

    /// Returns `true` if the path traverses `link` in the given direction.
    pub fn crosses_link(&self, link: &AsLink) -> bool {
        self.links().any(|l| l == *link)
    }

    /// Returns `true` if the path traverses the adjacency `link` in either
    /// direction.
    pub fn crosses_link_undirected(&self, link: &AsLink) -> bool {
        self.links().any(|l| l.same_undirected(link))
    }

    /// Returns `true` if any of the given links is traversed (directed match).
    pub fn crosses_any(&self, links: &[AsLink]) -> bool {
        self.links().any(|l| links.contains(&l))
    }

    /// Returns `true` if the path visits any endpoint of `link`.
    ///
    /// SWIFT's safety rule (§4.2) selects backup paths avoiding *both*
    /// endpoints of every inferred link, because the common endpoint of an
    /// aggregated link set is not known in advance.
    #[inline]
    pub fn visits_endpoint_of(&self, link: &AsLink) -> bool {
        self.contains_as(link.from) || self.contains_as(link.to)
    }
}

impl Default for AsPath {
    fn default() -> Self {
        AsPath::empty()
    }
}

impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        self.hops() == other.hops()
    }
}

impl Eq for AsPath {}

impl PartialOrd for AsPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AsPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.hops().cmp(other.hops())
    }
}

impl Hash for AsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hops().hash(state);
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsPath")
            .field("hops", &self.hops())
            .finish()
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, h) in self.hops().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", h.0)?;
        }
        write!(f, ")")
    }
}

impl<T: Into<Asn>> FromIterator<T> for AsPath {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        AsPath::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().copied())
    }

    #[test]
    fn link_extraction_matches_paper_example() {
        // Path (2 5 6 8): prefixes of AS 8 as seen by AS 1 in Fig. 1.
        let p = path(&[2, 5, 6, 8]);
        let links: Vec<_> = p.links().collect();
        assert_eq!(
            links,
            vec![AsLink::new(2, 5), AsLink::new(5, 6), AsLink::new(6, 8)]
        );
        assert_eq!(p.link_at_position(1), Some(AsLink::new(2, 5)));
        assert_eq!(p.link_at_position(2), Some(AsLink::new(5, 6)));
        assert_eq!(p.link_at_position(3), Some(AsLink::new(6, 8)));
        assert_eq!(p.link_at_position(4), None);
        assert_eq!(p.link_at_position(0), None);
    }

    #[test]
    fn first_hop_and_origin() {
        let p = path(&[2, 5, 6, 8]);
        assert_eq!(p.first_hop(), Some(Asn(2)));
        assert_eq!(p.origin(), Some(Asn(8)));
        assert!(AsPath::empty().first_hop().is_none());
        assert!(AsPath::empty().origin().is_none());
    }

    #[test]
    fn prepend_and_loop_detection() {
        let p = path(&[5, 6]);
        let q = p.prepend(2u32);
        assert_eq!(q, path(&[2, 5, 6]));
        assert!(q.contains_as(Asn(5)));
        assert!(!q.contains_as(Asn(9)));
    }

    #[test]
    fn crossing_checks() {
        let p = path(&[2, 5, 6, 8]);
        assert!(p.crosses_link(&AsLink::new(5, 6)));
        assert!(!p.crosses_link(&AsLink::new(6, 5)));
        assert!(p.crosses_link_undirected(&AsLink::new(6, 5)));
        assert!(p.crosses_any(&[AsLink::new(9, 9), AsLink::new(6, 8)]));
        assert!(!p.crosses_any(&[AsLink::new(9, 9)]));
        assert!(p.visits_endpoint_of(&AsLink::new(6, 99)));
        assert!(!p.visits_endpoint_of(&AsLink::new(98, 99)));
    }

    #[test]
    fn undirected_link_canonicalisation() {
        let a = AsLink::new(6, 5);
        assert_eq!(a.undirected(), AsLink::new(5, 6));
        assert_eq!(AsLink::new(5, 6).undirected(), AsLink::new(5, 6));
        assert!(a.same_undirected(&AsLink::new(5, 6)));
        assert!(!a.same_undirected(&AsLink::new(5, 7)));
    }

    #[test]
    fn common_endpoint() {
        let a = AsLink::new(5, 6);
        let b = AsLink::new(6, 8);
        let c = AsLink::new(1, 2);
        assert_eq!(a.common_endpoint(&b), Some(Asn(6)));
        assert_eq!(a.common_endpoint(&c), None);
        assert!(a.has_endpoint(Asn(5)));
        assert!(!a.has_endpoint(Asn(7)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Asn(65000).to_string(), "AS65000");
        assert_eq!(AsLink::new(5, 6).to_string(), "(5, 6)");
        assert_eq!(path(&[2, 5, 6]).to_string(), "(2 5 6)");
        assert_eq!(AsPath::empty().to_string(), "()");
    }

    #[test]
    fn link_count_and_len() {
        assert_eq!(path(&[2, 5, 6]).links().count(), 2);
        assert_eq!(path(&[2]).links().count(), 0);
        assert_eq!(AsPath::empty().links().count(), 0);
        assert_eq!(path(&[2, 5, 6]).len(), 3);
        assert!(!path(&[2]).is_empty());
        assert!(AsPath::empty().is_empty());
    }

    #[test]
    fn a_path_is_a_flat_record_that_does_not_grow() {
        use crate::rib::StoredRoute;
        use crate::{ElementaryEvent, Route, RouteRef};
        use std::mem::size_of;
        // The 24 bytes of the `Vec` header the in-place array replaced, and
        // the owned records that embed a path at one cache line each.
        assert_eq!(size_of::<AsPath>(), 24);
        assert_eq!(size_of::<Option<AsPath>>(), 24);
        assert_eq!(size_of::<crate::RouteAttributes>(), 48);
        assert_eq!(size_of::<Route>(), 56);
        assert_eq!(size_of::<Option<Route>>(), 56);
        assert_eq!(size_of::<RouteRef>(), 16);
        assert_eq!(size_of::<ElementaryEvent>(), 64);
        // What a table stores per route: the attributes by non-zero id, so
        // a page entry's `Option` costs nothing.
        assert_eq!(size_of::<StoredRoute>(), 4);
        assert_eq!(size_of::<Option<StoredRoute>>(), 4);
    }

    #[test]
    fn the_boundary_spills_and_compares_by_hops() {
        let at = path(&[1, 2, 3, 4, 5]);
        let over = path(&[1, 2, 3, 4, 5, 6]);
        assert!(matches!(at.0, Hops::Inline { len: 5, .. }));
        assert!(matches!(over.0, Hops::Spilled(_)));
        assert_eq!(at.prepend(0u32), path(&[0, 1, 2, 3, 4, 5]));
        assert_eq!(over.hops().len(), 6);
        assert_eq!(
            at.prepend(0u32).link_at_position(5),
            over.link_at_position(4)
        );
        assert!(at < over && over < path(&[1, 2, 3, 4, 6]));
        assert_eq!(
            format!("{:?}", path(&[2, 5])),
            "AsPath { hops: [Asn(2), Asn(5)] }"
        );
    }

    #[test]
    fn from_iterator() {
        let p: AsPath = [1u32, 2, 3].into_iter().collect();
        assert_eq!(p, path(&[1, 2, 3]));
    }
}
