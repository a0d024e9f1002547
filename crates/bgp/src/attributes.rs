//! BGP path attributes.
//!
//! SWIFT's algorithms mostly consume the AS path, but the surrounding machinery
//! (best-path selection, update packing, rerouting policy input) needs the
//! attributes that decide between routes: ORIGIN, LOCAL_PREF and MED.
//! Communities are not carried: nothing here sets or reads them, and a
//! `Vec` of them would add 24 bytes to every event record (see "Storage" in
//! [`crate::as_path`]).
//!
//! # The attribute dictionary
//!
//! A routing table stores each distinct attribute set once, in an
//! `AttrDictionary` (`RouteAttributes` → a dense, non-zero `AttrId`), and a
//! stored route carries the id. Tables are redundant at this level as they
//! are at the AS-path level (see [`crate::PathInterner`]): `bigtable_inline`'s
//! 1 949 751 routes carry 57 643 distinct attribute sets. The sets are held
//! by value, in id order, and the index beside them is one packed `u64` per
//! slot — the high half of the set's hash above its id — so a probe compares
//! a set only where the hash halves agree. Ids are never freed, as prefix ids
//! are not: a set no route carries any more keeps its id and its entry, so
//! the dictionary holds every set the table was ever announced.

use crate::as_path::AsPath;
use crate::prefix::FoldHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;

/// The BGP ORIGIN attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Origin {
    /// Learned from an interior gateway protocol.
    #[default]
    Igp,
    /// Learned from EGP (historical).
    Egp,
    /// Origin unknown / redistributed.
    Incomplete,
}

impl Origin {
    /// Preference rank used in best-path selection (lower is preferred).
    pub fn rank(&self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        };
        f.write_str(s)
    }
}

/// The set of path attributes attached to an announced route.
///
/// `local_pref` defaults to 100 as on most router platforms. Equal attribute
/// sets share one [`AttrId`] in a table's attribute dictionary.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RouteAttributes {
    /// The AS path of the route, nearest AS first.
    pub as_path: AsPath,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// LOCAL_PREF (higher is preferred). Defaults to 100 when unset.
    pub local_pref: Option<u32>,
    /// Multi-Exit Discriminator (lower is preferred).
    pub med: Option<u32>,
}

impl RouteAttributes {
    /// Creates attributes carrying just an AS path, all else default.
    pub fn from_path(as_path: AsPath) -> Self {
        RouteAttributes {
            as_path,
            ..Default::default()
        }
    }

    /// The effective LOCAL_PREF (default 100).
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// The effective MED (default 0).
    pub fn effective_med(&self) -> u32 {
        self.med.unwrap_or(0)
    }

    /// Builder-style setter for LOCAL_PREF.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = Some(lp);
        self
    }
}

/// Dense id of an attribute set in one table's attribute dictionary (see
/// "The attribute dictionary"), handed out from 1 in first-seen order and
/// never freed, so an id means the same set for the life of the table and
/// its clones, and nothing to any other table. Non-zero, so
/// `Option<AttrId>` and a stored route's `Option` cost no extra word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrId(NonZeroU32);

impl AttrId {
    /// The id's entry in `AttrDictionary::entries`.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// Fewest slots a non-empty `AttrDictionary` index has.
const MIN_ATTR_SLOTS: usize = 16;

/// One table's distinct attribute sets (see "The attribute dictionary").
///
/// Invariants, kept by `intern` (the only writer): `entries` holds distinct
/// sets; the slot of `entries[i]` holds `hash >> 32 << 32 | (i + 1)` and is
/// reached from the set's home slot (`hash`'s low bits) without crossing an
/// empty (zero) slot; the index is a power of two long and at most half
/// full.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrDictionary {
    entries: Vec<RouteAttributes>,
    slots: Vec<u64>,
}

/// The hash an [`AttrDictionary`] files a set under.
#[inline]
fn attr_hash(attrs: &RouteAttributes) -> u64 {
    let mut hasher = FoldHasher::default();
    attrs.hash(&mut hasher);
    hasher.finish()
}

impl AttrDictionary {
    /// Number of distinct sets.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The set behind `id`. Panics if `id` came from another dictionary.
    #[inline]
    pub(crate) fn get(&self, id: AttrId) -> &RouteAttributes {
        &self.entries[id.index()]
    }

    /// The id of `attrs`, if it is in the dictionary.
    #[inline]
    pub(crate) fn lookup(&self, attrs: &RouteAttributes) -> Option<AttrId> {
        self.probe(attr_hash(attrs), attrs).ok()
    }

    /// The id of `attrs`, moving it in if it is new (dropping it otherwise).
    pub(crate) fn intern(&mut self, attrs: RouteAttributes) -> AttrId {
        let hash = attr_hash(&attrs);
        let mut at = match self.probe(hash, &attrs) {
            Ok(id) => return id,
            Err(at) => at,
        };
        let id = u32::try_from(self.entries.len() + 1)
            .ok()
            .and_then(NonZeroU32::new)
            .map(AttrId)
            .expect("more than 2^32 - 1 attribute sets");
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(MIN_ATTR_SLOTS));
            at = self.vacant(hash);
        }
        self.slots[at] = hash >> 32 << 32 | u64::from(id.0.get());
        self.entries.push(attrs);
        id
    }

    /// Walks from `hash`'s home slot: the id of `attrs` if it is held,
    /// otherwise the empty slot that ends the walk (0 with no slots).
    #[inline]
    fn probe(&self, hash: u64, attrs: &RouteAttributes) -> Result<AttrId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            let Some(id) = NonZeroU32::new(slot as u32) else {
                return Err(at);
            };
            let id = AttrId(id);
            if slot >> 32 == hash >> 32 && self.get(id) == attrs {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// The empty slot a hash known to be absent goes into.
    fn vacant(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        at
    }

    /// Refiles every set into a fresh index of `slots` slots.
    fn rehash(&mut self, slots: usize) {
        self.slots = vec![0; slots];
        for i in 0..self.entries.len() {
            let hash = attr_hash(&self.entries[i]);
            let at = self.vacant(hash);
            self.slots[at] = hash >> 32 << 32 | (i as u64 + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::AsPath;

    #[test]
    fn origin_ranking() {
        assert!(Origin::Igp.rank() < Origin::Egp.rank());
        assert!(Origin::Egp.rank() < Origin::Incomplete.rank());
        assert_eq!(Origin::default(), Origin::Igp);
    }

    #[test]
    fn attribute_defaults() {
        let a = RouteAttributes::from_path(AsPath::new([1u32, 2, 3]));
        assert_eq!(a.effective_local_pref(), 100);
        assert_eq!(a.effective_med(), 0);
    }

    #[test]
    fn builder_setters() {
        let mut a = RouteAttributes::from_path(AsPath::new([1u32])).with_local_pref(200);
        a.med = Some(10);
        assert_eq!(a.effective_local_pref(), 200);
        assert_eq!(a.effective_med(), 10);
    }

    /// Equal sets share an id; sets that differ in one attribute, or in a
    /// field set to the value its default reads as, do not. Ids survive the
    /// index's growth and a clone.
    #[test]
    fn the_dictionary_interns_each_set_once() {
        let set = |k: u32| {
            let mut a = RouteAttributes::from_path(AsPath::new([1u32, k, 3, 4, 5, 6, 7]));
            a.med = (k % 2 == 0).then_some(k);
            a
        };
        let mut d = AttrDictionary::default();
        assert_eq!(d.lookup(&set(0)), None);
        let ids: Vec<AttrId> = (0..100).map(|k| d.intern(set(k))).collect();
        assert_eq!(d.len(), 100);
        assert!(d.slots.len() >= 2 * d.len(), "at most half full");
        for (k, id) in (0..100).zip(&ids) {
            assert_eq!(d.intern(set(k)), *id);
            assert_eq!(d.lookup(&set(k)), Some(*id));
            assert_eq!(d.get(*id), &set(k));
        }
        assert_eq!(d.len(), 100, "nothing re-interned");
        let base = RouteAttributes::from_path(AsPath::new([1u32, 2]));
        let variants = [
            base.clone().with_local_pref(100),
            RouteAttributes {
                med: Some(0),
                ..base.clone()
            },
            RouteAttributes {
                origin: Origin::Egp,
                ..base.clone()
            },
        ];
        let first = d.intern(base.clone());
        for v in variants {
            assert_ne!(d.intern(v), first);
        }
        let clone = d.clone();
        for (k, id) in (0..100).zip(&ids) {
            assert_eq!(clone.lookup(&set(k)), Some(*id));
        }
        assert_eq!(clone.len(), 104);
    }

    #[test]
    fn display_origin() {
        assert_eq!(Origin::Igp.to_string(), "IGP");
        assert_eq!(Origin::Incomplete.to_string(), "INCOMPLETE");
    }
}
