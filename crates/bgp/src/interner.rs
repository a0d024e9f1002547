//! AS-path interning: dense [`PathId`]s over deduplicated path storage.
//!
//! Internet routing tables are heavily redundant at the AS-path level: a full
//! table of ~900k prefixes typically carries well under 100k *distinct* AS
//! paths, because every prefix originated by the same AS behind the same
//! provider chain shares one path. The SWIFT inference hot path (RIB seeding,
//! per-link counters, trace replay) therefore works on a `u32` [`PathId`]
//! into a [`PathInterner`] instead of a path per prefix and per event.
//!
//! The interner holds its paths **by value**: an [`AsPath`] is a flat 24-byte
//! record (see the "Storage" section of [`crate::as_path`]), so `paths[id]` is
//! the path itself and an index probe compares hops where the bucket lies —
//! no pointer is followed on either side. Cloning an interner (or an
//! [`InternedRib`]) copies those records; only a path too long to be stored
//! in place owns a heap block, and a clone copies that block.

use crate::as_path::AsPath;
use crate::prefix::{FoldBuildHasher, Prefix};
use std::collections::HashMap;

/// A dense identifier for an interned [`AsPath`].
///
/// Ids are assigned sequentially by the [`PathInterner`] that produced them
/// and are only meaningful relative to that interner (or a clone of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(u32);

impl PathId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id whose [`PathId::index`] is `index` (for state that packs ids
    /// beside other fields).
    pub fn from_index(index: usize) -> Self {
        PathId(index as u32)
    }
}

/// Deduplicating storage for [`AsPath`]s.
///
/// [`PathInterner::intern`] returns the same [`PathId`] for equal paths, in
/// first-seen order; lookups by id are one array read. Each distinct path is
/// held twice, as `paths[id]` and as its key in the index — 48 bytes per
/// distinct path, nothing per prefix.
///
/// The index hashes with the in-crate [`crate::FoldHasher`] (one
/// multiplication per hop): every announcement interns its path, so the
/// probe sits on the inference engine's per-event path.
#[derive(Debug, Clone, Default)]
pub struct PathInterner {
    paths: Vec<AsPath>,
    index: HashMap<AsPath, PathId, FoldBuildHasher>,
}

impl PathInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `path`, cloning it only if it has not been seen before.
    pub fn intern(&mut self, path: &AsPath) -> PathId {
        if let Some(id) = self.index.get(path) {
            return *id;
        }
        self.insert_new(path.clone())
    }

    /// Interns an owned path without cloning (the path is dropped if an equal
    /// one is already interned).
    pub fn intern_owned(&mut self, path: AsPath) -> PathId {
        if let Some(id) = self.index.get(&path) {
            return *id;
        }
        self.insert_new(path)
    }

    fn insert_new(&mut self, path: AsPath) -> PathId {
        let id = PathId(u32::try_from(self.paths.len()).expect("more than u32::MAX paths"));
        self.paths.push(path.clone());
        self.index.insert(path, id);
        id
    }

    /// The path behind `id`. Panics if `id` came from a different interner.
    pub fn get(&self, id: PathId) -> &AsPath {
        &self.paths[id.index()]
    }

    /// The interned paths in id order, from the one whose [`PathId::index`]
    /// is `first` — how a consumer keeping per-path data catches up with the
    /// paths interned since it last looked. Panics if `first > len()`.
    pub fn paths_from(&self, first: usize) -> impl Iterator<Item = &AsPath> {
        self.paths[first..].iter()
    }

    /// The id of `path` if it is already interned.
    pub fn lookup(&self, path: &AsPath) -> Option<PathId> {
        self.index.get(path).copied()
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// An Adj-RIB-In snapshot with interned paths: `(Prefix, PathId)` entries over
/// a [`PathInterner`].
///
/// This is the seeding format for the SWIFT inference pipeline: the trace
/// corpus materialises sessions into an `InternedRib`, and consumers
/// (per-session counters, engines) copy its interner — one record per
/// distinct path — instead of one `AsPath` per prefix.
#[derive(Debug, Clone, Default)]
pub struct InternedRib {
    pub(crate) interner: PathInterner,
    pub(crate) entries: Vec<(Prefix, PathId)>,
}

impl InternedRib {
    /// Creates an empty interned RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry, interning `path`.
    pub fn push(&mut self, prefix: Prefix, path: &AsPath) {
        let id = self.interner.intern(path);
        self.entries.push((prefix, id));
    }

    /// Appends an entry from an owned path (no clone for new paths).
    pub fn push_owned(&mut self, prefix: Prefix, path: AsPath) {
        let id = self.interner.intern_owned(path);
        self.entries.push((prefix, id));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the RIB has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `idx` as `(prefix, path)`.
    pub fn get(&self, idx: usize) -> (Prefix, &AsPath) {
        let (prefix, id) = self.entries[idx];
        (prefix, self.interner.get(id))
    }

    /// Iterates over `(prefix, path)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &AsPath)> {
        self.entries
            .iter()
            .map(|(p, id)| (p, self.interner.get(*id)))
    }

    /// The raw `(prefix, id)` entries.
    pub fn entries(&self) -> &[(Prefix, PathId)] {
        &self.entries
    }

    /// The backing interner.
    pub fn interner(&self) -> &PathInterner {
        &self.interner
    }
}

impl PartialEq for InternedRib {
    /// Semantic equality: same `(prefix, path)` sequence, regardless of how
    /// ids were assigned.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl FromIterator<(Prefix, AsPath)> for InternedRib {
    fn from_iter<I: IntoIterator<Item = (Prefix, AsPath)>>(iter: I) -> Self {
        let mut rib = InternedRib::new();
        for (prefix, path) in iter {
            rib.push_owned(prefix, path);
        }
        rib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(hops: &[u32]) -> AsPath {
        AsPath::new(hops.iter().copied())
    }

    #[test]
    fn interning_dedupes_equal_paths() {
        let mut i = PathInterner::new();
        let a = i.intern(&path(&[2, 5, 6]));
        let b = i.intern(&path(&[2, 5, 6]));
        let c = i.intern(&path(&[2, 5, 7]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(a), &path(&[2, 5, 6]));
        assert_eq!(i.get(c), &path(&[2, 5, 7]));
        assert_eq!(i.lookup(&path(&[2, 5, 6])), Some(a));
        assert_eq!(i.lookup(&path(&[9, 9])), None);
        assert_eq!(i.paths_from(c.index()).collect::<Vec<_>>(), [i.get(c)]);
        assert_eq!(i.paths_from(2).count(), 0);
    }

    #[test]
    fn intern_owned_matches_intern() {
        let mut i = PathInterner::new();
        let a = i.intern(&path(&[1, 2]));
        let b = i.intern_owned(path(&[1, 2]));
        let c = i.intern_owned(path(&[1, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn a_clone_keeps_every_id() {
        let mut i = PathInterner::new();
        let short = i.intern(&path(&[2, 5, 6]));
        let spilled = i.intern(&path(&[2, 5, 6, 7, 8, 9, 10]));
        let mut clone = i.clone();
        for id in [short, spilled] {
            assert_eq!(clone.get(id), i.get(id));
            assert_eq!(clone.intern(i.get(id)), id);
        }
        // The two number independently from here on.
        assert_eq!(clone.intern(&path(&[9, 9])).index(), 2);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interned_rib_roundtrip() {
        let mut rib = InternedRib::new();
        for k in 0..10u32 {
            rib.push(Prefix::nth_slash24(k), &path(&[2, 5, 6]));
        }
        rib.push_owned(Prefix::nth_slash24(10), path(&[2, 9]));
        assert_eq!(rib.len(), 11);
        assert!(!rib.is_empty());
        assert_eq!(rib.interner().len(), 2, "10 shared + 1 distinct");
        assert_eq!(rib.get(0), (Prefix::nth_slash24(0), &path(&[2, 5, 6])));
        assert_eq!(rib.iter().count(), 11);
        let (p, a) = rib.iter().last().unwrap();
        assert_eq!(*p, Prefix::nth_slash24(10));
        assert_eq!(a, &path(&[2, 9]));
    }

    #[test]
    fn interned_rib_semantic_equality() {
        let a: InternedRib = (0..5u32)
            .map(|k| (Prefix::nth_slash24(k), path(&[2, 5, k])))
            .collect();
        let b: InternedRib = (0..5u32)
            .map(|k| (Prefix::nth_slash24(k), path(&[2, 5, k])))
            .collect();
        assert_eq!(a, b);
        let c: InternedRib = (0..5u32)
            .map(|k| (Prefix::nth_slash24(k), path(&[2, 6, k])))
            .collect();
        assert_ne!(a, c);
        assert_ne!(a, InternedRib::new());
    }
}
