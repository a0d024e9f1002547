//! An insertion-ordered, deduplicated set of dense ids: an id list plus a
//! seen-bitmap, so marking is an array write and draining costs the ids
//! marked, not the id space.
//!
//! Three users share it: the [`crate::pipeline::Applier`]'s dirty prefixes
//! (by the routing table's `PrefixId`), the inference counters' dirty-link
//! feed and the [`crate::inference::LinkRanker`]'s candidates (both by
//! `LinkId`).

/// An id that indexes a dense array.
pub(crate) trait DenseId: Copy {
    fn index(self) -> usize;
}

impl DenseId for swift_bgp::PrefixId {
    fn index(self) -> usize {
        swift_bgp::PrefixId::index(self)
    }
}

/// Invariant: bit `i` of `seen` is set exactly when an id with index `i` is
/// in `ids`; both are written only by the methods below.
#[derive(Debug, Clone)]
pub(crate) struct DirtySet<I> {
    ids: Vec<I>,
    seen: Vec<u64>,
}

impl<I> Default for DirtySet<I> {
    fn default() -> Self {
        DirtySet {
            ids: Vec::new(),
            seen: Vec::new(),
        }
    }
}

impl<I: DenseId> DirtySet<I> {
    /// Adds `id` unless it is already in the set.
    #[inline]
    pub(crate) fn mark(&mut self, id: I) {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if self.seen.len() <= word {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.ids.push(id);
        }
    }

    /// The marked ids, in marking order.
    pub(crate) fn ids(&self) -> &[I] {
        &self.ids
    }

    /// Empties the set, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.clear_bitmap();
        self.ids.clear();
    }

    /// Empties the set, yielding the marked ids in ascending order. The list
    /// is sorted and drained in place, so it keeps its capacity.
    pub(crate) fn drain_sorted(&mut self) -> std::vec::Drain<'_, I>
    where
        I: Ord,
    {
        self.ids.sort_unstable();
        self.drain()
    }

    /// Empties the set, yielding the marked ids in marking order. Drained in
    /// place like [`DirtySet::drain_sorted`]: the next marks do not regrow
    /// the list.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, I> {
        self.clear_bitmap();
        self.ids.drain(..)
    }

    fn clear_bitmap(&mut self) {
        for id in &self.ids {
            self.seen[id.index() / 64] = 0;
        }
    }

    /// Whether no bit of the bitmap is set (the invariant, for tests).
    #[cfg(test)]
    pub(crate) fn bitmap_is_clear(&self) -> bool {
        self.seen.iter().all(|w| *w == 0)
    }
}
