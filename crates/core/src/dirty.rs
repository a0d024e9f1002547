//! An insertion-ordered, deduplicated set of dense ids: an id list plus a
//! seen-bitmap, so marking is an array write and draining costs the ids
//! marked, not the id space. The ascending drain sorts nothing: it walks the
//! bitmap from the lowest to the highest word marked, so it costs those
//! words plus the ids, not k log k.
//!
//! Three users share it: the [`crate::pipeline::Applier`]'s dirty prefixes
//! (by the routing table's `PrefixId`), the inference counters' dirty-link
//! feed and the [`crate::inference::LinkRanker`]'s candidates (both by
//! `LinkId`).

use std::ops::Range;
use swift_bgp::PrefixId;

/// An id that indexes a dense array.
pub(crate) trait DenseId: Copy {
    fn index(self) -> usize;
}

impl DenseId for PrefixId {
    fn index(self) -> usize {
        PrefixId::index(self)
    }
}

/// Invariant: bit `i` of `seen` is set exactly when an id with index `i` is
/// in `ids`, and only in the words `words` spans; only the methods below write them.
#[derive(Debug, Clone)]
pub(crate) struct DirtySet<I> {
    ids: Vec<I>,
    seen: Vec<u64>,
    words: Option<Range<usize>>,
}

impl<I> Default for DirtySet<I> {
    fn default() -> Self {
        DirtySet {
            ids: Vec::new(),
            seen: Vec::new(),
            words: None,
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
            let words = self.words.get_or_insert(word..word + 1);
            *words = words.start.min(word)..words.end.max(word + 1);
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

    /// Empties the set, yielding the marked ids in marking order. Drained in
    /// place: the next marks do not regrow the list.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, I> {
        self.clear_bitmap();
        self.ids.drain(..)
    }

    fn clear_bitmap(&mut self) {
        for id in &self.ids {
            self.seen[id.index() / 64] = 0;
        }
        self.words = None;
    }

    /// Whether no bit of the bitmap is set (the invariant, for tests).
    #[cfg(test)]
    pub(crate) fn bitmap_is_clear(&self) -> bool {
        self.seen.iter().all(|w| *w == 0)
    }
}

impl DirtySet<PrefixId> {
    /// Empties the set, yielding the marked ids in ascending order. The list
    /// is refilled from the bitmap, clearing each marked word as it is read,
    /// and drained in place, so it keeps its capacity.
    pub(crate) fn drain_sorted(&mut self) -> std::vec::Drain<'_, PrefixId> {
        let words = self.words.take().unwrap_or_default();
        self.ids.clear();
        let marked = self.seen.get_mut(words.clone()).unwrap_or_default();
        for (word, first) in marked.iter_mut().zip(words.map(|w| w * 64)) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.ids
                    .push(PrefixId::from_index(first + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
        self.ids.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(index: u32) -> PrefixId {
        PrefixId::from_index(index as usize)
    }

    /// The id space of the tests: ids `0..LAST + 1`.
    const LAST: u32 = 4_999;

    /// Ids 0, 63, 64 and `LAST`, plus 300 scattered ones, each marked twice,
    /// in an order a multiplicative walk scrambles.
    fn marks() -> Vec<PrefixId> {
        let mut ids: Vec<PrefixId> = [0, 63, 64, LAST]
            .into_iter()
            .chain((0..300).map(|k| k * 2_357 % LAST))
            .map(id)
            .collect();
        ids.extend(ids.clone());
        let n = ids.len();
        assert_ne!(n % 211, 0, "211 is prime: the walk visits every mark");
        (0..n).map(|k| ids[k * 211 % n]).collect()
    }

    fn expected(marks: &[PrefixId]) -> Vec<PrefixId> {
        let mut ids = marks.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn the_ordered_drain_yields_each_id_once_ascending() {
        let mut set = DirtySet::default();
        let marks = marks();
        for id in &marks {
            set.mark(*id);
        }
        assert_eq!(set.ids().len(), expected(&marks).len(), "deduplicated");
        let capacity = set.ids.capacity();
        let drained: Vec<PrefixId> = set.drain_sorted().collect();
        assert_eq!(drained, expected(&marks));
        assert_eq!(drained[..3], [id(0), id(15), id(23)]);
        assert!(drained.contains(&id(63)) && drained.contains(&id(64)));
        assert_eq!(drained.last(), Some(&id(LAST)));
        assert!(set.ids().is_empty() && set.bitmap_is_clear());
        assert_eq!(set.ids.capacity(), capacity, "the list keeps its capacity");
        assert_eq!(set.drain_sorted().count(), 0, "drained exactly once");
    }

    #[test]
    fn the_ordered_drain_starts_from_the_next_marks() {
        let mut set = DirtySet::default();
        assert_eq!(set.drain_sorted().count(), 0, "empty");
        // A high word, drained; then only low words: the walk is theirs.
        set.mark(id(LAST));
        assert_eq!(set.drain_sorted().collect::<Vec<_>>(), [id(LAST)]);
        for index in [65, 3, 64, 3] {
            set.mark(id(index));
        }
        assert_eq!(set.words, Some(0..2));
        assert_eq!(
            set.drain_sorted().collect::<Vec<_>>(),
            [id(3), id(64), id(65)]
        );
        // The other two ways to empty the set reset the walk as well.
        set.mark(id(LAST));
        set.clear();
        set.mark(id(7));
        assert_eq!(set.drain().collect::<Vec<_>>(), [id(7)]);
        set.mark(id(130));
        assert_eq!(set.drain_sorted().collect::<Vec<_>>(), [id(130)]);
        assert!(set.bitmap_is_clear());
    }

    #[test]
    fn an_ordered_drain_dropped_early_still_empties_the_set() {
        let mut set = DirtySet::default();
        for marked in marks() {
            set.mark(marked);
        }
        let first: Vec<PrefixId> = set.drain_sorted().take(2).collect();
        assert_eq!(first, [id(0), id(15)]);
        assert!(set.ids().is_empty() && set.bitmap_is_clear());
        set.mark(id(64));
        assert_eq!(set.drain_sorted().collect::<Vec<_>>(), [id(64)]);
    }
}
