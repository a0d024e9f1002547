//! A growable hybrid bitset over dense prefix ids.
//!
//! The inverted index in [`super::counters`] keys every AS link to the set of
//! prefixes whose path crosses it. With prefixes mapped to dense `u32` ids,
//! those sets support set-union and intersection-cardinality — the whole of
//! the `W(S)`/`P(S)` computation — in `O(ids / 64)` word operations instead of
//! a scan over the entire session RIB.
//!
//! # Hybrid representation
//!
//! A word-packed bitset costs `max_id / 8` bytes regardless of how many bits
//! are set. At Internet scale that is ruinous for the *per-link* sets: a
//! 1M-prefix RIB spreads its prefixes over tens of thousands of links, most of
//! which carry a few hundred prefixes — a dense bitset per link would cost
//! `125 KB × links` (gigabytes) to store kilobytes of information. [`IdBitSet`]
//! therefore stores small-relative-to-the-id-space sets as a sorted posting
//! list (`Vec<u32>`) and promotes to the word-packed form exactly when the
//! dense form becomes the smaller of the two (`32 × len > max_id + 1`, i.e.
//! 4 bytes per entry vs 1 bit per id). Promotion is one-way: sets that shrink
//! again (withdrawal purges) stay dense — re-demotion would thrash on
//! burst-boundary churn.
//!
//! # Chunk summary
//!
//! Dense sets additionally carry a two-level *chunk summary*: one summary bit
//! per [`BLOCK_WORDS`]-word (512-bit) block, set exactly when the block holds
//! at least one set bit. The fused scoring kernels in [`super::kernels`] test
//! the summary before touching a block, so a link whose prefixes cluster in a
//! corner of a 1M-wide id space skips the empty regions at 512 ids per summary
//! bit instead of streaming zero words. The invariant (`summary bit b set ⟺
//! block b non-zero`) is maintained by every mutation and checkable with
//! [`IdBitSet::check_summary_invariant`].
//!
//! All operations are representation-agnostic: unions, intersection counts and
//! id iteration accept any sparse/dense operand mix, and equality compares
//! *contents*, never representations.

/// Words per summary block: 8 × 64 = 512 bits per summary bit.
pub const BLOCK_WORDS: usize = 8;

/// Ids covered by one summary block.
pub const BLOCK_BITS: usize = BLOCK_WORDS * 64;

/// The word-packed form plus its chunk-summary bitmap.
///
/// `summary` holds one bit per `BLOCK_WORDS`-word block of `words`
/// (`summary[b / 64] >> (b % 64) & 1`), set exactly when the block contains a
/// non-zero word.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseBits {
    pub(crate) words: Vec<u64>,
    pub(crate) summary: Vec<u64>,
}

/// Summary words needed to cover `words` data words.
fn summary_len(words: usize) -> usize {
    words.div_ceil(BLOCK_WORDS).div_ceil(64)
}

impl DenseBits {
    /// An all-zero set pre-sized for ids `< capacity`.
    fn with_bit_capacity(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        DenseBits {
            words: vec![0; words],
            summary: vec![0; summary_len(words)],
        }
    }

    /// Builds from a sorted posting list.
    fn from_ids(ids: &[u32]) -> Self {
        let cap = ids.last().map_or(0, |&m| m as usize + 1);
        let mut dense = DenseBits::with_bit_capacity(cap);
        for &id in ids {
            dense.words[(id / 64) as usize] |= 1u64 << (id % 64);
        }
        dense.rebuild_summary();
        dense
    }

    /// `a ∧ b` word by word (`a` and `b` of one length), allocated at that
    /// length, with its summary.
    fn and(a: &[u64], b: &[u64]) -> Self {
        let words: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & y).collect();
        let summary = vec![0; summary_len(words.len())];
        let mut dense = DenseBits { words, summary };
        dense.rebuild_summary();
        dense
    }

    /// Recomputes the whole summary from the data words.
    fn rebuild_summary(&mut self) {
        self.summary.clear();
        self.summary.resize(summary_len(self.words.len()), 0);
        for (b, chunk) in self.words.chunks(BLOCK_WORDS).enumerate() {
            if chunk.iter().any(|w| *w != 0) {
                self.summary[b / 64] |= 1u64 << (b % 64);
            }
        }
    }

    /// Grows the word array (and the summary with it) to hold `words` words.
    fn grow(&mut self, words: usize) {
        if words > self.words.len() {
            self.words.resize(words, 0);
            self.summary.resize(summary_len(words), 0);
        }
    }

    fn set(&mut self, id: u32) {
        let word = (id / 64) as usize;
        self.grow(word + 1);
        self.words[word] |= 1u64 << (id % 64);
        let block = word / BLOCK_WORDS;
        self.summary[block / 64] |= 1u64 << (block % 64);
    }

    fn clear(&mut self, id: u32) {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            return;
        }
        self.words[word] &= !(1u64 << (id % 64));
        if self.words[word] == 0 {
            // The word went empty: the summary bit survives only if a sibling
            // word of the block still holds data.
            let block = word / BLOCK_WORDS;
            let start = block * BLOCK_WORDS;
            let end = (start + BLOCK_WORDS).min(self.words.len());
            if self.words[start..end].iter().all(|w| *w == 0) {
                self.summary[block / 64] &= !(1u64 << (block % 64));
            }
        }
    }

    /// Whether summary block `b` is marked non-empty.
    #[inline]
    pub(crate) fn block_marked(&self, b: usize) -> bool {
        self.summary
            .get(b / 64)
            .is_some_and(|s| s >> (b % 64) & 1 == 1)
    }
}

/// Sparse form: sorted, deduplicated posting list. Dense form: word-packed
/// bits plus chunk summary, low id first. Unset ids beyond the allocation are
/// absent in both forms; every operation treats a set as conceptually
/// infinite, zero-padded.
#[derive(Debug, Clone)]
enum Repr {
    /// Sorted posting list of set ids.
    Sparse(Vec<u32>),
    /// Word-packed bits (`id / 64` indexes the word, `id % 64` the bit) with
    /// the per-512-bit-block summary.
    Dense(DenseBits),
}

/// Borrowed view of either representation, for the fused kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Parts<'a> {
    Sparse(&'a [u32]),
    Dense(&'a DenseBits),
}

/// A hybrid sparse/dense bitset over dense ids, growing on demand.
///
/// Starts as a posting list and promotes itself to the word-packed form when
/// that becomes the more compact representation (see the module docs).
#[derive(Debug, Clone)]
pub struct IdBitSet {
    repr: Repr,
}

impl Default for IdBitSet {
    fn default() -> Self {
        IdBitSet {
            repr: Repr::Sparse(Vec::new()),
        }
    }
}

/// A posting list of `len` ids costs `32 × len` bits; the dense form costs
/// `max_id + 1` bits rounded up to a whole 64-bit word. Promote at the
/// crossover.
fn dense_is_smaller(len: usize, max_id: u32) -> bool {
    (len as u64) * 32 > (u64::from(max_id) / 64 + 1) * 64
}

/// Candidate ids the posting-list passes stage before copying them out:
/// room for a flush threshold of half of it plus one word's 64 ids.
const STAGE: usize = 512;

/// The ids of `a ∧ b` (word slices of one length), ascending, in a list
/// allocated for `members` of them (a wrong count costs a regrowth).
///
/// Each word writes its first two candidate ids unconditionally and keeps
/// as many as it has bits; only a word of three or more finishes in a loop.
/// The ids are staged in a stack buffer and copied out in runs, so no write
/// is bounds-checked against the output. A set sparse enough for this form
/// averages under two bits per word, so the pass mispredicts few branches;
/// a plain bit loop's per-member branch made it 3–4 times as slow at 1 M
/// ids (2-vCPU x86-64).
fn flatten_and(a: &[u64], b: &[u64], members: usize) -> Vec<u32> {
    let mut ids = Vec::with_capacity(members);
    let mut stage = [0u32; STAGE];
    let mut k = 0;
    for (index, (x, y)) in a.iter().zip(b).enumerate() {
        let mut bits = x & y;
        let base = index as u32 * 64;
        for _ in 0..2 {
            stage[k % STAGE] = base + bits.trailing_zeros();
            k += usize::from(bits != 0);
            bits &= bits.wrapping_sub(1);
        }
        while bits != 0 {
            stage[k % STAGE] = base + bits.trailing_zeros();
            k += 1;
            bits &= bits - 1;
        }
        if k >= STAGE / 2 {
            ids.extend_from_slice(&stage[..k]);
            k = 0;
        }
    }
    ids.extend_from_slice(&stage[..k]);
    ids
}

/// The ids of the posting list `ids` that the words `words` hold, in a list
/// allocated for `members` of them (a wrong count costs a regrowth). Every
/// id is staged and kept only if its bit is set: no branch on the bit.
fn filter_members(ids: &[u32], words: &[u64], members: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(members);
    let mut stage = [0u32; STAGE];
    let mut k = 0;
    for &id in ids {
        let word = words.get((id / 64) as usize).copied().unwrap_or(0);
        stage[k % STAGE] = id;
        k += (word >> (id % 64) & 1) as usize;
        if k == STAGE {
            out.extend_from_slice(&stage);
            k = 0;
        }
    }
    out.extend_from_slice(&stage[..k]);
    out
}

impl IdBitSet {
    /// Creates an empty set (sparse until promotion pays off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty *dense* set pre-sized for ids `< capacity`.
    ///
    /// Use when the set is known to become dense (e.g. the global
    /// routed/withdrawn id sets): it skips the sparse phase entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        IdBitSet {
            repr: Repr::Dense(DenseBits::with_bit_capacity(capacity)),
        }
    }

    /// Returns `true` if the set currently uses the word-packed form.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// Borrowed view of the underlying representation for the kernels.
    #[inline]
    pub(crate) fn parts(&self) -> Parts<'_> {
        match &self.repr {
            Repr::Sparse(v) => Parts::Sparse(v),
            Repr::Dense(d) => Parts::Dense(d),
        }
    }

    /// Bytes of heap memory behind the set (the quantity the hybrid
    /// representation exists to bound).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.capacity() * std::mem::size_of::<u32>(),
            Repr::Dense(d) => {
                (d.words.capacity() + d.summary.capacity()) * std::mem::size_of::<u64>()
            }
        }
    }

    fn promote(&mut self) {
        if let Repr::Sparse(v) = &self.repr {
            self.repr = Repr::Dense(DenseBits::from_ids(v));
        }
    }

    /// Sets bit `id`.
    pub fn set(&mut self, id: u32) {
        match &mut self.repr {
            Repr::Sparse(v) => {
                match v.last() {
                    // Ascending insertion (the common case: prefix ids are
                    // handed out in seeding order) is a plain push.
                    Some(&last) if id > last => v.push(id),
                    None => v.push(id),
                    Some(&last) if id == last => return,
                    _ => match v.binary_search(&id) {
                        Ok(_) => return,
                        Err(pos) => v.insert(pos, id),
                    },
                }
                let max = *v.last().expect("just pushed");
                if dense_is_smaller(v.len(), max) {
                    self.promote();
                }
            }
            Repr::Dense(d) => d.set(id),
        }
    }

    /// Clears bit `id`.
    pub fn clear(&mut self, id: u32) {
        match &mut self.repr {
            Repr::Sparse(v) => {
                if let Ok(pos) = v.binary_search(&id) {
                    v.remove(pos);
                }
            }
            Repr::Dense(d) => d.clear(id),
        }
    }

    /// Returns `true` if bit `id` is set.
    pub fn test(&self, id: u32) -> bool {
        match &self.repr {
            Repr::Sparse(v) => v.binary_search(&id).is_ok(),
            Repr::Dense(d) => {
                let word = (id / 64) as usize;
                word < d.words.len() && d.words[word] & (1u64 << (id % 64)) != 0
            }
        }
    }

    /// Clears every bit (keeps the allocation and the representation).
    pub fn clear_all(&mut self) {
        match &mut self.repr {
            Repr::Sparse(v) => v.clear(),
            Repr::Dense(d) => {
                d.words.fill(0);
                d.summary.fill(0);
            }
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.len(),
            Repr::Dense(d) => d.words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Sparse(v) => v.is_empty(),
            Repr::Dense(d) => d.summary.iter().all(|s| *s == 0),
        }
    }

    /// ORs `other` into `self`.
    pub fn union_with(&mut self, other: &IdBitSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Dense(dst), Repr::Dense(src)) => {
                dst.grow(src.words.len());
                for (d, s) in dst.words.iter_mut().zip(src.words.iter()) {
                    *d |= *s;
                }
                // OR only adds bits: every block non-empty in `src` is now
                // non-empty in `dst`, and no `dst` block went empty.
                for (d, s) in dst.summary.iter_mut().zip(src.summary.iter()) {
                    *d |= *s;
                }
            }
            (Repr::Dense(dst), Repr::Sparse(src)) => {
                if let Some(&max) = src.last() {
                    dst.grow((max / 64) as usize + 1);
                    for &id in src {
                        let word = (id / 64) as usize;
                        dst.words[word] |= 1u64 << (id % 64);
                        let block = word / BLOCK_WORDS;
                        dst.summary[block / 64] |= 1u64 << (block % 64);
                    }
                }
            }
            (Repr::Sparse(_), Repr::Dense(_)) => {
                // The union is at least as populated as the dense operand:
                // go dense first, then OR word-wise.
                self.promote();
                self.union_with(other);
            }
            (Repr::Sparse(dst), Repr::Sparse(src)) => {
                if src.is_empty() {
                    return;
                }
                let mut merged = Vec::with_capacity(dst.len() + src.len());
                let (mut i, mut j) = (0, 0);
                while i < dst.len() && j < src.len() {
                    match dst[i].cmp(&src[j]) {
                        std::cmp::Ordering::Less => {
                            merged.push(dst[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(src[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(dst[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&dst[i..]);
                merged.extend_from_slice(&src[j..]);
                let max = *merged.last().expect("src non-empty");
                let promote = dense_is_smaller(merged.len(), max);
                *dst = merged;
                if promote {
                    self.promote();
                }
            }
        }
    }

    /// Clears every bit of `self` that is set in `other`, in one pass over
    /// `self` (a posting list is compacted once, not shifted per cleared id).
    pub fn subtract(&mut self, other: &IdBitSet) {
        match (&mut self.repr, &other.repr) {
            (Repr::Sparse(v), _) => v.retain(|id| !other.test(*id)),
            (Repr::Dense(d), Repr::Sparse(ids)) => {
                for &id in ids {
                    d.clear(id);
                }
            }
            (Repr::Dense(d), Repr::Dense(o)) => {
                for (word, mask) in d.words.iter_mut().zip(o.words.iter()) {
                    *word &= !mask;
                }
                d.rebuild_summary();
            }
        }
    }

    /// `|self ∧ other|` without materialising the intersection.
    pub fn intersection_count(&self, other: &IdBitSet) -> usize {
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a
                .words
                .iter()
                .zip(b.words.iter())
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum(),
            (Repr::Sparse(ids), Repr::Dense(_)) => ids.iter().filter(|&&id| other.test(id)).count(),
            (Repr::Dense(_), Repr::Sparse(ids)) => ids.iter().filter(|&&id| self.test(id)).count(),
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                let (mut i, mut j, mut n) = (0, 0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            n += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                n
            }
        }
    }

    /// `self ∧ other` as a new set, in whichever form is smaller for it and
    /// allocated at its exact size: the word-packed form ends at its last
    /// non-zero word, the posting list holds its members.
    ///
    /// `members` is the intersection's size, which the caller knows: it
    /// picks the form and sizes the list before the one pass over the words.
    /// A wrong one costs a regrowth or the larger form, never a wrong set.
    pub fn intersection(&self, other: &IdBitSet, members: usize) -> IdBitSet {
        let ids = match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => {
                let shared = a.words.len().min(b.words.len());
                let Some(last) = (0..shared).rev().find(|&i| a.words[i] & b.words[i] != 0) else {
                    return IdBitSet::new();
                };
                let top = a.words[last] & b.words[last];
                let max_id = last as u32 * 64 + 63 - top.leading_zeros();
                let (a, b) = (&a.words[..=last], &b.words[..=last]);
                if dense_is_smaller(members, max_id) {
                    return IdBitSet {
                        repr: Repr::Dense(DenseBits::and(a, b)),
                    };
                }
                flatten_and(a, b, members)
            }
            (Repr::Sparse(ids), Repr::Dense(d)) | (Repr::Dense(d), Repr::Sparse(ids)) => {
                filter_members(ids, &d.words, members)
            }
            (Repr::Sparse(ids), Repr::Sparse(_)) => {
                let mut kept = Vec::with_capacity(members);
                kept.extend(ids.iter().copied().filter(|id| other.test(*id)));
                kept
            }
        };
        let promote = ids
            .last()
            .is_some_and(|&max| dense_is_smaller(ids.len(), max));
        let mut set = IdBitSet {
            repr: Repr::Sparse(ids),
        };
        if promote {
            set.promote();
        }
        set
    }

    /// Iterates over all set ids, ascending.
    pub fn ids(&self) -> IdIter<'_> {
        IdIter {
            inner: match &self.repr {
                Repr::Sparse(v) => IdIterInner::Sparse(v.iter()),
                Repr::Dense(d) => IdIterInner::Dense {
                    words: &d.words,
                    word_index: 0,
                    bits: d.words.first().copied().unwrap_or(0),
                },
            },
        }
    }

    /// Validates the internal invariants: sorted/deduplicated posting list for
    /// the sparse form, `summary bit b set ⟺ block b non-zero` (at the right
    /// summary length) for the dense form. A testing hook for the kernel
    /// property tests; release code never needs it.
    pub fn check_summary_invariant(&self) -> Result<(), String> {
        match &self.repr {
            Repr::Sparse(v) => {
                if v.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("sparse posting list not strictly ascending".into());
                }
                Ok(())
            }
            Repr::Dense(d) => {
                if d.summary.len() != summary_len(d.words.len()) {
                    return Err(format!(
                        "summary length {} != expected {} for {} words",
                        d.summary.len(),
                        summary_len(d.words.len()),
                        d.words.len()
                    ));
                }
                for (b, chunk) in d.words.chunks(BLOCK_WORDS).enumerate() {
                    let nonzero = chunk.iter().any(|w| *w != 0);
                    if d.block_marked(b) != nonzero {
                        return Err(format!(
                            "summary bit {b} is {} but block is {}",
                            d.block_marked(b),
                            if nonzero { "non-zero" } else { "zero" }
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Content equality, independent of representation.
impl PartialEq for IdBitSet {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => a == b,
            _ => self.count() == other.count() && self.ids().zip(other.ids()).all(|(a, b)| a == b),
        }
    }
}

impl Eq for IdBitSet {}

/// Iterator over the set ids of an [`IdBitSet`], ascending.
#[derive(Debug, Clone)]
pub struct IdIter<'a> {
    inner: IdIterInner<'a>,
}

#[derive(Debug, Clone)]
enum IdIterInner<'a> {
    Sparse(std::slice::Iter<'a, u32>),
    Dense {
        words: &'a [u64],
        word_index: usize,
        bits: u64,
    },
}

impl Iterator for IdIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.inner {
            IdIterInner::Sparse(it) => it.next().copied(),
            IdIterInner::Dense {
                words,
                word_index,
                bits,
            } => loop {
                if *bits != 0 {
                    let tz = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some(*word_index as u32 * 64 + tz);
                }
                *word_index += 1;
                if *word_index >= words.len() {
                    return None;
                }
                *bits = words[*word_index];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test_roundtrip() {
        let mut s = IdBitSet::new();
        assert!(s.is_empty());
        assert!(!s.test(5));
        s.set(5);
        s.set(64);
        s.set(1_000);
        assert!(s.test(5) && s.test(64) && s.test(1_000));
        assert!(!s.test(6) && !s.test(65) && !s.test(999));
        assert_eq!(s.count(), 3);
        s.clear(64);
        assert!(!s.test(64));
        assert_eq!(s.count(), 2);
        // Clearing an id beyond the allocation is a no-op.
        s.clear(1_000_000);
        assert_eq!(s.count(), 2);
        s.clear_all();
        assert!(s.is_empty());
    }

    #[test]
    fn union_and_intersection() {
        let mut a = IdBitSet::with_capacity(200);
        let mut b = IdBitSet::new();
        for id in [1u32, 63, 64, 128] {
            a.set(id);
        }
        for id in [63u32, 64, 300] {
            b.set(id);
        }
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(b.intersection_count(&a), 2);
        let common = a.intersection(&b, 2);
        assert_eq!(common.ids().collect::<Vec<_>>(), vec![63, 64]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 5);
        assert_eq!(u.ids().collect::<Vec<_>>(), vec![1, 63, 64, 128, 300]);
    }

    #[test]
    fn differently_sized_sets_are_zero_padded() {
        let mut small = IdBitSet::new();
        small.set(3);
        let mut big = IdBitSet::new();
        big.set(3);
        big.set(10_000);
        assert_eq!(small.intersection_count(&big), 1);
        assert_eq!(big.intersection_count(&small), 1);
        let mut u = small.clone();
        u.union_with(&big);
        assert_eq!(u.count(), 2);
        assert!(u.test(10_000));
    }

    #[test]
    fn promotion_happens_at_the_memory_crossover() {
        // Widely spread ids: the posting list stays smaller than the dense
        // form and the set must remain sparse.
        let mut spread = IdBitSet::new();
        for i in 0..100u32 {
            spread.set(i * 10_000);
        }
        assert!(!spread.is_dense());
        assert_eq!(spread.count(), 100);

        // Tightly packed ids: once 32 × len exceeds max_id + 1 the dense form
        // is smaller, so the set promotes itself.
        let mut packed = IdBitSet::new();
        for i in 0..100u32 {
            packed.set(i);
        }
        assert!(packed.is_dense());
        assert_eq!(packed.count(), 100);
        assert_eq!(
            packed.ids().collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn equality_is_representation_independent() {
        let mut sparse = IdBitSet::new();
        let mut dense = IdBitSet::with_capacity(100_000);
        for id in [7u32, 80_000, 99_999] {
            sparse.set(id);
            dense.set(id);
        }
        assert!(!sparse.is_dense());
        assert!(dense.is_dense());
        assert_eq!(sparse, dense);
        assert_eq!(dense, sparse);
        dense.clear(7);
        assert_ne!(sparse, dense);
        // Empty sets are equal regardless of representation.
        assert_eq!(IdBitSet::new(), IdBitSet::with_capacity(1_000));
    }

    #[test]
    fn mixed_representation_unions_and_intersections() {
        let mut sparse = IdBitSet::new();
        for id in [5u32, 70, 100_000] {
            sparse.set(id);
        }
        let mut dense = IdBitSet::with_capacity(128);
        for id in [5u32, 64, 70] {
            dense.set(id);
        }
        assert_eq!(sparse.intersection_count(&dense), 2);
        assert_eq!(dense.intersection_count(&sparse), 2);
        for (a, b) in [(&sparse, &dense), (&dense, &sparse)] {
            let common = a.intersection(b, 2);
            assert_eq!(common.ids().collect::<Vec<_>>(), vec![5, 70]);
        }

        // Sparse ∪ dense promotes, dense ∪ sparse stays dense.
        let mut u1 = sparse.clone();
        u1.union_with(&dense);
        assert!(u1.is_dense());
        assert_eq!(u1.ids().collect::<Vec<_>>(), vec![5, 64, 70, 100_000]);
        let mut u2 = dense.clone();
        u2.union_with(&sparse);
        assert_eq!(u1, u2);
    }

    #[test]
    fn sparse_sets_use_less_memory_than_dense_at_low_density() {
        // One prefix-per-link posting at 1M-id scale: a dense bitset would
        // burn 125 KB; the posting list stays at a few hundred bytes.
        let mut s = IdBitSet::new();
        for i in 0..50u32 {
            s.set(900_000 + i * 100);
        }
        assert!(!s.is_dense());
        assert!(s.heap_bytes() < 1_024, "got {} bytes", s.heap_bytes());
        let dense_cost = (950_000usize).div_ceil(64) * 8;
        assert!(s.heap_bytes() * 100 < dense_cost);
    }

    #[test]
    fn summary_tracks_every_mutation() {
        let mut s = IdBitSet::with_capacity(10 * BLOCK_BITS);
        s.check_summary_invariant().expect("fresh dense set");
        // One bit in block 0, one in block 3.
        s.set(7);
        s.set(3 * BLOCK_BITS as u32 + 100);
        s.check_summary_invariant().expect("after sets");
        let Parts::Dense(d) = s.parts() else {
            panic!("with_capacity must be dense")
        };
        assert!(d.block_marked(0));
        assert!(!d.block_marked(1));
        assert!(!d.block_marked(2));
        assert!(d.block_marked(3));
        // Clearing the only bit of a block clears its summary bit; clearing
        // one of two bits in the same block does not.
        s.set(8);
        s.clear(7);
        s.check_summary_invariant().expect("after partial clear");
        let Parts::Dense(d) = s.parts() else {
            unreachable!()
        };
        assert!(d.block_marked(0), "id 8 still holds block 0");
        s.clear(8);
        s.check_summary_invariant().expect("after full clear");
        let Parts::Dense(d) = s.parts() else {
            unreachable!()
        };
        assert!(!d.block_marked(0));
        assert!(d.block_marked(3));
        s.clear_all();
        s.check_summary_invariant().expect("after clear_all");
        assert!(s.is_empty());
    }

    #[test]
    fn summary_survives_promotion_and_unions() {
        // Promotion builds a correct summary from the posting list.
        let mut s = IdBitSet::new();
        for i in 0..200u32 {
            s.set(i * 3);
        }
        assert!(s.is_dense());
        s.check_summary_invariant().expect("after promotion");

        // Dense ∪ dense merges summaries; dense ∪ sparse marks new blocks.
        let mut far = IdBitSet::with_capacity(64 * BLOCK_BITS);
        far.set(50 * BLOCK_BITS as u32);
        s.union_with(&far);
        s.check_summary_invariant().expect("after dense union");
        let mut sparse = IdBitSet::new();
        sparse.set(70 * BLOCK_BITS as u32 + 1);
        s.union_with(&sparse);
        s.check_summary_invariant().expect("after sparse union");
        let Parts::Dense(d) = s.parts() else {
            unreachable!()
        };
        assert!(d.block_marked(50));
        assert!(d.block_marked(70));
        assert!(!d.block_marked(40));
    }

    #[test]
    fn is_empty_reads_the_summary() {
        let mut s = IdBitSet::with_capacity(100_000);
        assert!(s.is_empty());
        s.set(99_999);
        assert!(!s.is_empty());
        s.clear(99_999);
        assert!(s.is_empty(), "clear must unmark the summary block");
    }

    /// An intersection takes the smaller form for its contents, at its exact
    /// size, whatever its operands' forms; a wrong size hint changes no id.
    #[test]
    fn intersection_is_the_smaller_form_at_its_exact_size() {
        let dense = |ids: &[u32], cap: usize| {
            let mut s = IdBitSet::with_capacity(cap);
            ids.iter().for_each(|id| s.set(*id));
            s
        };
        let every_other: Vec<u32> = (0..4_000).step_by(2).collect();
        let a = dense(&every_other, 100_000);
        let b = dense(&(0..3_000).collect::<Vec<_>>(), 100_000);
        // 1 500 members below id 3 000: 47 words beat 6 000 bytes.
        let both = a.intersection(&b, 1_500);
        assert!(both.is_dense());
        assert_eq!(
            both.heap_bytes(),
            (47 + 1) * 8,
            "47 words and one summary word"
        );
        both.check_summary_invariant()
            .expect("summary built with the words");
        assert_eq!(both.ids().collect::<Vec<_>>(), every_other[..1_500]);
        // Four members spread over 100 000 ids: a 16-byte posting list.
        let far = dense(&[11, 40_000, 70_000, 99_999], 100_000);
        let few = far.intersection(&dense(&(0..100_000).collect::<Vec<_>>(), 0), 4);
        assert!(!few.is_dense());
        assert_eq!((few.heap_bytes(), few.count()), (16, 4));
        assert!(a.intersection(&far, 0).is_empty());
        // Five full words far apart: a posting list whose words carry 64
        // members each, past the staging buffer's flush point.
        let clusters: Vec<u32> = (0..5).flat_map(|c| c * 20_000..c * 20_000 + 64).collect();
        let full = dense(&(0..100_000).collect::<Vec<_>>(), 0);
        let packed = dense(&clusters, 100_000).intersection(&full, clusters.len());
        assert!(!packed.is_dense());
        assert_eq!(packed.ids().collect::<Vec<_>>(), clusters);
        for hint in [0, 1, 10_000] {
            let mut sparse = IdBitSet::new();
            every_other[..600].iter().for_each(|id| sparse.set(*id));
            for (x, y) in [(&a, &sparse), (&sparse, &b), (&a, &b)] {
                let got = x.intersection(y, hint);
                let want: Vec<u32> = x.ids().filter(|id| y.test(*id)).collect();
                assert_eq!(got.ids().collect::<Vec<_>>(), want, "hint {hint}");
                got.check_summary_invariant().expect("valid form");
            }
        }
    }
}
