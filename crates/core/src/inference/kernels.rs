//! Allocation-free fused bitset kernels for the inference scorer.
//!
//! Scoring a candidate link set (§4.2) needs exactly two numbers: `W(S)` and
//! `P(S)` — the cardinalities of `(∪ crosses(l)) ∩ withdrawn` and
//! `(∪ crosses(l)) ∩ routed`. The pre-kernel implementation materialised the
//! union into a fresh [`IdBitSet`] per call and then ran two intersection
//! passes over it; at 1M-prefix scale that is a 128 KB allocation plus three
//! full sweeps of the id space for every greedy trial.
//!
//! [`fused_union_counts`] computes both counts in a single streaming pass with
//! no materialised union at all:
//!
//! * **dense / mixed dispatch** — the id space is walked in 512-bit blocks
//!   (one `[u64; BLOCK_WORDS]` stack buffer). A block is visited only if some
//!   dense source's chunk-summary bit marks it non-empty or a sparse source's
//!   cursor sits inside it; visited blocks OR the dense words and scatter the
//!   sparse ids into the buffer, then AND-popcount against each mask.
//! * **sparse dispatch** — when every source is a posting list, a k-way
//!   merge walks the sources in id order (deduplicating on the fly) and
//!   membership-tests each id against the masks; no block buffer is touched.
//!
//! The greedy chain's trials do not need a pass over the aggregate at all.
//! [`delta_union_counts`] counts only what one candidate *adds* to a
//! materialised aggregate `A`: `|c ∖ A ∩ withdrawn|` and `|c ∖ A ∩ routed|`,
//! walking `c`'s own ids (a posting list) or its marked words (a dense set)
//! and reading `A` and the masks at those words only. The caller adds the
//! aggregate's carried `(W, P)`.
//!
//! The per-pass state (source partitions and merge cursors) lives in a
//! [`ScoreScratch`] owned by the engine's [`super::counters::LinkCounters`],
//! so steady-state scoring performs **zero heap allocation** —
//! `tests/alloc_free_event_path.rs` runs both kernels on a warm scratch over
//! every representation mix under a counting allocator and fails on any
//! allocation. The scratch also carries the reusable union buffers for the
//! two paths that need a materialised union (the greedy aggregate, and the
//! prediction's `crossing_ids` over more than one link) plus the
//! [`KernelStats`] dispatch counters. A delta trial is not a fused pass and
//! is not counted in them.

use crate::inference::bitset::{IdBitSet, Parts, BLOCK_BITS, BLOCK_WORDS};

/// Which kernel shape a call dispatched to, plus scratch reuse accounting.
///
/// Accumulated per engine and drained via `LinkCounters::take_kernel_stats`;
/// the repo benchmark sums them into its `core.inference.kernel.*` and
/// `core.inference.scratch.growth` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Fused passes where every source was word-packed.
    pub dense: u64,
    /// Fused passes that took the k-way merge path (all sources posting
    /// lists, collectively sparse relative to their extent).
    pub sparse: u64,
    /// Fused passes that took the block path with sparse sources involved:
    /// a sparse/dense mix, or all-sparse sources too dense for the merge.
    pub mixed: u64,
    /// Materialised-union paths that reused scratch capacity.
    pub scratch_reuse: u64,
    /// Materialised-union paths that had to grow the scratch buffer.
    pub scratch_growth: u64,
}

impl KernelStats {
    /// Returns `true` if every counter is zero (nothing to export).
    pub fn is_zero(&self) -> bool {
        *self == KernelStats::default()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &KernelStats) {
        self.dense += other.dense;
        self.sparse += other.sparse;
        self.mixed += other.mixed;
        self.scratch_reuse += other.scratch_reuse;
        self.scratch_growth += other.scratch_growth;
    }
}

/// Per-pass state of the fused kernels (partition index vectors and merge
/// cursors): cleared, never shrunk, so repeated passes allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PassScratch {
    /// Indices (into the caller's source slice) of dense sources.
    dense: Vec<usize>,
    /// Indices of sparse sources.
    sparse: Vec<usize>,
    /// One merge cursor per sparse source.
    cursors: Vec<usize>,
}

/// Engine-owned scratch for the scoring hot path.
///
/// One instance lives inside each `LinkCounters` (one per BGP session engine);
/// it is never shared across threads. All capacity — pass state, the
/// materialised-union buffer and the greedy aggregate — is reused across
/// calls, which is what makes the steady-state scoring path allocation-free:
/// a greedy chain costs one fused pass for its seed and a delta trial per
/// candidate, each proportional to the candidate, not to the aggregate.
#[derive(Debug, Clone)]
pub struct ScoreScratch {
    pub(crate) pass: PassScratch,
    /// Reusable materialised union for a prediction over several links
    /// (`crossing_ids` behind `predict`), which intersects it into its two
    /// id sets. Kept dense so `clear_all` retains capacity.
    pub(crate) union_buf: IdBitSet,
    /// Running union of the greedy aggregation's current link set
    /// (`agg_seed` / `agg_delta` / `agg_accept` on `LinkCounters`).
    pub(crate) agg: IdBitSet,
    /// Dispatch and reuse counters since the last drain.
    pub(crate) stats: KernelStats,
}

impl Default for ScoreScratch {
    fn default() -> Self {
        ScoreScratch {
            pass: PassScratch::default(),
            // `with_capacity(0)` pins the dense representation from the start:
            // the buffers grow once to the session's id-space size and then
            // every later burst reuses the words in place.
            union_buf: IdBitSet::with_capacity(0),
            agg: IdBitSet::with_capacity(0),
            stats: KernelStats::default(),
        }
    }
}

impl ScoreScratch {
    /// A fresh scratch with empty (but dense-pinned) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the dispatch/reuse counters accumulated since the last call.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }
}

/// Highest summary block any part of `set` could populate, capped at the id
/// space the masks can ever match.
fn extent_blocks(set: &IdBitSet) -> usize {
    match set.parts() {
        Parts::Sparse(ids) => ids.last().map_or(0, |&m| m as usize / BLOCK_BITS + 1),
        Parts::Dense(d) => d.words.len().div_ceil(BLOCK_WORDS),
    }
}

/// Counts the bits of `buf` (block `b` of the union) that are also set in
/// `mask`. For a sparse mask, `cursor` advances monotonically across calls
/// with ascending `b` — ids falling in skipped blocks are passed over without
/// counting (the union holds no bit there).
#[inline]
fn mask_block_count(
    buf: &[u64; BLOCK_WORDS],
    mask: Parts<'_>,
    b: usize,
    cursor: &mut usize,
) -> usize {
    match mask {
        Parts::Dense(d) => {
            let start = (b * BLOCK_WORDS).min(d.words.len());
            let end = (b * BLOCK_WORDS + BLOCK_WORDS).min(d.words.len());
            d.words[start..end]
                .iter()
                .zip(buf.iter())
                .map(|(m, x)| (m & x).count_ones() as usize)
                .sum()
        }
        Parts::Sparse(ids) => {
            let base = (b * BLOCK_BITS) as u64;
            let end = base + BLOCK_BITS as u64;
            while *cursor < ids.len() && u64::from(ids[*cursor]) < base {
                *cursor += 1;
            }
            let mut n = 0;
            while *cursor < ids.len() && u64::from(ids[*cursor]) < end {
                let off = u64::from(ids[*cursor]) - base;
                n += (buf[(off / 64) as usize] >> (off % 64) & 1) as usize;
                *cursor += 1;
            }
            n
        }
    }
}

/// The `(W(S), P(S))` streaming kernel: counts `|(∪ sources) ∩ withdrawn|`
/// and `|(∪ sources) ∩ routed|` in one pass, without materialising the union.
///
/// Dispatches on the source representations (see the module docs) and records
/// the dispatch class in the scratch's [`KernelStats`]. Heap allocation: none
/// once the scratch's cursor vectors have warmed up to the largest source
/// count seen.
pub fn fused_union_counts(
    sources: &[&IdBitSet],
    withdrawn: &IdBitSet,
    routed: &IdBitSet,
    scratch: &mut ScoreScratch,
) -> (usize, usize) {
    fused_wp(
        sources,
        withdrawn,
        routed,
        &mut scratch.pass,
        &mut scratch.stats,
    )
}

/// Kernel body behind [`fused_union_counts`], split so callers holding the
/// union buffers of the same [`ScoreScratch`] borrowed as a source (the
/// incremental greedy aggregate) can still pass the cursor state mutably.
pub(crate) fn fused_wp(
    sources: &[&IdBitSet],
    withdrawn: &IdBitSet,
    routed: &IdBitSet,
    pass: &mut PassScratch,
    stats: &mut KernelStats,
) -> (usize, usize) {
    if sources.is_empty() {
        return (0, 0);
    }
    pass.dense.clear();
    pass.sparse.clear();
    for (i, s) in sources.iter().enumerate() {
        match s.parts() {
            Parts::Dense(_) => pass.dense.push(i),
            Parts::Sparse(_) => pass.sparse.push(i),
        }
    }
    if pass.dense.is_empty() {
        // All-sparse: the per-id k-way merge only wins while the union is
        // genuinely sparse relative to its extent. Collectively dense posting
        // lists (≥ 1 id per 16 bits) go through the word-blocked path, which
        // scatters each id once and popcounts — O(words + ids) instead of the
        // merge's O(k × ids).
        let total_ids: usize = pass
            .sparse
            .iter()
            .map(|&si| match sources[si].parts() {
                Parts::Sparse(ids) => ids.len(),
                Parts::Dense(_) => unreachable!("partitioned as sparse"),
            })
            .sum();
        let extent_bits = sources
            .iter()
            .map(|s| match s.parts() {
                Parts::Sparse(ids) => ids.last().map_or(0, |&m| m as usize + 1),
                Parts::Dense(_) => unreachable!("partitioned as sparse"),
            })
            .max()
            .unwrap_or(0);
        if total_ids * 16 < extent_bits {
            stats.sparse += 1;
            sparse_merge_wp(sources, &pass.sparse, withdrawn, routed, &mut pass.cursors)
        } else {
            stats.mixed += 1;
            block_wp(sources, pass, withdrawn, routed)
        }
    } else {
        if pass.sparse.is_empty() {
            stats.dense += 1;
        } else {
            stats.mixed += 1;
        }
        block_wp(sources, pass, withdrawn, routed)
    }
}

/// All-sparse dispatch: k-way merge of posting lists, deduplicating on the
/// fly, membership-testing each union id against both masks.
fn sparse_merge_wp(
    sources: &[&IdBitSet],
    sparse: &[usize],
    withdrawn: &IdBitSet,
    routed: &IdBitSet,
    cursors: &mut Vec<usize>,
) -> (usize, usize) {
    cursors.clear();
    cursors.resize(sparse.len(), 0);
    let (mut w, mut p) = (0, 0);
    loop {
        // Smallest unconsumed id across the posting lists. Source counts (k)
        // are the handful of links in a candidate set, so a linear min scan
        // beats heap maintenance.
        let mut min: Option<u32> = None;
        for (ci, &si) in sparse.iter().enumerate() {
            let Parts::Sparse(ids) = sources[si].parts() else {
                unreachable!("partitioned as sparse")
            };
            if let Some(&id) = ids.get(cursors[ci]) {
                min = Some(min.map_or(id, |m| m.min(id)));
            }
        }
        let Some(id) = min else {
            return (w, p);
        };
        w += usize::from(withdrawn.test(id));
        p += usize::from(routed.test(id));
        for (ci, &si) in sparse.iter().enumerate() {
            let Parts::Sparse(ids) = sources[si].parts() else {
                unreachable!("partitioned as sparse")
            };
            if ids.get(cursors[ci]) == Some(&id) {
                cursors[ci] += 1;
            }
        }
    }
}

/// Dense/mixed dispatch: 512-bit block loop over the id space, skipping
/// blocks no source populates (chunk summaries for dense sources, cursor
/// positions for sparse ones).
fn block_wp(
    sources: &[&IdBitSet],
    pass: &mut PassScratch,
    withdrawn: &IdBitSet,
    routed: &IdBitSet,
) -> (usize, usize) {
    // Ids beyond every mask contribute to neither count, so the walk is
    // bounded by min(source extent, mask extent).
    let src_blocks = sources.iter().map(|s| extent_blocks(s)).max().unwrap_or(0);
    let mask_blocks = extent_blocks(withdrawn).max(extent_blocks(routed));
    let n_blocks = src_blocks.min(mask_blocks);

    pass.cursors.clear();
    pass.cursors.resize(pass.sparse.len(), 0);
    let (wmask, rmask) = (withdrawn.parts(), routed.parts());
    let (mut wcur, mut pcur) = (0usize, 0usize);
    let (mut w, mut p) = (0usize, 0usize);

    for b in 0..n_blocks {
        // Occupancy: any dense source with the summary bit set, or any sparse
        // source whose next unconsumed id falls inside this block. (A sparse
        // id can never lag behind `b`: the block containing it was occupied,
        // hence visited, hence consumed it.)
        let mut occupied = pass
            .dense
            .iter()
            .any(|&si| matches!(sources[si].parts(), Parts::Dense(d) if d.block_marked(b)));
        if !occupied {
            let block_end = ((b + 1) * BLOCK_BITS) as u64;
            occupied = pass.sparse.iter().enumerate().any(|(ci, &si)| {
                let Parts::Sparse(ids) = sources[si].parts() else {
                    unreachable!("partitioned as sparse")
                };
                ids.get(pass.cursors[ci])
                    .is_some_and(|&id| u64::from(id) < block_end)
            });
        }
        if !occupied {
            continue;
        }

        let mut buf = [0u64; BLOCK_WORDS];
        let base_word = b * BLOCK_WORDS;
        for &si in &pass.dense {
            let Parts::Dense(d) = sources[si].parts() else {
                unreachable!("partitioned as dense")
            };
            if d.block_marked(b) {
                let start = base_word.min(d.words.len());
                let end = (base_word + BLOCK_WORDS).min(d.words.len());
                for (k, word) in d.words[start..end].iter().enumerate() {
                    buf[k] |= word;
                }
            }
        }
        let base_id = (b * BLOCK_BITS) as u64;
        let block_end = base_id + BLOCK_BITS as u64;
        for (ci, &si) in pass.sparse.iter().enumerate() {
            let Parts::Sparse(ids) = sources[si].parts() else {
                unreachable!("partitioned as sparse")
            };
            let cur = &mut pass.cursors[ci];
            while let Some(&id) = ids.get(*cur) {
                if u64::from(id) >= block_end {
                    break;
                }
                let off = u64::from(id) - base_id;
                buf[(off / 64) as usize] |= 1u64 << (off % 64);
                *cur += 1;
            }
        }

        w += mask_block_count(&buf, wmask, b, &mut wcur);
        p += mask_block_count(&buf, rmask, b, &mut pcur);
    }
    (w, p)
}

/// What a candidate adds to an aggregate: `|c ∖ A ∩ withdrawn|` and
/// `|c ∖ A ∩ routed|`, for any sparse/dense mix of the four sets.
///
/// The walk is `candidate`'s: its ids for a posting list, its marked words
/// for a dense set. `aggregate` and the masks are read at those words only.
/// Heap allocation: none.
pub fn delta_union_counts(
    candidate: &IdBitSet,
    aggregate: &IdBitSet,
    withdrawn: &IdBitSet,
    routed: &IdBitSet,
) -> (usize, usize) {
    let mut agg = WordReader::new(aggregate.parts());
    let mut wmask = WordReader::new(withdrawn.parts());
    let mut rmask = WordReader::new(routed.parts());
    let (mut w, mut p) = (0usize, 0usize);
    // Called with ascending word indices, as every reader requires.
    let mut count = |i: usize, word: u64| {
        let new = word & !agg.word(i);
        if new != 0 {
            w += (new & wmask.word(i)).count_ones() as usize;
            p += (new & rmask.word(i)).count_ones() as usize;
        }
    };
    match candidate.parts() {
        Parts::Sparse(ids) => {
            for &id in ids {
                count(id as usize / 64, 1u64 << (id % 64));
            }
        }
        Parts::Dense(d) => {
            for (s, &summary) in d.summary.iter().enumerate() {
                let mut blocks = summary;
                while blocks != 0 {
                    let b = s * 64 + blocks.trailing_zeros() as usize;
                    blocks &= blocks - 1;
                    let start = b * BLOCK_WORDS;
                    let end = (start + BLOCK_WORDS).min(d.words.len());
                    for (i, &word) in (start..end).zip(&d.words[start..end]) {
                        if word != 0 {
                            count(i, word);
                        }
                    }
                }
            }
        }
    }
    (w, p)
}

/// Reads a set one 64-bit word at a time, at word indices that never
/// decrease: a dense set indexes its words, a posting list moves a cursor
/// forward and assembles the word from the ids that fall in it.
struct WordReader<'a> {
    parts: Parts<'a>,
    cursor: usize,
}

impl<'a> WordReader<'a> {
    fn new(parts: Parts<'a>) -> Self {
        WordReader { parts, cursor: 0 }
    }

    /// Word `i` of the set (zero beyond its extent).
    #[inline]
    fn word(&mut self, i: usize) -> u64 {
        match self.parts {
            Parts::Dense(d) => d.words.get(i).copied().unwrap_or(0),
            Parts::Sparse(ids) => {
                let rest = &ids[self.cursor..];
                self.cursor += rest.partition_point(|&id| (id as usize / 64) < i);
                let mut word = 0;
                for &id in &ids[self.cursor..] {
                    if id as usize / 64 != i {
                        break;
                    }
                    word |= 1u64 << (id % 64);
                }
                word
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Model computation over plain id sets.
    fn model(sources: &[&IdBitSet], withdrawn: &IdBitSet, routed: &IdBitSet) -> (usize, usize) {
        let union: BTreeSet<u32> = sources.iter().flat_map(|s| s.ids()).collect();
        (
            union.iter().filter(|&&id| withdrawn.test(id)).count(),
            union.iter().filter(|&&id| routed.test(id)).count(),
        )
    }

    fn sparse_of(ids: &[u32]) -> IdBitSet {
        let mut s = IdBitSet::new();
        for &id in ids {
            s.set(id);
        }
        assert!(!s.is_dense() || ids.is_empty(), "intended to stay sparse");
        s
    }

    fn dense_of(cap: usize, ids: &[u32]) -> IdBitSet {
        let mut s = IdBitSet::with_capacity(cap);
        for &id in ids {
            s.set(id);
        }
        s
    }

    #[test]
    fn empty_inputs_count_zero() {
        let mut scratch = ScoreScratch::new();
        let w = dense_of(1024, &[1, 2, 3]);
        let r = dense_of(1024, &[4, 5]);
        assert_eq!(fused_union_counts(&[], &w, &r, &mut scratch), (0, 0));
        let empty = IdBitSet::new();
        assert_eq!(fused_union_counts(&[&empty], &w, &r, &mut scratch), (0, 0));
        assert!(
            scratch.take_stats().dense == 0,
            "empty source slice is not a pass"
        );
    }

    #[test]
    fn all_sparse_dispatch_merges_and_dedups() {
        let mut scratch = ScoreScratch::new();
        // Ids spread out enough that the posting list never crosses the
        // promotion threshold (promotion is one-way, checked per insert).
        let a = sparse_of(&[1, 500, 900, 100_000]);
        let b = sparse_of(&[500, 700, 100_000]);
        let withdrawn = sparse_of(&[1, 700, 100_000]);
        let routed = sparse_of(&[500, 900]);
        let srcs: [&IdBitSet; 2] = [&a, &b];
        let got = fused_union_counts(&srcs, &withdrawn, &routed, &mut scratch);
        assert_eq!(got, model(&srcs, &withdrawn, &routed));
        assert_eq!(got, (3, 2));
        let stats = scratch.take_stats();
        assert_eq!((stats.sparse, stats.dense, stats.mixed), (1, 0, 0));
    }

    #[test]
    fn dense_dispatch_skips_empty_blocks() {
        let mut scratch = ScoreScratch::new();
        // Bits only in blocks 0 and 90 of a 100-block space.
        let a = dense_of(100 * BLOCK_BITS, &[3, 90 * BLOCK_BITS as u32 + 17]);
        let b = dense_of(100 * BLOCK_BITS, &[4]);
        let withdrawn = dense_of(100 * BLOCK_BITS, &[3, 4]);
        let routed = dense_of(100 * BLOCK_BITS, &[90 * BLOCK_BITS as u32 + 17, 600]);
        let srcs: [&IdBitSet; 2] = [&a, &b];
        let got = fused_union_counts(&srcs, &withdrawn, &routed, &mut scratch);
        assert_eq!(got, model(&srcs, &withdrawn, &routed));
        assert_eq!(got, (2, 1));
        let stats = scratch.take_stats();
        assert_eq!((stats.sparse, stats.dense, stats.mixed), (0, 1, 0));
    }

    #[test]
    fn mixed_dispatch_handles_rep_mixes_and_sparse_masks() {
        let mut scratch = ScoreScratch::new();
        let dense = dense_of(20 * BLOCK_BITS, &[0, 512, 513, 5 * BLOCK_BITS as u32]);
        let sparse = sparse_of(&[512, 999, 19 * BLOCK_BITS as u32 + 3]);
        // One mask dense, one sparse — both sides of mask_block_count.
        let withdrawn = sparse_of(&[0, 999, 19 * BLOCK_BITS as u32 + 3]);
        let routed = dense_of(20 * BLOCK_BITS, &[512, 513, 5 * BLOCK_BITS as u32]);
        let srcs: [&IdBitSet; 2] = [&dense, &sparse];
        let got = fused_union_counts(&srcs, &withdrawn, &routed, &mut scratch);
        assert_eq!(got, model(&srcs, &withdrawn, &routed));
        assert_eq!(got, (3, 3));
        let stats = scratch.take_stats();
        assert_eq!((stats.sparse, stats.dense, stats.mixed), (0, 0, 1));
    }

    #[test]
    fn sources_wider_than_the_masks_are_clipped_not_miscounted() {
        let mut scratch = ScoreScratch::new();
        // Source bits far beyond both masks' extent must count for neither
        // side, and must not push the block walk past the mask words.
        let wide = dense_of(64 * BLOCK_BITS, &[10, 63 * BLOCK_BITS as u32]);
        let withdrawn = dense_of(512, &[10]);
        let routed = dense_of(512, &[11]);
        let srcs: [&IdBitSet; 1] = [&wide];
        assert_eq!(
            fused_union_counts(&srcs, &withdrawn, &routed, &mut scratch),
            (1, 0)
        );
    }

    #[test]
    fn delta_counts_only_what_the_candidate_adds() {
        let agg = dense_of(0, &[1, 200, 700]);
        let withdrawn = dense_of(2_048, &[1, 70, 700, 701, 1_500]);
        let routed = sparse_of(&[200, 300, 1_600]);
        // 1, 200 and 700 are already in the aggregate; 70, 701 and 1 500 are
        // new withdrawn ids, 300 and 1 600 new routed ones, 450 is in neither.
        let ids = [1, 70, 200, 300, 450, 700, 701, 1_500, 1_600];
        for candidate in [sparse_of(&ids), dense_of(0, &ids)] {
            assert_eq!(
                delta_union_counts(&candidate, &agg, &withdrawn, &routed),
                (3, 2),
                "candidate dense: {}",
                candidate.is_dense()
            );
        }
        let empty = IdBitSet::new();
        assert_eq!(
            delta_union_counts(&empty, &agg, &withdrawn, &routed),
            (0, 0)
        );
    }

    #[test]
    fn repeated_passes_reuse_cursor_capacity() {
        let mut scratch = ScoreScratch::new();
        // Spread ids: collectively sparse relative to the extent, so every
        // pass dispatches to the k-way merge.
        let a = sparse_of(&[1, 2_000]);
        let b = sparse_of(&[2_000, 3_000]);
        let masks = dense_of(4_096, &[1, 2_000, 3_000]);
        let srcs: [&IdBitSet; 2] = [&a, &b];
        for _ in 0..3 {
            assert_eq!(
                fused_union_counts(&srcs, &masks, &masks, &mut scratch),
                (3, 3)
            );
        }
        assert_eq!(scratch.take_stats().sparse, 3);
        assert!(scratch.pass.cursors.capacity() >= 2, "cursors retained");
    }
}
