//! Bit allocation for the AS-path part of the tag (§5, "Encoding AS links").
//!
//! The Internet AS graph has far too many links to give each a code, so the
//! allocator applies the paper's two observations:
//!
//! * links carrying fewer than ~1,500 prefixes never produce bursts worth
//!   fast-rerouting — they are not encoded at all;
//! * only the first few positions of the AS paths actually in use need codes,
//!   and links are admitted per position, highest prefix count first, while the
//!   total bit budget allows.
//!
//! Each position gets its own bit group sized `ceil(log2(#links + 1))` (code 0
//! is reserved for "not encoded"), and its own dictionary: a hash map on
//! [`FoldBuildHasher`], which a retag probes for each encoded link of a best
//! path. The codes stay deterministic: [`EncodingPlan::from_counts`] hands
//! them out in its sorted candidate order, and nothing reads a map in
//! iteration order.

use crate::config::EncodingConfig;
use crate::encoding::tag::TagLayout;
use std::collections::HashMap;
use std::hash::BuildHasher;
use swift_bgp::{AsLink, FoldBuildHasher, RoutingTable};

/// One position's link dictionary: link → code (≥ 1).
type Codes = HashMap<AsLink, u64, FoldBuildHasher>;

/// The per-position link dictionaries produced by the allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodingPlan {
    /// `per_position[i]` maps links at position `i + 1` to their code (≥ 1).
    per_position: Vec<Codes>,
    /// Bits allocated per position.
    bits: Vec<u8>,
}

impl EncodingPlan {
    /// Builds a plan from explicit `(position, link, prefix count)` statistics.
    /// The map's iteration order does not matter: candidates are sorted.
    pub fn from_counts<S: BuildHasher>(
        counts: &HashMap<(usize, AsLink), usize, S>,
        config: &EncodingConfig,
    ) -> Self {
        let mut per_position: Vec<Codes> = vec![Codes::default(); config.max_depth];

        // Candidates above the prefix-count threshold, within the encoded
        // depth, highest count first (deterministic tie-break on position/link).
        let mut candidates: Vec<(usize, AsLink, usize)> = counts
            .iter()
            .filter(|((pos, _), count)| {
                *pos >= 1 && *pos <= config.max_depth && **count >= config.min_prefixes_per_link
            })
            .map(|((pos, link), count)| (*pos, *link, *count))
            .collect();
        candidates.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));

        let budget = u32::from(config.path_bits);
        for (pos, link, _) in candidates {
            // Bits needed if this link is added to its position.
            let sizes = (1..)
                .zip(&per_position)
                .map(|(p, m)| m.len() + usize::from(p == pos));
            if sizes.map(bits_for).sum::<u32>() <= budget {
                let code = per_position[pos - 1].len() as u64 + 1;
                per_position[pos - 1].insert(link, code);
            }
        }

        let bits = per_position
            .iter()
            .map(|m| bits_for(m.len()) as u8)
            .collect();
        EncodingPlan { per_position, bits }
    }

    /// Builds a plan from the best routes of a routing table (counting, for
    /// every `(position, link)` pair, how many prefixes' best paths use it).
    /// Counting is order-independent, so the table is walked in id order —
    /// no prefix is sorted or hashed — and links beyond the encoded depth,
    /// which `from_counts` would discard, are not counted at all.
    pub fn from_routing_table(table: &RoutingTable, config: &EncodingConfig) -> Self {
        let mut counts: HashMap<(usize, AsLink), usize, FoldBuildHasher> = HashMap::default();
        for id in table.ids() {
            let candidates = table.candidates_by_id(id);
            let Some(best) = candidates.max_by(|a, b| a.compare_preference(b)) else {
                continue;
            };
            for (i, link) in best.as_path().links().take(config.max_depth).enumerate() {
                *counts.entry((i + 1, link)).or_insert(0) += 1;
            }
        }
        Self::from_counts(&counts, config)
    }

    /// The code of `link` at 1-based `position`, if encoded.
    pub fn code_of(&self, position: usize, link: &AsLink) -> Option<u64> {
        self.per_position
            .get(position.checked_sub(1)?)
            .and_then(|m| m.get(link))
            .copied()
    }

    /// The `(position, code)` pairs at which `link` is encoded, by position.
    pub fn codes_of<'a>(&'a self, link: &'a AsLink) -> impl Iterator<Item = (usize, u64)> + 'a {
        self.per_position
            .iter()
            .enumerate()
            .filter_map(move |(i, codes)| Some((i + 1, *codes.get(link)?)))
    }

    /// Number of encoded positions (the configured maximum depth).
    pub fn max_depth(&self) -> usize {
        self.per_position.len()
    }

    /// Bits allocated to each position.
    pub fn bits_per_position(&self) -> &[u8] {
        &self.bits
    }

    /// Total bits used by the AS-path part.
    pub fn total_path_bits(&self) -> u32 {
        self.bits.iter().map(|b| u32::from(*b)).sum()
    }

    /// Number of links encoded at 1-based `position` (0 outside the plan).
    pub fn links_at(&self, position: usize) -> usize {
        position
            .checked_sub(1)
            .and_then(|i| self.per_position.get(i))
            .map_or(0, Codes::len)
    }

    /// Total number of `(position, link)` codes assigned.
    pub fn total_encoded_links(&self) -> usize {
        self.per_position.iter().map(Codes::len).sum()
    }

    /// Builds the tag layout corresponding to this plan and `config`.
    pub fn layout(&self, config: &EncodingConfig) -> TagLayout {
        TagLayout::new(
            self.bits.clone(),
            config.bits_per_nexthop(),
            config.max_depth + 1,
        )
    }
}

/// Bits needed to encode `n` values plus the reserved 0 code.
fn bits_for(n: usize) -> u32 {
    if n == 0 {
        0
    } else {
        usize::BITS - n.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::AsPath;

    fn cfg(path_bits: u8, min: usize) -> EncodingConfig {
        EncodingConfig {
            path_bits,
            min_prefixes_per_link: min,
            ..Default::default()
        }
    }

    type CountEntry = ((usize, (u32, u32)), usize);

    fn counts(entries: &[CountEntry]) -> HashMap<(usize, AsLink), usize> {
        entries
            .iter()
            .map(|((pos, (a, b)), c)| ((*pos, AsLink::new(*a, *b)), *c))
            .collect()
    }

    #[test]
    fn bits_for_reserves_the_zero_code() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(7), 3);
        assert_eq!(bits_for(8), 4);
    }

    #[test]
    fn small_links_are_not_encoded() {
        let c = counts(&[
            ((1, (2, 5)), 10_000),
            ((2, (5, 6)), 9_000),
            ((2, (5, 9)), 100), // below the 1,500-prefix threshold
        ]);
        let plan = EncodingPlan::from_counts(&c, &cfg(18, 1_500));
        assert!(plan.code_of(1, &AsLink::new(2, 5)).is_some());
        assert!(plan.code_of(2, &AsLink::new(5, 6)).is_some());
        assert!(plan.code_of(2, &AsLink::new(5, 9)).is_none());
        assert_eq!(plan.total_encoded_links(), 2);
    }

    #[test]
    fn positions_beyond_max_depth_are_ignored() {
        let c = counts(&[((1, (2, 5)), 5_000), ((5, (9, 10)), 5_000)]);
        let plan = EncodingPlan::from_counts(&c, &cfg(18, 1_500));
        assert!(plan.code_of(1, &AsLink::new(2, 5)).is_some());
        assert!(
            plan.code_of(5, &AsLink::new(9, 10)).is_none(),
            "beyond max_depth 4"
        );
        assert_eq!(plan.max_depth(), 4);
        assert_eq!(plan.code_of(0, &AsLink::new(2, 5)), None);
    }

    #[test]
    fn budget_admits_largest_links_first() {
        // 6 links at position 1, tight 2-bit budget: only the 3 largest fit
        // (2 bits encode codes 1..=3).
        let c = counts(&[
            ((1, (1, 10)), 9_000),
            ((1, (1, 11)), 8_000),
            ((1, (1, 12)), 7_000),
            ((1, (1, 13)), 6_000),
            ((1, (1, 14)), 5_000),
            ((1, (1, 15)), 4_000),
        ]);
        let plan = EncodingPlan::from_counts(&c, &cfg(2, 1_500));
        assert_eq!(plan.links_at(1), 3);
        assert!(plan.code_of(1, &AsLink::new(1, 10)).is_some());
        assert!(plan.code_of(1, &AsLink::new(1, 11)).is_some());
        assert!(plan.code_of(1, &AsLink::new(1, 12)).is_some());
        assert!(plan.code_of(1, &AsLink::new(1, 13)).is_none());
        assert_eq!(plan.total_path_bits(), 2);
        assert_eq!(plan.bits_per_position(), &[2, 0, 0, 0]);
    }

    #[test]
    fn codes_are_unique_and_nonzero_within_a_position() {
        let c = counts(&[
            ((2, (5, 6)), 9_000),
            ((2, (5, 7)), 8_000),
            ((2, (5, 8)), 7_000),
        ]);
        let plan = EncodingPlan::from_counts(&c, &cfg(18, 1_500));
        let codes: Vec<u64> = [(5, 6), (5, 7), (5, 8)]
            .iter()
            .map(|(a, b)| plan.code_of(2, &AsLink::new(*a, *b)).unwrap())
            .collect();
        assert!(codes.iter().all(|c| *c >= 1));
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }

    #[test]
    fn path_codes_follow_the_plan() {
        let c = counts(&[((1, (2, 5)), 9_000), ((2, (5, 6)), 9_000)]);
        let plan = EncodingPlan::from_counts(&c, &cfg(18, 1_500));
        let path = AsPath::new([2u32, 5, 6, 7]);
        let codes: Vec<Option<u64>> = (1..=plan.max_depth())
            .map(|pos| plan.code_of(pos, &path.link_at_position(pos)?))
            .collect();
        // Each link is the first candidate of its position: code 1.
        assert_eq!(codes, [Some(1), Some(1), None, None], "(6,7) not encoded");
        assert_eq!(
            plan.codes_of(&AsLink::new(5, 6)).collect::<Vec<_>>(),
            vec![(2, 1)]
        );
        assert_eq!(plan.codes_of(&AsLink::new(6, 7)).count(), 0);
    }

    #[test]
    fn layout_respects_the_config_budget() {
        let c = counts(&[((1, (2, 5)), 9_000), ((2, (5, 6)), 9_000)]);
        let config = cfg(18, 1_500);
        let plan = EncodingPlan::from_counts(&c, &config);
        let layout = plan.layout(&config);
        assert_eq!(layout.nexthop_slots(), 5);
        assert_eq!(layout.nexthop_bits(), 6);
        assert!(layout.total_bits() <= 48);
    }

    #[test]
    fn empty_counts_produce_empty_plan() {
        let plan = EncodingPlan::from_counts(&HashMap::new(), &cfg(18, 1_500));
        assert_eq!(plan.total_encoded_links(), 0);
        assert_eq!(plan.total_path_bits(), 0);
        let path = AsPath::new([1u32, 2, 3]);
        for (pos, link) in (1..).zip(path.links()) {
            assert_eq!(plan.code_of(pos, &link), None);
            assert_eq!(plan.codes_of(&link).count(), 0);
        }
    }

    #[test]
    fn links_at_is_zero_outside_the_plan() {
        let c = counts(&[((1, (2, 5)), 9_000), ((4, (7, 8)), 9_000)]);
        let plan = EncodingPlan::from_counts(&c, &cfg(18, 1_500));
        assert_eq!(plan.links_at(0), 0, "positions are 1-based");
        assert_eq!(plan.links_at(1), 1);
        assert_eq!(plan.links_at(4), 1);
        assert_eq!(plan.links_at(5), 0, "past max_depth");
    }
}
