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
//! is reserved for "not encoded").

use crate::config::EncodingConfig;
use crate::encoding::tag::TagLayout;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use swift_bgp::{AsLink, AsPath, FoldBuildHasher, RoutingTable};

/// The per-position link dictionaries produced by the allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodingPlan {
    /// `per_position[i]` maps links at position `i + 1` to their code (≥ 1).
    per_position: Vec<BTreeMap<AsLink, u64>>,
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
        let mut per_position: Vec<BTreeMap<AsLink, u64>> = vec![BTreeMap::new(); config.max_depth];

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
            let idx = pos - 1;
            if per_position[idx].contains_key(&link) {
                continue;
            }
            // Bits needed if this link is added to its position.
            let mut trial_sizes: Vec<usize> = per_position.iter().map(BTreeMap::len).collect();
            trial_sizes[idx] += 1;
            let needed: u32 = trial_sizes.iter().map(|n| bits_for(*n)).sum();
            if needed > budget {
                continue;
            }
            let code = per_position[idx].len() as u64 + 1;
            per_position[idx].insert(link, code);
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

    /// Returns `true` if `link` is encoded at `position`.
    pub fn encodes(&self, position: usize, link: &AsLink) -> bool {
        self.code_of(position, link).is_some()
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

    /// Number of links encoded at `position`.
    pub fn links_at(&self, position: usize) -> usize {
        self.per_position
            .get(position - 1)
            .map(BTreeMap::len)
            .unwrap_or(0)
    }

    /// Total number of `(position, link)` codes assigned.
    pub fn total_encoded_links(&self) -> usize {
        self.per_position.iter().map(BTreeMap::len).sum()
    }

    /// Computes the AS-path part codes of a path: for each encoded position,
    /// the code of the path's link there (0 when not encoded or absent).
    pub fn path_codes(&self, path: &AsPath) -> Vec<u64> {
        (1..=self.max_depth())
            .map(|pos| {
                path.link_at_position(pos)
                    .and_then(|link| self.code_of(pos, &link))
                    .unwrap_or(0)
            })
            .collect()
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
        assert!(plan.encodes(1, &AsLink::new(2, 5)));
        assert!(plan.encodes(2, &AsLink::new(5, 6)));
        assert!(!plan.encodes(2, &AsLink::new(5, 9)));
        assert_eq!(plan.total_encoded_links(), 2);
    }

    #[test]
    fn positions_beyond_max_depth_are_ignored() {
        let c = counts(&[((1, (2, 5)), 5_000), ((5, (9, 10)), 5_000)]);
        let plan = EncodingPlan::from_counts(&c, &cfg(18, 1_500));
        assert!(plan.encodes(1, &AsLink::new(2, 5)));
        assert!(!plan.encodes(5, &AsLink::new(9, 10)), "beyond max_depth 4");
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
        assert!(plan.encodes(1, &AsLink::new(1, 10)));
        assert!(plan.encodes(1, &AsLink::new(1, 11)));
        assert!(plan.encodes(1, &AsLink::new(1, 12)));
        assert!(!plan.encodes(1, &AsLink::new(1, 13)));
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
        let codes = plan.path_codes(&path);
        assert_eq!(codes.len(), 4);
        assert_eq!(codes[0], plan.code_of(1, &AsLink::new(2, 5)).unwrap());
        assert_eq!(codes[1], plan.code_of(2, &AsLink::new(5, 6)).unwrap());
        assert_eq!(codes[2], 0, "link (6,7) not encoded");
        assert_eq!(codes[3], 0, "path has no 4th link");
        let code = plan.code_of(2, &AsLink::new(5, 6)).unwrap();
        assert_eq!(
            plan.codes_of(&AsLink::new(5, 6)).collect::<Vec<_>>(),
            vec![(2, code)]
        );
    }

    #[test]
    fn layout_respects_the_config_budget() {
        let c = counts(&[((1, (2, 5)), 9_000), ((2, (5, 6)), 9_000)]);
        let config = cfg(18, 1_500);
        let plan = EncodingPlan::from_counts(&c, &config);
        let layout = plan.layout(&config);
        assert_eq!(layout.nexthop_slots, 5);
        assert_eq!(layout.nexthop_bits, 6);
        assert!(layout.total_bits() <= 48);
    }

    #[test]
    fn empty_counts_produce_empty_plan() {
        let plan = EncodingPlan::from_counts(&HashMap::new(), &cfg(18, 1_500));
        assert_eq!(plan.total_encoded_links(), 0);
        assert_eq!(plan.total_path_bits(), 0);
        assert_eq!(
            plan.path_codes(&AsPath::new([1u32, 2, 3])),
            vec![0, 0, 0, 0]
        );
    }
}
