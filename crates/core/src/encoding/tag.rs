//! SWIFT data-plane tags (§5).
//!
//! A tag is a fixed-width bit string embedded into every incoming packet (the
//! paper uses the 48-bit destination MAC). It has two parts:
//!
//! * the **AS-path part**: one bit group per AS-path position, holding the code
//!   of the AS link the packet traverses at that position (code 0 = "not
//!   encoded");
//! * the **next-hop part**: one bit group per slot — slot 0 is the primary
//!   next-hop, slot *d* (1 ≤ d ≤ max depth) is the backup next-hop to use if
//!   the link at position *d* fails.
//!
//! Rerouting then needs a single wildcard rule per (inferred link position,
//! backup next-hop): match the position group against the link's code and the
//! corresponding backup slot against the next-hop's index, wildcard everything
//! else.

use std::fmt;

/// Bit layout of a SWIFT tag: the next-hop slots from bit 0 up, then the
/// AS-path positions. [`TagLayout::new`] computes every group's offset and
/// mask once, so a read or write is one load, one shift and one mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagLayout {
    nexthop_bits: u8,
    /// `nexthops[slot]`: next-hop slot `slot` (0 = primary).
    nexthops: Vec<Group>,
    /// `positions[pos - 1]`: AS-path position `pos`.
    positions: Vec<Group>,
}

/// A bit group: `mask` holds its width's low bits, `shift` its offset. A
/// group of width 0 (mask 0, shift 0) reads 0 and writes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Group {
    shift: u32,
    mask: u64,
}

impl Group {
    fn new(shift: u32, bits: u8) -> Self {
        let width = u32::from(bits.min(64));
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let shift = if mask == 0 { 0 } else { shift };
        Group { shift, mask }
    }

    fn in_place(self) -> u64 {
        self.mask << self.shift
    }

    fn get(self, tag: u64) -> u64 {
        (tag >> self.shift) & self.mask
    }

    fn set(self, tag: u64, value: u64) -> u64 {
        (tag & !self.in_place()) | ((value & self.mask) << self.shift)
    }
}

impl TagLayout {
    /// Creates a layout; panics if it does not fit in 64 bits (tags are stored
    /// in a `u64`; the paper's 48-bit MAC is the realistic upper bound).
    pub fn new(position_bits: Vec<u8>, nexthop_bits: u8, nexthop_slots: usize) -> Self {
        let widths = std::iter::repeat(nexthop_bits).take(nexthop_slots);
        let mut shift = 0;
        let mut groups: Vec<Group> = (widths.chain(position_bits))
            .map(|bits| {
                let group = Group::new(shift, bits);
                shift += u32::from(bits);
                group
            })
            .collect();
        assert!(
            shift <= 64,
            "tag layout needs {shift} bits, more than the 64 available"
        );
        let positions = groups.split_off(nexthop_slots);
        TagLayout {
            nexthop_bits,
            nexthops: groups,
            positions,
        }
    }

    /// Bits allocated to each next-hop slot.
    pub fn nexthop_bits(&self) -> u8 {
        self.nexthop_bits
    }

    /// Number of next-hop slots (1 primary + max depth backups).
    pub fn nexthop_slots(&self) -> usize {
        self.nexthops.len()
    }

    /// Total bits used by the layout.
    pub fn total_bits(&self) -> u32 {
        let groups = self.nexthops.iter().chain(&self.positions);
        groups.map(|group| group.mask.count_ones()).sum()
    }

    /// Mask (in place) of the group for position `pos` (1-based).
    pub fn position_mask(&self, pos: usize) -> u64 {
        self.positions[pos - 1].in_place()
    }

    /// Mask (in place) of next-hop slot `slot`.
    pub fn nexthop_mask(&self, slot: usize) -> u64 {
        self.nexthops[slot].in_place()
    }

    /// Writes the link code of position `pos` into `tag`.
    pub fn set_position(&self, tag: u64, pos: usize, code: u64) -> u64 {
        self.positions[pos - 1].set(tag, code)
    }

    /// Writes the next-hop index of slot `slot` into `tag`.
    pub fn set_nexthop(&self, tag: u64, slot: usize, index: u64) -> u64 {
        self.nexthops[slot].set(tag, index)
    }

    /// Reads the link code of position `pos` from `tag`.
    pub fn get_position(&self, tag: u64, pos: usize) -> u64 {
        self.positions[pos - 1].get(tag)
    }

    /// Reads the next-hop index of slot `slot` from `tag`.
    pub fn get_nexthop(&self, tag: u64, slot: usize) -> u64 {
        self.nexthops[slot].get(tag)
    }

    /// A rule matching packets whose position `pos` equals `code` and whose
    /// backup slot for that position equals `nexthop_index` — the reroute rule
    /// shape of §3.2 (`match(tag:*01** ***1*) >> fwd(3)`).
    pub fn reroute_rule(&self, pos: usize, code: u64, nexthop_index: u64) -> TagRule {
        let mut value = 0u64;
        let mut mask = 0u64;
        mask |= self.position_mask(pos);
        value = self.set_position(value, pos, code);
        mask |= self.nexthop_mask(pos); // slot `pos` protects the link at position `pos`
        value = self.set_nexthop(value, pos, nexthop_index);
        TagRule { value, mask }
    }

    /// A rule matching packets whose primary next-hop (slot 0) is
    /// `nexthop_index` — the default forwarding rule of the second stage.
    pub fn primary_rule(&self, nexthop_index: u64) -> TagRule {
        let mask = self.nexthop_mask(0);
        let value = self.set_nexthop(0, 0, nexthop_index);
        TagRule { value, mask }
    }
}

/// A ternary match on a tag: `tag & mask == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagRule {
    /// Expected value of the masked bits.
    pub value: u64,
    /// Bits that participate in the match.
    pub mask: u64,
}

impl TagRule {
    /// Returns `true` if `tag` matches this rule.
    pub fn matches(&self, tag: u64) -> bool {
        tag & self.mask == self.value
    }
}

impl fmt::Display for TagRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "match(tag & {:#x} == {:#x})", self.mask, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> TagLayout {
        // 3 positions of 2/3/2 bits, 4-bit next-hops, 1 primary + 3 backups.
        TagLayout::new(vec![2, 3, 2], 4, 4)
    }

    #[test]
    fn total_bits_accounting() {
        let l = layout();
        assert_eq!(l.total_bits(), 2 + 3 + 2 + 4 * 4);
        assert_eq!((l.nexthop_bits(), l.nexthop_slots()), (4, 4));
    }

    #[test]
    fn set_get_roundtrip() {
        let l = layout();
        let mut tag = 0u64;
        tag = l.set_position(tag, 1, 0b11);
        tag = l.set_position(tag, 2, 0b101);
        tag = l.set_position(tag, 3, 0b01);
        tag = l.set_nexthop(tag, 0, 0xA);
        tag = l.set_nexthop(tag, 2, 0x5);
        assert_eq!(l.get_position(tag, 1), 0b11);
        assert_eq!(l.get_position(tag, 2), 0b101);
        assert_eq!(l.get_position(tag, 3), 0b01);
        assert_eq!(l.get_nexthop(tag, 0), 0xA);
        assert_eq!(l.get_nexthop(tag, 1), 0);
        assert_eq!(l.get_nexthop(tag, 2), 0x5);
    }

    #[test]
    fn groups_do_not_overlap() {
        let l = layout();
        let mut masks = Vec::new();
        for pos in 1..=3 {
            masks.push(l.position_mask(pos));
        }
        for slot in 0..4 {
            masks.push(l.nexthop_mask(slot));
        }
        for (i, a) in masks.iter().enumerate() {
            assert_ne!(*a, 0);
            for b in &masks[i + 1..] {
                assert_eq!(a & b, 0, "overlapping bit groups");
            }
        }
    }

    #[test]
    fn setting_a_code_larger_than_the_group_truncates() {
        let l = layout();
        let tag = l.set_position(0, 1, 0xFF);
        assert_eq!(l.get_position(tag, 1), 0b11, "only 2 bits available");
        // Other groups untouched.
        assert_eq!(l.get_position(tag, 2), 0);
        assert_eq!(l.get_nexthop(tag, 0), 0);
    }

    #[test]
    fn reroute_rule_matches_only_affected_tags() {
        let l = layout();
        // Packets crossing link code 2 at position 2, backup next-hop 7.
        let rule = l.reroute_rule(2, 2, 7);
        let mut affected = 0u64;
        affected = l.set_position(affected, 2, 2);
        affected = l.set_nexthop(affected, 2, 7);
        affected = l.set_nexthop(affected, 0, 3); // primary is irrelevant
        affected = l.set_position(affected, 1, 1);
        assert!(rule.matches(affected));

        // Same position code but a different backup next-hop: no match.
        let other_backup = l.set_nexthop(l.set_position(0, 2, 2), 2, 6);
        assert!(!rule.matches(other_backup));
        // Different link at that position: no match.
        let other_link = l.set_nexthop(l.set_position(0, 2, 3), 2, 7);
        assert!(!rule.matches(other_link));
    }

    #[test]
    fn primary_rule_matches_on_slot_zero_only() {
        let l = layout();
        let rule = l.primary_rule(0xA);
        let tag = l.set_nexthop(l.set_position(0, 1, 3), 0, 0xA);
        assert!(rule.matches(tag));
        assert!(!rule.matches(l.set_nexthop(0, 0, 0xB)));
    }

    #[test]
    #[should_panic(expected = "more than the 64 available")]
    fn oversized_layout_panics() {
        TagLayout::new(vec![32, 32], 8, 4);
    }

    #[test]
    #[should_panic(expected = "needs 100 bits")]
    fn a_group_wider_than_a_tag_panics_with_the_layout_message() {
        TagLayout::new(vec![100], 0, 0);
    }

    #[test]
    fn display_rule() {
        let rule = TagRule {
            value: 0x10,
            mask: 0xF0,
        };
        assert_eq!(rule.to_string(), "match(tag & 0xf0 == 0x10)");
    }
}
