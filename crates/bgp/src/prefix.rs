//! IPv4 prefixes.
//!
//! SWIFT reasons about routing state at prefix granularity: withdrawals,
//! announcements, RIB entries and fit-score counters are all keyed by prefix.
//! The paper's evaluation uses IPv4 routing tables (up to the ~650k-prefix full
//! table), so a compact `(u32, u8)` representation is used throughout.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::str::FromStr;

/// Errors produced when parsing or constructing a [`Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length was larger than 32.
    InvalidLength(u8),
    /// The textual form could not be parsed.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::InvalidLength(l) => write!(f, "invalid prefix length {l} (must be <= 32)"),
            PrefixError::Malformed(s) => write!(f, "malformed prefix `{s}`"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// An IPv4 prefix: a network address and a prefix length.
///
/// The network address is always stored in canonical form, i.e. host bits are
/// zeroed. Two prefixes compare equal iff their canonical address and length
/// are equal. Ordering is lexicographic on `(address, length)` which groups
/// covering prefixes next to their more-specifics — convenient for range scans
/// over a [`PrefixSet`].
///
/// ```
/// use swift_bgp::Prefix;
/// let p: Prefix = "10.0.0.0/8".parse().unwrap();
/// assert!(p.contains(&"10.1.2.0/24".parse().unwrap()));
/// assert_eq!(p.to_string(), "10.0.0.0/8");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: u32,
    len: u8,
}

/// The in-crate multiplicative hasher, behind the [`crate::PathInterner`]
/// index and the maps keyed by AS links: each written word is folded in
/// with one multiplication by an odd 64-bit constant, and `finish` xors the
/// well-mixed high half onto the low half (the hash table takes its bucket
/// index from the low bits, which a bare product leaves as a function of the
/// key's low bits alone).
///
/// It trades the default hasher's resistance to crafted collisions for a
/// probe several times cheaper; every announcement interns its path, so the
/// path index sits on the inference engine's per-event path. The prefix
/// dictionaries do not hash through it: [`crate::PrefixInterner`] is its own
/// packed index.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.fold(u64::from(*byte));
        }
    }

    // One fold per integer: the provided methods would go through `write`
    // byte by byte, and an AS path hashes as a length plus one `u32` per hop.
    fn write_u32(&mut self, word: u32) {
        self.fold(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// [`FoldHasher`] as a map's `BuildHasher`.
pub type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: 0, len: 0 };

    /// Creates a prefix from a raw `u32` network address and prefix length.
    ///
    /// Host bits are masked off; an error is returned if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::InvalidLength(len));
        }
        Ok(Prefix {
            addr: addr & Self::mask(len),
            len,
        })
    }

    /// The canonical (masked) network address.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length in bits.
    ///
    /// A `len` of 0 is the default route, not an "empty" prefix, so there is
    /// deliberately no `is_empty` counterpart.
    #[allow(
        clippy::len_without_is_empty,
        reason = "`len` is the prefix length in bits; a prefix is never empty"
    )]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The netmask corresponding to a prefix length.
    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// The netmask of this prefix as a `u32`.
    pub fn netmask(&self) -> u32 {
        Self::mask(self.len)
    }

    /// Number of addresses covered by this prefix.
    pub fn size(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }

    /// Returns `true` if `other` is equal to or more specific than `self`
    /// (i.e. every address in `other` is covered by `self`).
    pub fn contains(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.addr & self.netmask()) == self.addr
    }

    /// Splits this prefix into its two immediate more-specifics.
    ///
    /// Returns `None` for a /32 (which cannot be split).
    pub fn split(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let child_len = self.len + 1;
        let bit = 1u32 << (32 - u32::from(child_len));
        let lo = Prefix {
            addr: self.addr,
            len: child_len,
        };
        let hi = Prefix {
            addr: self.addr | bit,
            len: child_len,
        };
        Some((lo, hi))
    }

    /// The immediately covering prefix (one bit shorter), or `None` for `/0`.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Prefix {
                addr: self.addr & Self::mask(len),
                len,
            })
        }
    }

    /// Deterministically enumerates `count` distinct /24 prefixes starting from
    /// an index, useful for building synthetic routing tables.
    ///
    /// Index `i` maps to the /24 whose network address is `i << 8` within the
    /// unicast space starting at `1.0.0.0`; the mapping is injective for
    /// `i < 2^24 - 2^16`.
    pub fn nth_slash24(i: u32) -> Prefix {
        // Start after 0.0.0.0/8 to avoid the "this network" block.
        let base: u32 = 0x0100_0000;
        Prefix {
            addr: base.wrapping_add(i << 8),
            len: 24,
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let malformed = || PrefixError::Malformed(s.to_string());
        let (addr_s, len_s) = s.split_once('/').ok_or_else(malformed)?;
        let len: u8 = len_s.parse().map_err(|_| malformed())?;
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in addr_s.split('.') {
            if n >= 4 {
                return Err(malformed());
            }
            octets[n] = part.parse().map_err(|_| malformed())?;
            n += 1;
        }
        if n != 4 {
            return Err(malformed());
        }
        Prefix::new(u32::from_be_bytes(octets), len)
    }
}

/// An ordered set of prefixes with the set algebra SWIFT's evaluation metrics
/// need (intersection / difference cardinalities for TPR / FPR computation).
///
/// Stored as one sorted, duplicate-free `Vec<Prefix>`: a prediction is built
/// once from an id walk and then only read, so building is a sort and a
/// dedup of one allocation (no node per 11 prefixes), `contains` a binary
/// search and the algebra a merge. The price is that [`PrefixSet::insert`] /
/// [`PrefixSet::remove`] shift the tail — they are for sets built a few
/// prefixes at a time; bulk construction goes through `collect` or
/// `From<Vec<Prefix>>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixSet {
    /// Strictly ascending.
    inner: Vec<Prefix>,
}

impl PrefixSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        PrefixSet { inner: Vec::new() }
    }

    /// Number of prefixes in the set.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts a prefix; returns `true` if it was not already present.
    pub fn insert(&mut self, p: Prefix) -> bool {
        match self.inner.binary_search(&p) {
            Ok(_) => false,
            Err(at) => {
                self.inner.insert(at, p);
                true
            }
        }
    }

    /// Removes a prefix; returns `true` if it was present.
    pub fn remove(&mut self, p: &Prefix) -> bool {
        match self.inner.binary_search(p) {
            Ok(at) => {
                self.inner.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, p: &Prefix) -> bool {
        self.inner.binary_search(p).is_ok()
    }

    /// Iterates over the prefixes in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Prefix> {
        self.inner.iter()
    }

    /// Number of prefixes present in both sets.
    pub fn intersection_len(&self, other: &PrefixSet) -> usize {
        let (mut a, mut b) = (self.inner.as_slice(), other.inner.as_slice());
        let mut common = 0;
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            match x.cmp(y) {
                Ordering::Less => a = &a[1..],
                Ordering::Greater => b = &b[1..],
                Ordering::Equal => {
                    common += 1;
                    a = &a[1..];
                    b = &b[1..];
                }
            }
        }
        common
    }

    /// Union of the two sets.
    pub fn union(&self, other: &PrefixSet) -> PrefixSet {
        let (mut a, mut b) = (self.inner.as_slice(), other.inner.as_slice());
        let mut inner = Vec::with_capacity(a.len() + b.len());
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            let order = x.cmp(y);
            if order != Ordering::Greater {
                inner.push(*x);
                a = &a[1..];
            } else {
                inner.push(*y);
            }
            if order != Ordering::Less {
                b = &b[1..];
            }
        }
        inner.extend_from_slice(a);
        inner.extend_from_slice(b);
        PrefixSet { inner }
    }
}

impl From<Vec<Prefix>> for PrefixSet {
    /// The set of the vector's prefixes: sorted and deduplicated in place,
    /// both no-ops on an already ascending vector.
    fn from(mut inner: Vec<Prefix>) -> Self {
        if !inner.windows(2).all(|w| w[0] < w[1]) {
            inner.sort_unstable();
            inner.dedup();
        }
        PrefixSet { inner }
    }
}

impl FromIterator<Prefix> for PrefixSet {
    fn from_iter<T: IntoIterator<Item = Prefix>>(iter: T) -> Self {
        PrefixSet::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a PrefixSet {
    type Item = &'a Prefix;
    type IntoIter = std::slice::Iter<'a, Prefix>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl IntoIterator for PrefixSet {
    type Item = Prefix;
    type IntoIter = std::vec::IntoIter<Prefix>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["10.0.0.0/8", "192.168.1.0/24", "0.0.0.0/0", "1.2.3.4/32"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn canonicalises_host_bits() {
        let p: Prefix = "10.1.2.3/8".parse().unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/8");
        assert_eq!(p, "10.0.0.0/8".parse().unwrap());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Prefix::new(0, 33).is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0.1/8".parse::<Prefix>().is_err());
        assert!("a.b.c.d/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/40".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment_rules() {
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p24: Prefix = "10.1.2.0/24".parse().unwrap();
        let other: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(p8.contains(&p24));
        assert!(!p24.contains(&p8));
        assert!(p8.contains(&p8));
        assert!(!p8.contains(&other));
    }

    #[test]
    fn default_route_contains_everything() {
        let d = Prefix::DEFAULT;
        assert_eq!(d.len(), 0);
        for s in ["10.0.0.0/8", "255.255.255.255/32", "0.0.0.0/0"] {
            assert!(d.contains(&s.parse().unwrap()));
        }
        assert_eq!(d.size(), 1 << 32);
    }

    #[test]
    fn split_and_parent_are_inverse() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let (lo, hi) = p.split().unwrap();
        assert_eq!(lo.to_string(), "10.0.0.0/9");
        assert_eq!(hi.to_string(), "10.128.0.0/9");
        assert_eq!(lo.parent(), Some(p));
        assert_eq!(hi.parent(), Some(p));
        assert!(Prefix::new(u32::from_be_bytes([1, 2, 3, 4]), 32)
            .unwrap()
            .split()
            .is_none());
        assert!(Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn contains_addr_matches_mask() {
        let p: Prefix = "192.168.0.0/16".parse().unwrap();
        let host = |addr: [u8; 4]| Prefix::new(u32::from_be_bytes(addr), 32).unwrap();
        assert!(p.contains(&host([192, 168, 42, 7])));
        assert!(!p.contains(&host([192, 169, 0, 1])));
    }

    #[test]
    fn nth_slash24_is_injective_over_a_large_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            assert!(seen.insert(Prefix::nth_slash24(i)), "duplicate at {i}");
        }
        assert_eq!(Prefix::nth_slash24(0).to_string(), "1.0.0.0/24");
        assert_eq!(Prefix::nth_slash24(1).to_string(), "1.0.1.0/24");
    }

    #[test]
    fn prefix_set_algebra() {
        let a: PrefixSet = (0..100).map(Prefix::nth_slash24).collect();
        let b: PrefixSet = (50..150).map(Prefix::nth_slash24).collect();
        assert_eq!(a.len(), 100);
        assert_eq!(a.intersection_len(&b), 50);
        assert_eq!(a.union(&b).len(), 150);
        assert!(a.contains(&Prefix::nth_slash24(10)));
        assert!(!a.contains(&Prefix::nth_slash24(120)));
    }

    #[test]
    fn prefix_set_from_unsorted_duplicates() {
        let order = [7u32, 3, 9, 3, 1, 7];
        let collected: PrefixSet = order.iter().map(|i| Prefix::nth_slash24(*i)).collect();
        let sorted: Vec<Prefix> = [1u32, 3, 7, 9].map(Prefix::nth_slash24).to_vec();
        assert_eq!(collected.iter().copied().collect::<Vec<_>>(), sorted);
        assert_eq!(collected, PrefixSet::from(sorted.clone()));
        assert_eq!(collected.clone().into_iter().collect::<Vec<_>>(), sorted);
        assert_eq!(collected.union(&PrefixSet::new()), collected);
        assert_eq!(PrefixSet::new().union(&collected), collected);
        assert_eq!(collected.intersection_len(&PrefixSet::new()), 0);
    }

    #[test]
    fn prefix_set_insert_remove() {
        let mut s = PrefixSet::new();
        assert!(s.is_empty());
        let p = Prefix::nth_slash24(3);
        assert!(s.insert(p));
        assert!(!s.insert(p));
        assert_eq!(s.len(), 1);
        assert!(s.remove(&p));
        assert!(!s.remove(&p));
        assert!(s.is_empty());
    }

    #[test]
    fn ordering_is_consistent_with_eq() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.0.0.0/9".parse().unwrap();
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
