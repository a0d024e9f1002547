//! Rerouting policies (§3.2, "SWIFT supports rerouting policies").
//!
//! Operators can forbid specific backup next-hops (e.g. an expensive provider
//! or a congested link) and rank the remaining ones (e.g. prefer customers and
//! nearby egress points). The backup selection honours both: forbidden peers
//! are never chosen, and among eligible peers the lowest rank wins before BGP
//! preference is considered.

use std::collections::{BTreeMap, BTreeSet};
use swift_bgp::PeerId;

/// An operator rerouting policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReroutingPolicy {
    forbidden: BTreeSet<PeerId>,
    ranks: BTreeMap<PeerId, i32>,
}

impl ReroutingPolicy {
    /// The permissive policy: every peer allowed, all ranks equal.
    pub fn allow_all() -> Self {
        Self::default()
    }

    /// Forbids rerouting towards `peer` (builder style).
    pub fn forbid(mut self, peer: PeerId) -> Self {
        self.forbidden.insert(peer);
        self
    }

    /// Assigns a rank to `peer`; lower ranks are preferred (builder style).
    /// Unranked peers default to rank 0.
    pub fn rank(mut self, peer: PeerId, rank: i32) -> Self {
        self.ranks.insert(peer, rank);
        self
    }

    /// Returns `true` if `peer` may be used as a backup next-hop.
    pub fn allows(&self, peer: PeerId) -> bool {
        !self.forbidden.contains(&peer)
    }

    /// The rank of `peer` (lower is preferred, default 0).
    pub fn rank_of(&self, peer: PeerId) -> i32 {
        self.ranks.get(&peer).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_is_permissive() {
        let p = ReroutingPolicy::allow_all();
        assert!(p.allows(PeerId(1)));
        assert_eq!(p.rank_of(PeerId(1)), 0);
        assert!(p.forbidden.is_empty());
    }

    #[test]
    fn forbid_and_rank() {
        let p = ReroutingPolicy::allow_all()
            .forbid(PeerId(3))
            .rank(PeerId(1), -10)
            .rank(PeerId(2), 5);
        assert!(!p.allows(PeerId(3)));
        assert!(p.allows(PeerId(1)));
        assert!(p.rank_of(PeerId(1)) < p.rank_of(PeerId(2)));
        assert_eq!(p.rank_of(PeerId(9)), 0);
        assert_eq!(p.forbidden.len(), 1);
    }
}
