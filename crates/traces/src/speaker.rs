//! Per-AS BGP speaker state.
//!
//! The propagation engine keeps one [`Speaker`] per AS. Because every prefix
//! originated by the same AS is routed identically, the speaker tracks routing
//! state per *origin AS* (the engine expands origins back into prefixes only
//! when producing message streams for the SWIFT algorithms). This is the same
//! trick that makes C-BGP-scale simulations tractable.

use crate::policy::{can_export, local_pref};
use crate::topology::Relationship;
use std::collections::{BTreeMap, BTreeSet};
use swift_bgp::{AsPath, Asn};

/// Index of an origin AS in the engine's dense origin table.
pub(crate) type OriginIdx = usize;

/// A candidate route towards one origin, as learned from one neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CandidateRoute {
    /// The neighbour the route was learned from.
    pub neighbor: Asn,
    /// The AS path as received (starting with `neighbor`).
    pub path: AsPath,
}

/// The chosen best route towards one origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BestRoute {
    /// The origin is this AS itself; the path is empty.
    SelfOriginated,
    /// Learned from a neighbour.
    Learned(CandidateRoute),
}

impl BestRoute {
    /// The AS path of the best route (empty for self-originated).
    pub(crate) fn path(&self) -> AsPath {
        match self {
            BestRoute::SelfOriginated => AsPath::empty(),
            BestRoute::Learned(c) => c.path.clone(),
        }
    }

    /// The neighbour the route was learned from, or `None` if self-originated.
    pub(crate) fn learned_from(&self) -> Option<Asn> {
        match self {
            BestRoute::SelfOriginated => None,
            BestRoute::Learned(c) => Some(c.neighbor),
        }
    }
}

/// Per-origin routing state of a speaker.
#[derive(Debug, Clone, Default)]
pub(crate) struct OriginState {
    /// Routes received from each neighbour (Adj-RIB-In), keyed by neighbour.
    pub rib_in: BTreeMap<Asn, AsPath>,
    /// The currently selected best route, if any.
    pub best: Option<BestRoute>,
    /// Neighbours the current best has been advertised to.
    pub advertised_to: BTreeSet<Asn>,
}

/// The routing process of one AS.
#[derive(Debug, Clone)]
pub(crate) struct Speaker {
    /// This speaker's AS number.
    pub asn: Asn,
    /// Adjacent ASes and the relationship of each neighbour relative to this AS.
    pub neighbors: BTreeMap<Asn, Relationship>,
    /// Per-origin routing state, indexed by [`OriginIdx`].
    pub origins: Vec<OriginState>,
}

/// An export action produced by a best-route change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExportAction {
    /// Announce `path` (already prepended with this speaker's ASN) to `to`.
    Announce {
        /// Target neighbour.
        to: Asn,
        /// Path to announce.
        path: AsPath,
    },
    /// Withdraw the route previously advertised to `to`.
    Withdraw {
        /// Target neighbour.
        to: Asn,
    },
}

impl Speaker {
    /// Creates a speaker with the given neighbours and `origin_count` origins.
    pub(crate) fn new(
        asn: Asn,
        neighbors: BTreeMap<Asn, Relationship>,
        origin_count: usize,
    ) -> Self {
        Speaker {
            asn,
            neighbors,
            origins: vec![OriginState::default(); origin_count],
        }
    }

    /// The relationship of `neighbor` relative to this AS, if adjacent.
    pub(crate) fn relationship(&self, neighbor: Asn) -> Option<Relationship> {
        self.neighbors.get(&neighbor).copied()
    }

    /// Removes the adjacency with `neighbor` (link failure). Routing state for
    /// routes learned from that neighbour must be cleaned up by the engine via
    /// [`Speaker::drop_neighbor_routes`].
    pub(crate) fn remove_neighbor(&mut self, neighbor: Asn) -> bool {
        self.neighbors.remove(&neighbor).is_some()
    }

    /// Removes every Adj-RIB-In entry learned from `neighbor` and returns the
    /// affected origin indices.
    pub(crate) fn drop_neighbor_routes(&mut self, neighbor: Asn) -> Vec<OriginIdx> {
        let mut affected = Vec::new();
        for (idx, state) in self.origins.iter_mut().enumerate() {
            if state.rib_in.remove(&neighbor).is_some() {
                affected.push(idx);
            }
            // The neighbour is gone, so it can no longer be "advertised to".
            state.advertised_to.remove(&neighbor);
        }
        affected
    }

    /// Marks this speaker as the originator of `origin_idx`.
    pub(crate) fn originate(&mut self, origin_idx: OriginIdx) {
        self.origins[origin_idx].best = Some(BestRoute::SelfOriginated);
    }

    /// Processes an incoming announcement from `from` for `origin_idx`.
    /// Returns the export actions triggered by any best-route change.
    pub(crate) fn receive_announce(
        &mut self,
        origin_idx: OriginIdx,
        from: Asn,
        path: AsPath,
    ) -> Vec<ExportAction> {
        // Receiver-side loop prevention: discard paths containing ourselves.
        if path.contains_as(self.asn) {
            return self.receive_withdraw(origin_idx, from);
        }
        self.origins[origin_idx].rib_in.insert(from, path);
        self.reselect(origin_idx)
    }

    /// Processes an incoming withdrawal from `from` for `origin_idx`.
    pub(crate) fn receive_withdraw(
        &mut self,
        origin_idx: OriginIdx,
        from: Asn,
    ) -> Vec<ExportAction> {
        self.origins[origin_idx].rib_in.remove(&from);
        self.reselect(origin_idx)
    }

    /// Recomputes the best route for `origin_idx` and, if it changed, produces
    /// the corresponding export actions.
    pub(crate) fn reselect(&mut self, origin_idx: OriginIdx) -> Vec<ExportAction> {
        let new_best = self.compute_best(origin_idx);
        let state = &self.origins[origin_idx];
        if new_best == state.best {
            return Vec::new();
        }
        self.origins[origin_idx].best = new_best;
        self.exports_for(origin_idx)
    }

    /// Standard decision process restricted to the simulator's attribute set:
    /// self-originated > customer > peer > provider routes, then shortest AS
    /// path, then lowest neighbour ASN.
    fn compute_best(&self, origin_idx: OriginIdx) -> Option<BestRoute> {
        let state = &self.origins[origin_idx];
        // Self-origination is sticky: set once by `originate`.
        if matches!(state.best, Some(BestRoute::SelfOriginated)) {
            return Some(BestRoute::SelfOriginated);
        }
        state
            .rib_in
            .iter()
            .filter_map(|(nbr, path)| {
                self.relationship(*nbr)
                    .map(|rel| (local_pref(rel), *nbr, path))
            })
            .max_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| b.2.len().cmp(&a.2.len()))
                    .then_with(|| b.1.cmp(&a.1))
            })
            .map(|(_, nbr, path)| {
                BestRoute::Learned(CandidateRoute {
                    neighbor: nbr,
                    path: path.clone(),
                })
            })
    }

    /// Computes the export actions implied by the current best route:
    /// announcements to neighbours the route may be exported to, withdrawals to
    /// neighbours that previously received a route but may no longer.
    pub(crate) fn exports_for(&mut self, origin_idx: OriginIdx) -> Vec<ExportAction> {
        let asn = self.asn;
        let neighbors: Vec<(Asn, Relationship)> =
            self.neighbors.iter().map(|(a, r)| (*a, *r)).collect();
        let state = &mut self.origins[origin_idx];
        let mut actions = Vec::new();

        match &state.best {
            None => {
                // Lost the route entirely: withdraw from everyone we told.
                for to in std::mem::take(&mut state.advertised_to) {
                    actions.push(ExportAction::Withdraw { to });
                }
            }
            Some(best) => {
                let learned_rel = best
                    .learned_from()
                    .and_then(|n| neighbors.iter().find(|(a, _)| *a == n).map(|(_, r)| *r));
                let export_path = best.path().prepend(asn);
                for (to, to_rel) in &neighbors {
                    let allowed = can_export(learned_rel, *to_rel)
                        // Never export back to the neighbour the route came from.
                        && best.learned_from() != Some(*to)
                        // Sender-side loop check: pointless to offer a path
                        // already containing the target.
                        && !export_path.hops()[1..].contains(to);
                    if allowed {
                        actions.push(ExportAction::Announce {
                            to: *to,
                            path: export_path.clone(),
                        });
                        state.advertised_to.insert(*to);
                    } else if state.advertised_to.remove(to) {
                        actions.push(ExportAction::Withdraw { to: *to });
                    }
                }
            }
        }
        actions
    }

    /// The best path towards `origin_idx`, if reachable.
    pub(crate) fn best_path(&self, origin_idx: OriginIdx) -> Option<AsPath> {
        self.origins[origin_idx].best.as_ref().map(BestRoute::path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speaker_with(neighbors: &[(u32, Relationship)]) -> Speaker {
        Speaker::new(
            Asn(10),
            neighbors.iter().map(|(a, r)| (Asn(*a), *r)).collect(),
            4,
        )
    }

    #[test]
    fn prefers_customer_over_peer_over_provider() {
        let mut s = speaker_with(&[
            (1, Relationship::Customer),
            (2, Relationship::Peer),
            (3, Relationship::Provider),
        ]);
        s.receive_announce(0, Asn(3), AsPath::new([3u32, 99]));
        assert_eq!(s.best_path(0), Some(AsPath::new([3u32, 99])));
        s.receive_announce(0, Asn(2), AsPath::new([2u32, 50, 99]));
        assert_eq!(
            s.best_path(0),
            Some(AsPath::new([2u32, 50, 99])),
            "peer route preferred over provider even if longer"
        );
        s.receive_announce(0, Asn(1), AsPath::new([1u32, 40, 41, 99]));
        assert_eq!(
            s.best_path(0),
            Some(AsPath::new([1u32, 40, 41, 99])),
            "customer route preferred over peer even if longer"
        );
    }

    #[test]
    fn shorter_path_wins_within_same_class() {
        let mut s = speaker_with(&[(1, Relationship::Peer), (2, Relationship::Peer)]);
        s.receive_announce(0, Asn(1), AsPath::new([1u32, 5, 99]));
        s.receive_announce(0, Asn(2), AsPath::new([2u32, 99]));
        assert_eq!(s.best_path(0), Some(AsPath::new([2u32, 99])));
    }

    #[test]
    fn loop_paths_are_rejected() {
        let mut s = speaker_with(&[(1, Relationship::Customer)]);
        let actions = s.receive_announce(0, Asn(1), AsPath::new([1u32, 10, 99]));
        assert!(s.best_path(0).is_none(), "path containing self rejected");
        assert!(actions.is_empty());
    }

    #[test]
    fn customer_routes_exported_to_all_but_source() {
        let mut s = speaker_with(&[
            (1, Relationship::Customer),
            (2, Relationship::Peer),
            (3, Relationship::Provider),
        ]);
        let actions = s.receive_announce(0, Asn(1), AsPath::new([1u32, 99]));
        let targets: BTreeSet<Asn> = actions
            .iter()
            .filter_map(|a| match a {
                ExportAction::Announce { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, [Asn(2), Asn(3)].into_iter().collect());
        // Exported path is prepended with our ASN.
        if let ExportAction::Announce { path, .. } = &actions[0] {
            assert_eq!(path.first_hop(), Some(Asn(10)));
        } else {
            panic!("expected announce");
        }
    }

    #[test]
    fn provider_routes_only_exported_to_customers() {
        let mut s = speaker_with(&[
            (1, Relationship::Customer),
            (2, Relationship::Peer),
            (3, Relationship::Provider),
        ]);
        let actions = s.receive_announce(0, Asn(3), AsPath::new([3u32, 99]));
        let targets: Vec<Asn> = actions
            .iter()
            .filter_map(|a| match a {
                ExportAction::Announce { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![Asn(1)]);
    }

    #[test]
    fn losing_best_route_sends_withdrawals() {
        let mut s = speaker_with(&[(1, Relationship::Customer), (2, Relationship::Peer)]);
        s.receive_announce(0, Asn(1), AsPath::new([1u32, 99]));
        let actions = s.receive_withdraw(0, Asn(1));
        assert!(s.best_path(0).is_none());
        assert!(actions.contains(&ExportAction::Withdraw { to: Asn(2) }));
    }

    #[test]
    fn best_change_to_unexportable_route_withdraws_from_peers() {
        let mut s = speaker_with(&[(1, Relationship::Customer), (2, Relationship::Peer)]);
        // Customer route: exported to peer 2.
        s.receive_announce(0, Asn(1), AsPath::new([1u32, 99]));
        // Customer withdraws; only a peer route (from 2) would remain... none here,
        // so add a provider-free scenario: new route learned from peer 2 itself.
        let actions = s.receive_withdraw(0, Asn(1));
        assert_eq!(actions, vec![ExportAction::Withdraw { to: Asn(2) }]);
    }

    #[test]
    fn self_origination_is_sticky_and_preferred() {
        let mut s = speaker_with(&[(1, Relationship::Customer)]);
        s.originate(1);
        let actions = s.exports_for(1);
        assert!(matches!(&actions[0], ExportAction::Announce { to, path }
            if *to == Asn(1) && path.hops() == [Asn(10)]));
        // A learned route never displaces self-origination.
        s.receive_announce(1, Asn(1), AsPath::new([1u32, 99]));
        assert_eq!(s.best_path(1), Some(AsPath::empty()));
    }

    #[test]
    fn drop_neighbor_routes_reports_affected_origins() {
        let mut s = speaker_with(&[(1, Relationship::Customer), (2, Relationship::Peer)]);
        s.receive_announce(0, Asn(1), AsPath::new([1u32, 99]));
        s.receive_announce(2, Asn(1), AsPath::new([1u32, 98]));
        s.receive_announce(3, Asn(2), AsPath::new([2u32, 97]));
        s.remove_neighbor(Asn(1));
        let affected = s.drop_neighbor_routes(Asn(1));
        assert_eq!(affected, vec![0, 2]);
        assert!(s.relationship(Asn(1)).is_none());
    }

    #[test]
    fn reselection_is_idempotent_without_changes() {
        let mut s = speaker_with(&[(1, Relationship::Customer)]);
        s.receive_announce(0, Asn(1), AsPath::new([1u32, 99]));
        assert!(s.reselect(0).is_empty(), "no change → no exports");
    }
}
