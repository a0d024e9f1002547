//! AS business relationships and tier assignment.
//!
//! The paper derives relationships from the generated graph as follows (§6.1):
//! the three highest-degree ASes are Tier-1s and fully meshed; ASes directly
//! connected to a Tier-1 are Tier-2s; ASes connected to a Tier-2 but not a
//! Tier-1 are Tier-3s, and so on. Two connected ASes on the same level have a
//! peer-to-peer relationship; otherwise the lower-tier (larger tier number) AS
//! is the customer of the higher-tier one.

use crate::graph::AsGraph;
use std::collections::BTreeMap;
use swift_bgp::Asn;

/// The role of a neighbour relative to a given AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// The neighbour is a customer of this AS (this AS provides transit).
    Customer,
    /// The neighbour is a provider of this AS (this AS buys transit).
    Provider,
    /// The neighbour is a settlement-free peer.
    Peer,
}

/// Tier assignment and pairwise relationships for a topology.
#[derive(Debug, Clone, Default)]
pub struct TierMap {
    tiers: BTreeMap<Asn, usize>,
}

impl TierMap {
    /// Assigns tiers to every AS of `graph`.
    ///
    /// `tier1_count` highest-degree ASes become Tier-1 (tier number 1); every
    /// other AS gets `1 + (BFS distance to the nearest Tier-1)`. The paper uses
    /// `tier1_count = 3`. The Tier-1 clique is **not** added here — callers that
    /// want a full mesh (as the paper does) should call
    /// [`TierMap::mesh_tier1`] before building relationships.
    pub fn assign(graph: &AsGraph, tier1_count: usize) -> Self {
        let by_degree = graph.nodes_by_degree();
        let tier1: Vec<Asn> = by_degree.into_iter().take(tier1_count).collect();
        let levels = graph.bfs_levels(&tier1);
        let mut tiers = BTreeMap::new();
        for node in graph.nodes() {
            // Unreachable nodes (disconnected from every Tier-1) get a deep tier.
            let level = levels.get(&node).copied().unwrap_or(usize::MAX - 1);
            tiers.insert(node, level + 1);
        }
        TierMap { tiers }
    }

    /// Adds the missing edges of the Tier-1 full mesh to `graph`.
    pub fn mesh_tier1(&self, graph: &mut AsGraph) {
        let tier1: Vec<Asn> = self.ases_in_tier(1);
        for (i, a) in tier1.iter().enumerate() {
            for b in &tier1[i + 1..] {
                graph.add_edge(*a, *b);
            }
        }
    }

    /// The tier number of an AS (1 = Tier-1). `None` if unknown.
    pub fn tier(&self, asn: Asn) -> Option<usize> {
        self.tiers.get(&asn).copied()
    }

    /// All ASes in a given tier, ascending AS number.
    pub fn ases_in_tier(&self, tier: usize) -> Vec<Asn> {
        self.tiers
            .iter()
            .filter(|(_, t)| **t == tier)
            .map(|(a, _)| *a)
            .collect()
    }

    /// The relationship of `neighbor` relative to `asn` for a direct adjacency:
    /// same tier → peer; deeper tier → customer; shallower tier → provider.
    ///
    /// Returns `None` if either AS has no tier assigned.
    pub fn relationship(&self, asn: Asn, neighbor: Asn) -> Option<Relationship> {
        let ta = self.tier(asn)?;
        let tb = self.tier(neighbor)?;
        Some(match tb.cmp(&ta) {
            std::cmp::Ordering::Equal => Relationship::Peer,
            std::cmp::Ordering::Greater => Relationship::Customer,
            std::cmp::Ordering::Less => Relationship::Provider,
        })
    }
}

impl FromIterator<(Asn, usize)> for TierMap {
    /// Builds a tier map from explicit `(asn, tier)` assignments — used by
    /// hand-crafted fixtures such as the paper's Fig. 1 topology.
    fn from_iter<T: IntoIterator<Item = (Asn, usize)>>(iter: T) -> Self {
        TierMap {
            tiers: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small 3-level topology:
    ///
    /// ```text
    ///   1 --- 2        (high-degree cores)
    ///   |     |
    ///   3     4        (connected to cores)
    ///   |     |
    ///   5     6        (stubs)
    /// ```
    fn small_graph() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_edge(1u32, 2u32);
        g.add_edge(1u32, 3u32);
        g.add_edge(2u32, 4u32);
        g.add_edge(3u32, 5u32);
        g.add_edge(4u32, 6u32);
        // Boost the degree of 1 and 2 so they are picked as Tier-1s.
        g.add_edge(1u32, 7u32);
        g.add_edge(2u32, 7u32);
        g
    }

    #[test]
    fn tier_assignment_levels() {
        let g = small_graph();
        let tiers = TierMap::assign(&g, 2);
        assert_eq!(tiers.tier(Asn(1)), Some(1));
        assert_eq!(tiers.tier(Asn(2)), Some(1));
        assert_eq!(tiers.tier(Asn(3)), Some(2));
        assert_eq!(tiers.tier(Asn(4)), Some(2));
        assert_eq!(tiers.tier(Asn(7)), Some(2));
        assert_eq!(tiers.tier(Asn(5)), Some(3));
        assert_eq!(tiers.tier(Asn(6)), Some(3));
        assert_eq!(tiers.ases_in_tier(1), vec![Asn(1), Asn(2)]);
    }

    #[test]
    fn relationships_follow_tiers() {
        let g = small_graph();
        let tiers = TierMap::assign(&g, 2);
        // 1 and 2 are both Tier-1 → peers.
        assert_eq!(tiers.relationship(Asn(1), Asn(2)), Some(Relationship::Peer));
        // 3 is below 1 → 3 is a customer of 1; 1 is a provider of 3.
        assert_eq!(
            tiers.relationship(Asn(1), Asn(3)),
            Some(Relationship::Customer)
        );
        assert_eq!(
            tiers.relationship(Asn(3), Asn(1)),
            Some(Relationship::Provider)
        );
        assert_eq!(tiers.relationship(Asn(3), Asn(99)), None);
    }

    #[test]
    fn tier1_meshing_adds_missing_edges() {
        let mut g = AsGraph::new();
        // Three hubs not directly connected to each other.
        for hub in [1u32, 2, 3] {
            for leaf in 0..4u32 {
                g.add_edge(hub, 10 + hub * 10 + leaf);
            }
        }
        let tiers = TierMap::assign(&g, 3);
        assert_eq!(tiers.ases_in_tier(1), vec![Asn(1), Asn(2), Asn(3)]);
        assert!(!g.has_edge(Asn(1), Asn(2)));
        tiers.mesh_tier1(&mut g);
        assert!(g.has_edge(Asn(1), Asn(2)));
        assert!(g.has_edge(Asn(1), Asn(3)));
        assert!(g.has_edge(Asn(2), Asn(3)));
    }

    #[test]
    fn iter_yields_all() {
        let g = small_graph();
        let tiers = TierMap::assign(&g, 2);
        assert_eq!(tiers.tiers.len(), 7);
        assert!(tiers.tiers.values().all(|t| (1..=3).contains(t)));
    }
}
