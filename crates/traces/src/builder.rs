//! Topology assembly: graph + tiers + relationships + originated prefixes.

use crate::graph::AsGraph;
use crate::hyperbolic::{HyperbolicConfig, HyperbolicGenerator};
use crate::relationships::TierMap;
use std::collections::BTreeMap;
use swift_bgp::{AsLink, Asn, Prefix};

/// Configuration of a generated topology (defaults match the paper, §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Number of ASes (paper: 1,000).
    pub num_ases: usize,
    /// Target average degree (paper: 8.4).
    pub avg_degree: f64,
    /// Power-law exponent of the degree distribution (paper: 2.1).
    pub gamma: f64,
    /// Number of highest-degree ASes forming the fully-meshed Tier-1 clique
    /// (paper: 3).
    pub tier1_count: usize,
    /// Number of prefixes each AS originates (paper: 20, 20k total).
    pub prefixes_per_as: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            num_ases: 1_000,
            avg_degree: 8.4,
            gamma: 2.1,
            tier1_count: 3,
            prefixes_per_as: 20,
            seed: 0x5717_f00d,
        }
    }
}

/// A complete AS-level topology: the graph, the tier/relationship labelling and
/// the prefixes each AS originates.
#[derive(Debug, Clone)]
pub struct Topology {
    graph: AsGraph,
    tiers: TierMap,
    origins: BTreeMap<Asn, Vec<Prefix>>,
}

impl Topology {
    /// Generates a topology according to `config` (hyperbolic graph, Tier-1
    /// meshing, tier-derived relationships, per-AS prefix origination).
    pub fn generate(config: &TopologyConfig) -> Self {
        let mut graph = HyperbolicGenerator::new(HyperbolicConfig {
            nodes: config.num_ases,
            target_avg_degree: config.avg_degree,
            gamma: config.gamma,
            seed: config.seed,
        })
        .generate();
        let tiers = TierMap::assign(&graph, config.tier1_count);
        tiers.mesh_tier1(&mut graph);
        let origins = Self::assign_prefixes(&graph, config.prefixes_per_as);
        Topology {
            graph,
            tiers,
            origins,
        }
    }

    /// The Fig. 1 topology of the paper with the paper's prefix counts
    /// (S6 = 1k, S7 = 10k, S8 = 10k). See [`Topology::figure1_with_counts`].
    pub fn figure1() -> Self {
        Self::figure1_with_counts(1_000, 10_000, 10_000)
    }

    /// The Fig. 1 topology of the paper with configurable prefix counts for
    /// AS 6, AS 7 and AS 8 (the other ASes originate 10 prefixes each so that
    /// the "ASes inject at least one prefix per adjacent link" soundness
    /// condition of Theorem 4.1 holds).
    ///
    /// Edges: 1–2, 1–3, 1–4, 2–5, 4–5, 5–6, 3–6, 6–7, 6–8.
    /// Tiers: {5, 6} are Tier-1; {2, 3, 4, 7, 8} are Tier-2; {1} is Tier-3.
    pub fn figure1_with_counts(s6: usize, s7: usize, s8: usize) -> Self {
        let mut graph = AsGraph::new();
        for (a, b) in [
            (1u32, 2u32),
            (1, 3),
            (1, 4),
            (2, 5),
            (4, 5),
            (5, 6),
            (3, 6),
            (6, 7),
            (6, 8),
        ] {
            graph.add_edge(a, b);
        }
        let tiers: TierMap = [
            (Asn(5), 1),
            (Asn(6), 1),
            (Asn(2), 2),
            (Asn(3), 2),
            (Asn(4), 2),
            (Asn(7), 2),
            (Asn(8), 2),
            (Asn(1), 3),
        ]
        .into_iter()
        .collect();

        let mut origins: BTreeMap<Asn, Vec<Prefix>> = BTreeMap::new();
        let mut next = 0u32;
        let mut take = |count: usize| -> Vec<Prefix> {
            let v: Vec<Prefix> = (0..count)
                .map(|i| Prefix::nth_slash24(next + i as u32))
                .collect();
            next += count as u32;
            v
        };
        for asn in [1u32, 2, 3, 4, 5] {
            origins.insert(Asn(asn), take(10));
        }
        origins.insert(Asn(6), take(s6));
        origins.insert(Asn(7), take(s7));
        origins.insert(Asn(8), take(s8));

        Topology {
            graph,
            tiers,
            origins,
        }
    }

    /// Deterministically assigns `per_as` prefixes to every AS, in AS order.
    fn assign_prefixes(graph: &AsGraph, per_as: usize) -> BTreeMap<Asn, Vec<Prefix>> {
        let mut origins = BTreeMap::new();
        let mut next = 0u32;
        for asn in graph.nodes() {
            let prefixes: Vec<Prefix> = (0..per_as)
                .map(|i| Prefix::nth_slash24(next + i as u32))
                .collect();
            next += per_as as u32;
            origins.insert(asn, prefixes);
        }
        origins
    }

    /// The AS graph.
    pub fn graph(&self) -> &AsGraph {
        &self.graph
    }

    /// The tier assignment.
    pub fn tiers(&self) -> &TierMap {
        &self.tiers
    }

    /// The prefixes originated by `asn` (empty slice if unknown).
    pub fn originated_prefixes(&self, asn: Asn) -> &[Prefix] {
        self.origins.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of originated prefixes.
    pub fn total_prefixes(&self) -> usize {
        self.origins.values().map(Vec::len).sum()
    }

    /// All undirected AS links.
    pub fn links(&self) -> Vec<AsLink> {
        self.graph.edges().collect()
    }

    /// Number of ASes.
    pub fn num_ases(&self) -> usize {
        self.graph.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationships::Relationship;

    #[test]
    fn figure1_structure() {
        let t = Topology::figure1_with_counts(10, 100, 100);
        assert_eq!(t.num_ases(), 8);
        assert_eq!(t.graph().edge_count(), 9);
        assert_eq!(t.originated_prefixes(Asn(6)).len(), 10);
        assert_eq!(t.originated_prefixes(Asn(7)).len(), 100);
        assert_eq!(t.originated_prefixes(Asn(8)).len(), 100);
        assert_eq!(t.total_prefixes(), 10 + 100 + 100 + 5 * 10);
        // All prefixes are distinct.
        let all: std::collections::HashSet<_> = t.origins.values().flatten().copied().collect();
        assert_eq!(all.len(), t.total_prefixes());
    }

    #[test]
    fn figure1_relationships() {
        let t = Topology::figure1();
        let tiers = t.tiers();
        assert_eq!(tiers.relationship(Asn(5), Asn(6)), Some(Relationship::Peer));
        assert_eq!(
            tiers.relationship(Asn(1), Asn(2)),
            Some(Relationship::Provider),
            "AS 2 is a provider of AS 1"
        );
        assert_eq!(
            tiers.relationship(Asn(6), Asn(8)),
            Some(Relationship::Customer),
            "AS 8 is a customer of AS 6"
        );
        assert!(!t.graph().has_edge(Asn(1), Asn(6)), "not adjacent");
    }

    #[test]
    fn figure1_paper_prefix_counts() {
        let t = Topology::figure1();
        assert_eq!(t.originated_prefixes(Asn(6)).len(), 1_000);
        assert_eq!(t.originated_prefixes(Asn(7)).len(), 10_000);
        assert_eq!(t.originated_prefixes(Asn(8)).len(), 10_000);
    }

    #[test]
    fn generated_topology_matches_config() {
        let config = TopologyConfig {
            num_ases: 150,
            prefixes_per_as: 3,
            seed: 11,
            ..Default::default()
        };
        let t = Topology::generate(&config);
        assert_eq!(t.num_ases(), 150);
        assert_eq!(t.total_prefixes(), 450);
        assert!(t.graph().is_connected());
        // Tier-1 clique is meshed.
        let tier1 = t.tiers().ases_in_tier(1);
        assert_eq!(tier1.len(), config.tier1_count);
        for a in &tier1 {
            for b in &tier1 {
                if a != b {
                    assert!(t.graph().has_edge(*a, *b));
                }
            }
        }
        // Every AS has a tier and at least one neighbour.
        for asn in t.graph().nodes() {
            assert!(t.tiers().tier(asn).is_some());
            assert!(t.graph().degree(asn) >= 1);
        }
    }

    #[test]
    fn generated_topology_is_deterministic() {
        let config = TopologyConfig {
            num_ases: 100,
            seed: 5,
            ..Default::default()
        };
        let a = Topology::generate(&config);
        let b = Topology::generate(&config);
        assert_eq!(a.links(), b.links());
        assert_eq!(
            a.originated_prefixes(Asn(50)),
            b.originated_prefixes(Asn(50))
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = TopologyConfig::default();
        assert_eq!(c.num_ases, 1_000);
        assert_eq!(c.prefixes_per_as, 20);
        assert_eq!(c.tier1_count, 3);
    }
}
