//! Random hyperbolic graph generation.
//!
//! The paper generates its 1,000-AS evaluation topology with the Hyperbolic
//! Graph Generator of Aldecoa, Orsini and Krioukov (2015): nodes are placed in
//! a hyperbolic disk (radial density controlled by the target power-law
//! exponent, angles uniform) and two nodes are adjacent when their hyperbolic
//! distance is below a connection radius. Degree heterogeneity emerges from the
//! radial coordinate — nodes near the centre become the high-degree "core"
//! (Internet-like), while peripheral nodes are stubs.
//!
//! Instead of deriving the connection radius analytically, [`HyperbolicGenerator`]
//! computes all pairwise distances and picks the radius that exactly yields the
//! requested average degree; this makes the target (8.4 in the paper) hit
//! deterministically for any seed.

use crate::graph::AsGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swift_bgp::Asn;

/// Configuration of the hyperbolic graph generator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HyperbolicConfig {
    /// Number of ASes to generate (paper: 1,000).
    pub nodes: usize,
    /// Target average node degree (paper: 8.4, the CAIDA Oct-2016 value).
    pub target_avg_degree: f64,
    /// Target power-law exponent of the degree distribution (paper: 2.1).
    pub gamma: f64,
    /// RNG seed; the same seed always yields the same graph.
    pub seed: u64,
}

impl Default for HyperbolicConfig {
    fn default() -> Self {
        HyperbolicConfig {
            nodes: 1_000,
            target_avg_degree: 8.4,
            gamma: 2.1,
            seed: 0x5717_f00d,
        }
    }
}

/// A generator producing connected, degree-calibrated hyperbolic graphs.
#[derive(Debug, Clone)]
pub(crate) struct HyperbolicGenerator {
    config: HyperbolicConfig,
}

/// Polar coordinates of a node in the hyperbolic disk.
#[derive(Debug, Clone, Copy)]
struct Coord {
    r: f64,
    theta: f64,
}

impl HyperbolicGenerator {
    /// Creates a generator with the given configuration.
    pub(crate) fn new(config: HyperbolicConfig) -> Self {
        HyperbolicGenerator { config }
    }

    /// Generates the graph. ASes are numbered `1..=nodes`.
    ///
    /// The result is always connected: after thresholding on the connection
    /// radius, any remaining components are attached to the giant component
    /// through their hyperbolically-closest node pair (mirroring what the
    /// reference generator achieves with its own post-processing).
    pub(crate) fn generate(&self) -> AsGraph {
        let n = self.config.nodes;
        let mut graph = AsGraph::new();
        for i in 1..=n {
            graph.add_node(i as u32);
        }
        if n < 2 {
            return graph;
        }

        let coords = self.sample_coordinates();
        let mut distances: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                distances.push((hyperbolic_distance(&coords[i], &coords[j]), i, j));
            }
        }
        distances.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Pick exactly the number of edges that yields the target average degree.
        let target_edges = ((self.config.target_avg_degree * n as f64) / 2.0).round() as usize;
        let target_edges = target_edges.min(distances.len());
        for &(_, i, j) in distances.iter().take(target_edges) {
            graph.add_edge((i + 1) as u32, (j + 1) as u32);
        }

        self.connect_components(&mut graph, &coords);
        graph
    }

    /// Samples radial and angular coordinates.
    ///
    /// The radial density `ρ(r) ∝ sinh(α·r)` with `α = (γ − 1) / 2` produces a
    /// degree distribution with power-law exponent `γ` in the thresholded
    /// graph; angles are uniform.
    fn sample_coordinates(&self) -> Vec<Coord> {
        let n = self.config.nodes;
        let alpha = (self.config.gamma - 1.0) / 2.0;
        // Disk radius: the standard choice R0 ~ 2 ln N.
        let r0 = 2.0 * (n as f64).ln();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let cosh_max = (alpha * r0).cosh();
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                // Inverse CDF of ρ(r) ∝ sinh(α r) on [0, R0].
                let r = ((1.0 + u * (cosh_max - 1.0)).acosh()) / alpha;
                let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                Coord { r, theta }
            })
            .collect()
    }

    /// Attaches every non-giant component to the giant component by its
    /// hyperbolically-closest cross-component node pair.
    fn connect_components(&self, graph: &mut AsGraph, coords: &[Coord]) {
        loop {
            let components = graph.connected_components();
            if components.len() <= 1 {
                return;
            }
            // Identify the giant component.
            let giant_idx = components
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| c.len())
                .map(|(i, _)| i)
                .expect("components.len() > 1 checked above");
            let giant: std::collections::BTreeSet<Asn> =
                components[giant_idx].iter().copied().collect();

            // Attach each other component via its closest pair to the giant.
            for (idx, comp) in components.iter().enumerate() {
                if idx == giant_idx {
                    continue;
                }
                let mut best: Option<(f64, Asn, Asn)> = None;
                for a in comp {
                    for b in &giant {
                        let d = hyperbolic_distance(
                            &coords[(a.value() - 1) as usize],
                            &coords[(b.value() - 1) as usize],
                        );
                        if best.map(|(bd, _, _)| d < bd).unwrap_or(true) {
                            best = Some((d, *a, *b));
                        }
                    }
                }
                if let Some((_, a, b)) = best {
                    graph.add_edge(a, b);
                }
            }
        }
    }
}

/// Hyperbolic distance between two points in the native (polar) representation.
fn hyperbolic_distance(a: &Coord, b: &Coord) -> f64 {
    if (a.r - b.r).abs() < f64::EPSILON && (a.theta - b.theta).abs() < f64::EPSILON {
        return 0.0;
    }
    let dtheta = std::f64::consts::PI - ((std::f64::consts::PI - (a.theta - b.theta).abs()).abs());
    let arg = a.r.cosh() * b.r.cosh() - a.r.sinh() * b.r.sinh() * dtheta.cos();
    // Numerical noise can push the argument slightly below 1.
    arg.max(1.0).acosh()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> HyperbolicConfig {
        HyperbolicConfig {
            nodes: 200,
            target_avg_degree: 8.4,
            gamma: 2.1,
            seed,
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Coord { r: 3.0, theta: 0.5 };
        let b = Coord { r: 5.0, theta: 2.5 };
        let ab = hyperbolic_distance(&a, &b);
        let ba = hyperbolic_distance(&b, &a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab > 0.0);
        assert_eq!(hyperbolic_distance(&a, &a), 0.0);
    }

    #[test]
    fn generates_requested_node_count_and_degree() {
        let g = HyperbolicGenerator::new(small_config(1)).generate();
        assert_eq!(g.node_count(), 200);
        // Component-connection may add a handful of extra edges beyond the
        // exact target, so allow a small overshoot only.
        let avg = g.average_degree();
        assert!(
            (8.3..=9.5).contains(&avg),
            "average degree {avg} out of range"
        );
    }

    #[test]
    fn generated_graph_is_connected() {
        for seed in 0..3 {
            let g = HyperbolicGenerator::new(small_config(seed)).generate();
            assert!(
                g.is_connected(),
                "seed {seed} produced a disconnected graph"
            );
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = HyperbolicGenerator::new(HyperbolicConfig {
            nodes: 500,
            ..small_config(7)
        })
        .generate();
        let degrees: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        let max = *degrees.iter().max().unwrap();
        let avg = g.average_degree();
        // A heavy-tailed (power-law-like) distribution has a hub far above the
        // mean; for γ=2.1 and n=500 the largest hub is typically >5× the mean.
        assert!(
            (max as f64) > 4.0 * avg,
            "max degree {max} not much larger than average {avg}"
        );
        // And most nodes sit below the mean.
        let below = degrees.iter().filter(|d| (**d as f64) < avg).count();
        assert!(below * 2 > degrees.len());
    }

    #[test]
    fn same_seed_same_graph_different_seed_different_graph() {
        let a = HyperbolicGenerator::new(small_config(42)).generate();
        let b = HyperbolicGenerator::new(small_config(42)).generate();
        let c = HyperbolicGenerator::new(small_config(43)).generate();
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        let ec: Vec<_> = c.edges().collect();
        assert_eq!(ea, eb);
        assert_ne!(ea, ec);
    }

    #[test]
    fn tiny_graphs_are_handled() {
        let g = HyperbolicGenerator::new(HyperbolicConfig {
            nodes: 1,
            ..small_config(0)
        })
        .generate();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        let g2 = HyperbolicGenerator::new(HyperbolicConfig {
            nodes: 2,
            target_avg_degree: 1.0,
            ..small_config(0)
        })
        .generate();
        assert_eq!(g2.node_count(), 2);
        assert!(g2.is_connected());
    }

    #[test]
    fn default_config_matches_paper_parameters() {
        let c = HyperbolicConfig::default();
        assert_eq!(c.nodes, 1_000);
        assert!((c.target_avg_degree - 8.4).abs() < 1e-9);
        assert!((c.gamma - 2.1).abs() < 1e-9);
    }
}
