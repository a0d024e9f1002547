//! The AS-level graph: nodes are ASes, edges are inter-AS adjacencies.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use swift_bgp::{AsLink, Asn};

/// An undirected AS-level graph.
///
/// Edges are stored undirected (canonical endpoint order) but can be queried
/// with either orientation. Node and edge iteration order is deterministic
/// (ascending AS number), which keeps every downstream simulation reproducible.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    adjacency: BTreeMap<Asn, BTreeSet<Asn>>,
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node without any edges (idempotent).
    pub fn add_node(&mut self, asn: impl Into<Asn>) {
        self.adjacency.entry(asn.into()).or_default();
    }

    /// Adds an undirected edge, creating the endpoints if necessary.
    /// Self-loops are ignored. Returns `true` if the edge was new.
    pub fn add_edge(&mut self, a: impl Into<Asn>, b: impl Into<Asn>) -> bool {
        let (a, b) = (a.into(), b.into());
        if a == b {
            return false;
        }
        let new1 = self.adjacency.entry(a).or_default().insert(b);
        let new2 = self.adjacency.entry(b).or_default().insert(a);
        new1 || new2
    }

    /// Returns `true` if the node exists.
    pub fn has_node(&self, asn: Asn) -> bool {
        self.adjacency.contains_key(&asn)
    }

    /// Returns `true` if the undirected edge exists.
    pub fn has_edge(&self, a: Asn, b: Asn) -> bool {
        self.adjacency
            .get(&a)
            .map(|s| s.contains(&b))
            .unwrap_or(false)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Degree of a node (0 if absent).
    pub fn degree(&self, asn: Asn) -> usize {
        self.adjacency.get(&asn).map(|s| s.len()).unwrap_or(0)
    }

    /// Average node degree (`2 * |E| / |V|`), 0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.adjacency.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Iterates over the nodes in ascending AS number.
    pub fn nodes(&self) -> impl Iterator<Item = Asn> + '_ {
        self.adjacency.keys().copied()
    }

    /// Iterates over a node's neighbours in ascending AS number.
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.adjacency
            .get(&asn)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Iterates over the undirected edges, each reported once with
    /// `from < to`, in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = AsLink> + '_ {
        self.adjacency.iter().flat_map(|(a, nbrs)| {
            nbrs.iter()
                .filter(move |b| *a < **b)
                .map(move |b| AsLink::new(*a, *b))
        })
    }

    /// The nodes sorted by decreasing degree (ties broken by AS number).
    pub fn nodes_by_degree(&self) -> Vec<Asn> {
        let mut nodes: Vec<Asn> = self.nodes().collect();
        nodes.sort_by_key(|a| (std::cmp::Reverse(self.degree(*a)), *a));
        nodes
    }

    /// Breadth-first distances (in hops) from `source` to every reachable node.
    pub fn bfs_distances(&self, source: Asn) -> BTreeMap<Asn, usize> {
        let mut dist = BTreeMap::new();
        if !self.has_node(source) {
            return dist;
        }
        dist.insert(source, 0);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            for v in self.neighbors(u) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Multi-source BFS levels: distance from the nearest of the `sources`.
    pub fn bfs_levels(&self, sources: &[Asn]) -> BTreeMap<Asn, usize> {
        let mut dist = BTreeMap::new();
        let mut queue = VecDeque::new();
        for s in sources {
            if self.has_node(*s) && !dist.contains_key(s) {
                dist.insert(*s, 0);
                queue.push_back(*s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            for v in self.neighbors(u) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The connected components, each a sorted list of ASes; components are
    /// ordered by their smallest member.
    pub fn connected_components(&self) -> Vec<Vec<Asn>> {
        let mut seen: BTreeSet<Asn> = BTreeSet::new();
        let mut components = Vec::new();
        for n in self.nodes() {
            if seen.contains(&n) {
                continue;
            }
            let comp: Vec<Asn> = self.bfs_distances(n).keys().copied().collect();
            seen.extend(comp.iter().copied());
            components.push(comp);
        }
        components
    }
}

#[cfg(test)]
impl AsGraph {
    /// Returns `true` if every node is reachable from every other node.
    pub(crate) fn is_connected(&self) -> bool {
        match self.nodes().next() {
            None => true,
            Some(first) => self.bfs_distances(first).len() == self.node_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asn(i: u32) -> Asn {
        Asn(i)
    }

    fn triangle() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_edge(1u32, 2u32);
        g.add_edge(2u32, 3u32);
        g.add_edge(3u32, 1u32);
        g
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = AsGraph::new();
        assert!(g.add_edge(1u32, 2u32));
        assert!(!g.add_edge(2u32, 1u32), "edge is undirected");
        assert!(!g.add_edge(1u32, 1u32), "self loops ignored");
        assert!(g.has_edge(asn(1), asn(2)));
        assert!(g.has_edge(asn(2), asn(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn degree_and_average() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 2);
        }
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.degree(asn(99)), 0);
    }

    #[test]
    fn edges_reported_once_in_order() {
        let g = triangle();
        let edges: Vec<AsLink> = g.edges().collect();
        assert_eq!(
            edges,
            vec![AsLink::new(1, 2), AsLink::new(1, 3), AsLink::new(2, 3)]
        );
    }

    #[test]
    fn bfs_distances_line_graph() {
        let mut g = AsGraph::new();
        for i in 1..5u32 {
            g.add_edge(i, i + 1);
        }
        let d = g.bfs_distances(asn(1));
        assert_eq!(d[&asn(1)], 0);
        assert_eq!(d[&asn(3)], 2);
        assert_eq!(d[&asn(5)], 4);
    }

    #[test]
    fn multi_source_bfs() {
        let mut g = AsGraph::new();
        for i in 1..7u32 {
            g.add_edge(i, i + 1);
        }
        let levels = g.bfs_levels(&[asn(1), asn(7)]);
        assert_eq!(levels[&asn(1)], 0);
        assert_eq!(levels[&asn(7)], 0);
        assert_eq!(levels[&asn(4)], 3);
        assert_eq!(levels[&asn(2)], 1);
        assert_eq!(levels[&asn(6)], 1);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = triangle();
        assert!(g.is_connected());
        g.add_edge(10u32, 11u32);
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![asn(1), asn(2), asn(3)]);
        assert_eq!(comps[1], vec![asn(10), asn(11)]);
        assert!(AsGraph::new().is_connected(), "empty graph is connected");
    }

    #[test]
    fn nodes_by_degree_ordering() {
        let mut g = AsGraph::new();
        g.add_edge(1u32, 2u32);
        g.add_edge(1u32, 3u32);
        g.add_edge(1u32, 4u32);
        g.add_edge(2u32, 3u32);
        let order = g.nodes_by_degree();
        assert_eq!(order[0], asn(1));
        assert_eq!(order[1], asn(2));
        assert_eq!(*order.last().unwrap(), asn(4));
    }
}
