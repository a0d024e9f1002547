//! The BGP propagation engine (C-BGP stand-in).
//!
//! [`Engine`] computes policy-compliant routing for a [`Topology`], then
//! replays link failures and records the resulting message streams on a
//! monitored session. Processing is event-driven and deterministic: messages
//! are delivered in FIFO order, all per-speaker state uses ordered maps, and no
//! randomness is involved — the same topology and failure always produce the
//! same burst.
//!
//! Like C-BGP, the engine is a *convergence computer*: it determines which
//! messages cross each session and in which order, not their wall-clock
//! timing. Timing is added when bursts are expanded into per-prefix streams
//! (see [`crate::collector::GroundTruthBurst::to_message_stream`]).

use crate::collector::{CapturedMessage, GroundTruthBurst};
use crate::speaker::{ExportAction, OriginIdx, Speaker};
use std::collections::{BTreeMap, VecDeque};
use swift_bgp::{AsLink, AsPath, Asn, PeerId, Route, RouteAttributes, RoutingTable};
use swift_topology::Topology;

/// A control-plane message in flight between two adjacent speakers.
#[derive(Debug, Clone)]
struct Msg {
    from: Asn,
    to: Asn,
    origin: OriginIdx,
    /// `Some(path)` announces, `None` withdraws.
    path: Option<AsPath>,
}

/// Statistics of a propagation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages delivered (including those dropped on failed adjacencies).
    pub messages_processed: u64,
    /// Messages captured on the monitored session, if any.
    pub messages_captured: u64,
}

/// The propagation engine.
#[derive(Debug, Clone)]
pub struct Engine {
    topology: Topology,
    speakers: BTreeMap<Asn, Speaker>,
    /// Dense origin index: origins[i] is the AS originating destination i.
    origin_ases: Vec<Asn>,
    origin_index: BTreeMap<Asn, OriginIdx>,
    queue: VecDeque<Msg>,
    monitor: Option<(Asn, Asn)>,
    captured: Vec<CapturedMessage>,
}

impl Engine {
    /// Builds an engine for `topology`. Call [`Engine::converge`] before
    /// failing links or reading routing state.
    pub fn new(topology: Topology) -> Self {
        let origin_ases: Vec<Asn> = topology.graph().nodes().collect();
        let origin_index: BTreeMap<Asn, OriginIdx> = origin_ases
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, i))
            .collect();
        let speakers: BTreeMap<Asn, Speaker> = topology
            .graph()
            .nodes()
            .map(|asn| {
                let neighbors = topology
                    .graph()
                    .neighbors(asn)
                    .filter_map(|n| topology.tiers().relationship(asn, n).map(|r| (n, r)))
                    .collect();
                (asn, Speaker::new(asn, neighbors, origin_ases.len()))
            })
            .collect();
        Engine {
            topology,
            speakers,
            origin_ases,
            origin_index,
            queue: VecDeque::new(),
            monitor: None,
            captured: Vec::new(),
        }
    }

    /// The topology the engine routes over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Originates every AS's destinations and processes messages to
    /// convergence. Returns the number of messages processed.
    pub fn converge(&mut self) -> RunStats {
        for (idx, asn) in self.origin_ases.clone().into_iter().enumerate() {
            let speaker = self.speakers.get_mut(&asn).expect("speaker exists");
            speaker.originate(idx);
            let actions = speaker.exports_for(idx);
            self.enqueue(asn, idx, actions);
        }
        self.drain_queue()
    }

    /// Starts capturing the messages that `vantage` receives from `neighbor`.
    pub fn monitor_session(&mut self, vantage: Asn, neighbor: Asn) {
        self.monitor = Some((vantage, neighbor));
        self.captured.clear();
    }

    /// Fails the (undirected) link between `a` and `b` and processes the
    /// resulting messages to convergence. Captured messages (if a session is
    /// monitored) are available through [`Engine::take_burst`].
    pub fn fail_link(&mut self, a: Asn, b: Asn) -> RunStats {
        for (x, y) in [(a, b), (b, a)] {
            if let Some(speaker) = self.speakers.get_mut(&x) {
                speaker.remove_neighbor(y);
                let affected = speaker.drop_neighbor_routes(y);
                let mut all_actions = Vec::new();
                for idx in affected {
                    let actions = speaker.reselect(idx);
                    all_actions.push((idx, actions));
                }
                for (idx, actions) in all_actions {
                    self.enqueue(x, idx, actions);
                }
            }
        }
        self.drain_queue()
    }

    /// Takes the burst captured since the last call to
    /// [`Engine::monitor_session`], labelled with the ground-truth failed link.
    pub fn take_burst(&mut self, failed_link: AsLink) -> GroundTruthBurst {
        let (vantage, neighbor) = self
            .monitor
            .expect("monitor_session must be called before take_burst");
        GroundTruthBurst {
            vantage,
            neighbor,
            failed_link: failed_link.undirected(),
            captured: std::mem::take(&mut self.captured),
        }
    }

    /// Queues the export actions produced by `from` for `origin`.
    fn enqueue(&mut self, from: Asn, origin: OriginIdx, actions: Vec<ExportAction>) {
        for action in actions {
            let msg = match action {
                ExportAction::Announce { to, path } => Msg {
                    from,
                    to,
                    origin,
                    path: Some(path),
                },
                ExportAction::Withdraw { to } => Msg {
                    from,
                    to,
                    origin,
                    path: None,
                },
            };
            self.queue.push_back(msg);
        }
    }

    /// Delivers queued messages until quiescence.
    fn drain_queue(&mut self) -> RunStats {
        let mut stats = RunStats::default();
        while let Some(msg) = self.queue.pop_front() {
            stats.messages_processed += 1;
            let Some(speaker) = self.speakers.get_mut(&msg.to) else {
                continue;
            };
            // Messages crossing an adjacency that no longer exists are lost.
            if speaker.relationship(msg.from).is_none() {
                continue;
            }
            if self.monitor == Some((msg.to, msg.from)) {
                stats.messages_captured += 1;
                self.captured.push(CapturedMessage {
                    origin: self.origin_ases[msg.origin],
                    path: msg.path.clone(),
                });
            }
            let actions = match msg.path {
                Some(path) => speaker.receive_announce(msg.origin, msg.from, path),
                None => speaker.receive_withdraw(msg.origin, msg.from),
            };
            self.enqueue(msg.to, msg.origin, actions);
        }
        stats
    }

    /// The best AS path from `at` towards the destinations originated by
    /// `origin`, if reachable.
    pub fn best_path(&self, at: Asn, origin: Asn) -> Option<AsPath> {
        let idx = *self.origin_index.get(&origin)?;
        self.speakers.get(&at)?.best_path(idx)
    }

    /// Returns `true` if `at` currently has a route towards `origin`.
    pub fn reachable(&self, at: Asn, origin: Asn) -> bool {
        self.best_path(at, origin).is_some()
    }

    /// Builds the vantage router's [`RoutingTable`]: one peer (and one
    /// Adj-RIB-In) per neighbour of `vantage`, with per-prefix routes expanded
    /// from the per-origin simulator state.
    ///
    /// Peer identifiers are the neighbour AS numbers (`PeerId(asn)`).
    pub fn vantage_routing_table(&self, vantage: Asn) -> RoutingTable {
        let mut table = RoutingTable::new();
        let Some(speaker) = self.speakers.get(&vantage) else {
            return table;
        };
        for &neighbor in speaker.neighbors.keys() {
            table.add_peer(PeerId(neighbor.value()), neighbor);
        }
        for (idx, state) in speaker.origins.iter().enumerate() {
            let origin = self.origin_ases[idx];
            for (&neighbor, path) in &state.rib_in {
                for prefix in self.topology.originated_prefixes(origin) {
                    let route = Route::new(
                        PeerId(neighbor.value()),
                        RouteAttributes::from_path(path.clone()),
                        0,
                    );
                    table.announce(PeerId(neighbor.value()), *prefix, route);
                }
            }
        }
        table
    }

    /// All origin ASes, in dense-index order.
    pub fn origin_ases(&self) -> &[Asn] {
        &self.origin_ases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_engine() -> Engine {
        let mut e = Engine::new(Topology::figure1_with_counts(10, 20, 20));
        e.converge();
        e
    }

    #[test]
    fn initial_convergence_gives_full_reachability() {
        let e = fig1_engine();
        for at in 1..=8u32 {
            for origin in 1..=8u32 {
                assert!(
                    e.reachable(Asn(at), Asn(origin)),
                    "AS{at} cannot reach AS{origin}"
                );
            }
        }
    }

    #[test]
    fn fig1_paths_match_paper() {
        let e = fig1_engine();
        // AS 1 reaches AS 6's prefixes via AS 3 (shortest: 3 6) — the paper's
        // Fig. 1 shows the *forwarding* path via 2 because of its (unmodelled)
        // commercial preferences; what matters for SWIFT is that the (2 5 6)
        // path exists in the Adj-RIB-In, which the routing-table test checks.
        let p16 = e.best_path(Asn(1), Asn(6)).unwrap();
        assert_eq!(p16.origin(), Some(Asn(6)));
        // AS 5 reaches AS 8 via AS 6 only (customer route through 6).
        assert_eq!(e.best_path(Asn(5), Asn(8)).unwrap(), AsPath::new([6u32, 8]));
        // AS 2 reaches AS 8 via its provider 5 then 6.
        assert_eq!(
            e.best_path(Asn(2), Asn(8)).unwrap(),
            AsPath::new([5u32, 6, 8])
        );
    }

    #[test]
    fn vantage_routing_table_has_expected_sessions_and_routes() {
        let e = fig1_engine();
        let table = e.vantage_routing_table(Asn(1));
        assert_eq!(table.peer_count(), 3);
        // Peer 2's Adj-RIB-In carries routes to AS 6/7/8 prefixes via (2 5 6 ...).
        let rib2 = table.adj_rib_in(PeerId(2)).unwrap();
        let p6 = e.topology().originated_prefixes(Asn(6))[0];
        assert_eq!(rib2.get(&p6).unwrap().as_path(), &AsPath::new([2u32, 5, 6]));
        let p8 = e.topology().originated_prefixes(Asn(8))[0];
        assert_eq!(
            rib2.get(&p8).unwrap().as_path(),
            &AsPath::new([2u32, 5, 6, 8])
        );
        // Peer 3 offers the (3 6 ...) alternates.
        let rib3 = table.adj_rib_in(PeerId(3)).unwrap();
        assert_eq!(rib3.get(&p8).unwrap().as_path(), &AsPath::new([3u32, 6, 8]));
    }

    #[test]
    fn failing_5_6_withdraws_as6_and_as8_on_session_1_2() {
        let mut e = fig1_engine();
        e.monitor_session(Asn(1), Asn(2));
        let stats = e.fail_link(Asn(5), Asn(6));
        assert!(stats.messages_processed > 0);
        let burst = e.take_burst(AsLink::new(5, 6));
        // AS 2 loses its route to AS 6, 7 and 8 entirely (its only path was via
        // (5,6) and Gao-Rexford hides the (3,6) detour from it), so the session
        // sees withdrawals for 6, 7 and 8.
        let withdrawn = burst.withdrawn_origins();
        assert!(withdrawn.contains(&Asn(6)));
        assert!(withdrawn.contains(&Asn(8)));
        // AS 5 itself is still reachable via AS 2.
        assert!(!withdrawn.contains(&Asn(5)));
        assert!(!withdrawn.contains(&Asn(2)));
        // Ground truth metadata is carried through.
        assert_eq!(burst.failed_link, AsLink::new(5, 6));
        assert_eq!(burst.vantage, Asn(1));
        assert_eq!(burst.neighbor, Asn(2));
    }

    #[test]
    fn post_failure_reachability_uses_alternate_paths() {
        let mut e = fig1_engine();
        e.fail_link(Asn(5), Asn(6));
        // AS 1 still reaches everything (via AS 3).
        for origin in [6u32, 7, 8] {
            let path = e.best_path(Asn(1), Asn(origin)).unwrap();
            assert!(
                !path.crosses_link_undirected(&AsLink::new(5, 6)),
                "path {path} still crosses the failed link"
            );
        }
        // AS 2, however, has no path to AS 6/7/8 anymore: its only route went
        // through its provider 5, and 5's alternative through peer 6 is gone.
        assert!(!e.reachable(Asn(2), Asn(8)));
    }

    #[test]
    fn failing_an_edge_link_only_affects_its_destinations() {
        let mut e = fig1_engine();
        e.monitor_session(Asn(1), Asn(2));
        e.fail_link(Asn(6), Asn(8));
        let burst = e.take_burst(AsLink::new(6, 8));
        assert_eq!(burst.withdrawn_origins(), [Asn(8)].into_iter().collect());
        assert!(e.reachable(Asn(1), Asn(7)));
        assert!(!e.reachable(Asn(1), Asn(8)));
    }

    #[test]
    fn engine_is_cloneable_for_repeated_failures() {
        let base = fig1_engine();
        let mut a = base.clone();
        let mut b = base.clone();
        a.fail_link(Asn(5), Asn(6));
        b.fail_link(Asn(6), Asn(8));
        assert!(!a.reachable(Asn(2), Asn(8)));
        assert!(b.reachable(Asn(2), Asn(7)));
        // The pristine engine is untouched.
        assert!(base.reachable(Asn(2), Asn(8)));
    }

    #[test]
    fn generated_topology_converges_and_routes_are_valley_free() {
        let config = swift_topology::TopologyConfig {
            num_ases: 60,
            prefixes_per_as: 2,
            seed: 3,
            ..Default::default()
        };
        let topo = Topology::generate(&config);
        let mut e = Engine::new(topo);
        let stats = e.converge();
        assert!(stats.messages_processed > 0);
        // Every AS reaches every origin (the graph is connected and policies
        // always allow customer→provider propagation upwards then down).
        let nodes: Vec<Asn> = e.topology().graph().nodes().collect();
        let mut reachable_pairs = 0usize;
        for &at in &nodes {
            for &origin in &nodes {
                if e.reachable(at, origin) {
                    reachable_pairs += 1;
                }
            }
        }
        // Full reachability is not strictly guaranteed under Gao-Rexford for
        // arbitrary tiering, but the overwhelming majority of pairs must route.
        assert!(
            reachable_pairs as f64 >= 0.97 * (nodes.len() * nodes.len()) as f64,
            "only {reachable_pairs} of {} pairs reachable",
            nodes.len() * nodes.len()
        );
        // No best path contains a loop.
        for &at in &nodes {
            for &origin in &nodes {
                if let Some(path) = e.best_path(at, origin) {
                    let distinct: std::collections::BTreeSet<_> = path.hops().iter().collect();
                    assert_eq!(distinct.len(), path.len(), "loop in path {path}");
                }
            }
        }
    }
}
