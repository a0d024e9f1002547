//! The SWIFTED router: the integration of inference and encoding (§3, Fig. 3).
//!
//! [`SwiftRouter`] models the workflow of a border router with SWIFT deployed:
//!
//! 1. before any outage it maintains its routing table, pre-computes backup
//!    next-hops and keeps the two-stage forwarding table in sync;
//! 2. every BGP session feeds a per-session [`InferenceEngine`];
//! 3. when an inference is accepted, the router installs the handful of
//!    stage-2 reroute rules returned by the encoding scheme — restoring
//!    connectivity for all predicted prefixes at once;
//! 4. once BGP has reconverged the SWIFT rules are removed and the stage-1
//!    tags of the prefixes whose routes changed are refreshed in place.
//!
//! The router is a thin inline composition of the two pipeline halves in
//! [`crate::pipeline`]: a [`SessionEngine`] per session and one [`Applier`].
//! The sharded `swift-runtime` drives the *same* two types across threads, so
//! the single-threaded router doubles as the executable specification of the
//! concurrent runtime's per-session behaviour.

use crate::config::SwiftConfig;
use crate::encoding::{ReroutingPolicy, TwoStageTable};
use crate::inference::{EngineStatus, InferenceEngine, PrefixSnapshot};
use crate::pipeline::{session_engines, Applier, SessionEngine};
use std::collections::BTreeMap;
use swift_bgp::{AsLink, ElementaryEvent, PeerId, Prefix, PrefixSet, RoutingTable, Timestamp};

/// What the router did in response to an accepted inference.
#[derive(Debug, Clone)]
pub struct RerouteAction {
    /// The session on which the burst was observed.
    pub session: PeerId,
    /// When the reroute was triggered.
    pub time: Timestamp,
    /// The inferred failed links.
    pub links: Vec<AsLink>,
    /// The prefixes predicted as affected (and therefore rerouted) — the
    /// inference's own snapshot, shared rather than copied, and listed only
    /// when read.
    pub predicted: PrefixSnapshot,
    /// Number of stage-2 rules installed — the number of data-plane updates.
    pub rules_installed: usize,
}

/// A border router with SWIFT deployed.
#[derive(Debug, Clone)]
pub struct SwiftRouter {
    engines: BTreeMap<PeerId, SessionEngine>,
    applier: Applier,
}

impl SwiftRouter {
    /// Builds a SWIFTED router from its current routing state. The table is
    /// sealed first ([`RoutingTable::seal`]), so the engines of its full
    /// feeds share its prefix dictionary.
    pub fn new(config: SwiftConfig, mut table: RoutingTable, policy: ReroutingPolicy) -> Self {
        table.seal();
        let engines = session_engines(&config, &table);
        let applier = Applier::new(config, table, policy);
        SwiftRouter { engines, applier }
    }

    /// The router's configuration.
    pub fn config(&self) -> &SwiftConfig {
        self.applier.config()
    }

    /// The current routing table, with every event handled so far folded in.
    pub fn routing_table(&mut self) -> &RoutingTable {
        self.applier.sync_rib();
        self.applier.table()
    }

    /// The two-stage forwarding table.
    pub fn forwarding(&self) -> &TwoStageTable {
        self.applier.forwarding()
    }

    /// The serialized half of the pipeline (routing state, rule installs,
    /// action log).
    pub fn applier(&self) -> &Applier {
        &self.applier
    }

    /// The per-session inference engine for `peer`, if the session exists.
    pub fn engine(&self, peer: PeerId) -> Option<&InferenceEngine> {
        self.engines.get(&peer).map(|s| s.engine())
    }

    /// Every reroute action taken so far.
    pub fn actions(&self) -> &[RerouteAction] {
        self.applier.actions()
    }

    /// Processes one per-prefix event received on the session with `peer`.
    ///
    /// Returns the reroute action if this event triggered an accepted
    /// inference. Events arriving after the burst's inference was accepted
    /// ([`EngineStatus::AlreadyAccepted`]) change nothing: the reroute rules
    /// are already installed and the router is waiting for BGP to converge.
    pub fn handle_event(&mut self, peer: PeerId, event: &ElementaryEvent) -> Option<RerouteAction> {
        // Keep the routing table in sync (the FIB rebuild that BGP would do is
        // intentionally *not* performed per event — that is the slow path SWIFT
        // works around; see `resync_after_convergence`).
        self.applier.note_event(peer, event);
        let engine = self.engines.get_mut(&peer)?;
        match engine.process(event) {
            (EngineStatus::Accepted, Some(result)) => {
                Some(self.applier.apply_inference(peer, &result))
            }
            _ => None,
        }
    }

    /// Processes a whole stream of events on one session.
    pub fn handle_stream<'a, I>(&mut self, peer: PeerId, events: I) -> Vec<RerouteAction>
    where
        I: IntoIterator<Item = &'a ElementaryEvent>,
    {
        events
            .into_iter()
            .filter_map(|ev| self.handle_event(peer, ev))
            .collect()
    }

    /// The next-hop currently used to forward traffic for `prefix`.
    pub fn forwarding_next_hop(&self, prefix: &Prefix) -> Option<PeerId> {
        self.applier.forwarding_next_hop(prefix)
    }

    /// Called once BGP has fully reconverged: removes the SWIFT rules of every
    /// outstanding reroute and refreshes the tags of the prefixes whose routes
    /// changed — incrementally, without rebuilding the forwarding table (see
    /// [`Applier::resync_after_convergence`]). Returns the number of SWIFT
    /// rules removed.
    pub fn resync_after_convergence(&mut self) -> usize {
        self.applier.resync_after_convergence()
    }

    /// Safety check (Lemma 3.3): returns the prefixes among `predicted` whose
    /// *current* forwarding next-hop still offers a path crossing one of the
    /// inferred links — ideally none after a reroute.
    pub fn unsafe_reroutes(&mut self, predicted: &PrefixSet, links: &[AsLink]) -> PrefixSet {
        self.applier.unsafe_reroutes(predicted, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncodingConfig, InferenceConfig};
    use swift_bgp::{AsPath, Asn, Route, RouteAttributes};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn config() -> SwiftConfig {
        SwiftConfig {
            inference: InferenceConfig {
                burst_start_threshold: 50,
                burst_stop_threshold: 2,
                triggering_threshold: 100,
                use_history: false,
                ..Default::default()
            },
            encoding: EncodingConfig {
                min_prefixes_per_link: 50,
                ..Default::default()
            },
        }
    }

    /// Fig. 1 routing table with `n` prefixes per remote origin and peer 2
    /// preferred via LOCAL_PREF.
    fn fig1_table(n: u32) -> RoutingTable {
        let mut t = RoutingTable::new();
        t.add_peer(PeerId(2), Asn(2));
        t.add_peer(PeerId(3), Asn(3));
        t.add_peer(PeerId(4), Asn(4));
        let origins: [(&[u32], &[u32], &[u32]); 3] = [
            (&[2, 5, 6], &[3, 6], &[4, 5, 6]),
            (&[2, 5, 6, 7], &[3, 6, 7], &[4, 5, 6, 7]),
            (&[2, 5, 6, 8], &[3, 6, 8], &[4, 5, 6, 8]),
        ];
        for (o, (via2, via3, via4)) in origins.iter().enumerate() {
            for i in 0..n {
                let idx = o as u32 * n + i;
                let mut attrs2 = RouteAttributes::from_path(AsPath::new(via2.iter().copied()));
                attrs2.local_pref = Some(200);
                t.announce(PeerId(2), p(idx), Route::new(PeerId(2), attrs2, 0));
                t.announce(
                    PeerId(3),
                    p(idx),
                    Route::new(
                        PeerId(3),
                        RouteAttributes::from_path(AsPath::new(via3.iter().copied())),
                        0,
                    ),
                );
                t.announce(
                    PeerId(4),
                    p(idx),
                    Route::new(
                        PeerId(4),
                        RouteAttributes::from_path(AsPath::new(via4.iter().copied())),
                        0,
                    ),
                );
            }
        }
        t
    }

    /// Withdrawals for the AS 6 and AS 8 prefixes (the Fig. 1 failure of (5,6)
    /// as seen on the session with AS 2), 1 ms apart.
    fn fig1_burst(n: u32) -> Vec<ElementaryEvent> {
        let mut events = Vec::new();
        let mut t = 0u64;
        for i in 0..n {
            events.push(ElementaryEvent::Withdraw {
                timestamp: t,
                prefix: p(i),
            });
            t += 1_000;
        }
        for i in 2 * n..3 * n {
            events.push(ElementaryEvent::Withdraw {
                timestamp: t,
                prefix: p(i),
            });
            t += 1_000;
        }
        events
    }

    #[test]
    fn router_reroutes_the_predicted_prefixes_with_few_rules() {
        let table = fig1_table(100);
        let mut router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        // Before the outage everything goes to peer 2 (LOCAL_PREF 200).
        assert_eq!(router.forwarding_next_hop(&p(0)), Some(PeerId(2)));

        let actions = router.handle_stream(PeerId(2), fig1_burst(100).iter());
        assert_eq!(actions.len(), 1, "one accepted inference");
        let action = &actions[0];
        assert_eq!(action.session, PeerId(2));
        assert!(action.links.contains(&AsLink::new(5, 6)));
        // The AS 7 prefixes (indices 100..200) are predicted although not yet
        // withdrawn.
        assert!(action.predicted.prefixes().contains(&p(150)));
        // Rules installed are few — not one per prefix.
        assert!(
            action.rules_installed <= 8,
            "got {}",
            action.rules_installed
        );
        assert_eq!(router.actions().len(), 1);
    }

    #[test]
    fn rerouted_traffic_avoids_the_failed_link() {
        let table = fig1_table(100);
        let mut router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        let actions = router.handle_stream(PeerId(2), fig1_burst(100).iter());
        let action = &actions[0];
        // Safety: no predicted prefix may still be forwarded onto a next-hop
        // whose announced path crosses an inferred link.
        let unsafe_set = router.unsafe_reroutes(action.predicted.prefixes(), &action.links);
        assert!(
            unsafe_set.is_empty(),
            "{} prefixes still forwarded through the outage",
            unsafe_set.len()
        );
        // The AS 7 prefixes must now leave via peer 3 — the only neighbour
        // avoiding both endpoints of (2,5)/(5,6) region... via its (3 6 7) path.
        let nh = router.forwarding_next_hop(&p(150));
        assert_eq!(nh, Some(PeerId(3)));
    }

    #[test]
    fn resync_clears_swift_state() {
        let table = fig1_table(100);
        let mut router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        router.handle_stream(PeerId(2), fig1_burst(100).iter());
        assert!(router.forwarding().swift_rule_count() > 0);
        let removed = router.resync_after_convergence();
        assert!(removed > 0);
        assert_eq!(router.forwarding().swift_rule_count(), 0);
    }

    /// The incremental resync must be indistinguishable from the full rebuild
    /// when BGP converges back to the pre-outage routes (transient failure:
    /// the withdrawn prefixes return with their original paths) — rule for
    /// rule and tag for tag.
    #[test]
    fn incremental_resync_equals_rebuild_when_routes_restore() {
        let table = fig1_table(100);
        let mut router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        router.handle_stream(PeerId(2), fig1_burst(100).iter());
        assert!(router.forwarding().swift_rule_count() > 0);

        // BGP reconverges: the link comes back and peer 2 re-announces every
        // withdrawn prefix with its original attributes.
        let mut t = 10_000_000u64;
        let reannounce: Vec<(u32, &[u32])> = (0..100)
            .map(|i| (i, &[2u32, 5, 6][..]))
            .chain((200..300).map(|i| (i, &[2u32, 5, 6, 8][..])))
            .collect();
        for (idx, path) in reannounce {
            let mut attrs = RouteAttributes::from_path(AsPath::new(path.iter().copied()));
            attrs.local_pref = Some(200);
            router.handle_event(
                PeerId(2),
                &ElementaryEvent::Announce {
                    timestamp: t,
                    prefix: p(idx),
                    attrs,
                },
            );
            t += 1_000;
        }

        let outstanding = router.forwarding().swift_rule_count();
        assert_eq!(router.resync_after_convergence(), outstanding);
        assert_eq!(router.forwarding().swift_rule_count(), 0);

        // The resync folded every event, so the applier's table is current.
        let (fi, table) = (router.forwarding(), router.applier().table());
        let fr = TwoStageTable::build(table, &config().encoding, router.applier().policy());
        assert_eq!(fi.stage1_len(), fr.stage1_len());
        assert_eq!(fi.stage2_rules(), fr.stage2_rules());
        for i in 0..300 {
            let prefix = p(i);
            assert_eq!(
                fi.tag_of(table, &prefix),
                fr.tag_of(table, &prefix),
                "tag {i}"
            );
            assert_eq!(
                fi.lookup(table, &prefix),
                fr.lookup(table, &prefix),
                "lookup {i}"
            );
        }
    }

    /// When convergence permanently moves routes (the withdrawn prefixes stay
    /// gone from the primary session), the incremental resync reuses the
    /// offline-precomputed encoding plan while the rebuild recomputes it —
    /// tags may differ, but the *forwarding behaviour* must not.
    #[test]
    fn incremental_resync_matches_rebuild_forwarding_after_path_changes() {
        let table = fig1_table(100);
        let mut router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        router.handle_stream(PeerId(2), fig1_burst(100).iter());

        router.resync_after_convergence();
        assert_eq!(router.forwarding().swift_rule_count(), 0);
        let table = router.applier().table();
        let rebuilt = TwoStageTable::build(table, &config().encoding, router.applier().policy());
        for i in 0..300 {
            assert_eq!(
                router.forwarding_next_hop(&p(i)),
                rebuilt.lookup(table, &p(i)),
                "forwarding of prefix {i} diverged"
            );
        }
        // The withdrawn prefixes now leave via the next-best session (peer 3).
        assert_eq!(router.forwarding_next_hop(&p(0)), Some(PeerId(3)));
    }

    #[test]
    fn uneventful_sessions_trigger_nothing() {
        let table = fig1_table(100);
        let mut router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        // A handful of withdrawals on peer 3's session: no burst, no action.
        for i in 0..10u64 {
            let act = router.handle_event(
                PeerId(3),
                &ElementaryEvent::Withdraw {
                    timestamp: i * 60_000_000,
                    prefix: p(i as u32),
                },
            );
            assert!(act.is_none());
        }
        assert!(router.actions().is_empty());
        // Unknown sessions are ignored gracefully.
        assert!(router
            .handle_event(
                PeerId(99),
                &ElementaryEvent::Withdraw {
                    timestamp: 0,
                    prefix: p(0),
                }
            )
            .is_none());
    }

    #[test]
    fn engines_exist_per_session() {
        let table = fig1_table(10);
        let router = SwiftRouter::new(config(), table, ReroutingPolicy::allow_all());
        assert!(router.engine(PeerId(2)).is_some());
        assert!(router.engine(PeerId(3)).is_some());
        assert!(router.engine(PeerId(4)).is_some());
        assert!(router.engine(PeerId(9)).is_none());
        assert_eq!(router.forwarding().stage1_len(), 30);
    }
}
