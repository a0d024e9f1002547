//! The two halves of the SWIFT reroute pipeline, split out of the monolithic
//! router so that single-threaded and sharded deployments share one code path.
//!
//! * [`SessionEngine`] — one BGP session's inference state: a [`PeerId`] plus
//!   its [`InferenceEngine`]. Per-session state is self-contained, which is
//!   exactly what makes session sharding sound: a session's engine can live on
//!   any worker thread as long as that session's events reach it in order.
//! * [`Applier`] — everything that must stay serialized: the router-wide
//!   [`RoutingTable`], the [`TwoStageTable`] rule installs, the reroute action
//!   log and the reconvergence resync.
//!
//! [`crate::router::SwiftRouter`] composes the two inline (one event at a
//! time, on the calling thread), and is the `swift-runtime` crate's
//! deterministic mode; the runtime's sharded mode drives many
//! [`SessionEngine`]s concurrently on worker shards and funnels their accepted
//! inferences into one [`Applier`] thread. Both observe identical per-session
//! behaviour because all decision-making lives in these two types, and both
//! take an event through its engine with [`SessionEngine::accept`].
//!
//! # RIB maintenance
//!
//! Keeping the Adj-RIB-In mirrors in sync is bookkeeping for the *slow* path
//! (the post-convergence resync); it is explicitly not needed to decide or
//! install a reroute (§3: SWIFT exists because per-event FIB maintenance
//! cannot keep up during a burst). So the applier buffers events, and
//! [`Applier::sync_rib`], the one fold path, folds the buffer into the table
//! through [`RoutingTable::apply_all`], with the ids each event was
//! resolved to where it entered (see "Per-event probes"). It folds
//! whenever a full batch of [`RoutingTable::APPLY_BATCH`] events is
//! buffered, and at every sync point:
//! a resync, a session registration or teardown, and every reader that needs
//! the current mirror ([`Applier::unsafe_reroutes`]). So at most
//! `APPLY_BATCH - 1` events wait for a sync point, and a resync never pays
//! for a whole burst's folds. `SwiftRouter` (the inline runtime) and the
//! sharded runtime's applier thread both run this one policy.
//!
//! # The dirty set
//!
//! Whichever path folds an event, the prefix whose routes it changed is
//! marked dirty for the next resync's stage-1 retag. The set is keyed by the
//! routing table's [`PrefixId`] — the id the fold hands back from the
//! lookup made anyway — as an id list plus a seen-bitmap (the crate's shared
//! `DirtySet`), so marking is an array write. An event that changed nothing
//! (unregistered peer, withdrawal of a route the peer does not hold) returns
//! no id and marks nothing.
//!
//! The ids never turn back into prefixes: stage 1 of the forwarding table is
//! an array over the same id space (see the "Stage 1 layout" section of
//! `encoding/two_stage.rs`), so the resync drains the set in id order
//! — in place, the list keeps its capacity from one cycle to the next — and
//! for each id reads that id's candidates from the table, computes the tag
//! and writes the array slot. Session registration and teardown retag the
//! ids the table hands back for the routes they announce or clear the same
//! way; a teardown retags the dirty ids too (without draining them), since
//! their tags may still name the departed peer.
//!
//! # Per-event probes
//!
//! An event is looked up once, where it enters: `SwiftRouter` resolves it
//! against the routing table ([`RoutingTable::resolve`]: the prefix's
//! [`PrefixId`] and, for an announcement, the attribute set's id, looked
//! up, never interned) and hands the same [`Resolved`] to the session's
//! engine ([`SessionEngine::accept`]) and to the RIB mirror, which buffers
//! it with the event and folds with it. The table given to `SwiftRouter`
//! or the runtime is sealed ([`RoutingTable::seal`]), and the engine of
//! each session holding at least half of the table's prefixes holds a
//! clone of its dictionary ([`session_engines`]), so for these full feeds
//! the index and the id → prefix list exist once for every prefix known at
//! the seal, and an id below the seal is the engine's id too: the engine
//! takes it unprobed. Every engine maps the table's attribute-set ids to
//! its own path ids through a memo, filled the first time an announcement
//! carries a set, so a set seen before is never hashed again.
//!
//! What was not found is probed where it is needed. A prefix first seen
//! after the seal is interned by the mirror and by its session's engine
//! each in a private part, under ids that may differ, so an engine never
//! takes a resolved id at or above the seal: nothing passes an id from an
//! engine to the applier (a reroute installs by link). A smaller session's
//! engine keeps a dictionary of its own and probes it, within an index
//! sized for that session. The mirror's fold resolves again only the
//! events that arrive unresolved: the sharded runtime's, whose shard
//! workers pass [`Resolved::UNKNOWN`] and whose applier keeps the batched
//! probes (see "Applying a batch" in [`RoutingTable`]'s module), and an
//! event whose prefix or set an earlier event still waiting in the buffer
//! announces. A by-prefix read ([`Applier::forwarding_next_hop`]) probes
//! once.

use crate::config::SwiftConfig;
use crate::dirty::DirtySet;
use crate::encoding::{RerouteId, ReroutingPolicy, TwoStageTable};
use crate::inference::{EngineStatus, InferenceEngine, InferenceResult, KernelStats};
use crate::router::RerouteAction;
use std::collections::BTreeMap;
use swift_bgp::{
    AsLink, Asn, ElementaryEvent, InternedRib, PeerId, Prefix, PrefixId, PrefixSet, Resolved,
    Route, RoutingTable,
};

/// One BGP session's inference half: the per-session state a worker shard
/// owns.
#[derive(Debug, Clone)]
pub struct SessionEngine {
    peer: PeerId,
    engine: InferenceEngine,
}

impl SessionEngine {
    /// Builds the engine for `peer`, seeded from an interned RIB.
    pub fn from_interned(peer: PeerId, config: &SwiftConfig, rib: &InternedRib) -> Self {
        SessionEngine {
            peer,
            engine: InferenceEngine::from_interned(config.inference.clone(), rib),
        }
    }

    /// The session this engine serves.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The underlying inference engine.
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// Builds the engine of a session registered mid-run, seeded from the
    /// routes it announces: the one seeding path of a registration, for
    /// `SwiftRouter` and the sharded runtime alike.
    pub fn from_routes(peer: PeerId, config: &SwiftConfig, routes: &[(Prefix, Route)]) -> Self {
        let mut rib = InternedRib::new();
        for (prefix, route) in routes {
            rib.push(*prefix, route.as_path());
        }
        SessionEngine::from_interned(peer, config, &rib)
    }

    /// Drains the engine's kernel dispatch/scratch statistics (telemetry).
    pub fn take_kernel_stats(&self) -> KernelStats {
        self.engine.take_kernel_stats()
    }

    /// Processes one of this session's per-prefix events.
    pub fn process(&mut self, event: &ElementaryEvent) -> (EngineStatus, Option<InferenceResult>) {
        self.engine.process(event)
    }

    /// One event through the engine, the step every composition shares:
    /// process it and return the inference only if this event's attempt was
    /// accepted. The attempt's [`KernelStats`] stay in the engine until
    /// [`SessionEngine::take_kernel_stats`].
    ///
    /// `resolved` is what [`RoutingTable::resolve`] found of the event, or
    /// [`Resolved::UNKNOWN`]. Every value one engine is handed must come
    /// from one table — for an engine from [`session_engines`], the table
    /// it was seeded from or one clone of it — as the attribute-set ids it
    /// memoises are that table's. An engine that shares the table's sealed
    /// dictionary takes a prefix id below the seal as its own, and every
    /// engine finds the path of an attribute set it has seen without
    /// hashing it (see "Per-event probes").
    #[inline]
    pub fn accept(
        &mut self,
        event: &ElementaryEvent,
        resolved: Resolved,
    ) -> Option<InferenceResult> {
        // The engine returns an inference only with `EngineStatus::Accepted`.
        self.engine.process_resolved(event, resolved).1
    }
}

/// Builds one [`SessionEngine`] per peering session of `table`, seeding each
/// straight from the table, with each distinct attribute set's path
/// interned once and nothing sorted. The engine of a session holding at
/// least half of the table's prefixes numbers them by the table's ids and
/// shares its sealed prefix dictionary ([`RoutingTable::seal`]); a smaller
/// session's keeps a dictionary of its own. The single shared seeding path
/// of `SwiftRouter` and the sharded runtime, which seal the table first; an
/// engine seeded from an unsealed table copies the unsealed part of the
/// dictionary's index.
pub fn session_engines(
    config: &SwiftConfig,
    table: &RoutingTable,
) -> BTreeMap<PeerId, SessionEngine> {
    table
        .peers()
        .map(|(peer, _)| {
            let rib = table.adj_rib_in(peer).expect("peer just listed");
            let engine = InferenceEngine::from_table(config.inference.clone(), rib);
            (peer, SessionEngine { peer, engine })
        })
        .collect()
}

/// The serialized half of the pipeline: routing state, forwarding-table rule
/// installs and the reconvergence resync.
#[derive(Debug, Clone)]
pub struct Applier {
    config: SwiftConfig,
    policy: ReroutingPolicy,
    table: RoutingTable,
    forwarding: TwoStageTable,
    actions: Vec<RerouteAction>,
    /// Prefixes whose routes changed since the last resync — the set the
    /// incremental stage-1 refresh retags.
    dirty: DirtySet<PrefixId>,
    /// Reroutes installed and not yet resynced away, tagged with the session
    /// whose inference installed them (so a session teardown can remove just
    /// that session's rules).
    outstanding: Vec<(PeerId, RerouteId)>,
    /// Events not yet folded into `table`, each with what was resolved of
    /// it where it entered; sized for one batch.
    pending: Vec<(PeerId, ElementaryEvent, Resolved)>,
}

impl Applier {
    /// Builds an applier over `table`, sealed ([`RoutingTable::seal`]), with
    /// the forwarding table built from it.
    pub fn new(config: SwiftConfig, mut table: RoutingTable, policy: ReroutingPolicy) -> Self {
        table.seal();
        let forwarding = TwoStageTable::build(&table, &config.encoding, &policy);
        Self::from_parts(config, table, forwarding, policy)
    }

    /// Assembles an applier from pre-built parts, for callers that build (and
    /// time) the forwarding table themselves.
    ///
    /// `table` must be the owning table of `forwarding`: the table it was
    /// built from ([`TwoStageTable::build`]) or a clone of it — `Clone`
    /// preserves prefix ids, and stage 1 is indexed by them. A forwarding
    /// table built from any other table would silently read and retag the
    /// wrong slots.
    pub fn from_parts(
        config: SwiftConfig,
        table: RoutingTable,
        forwarding: TwoStageTable,
        policy: ReroutingPolicy,
    ) -> Self {
        debug_assert!(
            forwarding.stage1_slots() <= table.id_count(),
            "stage 1 has slots for ids the routing table never handed out"
        );
        Applier {
            config,
            policy,
            table,
            forwarding,
            actions: Vec::new(),
            dirty: DirtySet::default(),
            outstanding: Vec::new(),
            pending: Vec::with_capacity(RoutingTable::APPLY_BATCH),
        }
    }

    /// The applier's configuration.
    pub fn config(&self) -> &SwiftConfig {
        &self.config
    }

    /// The rerouting policy in force.
    pub fn policy(&self) -> &ReroutingPolicy {
        &self.policy
    }

    /// The routing table, as of the last fold (see "RIB maintenance");
    /// [`Applier::sync_rib`] folds the rest.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The two-stage forwarding table.
    pub fn forwarding(&self) -> &TwoStageTable {
        &self.forwarding
    }

    /// Every reroute action taken so far.
    pub fn actions(&self) -> &[RerouteAction] {
        &self.actions
    }

    /// Number of events buffered and not yet folded into the routing table.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Records one per-prefix event: buffered, and folded into the routing
    /// table with the next full batch or at the next sync point, whichever
    /// comes first.
    /// A prefix whose routes the event changed then joins the dirty set the
    /// next resync retags.
    pub fn note_event(&mut self, peer: PeerId, event: &ElementaryEvent) {
        self.note_event_owned(peer, event.clone());
    }

    /// [`Applier::note_event`] taking the event by value — lets callers that
    /// own their events (the runtimes) buffer them without a clone.
    pub fn note_event_owned(&mut self, peer: PeerId, event: ElementaryEvent) {
        self.note_resolved(peer, event, Resolved::UNKNOWN);
    }

    /// [`Applier::note_event_owned`] of an event already resolved against
    /// [`Applier::table`]: the fold reuses the ids found and probes only
    /// for what was not.
    #[inline]
    pub(crate) fn note_resolved(
        &mut self,
        peer: PeerId,
        event: ElementaryEvent,
        resolved: Resolved,
    ) {
        self.pending.push((peer, event, resolved));
        if self.pending.len() >= RoutingTable::APPLY_BATCH {
            self.sync_rib();
        }
    }

    /// Folds every buffered event into the routing table, in order, marking
    /// each prefix whose routes changed dirty — the one fold path. Returns
    /// the number of events applied.
    pub fn sync_rib(&mut self) -> usize {
        let applied = self.pending.len();
        let dirty = &mut self.dirty;
        self.table.apply_all(&mut self.pending, |id| dirty.mark(id));
        applied
    }

    /// Installs the reroute rules for an accepted inference and logs the
    /// action.
    pub fn apply_inference(&mut self, peer: PeerId, result: &InferenceResult) -> RerouteAction {
        let (id, rules_installed) = self.forwarding.install_reroute_tracked(&result.links.links);
        self.outstanding.push((peer, id));
        let action = RerouteAction {
            session: peer,
            time: result.time,
            links: result.links.links.clone(),
            predicted: result.prediction.predicted.clone(),
            rules_installed,
        };
        self.actions.push(action.clone());
        action
    }

    /// The next-hop currently used to forward traffic for `prefix`.
    pub fn forwarding_next_hop(&self, prefix: &Prefix) -> Option<PeerId> {
        self.forwarding.lookup(&self.table, prefix)
    }

    /// Called once BGP has fully reconverged: removes the stage-2 rules of
    /// every outstanding reroute and retags the prefixes whose routes changed
    /// during the outage — the incremental form of the old full rebuild (the
    /// encoding plan and tag layout, precomputed offline per §5, are reused).
    /// Returns the number of SWIFT rules removed.
    pub fn resync_after_convergence(&mut self) -> usize {
        self.sync_rib();
        let mut removed = 0;
        for (_, id) in std::mem::take(&mut self.outstanding) {
            removed += self.forwarding.remove_reroute(id);
        }
        self.forwarding
            .refresh_ids(&self.table, &self.policy, self.dirty.drain_sorted());
        removed
    }

    /// Registers (or re-registers) a peering session on the serialized
    /// routing state: the peer joins the table, its routes are announced and
    /// the touched prefixes are retagged in stage 1 (the new session may have
    /// become primary for some of them). Any buffered events are folded in
    /// first so the retag sees current routes. Returns the number of routes
    /// announced. A route's `peer` must be `peer`, the session it is filed
    /// under.
    ///
    /// The stage-2 next-hop index is part of the offline-precomputed encoding
    /// (§5), so a peer that was *never* in the table when the forwarding
    /// table was built cannot be used as a next-hop until the next full
    /// [`TwoStageTable::build`] — re-registering a peer that went down keeps
    /// its slot.
    pub fn register_session<I>(&mut self, peer: PeerId, asn: Asn, routes: I) -> usize
    where
        I: IntoIterator<Item = (Prefix, Route)>,
    {
        self.sync_rib();
        self.table.add_peer(peer, asn);
        let announced: Vec<PrefixId> = routes
            .into_iter()
            .filter_map(|(prefix, route)| self.table.announce(peer, prefix, route))
            .collect();
        self.forwarding
            .refresh_ids(&self.table, &self.policy, announced.iter().copied());
        announced.len()
    }

    /// Tears a peering session down: folds any buffered events, removes the
    /// SWIFT rules installed by this session's inferences, withdraws every
    /// route learned on the session from the RIB mirror (the peer itself
    /// stays registered so it can re-establish), retags the prefixes it
    /// served and removes the other sessions' SWIFT rules that forward to
    /// it. Returns `(rules_removed, routes_withdrawn)`.
    pub fn teardown_session(&mut self, peer: PeerId) -> (usize, usize) {
        self.sync_rib();
        let mut rules_removed = 0;
        let outstanding = std::mem::take(&mut self.outstanding);
        for (owner, id) in outstanding {
            if owner == peer {
                rules_removed += self.forwarding.remove_reroute(id);
            } else {
                self.outstanding.push((owner, id));
            }
        }
        let withdrawn = self.table.clear_peer(peer);
        // A prefix whose routes changed since the last resync keeps its old
        // tag until the resync, and that tag may name the departed peer as
        // primary or backup: retag those with the peer's own prefixes (they
        // stay dirty for the resync).
        let stale = self.dirty.ids().iter().copied();
        self.forwarding.refresh_ids(
            &self.table,
            &self.policy,
            withdrawn.iter().copied().chain(stale),
        );
        // Another session's reroute may use the peer as a backup: after the
        // retag no tag names it, so its rules match nothing and go too.
        rules_removed += self.forwarding.remove_rules_to(peer);
        (rules_removed, withdrawn.len())
    }

    /// Safety check (Lemma 3.3): returns the prefixes among `predicted` whose
    /// *current* forwarding next-hop still offers a path crossing one of the
    /// inferred links — ideally none after a reroute. Folds the buffered
    /// events first: the answer reads the current mirror.
    pub fn unsafe_reroutes(&mut self, predicted: &PrefixSet, links: &[AsLink]) -> PrefixSet {
        self.sync_rib();
        predicted
            .iter()
            .filter(|prefix| {
                let Some(nh) = self.forwarding_next_hop(prefix) else {
                    return false;
                };
                let Some(rib) = self.table.adj_rib_in(nh) else {
                    return false;
                };
                match rib.get(prefix) {
                    Some(route) => links
                        .iter()
                        .any(|l| route.as_path().crosses_link_undirected(l)),
                    None => false,
                }
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsPath, RouteAttributes};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    /// Primary peer 1 (LOCAL_PREF 200) and backup peer 2, both announcing the
    /// same `n` prefixes over disjoint AS hierarchies.
    fn two_peer_table(n: u32) -> RoutingTable {
        let mut t = RoutingTable::new();
        t.add_peer(PeerId(1), Asn(1));
        t.add_peer(PeerId(2), Asn(2));
        for i in 0..n {
            let mut attrs = RouteAttributes::from_path(AsPath::new([1u32, 100, 200]));
            attrs.local_pref = Some(200);
            t.announce(PeerId(1), p(i), Route::new(PeerId(1), attrs));
            t.announce(
                PeerId(2),
                p(i),
                Route::new(
                    PeerId(2),
                    RouteAttributes::from_path(AsPath::new([2u32, 300 + i % 5])),
                ),
            );
        }
        t
    }

    fn primary_routes(table: &RoutingTable, peer: PeerId) -> Vec<(Prefix, Route)> {
        table
            .adj_rib_in(peer)
            .unwrap()
            .iter()
            .map(|(prefix, route)| (*prefix, route.clone()))
            .collect()
    }

    #[test]
    fn teardown_reroutes_forwarding_to_survivors_and_register_restores() {
        let table = two_peer_table(60);
        let routes = primary_routes(&table, PeerId(1));
        let mut applier = Applier::new(
            SwiftConfig::default(),
            table,
            crate::encoding::ReroutingPolicy::allow_all(),
        );
        assert_eq!(applier.forwarding_next_hop(&p(0)), Some(PeerId(1)));

        let (rules, withdrawn) = applier.teardown_session(PeerId(1));
        assert_eq!(rules, 0, "no inference had installed rules");
        assert_eq!(withdrawn, 60);
        assert_eq!(applier.table().adj_rib_in(PeerId(1)).unwrap().len(), 0);
        // Stage 1 was retagged: traffic forwards via the surviving peer.
        assert_eq!(applier.forwarding_next_hop(&p(0)), Some(PeerId(2)));

        // Re-registration restores the session as primary.
        let announced = applier.register_session(PeerId(1), Asn(1), routes);
        assert_eq!(announced, 60);
        assert_eq!(applier.forwarding_next_hop(&p(0)), Some(PeerId(1)));
        assert_eq!(applier.table().adj_rib_in(PeerId(1)).unwrap().len(), 60);
    }

    #[test]
    fn deferred_teardown_folds_pending_events_first() {
        let table = two_peer_table(40);
        let mut applier = Applier::new(
            SwiftConfig::default(),
            table,
            crate::encoding::ReroutingPolicy::allow_all(),
        );
        // Buffer a withdrawal on the *backup* session (one event, below a
        // full batch, so it waits for a sync point), then tear the primary
        // down: the fold must happen before the retag, so the withdrawn
        // backup route is not resurrected as the new next-hop.
        applier.note_event(
            PeerId(2),
            &ElementaryEvent::Withdraw {
                timestamp: 0,
                prefix: p(0),
            },
        );
        assert_eq!(applier.pending_events(), 1);
        let (_, withdrawn) = applier.teardown_session(PeerId(1));
        assert_eq!(withdrawn, 40);
        assert_eq!(applier.pending_events(), 0, "teardown folded the buffer");
        // p(0) lost both routes; every other prefix falls back to peer 2.
        assert_eq!(applier.forwarding_next_hop(&p(0)), None);
        assert_eq!(applier.forwarding_next_hop(&p(1)), Some(PeerId(2)));
    }

    #[test]
    fn only_events_that_change_the_table_buy_a_retag() {
        let withdraw = |i: u32| ElementaryEvent::Withdraw {
            timestamp: 0,
            prefix: p(i),
        };
        let mut applier = Applier::new(
            SwiftConfig::default(),
            two_peer_table(20),
            crate::encoding::ReroutingPolicy::allow_all(),
        );
        // An unregistered peer, a prefix the table has never seen, and
        // (second time round) a route already withdrawn: none is dirty.
        applier.note_event(PeerId(9), &withdraw(0));
        applier.note_event(PeerId(1), &withdraw(999));
        applier.note_event(PeerId(1), &withdraw(3));
        applier.note_event_owned(PeerId(1), withdraw(3));
        applier.sync_rib();
        let dirty: Vec<Prefix> = applier
            .dirty
            .ids()
            .iter()
            .map(|id| applier.table().prefix_of(*id))
            .collect();
        assert_eq!(dirty, vec![p(3)]);
        assert_eq!(
            applier.table().prefix_count(),
            20,
            "p(999) was not interned"
        );
        applier.resync_after_convergence();
        assert!(applier.dirty.ids().is_empty() && applier.dirty.bitmap_is_clear());
        assert_eq!(applier.forwarding_next_hop(&p(3)), Some(PeerId(2)));
    }
}
