//! Hostile streams through the inline composition: a `SwiftRouter` fed
//! random streams that mix
//! duplicate withdrawals, withdrawals of prefixes no session ever announced,
//! timestamps that step backwards, re-announcements inside a burst, session
//! teardowns in the middle of a burst (and re-registrations) and resyncs.
//!
//! * After every event, each live session's counters hold what the
//!   reference model (`crates/core/tests/reference/mod.rs`) holds after the
//!   same events. The model restarts its burst counters where the engine's
//!   burst detector starts a burst, replaying the detector's window: the
//!   last `withdrawals_in_burst()` withdrawals of the session.
//! * After a teardown, no prefix forwards to the departed peer and no SWIFT
//!   rule names it as next-hop.
//! * After a resync, every prefix forwards as a forwarding table built from
//!   scratch over the applier's routing table does.

mod reference;

use proptest::prelude::*;
use reference::{check_counters, check_resync, Model};
use std::collections::BTreeMap;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable, SECOND,
};
use swift_core::encoding::ReroutingPolicy;
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig, SwiftRouter};

const SESSIONS: u32 = 2;
const PREFIXES: u32 = 24;
/// Prefix indexes from here on are never announced by anyone.
const UNKNOWN: u32 = 1_000;
/// Announces an alternate for every prefix over paths no session uses.
const BACKUP: PeerId = PeerId(100);

fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(i)
}

fn peer(s: u32) -> PeerId {
    PeerId(s + 1)
}

fn asn(s: u32) -> Asn {
    Asn(10 * (s + 1))
}

/// A path of session `s`; `variant` picks the shape, so paths share links.
fn path(s: u32, i: u32, variant: u32) -> AsPath {
    let base = asn(s).0;
    match variant % 4 {
        0 => AsPath::new([base, base + 1 + i % 2]),
        1 => AsPath::new([base, base + 1 + i % 2, base + 5 + i % 3]),
        2 => AsPath::new([base, base + 3, base + 5 + i % 3]),
        _ => AsPath::new([base, base + 4]),
    }
}

/// Burst start 5 above stop 1 + 1: a burst that ends cannot restart on the
/// same withdrawal, so the model sees each burst start as the engine leaving
/// the idle state.
fn config() -> SwiftConfig {
    SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 5,
            burst_stop_threshold: 1,
            triggering_threshold: 4,
            use_history: false,
            ..Default::default()
        },
        encoding: EncodingConfig {
            min_prefixes_per_link: 3,
            ..Default::default()
        },
    }
}

/// Session `s`'s routes: every prefix, preferred in session order.
fn routes(s: u32) -> Vec<(Prefix, Route)> {
    (0..PREFIXES)
        .map(|i| {
            let mut attrs = RouteAttributes::from_path(path(s, i, i));
            attrs.local_pref = Some(200 - 50 * s);
            (p(i), Route::new(peer(s), attrs))
        })
        .collect()
}

fn table() -> RoutingTable {
    let mut t = RoutingTable::new();
    t.add_peer(BACKUP, Asn(900));
    for i in 0..PREFIXES {
        let attrs = RouteAttributes::from_path(AsPath::new([900u32, 9_000 + i % 3]));
        t.announce(BACKUP, p(i), Route::new(BACKUP, attrs));
    }
    for s in 0..SESSIONS {
        t.add_peer(peer(s), asn(s));
        for (prefix, route) in routes(s) {
            t.announce(peer(s), prefix, route);
        }
    }
    t
}

/// What the test knows of a live session: the model, every withdrawal the
/// session received (the burst detector's window is a suffix of it) and
/// whether its engine was in a burst after the previous event.
struct Session {
    model: Model,
    withdrawals: Vec<Prefix>,
    in_burst: bool,
}

impl Session {
    fn new(s: u32) -> Self {
        let seed = routes(s).into_iter().map(|(p, r)| (p, r.attrs.as_path));
        Session {
            model: Model::new(seed),
            withdrawals: Vec::new(),
            in_burst: false,
        }
    }
}

/// Random steps: (kind, session, prefix index, (path variant, gap)).
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u32, (u32, u64))>> {
    proptest::collection::vec(
        (0u8..12, 0u32..SESSIONS, 0u32..PREFIXES, (0u32..4, 0u64..6)),
        0..90,
    )
}

proptest! {
    #[test]
    fn hostile_streams_keep_counters_rules_and_forwarding_consistent(ops in arb_ops()) {
        let mut router = SwiftRouter::new(config(), table(), ReroutingPolicy::allow_all());
        let mut live: BTreeMap<u32, Session> = (0..SESSIONS).map(|s| (s, Session::new(s))).collect();
        let universe: Vec<Prefix> = (0..PREFIXES).chain(UNKNOWN..UNKNOWN + 3).map(p).collect();
        let mut t = 10 * SECOND;
        for (step, &(kind, s, i, (variant, gap))) in ops.iter().enumerate() {
            t += gap * 1_000;
            let event = match kind {
                0..=2 => ElementaryEvent::Withdraw { timestamp: t, prefix: p(i) },
                3 => ElementaryEvent::Withdraw { timestamp: t, prefix: p(UNKNOWN + i % 3) },
                4 | 5 => {
                    // A new path, or the one the prefix has or had.
                    let kept = live.get(&s).and_then(|l| l.model.rib.get(&p(i)));
                    let hops = match kept {
                        Some((had, _)) if kind == 5 => had.clone(),
                        _ => path(s, i, variant),
                    };
                    ElementaryEvent::Announce {
                        timestamp: t,
                        prefix: p(i),
                        attrs: RouteAttributes::from_path(hops),
                    }
                }
                6 => {
                    t = t.saturating_sub((gap + 1) * 4 * SECOND);
                    ElementaryEvent::Withdraw { timestamp: t, prefix: p(i) }
                }
                7 => {
                    t += 30 * SECOND;
                    ElementaryEvent::Withdraw { timestamp: t, prefix: p(i) }
                }
                8 | 9 => {
                    if live.remove(&s).is_some() {
                        router.teardown_session(peer(s));
                        prop_assert!(router.engine(peer(s)).is_none());
                        let applier = router.applier();
                        for prefix in &universe {
                            prop_assert!(
                                applier.forwarding_next_hop(prefix) != Some(peer(s)),
                                "step {step}: {prefix} forwards to torn-down {:?}", peer(s)
                            );
                        }
                        let rules = applier.forwarding().stage2_rules();
                        prop_assert!(
                            !rules.iter().any(|r| r.swift_installed && r.next_hop == peer(s)),
                            "step {step}: a SWIFT rule names torn-down {:?}", peer(s)
                        );
                    } else {
                        router.register_session(peer(s), asn(s), routes(s));
                        live.insert(s, Session::new(s));
                    }
                    continue;
                }
                10 => {
                    router.resync_after_convergence();
                    let applier = router.applier();
                    prop_assert_eq!(applier.forwarding().swift_rule_count(), 0);
                    if let Err(msg) = check_resync(applier, &universe) {
                        prop_assert!(false, "step {step}: after resync: {msg}");
                    }
                    continue;
                }
                _ => ElementaryEvent::Announce {
                    timestamp: t,
                    prefix: p(i),
                    attrs: RouteAttributes::from_path(path(s, i, variant)),
                },
            };
            // A torn-down session sends nothing until it registers again.
            let Some(session) = live.get_mut(&s) else { continue };
            router.handle_event(peer(s), event.clone());
            let engine = router.engine(peer(s)).expect("a live session has an engine");
            match &event {
                ElementaryEvent::Withdraw { prefix, .. } => {
                    session.model.withdraw(*prefix);
                    session.withdrawals.push(*prefix);
                    if engine.in_burst() && !session.in_burst {
                        let k = engine.withdrawals_in_burst();
                        let window = &session.withdrawals[session.withdrawals.len() - k..];
                        session.model.start_burst(window);
                    }
                }
                ElementaryEvent::Announce { prefix, attrs, .. } => {
                    session.model.announce(*prefix, attrs.as_path.clone());
                }
            }
            session.in_burst = engine.in_burst();
            if let Err(msg) = check_counters(engine.counters(), &session.model) {
                prop_assert!(false, "step {step} ({kind}, session {s}): {msg}");
            }
        }
    }
}
