//! `session_engines` seeds a session holding at least half of the table's
//! prefixes with a clone of the table's dictionary, numbering prefixes by
//! the table's ids, and a smaller one with a dictionary of its own in the
//! table's id order; `SessionEngine::from_interned` numbers them by its
//! own, in prefix order. No decision may depend on the numbering: on
//! random multi-peer tables — with or without a full-feed session, whose id
//! order is neither prefix order nor any one session's (interleaved, or
//! one band of ids per session), sealed or not and with prefixes the table
//! learned after its seal — each session's two engines must return the
//! same `(EngineStatus, InferenceResult)` for every event of a random
//! stream: withdrawals of routed prefixes, noise withdrawals of prefixes
//! nobody announced, re-announcements over other paths, announcements of
//! other sessions' prefixes and of prefixes the table never saw, which a
//! table-numbered engine interns in its own part of the dictionary, apart
//! from the other sessions' engines.

use proptest::prelude::*;
use std::collections::BTreeMap;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, InternedRib, PeerId, Prefix, Route, RouteAttributes,
    RoutingTable, MILLISECOND,
};
use swift_core::inference::{EngineStatus, InferenceResult};
use swift_core::pipeline::{session_engines, SessionEngine};
use swift_core::{InferenceConfig, SwiftConfig};

const PEERS: u32 = 3;
/// Prefixes per session's block: session `s` announces mostly indexes
/// `s * BLOCK ..` and some of the next session's.
const BLOCK: u32 = 150;
/// Prefix indexes the table announces; those from here up to [`POOL`] only
/// ever come in as events (announcements of new prefixes, or noise).
const TABLE_PREFIXES: u32 = PEERS * BLOCK;
const POOL: u32 = TABLE_PREFIXES + 40;

/// Descending addresses for ascending indexes, so that the table's id order
/// (first announcement) is not prefix order.
fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(10_000 - i * 7)
}

/// A path of session `s` over a small AS universe, so paths share links.
fn path(s: u32, shape: u32) -> AsPath {
    let base = 10 * (s + 1);
    match shape % 5 {
        0 => AsPath::new([base, 100 + shape % 3]),
        1 => AsPath::new([base, 100 + shape % 3, 200 + shape % 4]),
        2 => AsPath::new([base, 101, 200 + shape % 4, 300]),
        3 => AsPath::new([base, 102, 301]),
        _ => AsPath::new([base, 100, 200, 300 + shape % 2]),
    }
}

/// Low thresholds, so short streams open bursts and run attempts, with the
/// history model on or off.
fn config(use_history: bool) -> SwiftConfig {
    SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 4,
            burst_stop_threshold: 1,
            triggering_threshold: 3,
            use_history,
            plausibility_table: vec![(3, 6), (6, 12), (9, 40)],
            force_threshold: 12,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The table: `routes` (peer index, prefix index, path shape) announced in
/// the order given, or session by session when `in_bands` (so that each
/// session's ids form one band), sealed after the first `sealed` of them
/// when `sealed` is some. With `full_feed` 1 or 2, session 0 also announces
/// every table prefix, before or after the others.
fn table(
    routes: &[(u32, u32, u32)],
    in_bands: bool,
    full_feed: u8,
    sealed: Option<usize>,
) -> RoutingTable {
    let mut table = RoutingTable::new();
    for s in 0..PEERS {
        table.add_peer(PeerId(s + 1), Asn(10 * (s + 1)));
    }
    let mut routes = routes.to_vec();
    if in_bands {
        routes.sort_by_key(|(s, _, _)| *s);
    }
    let feed = (0..TABLE_PREFIXES).rev().map(|i| (0, i, i % 20));
    match full_feed {
        1 => routes.splice(0..0, feed).for_each(drop),
        2 => routes.extend(feed),
        _ => {}
    }
    for (k, (s, i, shape)) in routes.iter().enumerate() {
        if sealed == Some(k) {
            table.seal();
        }
        let peer = PeerId(s + 1);
        let attrs = RouteAttributes::from_path(path(*s, *shape));
        table.announce(peer, p(*i), Route::new(peer, attrs, 0));
    }
    table
}

/// Each session's engine seeded from its routes in prefix order, with a
/// dictionary of its own.
fn self_numbered(config: &SwiftConfig, table: &RoutingTable) -> BTreeMap<PeerId, SessionEngine> {
    table
        .peers()
        .map(|(peer, _)| {
            let mut rib = InternedRib::new();
            for (prefix, route) in table.adj_rib_in(peer).expect("listed").iter() {
                rib.push(*prefix, route.as_path());
            }
            (peer, SessionEngine::from_interned(peer, config, &rib))
        })
        .collect()
}

/// What an engine returned for one event, comparable across numberings:
/// the predictions compare as prefix sets.
fn outcome(out: (EngineStatus, Option<InferenceResult>)) -> String {
    let (status, result) = out;
    let result = result.map(|r| {
        (
            r.time,
            r.withdrawals_seen,
            r.links,
            r.prediction.already_withdrawn.prefixes().clone(),
            r.prediction.predicted.prefixes().clone(),
        )
    });
    format!("{status:?} {result:?}")
}

/// Routes: (peer index, prefix index, path shape), one in eight in the
/// next session's block (the last session's all in its own).
fn arb_routes() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0..PEERS, 0..BLOCK, 0u32..20, 0u8..8), 0..400).prop_map(|routes| {
        routes
            .into_iter()
            .map(|(s, i, shape, other)| {
                let block = if other == 0 && s + 1 < PEERS {
                    s + 1
                } else {
                    s
                };
                (s, block * BLOCK + i, shape)
            })
            .collect()
    })
}

/// Events: (peer index, kind, prefix index, path shape). Kinds 0–2
/// withdraw one of the session's own block, 3–4 anything in the pool
/// (noise included), 5–6 re-announce one of its block, 7 announces
/// anything in the pool.
fn arb_events() -> impl Strategy<Value = Vec<(u32, u8, u32, u32)>> {
    proptest::collection::vec((0..PEERS, 0u8..8, 0..POOL, 0u32..20), 0..300)
}

proptest! {
    #[test]
    fn table_numbered_engines_decide_like_self_numbered_ones(
        routes in arb_routes(),
        in_bands in any::<bool>(),
        full_feed in 0u8..3,
        seal_at in (any::<bool>(), 0usize..800),
        events in arb_events(),
        use_history in any::<bool>(),
    ) {
        let config = config(use_history);
        let table = table(&routes, in_bands, full_feed, seal_at.0.then_some(seal_at.1));
        let mut shared = session_engines(&config, &table);
        let mut own = self_numbered(&config, &table);
        let mut time = 0;
        for (s, kind, i, shape) in events {
            let peer = PeerId(s + 1);
            time += 100 * MILLISECOND;
            let prefix = match kind {
                0..=2 | 5 | 6 => p(s * BLOCK + i % BLOCK),
                _ => p(i),
            };
            let event = if kind < 5 {
                ElementaryEvent::Withdraw { timestamp: time, prefix }
            } else {
                let attrs = RouteAttributes::from_path(path(s, shape));
                ElementaryEvent::Announce { timestamp: time, prefix, attrs }
            };
            let a = shared.get_mut(&peer).expect("session").process(&event);
            let b = own.get_mut(&peer).expect("session").process(&event);
            prop_assert_eq!(outcome(a), outcome(b));
        }
        for (peer, engine) in &shared {
            let counters = |e: &SessionEngine| {
                let c = e.engine().counters();
                let mut routed: Vec<(Prefix, AsPath)> = c.routed().map(|(q, path)| (*q, path.clone())).collect();
                let mut withdrawn: Vec<(Prefix, AsPath)> = c.withdrawn().map(|(q, path)| (*q, path.clone())).collect();
                routed.sort_unstable_by_key(|(q, _)| *q);
                withdrawn.sort_unstable_by_key(|(q, _)| *q);
                (routed, withdrawn, c.total_withdrawals())
            };
            prop_assert_eq!(counters(engine), counters(&own[peer]));
        }
    }
}
