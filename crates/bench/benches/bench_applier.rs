//! Criterion micro-benchmarks of the applier — the serialized half of the
//! pipeline — at corpus scale (16 sessions × 65 536 prefixes = 1 M stage-1
//! entries):
//!
//! * reroute-rule install / remove (a read of the backup-in-use index:
//!   O(rules), whatever the table size) and a 1 024-prefix stage-1 refresh on
//!   the router-wide [`TwoStageTable`];
//! * the two per-event entry points of [`Applier`]: the RIB-mirror apply
//!   (`note_event`, a withdrawal and the announcement restoring it) and
//!   `apply_inference` (install + action log, with the resync that undoes it);
//! * `resync/retag_22k_of_1m`: the post-convergence fallback at the size the
//!   repo benchmark's `bigtable_inline` pays for it — 22 000 scattered
//!   withdrawals on a 1 M-prefix, two-peer table, a resync, the announcements
//!   restoring them, a second resync. The body ends in the state it started
//!   in, so iterations are alike;
//! * `resync/retag_3k_of_240k_12_sessions`: the same cycle on `corpus_inline`'s
//!   shape — 12 sessions and a shared backup, one or two candidates per
//!   prefix, 3 000 scattered prefixes — where a retag's cost is the walk over
//!   the peers;
//! * `mirror/withdraw_reannounce_22k_of_1m`: the same 44 000 events applied
//!   to the bare [`RoutingTable`] — the RIB mirror alone, no dirty set, no
//!   retag: what a withdrawal and the announcement restoring it cost with
//!   a route stored as a 16-byte record over the table's attribute
//!   dictionary;
//! * `mirror/apply_all_22k_of_1m`: the same churn through
//!   [`RoutingTable::apply_all`], the batched fold the applier uses, with
//!   every event unresolved, as the sharded runtime's applier folds them.

use criterion::{criterion_group, criterion_main, Criterion};
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, PrefixId, PrefixSet, Resolved, Route,
    RouteAttributes, RoutingTable,
};
use swift_core::encoding::{ReroutingPolicy, TwoStageTable};
use swift_core::inference::{InferenceResult, InferredLinks, Prediction, PrefixSnapshot, Score};
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, SwiftConfig};

const SESSIONS: u32 = 16;
const PER_SESSION: u32 = 65_536;

/// `sessions` sessions × `per_session` prefixes behind per-session remote
/// links, plus one shared backup peer with a disjoint path for every
/// `backup_every`-th prefix of each session.
fn table(sessions: u32, per_session: u32, backup_every: u32) -> RoutingTable {
    let mut t = RoutingTable::new();
    let backup = PeerId(1_000);
    t.add_peer(backup, Asn(1_000));
    for s in 0..sessions {
        let peer = PeerId(s + 1);
        let base = 100 + s * 1_000;
        t.add_peer(peer, Asn(base));
        for i in 0..per_session {
            let prefix = Prefix::nth_slash24(s * per_session + i);
            let hops = [base, base + 1, base + 10 + i % 3];
            let attrs = RouteAttributes::from_path(AsPath::new(hops)).with_local_pref(200);
            t.announce(peer, prefix, Route::new(peer, attrs, 0));
            if i % backup_every == 0 {
                let attrs = RouteAttributes::from_path(AsPath::new([1_000u32, 30_000 + i % 7]));
                t.announce(backup, prefix, Route::new(backup, attrs, 0));
            }
        }
    }
    t
}

fn config() -> EncodingConfig {
    EncodingConfig {
        min_prefixes_per_link: 1_000,
        ..Default::default()
    }
}

fn bench_applier(c: &mut Criterion) {
    let routing = table(SESSIONS, PER_SESSION, 1);
    let policy = ReroutingPolicy::allow_all();
    let swift = SwiftConfig {
        encoding: config(),
        ..Default::default()
    };
    let global = TwoStageTable::build(&routing, &config(), &policy);
    assert_eq!(global.stage1_len(), (SESSIONS * PER_SESSION) as usize);
    // Session 0's first-hop link: on every one of its 65 536 paths.
    let links = [AsLink::new(100, 101)];

    // Install + remove as a pair, so the table returns to its pre-iteration
    // state.
    let mut single = global.clone();
    c.bench_function("applier/install_remove_single_1m", |b| {
        b.iter(|| {
            let (id, installed) = single.install_reroute_tracked(&links);
            let removed = single.remove_reroute(id);
            std::hint::black_box((installed, removed))
        })
    });

    // 1 024 prefixes spread over all sessions: refreshed, or each withdrawn
    // from its session and announced again with its original attributes.
    let session = |id| PeerId(id / PER_SESSION + 1);
    let churn_1k = churn(&routing, SESSIONS * PER_SESSION, 1_024, session);
    let refresh_ids: Vec<PrefixId> = churn_1k
        .iter()
        .map(|(_, withdraw, _)| routing.prefix_id(&withdraw.prefix()).expect("announced"))
        .collect();
    let mut single = global.clone();
    c.bench_function("applier/refresh_1024_single_1m", |b| {
        b.iter(|| {
            std::hint::black_box(single.refresh_ids(&routing, &policy, refresh_ids.iter().copied()))
        })
    });

    let mut applier = Applier::from_parts(swift, routing.clone(), global, policy);

    c.bench_function("applier/note_event_withdraw_announce_1m", |b| {
        b.iter(|| {
            for (peer, withdraw, _) in &churn_1k {
                applier.note_event(*peer, withdraw);
            }
            for (peer, _, announce) in &churn_1k {
                applier.note_event(*peer, announce);
            }
        })
    });
    applier.resync_after_convergence();

    // Session 0's whole block predicted: the install and the action log share
    // the inference's set, the resync releases the rules again.
    let result = InferenceResult {
        time: 0,
        withdrawals_seen: 2_500,
        links: InferredLinks {
            links: links.to_vec(),
            score: Score {
                ws: 1.0,
                ps: 1.0,
                fs: 1.0,
            },
            withdrawn: 0,
            routed: PER_SESSION as usize,
        },
        prediction: Prediction {
            already_withdrawn: PrefixSnapshot::default(),
            predicted: (0..PER_SESSION)
                .map(Prefix::nth_slash24)
                .collect::<PrefixSet>()
                .into(),
        },
    };
    c.bench_function("applier/apply_inference_1m", |b| {
        b.iter(|| {
            let action = applier.apply_inference(PeerId(1), &result);
            let removed = applier.resync_after_convergence();
            std::hint::black_box((action.rules_installed, removed))
        })
    });
}

const RETAG_PREFIXES: u32 = 1_000_000;
const RETAG_DIRTY: u32 = 22_000;
/// `corpus_inline`'s shape: 12 sessions of 20 000 prefixes, half of them
/// also behind the shared backup — one or two candidates per prefix.
const CORPUS_SESSIONS: u32 = 12;
const CORPUS_PER_SESSION: u32 = 20_000;

/// One primary session (LOCAL_PREF 200) and one backup peer over the same
/// 1 M prefixes — the shape of the repo benchmark's `bigtable_inline`.
fn two_peer_table() -> RoutingTable {
    let mut t = RoutingTable::new();
    let (primary, backup) = (PeerId(1), PeerId(2));
    t.add_peer(primary, Asn(1));
    t.add_peer(backup, Asn(2));
    for i in 0..RETAG_PREFIXES {
        let prefix = Prefix::nth_slash24(i);
        let hops = [1u32, 100 + i % 7, 200 + i % 31, 300 + i % 101];
        let attrs = RouteAttributes::from_path(AsPath::new(hops)).with_local_pref(200);
        t.announce(primary, prefix, Route::new(primary, attrs, 0));
        let alternate = RouteAttributes::from_path(AsPath::new([2u32, 400 + i % 5, 500 + i % 13]));
        t.announce(backup, prefix, Route::new(backup, alternate, 0));
    }
    t
}

/// `(session, withdrawal, announcement restoring it)` per churned prefix.
type Churn = Vec<(PeerId, ElementaryEvent, ElementaryEvent)>;

/// The churn of `dirty` prefixes scattered over the table's first `prefixes`
/// ids (48 271 is prime, so coprime to each table size here), each withdrawn by
/// `session(id)`. The announcement carries the route's own attributes, so a
/// cycle ends where it started.
fn churn(routing: &RoutingTable, prefixes: u32, dirty: u32, session: fn(u32) -> PeerId) -> Churn {
    (0..dirty)
        .map(|k| {
            let index = (u64::from(k) * 48_271 % u64::from(prefixes)) as u32;
            let (peer, prefix) = (session(index), Prefix::nth_slash24(index));
            let rib = routing.adj_rib_in(peer).expect("session is in the table");
            let attrs = rib.get(&prefix).expect("announced").attrs.clone();
            let withdraw = ElementaryEvent::Withdraw {
                timestamp: 1,
                prefix,
            };
            let announce = ElementaryEvent::Announce {
                timestamp: 0,
                prefix,
                attrs,
            };
            (peer, withdraw, announce)
        })
        .collect()
}

/// One retag cycle per iteration: every churned prefix withdrawn, a resync,
/// the announcements restoring them, a second resync. The first churned
/// prefix checks that each resync moved it.
fn bench_retag(c: &mut Criterion, name: &str, routing: RoutingTable, churn: &Churn) {
    let swift = SwiftConfig {
        encoding: config(),
        ..Default::default()
    };
    let mut applier = Applier::new(swift, routing, ReroutingPolicy::allow_all());
    let (session, probe) = (churn[0].0, churn[0].1.prefix());
    c.bench_function(name, |b| {
        b.iter(|| {
            for (peer, withdraw, _) in churn {
                applier.note_event(*peer, withdraw);
            }
            applier.resync_after_convergence();
            assert_ne!(applier.forwarding_next_hop(&probe), Some(session));
            for (peer, _, announce) in churn {
                applier.note_event(*peer, announce);
            }
            applier.resync_after_convergence();
            assert_eq!(applier.forwarding_next_hop(&probe), Some(session));
        })
    });
}

fn bench_resync(c: &mut Criterion) {
    let routing = two_peer_table();
    let churn_22k = churn(&routing, RETAG_PREFIXES, RETAG_DIRTY, |_| PeerId(1));
    let mut mirror = routing.clone();
    c.bench_function("mirror/withdraw_reannounce_22k_of_1m", |b| {
        b.iter(|| {
            for (peer, withdraw, _) in &churn_22k {
                mirror.apply(*peer, withdraw);
            }
            for (peer, _, announce) in &churn_22k {
                mirror.apply(*peer, announce);
            }
        })
    });
    let unresolved = Resolved::UNKNOWN;
    let withdrawals: Vec<_> = (churn_22k.iter())
        .map(|(p, w, _)| (*p, w.clone(), unresolved))
        .collect();
    let announcements: Vec<_> = (churn_22k.iter())
        .map(|(p, _, a)| (*p, a.clone(), unresolved))
        .collect();
    let mut batch = Vec::with_capacity(churn_22k.len());
    c.bench_function("mirror/apply_all_22k_of_1m", |b| {
        b.iter(|| {
            for events in [&withdrawals, &announcements] {
                batch.extend_from_slice(events);
                mirror.apply_all(&mut batch, |_| {});
            }
        })
    });
    assert_eq!(
        mirror.adj_rib_in(PeerId(1)).map(|rib| rib.len()),
        routing.adj_rib_in(PeerId(1)).map(|rib| rib.len())
    );
    drop(mirror);
    bench_retag(c, "resync/retag_22k_of_1m", routing, &churn_22k);

    let routing = table(CORPUS_SESSIONS, CORPUS_PER_SESSION, 2);
    let session = |id| PeerId(id / CORPUS_PER_SESSION + 1);
    let churn_3k = churn(
        &routing,
        CORPUS_SESSIONS * CORPUS_PER_SESSION,
        3_000,
        session,
    );
    bench_retag(c, "resync/retag_3k_of_240k_12_sessions", routing, &churn_3k);
}

criterion_group!(benches, bench_applier, bench_resync);
criterion_main!(benches);
