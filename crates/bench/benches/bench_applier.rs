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
//! * `mirror/withdraw_reannounce_22k_of_1m`: the same 44 000 events applied
//!   to the bare [`RoutingTable`] — the RIB mirror alone, no dirty set, no
//!   retag: what a withdrawal and the announcement restoring it cost when a
//!   route is (or is not) a flat record.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, PrefixId, Route, RouteAttributes,
    RoutingTable,
};
use swift_core::encoding::{ReroutingPolicy, TwoStageTable};
use swift_core::inference::{InferenceResult, InferredLinks, Prediction, Score};
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, SwiftConfig};

const SESSIONS: u32 = 16;
const PER_SESSION: u32 = 65_536;

/// Session `s`'s `i`-th prefix, block-spaced like the soak corpus.
fn p(s: u32, i: u32) -> Prefix {
    Prefix::nth_slash24(s * PER_SESSION + i)
}

/// 16 sessions × 65 536 prefixes behind per-session remote links, plus one
/// shared backup peer with disjoint paths over every prefix.
fn table() -> RoutingTable {
    let mut t = RoutingTable::new();
    let backup = PeerId(1_000);
    t.add_peer(backup, Asn(1_000));
    for s in 0..SESSIONS {
        let peer = PeerId(s + 1);
        let base = 100 + s * 1_000;
        t.add_peer(peer, Asn(base));
        for i in 0..PER_SESSION {
            let mut attrs =
                RouteAttributes::from_path(AsPath::new([base, base + 1, base + 10 + i % 3]));
            attrs.local_pref = Some(200);
            t.announce(peer, p(s, i), Route::new(peer, attrs, 0));
            t.announce(
                backup,
                p(s, i),
                Route::new(
                    backup,
                    RouteAttributes::from_path(AsPath::new([1_000u32, 30_000 + i % 7])),
                    0,
                ),
            );
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

/// Prefixes spread over all sessions for the refresh benches.
fn refresh_set() -> Vec<Prefix> {
    (0..1_024u32)
        .map(|i| p(i % SESSIONS, (i * 37) % PER_SESSION))
        .collect()
}

fn bench_applier(c: &mut Criterion) {
    let routing = table();
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

    let refresh = refresh_set();
    let refresh_ids: Vec<PrefixId> = refresh
        .iter()
        .map(|prefix| routing.prefix_id(prefix).expect("announced"))
        .collect();
    let mut single = global.clone();
    c.bench_function("applier/refresh_1024_single_1m", |b| {
        b.iter(|| {
            std::hint::black_box(single.refresh_ids(&routing, &policy, refresh_ids.iter().copied()))
        })
    });

    let mut applier = Applier::from_parts(swift, routing.clone(), global, policy);

    // 1 024 prefixes spread over all sessions: each withdrawn from its
    // session, then announced again with its original attributes.
    let churn: Vec<(PeerId, ElementaryEvent, ElementaryEvent)> = refresh
        .iter()
        .zip(0u32..)
        .map(|(prefix, i)| {
            let peer = PeerId(i % SESSIONS + 1);
            let rib = routing.adj_rib_in(peer).expect("session is in the table");
            let withdraw = ElementaryEvent::Withdraw {
                timestamp: 1,
                prefix: *prefix,
            };
            let announce = ElementaryEvent::Announce {
                timestamp: 2,
                prefix: *prefix,
                attrs: rib.get(prefix).expect("announced").attrs.clone(),
            };
            (peer, withdraw, announce)
        })
        .collect();
    c.bench_function("applier/note_event_withdraw_announce_1m", |b| {
        b.iter(|| {
            for (peer, withdraw, _) in &churn {
                applier.note_event(*peer, withdraw);
            }
            for (peer, _, announce) in &churn {
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
            already_withdrawn: Arc::default(),
            predicted: Arc::new((0..PER_SESSION).map(|i| p(0, i)).collect()),
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

/// One primary session (LOCAL_PREF 200) and one backup peer over the same
/// 1 M prefixes — the shape of the repo benchmark's `bigtable_inline`.
fn two_peer_table() -> RoutingTable {
    let mut t = RoutingTable::new();
    let (primary, backup) = (PeerId(1), PeerId(2));
    t.add_peer(primary, Asn(1));
    t.add_peer(backup, Asn(2));
    for i in 0..RETAG_PREFIXES {
        let mut attrs = RouteAttributes::from_path(AsPath::new([
            1u32,
            100 + i % 7,
            200 + i % 31,
            300 + i % 101,
        ]));
        attrs.local_pref = Some(200);
        t.announce(
            primary,
            Prefix::nth_slash24(i),
            Route::new(primary, attrs, 0),
        );
        let alternate = RouteAttributes::from_path(AsPath::new([2u32, 400 + i % 5, 500 + i % 13]));
        t.announce(
            backup,
            Prefix::nth_slash24(i),
            Route::new(backup, alternate, 0),
        );
    }
    t
}

fn bench_resync(c: &mut Criterion) {
    let routing = two_peer_table();
    let swift = SwiftConfig {
        encoding: config(),
        ..Default::default()
    };
    // 22 000 prefixes scattered over the table (48 271 is coprime to 10^6),
    // withdrawn by the primary session and restored with their attributes.
    let rib = routing.adj_rib_in(PeerId(1)).expect("primary session");
    let churn: Vec<(ElementaryEvent, ElementaryEvent)> = (0..RETAG_DIRTY)
        .map(|k| {
            let prefix = Prefix::nth_slash24((u64::from(k) * 48_271 % 1_000_000) as u32);
            let withdraw = ElementaryEvent::Withdraw {
                timestamp: 1,
                prefix,
            };
            let announce = ElementaryEvent::Announce {
                timestamp: 0,
                prefix,
                attrs: rib.get(&prefix).expect("announced").attrs.clone(),
            };
            (withdraw, announce)
        })
        .collect();
    let mut mirror = routing.clone();
    c.bench_function("mirror/withdraw_reannounce_22k_of_1m", |b| {
        b.iter(|| {
            for (withdraw, _) in &churn {
                mirror.apply(PeerId(1), withdraw);
            }
            for (_, announce) in &churn {
                mirror.apply(PeerId(1), announce);
            }
        })
    });
    assert_eq!(
        mirror.adj_rib_in(PeerId(1)).map(|rib| rib.len()),
        Some(rib.len())
    );
    drop(mirror);

    let mut applier = Applier::new(swift, routing.clone(), ReroutingPolicy::allow_all());
    let probe = Prefix::nth_slash24(48_271);
    c.bench_function("resync/retag_22k_of_1m", |b| {
        b.iter(|| {
            for (withdraw, _) in &churn {
                applier.note_event(PeerId(1), withdraw);
            }
            applier.resync_after_convergence();
            assert_eq!(applier.forwarding_next_hop(&probe), Some(PeerId(2)));
            for (_, announce) in &churn {
                applier.note_event(PeerId(1), announce);
            }
            applier.resync_after_convergence();
            assert_eq!(applier.forwarding_next_hop(&probe), Some(PeerId(1)));
        })
    });
}

criterion_group!(benches, bench_applier, bench_resync);
criterion_main!(benches);
