//! Criterion micro-benchmarks of the applier — the serialized half of the
//! pipeline — at corpus scale (16 sessions × 65 536 prefixes = 1 M stage-1
//! entries, each session in its own /8 block):
//!
//! * reroute-rule install / remove and stage-1 refresh on a single global
//!   [`TwoStageTable`] versus a prefix-range [`PartitionedTable`]. The install
//!   reads the backup-in-use index, so it costs the same on both — the pair
//!   is the number the "does partitioning still earn its keep" question needs;
//! * the two per-event entry points of [`Applier`]: the RIB-mirror apply
//!   (`note_event`, a withdrawal and the announcement restoring it) and
//!   `apply_inference` (install + action log, with the resync that undoes it).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, PrefixSet, Route, RouteAttributes,
    RoutingTable,
};
use swift_core::encoding::{PartitionedTable, PrefixPartitioner, ReroutingPolicy, TwoStageTable};
use swift_core::inference::{InferenceResult, InferredLinks, Prediction, Score};
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, SwiftConfig};

const SESSIONS: u32 = 16;
const PER_SESSION: u32 = 65_536;
const PARTITIONS: usize = 4;

/// Session `s`'s `i`-th prefix, block-spaced exactly like the soak corpus:
/// each session's 65 536-slot block fills one /8.
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
    let global = TwoStageTable::build(&routing, &config(), &policy);
    assert_eq!(global.stage1_len(), (SESSIONS * PER_SESSION) as usize);
    // Session 0's first-hop link: on every one of its 65 536 paths.
    let links = [AsLink::new(100, 101)];
    let home = PrefixPartitioner::new(PARTITIONS).partition_of(&p(0, 0));

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

    let mut partitioned =
        PartitionedTable::from_global(global.clone(), PrefixPartitioner::new(PARTITIONS));
    c.bench_function("applier/install_remove_partitioned4_1m", |b| {
        b.iter(|| {
            let (id, installed) = partitioned.install_reroute_tracked(home, &links);
            let removed = partitioned.remove_reroute(home, id);
            std::hint::black_box((installed, removed))
        })
    });

    let refresh = refresh_set();
    let mut single = global.clone();
    c.bench_function("applier/refresh_1024_single_1m", |b| {
        b.iter(|| {
            std::hint::black_box(single.refresh_prefixes(
                &routing,
                &policy,
                refresh.iter().copied(),
            ))
        })
    });

    let mut partitioned =
        PartitionedTable::from_global(global.clone(), PrefixPartitioner::new(PARTITIONS));
    c.bench_function("applier/refresh_1024_partitioned4_1m", |b| {
        b.iter(|| {
            std::hint::black_box(partitioned.refresh_prefixes(
                &routing,
                &policy,
                refresh.iter().copied(),
            ))
        })
    });

    let swift = SwiftConfig {
        encoding: config(),
        ..Default::default()
    };
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
            already_withdrawn: PrefixSet::new(),
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

criterion_group!(benches, bench_applier);
criterion_main!(benches);
