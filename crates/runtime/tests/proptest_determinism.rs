//! Determinism property: on random interleaved multi-session streams, the
//! sharded runtime's accepted reroutes — per session — equal the
//! single-threaded [`SwiftRouter`]'s, for any shard count. (The *global*
//! action interleaving across sessions is scheduling-dependent by design;
//! per-session decisions are not.)
//!
//! Every session's prefixes straddle three /8 blocks, as a real full-table
//! session's do: a reroute must cover the predicted prefixes wherever they
//! sit in the address space, which is why the forwarding table is one table
//! behind one applier and not cut by prefix range. The safety check at the
//! end fails if an accepted inference reaches only part of it (or nothing).

use proptest::prelude::*;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
};
use swift_core::encoding::ReroutingPolicy;
use swift_core::pipeline::Applier;
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig, SwiftRouter};
use swift_runtime::{RuntimeConfig, ShardedRuntime};

const SESSIONS: u32 = 3;
const PREFIXES_PER_SESSION: u32 = 60;

/// Thresholds scaled down so random 400-event streams form bursts and
/// trigger accepted inferences often.
fn config() -> SwiftConfig {
    SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 10,
            burst_stop_threshold: 2,
            triggering_threshold: 15,
            use_history: false,
            ..Default::default()
        },
        encoding: EncodingConfig {
            min_prefixes_per_link: 5,
            ..Default::default()
        },
    }
}

/// /24s per /8 block.
const SLASH8: u32 = 65_536;

/// The shared backup peer: an alternate route for every prefix, over paths
/// that touch no session's links.
const BACKUP: PeerId = PeerId(1_000);

/// Prefix `idx` of `session`, dealt round-robin over three /8 blocks.
fn p(session: u32, idx: u32) -> Prefix {
    Prefix::nth_slash24((idx % 3) * SLASH8 + session * PREFIXES_PER_SESSION + idx)
}

/// A path within one session's AS neighbourhood; `variant` picks the shape.
fn path(session: u32, idx: u32, variant: u32) -> AsPath {
    let base = 100 + session * 1_000;
    match variant % 4 {
        0 => AsPath::new([base, base + 1 + idx % 3]),
        1 => AsPath::new([base, base + 1 + idx % 3, base + 10 + idx % 5]),
        2 => AsPath::new([base, base + 4, base + 20 + idx % 2]),
        _ => AsPath::new([base, base + 5]),
    }
}

/// Per-session tables: each peer announces its own prefixes as the preferred
/// route, the backup peer an alternate for each.
fn table() -> RoutingTable {
    let mut t = RoutingTable::new();
    t.add_peer(BACKUP, Asn(1_000));
    for s in 0..SESSIONS {
        let peer = PeerId(s + 1);
        t.add_peer(peer, Asn(100 + s * 1_000));
        for i in 0..PREFIXES_PER_SESSION {
            let mut attrs = RouteAttributes::from_path(path(s, i, i));
            attrs.local_pref = Some(200);
            t.announce(peer, p(s, i), Route::new(peer, attrs, 0));
            let alternate = RouteAttributes::from_path(AsPath::new([1_000u32, 30_000 + i % 7]));
            t.announce(BACKUP, p(s, i), Route::new(BACKUP, alternate, 0));
        }
    }
    t
}

/// Random multi-session stream entries: (session, withdraw?, prefix index,
/// announce-path variant). Timestamps are assigned in arrival order, 5 ms
/// apart, so dense runs form bursts.
fn arb_stream() -> impl Strategy<Value = Vec<(u32, bool, u32, u32)>> {
    proptest::collection::vec(
        (
            0u32..SESSIONS,
            any::<bool>(),
            0u32..PREFIXES_PER_SESSION,
            0u32..4,
        ),
        0..400,
    )
}

fn materialize(stream: &[(u32, bool, u32, u32)]) -> Vec<(PeerId, ElementaryEvent)> {
    stream
        .iter()
        .enumerate()
        .map(|(k, (s, withdraw, idx, variant))| {
            let timestamp = k as u64 * 5_000;
            let event = if *withdraw {
                ElementaryEvent::Withdraw {
                    timestamp,
                    prefix: p(*s, *idx),
                }
            } else {
                ElementaryEvent::Announce {
                    timestamp,
                    prefix: p(*s, *idx),
                    attrs: RouteAttributes::from_path(path(*s, *idx, *variant)),
                }
            };
            (PeerId(s + 1), event)
        })
        .collect()
}

proptest! {
    /// Per-session accepted reroutes of the sharded runtime (1 to 3 shards,
    /// real threads) equal the single-threaded router's on random interleaved
    /// streams, installed-rule counts included, and leave no predicted prefix
    /// on a failed link; the deterministic inline mode equals the router
    /// globally.
    #[test]
    fn sharded_reroutes_equal_single_threaded(stream in arb_stream()) {
        let events = materialize(&stream);

        let mut router = SwiftRouter::new(config(), table(), ReroutingPolicy::allow_all());
        for (peer, ev) in &events {
            router.handle_event(*peer, ev);
        }

        // Deterministic mode: identical globally, action for action.
        let mut det = ShardedRuntime::new(
            RuntimeConfig::deterministic(),
            config(),
            table(),
            ReroutingPolicy::allow_all(),
        );
        det.ingest_stream(events.iter().cloned());
        let det_report = det.finish();
        prop_assert_eq!(det_report.actions.len(), router.actions().len());
        for (a, b) in det_report.actions.iter().zip(router.actions()) {
            prop_assert_eq!(a.session, b.session);
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(&a.links, &b.links);
            prop_assert_eq!(&a.predicted, &b.predicted);
            prop_assert_eq!(a.rules_installed, b.rules_installed);
        }

        // Sharded modes: identical per session.
        for shards in [1usize, 2, 3] {
            let mut runtime = ShardedRuntime::new(
                RuntimeConfig {
                    batch_size: 7, // force mid-burst batch boundaries
                    ..RuntimeConfig::sharded(shards)
                },
                config(),
                table(),
                ReroutingPolicy::allow_all(),
            );
            runtime.ingest_stream(events.iter().cloned());
            let report = runtime.finish();
            prop_assert_eq!(report.metrics.dropped, 0);
            prop_assert_eq!(report.actions.len(), router.actions().len());
            for s in 0..SESSIONS {
                let peer = PeerId(s + 1);
                let got = report.actions_for(peer);
                let want: Vec<_> = router
                    .actions()
                    .iter()
                    .filter(|a| a.session == peer)
                    .collect();
                prop_assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(a.time, b.time);
                    prop_assert_eq!(&a.links, &b.links);
                    prop_assert_eq!(&a.predicted, &b.predicted);
                    prop_assert_eq!(a.rules_installed, b.rules_installed);
                }
            }
            // Lemma 3.3 on the final data plane: whichever /8 a predicted
            // prefix sits in, it no longer forwards over an inferred link.
            // No stream here resyncs, so every tag was computed from the
            // seed table's routes, and the check reads those: a path the
            // stream announced after the reroute is the resync's business.
            let mut data_plane = Applier::from_parts(
                config(),
                table(),
                report.applier().forwarding().clone(),
                ReroutingPolicy::allow_all(),
            );
            for action in &report.actions {
                let unsafe_left = data_plane.unsafe_reroutes(action.predicted.prefixes(), &action.links);
                prop_assert!(
                    unsafe_left.is_empty(),
                    "{} of {} predicted prefixes still cross {:?}",
                    unsafe_left.len(),
                    action.predicted.len(),
                    action.links
                );
            }
        }
    }
}
