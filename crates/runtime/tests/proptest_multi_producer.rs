//! Multi-producer equivalence property: on random interleaved multi-session
//! streams split into random K-way source partitions (sessions disjoint
//! across sources), the K-producer sharded replay reaches — per session —
//! exactly the decisions (installed-rule counts included) of the
//! single-producer sharded replay and of the deterministic inline mode,
//! including a mid-run teardown + re-register on one source and
//! `resync_after_convergence` between producer segments, removes the same
//! number of rules at every resync, and ends with an identical set of SWIFT
//! rules in the data plane.
//!
//! This is the runtime's multi-producer contract: as long as each session is
//! pinned to one `IngestHandle`, the producer count is invisible in the
//! decision stream, and a resync called once every producer of a segment has
//! finished sees that whole segment.

use proptest::prelude::*;
use std::collections::BTreeSet;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
};
use swift_core::encoding::{ReroutingPolicy, TagRule};
use swift_core::{EncodingConfig, InferenceConfig, RerouteAction, SwiftConfig};
use swift_runtime::{RuntimeConfig, RuntimeReport, ShardedRuntime};

const SESSIONS: u32 = 3;
const PREFIXES_PER_SESSION: u32 = 60;

/// The flapped session: torn down and re-registered mid-run on whichever
/// source it is pinned to.
const CHURNED: PeerId = PeerId(1);

/// The shared backup peer: an alternate route for every prefix of every
/// session, so accepted inferences install rules.
const BACKUP: PeerId = PeerId(1_000);

/// Thresholds scaled down so random 300-event streams form bursts and
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

fn p(session: u32, idx: u32) -> Prefix {
    Prefix::nth_slash24(session * PREFIXES_PER_SESSION + idx)
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

/// Per-session tables: each peer announces its own prefix block as the
/// preferred route, the backup peer an alternate for each prefix.
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

/// The initial routes of the churned session — what its re-registration
/// replays.
fn churned_routes() -> Vec<(Prefix, Route)> {
    table()
        .adj_rib_in(CHURNED)
        .expect("churned session exists")
        .iter()
        .map(|(prefix, route)| (*prefix, route.clone()))
        .collect()
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
        0..300,
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

/// The per-session `(time, links, predicted, rules_installed)` projection
/// the runs are compared on.
fn decisions_for(actions: &[RerouteAction], peer: PeerId) -> Vec<(u64, String, usize, usize)> {
    actions
        .iter()
        .filter(|a| a.session == peer)
        .map(|a| {
            (
                a.time,
                format!("{:?}", a.links),
                a.predicted.len(),
                a.rules_installed,
            )
        })
        .collect()
}

/// The SWIFT-installed rules left in the data plane when the run ended.
fn swift_rules(report: &RuntimeReport) -> BTreeSet<TagRule> {
    let rules = report.applier().forwarding().stage2_rules();
    rules
        .iter()
        .filter(|r| r.swift_installed)
        .map(|r| r.rule)
        .collect()
}

/// Sessions disjoint across sources: session s (1-based peers) → source
/// (s - 1) % k, each source preserving the merged order of its sessions.
/// Each event keeps its position in the merged stream.
fn partition(
    events: &[(usize, PeerId, ElementaryEvent)],
    k: usize,
) -> Vec<Vec<(usize, PeerId, ElementaryEvent)>> {
    let mut sources = vec![Vec::new(); k];
    for (at, peer, event) in events {
        sources[(peer.0 as usize - 1) % k].push((*at, *peer, event.clone()));
    }
    sources
}

/// What a run produced: its report and the rules each resync removed.
type Run = (RuntimeReport, Vec<usize>);

/// Replays the stream inline: the churned session's teardown + re-register
/// just before the event at position `churn_at`, and a resync before the
/// event at each position in `resync_at` (sorted; a position equal to the
/// stream length resyncs after its last event).
fn run_inline(
    events: &[(PeerId, ElementaryEvent)],
    churn_at: Option<usize>,
    resync_at: &[usize],
) -> Run {
    let mut runtime = ShardedRuntime::new(
        RuntimeConfig::deterministic(),
        config(),
        table(),
        ReroutingPolicy::allow_all(),
    );
    let mut removed = Vec::new();
    for at in 0..=events.len() {
        for _ in resync_at.iter().filter(|r| **r == at) {
            removed.push(runtime.resync_after_convergence());
        }
        let Some((peer, event)) = events.get(at) else {
            break;
        };
        if churn_at == Some(at) {
            runtime.teardown_session(CHURNED);
            runtime.register_session(CHURNED, Asn(100), churned_routes());
        }
        runtime.ingest(*peer, event.clone());
    }
    (runtime.finish(), removed)
}

/// Ingests one segment of the stream through `k` fresh handles, one
/// producer thread each, and returns once every producer has finished. The
/// producer owning the churned session performs the teardown + re-register
/// through its own handle just before the event at position `churn_at`.
#[expect(
    clippy::disallowed_methods,
    reason = "the test drives the runtime from concurrent producer threads"
)]
fn ingest_segment(
    runtime: &ShardedRuntime,
    segment: &[(usize, PeerId, ElementaryEvent)],
    k: usize,
    churn_at: Option<usize>,
) {
    std::thread::scope(|scope| {
        for source in partition(segment, k) {
            let mut handle = runtime.handle();
            scope.spawn(move || {
                for (at, peer, event) in source {
                    if churn_at == Some(at) {
                        handle.teardown_session(CHURNED);
                        handle.register_session(CHURNED, Asn(100), churned_routes());
                    }
                    handle.ingest(peer, event);
                }
                handle.finish();
            });
        }
    });
}

/// The same run through `k` producer threads on a sharded runtime: the
/// stream is cut at each resync position, and each resync runs once every
/// producer of the segment before it has finished.
fn run_producers(
    events: &[(PeerId, ElementaryEvent)],
    shards: usize,
    k: usize,
    churn_at: Option<usize>,
    resync_at: &[usize],
) -> Run {
    let mut runtime = ShardedRuntime::new(
        RuntimeConfig {
            batch_size: 7, // force mid-burst batch boundaries
            ..RuntimeConfig::sharded(shards)
        },
        config(),
        table(),
        ReroutingPolicy::allow_all(),
    );
    let positioned: Vec<(usize, PeerId, ElementaryEvent)> = (events.iter().enumerate())
        .map(|(at, (peer, event))| (at, *peer, event.clone()))
        .collect();
    let mut removed = Vec::new();
    let mut start = 0;
    for &end in resync_at {
        ingest_segment(&runtime, &positioned[start..end], k, churn_at);
        removed.push(runtime.resync_after_convergence());
        start = end;
    }
    ingest_segment(&runtime, &positioned[start..], k, churn_at);
    (runtime.finish(), removed)
}

proptest! {
    /// K-producer sharded replay (K ∈ {1, 2, 3}, real threads) is
    /// decision-identical per session to the single-producer sharded replay
    /// and to the deterministic inline mode, on random streams with a
    /// mid-run teardown + re-register of one session and up to three
    /// resyncs between producer segments; every resync removes the same
    /// number of rules, and the final installed rule sets are identical too.
    #[test]
    fn k_producers_equal_single_producer_and_inline(
        stream in arb_stream(),
        k in 1usize..=3,
        churn_slot in 0u32..150,
        resync_slots in proptest::collection::vec(0usize..300, 0..4),
    ) {
        let events = materialize(&stream);
        let churned: Vec<usize> = (events.iter().enumerate())
            .filter(|(_, (p, _))| *p == CHURNED)
            .map(|(at, _)| at)
            .collect();
        // A churn point before one of the session's events (or none, when
        // the random slot falls past its last event) — identical across runs.
        let churn_at = churned.get(churn_slot as usize % (churned.len() + 1)).copied();
        // Resync points anywhere in the stream, its end included.
        let mut resync_at: Vec<usize> =
            resync_slots.iter().map(|r| r % (events.len() + 1)).collect();
        resync_at.sort_unstable();

        let (inline, inline_removed) = run_inline(&events, churn_at, &resync_at);
        let (single, single_removed) = run_producers(&events, 2, 1, churn_at, &resync_at);
        let (multi, multi_removed) = run_producers(&events, 2, k, churn_at, &resync_at);

        for s in 0..SESSIONS {
            let peer = PeerId(s + 1);
            let want = decisions_for(&inline.actions, peer);
            // Single producer vs inline, then K producers vs inline — the
            // vendored prop_assert_eq! reports both sides on divergence.
            prop_assert_eq!(&decisions_for(&single.actions, peer), &want);
            prop_assert_eq!(&decisions_for(&multi.actions, peer), &want);
        }
        prop_assert_eq!(&single_removed, &inline_removed);
        prop_assert_eq!(&multi_removed, &inline_removed);
        prop_assert_eq!(&swift_rules(&single), &swift_rules(&inline));
        prop_assert_eq!(&swift_rules(&multi), &swift_rules(&inline));
    }
}
