//! Multi-producer equivalence property: on random interleaved multi-session
//! streams split into random K-way source partitions (sessions disjoint
//! across sources), the K-producer sharded replay reaches — per session —
//! exactly the decisions (installed-rule counts included) of the
//! single-producer sharded replay and of the deterministic inline mode,
//! including a mid-run teardown + re-register on one source, and ends with an
//! identical set of SWIFT rules in the data plane.
//!
//! This is the contract `exp_soak --ingest-threads N` rests on: as long as
//! each session is pinned to one `IngestHandle`, the producer count is
//! invisible in the decision stream.

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
fn partition(
    events: &[(PeerId, ElementaryEvent)],
    k: usize,
) -> Vec<Vec<(PeerId, ElementaryEvent)>> {
    let mut sources = vec![Vec::new(); k];
    for (peer, event) in events {
        sources[(peer.0 as usize - 1) % k].push((*peer, event.clone()));
    }
    sources
}

/// Replays the churned session's teardown + re-register after its
/// `churn_after`-th event, inline with the stream.
fn run_inline_with_churn(
    events: &[(PeerId, ElementaryEvent)],
    churn_after: usize,
) -> RuntimeReport {
    let mut runtime = ShardedRuntime::new(
        RuntimeConfig::deterministic(),
        config(),
        table(),
        ReroutingPolicy::allow_all(),
    );
    let mut seen = 0usize;
    for (peer, event) in events {
        if *peer == CHURNED {
            if seen == churn_after {
                runtime.teardown_session(CHURNED);
                runtime.register_session(CHURNED, Asn(100), churned_routes());
            }
            seen += 1;
        }
        runtime.ingest(*peer, event.clone());
    }
    runtime.finish()
}

/// The same run through `k` producer threads on a sharded runtime; the
/// producer owning the churned session performs the teardown + re-register
/// through its own handle at the same per-session position.
#[expect(
    clippy::disallowed_methods,
    reason = "the test drives the runtime from concurrent producer threads"
)]
fn run_producers_with_churn(
    events: &[(PeerId, ElementaryEvent)],
    shards: usize,
    k: usize,
    churn_after: usize,
) -> RuntimeReport {
    let runtime = ShardedRuntime::new(
        RuntimeConfig {
            batch_size: 7, // force mid-burst batch boundaries
            ..RuntimeConfig::sharded(shards)
        },
        config(),
        table(),
        ReroutingPolicy::allow_all(),
    );
    std::thread::scope(|scope| {
        for source in partition(events, k) {
            let mut handle = runtime.handle();
            scope.spawn(move || {
                let mut seen = 0usize;
                for (peer, event) in source {
                    if peer == CHURNED {
                        if seen == churn_after {
                            handle.teardown_session(CHURNED);
                            handle.register_session(CHURNED, Asn(100), churned_routes());
                        }
                        seen += 1;
                    }
                    handle.ingest(peer, event);
                }
                handle.finish();
            });
        }
    });
    runtime.finish()
}

proptest! {
    /// K-producer sharded replay (K ∈ {1, 2, 3}, real threads) is
    /// decision-identical per session to the single-producer sharded replay
    /// and to the deterministic inline mode, on random streams with a
    /// mid-run teardown + re-register of one session; the final installed
    /// rule sets are identical too.
    #[test]
    fn k_producers_equal_single_producer_and_inline(
        stream in arb_stream(),
        k in 1usize..=3,
        churn_slot in 0u32..150,
    ) {
        let events = materialize(&stream);
        let churned_events = events.iter().filter(|(p, _)| *p == CHURNED).count();
        // A churn point inside the session's stream (or none, when the
        // random slot falls past its last event) — identical across runs.
        let churn_after = churn_slot as usize % (churned_events + 1);

        let inline = run_inline_with_churn(&events, churn_after);
        let single = run_producers_with_churn(&events, 2, 1, churn_after);
        let multi = run_producers_with_churn(&events, 2, k, churn_after);

        for s in 0..SESSIONS {
            let peer = PeerId(s + 1);
            let want = decisions_for(&inline.actions, peer);
            // Single producer vs inline, then K producers vs inline — the
            // vendored prop_assert_eq! reports both sides on divergence.
            prop_assert_eq!(&decisions_for(&single.actions, peer), &want);
            prop_assert_eq!(&decisions_for(&multi.actions, peer), &want);
        }
        prop_assert_eq!(&swift_rules(&single), &swift_rules(&inline));
        prop_assert_eq!(&swift_rules(&multi), &swift_rules(&inline));
    }
}
