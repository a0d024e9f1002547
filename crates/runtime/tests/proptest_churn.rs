//! Churn equivalence property: on random interleaved multi-session streams,
//! the sharded runtime reaches — per session — exactly the decisions
//! (installed-rule counts included) of the deterministic inline mode,
//! including a mid-run teardown + re-register of one session and up to three
//! `resync_after_convergence` calls anywhere in the stream; it removes the
//! same number of rules at every resync, and ends with an identical set of
//! SWIFT rules in the data plane.
//!
//! It is also the runtime's deadlock check. Every case runs on queues of the
//! default depth or of depth one, under a deadline: a barrier that misses a
//! shard, an applier that never reaches its quorum or a cycle of blocking
//! sends fails the case with the runtimes' flight-recorder dumps instead of
//! hanging the suite. Each sharded run must drop nothing, count every event
//! through the shards, and keep its queue high-waters within capacity.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
};
use swift_core::encoding::{ReroutingPolicy, TagRule};
use swift_core::{EncodingConfig, InferenceConfig, RerouteAction, SwiftConfig};
use swift_runtime::{RuntimeConfig, RuntimeReport, ShardedRuntime};
use swift_telemetry::FlightRecorder;

const SESSIONS: u32 = 3;

/// How long one case's two runs may take before the case fails as
/// deadlocked. A case takes milliseconds; the slack covers a loaded host.
const DEADLINE: Duration = Duration::from_secs(30);
const PREFIXES_PER_SESSION: u32 = 60;

/// The flapped session: torn down and re-registered mid-run.
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
            t.announce(peer, p(s, i), Route::new(peer, attrs));
            let alternate = RouteAttributes::from_path(AsPath::new([1_000u32, 30_000 + i % 7]));
            t.announce(BACKUP, p(s, i), Route::new(BACKUP, alternate));
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

/// What a run produced: its report and the rules each resync removed.
type Run = (RuntimeReport, Vec<usize>);

/// Replays the stream through a runtime of the given configuration: the
/// churned session's teardown + re-register just before the event at
/// position `churn_at`, and a resync before the event at each position in
/// `resync_at` (sorted; a position equal to the stream length resyncs after
/// its last event). The runtime's flight recorder goes into `flights` first,
/// so a case that misses its deadline can dump it.
fn run(
    events: &[(PeerId, ElementaryEvent)],
    runtime_config: &RuntimeConfig,
    churn_at: Option<usize>,
    resync_at: &[usize],
    flights: &Mutex<Vec<FlightRecorder>>,
) -> Run {
    let mut runtime = ShardedRuntime::new(
        runtime_config.clone(),
        config(),
        table(),
        ReroutingPolicy::allow_all(),
    );
    flights
        .lock()
        .expect("flight list lock")
        .push(runtime.flight());
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

/// The two runs a case compares: inline and sharded.
type Runs = (Run, Run);

/// Runs `case` on its own thread and returns its result, or panics with
/// every recorded flight history once `DEADLINE` passes. A panic inside
/// `case` is re-raised here.
#[expect(
    clippy::disallowed_methods,
    reason = "the watchdog runs each case on a thread it can abandon at the deadline"
)]
fn with_deadline(case: impl FnOnce(&Mutex<Vec<FlightRecorder>>) -> Runs + Send + 'static) -> Runs {
    let flights = Arc::new(Mutex::new(Vec::new()));
    let (done_tx, done_rx) = mpsc::sync_channel(1);
    let recorders = Arc::clone(&flights);
    let worker = std::thread::Builder::new()
        .name("proptest-case".into())
        .spawn(move || {
            let _ = done_tx.send(case(&recorders));
        })
        .expect("spawn the case thread");
    match done_rx.recv_timeout(DEADLINE) {
        Ok(runs) => runs,
        // The case thread dropped its sender without sending: it panicked.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the case thread panicked"))
        }
        Err(RecvTimeoutError::Timeout) => {
            let dumps: Vec<String> = (flights.lock().expect("flight list lock").iter())
                .map(FlightRecorder::dump)
                .collect();
            panic!(
                "the case missed its {DEADLINE:?} deadline: a runtime is deadlocked.\n{}",
                dumps.join("\n---\n")
            );
        }
    }
}

/// Checks what a lossless sharded run owes whatever its queue depths: no
/// event dropped, every ingested event counted through a shard, and every
/// queue's high-water within its capacity.
fn check_lossless(
    report: &RuntimeReport,
    events: usize,
    runtime_config: &RuntimeConfig,
) -> Result<(), String> {
    let m = &report.metrics;
    prop_assert_eq!(m.dropped, 0);
    prop_assert_eq!(m.events, events as u64);
    prop_assert_eq!(
        m.per_shard.iter().map(|s| s.events).sum::<u64>(),
        events as u64
    );
    for shard in &m.per_shard {
        prop_assert!(
            shard.max_queue_depth <= runtime_config.queue_capacity,
            "shard {} high-water {} > capacity {}",
            shard.shard,
            shard.max_queue_depth,
            runtime_config.queue_capacity
        );
    }
    for applier in &m.per_applier {
        prop_assert!(
            applier.max_queue_depth <= runtime_config.applier_capacity,
            "applier high-water {} > capacity {}",
            applier.max_queue_depth,
            runtime_config.applier_capacity
        );
    }
    Ok(())
}

proptest! {
    /// The sharded replay (two shards, real threads) is decision-identical
    /// per session to the deterministic inline mode on random streams with a
    /// mid-run teardown + re-register of one session and up to three
    /// resyncs; every resync removes the same number of rules, and the final
    /// installed rule sets are identical too. Queues are of the default depth
    /// or of depth one, and the case runs under a deadline (see the module
    /// docs).
    #[test]
    fn sharded_equals_inline_under_churn_and_resyncs(
        stream in arb_stream(),
        churn_slot in 0u32..150,
        resync_slots in proptest::collection::vec(0usize..300, 0..4),
        tiny_queues in any::<bool>(),
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

        let mut sharded = RuntimeConfig {
            batch_size: 7, // force mid-burst batch boundaries
            ..RuntimeConfig::sharded(2)
        };
        if tiny_queues {
            sharded.queue_capacity = 1;
            sharded.applier_capacity = 1;
        }
        let (case_events, case_config) = (events.clone(), sharded.clone());
        let ((inline, inline_removed), (threaded, threaded_removed)) =
            with_deadline(move |flights| {
                let (events, sharded) = (&case_events, &case_config);
                let inline = RuntimeConfig::deterministic();
                (
                    run(events, &inline, churn_at, &resync_at, flights),
                    run(events, sharded, churn_at, &resync_at, flights),
                )
            });
        check_lossless(&threaded, events.len(), &sharded)?;

        for s in 0..SESSIONS {
            let peer = PeerId(s + 1);
            prop_assert_eq!(
                &decisions_for(&threaded.actions, peer),
                &decisions_for(&inline.actions, peer)
            );
        }
        prop_assert_eq!(&threaded_removed, &inline_removed);
        prop_assert_eq!(&swift_rules(&threaded), &swift_rules(&inline));
    }
}
