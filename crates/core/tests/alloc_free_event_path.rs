//! The per-event path does not call the allocator.
//!
//! What in-place AS paths (`swift_bgp::as_path`, "Storage") buy, enforced: a
//! route is one flat record, so withdrawing it frees nothing and announcing
//! it allocates nothing. A counting `#[global_allocator]` watches, after one
//! warm-up cycle has grown every buffer to its steady size,
//!
//! * every [`Applier::note_event_owned`] of a withdrawal burst and of the
//!   announcements restoring it (eager RIB mirror), and
//! * every [`SessionEngine::process`] call of the same cycle that sits on the
//!   per-event path proper, and every one that runs an attempt the history
//!   model turns down before the greedy chain (ranker fold, ranking and the
//!   top link's crossing count); not one that opens or closes a burst
//!   (`start_burst` re-seeds the counters, the close drops the accepted
//!   result) and not one that runs the chain (the selected link list and
//!   the prediction allocate by design),
//!
//! and asserts zero `alloc` and zero `dealloc` calls across them. The same
//! cycle over 9-hop paths — longer than a path holds in place — costs exactly
//! the spill: one `dealloc` per withdrawn route, still no `alloc` (an
//! announcement moves its heap block into the table, and the engine finds the
//! path already interned).

// `GlobalAlloc` is an unsafe trait by signature; the impl below only counts
// and forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable, SECOND,
};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::EngineStatus;
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig};

thread_local! {
    // Const-initialised and without destructors: reading them never
    // allocates, and the test harness's other threads do not disturb them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread being torn down may free after its locals are gone.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping beside it touches no heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(alloc + realloc, dealloc)` calls this thread has made so far.
fn calls() -> (u64, u64) {
    (ALLOCS.with(Cell::get), DEALLOCS.with(Cell::get))
}

const PREFIXES: u32 = 4_000;
const PRIMARY: PeerId = PeerId(1);
const BACKUP: PeerId = PeerId(2);

/// The paper's thresholds ÷ 10, so a 1 334-withdrawal burst opens, runs
/// attempts and is accepted.
fn config() -> SwiftConfig {
    SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: 150,
            triggering_threshold: 250,
            plausibility_table: vec![(250, 1_000), (500, 2_000), (750, 5_000)],
            force_threshold: 2_000,
            ..Default::default()
        },
        encoding: EncodingConfig {
            min_prefixes_per_link: 150,
            ..Default::default()
        },
    }
}

/// A primary session (LOCAL_PREF 200) whose paths are four varying hops plus
/// `tail`, and a backup peer with a disjoint two-hop path for every prefix.
fn table(tail: &[u32]) -> RoutingTable {
    let mut t = RoutingTable::new();
    t.add_peer(PRIMARY, Asn(1));
    t.add_peer(BACKUP, Asn(2));
    for i in 0..PREFIXES {
        let hops = [1, 100 + i % 3, 200 + i % 7, 300 + i % 11];
        let mut attrs = RouteAttributes::from_path(AsPath::new(hops.iter().chain(tail).copied()));
        attrs.local_pref = Some(200);
        let prefix = Prefix::nth_slash24(i);
        t.announce(PRIMARY, prefix, Route::new(PRIMARY, attrs, 0));
        let alternate = RouteAttributes::from_path(AsPath::new([2u32, 400 + i % 5]));
        t.announce(BACKUP, prefix, Route::new(BACKUP, alternate, 0));
    }
    t
}

/// One cycle starting at `start`: link (1, 100) fails — every third prefix of
/// the primary session is withdrawn — and a minute later each comes back with
/// its original attributes.
fn cycle(table: &RoutingTable, start: u64) -> (Vec<ElementaryEvent>, Vec<ElementaryEvent>) {
    let rib = table.adj_rib_in(PRIMARY).expect("primary session");
    let failed: Vec<Prefix> = (0..PREFIXES).step_by(3).map(Prefix::nth_slash24).collect();
    let burst = failed
        .iter()
        .zip(0u64..)
        .map(|(prefix, k)| ElementaryEvent::Withdraw {
            timestamp: start + k * 100,
            prefix: *prefix,
        })
        .collect();
    let recovery = failed
        .iter()
        .zip(0u64..)
        .map(|(prefix, k)| ElementaryEvent::Announce {
            timestamp: start + 60 * SECOND + k * 100,
            prefix: *prefix,
            attrs: rib.get(prefix).expect("announced").attrs.clone(),
        })
        .collect();
    (burst, recovery)
}

/// Allocator calls seen inside the watched calls of one cycle.
#[derive(Debug, Default, PartialEq)]
struct Seen {
    /// `(allocs, deallocs)` across every `note_event_owned`.
    applier: (u64, u64),
    /// The same across the `process` calls on the per-event path proper.
    engine: (u64, u64),
    /// How many `process` calls that was, and how many were set aside.
    engine_calls: (usize, usize),
    /// Watched calls whose attempt was turned down before the greedy chain.
    turned_down: usize,
    accepted: usize,
}

/// Feeds one phase through the engine and then the applier, the way the
/// inline runtime does, counting allocator calls inside the two watched calls
/// only.
fn replay(
    engine: &mut SessionEngine,
    applier: &mut Applier,
    events: Vec<ElementaryEvent>,
    seen: &mut Seen,
) {
    for event in events {
        let state = |e: &SessionEngine| (e.engine().in_burst(), e.engine().attempts());
        let before_state = state(engine);
        let before = calls();
        let (status, result) = engine.process(&event);
        let after = calls();
        // Drained after every call, so a zero reading is this call's: a
        // rejection that ran no kernel never reached the chain.
        let ran_no_kernel = engine.take_kernel_stats().is_zero();
        let turned_down = ran_no_kernel && status == EngineStatus::RejectedByHistory;
        let (in_burst, attempts) = state(engine);
        if in_burst == before_state.0 && (attempts == before_state.1 || turned_down) {
            seen.engine.0 += after.0 - before.0;
            seen.engine.1 += after.1 - before.1;
            seen.engine_calls.0 += 1;
            seen.turned_down += usize::from(turned_down);
        } else {
            seen.engine_calls.1 += 1;
        }
        if status == EngineStatus::Accepted {
            applier.apply_inference(
                PRIMARY,
                &result.expect("accepted inferences carry a result"),
            );
            seen.accepted += 1;
        }
        let before = calls();
        applier.note_event_owned(PRIMARY, event);
        let after = calls();
        seen.applier.0 += after.0 - before.0;
        seen.applier.1 += after.1 - before.1;
    }
}

/// Runs a warm-up cycle, then the same cycle a quarter of an hour later, and
/// reports what the second one's watched calls asked of the allocator.
fn measured_cycle(tail: &[u32]) -> Seen {
    let table = table(tail);
    let config = config();
    let mut engine = session_engines(&config, &table)
        .remove(&PRIMARY)
        .expect("primary session");
    let mut applier = Applier::new(config, table.clone(), ReroutingPolicy::allow_all());
    let probe = Prefix::nth_slash24(0);
    let mut seen = Seen::default();
    for start in [SECOND, 900 * SECOND] {
        // Built before any counting: an event owns its attributes.
        let (burst, recovery) = cycle(&table, start);
        seen = Seen::default();
        replay(&mut engine, &mut applier, burst, &mut seen);
        applier.resync_after_convergence();
        assert_eq!(applier.forwarding_next_hop(&probe), Some(BACKUP));
        replay(&mut engine, &mut applier, recovery, &mut seen);
        applier.resync_after_convergence();
        assert_eq!(applier.forwarding_next_hop(&probe), Some(PRIMARY));
    }
    seen
}

/// One test, so nothing else runs on this thread between the counter reads.
#[test]
fn the_per_event_path_never_calls_the_allocator() {
    let withdrawn = (0..PREFIXES).step_by(3).count();
    let events = 2 * withdrawn;

    let short = measured_cycle(&[]);
    assert_eq!(short.accepted, 1, "the burst was inferred and rerouted");
    // The first attempt (cap 1 000 at 250 withdrawals) meets link (1, 100)
    // crossing 1 334 prefixes and is watched; set aside are the burst's
    // opening call, its accepted attempt and its close.
    assert_eq!(short.turned_down, 1, "{short:?}");
    let (watched, set_aside) = short.engine_calls;
    assert_eq!(watched + set_aside, events);
    assert_eq!(set_aside, 3, "{short:?}");
    assert_eq!(short.applier, (0, 0), "RIB mirror, 4-hop paths: {short:?}");
    assert_eq!(short.engine, (0, 0), "engine, 4-hop paths: {short:?}");

    // Nine hops spill: the withdrawal frees the route's block, nothing more.
    let long = measured_cycle(&[4, 5, 6, 7, 8]);
    assert_eq!(long.accepted, 1);
    assert_eq!(long.engine_calls, short.engine_calls);
    assert_eq!(long.turned_down, short.turned_down);
    assert_eq!(long.applier, (0, withdrawn as u64), "{long:?}");
    assert_eq!(long.engine, (0, 0), "{long:?}");
}
