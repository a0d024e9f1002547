//! The hot paths do not call the allocator.
//!
//! A counting `#[global_allocator]` watches each path once a warm-up has
//! grown every buffer it reuses to its steady size, and asserts what it
//! asked of the allocator:
//!
//! * **the per-event path** — every [`Applier::note_event_owned`] of a
//!   withdrawal burst and of the announcements restoring it (eager RIB
//!   mirror, folding a batch at a time), the [`Applier::sync_rib`] that folds
//!   each phase's last, partial batch, and every [`SessionEngine::process`]
//!   call of the same cycle that sits on the per-event path proper or runs an
//!   attempt the history model turns down before the greedy chain (ranker
//!   fold, ranking and the top link's crossing count); not one that opens or
//!   closes a burst (`start_burst` re-seeds the counters, the close drops the
//!   accepted result) and not the accepting one (below);
//! * **its parts, one by one** — [`LinkCounters`]' withdrawal and
//!   announcement handlers with the [`LinkRanker`] fold of their dirty links
//!   after every event, and the RIB mirror's [`RoutingTable::apply_owned`]
//!   with the AS-path reads ([`AsPath::hops`], [`AsPath::links`],
//!   [`AsPath::link_at_position`]) a retag makes of the routes it restores;
//! * **the retag** — the resync's stage-1 retag of the 1 334 prefixes the
//!   cycle's recovery re-announced, with no reroute outstanding: its batched
//!   path, and its per-id walk for the one prefix with more candidates than
//!   a retag gathers;
//! * **an install** — [`TwoStageTable::install_reroute_tracked`] on a table
//!   that has installed and removed the same reroute before;
//! * **both scoring kernels** — [`fused_union_counts`] (dense, mixed and
//!   all-sparse sources, including the sparse k-way merge) on a warm
//!   [`ScoreScratch`], and [`delta_union_counts`] on every sparse/dense mix
//!   of candidate, aggregate and masks.
//!
//! Each costs zero `alloc` and zero `dealloc` calls, with one exception the
//! storage of AS paths makes: over 9-hop paths — longer than a path holds in
//! place — a withdrawal frees the route's spilled block, so the RIB mirror
//! costs one `dealloc` per withdrawn route and still no `alloc` (an
//! announcement moves its heap block into the table, and the engine finds
//! the path already interned).
//!
//! **The accepting attempt** allocates what it hands out, and nothing else:
//! its rank + greedy chain and its prediction are each pinned to an exact
//! count, every allocation named where the count is stated; the
//! prediction's bytes are bounded by its two id sets, below the 8 bytes per
//! prefix a listed prediction took; and the events after it, with the
//! prediction held, call the allocator zero times.
//!
//! Every path that reads AS paths runs over 4-hop and over 9-hop (spilled)
//! paths; the kernels see only id sets.

#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait by signature; the impl below only counts \
              and forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swift_bgp::{
    AsLink, AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
    SECOND,
};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::{
    delta_union_counts, fused_union_counts, infer_links_ranked, predict, EngineStatus, IdBitSet,
    KernelStats, LinkCounters, LinkRanker, ScoreScratch,
};
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig, TwoStageTable};

thread_local! {
    // Const-initialised and without destructors: reading them never
    // allocates, and the test harness's other threads do not disturb them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with`: a thread being torn down may free after its locals are gone.
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping beside it touches no heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS, 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a watched call asked of this thread's allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    /// `(alloc + realloc, dealloc)` calls.
    calls: (u64, u64),
    /// Bytes those `alloc` calls asked for, a `realloc` counting its new
    /// size.
    bytes: u64,
}

/// Runs `f` and returns its value with what this thread asked of the
/// allocator inside it. Each test runs on a thread of its own, so nothing
/// else moves the counters in between.
fn watch<R>(f: impl FnOnce() -> R) -> (R, Asked) {
    let read = || {
        let get = |c: &'static std::thread::LocalKey<Cell<u64>>| c.with(Cell::get);
        (get(&ALLOCS), get(&DEALLOCS), get(&BYTES))
    };
    let before = read();
    let out = f();
    let after = read();
    let asked = Asked {
        calls: (after.0 - before.0, after.1 - before.1),
        bytes: after.2 - before.2,
    };
    (out, asked)
}

const PREFIXES: u32 = 4_000;
const PRIMARY: PeerId = PeerId(1);
const BACKUP: PeerId = PeerId(2);
/// Peers announcing only prefix 0, one of the [`FAILED`] prefixes: with the
/// primary and the backup it has more candidates than a retag gathers.
const CROWD: u32 = TwoStageTable::RETAG_GATHER as u32;
/// The failed link: every third prefix of the primary session crosses it.
const FAILED: AsLink = AsLink {
    from: Asn(1),
    to: Asn(100),
};
/// The withdrawal at which the history model first accepts: at 250 the cap
/// (1 000) is below the 1 334 prefixes crossing [`FAILED`], at 500 (2 000)
/// it is not.
const ACCEPTED_AT: usize = 500;
/// The two path shapes every path-reading test runs over: four hops held in
/// place, and nine, which spill to the heap.
const TAILS: [&[u32]; 2] = [&[], &[4, 5, 6, 7, 8]];

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
/// `tail`, a backup peer with a disjoint two-hop path for every prefix, and
/// [`CROWD`] peers with a longer path, three hops plus `tail`, for prefix 0.
fn table(tail: &[u32]) -> RoutingTable {
    let mut t = RoutingTable::new();
    t.add_peer(PRIMARY, Asn(1));
    t.add_peer(BACKUP, Asn(2));
    for k in 0..CROWD {
        let (peer, asn) = (PeerId(10 + k), 10 + k);
        t.add_peer(peer, Asn(asn));
        let path = AsPath::new([asn, 600, 700 + k].iter().chain(tail).copied());
        let attrs = RouteAttributes::from_path(path);
        t.announce(peer, Prefix::nth_slash24(0), Route::new(peer, attrs, 0));
    }
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

/// The primary session's prefixes behind [`FAILED`], in withdrawal order.
fn failed_prefixes() -> Vec<Prefix> {
    (0..PREFIXES).step_by(3).map(Prefix::nth_slash24).collect()
}

/// One cycle starting at `start`: [`FAILED`] fails — its prefixes are
/// withdrawn — and a minute later each comes back with its original
/// attributes.
fn cycle(table: &RoutingTable, start: u64) -> (Vec<ElementaryEvent>, Vec<ElementaryEvent>) {
    let rib = table.adj_rib_in(PRIMARY).expect("primary session");
    let failed = failed_prefixes();
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
    /// `(allocs, deallocs)` across every `note_event_owned` and each
    /// phase's closing `sync_rib`.
    applier: (u64, u64),
    /// The same across the `process` calls on the per-event path proper.
    engine: (u64, u64),
    /// How many `process` calls that was, and how many were set aside.
    engine_calls: (usize, usize),
    /// Watched calls whose attempt was turned down before the greedy chain.
    turned_down: usize,
    /// `withdrawals_seen` of every accepted inference.
    accepted: Vec<usize>,
    /// The same across the recovery's resync: the retag alone.
    retag: (u64, u64),
}

/// Feeds one phase through the engine and then the applier, the way the
/// inline runtime does, counting allocator calls inside the watched calls
/// only.
fn replay(
    engine: &mut SessionEngine,
    applier: &mut Applier,
    events: Vec<ElementaryEvent>,
    seen: &mut Seen,
) {
    for event in events {
        let state = |e: &SessionEngine| (e.engine().in_burst(), e.engine().attempts());
        let before = state(engine);
        let ((status, result), Asked { calls, .. }) = watch(|| engine.process(&event));
        // Drained after every call, so a zero reading is this call's: a
        // rejection that ran no kernel never reached the chain.
        let ran_no_kernel = engine.take_kernel_stats().is_zero();
        let turned_down = ran_no_kernel && status == EngineStatus::RejectedByHistory;
        let (in_burst, attempts) = state(engine);
        if in_burst == before.0 && (attempts == before.1 || turned_down) {
            seen.engine.0 += calls.0;
            seen.engine.1 += calls.1;
            seen.engine_calls.0 += 1;
            seen.turned_down += usize::from(turned_down);
        } else {
            seen.engine_calls.1 += 1;
        }
        if status == EngineStatus::Accepted {
            let result = result.expect("accepted inferences carry a result");
            applier.apply_inference(PRIMARY, &result);
            seen.accepted.push(result.withdrawals_seen);
        }
        let (_, Asked { calls, .. }) = watch(|| applier.note_event_owned(PRIMARY, event));
        seen.applier.0 += calls.0;
        seen.applier.1 += calls.1;
    }
    // The phase's last, partial batch folds here, at the sync point; it
    // counts with the per-event path.
    let (folded, Asked { calls, .. }) = watch(|| applier.sync_rib());
    assert_eq!(folded, failed_prefixes().len() % RoutingTable::APPLY_BATCH);
    seen.applier.0 += calls.0;
    seen.applier.1 += calls.1;
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
    let failed = failed_prefixes();
    let forwarding = |applier: &Applier, hop| {
        failed
            .iter()
            .all(|prefix| applier.forwarding_next_hop(prefix) == Some(hop))
    };
    let mut seen = Seen::default();
    for start in [SECOND, 900 * SECOND] {
        // Built before any counting: an event owns its attributes.
        let (burst, recovery) = cycle(&table, start);
        seen = Seen::default();
        replay(&mut engine, &mut applier, burst, &mut seen);
        // Also removes the burst's reroute (that removal allocates): not
        // watched.
        applier.resync_after_convergence();
        assert!(forwarding(&applier, BACKUP), "retagged onto the backup");
        replay(&mut engine, &mut applier, recovery, &mut seen);
        // No reroute is outstanding any more: this resync is the retag of
        // the re-announced prefixes and nothing else.
        let (removed, Asked { calls: retag, .. }) = watch(|| applier.resync_after_convergence());
        assert_eq!(removed, 0);
        assert!(forwarding(&applier, PRIMARY), "retagged onto the primary");
        seen.retag = retag;
    }
    seen
}

#[test]
fn the_per_event_path_never_calls_the_allocator() {
    let withdrawn = failed_prefixes().len();
    let events = 2 * withdrawn;
    // Each phase folds full batches as it goes and a partial one at the end.
    let batch = RoutingTable::APPLY_BATCH;
    assert!(
        withdrawn >= 2 * batch && withdrawn % batch != 0,
        "{withdrawn}"
    );

    let short = measured_cycle(TAILS[0]);
    assert_eq!(short.accepted, [ACCEPTED_AT], "the burst was rerouted");
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
    let long = measured_cycle(TAILS[1]);
    assert_eq!(long.accepted, short.accepted);
    assert_eq!(long.engine_calls, short.engine_calls);
    assert_eq!(long.turned_down, short.turned_down);
    assert_eq!(long.applier, (0, withdrawn as u64), "{long:?}");
    assert_eq!(long.engine, (0, 0), "{long:?}");
}

#[test]
fn the_counters_event_handlers_and_ranker_fold_never_call_the_allocator() {
    let cfg = config().inference;
    for tail in TAILS {
        let label = format!("{}-hop paths", 4 + tail.len());
        let table = table(tail);
        let rib = table.adj_rib_in(PRIMARY).expect("primary session");
        let mut counters = LinkCounters::from_rib(rib.iter().map(|(p, r)| (p, &r.attrs.as_path)));
        let mut ranker = LinkRanker::new();
        let failed = failed_prefixes();
        let restored: Vec<(Prefix, &AsPath)> = failed
            .iter()
            .map(|p| (*p, &rib.get(p).expect("announced").attrs.as_path))
            .collect();
        let mut seen = Vec::new();
        // The first burst grows the dirty and candidate sets to the links
        // the failure touches; the second is measured.
        for _ in 0..2 {
            counters.start_burst(std::iter::empty());
            ranker.reset();
            let (crossing, Asked { calls, .. }) = watch(|| {
                for prefix in &failed {
                    counters.on_withdraw(*prefix);
                    ranker.update(counters.take_dirty());
                }
                let crossing = ranker
                    .ranking(&counters, &cfg)
                    .first()
                    .map(|(id, _)| counters.crossing_count(*id));
                for (prefix, path) in &restored {
                    counters.on_announce_path(*prefix, path);
                    ranker.update(counters.take_dirty());
                }
                crossing
            });
            assert_eq!(
                crossing,
                Some(failed.len()),
                "{label}: the failed link leads"
            );
            seen.push(calls);
        }
        assert_eq!(seen[1], (0, 0), "{label}: {seen:?}");
    }
}

#[test]
fn the_rib_mirror_and_path_reads_never_call_the_allocator() {
    for tail in TAILS {
        let label = format!("{}-hop paths", 4 + tail.len());
        let source = table(tail);
        let mut mirror = source.clone();
        let failed = failed_prefixes();
        let mut seen = Vec::new();
        // The first cycle settles every route's storage; the second is
        // measured.
        for start in [SECOND, 900 * SECOND] {
            // Built before any counting: an event owns its attributes.
            let (burst, recovery) = cycle(&source, start);
            let mut calls = (0, 0);
            for event in burst.into_iter().chain(recovery) {
                let (changed, Asked { calls: c, .. }) =
                    watch(|| mirror.apply_owned(PRIMARY, event));
                assert!(changed.is_some(), "{label}: every event changes a route");
                calls = (calls.0 + c.0, calls.1 + c.1);
            }
            let rib = mirror.adj_rib_in(PRIMARY).expect("primary session");
            let (links, Asked { calls: reads, .. }) = watch(|| {
                let mut links = 0;
                for prefix in &failed {
                    let path = &rib.get(prefix).expect("restored").attrs.as_path;
                    assert_eq!(path.hops().len(), 4 + tail.len());
                    assert_eq!(path.link_at_position(1), Some(FAILED));
                    links += path.links().count();
                }
                links
            });
            assert_eq!(links, failed.len() * (3 + tail.len()), "{label}");
            seen.push((calls, reads));
        }
        // Nine hops spill: a withdrawal frees the route's block, and the
        // announcement restoring it moves the event's block in.
        let mirrored = if tail.is_empty() {
            (0, 0)
        } else {
            (0, failed.len() as u64)
        };
        assert_eq!(seen[1], (mirrored, (0, 0)), "{label}: {seen:?}");
    }
}

#[test]
fn the_retag_never_calls_the_allocator() {
    for tail in TAILS {
        let crowded = table(tail).candidates(&Prefix::nth_slash24(0)).count();
        assert!(
            crowded > TwoStageTable::RETAG_GATHER,
            "{crowded} candidates"
        );
        let seen = measured_cycle(tail);
        assert_eq!(seen.retag, (0, 0), "{}-hop paths", 4 + tail.len());
    }
}

#[test]
fn an_install_never_calls_the_allocator() {
    for tail in TAILS {
        let table = table(tail);
        let policy = ReroutingPolicy::allow_all();
        let mut forwarding = TwoStageTable::build(&table, &config().encoding, &policy);
        // Warm-up: the first install grows stage 2, and the removal keeps
        // its capacity.
        let (id, rules) = forwarding.install_reroute_tracked(&[FAILED]);
        forwarding.remove_reroute(id);
        let ((id, again), Asked { calls, .. }) =
            watch(|| forwarding.install_reroute_tracked(&[FAILED]));
        assert_eq!(calls, (0, 0), "{}-hop paths", 4 + tail.len());
        assert!(rules > 0 && again == rules, "{rules} rules, then {again}");
        assert_eq!(forwarding.remove_reroute(id), rules);
    }
}

/// A set holding every `stride`-th id from `first` below `end`, in the
/// requested representation.
fn id_set(dense: bool, first: u32, stride: usize, end: u32) -> IdBitSet {
    let mut set = if dense {
        IdBitSet::with_capacity(end as usize)
    } else {
        IdBitSet::new()
    };
    for id in (first..end).step_by(stride) {
        set.set(id);
    }
    assert_eq!(
        set.is_dense(),
        dense,
        "stride {stride} keeps the representation"
    );
    set
}

#[test]
fn the_scoring_kernels_never_call_the_allocator() {
    const END: u32 = 64 * 512;
    let (dense_a, dense_b) = (id_set(true, 0, 5, END), id_set(true, 2, 7, END));
    let spread = [id_set(false, 3, 1_000, END), id_set(false, 7, 1_500, END)];
    // Sparse lists the block path beats the merge on: one id per 40 bits
    // each, one per 13 together.
    let crowded = [0, 13, 26].map(|first| id_set(false, first, 40, END));
    let fused_mixes: [Vec<&IdBitSet>; 4] = [
        vec![&dense_a, &dense_b],
        vec![&dense_a, &spread[0]],
        spread.iter().collect(),
        crowded.iter().collect(),
    ];
    let (dense_mask, sparse_mask) = (id_set(true, 1, 3, END), id_set(false, 0, 50, END));
    let masks = [(&dense_mask, &sparse_mask), (&sparse_mask, &dense_mask)];
    let aggregates = [&dense_b, &spread[1]];
    let candidates = [&dense_a, &spread[0], &crowded[1]];

    let mut scratch = ScoreScratch::new();
    let pass = |scratch: &mut ScoreScratch| {
        let mut counts = Vec::with_capacity(64);
        let (_, Asked { calls, .. }) = watch(|| {
            for (withdrawn, routed) in masks {
                for sources in &fused_mixes {
                    counts.push(fused_union_counts(sources, withdrawn, routed, scratch));
                }
                for candidate in candidates {
                    for aggregate in aggregates {
                        counts.push(delta_union_counts(candidate, aggregate, withdrawn, routed));
                    }
                }
            }
        });
        (counts, calls, scratch.take_stats())
    };
    // The warm-up grows the scratch's partition and cursor vectors to the
    // three sources of the widest mix.
    let (warm, _, _) = pass(&mut scratch);
    let (counts, calls, stats) = pass(&mut scratch);
    assert_eq!(counts, warm);
    assert!(counts.iter().all(|&(w, p)| w + p > 0), "{counts:?}");
    assert_eq!(calls, (0, 0));
    // Per mask pairing: the dense pair, then the merge over the spread
    // lists, and the block path over a mix and over the crowded lists.
    let dispatched = KernelStats {
        dense: 2,
        sparse: 2,
        mixed: 4,
        ..KernelStats::default()
    };
    assert_eq!(stats, dispatched);
}

#[test]
fn the_accepted_attempt_allocates_only_its_outputs() {
    let cfg = config().inference;
    for tail in TAILS {
        let label = format!("{}-hop paths", 4 + tail.len());
        let table = table(tail);
        let rib = table.adj_rib_in(PRIMARY).expect("primary session");
        let mut counters = LinkCounters::from_rib(rib.iter().map(|(p, r)| (p, &r.attrs.as_path)));
        let mut ranker = LinkRanker::new();
        let failed = failed_prefixes();
        // Listed up front: the ordered walk of a RIB collects.
        let routes: Vec<_> = rib.iter().collect();
        let mut seen = Vec::new();
        // The engine's accepting attempt, taken apart: the first round grows
        // the ranker's and the scratch's buffers, the second is measured.
        for _ in 0..2 {
            counters.start_burst(std::iter::empty());
            ranker.reset();
            for prefix in &failed[..ACCEPTED_AT] {
                counters.on_withdraw(*prefix);
            }
            let (links, Asked { calls: chain, .. }) = watch(|| {
                ranker.update(counters.take_dirty());
                infer_links_ranked(&counters, ranker.ranking(&counters, &cfg), &cfg)
            });
            let (prediction, predicted) = watch(|| predict(&counters, &links));
            assert_eq!(links.links, [FAILED], "{label}");
            assert_eq!(
                (links.withdrawn, links.routed),
                (ACCEPTED_AT, failed.len() - ACCEPTED_AT),
                "{label}"
            );
            assert_eq!(prediction.total_affected(), failed.len(), "{label}");
            // The rest of the burst and the recovery, with the prediction
            // held: known prefixes only, so no chunk of the list it pins is
            // touched.
            let ((), held) = watch(|| {
                for prefix in &failed[ACCEPTED_AT..] {
                    counters.on_withdraw(*prefix);
                }
                for &(prefix, route) in &routes {
                    counters.on_announce_path(*prefix, route.as_path());
                }
            });
            seen.push((chain, predicted, held.calls));
            assert_eq!(
                prediction.predicted.iter().count(),
                failed.len() - ACCEPTED_AT,
                "{label}: read after the session moved on"
            );
        }
        // Rank + greedy chain, 3 allocations, 2 of them freed on return:
        // * the aggregate's link list, `Vec::with_capacity(4)` in
        //   `infer_with_scorer` (freed);
        // * the selected link ids, collected from the ranking (freed);
        // * `InferredLinks::links`, the result.
        let (chain, predicted, held) = seen[1];
        assert_eq!(chain, (3, 2), "{label}: {seen:?}");
        // Prediction, 6 allocations, none freed. Each of the two sets — the
        // 500 withdrawn ids and the 834 routed ones, both word-packed, as 1
        // bit per session id is smaller than 4 B per member here — is:
        // * its words, up to its last non-zero one (`IdBitSet::intersection`);
        // * their summary, one word;
        // * the `Arc` block of the snapshot, which shares the session's
        //   prefix list by reference count.
        // No prefix is listed or sorted.
        assert_eq!(predicted.calls, (6, 0), "{label}: {seen:?}");
        // Each set's bound: its ids in the smaller form, a summary word per
        // 32 768 ids and the `Arc` block (under 256 B on a 64-bit target).
        let bound = |members: usize| {
            let dense = (PREFIXES as usize).div_ceil(64) * 8;
            (dense.min(4 * members) + 8 + 256) as u64
        };
        let (withdrawn, routed) = (ACCEPTED_AT, failed.len() - ACCEPTED_AT);
        assert!(
            predicted.bytes <= bound(withdrawn) + bound(routed),
            "{label}: {} bytes",
            predicted.bytes
        );
        // The list it replaced cost 8 B per prefix.
        assert!(
            predicted.bytes < 8 * failed.len() as u64,
            "{label}: {} bytes",
            predicted.bytes
        );
        assert_eq!(held, (0, 0), "{label}: events while a snapshot is held");
    }
}
