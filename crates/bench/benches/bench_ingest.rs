//! Criterion micro-benchmarks of the runtime's ingest dispatch path: what
//! one event costs between the wire and the shard queue.
//!
//! Two comparisons:
//!
//! * **stamp** — the per-event timestamp alone: a syscall-backed
//!   `Instant::now()` (the pre-`IngestHandle` runtime stamped every event
//!   this way) vs an atomic load of the coarse epoch clock;
//! * **producers** — the full ingest → shard-queue path through a real
//!   sharded runtime, the same event volume pushed by 1 vs 2 concurrent
//!   `IngestHandle`s: the serialized-funnel-vs-multi-producer comparison.
//!
//! Run with `-- --quick-check` (CI) to execute every body once instead of
//! timing it — a rot check for the harness, not a measurement.

#![expect(
    clippy::disallowed_methods,
    reason = "a harness times wall-clock phases and drives the runtime from producer threads"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::Ordering;
use std::time::Instant;
use swift_bgp::{ElementaryEvent, PeerId, Prefix, RoutingTable};
use swift_core::encoding::ReroutingPolicy;
use swift_core::SwiftConfig;
use swift_runtime::{RuntimeConfig, ShardedRuntime};

const EVENTS: u32 = 50_000;

/// Withdrawals on sessions the runtime has no engines for: the dispatch path
/// is exercised end to end while the downstream engine work stays ~zero, so
/// the numbers isolate the front-end.
fn events(sessions: u32) -> Vec<(PeerId, ElementaryEvent)> {
    (0..EVENTS)
        .map(|i| {
            (
                PeerId(1 + i % sessions),
                ElementaryEvent::Withdraw {
                    timestamp: u64::from(i) * 1_000,
                    prefix: Prefix::nth_slash24(i % 10_000),
                },
            )
        })
        .collect()
}

fn runtime() -> ShardedRuntime {
    ShardedRuntime::new(
        RuntimeConfig::sharded(1),
        SwiftConfig::default(),
        RoutingTable::new(),
        ReroutingPolicy::allow_all(),
    )
}

/// The per-event stamp alone: syscall clock vs coarse atomic clock.
fn bench_stamp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/stamp_per_event");
    group.bench_function("instant_now", |b| {
        // One clock read per event, like the old per-event ingest stamp: the
        // nanos are taken against a fixed base instant (`.elapsed()` on a
        // fresh `Instant::now()` would read the clock twice).
        let base = Instant::now();
        b.iter(|| {
            let mut acc = 0u128;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(std::hint::black_box(base.elapsed()).as_nanos());
            }
            acc
        })
    });
    group.bench_function("coarse_atomic_load", |b| {
        #[expect(
            clippy::disallowed_types,
            reason = "the probe times a bare Relaxed load, the operation `EpochClock::coarse` compiles to"
        )]
        let epoch = std::sync::atomic::AtomicU64::new(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(std::hint::black_box(&epoch).load(Ordering::Relaxed));
            }
            acc
        })
    });
    group.finish();
}

/// The full dispatch path, ingest → shard queue → drained, 50k events: the
/// same volume from 1 vs 2 producer handles (sessions disjoint).
fn bench_producers(c: &mut Criterion) {
    let stream = events(8);
    let split: Vec<Vec<(PeerId, ElementaryEvent)>> = {
        let mut sources = vec![Vec::new(), Vec::new()];
        for (peer, event) in &stream {
            sources[(peer.0 as usize - 1) % 2].push((*peer, event.clone()));
        }
        sources
    };
    let mut group = c.benchmark_group("ingest/producers_50k");
    group.bench_function("one_handle", |b| {
        b.iter(|| {
            let rt = runtime();
            let mut handle = rt.handle();
            handle.ingest_stream(stream.iter().cloned());
            handle.finish();
            rt.finish().metrics.events
        })
    });
    group.bench_function("two_handles", |b| {
        b.iter(|| {
            let rt = runtime();
            std::thread::scope(|scope| {
                for source in &split {
                    let mut handle = rt.handle();
                    scope.spawn(move || {
                        handle.ingest_stream(source.iter().cloned());
                        handle.finish();
                    });
                }
            });
            rt.finish().metrics.events
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stamp, bench_producers);
criterion_main!(benches);
