//! Criterion micro-benchmarks of the telemetry layer: what observability
//! costs on and off the hot path.
//!
//! Three groups:
//!
//! * **counter** — a registry [`Counter`] increment (relaxed atomic add
//!   behind an `Arc`) vs the raw local `u64 += 1` it shadows;
//! * **histogram** — a [`LogHistogram`] record (bucket index from
//!   `leading_zeros`, one vector slot);
//! * **dispatch** — the full ingest → shard-queue path through a real
//!   sharded runtime with pipeline tracing off (`trace_sample_interval = 0`),
//!   at the default 1-in-1024 sampling, and at the pathological
//!   trace-everything setting. This group is the repo's one measure of what
//!   1-in-1024 sampling costs the untraced path.
//!
//! Run with `-- --quick-check` (CI) to execute every body once instead of
//! timing it — a rot check for the harness, not a measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use swift_bgp::{ElementaryEvent, PeerId, Prefix, RoutingTable};
use swift_core::encoding::ReroutingPolicy;
use swift_core::SwiftConfig;
use swift_runtime::{RuntimeConfig, ShardedRuntime};
use swift_telemetry::{LogHistogram, Registry};

const EVENTS: u32 = 50_000;

/// Withdrawals on engine-less sessions (the table is empty): the dispatch
/// path runs end to end while the downstream inference work stays ~zero.
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

fn runtime(trace_sample_interval: usize) -> ShardedRuntime {
    ShardedRuntime::new(
        RuntimeConfig {
            trace_sample_interval,
            ..RuntimeConfig::sharded(1)
        },
        SwiftConfig::default(),
        RoutingTable::new(),
        ReroutingPolicy::allow_all(),
    )
}

/// One registry counter bump vs the plain local counter it shadows.
fn bench_counter(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/counter_inc");
    group.bench_function("registry_counter", |b| {
        let registry = Registry::new();
        let ctr = registry.counter("bench.counter");
        b.iter(|| {
            for _ in 0..10_000 {
                ctr.inc();
            }
            ctr.get()
        })
    });
    group.bench_function("local_u64", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i) & 1);
            }
            acc
        })
    });
    group.finish();
}

/// Recording one latency sample into the log-linear histogram.
fn bench_histogram(c: &mut Criterion) {
    // Log-uniform-ish values so records land across many octaves, not one
    // hot bucket.
    let samples: Vec<u64> = (0..10_000u64).map(|i| ((i % 97) + 1) << (i % 30)).collect();
    let mut group = c.benchmark_group("telemetry/record_latency");
    group.bench_function("log_histogram", |b| {
        b.iter(|| {
            let mut h = LogHistogram::new();
            for &v in &samples {
                h.record(v);
            }
            h.count()
        })
    });
    group.finish();
}

/// The full dispatch path, 50k events: tracing off vs sampled vs saturated.
fn bench_dispatch_tracing(c: &mut Criterion) {
    let stream = events(8);
    let mut group = c.benchmark_group("telemetry/dispatch_50k");
    for (label, interval) in [
        ("untraced", 0usize),
        ("sampled_1_in_1024", 1_024),
        ("traced_every_event", 1),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rt = runtime(interval);
                rt.ingest_stream(stream.iter().cloned());
                rt.finish().metrics.events
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_counter,
    bench_histogram,
    bench_dispatch_tracing
);
criterion_main!(benches);
