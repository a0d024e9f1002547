//! Criterion micro-benchmarks of the SWIFT inference hot path: counter
//! updates, full inference runs at several burst sizes, and the fused
//! link-set scorer, greedy chain and prediction against the scans of the
//! test-scope reference model (`crates/core/tests/reference/mod.rs`), each
//! model built from the same counters outside the timed body.
//!
//! Run with `-- --quick-check` (CI) to execute every body once instead of
//! timing it — a rot check for the harness, not a measurement.

#[path = "../../core/tests/reference/mod.rs"]
mod reference;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reference::Model;
use swift_bgp::{AsLink, AsPath, ElementaryEvent, InternedRib, Prefix};
use swift_core::inference::{
    fused_union_counts, infer_links, predict, IdBitSet, InferenceEngine, LinkCounters, ScoreScratch,
};
use swift_core::InferenceConfig;

fn rib(n: u32) -> Vec<(Prefix, AsPath)> {
    (0..n)
        .map(|i| {
            let path = match i % 4 {
                0 => AsPath::new([2u32, 5, 6]),
                1 => AsPath::new([2u32, 5, 6, 7]),
                2 => AsPath::new([2u32, 5, 6, 8]),
                _ => AsPath::new([2u32, 9, 10]),
            };
            (Prefix::nth_slash24(i), path)
        })
        .collect()
}

fn bench_counter_updates(c: &mut Criterion) {
    let table: InternedRib = rib(50_000).into_iter().collect();
    c.bench_function("counters/withdraw_50k", |b| {
        b.iter(|| {
            let mut counters = LinkCounters::from_interned(&table);
            for i in 0..50_000u32 {
                counters.on_withdraw(Prefix::nth_slash24(i));
            }
            std::hint::black_box(counters.total_withdrawals())
        })
    });
}

/// The counters' per-event transitions on a 1 M-prefix session: 4-hop paths
/// (4 600 distinct, ~217 prefixes each), 46 first-hop links of ~21.7 k
/// prefixes whose ids spread over the whole id space — the widest posting
/// list the hybrid bitset keeps sparse. The events hit one such link's
/// prefixes in a fixed scattered order.
///
/// The shim only times whole bodies, so every body leaves the counters as it
/// found them and names what its restore costs:
///
/// * `withdraw_1m` — each prefix withdrawn, then each re-announced over the
///   path it had (routed → withdrawn → routed);
/// * `reannounce_same_path_1m` — each routed prefix re-announced over its
///   current path;
/// * `reannounce_new_path_1m` — each routed prefix moved to a path sharing
///   only the first link (alternate bodies move them back);
/// * `start_burst_1m` — `withdraw_1m`'s body with a burst start between its
///   halves: 21.7 k withdrawn, the last 1.5 k of them in the window, so the
///   second half re-announces purged prefixes instead of withdrawn ones.
fn bench_counters_1m(c: &mut Criterion) {
    const N: u32 = 1_000_000;
    const FIRST_HOPS: u32 = 46;
    const WINDOW: usize = 1_500;
    let hops = |i: u32, detour: u32| -> [u32; 4] {
        let first = i % FIRST_HOPS;
        [
            2,
            100 + first,
            1_000 + detour + first * 50 + (i / FIRST_HOPS) % 50,
            10_000 + i % (FIRST_HOPS * 100),
        ]
    };
    let table: InternedRib = (0..N)
        .map(|i| (Prefix::nth_slash24(i), AsPath::new(hops(i, 0))))
        .collect();
    let mut counters = LinkCounters::from_interned(&table);
    // The prefixes behind link (2, 100), scattered by a multiplicative
    // permutation of their rank.
    let behind = N.div_ceil(FIRST_HOPS);
    let hit: Vec<(Prefix, [AsPath; 2])> = (0..behind)
        .map(|k| (k * 7_919 % behind) * FIRST_HOPS)
        .map(|i| {
            let paths = [AsPath::new(hops(i, 0)), AsPath::new(hops(i, 500_000))];
            (Prefix::nth_slash24(i), paths)
        })
        .collect();
    assert_eq!(counters.wp(&AsLink::new(2, 100)).1, hit.len());

    c.bench_function("counters/withdraw_1m", |b| {
        b.iter(|| {
            for (prefix, _) in &hit {
                counters.on_withdraw(*prefix);
            }
            for (prefix, [path, _]) in &hit {
                counters.on_announce_path(*prefix, path);
            }
            std::hint::black_box(counters.total_withdrawals())
        })
    });
    c.bench_function("counters/reannounce_same_path_1m", |b| {
        b.iter(|| {
            for (prefix, [path, _]) in &hit {
                counters.on_announce_path(*prefix, path);
            }
            std::hint::black_box(counters.routed_count())
        })
    });
    let mut detoured = false;
    c.bench_function("counters/reannounce_new_path_1m", |b| {
        b.iter(|| {
            detoured = !detoured;
            for (prefix, paths) in &hit {
                counters.on_announce_path(*prefix, &paths[usize::from(detoured)]);
            }
            std::hint::black_box(counters.routed_count())
        })
    });
    if detoured {
        for (prefix, [path, _]) in &hit {
            counters.on_announce_path(*prefix, path);
        }
    }
    c.bench_function("counters/start_burst_1m", |b| {
        b.iter(|| {
            for (prefix, _) in &hit {
                counters.on_withdraw(*prefix);
            }
            counters.start_burst(hit[hit.len() - WINDOW..].iter().map(|(prefix, _)| *prefix));
            for (prefix, [path, _]) in &hit {
                counters.on_announce_path(*prefix, path);
            }
            std::hint::black_box(counters.withdrawn_count())
        })
    });
    assert_eq!(counters.routed_count(), N as usize);
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference/infer_links");
    for &size in &[2_500u32, 10_000, 40_000] {
        let table = rib(size * 2);
        let mut counters = LinkCounters::from_rib(table.iter().map(|(a, b)| (a, b)));
        for i in 0..size {
            counters.on_withdraw(Prefix::nth_slash24(i * 2));
        }
        let config = InferenceConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| std::hint::black_box(infer_links(&counters, &config)))
        });
    }
    group.finish();
}

/// One full inference attempt (link selection + prefix prediction): the
/// indexed implementation against the reference model's scans.
fn bench_attempt_indexed_vs_scan(c: &mut Criterion) {
    let size = 40_000u32;
    let table = rib(size * 2);
    let mut counters = LinkCounters::from_rib(table.iter().map(|(a, b)| (a, b)));
    for i in 0..size {
        counters.on_withdraw(Prefix::nth_slash24(i * 2));
    }
    let config = InferenceConfig::default();
    let model = Model::of_counters(&counters);
    let mut group = c.benchmark_group("inference/attempt_80k_rib");
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let links = infer_links(&counters, &config);
            std::hint::black_box(predict(&counters, &links).total_affected())
        })
    });
    group.bench_function("scan", |b| {
        b.iter(|| {
            let links = model.infer(&config);
            let (withdrawn, routed) = model.crossing(&links.links);
            std::hint::black_box(withdrawn.len() + routed.len())
        })
    });
    group.finish();
}

fn bench_engine_stream(c: &mut Criterion) {
    let table: InternedRib = rib(20_000).into_iter().collect();
    let events: Vec<ElementaryEvent> = (0..10_000u32)
        .map(|i| ElementaryEvent::Withdraw {
            timestamp: u64::from(i) * 1_000,
            prefix: Prefix::nth_slash24(i),
        })
        .collect();
    c.bench_function("engine/process_10k_withdrawals", |b| {
        b.iter(|| {
            let mut engine = InferenceEngine::from_interned(InferenceConfig::default(), &table);
            std::hint::black_box(engine.process_all(events.iter()).len())
        })
    });
}

/// `fanout`-way RIB: every path enters at AS 2 and fans out over `fanout`
/// second hops, so the links `(2, 100+j)` partition the prefix space and all
/// share endpoint 2 (the shape the greedy aggregation chains over). `blocked`
/// lays each link's prefixes out contiguously (promotes the per-link bitsets
/// to the dense form); striped spreads them across the whole id space (sparse
/// posting lists).
fn fanout_rib(n: u32, fanout: u32, blocked: bool) -> Vec<(Prefix, AsPath)> {
    let per_link = (n / fanout).max(1);
    (0..n)
        .map(|i| {
            let j = if blocked { i / per_link } else { i % fanout }.min(fanout - 1);
            let path = AsPath::new([2u32, 100 + j, 1_000 + (i % 16)]);
            (Prefix::nth_slash24(i), path)
        })
        .collect()
}

/// Counters over `table` with every second prefix withdrawn, so both the `W`
/// and `P` masks are populated.
fn counters_with_withdrawals(table: &[(Prefix, AsPath)]) -> LinkCounters {
    let mut c = LinkCounters::from_rib(table.iter().map(|(a, b)| (a, b)));
    for (k, (prefix, _)) in table.iter().enumerate() {
        if k % 2 == 0 {
            c.on_withdraw(*prefix);
        }
    }
    c
}

/// The fused single-pass `(W(S), P(S))` of an 8-link set (the set scorer's
/// counts) and, at the smallest size, the model's scan.
fn bench_kernel_score_set(c: &mut Criterion) {
    let set: Vec<AsLink> = (0..8).map(|j| AsLink::new(2, 100 + j)).collect();
    let mut group = c.benchmark_group("kernels/score_link_set");
    for &size in &[10_000u32, 100_000, 1_000_000] {
        // Striped layout: each link's prefixes interleave across the whole id
        // space (the shape RIB seeding order actually produces).
        let table = fanout_rib(size, 64, false);
        let counters = counters_with_withdrawals(&table);
        group.bench_with_input(BenchmarkId::new("fused", size), &size, |b, _| {
            b.iter(|| std::hint::black_box(counters.union_counts(&set)))
        });
        if size == 10_000 {
            let model = Model::of_counters(&counters);
            group.bench_with_input(BenchmarkId::new("scan", size), &size, |b, _| {
                b.iter(|| std::hint::black_box(model.union_counts(&set)))
            });
        }
    }
    group.finish();
}

/// The raw fused kernel on each dispatch shape: all-sparse (galloping merge),
/// all-dense (summary-guided block loop) and mixed, over a 1M-id space.
fn bench_kernel_raw(c: &mut Criterion) {
    const N: u32 = 1 << 20;
    let dense: Vec<IdBitSet> = (0..4u32)
        .map(|q| {
            let mut s = IdBitSet::with_capacity(N as usize);
            let start = q * (N / 4);
            for id in (start..start + N / 4).step_by(3) {
                s.set(id);
            }
            s
        })
        .collect();
    // Linearly spread ids: the posting list grows max_id faster than 32×len,
    // so these never cross the promotion threshold.
    let sparse: Vec<IdBitSet> = (0..4u32)
        .map(|k| {
            let mut s = IdBitSet::new();
            for i in 0..2_000u32 {
                s.set(i * 523 + k * 97);
            }
            s
        })
        .collect();
    let mut withdrawn = IdBitSet::with_capacity(N as usize);
    let mut routed = IdBitSet::with_capacity(N as usize);
    for id in (0..N).step_by(2) {
        withdrawn.set(id);
    }
    for id in (1..N).step_by(2) {
        routed.set(id);
    }
    let mut scratch = ScoreScratch::new();
    let mut group = c.benchmark_group("kernels/raw_union_counts");
    let dense_refs: Vec<&IdBitSet> = dense.iter().collect();
    let sparse_refs: Vec<&IdBitSet> = sparse.iter().collect();
    let mixed_refs: Vec<&IdBitSet> = dense.iter().take(2).chain(sparse.iter().take(2)).collect();
    group.bench_function("sparse", |b| {
        b.iter(|| {
            std::hint::black_box(fused_union_counts(
                &sparse_refs,
                &withdrawn,
                &routed,
                &mut scratch,
            ))
        })
    });
    group.bench_function("dense", |b| {
        b.iter(|| {
            std::hint::black_box(fused_union_counts(
                &dense_refs,
                &withdrawn,
                &routed,
                &mut scratch,
            ))
        })
    });
    group.bench_function("mixed", |b| {
        b.iter(|| {
            std::hint::black_box(fused_union_counts(
                &mixed_refs,
                &withdrawn,
                &routed,
                &mut scratch,
            ))
        })
    });
    group.finish();
}

/// The greedy aggregation chain end to end: the incremental running-union
/// scorer (one fused pass for the seed, then a delta count per trial over
/// the candidate's own ids) and, at the smallest size, the model's chain,
/// which rescans the RIB for every trial set. The 64-way fanout makes every
/// link tie on FS, so the chain actually walks all candidates.
fn bench_greedy_chain(c: &mut Criterion) {
    let config = InferenceConfig::default();
    let mut group = c.benchmark_group("kernels/greedy_chain");
    for &size in &[10_000u32, 100_000, 1_000_000] {
        let table = fanout_rib(size, 64, false);
        let counters = counters_with_withdrawals(&table);
        group.bench_with_input(BenchmarkId::new("incremental", size), &size, |b, _| {
            b.iter(|| std::hint::black_box(infer_links(&counters, &config)))
        });
        if size == 10_000 {
            let model = Model::of_counters(&counters);
            group.bench_with_input(BenchmarkId::new("scan", size), &size, |b, _| {
                b.iter(|| std::hint::black_box(model.infer(&config)))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_counter_updates,
    bench_counters_1m,
    bench_inference,
    bench_attempt_indexed_vs_scan,
    bench_engine_stream,
    bench_kernel_score_set,
    bench_kernel_raw,
    bench_greedy_chain
);
criterion_main!(benches);
