//! Criterion micro-benchmarks of the encoding scheme: two-stage table
//! construction and reroute-rule installation.

use criterion::{criterion_group, criterion_main, Criterion};
use swift_bgp::{AsLink, AsPath, Asn, PeerId, Prefix, Route, RouteAttributes, RoutingTable};
use swift_core::encoding::{ReroutingPolicy, TwoStageTable};
use swift_core::EncodingConfig;

fn table(n: u32) -> RoutingTable {
    let mut t = RoutingTable::new();
    for peer in [2u32, 3, 4] {
        t.add_peer(PeerId(peer), Asn(peer));
    }
    for i in 0..n {
        let via2 = match i % 3 {
            0 => AsPath::new([2u32, 5, 6]),
            1 => AsPath::new([2u32, 5, 6, 7]),
            _ => AsPath::new([2u32, 5, 6, 8]),
        };
        let mut attrs = RouteAttributes::from_path(via2);
        attrs.local_pref = Some(200);
        t.announce(
            PeerId(2),
            Prefix::nth_slash24(i),
            Route::new(PeerId(2), attrs, 0),
        );
        t.announce(
            PeerId(3),
            Prefix::nth_slash24(i),
            Route::new(
                PeerId(3),
                RouteAttributes::from_path(AsPath::new([3u32, 9, 100 + (i % 50)])),
                0,
            ),
        );
    }
    t
}

fn bench_build(c: &mut Criterion) {
    let t = table(20_000);
    let config = EncodingConfig {
        min_prefixes_per_link: 1_500,
        ..Default::default()
    };
    c.bench_function("encoding/build_two_stage_20k", |b| {
        b.iter(|| {
            std::hint::black_box(TwoStageTable::build(
                &t,
                &config,
                &ReroutingPolicy::allow_all(),
            ))
        })
    });
}

fn bench_reroute(c: &mut Criterion) {
    let t = table(20_000);
    let config = EncodingConfig {
        min_prefixes_per_link: 1_500,
        ..Default::default()
    };
    let built = TwoStageTable::build(&t, &config, &ReroutingPolicy::allow_all());
    c.bench_function("encoding/install_reroute", |b| {
        b.iter(|| {
            let mut ts = built.clone();
            std::hint::black_box(ts.install_reroute(&[AsLink::new(2, 5), AsLink::new(5, 6)]))
        })
    });
    c.bench_function("encoding/lookup", |b| {
        b.iter(|| std::hint::black_box(built.lookup(&t, &Prefix::nth_slash24(17))))
    });
}

criterion_group!(benches, bench_build, bench_reroute);
criterion_main!(benches);
