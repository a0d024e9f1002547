//! Memory probe: the live heap bytes of each structure a SWIFTED router
//! keeps, over `bigtable_inline`'s input — one session of a
//! full-Internet-sized table (1 000 000 prefixes) plus backup routes on 95 %
//! of them, generated by `MultiSessionTrace` with that workload's seed.
//!
//! A counting `#[global_allocator]` tracks the bytes allocated and not yet
//! freed; each row is how much that grew while one structure was built and
//! kept (temporaries freed on the way do not count). The rows:
//!
//! * the routing table as generated (the generator seals it), and a clone
//!   of it (what a router or a runtime given the table keeps), which shares
//!   the sealed prefix dictionary's index and list;
//! * `session_engines` — the per-session inference engines seeded from it,
//!   then what a warm recovery adds to them (every route re-announced as a
//!   recovery restores it, resolved against the table as `SwiftRouter`
//!   resolves each event: each engine's attribute-set memo grows to the sets
//!   its session carries), and one by one after it (what dropping each
//!   engine frees: the shared dictionary stays with the table);
//! * `TwoStageTable::build` — the forwarding table;
//! * `SwiftRouter::new` over a clone — all of the above in one router;
//! * two partial feeds of one size, each on a new peer of the clone, one
//!   route per 64 of the table's ids over an attribute set the table holds:
//!   one numbered in one block (the table's last ids, so its routes fill
//!   their 64-id pages of 4-byte records), one scattered a route per page
//!   (the worst case: a whole 256-byte page per route). Their bytes per
//!   route are per the feed's own routes.
//!
//! Run with: `cargo run --release --example memory_probe [prefixes] [seed]`
//! (defaults 1000000 and 1, the benchmark's seed).

#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait by signature; the impl below only counts \
              and forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swift::bgp::{Asn, ElementaryEvent, PeerId, PrefixId, Route, RoutingTable};
use swift::core::encoding::ReroutingPolicy;
use swift::core::pipeline::session_engines;
use swift::core::TwoStageTable;
use swift::traces::{MultiSessionConfig, MultiSessionTrace};
use swift::{SwiftConfig, SwiftRouter};

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates. The probe is single-threaded.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(by: i64) {
    LIVE.with(|live| live.set(live.get() + by));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Ids per page of a peer's route storage (`swift_bgp`'s `PeerRoutes`).
const PAGE: usize = 64;

/// The live bytes a new peer of `table` adds by announcing the prefixes
/// behind `ids`, each with the attribute set of id 0's first route.
fn partial_feed(table: &mut RoutingTable, ids: impl Iterator<Item = usize>) -> i64 {
    let first = table.candidates_by_id(PrefixId::from_index(0)).next();
    let attrs = first.expect("id 0 is routed").attrs.clone();
    let peer = PeerId(table.peers().map(|(peer, _)| peer.0).max().unwrap_or(0) + 1);
    let ((), bytes) = kept(|| {
        table.add_peer(peer, Asn(peer.0));
        for id in ids {
            let prefix = table.prefix_of(PrefixId::from_index(id));
            table.announce(peer, prefix, Route::new(peer, attrs.clone()));
        }
        table.seal();
    });
    bytes
}

/// Builds `f`'s value and returns it with the live bytes it added.
fn kept<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    let value = f();
    (value, LIVE.with(Cell::get) - before)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let prefixes: usize = args
        .next()
        .map_or(1_000_000, |a| a.parse().expect("prefixes"));
    let seed: u64 = args.next().map_or(1, |a| a.parse().expect("seed"));
    let config = SwiftConfig::default();
    let policy = ReroutingPolicy::allow_all();

    let (table, table_bytes) = kept(|| {
        MultiSessionTrace::generate(&MultiSessionConfig {
            sessions: 1,
            prefixes_per_session: prefixes,
            burst_size: 0,
            backup_coverage: 0.95,
            seed: seed ^ 0x5ca1_ab1e,
            ..MultiSessionConfig::default()
        })
        .table
    });
    let routes: usize = table
        .peers()
        .filter_map(|(peer, _)| table.adj_rib_in(peer))
        .map(|rib| rib.len())
        .sum();
    println!(
        "bigtable_inline's table (seed {seed}): {routes} routes over {} prefixes, {} peers, {} attribute sets",
        table.prefix_count(),
        table.peer_count(),
        table.attr_count()
    );

    let (mut clone, clone_bytes) = kept(|| table.clone());
    let (mut engines, engine_bytes) = kept(|| session_engines(&config, &table));
    let ((), recovery_bytes) = kept(|| {
        for (peer, engine) in &mut engines {
            let rib = table.adj_rib_in(*peer).expect("listed peer");
            for (prefix, route) in rib.views() {
                let event = ElementaryEvent::Announce {
                    timestamp: 0,
                    prefix: *prefix,
                    attrs: route.attrs.clone(),
                };
                engine.accept(&event, table.resolve(&event));
            }
        }
    });
    let (forwarding, forwarding_bytes) =
        kept(|| TwoStageTable::build(&table, &config.encoding, &policy));
    let (router, router_bytes) = kept(|| SwiftRouter::new(config.clone(), clone.clone(), policy));
    let (ids, feed) = (clone.id_count(), clone.id_count() / PAGE);
    let block_bytes = partial_feed(&mut clone, ids - feed..ids);
    let scattered_bytes = partial_feed(&mut clone, (0..feed).map(|k| k * PAGE));
    // Each engine's own bytes: what dropping it frees.
    let per_engine: Vec<(String, i64)> = engines
        .into_iter()
        .map(|(peer, engine)| {
            let routes = engine.engine().counters().routed_count();
            let ((), freed) = kept(|| drop(engine));
            (
                format!("  engine of peer {} ({routes} routes)", peer.0),
                -freed,
            )
        })
        .collect();

    let mib = |bytes: i64| bytes as f64 / (1 << 20) as f64;
    println!(
        "{:<40} {:>10} {:>12}",
        "structure", "live MiB", "bytes/route"
    );
    let rows = [
        ("RoutingTable (generated, sealed)".to_string(), table_bytes),
        ("RoutingTable::clone".to_string(), clone_bytes),
        ("session_engines".to_string(), engine_bytes),
        ("  + a warm recovery (memos)".to_string(), recovery_bytes),
    ]
    .into_iter()
    .chain(per_engine)
    .chain([
        ("TwoStageTable::build".to_string(), forwarding_bytes),
        ("SwiftRouter::new (its own table)".to_string(), router_bytes),
    ]);
    for (name, bytes) in rows {
        println!(
            "{name:<40} {:>10.1} {:>12.1}",
            mib(bytes),
            bytes as f64 / routes as f64
        );
    }
    let feeds = [
        ("one block", block_bytes),
        ("one per page", scattered_bytes),
    ];
    for (numbering, bytes) in feeds {
        let name = format!("partial feed, {numbering} ({feed} routes)");
        println!(
            "{name:<40} {:>10.1} {:>12.1}",
            mib(bytes),
            bytes as f64 / feed as f64
        );
    }
    drop((forwarding, router));
}
