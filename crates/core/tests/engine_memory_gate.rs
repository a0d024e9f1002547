//! What the inference engines hold per route.
//!
//! A counting `#[global_allocator]` measures what `session_engines` keeps
//! over a sealed table of two peers × 200 000 prefixes: per session, the
//! counters' 4-byte slot per prefix id, the routed-id bitset, every link's
//! crossing set (4 bytes per member and its growth slack) and the interned
//! paths with their link lists. Both sessions are full feeds, so the
//! engines number prefixes by the table's ids and share its sealed prefix
//! dictionary: they allocate no prefix index and no prefix list of their
//! own. The gate is 18 bytes per route,
//! what they read. Engines that each build a dictionary of their own — an
//! index of 9.1 to 18.3 bytes per prefix plus an 8-byte list entry — read
//! 37 and fail it.

#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait by signature; the impl below only counts \
              and forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swift_bgp::{AsPath, Asn, PeerId, Prefix, Route, RouteAttributes, RoutingTable};
use swift_core::pipeline::session_engines;
use swift_core::SwiftConfig;

thread_local! {
    // Const-initialised and without a destructor: reading them never
    // allocates, and the test harness's other threads do not disturb them.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn bump(by: i64, size: usize) {
    LIVE.with(|live| live.set(live.get() + by));
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64, layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(-(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64, new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PREFIXES: u32 = 200_000;
const PEERS: u32 = 2;
const MAX_BYTES_PER_ROUTE: i64 = 18;

/// Every prefix from both peers, over the paths of the table's own memory
/// gate (`crates/bgp/tests/memory_gate.rs`): three hops, the last one of
/// 3 001 origins, so each session has 3 001 distinct paths over 3 051 links.
fn table() -> RoutingTable {
    let mut table = RoutingTable::new();
    for peer in 1..=PEERS {
        table.add_peer(PeerId(peer), Asn(peer));
    }
    for i in 0..PREFIXES {
        for peer in 1..=PEERS {
            let origin = i % 3_001;
            let path = AsPath::new([peer, 100 + origin % 50, 1_000 + origin]);
            let route = Route::new(PeerId(peer), RouteAttributes::from_path(path));
            table.announce(PeerId(peer), Prefix::nth_slash24(i), route);
        }
    }
    table.seal();
    table
}

#[test]
fn session_engines_hold_at_most_18_bytes_per_route() {
    let table = table();
    let config = SwiftConfig::default();
    let before = LIVE.with(Cell::get);
    LARGEST.with(|largest| largest.set(0));
    let engines = session_engines(&config, &table);
    let bytes = LIVE.with(Cell::get) - before;
    let largest = LARGEST.with(Cell::get);
    let routes: usize = engines
        .values()
        .map(|engine| engine.engine().counters().routed_count())
        .sum();
    assert_eq!(routes, (PEERS * PREFIXES) as usize);
    let per_route = bytes / routes as i64;
    assert!(
        per_route <= MAX_BYTES_PER_ROUTE,
        "{bytes} live bytes for {routes} routes: {per_route} per route"
    );
    // A prefix index for one session's 200 000 prefixes is 2^18 slots of 8
    // bytes. The largest block the seeding asks for, kept or not, is its
    // walk of one session's routes: 8 bytes per route, 1.6 MB.
    let index = (1usize << 18) * 8;
    assert!(
        largest < index,
        "a {largest}-byte allocation: a prefix index is {index}"
    );
}
