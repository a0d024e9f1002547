//! What a routing table holds per route.
//!
//! A counting `#[global_allocator]` measures the live heap bytes a table of
//! two peers × 200 000 prefixes adds: both peers' route slabs and slot
//! arrays, the prefix dictionary's index and list, and the attribute
//! dictionary, each at the capacity it grew to. The gate is 40 bytes per
//! route. A route is a 16-byte record (its attributes by id), a slot 4 bytes
//! per prefix id and peer, the prefix dictionary 8 bytes per prefix plus its
//! index; with the growth slack of each array that comes to 36. Storing a
//! 64-byte route record with the attributes inline, as the table once did,
//! reads 98 and fails the gate.

#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait by signature; the impl below only counts \
              and forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swift_bgp::{AsPath, Asn, PeerId, Prefix, Route, RouteAttributes, RoutingTable};

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, and the test harness's other threads do not disturb it.
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

const PREFIXES: u32 = 200_000;
const PEERS: u32 = 2;
const MAX_BYTES_PER_ROUTE: i64 = 40;

/// Every prefix from both peers. Paths are three hops, the last one of 3 001
/// origins, so the table carries 6 002 distinct attribute sets — 1.5 % of
/// its routes, as a full table's share of distinct sets is a few per cent.
fn table() -> RoutingTable {
    let mut table = RoutingTable::new();
    for peer in 1..=PEERS {
        table.add_peer(PeerId(peer), Asn(peer));
    }
    for i in 0..PREFIXES {
        for peer in 1..=PEERS {
            let origin = i % 3_001;
            let path = AsPath::new([peer, 100 + origin % 50, 1_000 + origin]);
            let route = Route::new(PeerId(peer), RouteAttributes::from_path(path), 0);
            table.announce(PeerId(peer), Prefix::nth_slash24(i), route);
        }
    }
    table
}

#[test]
fn a_table_holds_at_most_40_bytes_per_route() {
    let before = LIVE.with(Cell::get);
    let table = table();
    let bytes = LIVE.with(Cell::get) - before;
    let routes: usize = (1..=PEERS)
        .map(|peer| table.adj_rib_in(PeerId(peer)).map_or(0, |rib| rib.len()))
        .sum();
    assert_eq!(routes, (PEERS * PREFIXES) as usize);
    assert_eq!(table.attr_count(), (PEERS * 3_001) as usize);
    let per_route = bytes / routes as i64;
    assert!(
        per_route <= MAX_BYTES_PER_ROUTE,
        "{bytes} live bytes for {routes} routes: {per_route} per route"
    );
}
