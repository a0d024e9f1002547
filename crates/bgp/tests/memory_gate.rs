//! What a routing table holds per route.
//!
//! A counting `#[global_allocator]` measures the live heap bytes a sealed
//! table of two peers × 200 000 prefixes adds: both peers' route pages and
//! page directories, trimmed to their length by the seal, the prefix
//! dictionary's index and list, and the attribute dictionary. The gate is
//! 16 bytes per route. A route is a 4-byte record (its attributes' id), a
//! page directory 4 bytes per 64 prefix ids and peer, the prefix dictionary
//! 8 bytes per prefix plus its index; that comes to 14. The same table
//! unsealed keeps the slack its arrays grew by doubling and reads 15. The
//! layouts the table had before read more: a 64-byte route record with the
//! attributes inline 98, a 4-byte slot per id and peer in front of a
//! 16-byte record 30, and a 12-byte record that also held the time the
//! route was learned 22.
//!
//! A second case pins the partial feed: one session whose 20 000 routes are
//! one block of ids at the end of a 240 000-id table, the shape of a
//! `corpus_*` session. Its routes fill their pages, so it holds at most 8
//! bytes per route (reads 4; 12 with the 12-byte record); the slot-per-id
//! layout charged it 64 (4 × 240 000 + 16 × 20 000 bytes over 20 000
//! routes).

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
const MAX_BYTES_PER_ROUTE: i64 = 16;

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
            let route = Route::new(PeerId(peer), RouteAttributes::from_path(path));
            table.announce(PeerId(peer), Prefix::nth_slash24(i), route);
        }
    }
    table
}

#[test]
fn a_sealed_table_holds_at_most_16_bytes_per_route() {
    let before = LIVE.with(Cell::get);
    let mut table = table();
    table.seal();
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

/// The partial feed's table: peer 1 numbers 240 000 prefixes.
const SHARED_IDS: u32 = 240_000;
/// The partial feed: peer 2's routes, the last block of those ids.
const BLOCK: u32 = 20_000;
const MAX_BYTES_PER_BLOCK_ROUTE: i64 = 8;

#[test]
fn a_session_numbered_in_one_block_holds_at_most_8_bytes_per_route() {
    let mut table = RoutingTable::new();
    table.add_peer(PeerId(1), Asn(1));
    let attrs = |peer: u32, i: u32| RouteAttributes::from_path(AsPath::new([peer, 1_000 + i % 10]));
    for i in 0..SHARED_IDS {
        let route = Route::new(PeerId(1), attrs(1, i));
        table.announce(PeerId(1), Prefix::nth_slash24(i), route);
    }
    table.seal();
    // Peer 2's routes: prefixes the table already numbers, over ten
    // attribute sets, so the bytes it adds are its pages and directory.
    let before = LIVE.with(Cell::get);
    table.add_peer(PeerId(2), Asn(2));
    for i in SHARED_IDS - BLOCK..SHARED_IDS {
        let route = Route::new(PeerId(2), attrs(2, i));
        table.announce(PeerId(2), Prefix::nth_slash24(i), route);
    }
    table.seal();
    let bytes = LIVE.with(Cell::get) - before;
    let rib = table.adj_rib_in(PeerId(2)).expect("registered");
    assert_eq!(
        (rib.len(), table.id_count()),
        (BLOCK as usize, SHARED_IDS as usize)
    );
    let per_route = bytes / i64::from(BLOCK);
    assert!(
        per_route <= MAX_BYTES_PER_BLOCK_ROUTE,
        "{bytes} live bytes for {BLOCK} routes: {per_route} per route"
    );
}
