// Fixture for the RIB-mirror half of the `hot-path-alloc` rule: what
// `RoutingTable::apply_owned` runs per event, and the `AsPath` reads a retag
// makes per candidate, are policed like the kernels, each name in
// the file it lives in. Checked as `crates/bgp/src/rib.rs` (`insert`,
// `remove`) and `crates/bgp/src/as_path.rs` (`hops`): between them the three
// VIOLATION lines.

fn insert() {
    let displaced: Vec<u32> = Vec::new(); // VIOLATION: a list per announcement
    drop(displaced);
}

fn remove() {
    let freed = vec![0u32; 1]; // VIOLATION: a Vec per withdrawal
    drop(freed);
}

fn hops() {
    let copy: Vec<u32> = Vec::new(); // VIOLATION: the read path copies the hops out
    drop(copy);
}

fn iter() {
    // Ordered iteration sorts on demand: seeding and builds, never per event.
    let entries: Vec<u32> = Vec::new();
    drop(entries);
}

fn clear_peer() {
    // Once per session teardown: off the list.
    let cleared = vec![0u32; 4];
    drop(cleared);
}
