// Fixture for the per-event half of the `hot-path-alloc` rule: the counters'
// event handlers and the ranker's per-attempt fold are policed like the
// kernels, each name in the file it lives in. Checked as
// `crates/core/src/inference/counters.rs` (the event handlers) and
// `crates/core/src/inference/fit_score.rs` (the ranker's fold): between them
// the four VIOLATION lines.

fn on_withdraw() {
    let links: Vec<u32> = Vec::new(); // VIOLATION: per-withdrawal Vec
    drop(links);
}

fn announce_interned() {
    let old = vec![0u32; 4]; // VIOLATION: per-announcement Vec
    drop(old);
}

fn update() {
    let batch: Vec<u32> = Vec::new(); // VIOLATION: per-attempt Vec in the dirty-link fold
    drop(batch);
}

fn ranking() {
    let scored: Vec<(u32, f64)> = Vec::new(); // VIOLATION: the ranking buffer is reused, not rebuilt
    drop(scored);
}

fn start_burst() {
    // Once per burst, not per event: off the list.
    let kept: Vec<u32> = Vec::new();
    drop(kept);
}

fn index_new_paths() {
    // Once per distinct path: off the list.
    let links: Vec<u32> = Vec::new();
    drop(links);
}
