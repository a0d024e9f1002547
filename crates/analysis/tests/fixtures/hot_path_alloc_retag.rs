// Fixture for the retag half of the `hot-path-alloc` rule: the functions the
// post-convergence resync runs once per dirty prefix are policed like the
// kernels. Checked as `crates/core/src/encoding/two_stage.rs` (expected
// findings: the three VIOLATION lines).

fn refresh_ids() {
    let tags: Vec<u64> = Vec::new(); // VIOLATION: a buffer per refresh call, filled per prefix
    drop(tags);
}

fn compute_tag() {
    let backups = vec![0u64; 4]; // VIOLATION: per-prefix Vec of backup slots
    drop(backups);
}

fn set_tag() {
    let moved: Vec<usize> = Vec::new(); // VIOLATION: per-prefix list of index rows to move
    drop(moved);
}

fn build() {
    // Once per table: the stage-1 array is sized here.
    let stage1 = vec![u64::MAX; 16];
    drop(stage1);
}

fn clear_swift_rules() {
    // Once per resync: off the list.
    let refs: Vec<Vec<u32>> = Vec::new();
    drop(refs);
}
