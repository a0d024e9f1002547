// Fixture for the topology checker's bounded-data-path check. Checked as if
// it were `crates/runtime/src/lib.rs`. Expected "data channel … is
// unbounded" findings: exactly ONE, on the line marked VIOLATION. (Every
// channel here is also an orphan — nothing sends or receives on it — which
// is a separate finding.)

use std::sync::mpsc;

fn data_path_must_be_bounded() {
    let (tx, rx) = mpsc::channel::<u64>(); // VIOLATION: unbounded data path
    drop((tx, rx));
}

fn bounded_data_path_is_fine() {
    let (tx, rx) = mpsc::sync_channel::<u64>(128);
    drop((tx, rx));
}

fn control_channels_may_be_unbounded() {
    let (reply_tx, reply_rx) = mpsc::channel::<u64>();
    let (barrier_tx, barrier_rx) = mpsc::channel::<(usize, u64)>();
    drop((reply_tx, reply_rx, barrier_tx, barrier_rx));
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    #[test]
    fn tests_may_use_unbounded_channels() {
        let (tx, rx) = mpsc::channel::<u64>();
        drop((tx, rx));
    }
}
