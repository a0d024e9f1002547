// Fixture for the protocol verifier's "lifecycle messages are never shed"
// check, against the tests' mini spec (`Batch` is data, `Barrier` and
// `Shutdown` are lifecycle). Checked as if it were
// `crates/runtime/src/worker.rs`. Expected findings: exactly ONE, on the
// line marked VIOLATION — the rest of the file speaks the mini protocol
// cleanly.

use std::sync::mpsc::{Receiver, SyncSender};

enum ShardMsg {
    Batch(Vec<u64>),
    Barrier(u64),
    Shutdown,
}

fn shed_lifecycle(shard_txs: &[SyncSender<ShardMsg>]) {
    for tx in shard_txs {
        let _ = tx.try_send(ShardMsg::Barrier(7)); // VIOLATION: barrier shed under pressure
    }
}

fn shedding_data_is_fine(tx: &SyncSender<ShardMsg>) {
    // DropNewest sheds *data* batches only — that is the policy's contract.
    let _ = tx.try_send(ShardMsg::Batch(vec![1, 2, 3]));
}

fn blocking_lifecycle_is_fine(shard_txs: &[SyncSender<ShardMsg>]) {
    for tx in shard_txs {
        tx.send(ShardMsg::Barrier(8)).expect("worker alive");
    }
    for tx in shard_txs {
        tx.send(ShardMsg::Shutdown).expect("worker alive");
    }
}

fn justified(shard_txs: &[SyncSender<ShardMsg>]) {
    for tx in shard_txs {
        // swift-lint: allow(protocol) -- fixture: probe for a full queue; the caller re-sends blocking on Err
        let _ = tx.try_send(ShardMsg::Barrier(9));
    }
}

fn worker(rx: Receiver<ShardMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(_) => {}
            ShardMsg::Barrier(_) => {}
            ShardMsg::Shutdown => return,
        }
    }
}
