//! Flight recorder: a fixed-size ring of recent lifecycle events.
//!
//! Churn-equivalence failures are painful to debug because the interesting
//! history (which sessions registered, which barriers completed, which
//! batches were shed) is gone by the time the assertion fires. The flight
//! recorder keeps the last `capacity` lifecycle events in a ring — data-path
//! events are *not* recorded, so the ring stays off the hot path — and
//! [`FlightRecorder::dump`] renders them oldest-first.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Kinds of lifecycle events worth keeping for post-mortems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A session registered with the runtime.
    Register,
    /// A session tore down.
    Teardown,
    /// A barrier rendezvous completed.
    Barrier,
    /// An applier resynchronised its deferred RIB.
    Resync,
    /// Data batches were shed under `DropNewest` backpressure.
    Drop,
    /// The runtime began shutdown.
    Shutdown,
}

impl FlightKind {
    fn label(self) -> &'static str {
        match self {
            FlightKind::Register => "register",
            FlightKind::Teardown => "teardown",
            FlightKind::Barrier => "barrier",
            FlightKind::Resync => "resync",
            FlightKind::Drop => "drop",
            FlightKind::Shutdown => "shutdown",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Monotonic sequence number (never resets, so gaps after eviction show
    /// how much history the ring dropped).
    pub seq: u64,
    /// Caller-supplied timestamp in nanoseconds (the runtime passes its
    /// `EpochClock` reading so flight times line up with trace stamps).
    pub at_ns: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Free-form detail (`peer=3 shard=1`, `resync #4 applier=0`, ...).
    pub detail: String,
}

/// The ring itself. Cloning shares the buffer, so the runtime can hand one
/// recorder to every worker and to its caller.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
    capacity: usize,
}

#[derive(Debug)]
struct FlightInner {
    ring: VecDeque<FlightEvent>,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                ring: VecDeque::with_capacity(capacity),
                next_seq: 0,
            })),
            capacity,
        }
    }

    /// Records one lifecycle event, evicting the oldest when full.
    pub fn record(&self, at_ns: u64, kind: FlightKind, detail: impl Into<String>) {
        let mut inner = self
            .inner
            .lock()
            .expect("flight recorder mutex poisoned: a recording thread panicked");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(FlightEvent {
            seq,
            at_ns,
            kind,
            detail: detail.into(),
        });
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder mutex poisoned: a recording thread panicked")
            .next_seq
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner
            .lock()
            .expect("flight recorder mutex poisoned: a recording thread panicked")
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the retained history, oldest first, one event per line.
    pub fn dump(&self) -> String {
        let events = self.events();
        let total = self.recorded();
        let mut out = format!(
            "flight recorder: {} of {} lifecycle events retained\n",
            events.len(),
            total
        );
        for e in &events {
            out.push_str(&format!(
                "  #{:<6} t={:>12}ns {:<9} {}\n",
                e.seq,
                e.at_ns,
                e.kind.label(),
                e.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record(i * 10, FlightKind::Register, format!("peer={i}"));
        }
        let events = fr.events();
        assert_eq!(events.len(), 3);
        assert_eq!(fr.recorded(), 5);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4], "oldest evicted, order preserved");
        assert_eq!(events[0].detail, "peer=2");
    }

    #[test]
    fn dump_renders_every_retained_event() {
        let fr = FlightRecorder::with_capacity(8);
        fr.record(100, FlightKind::Barrier, "rendezvous #1");
        fr.record(250, FlightKind::Resync, "applier=0 resync #1");
        fr.record(300, FlightKind::Drop, "shard=2 shed=17");
        let dump = fr.dump();
        assert!(dump.contains("3 of 3"), "{dump}");
        for needle in ["barrier", "rendezvous #1", "resync", "drop", "shed=17"] {
            assert!(dump.contains(needle), "missing {needle}:\n{dump}");
        }
    }

    #[test]
    fn clones_share_the_ring() {
        let fr = FlightRecorder::with_capacity(4);
        let clone = fr.clone();
        clone.record(5, FlightKind::Teardown, "peer=9");
        assert_eq!(fr.events().len(), 1);
        assert_eq!(fr.events()[0].kind, FlightKind::Teardown);
    }
}
