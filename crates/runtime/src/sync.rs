//! The runtime's atomics, each behind a type that fixes its memory ordering.
//!
//! The root `clippy.toml` disallows the raw `AtomicBool`, `AtomicUsize` and
//! `AtomicU64` types, so an atomic is declared here and the choice of
//! ordering is made once, next to the reason for it. The runtime has one:
//! [`QueueDepth`], a statistic that gates no other memory, so every operation
//! on it is Relaxed. No atomic of the runtime hands data from one thread to
//! another: that is the channels' job.
#![expect(
    clippy::disallowed_types,
    reason = "this module defines the runtime's ordering-fixed atomic wrappers"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Batches in, or racing into, one bounded queue, and the high-water of that
/// count: senders count a batch in before they send it and the receiver
/// counts it out on receipt. Cloning shares both counts. Relaxed: the values
/// feed a high-water metric only.
#[derive(Debug, Clone)]
pub(crate) struct QueueDepth(Arc<Depths>);

#[derive(Debug)]
struct Depths {
    current: AtomicUsize,
    high: AtomicUsize,
    /// The queue's physical capacity: a sender racing the receiver's count
    /// out can observe one batch more than the queue holds.
    capacity: usize,
}

impl QueueDepth {
    /// The depth of a queue holding at most `capacity` batches (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        QueueDepth(Arc::new(Depths {
            current: AtomicUsize::new(0),
            high: AtomicUsize::new(0),
            capacity: capacity.max(1),
        }))
    }

    /// Counts one batch in and raises the high-water, clamped to the
    /// capacity.
    #[inline]
    pub(crate) fn inc(&self) {
        let depth = self.0.current.fetch_add(1, Ordering::Relaxed) + 1;
        (self.0.high).fetch_max(depth.min(self.0.capacity), Ordering::Relaxed);
    }

    /// Counts one batch out.
    #[inline]
    pub(crate) fn dec(&self) {
        self.0.current.fetch_sub(1, Ordering::Relaxed);
    }

    /// The high-water of the depth, in batches: at most the capacity.
    pub(crate) fn high(&self) -> usize {
        self.0.high.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::QueueDepth;

    #[test]
    fn clones_share_a_clamped_high_water_that_dec_never_lowers() {
        let sender = QueueDepth::new(3);
        let receiver = sender.clone();
        sender.inc();
        sender.inc();
        assert_eq!(receiver.high(), 2, "clones share the high-water");
        receiver.dec();
        sender.inc();
        assert_eq!(
            sender.high(),
            2,
            "clones share the depth: 2 in, 1 out, 1 in"
        );
        sender.inc();
        sender.inc();
        assert_eq!(sender.high(), 3, "a depth of 4 is clamped to the capacity");
        for _ in 0..4 {
            receiver.dec();
        }
        assert_eq!(receiver.high(), 3, "counting out never lowers it");
        let unbuffered = QueueDepth::new(0);
        assert_eq!(unbuffered.high(), 0, "nothing counted in yet");
        unbuffered.inc();
        unbuffered.inc();
        assert_eq!(unbuffered.high(), 1, "a capacity of 0 counts as 1");
    }
}
