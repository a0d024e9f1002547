//! The runtime's atomics, each behind a type that fixes its memory ordering.
//!
//! The root `clippy.toml` disallows the raw `AtomicBool`, `AtomicUsize` and
//! `AtomicU64` types, so an atomic is declared here (or in
//! `swift_telemetry`'s `Counter` / `Gauge`) and the choice of ordering is
//! made once, next to the reason for it. The runtime has one: [`QueueDepth`],
//! a statistic that gates no other memory, so every operation on it is
//! Relaxed. No atomic of the runtime hands data from one thread to another:
//! that is the channels' job.
#![expect(
    clippy::disallowed_types,
    reason = "this module defines the runtime's ordering-fixed atomic wrappers"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Batches in, or racing into, one bounded queue: senders count a batch in
/// before they send it and the receiver counts it out on receipt. Cloning
/// shares the count. Relaxed: the value feeds a high-water metric only.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueueDepth(Arc<AtomicUsize>);

impl QueueDepth {
    /// Counts one batch in and returns the new depth.
    #[inline]
    pub(crate) fn inc(&self) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts one batch out.
    #[inline]
    pub(crate) fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}
