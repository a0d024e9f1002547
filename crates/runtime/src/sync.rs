//! The runtime's atomics, each behind a type that fixes its memory ordering.
//!
//! The root `clippy.toml` disallows the raw `AtomicBool`, `AtomicUsize` and
//! `AtomicU64` types, so an atomic is declared here (or in
//! `swift_telemetry`'s `Counter` / `Gauge`) and the choice of ordering is
//! made once, next to the reason for it:
//!
//! * [`ShutdownFlag`] is the one handshake: a Release store paired with an
//!   Acquire load;
//! * [`QueueDepth`] and [`EpochClock`] are statistics that gate no other
//!   memory, so every operation on them is Relaxed.
#![expect(
    clippy::disallowed_types,
    reason = "this module defines the runtime's ordering-fixed atomic wrappers"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Raised by the runtime at shutdown, before the worker channels close.
///
/// A producer handle that finds a queue disconnected reads it to tell "the
/// runtime finished" (late traffic is shed) from "a worker crashed while the
/// runtime is live" (fail fast).
#[derive(Debug, Default)]
pub(crate) struct ShutdownFlag(AtomicBool);

impl ShutdownFlag {
    /// Raises the flag. Release: a reader that sees it raised also sees
    /// everything the runtime wrote before raising it.
    pub(crate) fn raise(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag is raised. Acquire, pairing with [`Self::raise`].
    pub(crate) fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

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

/// The runtime's coarse monotonic clock: nanoseconds since the runtime's
/// construction, cached in one atomic word.
///
/// Producers *read* the cached value per event ([`EpochClock::coarse`], an
/// atomic load) and *refresh* it only every few hundred events
/// ([`EpochClock::refresh`]); consumers measuring latency read the precise
/// value ([`EpochClock::precise`]) — they are off the ingest hot path and can
/// afford the syscall. `refresh` uses `fetch_max`, so concurrent refreshers
/// never move the cached epoch backwards. Relaxed: a stamp gates no other
/// memory.
#[derive(Debug)]
pub(crate) struct EpochClock {
    base: Instant,
    cached: AtomicU64,
}

impl EpochClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the clock's base instant: read once per runtime, never per event"
    )]
    pub(crate) fn new() -> Self {
        EpochClock {
            base: Instant::now(),
            cached: AtomicU64::new(0),
        }
    }

    /// The cached epoch, in nanoseconds since the base instant.
    #[inline]
    pub(crate) fn coarse(&self) -> u64 {
        self.cached.load(Ordering::Relaxed)
    }

    /// Re-reads the real clock into the cache and returns it.
    pub(crate) fn refresh(&self) -> u64 {
        let now = self.precise();
        self.cached.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// The real monotonic clock, in nanoseconds since the base instant.
    pub(crate) fn precise(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
