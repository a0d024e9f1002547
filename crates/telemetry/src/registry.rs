//! Named atomic counters and gauges, snapshot-able mid-run.
//!
//! The runtime's throughput numbers used to live in per-thread locals that
//! only became visible after `shutdown()` merged the worker reports. The
//! registry inverts that: every counter is an `Arc<AtomicU64>` registered
//! under a dotted name (`ingest.events`, `shard.2.batches`, ...), threads
//! keep a cloned handle and bump it locklessly, and [`Registry::snapshot`]
//! reads the whole set at any time without stopping the run. Snapshots are
//! not a cross-counter atomic cut — each value is a relaxed load — which is
//! the usual (and sufficient) contract for rate metrics.
//!
//! [`Counter`] and [`Gauge`] are ordering-fixed wrappers: every operation on
//! them is Relaxed, which is correct because no reader uses a metric to gate
//! access to other memory. The root `clippy.toml` disallows raw atomics
//! elsewhere, so a metric cannot be read or bumped with another ordering.
#![expect(
    clippy::disallowed_types,
    reason = "this module defines `Counter` and `Gauge`, the Relaxed-only metric wrappers"
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying atomic; increments are relaxed atomic adds
/// (one `lock xadd`, no mutex) so handles are safe to bump on hot paths.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways, plus a high-water helper.
/// Relaxed, like [`Counter`]: gauge values are reporting data, never a
/// synchronization signal.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is higher (lock-free `fetch_max`).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The name → atomic table behind [`Counter`] and [`Gauge`] handles.
///
/// Registration takes a short mutex; reads and increments never do. The
/// registry itself is cheaply cloneable (an `Arc` around the table) so the
/// runtime can hand it to any thread for live snapshots.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    names: Arc<Mutex<BTreeMap<String, Arc<AtomicU64>>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut names = self
            .names
            .lock()
            .expect("registry mutex poisoned: a registration panicked");
        names.entry(name.to_string()).or_default().clone()
    }

    /// Returns the counter registered under `name`, creating it at zero on
    /// first use. Repeated calls share the same underlying atomic.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.cell(name))
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use. A gauge and a counter of the same name share storage; keep
    /// names disjoint by convention (`*.depth` / `*.high` are gauges).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.cell(name))
    }

    /// Point-in-time values of every registered metric, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let names = self
            .names
            .lock()
            .expect("registry mutex poisoned: a registration panicked");
        names
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage_by_name() {
        let r = Registry::new();
        let a = r.counter("ingest.events");
        let b = r.counter("ingest.events");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot()["ingest.events"], 4);
    }

    #[test]
    fn gauge_record_max_is_a_high_water_mark() {
        let r = Registry::new();
        let g = r.gauge("shard.0.depth.high");
        g.record_max(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_live() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").add(2);
        let snap = r.snapshot();
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, ["a", "b"]);
        r.counter("a").inc();
        assert_eq!(r.snapshot()["a"], 3, "snapshots see live increments");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test increments one counter from several threads"
    )]
    fn counters_are_shared_across_threads() {
        let r = Registry::new();
        let c = r.counter("x");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker panicked");
        }
        assert_eq!(c.get(), 4000);
    }
}
