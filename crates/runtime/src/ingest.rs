//! The multi-producer ingest layer: per-source [`IngestHandle`]s.
//!
//! PR 4's runtime funnelled every event through one `&mut ShardedRuntime`
//! ingest loop — a single thread paying an `Instant::now()` and a session
//! hash per event, the last serialized stage in front of the shards. This
//! module removes it: any number of producer threads each own an
//! [`IngestHandle`] that batches events *per shard* and sends straight into
//! the shard queues, with no central dispatch thread in between.
//!
//! * **Ordering** — per-session order is preserved by *pinning*: all of a
//!   session's events (and its lifecycle calls) must go through exactly one
//!   handle. Within one handle, dispatch order per shard is ingest order, so
//!   each session's event stream reaches its home shard in order — the
//!   invariant the runtime's determinism guarantees rest on. Events of one
//!   session fed through two handles race at the shard queue and the
//!   guarantee is void (their *per-shard batches* interleave
//!   nondeterministically).
//! * **Clock** — events are stamped with a coarse epoch clock
//!   (`EpochClock`): one shared `AtomicU64` of nanoseconds since the
//!   runtime's base instant, refreshed by each producer every
//!   `CLOCK_REFRESH_INTERVAL` events (and at every batch dispatch) instead
//!   of a syscall-backed `Instant::now()` per event.
//!   Latency percentiles trade at most one refresh interval of skew for an
//!   ingest path that is an atomic load.
//! * **Counters** — drop counts and queue high-waters are recorded
//!   per-handle-per-shard with no sharing on the hot path, and folded into
//!   the runtime's [`swift_core::metrics::ProducerCounters`] accumulator when
//!   the handle finishes ([`IngestHandle::finish`], or its `Drop`).
//!
//! Handles hold `SyncSender` clones, so they never outlive the channels; a
//! handle still alive after [`crate::ShardedRuntime::finish`] simply finds
//! the queues disconnected and counts further events as dropped.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use swift_bgp::{Asn, ElementaryEvent, InternedRib, PeerId, Prefix, Route};
use swift_core::metrics::ProducerCounters;
use swift_core::pipeline::SessionEngine;
use swift_core::SwiftConfig;
use swift_telemetry::{Counter, FlightKind, FlightRecorder, TraceSampler, TraceStamp};

use crate::worker::{IngestEvent, SessionRegistration, ShardMsg};
use crate::{shard_of, BackpressurePolicy};

/// Events between two refreshes of the coarse ingest clock, per producer
/// handle: the ingest path stays an atomic load at the cost of up to one
/// interval of latency-stamp skew.
const CLOCK_REFRESH_INTERVAL: usize = 256;

/// Seeds a fresh [`SessionEngine`] from a session's announced routes — the
/// single registration-seeding path shared by the inline runtime and the
/// producer handles, so the two modes cannot silently diverge.
pub(crate) fn engine_from_routes(
    peer: PeerId,
    swift: &SwiftConfig,
    routes: &[(Prefix, Route)],
) -> SessionEngine {
    let mut rib = InternedRib::new();
    for (prefix, route) in routes {
        rib.push(*prefix, route.as_path());
    }
    SessionEngine::from_interned(peer, swift, &rib)
}

/// The runtime's coarse monotonic clock: nanoseconds since the runtime's
/// construction, cached in one atomic word.
///
/// Producers *read* the cached value per event ([`EpochClock::coarse`], an
/// atomic load) and *refresh* it only every few hundred events
/// ([`EpochClock::refresh`]); consumers measuring latency read the precise
/// value ([`EpochClock::precise`]) — they are off the ingest hot path and can
/// afford the syscall. `refresh` uses `fetch_max`, so concurrent refreshers
/// never move the cached epoch backwards.
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

/// Everything the producers share with each other and with the runtime:
/// channel ends, backpressure configuration, the epoch clock, the run-start
/// stamp and the merged-counter accumulator.
pub(crate) struct ProducerShared {
    pub(crate) shard_txs: Vec<SyncSender<ShardMsg>>,
    /// Per-shard in-flight batch counters (shared with the workers, which
    /// decrement on receive).
    pub(crate) depth: Vec<Arc<AtomicUsize>>,
    pub(crate) batch_size: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) backpressure: BackpressurePolicy,
    pub(crate) clock: Arc<EpochClock>,
    /// First ingest across *all* producers — the run's wall-clock start.
    /// `OnceLock` so concurrent first events race safely to one stamp;
    /// shared with the runtime, which stamps it on inline ingests too.
    pub(crate) started: Arc<OnceLock<Instant>>,
    /// Set by the runtime at shutdown, before the worker channels close.
    /// Lets a handle distinguish "the runtime finished" (tolerated: late
    /// events are shed) from "a worker crashed while the runtime is live"
    /// (fail fast — silently shedding there would violate the lossless
    /// `Block` contract).
    pub(crate) shutdown: AtomicBool,
    /// Swift configuration, for seeding engines of mid-run registrations.
    pub(crate) swift: SwiftConfig,
    /// Finished producers' counters, folded together. Touched only at
    /// handle finish/drop — never on the ingest path.
    pub(crate) merged: Mutex<ProducerCounters>,
    /// Registry counter `ingest.events`, shared by every producer and bumped
    /// a batch at a time at dispatch (the per-event path stays counter-free).
    pub(crate) events_ctr: Counter,
    /// Registry counter `ingest.dropped`, bumped when a batch is shed.
    pub(crate) dropped_ctr: Counter,
    /// Lifecycle flight recorder (shed batches are lifecycle-worthy).
    pub(crate) flight: FlightRecorder,
    /// Sampling interval for pipeline tracing (0 = off).
    pub(crate) trace_interval: usize,
}

/// One producer's handle into the sharded runtime: a cloneable, `Send`
/// front-end that batches events per shard and sends them straight into the
/// shard queues.
///
/// Obtain from [`crate::ShardedRuntime::handle`] (or by cloning an existing
/// handle — a clone is a *new* producer with its own buffers and counters).
/// Feed it with [`IngestHandle::ingest`] / [`IngestHandle::ingest_stream`],
/// manage session lifecycles in-band with [`IngestHandle::register_session`]
/// / [`IngestHandle::teardown_session`], and call [`IngestHandle::finish`]
/// (or drop the handle) before `ShardedRuntime::flush`/`finish` so buffered
/// events are dispatched and the handle's counters reach the report.
///
/// **Pinning rule**: route all of a session's traffic through exactly one
/// handle. Sessions on different handles are fully concurrent; one session
/// split across handles loses its ordering guarantee (see the module docs).
pub struct IngestHandle {
    shared: Arc<ProducerShared>,
    /// Per-shard batch buffers owned by this producer alone.
    buffers: Vec<Vec<IngestEvent>>,
    /// Per-shard events shed by this producer (DropNewest, or a vanished
    /// runtime).
    dropped: Vec<u64>,
    /// Per-shard queue high-water this producer observed at enqueue.
    max_depth: Vec<usize>,
    events: u64,
    /// Events ingested since the last epoch refresh.
    since_refresh: usize,
    /// 1-in-N pipeline-trace sampler (per producer, so concurrent handles
    /// sample independently without sharing hot-path state).
    sampler: TraceSampler,
    finished: bool,
}

impl IngestHandle {
    pub(crate) fn new(shared: Arc<ProducerShared>) -> Self {
        let shards = shared.shard_txs.len();
        let batch = shared.batch_size;
        let sampler = TraceSampler::every(shared.trace_interval);
        IngestHandle {
            shared,
            buffers: (0..shards).map(|_| Vec::with_capacity(batch)).collect(),
            dropped: vec![0; shards],
            max_depth: vec![0; shards],
            events: 0,
            since_refresh: 0,
            sampler,
            finished: false,
        }
    }

    /// Events this handle has ingested so far (including any shed).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Ingests one per-prefix event received on the session with `peer`,
    /// stamping it with the coarse epoch clock and buffering it toward the
    /// session's home shard. Dispatches the shard's batch when full,
    /// honouring the configured backpressure policy.
    pub fn ingest(&mut self, peer: PeerId, event: ElementaryEvent) {
        #[expect(
            clippy::disallowed_methods,
            reason = "one-time run-start stamp: OnceLock makes this a single atomic load after \
                      the first event, not a per-event clock read"
        )]
        self.shared.started.get_or_init(Instant::now);
        if self.since_refresh == 0 {
            self.shared.clock.refresh();
        }
        self.since_refresh += 1;
        if self.since_refresh >= CLOCK_REFRESH_INTERVAL {
            self.since_refresh = 0;
        }
        self.events += 1;
        let shard = shard_of(peer, self.buffers.len());
        // Sampled tracing: the 1-in-N hit pays one precise clock read for its
        // stamp; the other N−1 events pay a masked counter check.
        let trace = if self.sampler.sample() {
            Some(TraceStamp::at(self.shared.clock.precise()))
        } else {
            None
        };
        self.buffers[shard].push(IngestEvent {
            peer,
            event,
            ingest: self.shared.clock.coarse(),
            trace,
        });
        if self.buffers[shard].len() >= self.shared.batch_size {
            self.dispatch(shard);
        }
    }

    /// Ingests a whole stream of `(peer, event)` pairs.
    pub fn ingest_stream<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (PeerId, ElementaryEvent)>,
    {
        for (peer, event) in events {
            self.ingest(peer, event);
        }
    }

    /// Registers (or re-registers) a peering session through this handle,
    /// ordered in-band with the handle's ingested events: the session's home
    /// shard adopts a fresh engine seeded from `routes` and forwards the
    /// routing-state half to the applier. Never shed, even under
    /// [`BackpressurePolicy::DropNewest`].
    ///
    /// The in-band guarantee covers traffic *through this handle* — which is
    /// all of the session's traffic, under the pinning rule.
    pub fn register_session<I>(&mut self, peer: PeerId, asn: Asn, routes: I)
    where
        I: IntoIterator<Item = (Prefix, Route)>,
    {
        let routes: Vec<(Prefix, Route)> = routes.into_iter().collect();
        let engine = engine_from_routes(peer, &self.shared.swift, &routes);
        let shard = shard_of(peer, self.buffers.len());
        self.dispatch(shard);
        let sent =
            self.shared.shard_txs[shard].send(ShardMsg::Register(Box::new(SessionRegistration {
                peer,
                asn,
                engine,
                routes,
            })));
        if sent.is_err() {
            self.on_disconnected(shard);
        }
    }

    /// Tears a peering session down through this handle, ordered in-band
    /// with the handle's ingested events. Never shed.
    pub fn teardown_session(&mut self, peer: PeerId) {
        let shard = shard_of(peer, self.buffers.len());
        self.dispatch(shard);
        if self.shared.shard_txs[shard]
            .send(ShardMsg::Teardown(peer))
            .is_err()
        {
            self.on_disconnected(shard);
        }
    }

    /// A send found shard `shard`'s channel disconnected: tolerated after
    /// the runtime shut down (the handle outlived it — late traffic is
    /// shed), a panic while the runtime is live (a worker crashed; shedding
    /// silently there would break the lossless `Block` contract and let a
    /// long run grind on against a dead shard).
    fn on_disconnected(&self, shard: usize) {
        // Acquire pairs with the Release store in `Runtime::shutdown` (see
        // the atomic-ordering auditor's `flag` role): observing the flag
        // must also observe the shutdown that raised it.
        assert!(
            self.shared.shutdown.load(Ordering::Acquire),
            "shard {shard} worker thread is gone while the runtime is live"
        );
    }

    /// Dispatches every buffered batch to its shard. Call before a runtime
    /// `flush`/`resync_after_convergence` so this producer's buffered events
    /// are part of what drains.
    pub fn flush(&mut self) {
        for shard in 0..self.buffers.len() {
            self.dispatch(shard);
        }
        // A flush marks a pipeline quiet point (rendezvous, resync,
        // shutdown): re-anchor the coarse clock unconditionally — empty
        // buffers skip the dispatch-side refresh — so events stamped after a
        // long pause don't inherit a pre-pause epoch and inflate the
        // latency percentiles by the pause duration.
        self.shared.clock.refresh();
        self.since_refresh = 0;
    }

    /// Flushes the handle and folds its counters into the runtime's
    /// accumulator. Equivalent to dropping the handle, but explicit at call
    /// sites that care about when the events hit the queues.
    pub fn finish(mut self) {
        self.close();
    }

    /// Sends shard `shard`'s buffered batch, honouring the backpressure
    /// policy.
    ///
    /// The queue high-water mark is recorded only once the batch is actually
    /// enqueued — a shed batch never occupied a queue slot, so it must not
    /// raise the reported mark. The depth counter is approximate at the
    /// edges: the worker decrements on receive (so the count includes the
    /// one batch being unpacked), and with K concurrent producers it also
    /// includes up to K−1 sibling batches that were counted but not yet
    /// enqueued — the recorded mark is therefore an upper estimate, clamped
    /// to the queue's physical capacity. A disconnected queue counts the
    /// batch as dropped when the runtime has shut down, and panics when it
    /// has not (a crashed worker — see [`IngestHandle::on_disconnected`]).
    fn dispatch(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        // Re-anchor the coarse clock at batch boundaries: the next batch's
        // stamps start at most one batch-fill behind the real clock.
        self.shared.clock.refresh();
        let batch = std::mem::replace(
            &mut self.buffers[shard],
            Vec::with_capacity(self.shared.batch_size),
        );
        // The live `ingest.events` counter advances a batch at a time — the
        // per-event ingest path stays free of shared-counter traffic.
        self.shared.events_ctr.add(batch.len() as u64);
        let new_depth = self.shared.depth[shard].fetch_add(1, Ordering::Relaxed) + 1;
        let high_water = new_depth.min(self.shared.queue_capacity.max(1));
        match self.shared.backpressure {
            BackpressurePolicy::Block => {
                match self.shared.shard_txs[shard].send(ShardMsg::Batch(batch)) {
                    Ok(()) => {
                        self.max_depth[shard] = self.max_depth[shard].max(high_water);
                    }
                    Err(std::sync::mpsc::SendError(ShardMsg::Batch(batch))) => {
                        self.on_disconnected(shard);
                        self.shared.depth[shard].fetch_sub(1, Ordering::Relaxed);
                        self.dropped[shard] += batch.len() as u64;
                        self.note_shed(shard, batch.len());
                    }
                    Err(_) => unreachable!("send returns the rejected batch"),
                }
            }
            BackpressurePolicy::DropNewest => {
                match self.shared.shard_txs[shard].try_send(ShardMsg::Batch(batch)) {
                    Ok(()) => {
                        self.max_depth[shard] = self.max_depth[shard].max(high_water);
                    }
                    Err(TrySendError::Full(ShardMsg::Batch(batch))) => {
                        self.shared.depth[shard].fetch_sub(1, Ordering::Relaxed);
                        self.dropped[shard] += batch.len() as u64;
                        self.note_shed(shard, batch.len());
                    }
                    Err(TrySendError::Disconnected(ShardMsg::Batch(batch))) => {
                        self.on_disconnected(shard);
                        self.shared.depth[shard].fetch_sub(1, Ordering::Relaxed);
                        self.dropped[shard] += batch.len() as u64;
                        self.note_shed(shard, batch.len());
                    }
                    Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                        unreachable!("try_send returns the rejected batch")
                    }
                }
            }
        }
    }

    /// Accounts a shed batch on the live `ingest.dropped` counter and the
    /// flight recorder — shedding is rare enough to be lifecycle-worthy.
    fn note_shed(&self, shard: usize, len: usize) {
        self.shared.dropped_ctr.add(len as u64);
        self.shared.flight.record(
            self.shared.clock.precise(),
            FlightKind::Drop,
            format!("shard={shard} shed={len}"),
        );
    }

    /// Flush + merge, shared by [`IngestHandle::finish`] and `Drop`.
    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush();
        let counters = ProducerCounters {
            events: self.events,
            dropped: std::mem::take(&mut self.dropped),
            max_queue_depth: std::mem::take(&mut self.max_depth),
            producers: usize::from(self.events > 0),
        };
        self.shared
            .merged
            .lock()
            .expect("producer counter lock")
            .merge(&counters);
    }
}

impl Clone for IngestHandle {
    /// A clone is a **new producer**: it shares the runtime's queues, clock
    /// and accumulator, but owns fresh empty buffers and zeroed counters.
    fn clone(&self) -> Self {
        IngestHandle::new(Arc::clone(&self.shared))
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for IngestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestHandle")
            .field("shards", &self.buffers.len())
            .field("events", &self.events)
            .field("finished", &self.finished)
            .finish()
    }
}
