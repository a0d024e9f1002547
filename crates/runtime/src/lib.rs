//! # swift-runtime
//!
//! A sharded, multi-core runtime for the SWIFT reproduction: the full
//! ingest → infer → reroute pipeline of a border router whose *dozens of
//! peering sessions* stream updates, under the paper's ~2 s reroute budget
//! (§3).
//!
//! ## Architecture
//!
//! ```text
//!                          ┌───────────────┐
//!   ingest() ───hash──────▶│ shard worker 0 │──┐
//!   one producer: a batch   │  SessionEngine │  │   accepted inferences
//!   buffer per shard and a  │  per session   │  │   + every event
//!   coarse ingest stamp     ├───────────────┤  ▼
//!                           │ shard worker 1 │─▶ ┌─────────────────┐
//!                           ├───────────────┤    │  applier thread  │
//!                           │      ...       │─▶ │  RoutingTable     │
//!                           └───────────────┘    │  TwoStageTable    │
//!                             bounded mpsc       │  rule installs +  │
//!                             (blocking)         │  resyncs, serial  │
//!                                                └─────────────────┘
//! ```
//!
//! * **One producer**: the caller's thread, through
//!   [`ShardedRuntime::ingest`], batches events per shard and sends straight
//!   into the shard queues. Events are stamped with a coarse clock reading,
//!   re-read every few hundred events and at every batch dispatch, instead
//!   of a per-event `Instant::now()`.
//! * **Sessions are sharded, not events**: every peer is hashed onto one of N
//!   worker shards, so one session's events are always processed in order by
//!   one [`SessionEngine`] — the per-session verdict stream is identical to
//!   the single-threaded [`SwiftRouter`]'s, regardless of shard count.
//! * **One applier**: the serialized pipeline half — the router-wide
//!   [`TwoStageTable`](swift_core::TwoStageTable), the routing state, rule
//!   installs in arrival order and resyncs — lives on one `swift-applier`
//!   thread that every shard worker feeds. An install is O(rules), a few
//!   microseconds whatever the table size, so there is nothing to
//!   parallelise; and the table cannot be cut by prefix range, because one
//!   session's predicted prefixes span every range and a reroute must cover
//!   them all. The applier folds its routing-RIB mirror the way every
//!   [`Applier`] does, a batch of events at a time, after installing that
//!   batch's accepted inferences.
//! * **Bounded queues everywhere**: a full shard queue blocks the ingest; a
//!   full applier queue blocks the shards. Nothing is shed.
//! * **Deterministic mode** ([`RuntimeConfig::deterministic`]): zero shards,
//!   no threads — a [`SwiftRouter`] driven on the caller's thread, plus the
//!   runtime's event count and registry counters.
//!
//! ## Concurrency rules and their holders
//!
//! The runtime's concurrency surface is small: four channel constructions,
//! no mutex, no flag and a few Relaxed counters. Each rule it relies on is
//! held by the compiler, clippy or a running test:
//!
//! * **Data channels are bounded; nothing is shed.** The root `clippy.toml`
//!   disallows `mpsc::channel` and `SyncSender::try_send`. The two unbounded
//!   control channels (the flush's barrier ack, the resync's reply) carry at
//!   most one message per outstanding call and say so in a reasoned
//!   `#[expect]`.
//! * **Every message is sent and handled.** The message enums are
//!   crate-private, so rustc's `dead_code` names a variant nobody sends, and
//!   `clippy::wildcard_enum_match_arm` with
//!   `clippy::match_wildcard_for_single_variants` (below) makes every
//!   `match` on them name each variant.
//! * **Atomic orderings are fixed by type.** Raw atomics are disallowed; the
//!   wrapper in the private `sync` module (and `swift_telemetry`'s
//!   `Counter` / `Gauge`) chooses the ordering once: Relaxed, since no atomic
//!   hands data between threads.
//! * **Barriers reach every shard; the applier acks at quorum, once.** The
//!   flush asserts that the ack it receives is its own barrier's, and
//!   `proptest_churn` runs every case under a deadline, on queues of
//!   capacity one too, so a lost barrier or a blocking-send cycle fails with
//!   the flight recorder's dump instead of hanging.
//! * **Nothing is lost.** A send that fails while the runtime is live
//!   panics, and [`RuntimeMetrics::dropped`] counts the ingested events no
//!   shard processed; the tests assert it reads 0 and that every event is
//!   counted through the shards.
//!
//! ## Example
//!
//! ```
//! use swift_bgp::RoutingTable;
//! use swift_core::{encoding::ReroutingPolicy, SwiftConfig};
//! use swift_runtime::{RuntimeConfig, ShardedRuntime};
//!
//! let runtime = ShardedRuntime::new(
//!     RuntimeConfig::sharded(2),
//!     SwiftConfig::default(),
//!     RoutingTable::new(),
//!     ReroutingPolicy::allow_all(),
//! );
//! let report = runtime.finish();
//! assert_eq!(report.actions.len(), 0);
//! ```

#![warn(clippy::unwrap_used)]
#![warn(clippy::wildcard_enum_match_arm)]
#![warn(clippy::match_wildcard_for_single_variants)]

mod sync;
mod worker;

use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swift_bgp::{Asn, ElementaryEvent, PeerId, Prefix, Route, RoutingTable};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::InferenceEngine;
use swift_core::metrics::LatencySummary;
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{RerouteAction, SwiftConfig, SwiftRouter};
use swift_telemetry::{
    Counter, FlightKind, FlightRecorder, Gauge, LogHistogram, Registry, StageHistograms,
    TraceSampler, TraceStamp,
};
use sync::QueueDepth;
use worker::{ApplierMsg, EpochClock, IngestEvent, KernelCounters, SessionRegistration, ShardMsg};

/// Configuration of the sharded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker shards. `0` runs the deterministic inline mode: no
    /// threads, events processed synchronously on the caller's thread.
    pub shards: usize,
    /// Events per batch handed to a shard (amortizes channel overhead).
    pub batch_size: usize,
    /// Bounded depth of each shard's ingest queue, in batches.
    pub queue_capacity: usize,
    /// Bounded depth of the applier's queue, in batches.
    pub applier_capacity: usize,
    /// Pipeline-trace sampling: every `trace_sample_interval`-th ingested
    /// event carries a [`swift_telemetry::TraceStamp`] through
    /// ingest → shard → applier, populating the per-stage histograms of
    /// [`RuntimeMetrics::stages`]. Rounded down to a power of two; `0`
    /// disables tracing. The repo benchmark's `trace.overhead` records what
    /// the default 1-in-1024 costs end to end.
    pub trace_sample_interval: usize,
}

/// Retained lifecycle events in the runtime's
/// [`swift_telemetry::FlightRecorder`] ring.
const FLIGHT_CAPACITY: usize = 256;

/// Events between two re-reads of the producer's coarse ingest stamp: the
/// ingest path stays a field read at the cost of up to one interval of
/// latency-stamp skew.
const CLOCK_REFRESH_INTERVAL: usize = 256;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::deterministic()
    }
}

impl RuntimeConfig {
    /// The deterministic single-thread mode: the whole pipeline runs inline,
    /// as a [`swift_core::SwiftRouter`].
    pub fn deterministic() -> Self {
        RuntimeConfig {
            shards: 0,
            batch_size: 256,
            queue_capacity: 64,
            applier_capacity: 256,
            trace_sample_interval: 1_024,
        }
    }

    /// A sharded runtime with `shards` worker threads (plus the applier).
    pub fn sharded(shards: usize) -> Self {
        RuntimeConfig {
            shards,
            ..RuntimeConfig::deterministic()
        }
    }
}

/// Per-shard counters reported by [`RuntimeReport::metrics`].
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Sessions homed on this shard (the larger of the initial and final
    /// count, under mid-run session churn).
    pub sessions: usize,
    /// Events processed.
    pub events: u64,
    /// Batches processed.
    pub batches: u64,
    /// High-water mark of the shard's ingest queue, in batches, observed at
    /// enqueue: it counts the batch the worker is unpacking too, so it is
    /// clamped to the queue's physical capacity.
    pub max_queue_depth: usize,
    /// Ingest → engine-processed latency summary (µs).
    pub event_latency: LatencySummary,
    /// Events per second over the shard's busy span.
    pub events_per_sec: f64,
}

/// The applier thread's counters, reported by [`RuntimeMetrics::per_applier`].
#[derive(Debug, Clone)]
pub struct ApplierShardMetrics {
    /// Applier index: always `0`, there is one applier (registry names
    /// `applier.0.*`).
    pub shard: usize,
    /// Events folded into the RIB mirror.
    pub events: u64,
    /// Batches received from the shard workers.
    pub batches: u64,
    /// Data-plane rule installs performed by accepted inferences.
    pub installs: u64,
    /// High-water mark of the applier's queue, in batches — an upper
    /// estimate under concurrent shard workers, clamped to the queue's
    /// physical capacity.
    pub max_queue_depth: usize,
    /// Accumulated time spent processing messages (not waiting on the
    /// queue) — where the serialization point sits.
    pub busy: Duration,
    /// Events folded per second of busy time.
    pub events_per_sec: f64,
    /// Rule installs per second of busy time.
    pub installs_per_sec: f64,
    /// High-water mark of the applier's unfolded-event buffer, in events,
    /// sampled at batch ends: below [`RoutingTable::APPLY_BATCH`].
    pub pending_high_water: usize,
    /// Resyncs served.
    pub resyncs: u64,
}

/// Aggregate runtime metrics.
#[derive(Debug, Clone)]
pub struct RuntimeMetrics {
    /// Worker shards used (`0` = deterministic inline mode).
    pub shards: usize,
    /// Events ingested.
    pub events: u64,
    /// Events ingested that no shard processed: `events` minus the sum of
    /// [`ShardMetrics::events`]. A send that fails while the runtime is live
    /// panics, so only a shard worker that died before the shutdown could
    /// lose events; `0` in deterministic inline mode.
    pub dropped: u64,
    /// First ingest → pipeline drained.
    pub wall: Duration,
    /// Processed events per second of wall time.
    pub events_per_sec: f64,
    /// Per-shard breakdown (empty in deterministic mode).
    pub per_shard: Vec<ShardMetrics>,
    /// The applier thread's row: exactly one in sharded mode, none in
    /// deterministic mode.
    pub per_applier: Vec<ApplierShardMetrics>,
    /// Ingest → engine-processed latency across all shards (µs), summarised
    /// from [`RuntimeMetrics::event_histogram`].
    pub event_latency: LatencySummary,
    /// Ingest → reroute-rules-installed latency (µs), one sample per accepted
    /// inference — the quantity the paper's ~2 s budget constrains.
    /// Summarised from [`RuntimeMetrics::reroute_histogram`].
    pub reroute_latency: LatencySummary,
    /// The full event-latency histogram (nanoseconds), merged exactly across
    /// shards — no ring eviction, bounded relative error (≤ 1/32).
    pub event_histogram: LogHistogram,
    /// The full reroute-latency histogram (nanoseconds).
    pub reroute_histogram: LogHistogram,
    /// Per-stage spans of the sampled traced events (nanoseconds), merged
    /// across shards and the applier: queue wait vs inference vs applier-queue
    /// wait vs install — the breakdown that attributes reroute latency.
    pub stages: StageHistograms,
}

/// The runtime's final state, returned by [`ShardedRuntime::finish`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Every reroute action, in the order the applier installed them.
    /// Per-session subsequences are deterministic; the global interleaving is
    /// scheduling-dependent (use [`RuntimeReport::actions_for`] to compare
    /// across runs or against the single-threaded router).
    pub actions: Vec<RerouteAction>,
    /// Metrics collected while the runtime ran.
    pub metrics: RuntimeMetrics,
    applier: Applier,
}

impl RuntimeReport {
    /// The serialized pipeline half (routing table, forwarding table) in its
    /// final state.
    pub fn applier(&self) -> &Applier {
        &self.applier
    }

    /// Distinct SWIFT-installed data-plane rules (claims on a shared rule
    /// count once — see
    /// [`TwoStageTable::swift_rule_count`](swift_core::TwoStageTable::swift_rule_count)).
    pub fn swift_rule_count(&self) -> usize {
        self.applier.forwarding().swift_rule_count()
    }

    /// Events buffered in the applier and not yet folded into its RIB mirror.
    pub fn pending_events(&self) -> usize {
        self.applier.pending_events()
    }

    /// The next-hop currently forwarding traffic for `prefix`.
    pub fn forwarding_next_hop(&self, prefix: &Prefix) -> Option<PeerId> {
        self.applier.forwarding_next_hop(prefix)
    }

    /// The reroute actions of one session, in acceptance order.
    pub fn actions_for(&self, peer: PeerId) -> Vec<&RerouteAction> {
        self.actions.iter().filter(|a| a.session == peer).collect()
    }
}

/// The state behind a running sharded instance: the threads' channel ends
/// and the one producer's state.
struct Sharded {
    shard_txs: Vec<SyncSender<ShardMsg>>,
    shard_handles: Vec<JoinHandle<worker::ShardWorkerReport>>,
    applier_tx: SyncSender<ApplierMsg>,
    applier_handle: JoinHandle<worker::ApplierReport>,
    /// The applier queue's high-water gauge (registry gauge
    /// `applier.0.queue.high`), shared with the senders.
    applier_high: Gauge,
    barrier_rx: Receiver<u64>,
    next_barrier: u64,
    /// Swift configuration, for seeding the engines of mid-run registrations.
    swift: SwiftConfig,
    clock: EpochClock,
    /// Per-shard batch buffers.
    buffers: Vec<Vec<IngestEvent>>,
    batch_size: usize,
    queue_capacity: usize,
    /// Per-shard batches in the queue (shared with the workers, which count
    /// a batch out on receipt).
    depth: Vec<QueueDepth>,
    /// Per-shard queue high-water, in batches, observed at enqueue.
    max_depth: Vec<usize>,
    /// 1-in-N pipeline-trace sampler.
    sampler: TraceSampler,
    /// The coarse ingest stamp (nanoseconds on `clock`), re-read every
    /// [`CLOCK_REFRESH_INTERVAL`] events and at every dispatch and flush.
    coarse: u64,
    /// Events stamped since the last re-read.
    since_refresh: usize,
    /// Registry counter `ingest.events`, bumped a batch at a time at
    /// dispatch (the per-event path stays counter-free).
    events_ctr: Counter,
}

impl Sharded {
    /// Stamps one event and buffers it toward its session's home shard,
    /// dispatching the shard's batch when full.
    fn ingest(&mut self, peer: PeerId, event: ElementaryEvent) {
        if self.since_refresh == 0 {
            self.coarse = self.clock.precise();
        }
        self.since_refresh += 1;
        if self.since_refresh >= CLOCK_REFRESH_INTERVAL {
            self.since_refresh = 0;
        }
        let shard = shard_of(peer, self.buffers.len());
        // Sampled tracing: the 1-in-N hit pays one precise clock read for its
        // stamp; the other N−1 events pay a masked counter check.
        let trace = if self.sampler.sample() {
            Some(TraceStamp::at(self.clock.precise()))
        } else {
            None
        };
        self.buffers[shard].push(IngestEvent {
            peer,
            event,
            ingest: self.coarse,
            trace,
        });
        if self.buffers[shard].len() >= self.batch_size {
            assert!(self.dispatch(shard), "{}", worker_gone(shard));
        }
    }

    /// Sends shard `shard`'s buffered batch, blocking while its queue is
    /// full; `false` if the shard worker is gone. The queue high-water is
    /// recorded once the batch is enqueued.
    fn dispatch(&mut self, shard: usize) -> bool {
        if self.buffers[shard].is_empty() {
            return true;
        }
        // Re-anchor the coarse stamp at batch boundaries: the next batch's
        // stamps start at most one batch-fill behind the real clock.
        self.coarse = self.clock.precise();
        let batch = std::mem::replace(
            &mut self.buffers[shard],
            Vec::with_capacity(self.batch_size),
        );
        self.events_ctr.add(batch.len() as u64);
        let high_water = self.depth[shard].inc().min(self.queue_capacity.max(1));
        if self.shard_txs[shard].send(ShardMsg::Batch(batch)).is_err() {
            self.depth[shard].dec();
            return false;
        }
        self.max_depth[shard] = self.max_depth[shard].max(high_water);
        true
    }

    /// Sends a message to shard `shard` in-band with its events: the
    /// shard's buffered batch goes first.
    fn send_in_band(&mut self, shard: usize, msg: ShardMsg) {
        let sent = self.dispatch(shard) && self.shard_txs[shard].send(msg).is_ok();
        assert!(sent, "{}", worker_gone(shard));
    }
}

/// `ingest` on a runtime that has shut down, which only `finish` and `Drop`
/// do. Takes the event so that every arm of `ingest` moves it (see there).
#[cold]
fn shut_down(_event: ElementaryEvent) {
    unreachable!("the runtime shut down: `finish` and `Drop` take the mode");
}

/// The panic message of a send that finds a shard worker gone while the
/// runtime is live: shedding silently there would lose events and let a
/// long run grind on against a dead shard.
fn worker_gone(shard: usize) -> String {
    format!("shard {shard} worker thread is gone while the runtime is live")
}

/// The state behind a deterministic inline instance.
struct Inline {
    router: SwiftRouter,
    /// Registry counter `ingest.events` — one relaxed add per inline event,
    /// so live snapshots work in both modes.
    events_ctr: Counter,
    /// Kernel-dispatch and scratch counters, fed the router's running
    /// statistics at each flush, resync and finish (the same global names
    /// the shard workers feed).
    kernels: KernelCounters,
}

impl Inline {
    /// Adds the router's kernel statistics since the last call to the
    /// registry.
    fn record_kernel_stats(&mut self) {
        self.kernels.record(self.router.take_kernel_stats());
    }
}

enum Mode {
    Inline(Box<Inline>),
    Sharded(Box<Sharded>),
}

/// The sharded multi-session runtime: owns the ingest → infer → reroute
/// pipeline for every peering session of one SWIFTED router.
///
/// Construct with [`ShardedRuntime::new`], feed events with
/// [`ShardedRuntime::ingest`] / [`ShardedRuntime::ingest_stream`], and
/// retrieve the final state with [`ShardedRuntime::finish`]. Dropping the
/// runtime without calling `finish` shuts the threads down cleanly but
/// discards the report.
pub struct ShardedRuntime {
    config: RuntimeConfig,
    mode: Option<Mode>,
    /// Events ingested.
    events: u64,
    /// The first ingest: the run's wall-clock start.
    started: Option<Instant>,
    /// The live metrics registry: worker counters and gauges all live here,
    /// so [`ShardedRuntime::registry`] snapshots never stop the run.
    registry: Registry,
    /// Ring of recent lifecycle events, for a failing run's post-mortem.
    flight: FlightRecorder,
    /// The runtime's clock (also in inline mode, so flight events and
    /// snapshots carry comparable timestamps).
    clock: EpochClock,
}

impl ShardedRuntime {
    /// Builds the runtime: seals `table` ([`RoutingTable::seal`]), seeds one
    /// engine per peering session of it (a full feed's shares the table's
    /// prefix dictionary), hashes sessions onto shards and spawns the worker
    /// and applier threads — or builds a [`SwiftRouter`] in deterministic
    /// mode.
    pub fn new(
        config: RuntimeConfig,
        swift: SwiftConfig,
        mut table: RoutingTable,
        policy: ReroutingPolicy,
    ) -> Self {
        let registry = Registry::new();
        let clock = EpochClock::new();
        let mode = if config.shards == 0 {
            Mode::Inline(Box::new(Inline {
                router: SwiftRouter::new(swift, table, policy),
                events_ctr: registry.counter("ingest.events"),
                kernels: KernelCounters::from_registry(&registry),
            }))
        } else {
            table.seal();
            let engines = session_engines(&swift, &table);
            Mode::Sharded(Box::new(spawn_sharded(
                &config, &registry, clock, engines, swift, table, policy,
            )))
        };
        ShardedRuntime {
            config,
            mode: Some(mode),
            events: 0,
            started: None,
            registry,
            flight: FlightRecorder::with_capacity(FLIGHT_CAPACITY),
            clock,
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// `true` if the runtime runs inline (no threads).
    pub fn is_deterministic(&self) -> bool {
        self.config.shards == 0
    }

    /// The live metrics registry. The returned handle shares storage with
    /// the runtime's workers, so [`swift_telemetry::Registry::snapshot`] can
    /// be taken from any thread at any time without stopping the run —
    /// `ingest.events`, `shard.N.events/batches`, `applier.0.events/batches/
    /// installs/resyncs` and `inference.kernel.*` / `inference.scratch.*`
    /// counters plus `applier.0.queue.high` / `applier.0.pending.high`
    /// gauges.
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// The runtime's lifecycle flight recorder: session register/teardown,
    /// barriers, resyncs and shutdown, in a fixed-size ring.
    /// [`FlightRecorder::dump`] renders the recent history when a run fails.
    pub fn flight(&self) -> FlightRecorder {
        self.flight.clone()
    }

    /// The inference engine of `peer`'s session in deterministic mode; `None`
    /// for a session without one, and always in sharded mode, where each
    /// engine lives on its shard's thread.
    pub fn engine(&self, peer: PeerId) -> Option<&InferenceEngine> {
        match self.mode.as_ref()? {
            Mode::Inline(inline) => inline.router.engine(peer),
            Mode::Sharded(_) => None,
        }
    }

    /// The applier in deterministic mode; `None` in sharded mode, where it
    /// lives on its own thread ([`RuntimeReport::applier`] has it after
    /// [`ShardedRuntime::finish`]).
    pub fn applier(&self) -> Option<&Applier> {
        match self.mode.as_ref()? {
            Mode::Inline(inline) => Some(inline.router.applier()),
            Mode::Sharded(_) => None,
        }
    }

    /// Ingests one per-prefix event received on the session with `peer`.
    ///
    /// Sharded mode: the event is stamped and buffered toward the session's
    /// home shard, and dispatched a batch at a time; rule installs happen
    /// asynchronously on the applier thread. Deterministic mode: the event
    /// is processed to completion before returning.
    ///
    /// # Panics
    ///
    /// If a shard worker died while the runtime is live.
    pub fn ingest(&mut self, peer: PeerId, event: ElementaryEvent) {
        // Every arm moves the event into a call before anything else runs,
        // so the callee reads the caller's copy. A call in front of the move
        // (`as_mut`, `expect`, a clock read) makes rustc copy the 64-byte
        // event first, and that copy cost the inline bursts 10–20 % of
        // their throughput.
        match &mut self.mode {
            Some(Mode::Inline(inline)) => {
                inline.router.handle_event(peer, event);
                inline.events_ctr.inc();
            }
            Some(Mode::Sharded(sharded)) => sharded.ingest(peer, event),
            None => shut_down(event),
        }
        self.events += 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "one-time run-start stamp: a field check per event, not a per-event clock read"
        )]
        self.started.get_or_insert_with(Instant::now);
    }

    /// Ingests a whole multi-session stream of `(peer, event)` pairs.
    pub fn ingest_stream<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (PeerId, ElementaryEvent)>,
    {
        for (peer, event) in events {
            self.ingest(peer, event);
        }
    }

    /// Registers (or re-registers) a peering session while the runtime is
    /// live: a fresh [`SessionEngine`] seeded from `routes`
    /// ([`SessionEngine::from_routes`]) is installed on the session's home
    /// shard, and the applier adds the peer and its routes to the serialized
    /// routing state (retagging the touched stage-1 entries).
    ///
    /// The operation is ordered **in-band** with [`ShardedRuntime::ingest`]:
    /// events ingested on this session before the call are processed by the
    /// old engine (if any), events after it by the new one — in both inline
    /// and sharded mode, which is what keeps per-session decisions identical
    /// across modes under churn.
    pub fn register_session<I>(&mut self, peer: PeerId, asn: Asn, routes: I)
    where
        I: IntoIterator<Item = (Prefix, Route)>,
    {
        let routes: Vec<(Prefix, Route)> = routes.into_iter().collect();
        self.flight.record(
            self.clock.precise(),
            FlightKind::Register,
            format!("peer={} asn={} routes={}", peer.0, asn.0, routes.len()),
        );
        match self.mode.as_mut().expect("runtime live") {
            Mode::Inline(inline) => {
                inline.router.register_session(peer, asn, routes);
            }
            Mode::Sharded(sharded) => {
                let engine = SessionEngine::from_routes(peer, &sharded.swift, &routes);
                let registration = SessionRegistration {
                    peer,
                    asn,
                    engine,
                    routes,
                };
                let shard = shard_of(peer, sharded.shard_txs.len());
                sharded.send_in_band(shard, ShardMsg::Register(Box::new(registration)));
            }
        }
    }

    /// Tears a peering session down while the runtime is live: the session's
    /// engine is dropped on its home shard and the applier removes the
    /// departed peer's SWIFT rules and RIB-mirror routes (retagging the
    /// prefixes it served). The peer stays known, so it can re-establish via
    /// [`ShardedRuntime::register_session`].
    ///
    /// Ordered in-band with `ingest`, like `register_session`. Events
    /// ingested for the session after this call (and before a re-register)
    /// flow through without an engine, exactly like an unknown session's.
    pub fn teardown_session(&mut self, peer: PeerId) {
        self.flight.record(
            self.clock.precise(),
            FlightKind::Teardown,
            format!("peer={}", peer.0),
        );
        match self.mode.as_mut().expect("runtime live") {
            Mode::Inline(inline) => {
                inline.router.teardown_session(peer);
            }
            Mode::Sharded(sharded) => {
                let shard = shard_of(peer, sharded.shard_txs.len());
                sharded.send_in_band(shard, ShardMsg::Teardown(peer));
            }
        }
    }

    /// Dispatches the buffered batches and blocks until all shards *and* the
    /// applier have fully processed everything ingested so far.
    pub fn flush(&mut self) {
        match self.mode.as_mut().expect("runtime live") {
            Mode::Inline(inline) => inline.record_kernel_stats(),
            Mode::Sharded(sharded) => {
                let seq = sharded.next_barrier;
                sharded.next_barrier += 1;
                // Recorded before the wait, so a flush that never returns
                // leaves its barrier in a post-mortem dump.
                self.flight.record(
                    self.clock.precise(),
                    FlightKind::Barrier,
                    format!("seq={seq} sent to {} shards", sharded.shard_txs.len()),
                );
                for shard in 0..sharded.shard_txs.len() {
                    sharded.send_in_band(shard, ShardMsg::Barrier(seq));
                }
                // A flush marks a pipeline quiet point (rendezvous, resync):
                // re-anchor the coarse stamp, so events stamped after a long
                // pause don't inherit a pre-pause reading and inflate the
                // latency percentiles by the pause.
                sharded.coarse = sharded.clock.precise();
                sharded.since_refresh = 0;
                // Each shard worker forwards the barrier to the applier, which
                // acks once all workers' copies arrived. `&mut self` means no
                // other barrier is outstanding: the one ack must be ours.
                let acked = sharded.barrier_rx.recv().expect("applier thread alive");
                assert_eq!(acked, seq, "the applier acked another barrier");
                self.flight.record(
                    self.clock.precise(),
                    FlightKind::Barrier,
                    format!("seq={seq} complete"),
                );
            }
        }
    }

    /// Called once BGP has reconverged: flushes the pipeline, then runs the
    /// (incremental) resync on the applier thread. Returns the number of
    /// SWIFT rules removed.
    pub fn resync_after_convergence(&mut self) -> usize {
        self.flush();
        let removed = match self.mode.as_mut().expect("runtime live") {
            Mode::Inline(inline) => inline.router.resync_after_convergence(),
            Mode::Sharded(sharded) => {
                // The pipeline is already drained by the flush, so the
                // rendezvous is just the applier's reply.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one message in flight per outstanding flush/resync"
                )]
                let (reply_tx, reply_rx) = mpsc::channel();
                sharded
                    .applier_tx
                    .send(ApplierMsg::Resync(reply_tx))
                    .expect("applier thread alive");
                reply_rx.recv().expect("applier replies")
            }
        };
        self.flight.record(
            self.clock.precise(),
            FlightKind::Resync,
            format!("removed={removed}"),
        );
        removed
    }

    /// Shuts the pipeline down (dispatching everything still buffered) and
    /// returns the final actions, applier state and metrics.
    ///
    /// # Panics
    ///
    /// If a shard worker or the applier thread panicked.
    pub fn finish(mut self) -> RuntimeReport {
        (self.shutdown().expect("first shutdown")).expect("the runtime's threads exit cleanly")
    }

    /// Internal teardown shared by [`ShardedRuntime::finish`] and `Drop`,
    /// which must not panic: `Err` if a runtime thread panicked.
    fn shutdown(&mut self) -> Option<std::thread::Result<RuntimeReport>> {
        let mode = self.mode.take()?;
        self.flight
            .record(self.clock.precise(), FlightKind::Shutdown, "runtime finish");
        let joined = match mode {
            Mode::Inline(mut inline) => {
                inline.record_kernel_stats();
                let mut applier = inline.router.into_applier();
                // The last partial batch folds: the report's mirror is current.
                applier.sync_rib();
                Ok((applier, self.inline_metrics()))
            }
            Mode::Sharded(sharded) => self.join_sharded(*sharded),
        };
        Some(joined.map(|(applier, metrics)| RuntimeReport {
            actions: applier.actions().to_vec(),
            metrics,
            applier,
        }))
    }

    /// The run's wall time: first ingest → now.
    fn wall(&self) -> Duration {
        self.started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO)
    }

    /// An inline run's metrics. Inline processing has no queueing, so no
    /// latency samples exist: the empty histograms honestly summarise to
    /// count 0 rather than fabricating zeros.
    fn inline_metrics(&self) -> RuntimeMetrics {
        let wall = self.wall();
        RuntimeMetrics {
            shards: 0,
            events: self.events,
            dropped: 0,
            wall,
            events_per_sec: per_second(self.events, wall),
            per_shard: Vec::new(),
            per_applier: Vec::new(),
            event_latency: latency_summary(&LogHistogram::new()),
            reroute_latency: latency_summary(&LogHistogram::new()),
            event_histogram: LogHistogram::new(),
            reroute_histogram: LogHistogram::new(),
            stages: StageHistograms::new(),
        }
    }

    /// Dispatches the last batches, stops the threads and merges their
    /// reports; `Err` if a thread panicked. A send that fails here is
    /// tolerated: a worker that died loses its events, and
    /// [`RuntimeMetrics::dropped`] counts them.
    fn join_sharded(&self, mut sharded: Sharded) -> std::thread::Result<(Applier, RuntimeMetrics)> {
        for shard in 0..sharded.shard_txs.len() {
            if sharded.dispatch(shard) {
                let _ = sharded.shard_txs[shard].send(ShardMsg::Shutdown);
            }
        }
        let mut shard_reports = Vec::with_capacity(sharded.shard_handles.len());
        for handle in sharded.shard_handles {
            shard_reports.push(handle.join()?);
        }
        drop(sharded.applier_tx);
        let applied = sharded.applier_handle.join()?;
        let wall = self.wall();

        let mut merged_latency = LogHistogram::new();
        let mut merged_stages = StageHistograms::new();
        let per_shard: Vec<ShardMetrics> = shard_reports
            .iter()
            .map(|r| {
                merged_latency.merge(&r.latency);
                merged_stages.merge(&r.stages);
                ShardMetrics {
                    shard: r.shard,
                    sessions: r.sessions,
                    events: r.events,
                    batches: r.batches,
                    max_queue_depth: sharded.max_depth[r.shard],
                    event_latency: latency_summary(&r.latency),
                    events_per_sec: per_second(r.events, r.busy),
                }
            })
            .collect();
        let processed: u64 = per_shard.iter().map(|s| s.events).sum();
        merged_stages.merge(&applied.stages);
        let per_applier = vec![ApplierShardMetrics {
            shard: 0,
            events: applied.events,
            batches: applied.batches,
            installs: applied.installs,
            max_queue_depth: sharded.applier_high.get() as usize,
            busy: applied.busy,
            events_per_sec: per_second(applied.events, applied.busy),
            installs_per_sec: per_second(applied.installs, applied.busy),
            pending_high_water: applied.pending_high_water,
            resyncs: applied.resyncs,
        }];
        let metrics = RuntimeMetrics {
            shards: self.config.shards,
            events: self.events,
            dropped: self.events.saturating_sub(processed),
            wall,
            events_per_sec: per_second(processed, wall),
            per_shard,
            per_applier,
            event_latency: latency_summary(&merged_latency),
            reroute_latency: latency_summary(&applied.reroute_latency),
            event_histogram: merged_latency,
            reroute_histogram: applied.reroute_latency,
            stages: merged_stages,
        };
        Ok((applied.applier, metrics))
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Spawns the applier and shard worker threads, each shard owning the
/// engines of the sessions hashed onto it.
fn spawn_sharded(
    config: &RuntimeConfig,
    registry: &Registry,
    clock: EpochClock,
    engines: BTreeMap<PeerId, SessionEngine>,
    swift: SwiftConfig,
    table: RoutingTable,
    policy: ReroutingPolicy,
) -> Sharded {
    let shards = config.shards;
    let mut partitions: Vec<BTreeMap<PeerId, SessionEngine>> =
        (0..shards).map(|_| BTreeMap::new()).collect();
    for (peer, engine) in engines {
        partitions[shard_of(peer, shards)].insert(peer, engine);
    }

    let applier_capacity = config.applier_capacity.max(1);
    #[expect(
        clippy::disallowed_methods,
        reason = "one message in flight per outstanding flush/resync"
    )]
    let (barrier_tx, barrier_rx) = mpsc::channel();
    let (applier_tx, applier_rx) = mpsc::sync_channel(applier_capacity);
    let applier_depth = QueueDepth::default();
    let applier_high = registry.gauge("applier.0.queue.high");
    let applier_worker = worker::ApplierWorker {
        applier: Applier::new(swift.clone(), table, policy),
        rx: applier_rx,
        barrier_tx,
        workers: shards,
        clock,
        depth: applier_depth.clone(),
        events_ctr: registry.counter("applier.0.events"),
        batches_ctr: registry.counter("applier.0.batches"),
        installs_ctr: registry.counter("applier.0.installs"),
        resyncs_ctr: registry.counter("applier.0.resyncs"),
        pending_gauge: registry.gauge("applier.0.pending.high"),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the runtime owns the applier thread"
    )]
    let applier_handle = std::thread::Builder::new()
        .name("swift-applier".into())
        .spawn(move || worker::applier_loop(applier_worker))
        .expect("spawn applier thread");

    let mut shard_txs = Vec::with_capacity(shards);
    let mut shard_handles = Vec::with_capacity(shards);
    let mut depth = Vec::with_capacity(shards);
    for (i, engines) in partitions.into_iter().enumerate() {
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
        let shard_depth = QueueDepth::default();
        let worker = worker::ShardWorker {
            shard: i,
            engines,
            rx,
            applier: worker::ApplierLink {
                tx: applier_tx.clone(),
                depth: applier_depth.clone(),
                high: applier_high.clone(),
            },
            applier_capacity,
            depth: shard_depth.clone(),
            clock,
            events_ctr: registry.counter(&format!("shard.{i}.events")),
            batches_ctr: registry.counter(&format!("shard.{i}.batches")),
            kernels: KernelCounters::from_registry(registry),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the runtime owns the shard worker threads"
        )]
        let handle = std::thread::Builder::new()
            .name(format!("swift-shard-{i}"))
            .spawn(move || worker::shard_loop(worker))
            .expect("spawn shard thread");
        shard_txs.push(tx);
        shard_handles.push(handle);
        depth.push(shard_depth);
    }

    let batch_size = config.batch_size.max(1);
    Sharded {
        shard_txs,
        shard_handles,
        applier_tx,
        applier_handle,
        applier_high,
        barrier_rx,
        next_barrier: 0,
        swift,
        clock,
        buffers: (0..shards)
            .map(|_| Vec::with_capacity(batch_size))
            .collect(),
        batch_size,
        queue_capacity: config.queue_capacity,
        depth,
        max_depth: vec![0; shards],
        sampler: TraceSampler::every(config.trace_sample_interval),
        coarse: 0,
        since_refresh: 0,
        events_ctr: registry.counter("ingest.events"),
    }
}

/// `n` per second of `span`; `0` for an empty span.
fn per_second(n: u64, span: Duration) -> f64 {
    let secs = span.as_secs_f64();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// Summarises a nanosecond-valued latency histogram in the microseconds the
/// runtime has always reported ([`LatencySummary`] keeps its shape; only the
/// source changed from an evicting sample ring to an exact-merge histogram).
fn latency_summary(h: &LogHistogram) -> LatencySummary {
    let s = h.summary().scaled_down(1_000);
    LatencySummary {
        count: s.count,
        p50: s.p50,
        p99: s.p99,
        max: s.max,
        mean: s.mean,
    }
}

/// The home shard of a session: multiplicative (Fibonacci) hash of the peer
/// id, folded onto the shard count. Stable across runs by construction.
fn shard_of(peer: PeerId, shards: usize) -> usize {
    let h = (u64::from(peer.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) % shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsPath, Asn, Prefix, Route, RouteAttributes};
    use swift_core::{EncodingConfig, InferenceConfig};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn config() -> SwiftConfig {
        SwiftConfig {
            inference: InferenceConfig {
                burst_start_threshold: 50,
                burst_stop_threshold: 2,
                triggering_threshold: 100,
                use_history: false,
                ..Default::default()
            },
            encoding: EncodingConfig {
                min_prefixes_per_link: 50,
                ..Default::default()
            },
        }
    }

    /// `peers` sessions, each announcing `n` prefixes behind its own remote
    /// link, plus one shared backup peer with disjoint paths.
    fn multi_table(peers: u32, n: u32) -> RoutingTable {
        let mut t = RoutingTable::new();
        let backup = PeerId(1_000);
        t.add_peer(backup, Asn(1_000));
        for s in 0..peers {
            let peer = PeerId(s + 1);
            t.add_peer(peer, Asn(s + 1));
            for i in 0..n {
                let idx = s * n + i;
                let mut attrs =
                    RouteAttributes::from_path(AsPath::new([s + 1, 10_000 + s, 20_000 + s]));
                attrs.local_pref = Some(200);
                t.announce(peer, p(idx), Route::new(peer, attrs, 0));
                t.announce(
                    backup,
                    p(idx),
                    Route::new(
                        backup,
                        RouteAttributes::from_path(AsPath::new([1_000u32, 30_000 + idx % 7])),
                        0,
                    ),
                );
            }
        }
        t
    }

    /// A withdrawal burst on every session, events interleaved round-robin.
    fn interleaved_bursts(peers: u32, n: u32) -> Vec<(PeerId, ElementaryEvent)> {
        let mut events = Vec::new();
        for i in 0..n {
            for s in 0..peers {
                events.push((
                    PeerId(s + 1),
                    ElementaryEvent::Withdraw {
                        timestamp: u64::from(i * peers + s) * 1_000,
                        prefix: p(s * n + i),
                    },
                ));
            }
        }
        events
    }

    fn run(shards: usize, peers: u32, n: u32) -> RuntimeReport {
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig {
                shards,
                batch_size: 16,
                ..RuntimeConfig::sharded(shards)
            },
            config(),
            multi_table(peers, n),
            ReroutingPolicy::allow_all(),
        );
        runtime.ingest_stream(interleaved_bursts(peers, n));
        runtime.finish()
    }

    #[test]
    fn deterministic_mode_matches_swift_router() {
        let peers = 3u32;
        let n = 200u32;
        let mut router = swift_core::SwiftRouter::new(
            config(),
            multi_table(peers, n),
            ReroutingPolicy::allow_all(),
        );
        for (peer, ev) in interleaved_bursts(peers, n) {
            router.handle_event(peer, ev);
        }
        let report = run(0, peers, n);
        assert_eq!(report.actions.len(), router.actions().len());
        for (a, b) in report.actions.iter().zip(router.actions()) {
            assert_eq!(a.session, b.session);
            assert_eq!(a.time, b.time);
            assert_eq!(a.links, b.links);
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.rules_installed, b.rules_installed);
        }
        assert_eq!(report.metrics.shards, 0);
        assert_eq!(report.metrics.events, u64::from(peers * n));
    }

    #[test]
    fn sharded_mode_reaches_the_same_per_session_decisions() {
        let peers = 4u32;
        let n = 200u32;
        let baseline = run(0, peers, n);
        for shards in [1usize, 2, 3] {
            let report = run(shards, peers, n);
            assert_eq!(report.metrics.shards, shards);
            assert_eq!(report.metrics.dropped, 0);
            assert_eq!(
                report.actions.len(),
                baseline.actions.len(),
                "{shards} shards"
            );
            for s in 0..peers {
                let peer = PeerId(s + 1);
                let got = report.actions_for(peer);
                let want = baseline.actions_for(peer);
                assert_eq!(got.len(), want.len(), "session {peer:?}");
                for (a, b) in got.iter().zip(want.iter()) {
                    assert_eq!(a.time, b.time);
                    assert_eq!(a.links, b.links);
                    assert_eq!(a.predicted, b.predicted);
                    assert_eq!(a.rules_installed, b.rules_installed);
                }
            }
            // The data plane ends in the same state: same rules, and rerouted
            // traffic resolves to the same backup next-hop.
            assert!(baseline.swift_rule_count() > 0, "the bursts install rules");
            assert_eq!(report.swift_rule_count(), baseline.swift_rule_count());
            for i in (0..peers * n).step_by(37) {
                assert_eq!(
                    report.forwarding_next_hop(&p(i)),
                    baseline.forwarding_next_hop(&p(i)),
                    "next hop for {:?} @ {shards} shards",
                    p(i)
                );
            }
            // Every event reached a shard and the applier.
            let shard_events: u64 = report.metrics.per_shard.iter().map(|m| m.events).sum();
            assert_eq!(shard_events, u64::from(peers * n));
            // Every session landed somewhere (and the shared backup peer too).
            let sessions: usize = report.metrics.per_shard.iter().map(|m| m.sessions).sum();
            assert_eq!(sessions, peers as usize + 1);
        }
    }

    #[test]
    fn flush_drains_and_resync_clears_rules() {
        let peers = 2u32;
        let n = 200u32;
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig {
                batch_size: 8,
                ..RuntimeConfig::sharded(2)
            },
            config(),
            multi_table(peers, n),
            ReroutingPolicy::allow_all(),
        );
        runtime.ingest_stream(interleaved_bursts(peers, n));
        runtime.flush();
        let removed = runtime.resync_after_convergence();
        assert!(removed > 0, "the bursts installed reroute rules");
        let report = runtime.finish();
        assert_eq!(report.swift_rule_count(), 0);
        assert_eq!(report.pending_events(), 0, "resync synced the RIB");
        assert_eq!(report.actions.len(), peers as usize);
        assert_eq!(report.metrics.per_applier[0].resyncs, 1);
    }

    #[test]
    fn flush_on_empty_runtime_and_double_flush() {
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig::sharded(2),
            config(),
            multi_table(2, 60),
            ReroutingPolicy::allow_all(),
        );
        // Nothing ingested: the barrier round-trips through every shard and
        // the applier without deadlock.
        runtime.flush();
        // Barriers are sequenced, so immediate re-flush (nothing in between)
        // and flush-after-work both complete.
        runtime.flush();
        runtime.ingest_stream(interleaved_bursts(2, 60));
        runtime.flush();
        runtime.flush();
        let report = runtime.finish();
        assert_eq!(report.metrics.events, 120);
        assert_eq!(report.metrics.dropped, 0);
    }

    /// Drives a two-burst run with a mid-run teardown + re-register of peer 2
    /// between the bursts.
    fn run_with_churn(shards: usize, peers: u32, n: u32) -> RuntimeReport {
        let table = multi_table(peers, n);
        let routes: Vec<(Prefix, Route)> = table
            .adj_rib_in(PeerId(2))
            .unwrap()
            .iter()
            .map(|(prefix, route)| (*prefix, route.clone()))
            .collect();
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig {
                batch_size: 16,
                ..RuntimeConfig::sharded(shards)
            },
            config(),
            table,
            ReroutingPolicy::allow_all(),
        );
        runtime.ingest_stream(interleaved_bursts(peers, n));
        runtime.resync_after_convergence();
        runtime.teardown_session(PeerId(2));
        runtime.register_session(PeerId(2), Asn(2), routes);
        // Second burst on the re-registered session only: its fresh engine
        // sees the full RIB again and must re-infer.
        runtime.ingest_stream((0..n).map(|i| {
            (
                PeerId(2),
                ElementaryEvent::Withdraw {
                    timestamp: 1_000_000_000 + u64::from(i) * 1_000,
                    prefix: p(n + i),
                },
            )
        }));
        runtime.finish()
    }

    #[test]
    fn session_churn_reaches_identical_decisions_across_modes() {
        let peers = 3u32;
        let n = 200u32;
        let baseline = run_with_churn(0, peers, n);
        // Both lives of peer 2 produced a reroute: one per burst.
        assert_eq!(
            baseline.actions_for(PeerId(2)).len(),
            2,
            "one reroute per life of the flapped session"
        );
        for shards in [1usize, 2, 3] {
            let report = run_with_churn(shards, peers, n);
            assert_eq!(report.metrics.dropped, 0);
            for s in 0..peers {
                let peer = PeerId(s + 1);
                let got = report.actions_for(peer);
                let want = baseline.actions_for(peer);
                assert_eq!(got.len(), want.len(), "session {peer:?} @ {shards} shards");
                for (a, b) in got.iter().zip(want.iter()) {
                    assert_eq!(a.time, b.time);
                    assert_eq!(a.links, b.links);
                    assert_eq!(a.predicted, b.predicted);
                    assert_eq!(a.rules_installed, b.rules_installed);
                }
            }
            assert_eq!(report.swift_rule_count(), baseline.swift_rule_count());
        }
    }

    #[test]
    fn teardown_cleans_rules_and_rib_mirror() {
        let peers = 2u32;
        let n = 200u32;
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig::deterministic(),
            config(),
            multi_table(peers, n),
            ReroutingPolicy::allow_all(),
        );
        runtime.ingest_stream(interleaved_bursts(peers, n));
        let report_rules = {
            // Both sessions' bursts installed rules; tearing peer 2 down must
            // remove exactly its rules and routes while peer 1's survive.
            runtime.teardown_session(PeerId(2));
            let report = runtime.finish();
            assert_eq!(
                report
                    .applier()
                    .table()
                    .adj_rib_in(PeerId(2))
                    .unwrap()
                    .len(),
                0,
                "departed peer's RIB mirror is empty"
            );
            // The shared backup peer's routes were never withdrawn — a
            // teardown of peer 2 must not touch them.
            assert_eq!(
                report
                    .applier()
                    .table()
                    .adj_rib_in(PeerId(1_000))
                    .unwrap()
                    .len(),
                (peers * n) as usize,
                "surviving peers' RIB mirrors are intact"
            );
            assert_eq!(report.actions.len(), peers as usize, "history is kept");
            report.applier().forwarding().swift_rule_count()
        };
        assert!(report_rules > 0, "peer 1's reroute rules survive");
    }

    /// The peers, and every id's prefix and candidate routes, in id order.
    type MirrorState = (Vec<(PeerId, Asn)>, Vec<(Prefix, Vec<Route>)>);

    fn mirror_state(table: &RoutingTable) -> MirrorState {
        let ids = table.ids().map(|id| {
            let routes = table.candidates_by_id(id).map(|r| r.to_route()).collect();
            (table.prefix_of(id), routes)
        });
        (table.peers().collect(), ids.collect())
    }

    /// With a partial batch pending, each sync point of the inline runtime —
    /// teardown, registration, resync, `finish` — folds it first: after each
    /// one the mirror equals a table fed the same events one `apply_owned`
    /// at a time.
    #[test]
    fn inline_sync_points_fold_the_pending_partial_batch() {
        let n = 40u32;
        let table = multi_table(2, n);
        let routes: Vec<(Prefix, Route)> = table
            .adj_rib_in(PeerId(2))
            .unwrap()
            .iter()
            .map(|(prefix, route)| (*prefix, route.clone()))
            .collect();
        let mut reference = table.clone();
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig::deterministic(),
            config(),
            table,
            ReroutingPolicy::allow_all(),
        );
        let attrs = RouteAttributes::from_path(AsPath::new([2u32, 40_000]));
        let mirror = |runtime: &ShardedRuntime| {
            let applier = runtime
                .applier()
                .expect("a deterministic runtime runs inline");
            (applier.pending_events(), mirror_state(applier.table()))
        };
        for step in 0..4u32 {
            // Withdrawals on both sessions, a path change, and a new prefix
            // announced and withdrawn again: five events, a partial batch.
            let fresh = p(10_000 + step);
            let events = [
                (
                    1,
                    ElementaryEvent::Withdraw {
                        timestamp: 0,
                        prefix: p(step),
                    },
                ),
                (
                    2,
                    ElementaryEvent::Withdraw {
                        timestamp: 0,
                        prefix: p(n + step),
                    },
                ),
                (
                    2,
                    ElementaryEvent::Announce {
                        timestamp: 0,
                        prefix: p(step),
                        attrs: attrs.clone(),
                    },
                ),
                (
                    1,
                    ElementaryEvent::Announce {
                        timestamp: 0,
                        prefix: fresh,
                        attrs: attrs.clone(),
                    },
                ),
                (
                    1,
                    ElementaryEvent::Withdraw {
                        timestamp: 0,
                        prefix: fresh,
                    },
                ),
            ];
            let pending = events.len();
            for (peer, event) in events {
                reference.apply_owned(PeerId(peer), event.clone());
                runtime.ingest(PeerId(peer), event);
            }
            assert_eq!(mirror(&runtime).0, pending, "step {step}");
            match step {
                0 => {
                    runtime.teardown_session(PeerId(2));
                    reference.clear_peer(PeerId(2));
                }
                1 => {
                    runtime.register_session(PeerId(2), Asn(2), routes.clone());
                    reference.add_peer(PeerId(2), Asn(2));
                    for (prefix, route) in routes.iter().cloned() {
                        reference.announce(PeerId(2), prefix, route);
                    }
                }
                2 => {
                    runtime.resync_after_convergence();
                }
                _ => break,
            }
            assert_eq!(
                mirror(&runtime),
                (0, mirror_state(&reference)),
                "step {step}"
            );
        }
        let report = runtime.finish();
        assert_eq!(report.pending_events(), 0);
        assert_eq!(
            mirror_state(report.applier().table()),
            mirror_state(&reference)
        );
    }

    #[test]
    fn unknown_sessions_flow_through_without_engines() {
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig::sharded(2),
            config(),
            multi_table(2, 60),
            ReroutingPolicy::allow_all(),
        );
        runtime.ingest(
            PeerId(9_999),
            ElementaryEvent::Withdraw {
                timestamp: 0,
                prefix: p(0),
            },
        );
        let report = runtime.finish();
        assert!(report.actions.is_empty());
        assert_eq!(report.metrics.events, 1);
    }

    #[test]
    fn per_applier_metrics_account_for_every_event_and_install() {
        let peers = 3u32;
        let n = 200u32;
        let report = run(2, peers, n);
        let [applier] = report.metrics.per_applier.as_slice() else {
            panic!("sharded mode reports exactly one applier row");
        };
        assert_eq!(
            applier.events,
            u64::from(peers * n),
            "every event reached the applier"
        );
        let expected: u64 = report
            .actions
            .iter()
            .map(|a| a.rules_installed as u64)
            .sum();
        assert!(expected > 0, "the bursts install rules");
        assert_eq!(
            applier.installs, expected,
            "install counters match the action log"
        );
        assert!(applier.busy > Duration::ZERO);
        assert!(run(0, peers, n).metrics.per_applier.is_empty());
    }

    #[test]
    fn registry_snapshots_stage_traces_and_flight_events_observe_the_run() {
        let peers = 2u32;
        let n = 200u32;
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig {
                batch_size: 8,
                // Trace every event so the stage histograms are provably fed.
                trace_sample_interval: 1,
                ..RuntimeConfig::sharded(2)
            },
            config(),
            multi_table(peers, n),
            ReroutingPolicy::allow_all(),
        );
        let registry = runtime.registry();
        let flight = runtime.flight();
        runtime.ingest_stream(interleaved_bursts(peers, n));
        runtime.flush();
        // Live snapshot mid-run, without stopping anything: the barrier has
        // drained the pipeline, so the counters must account for every event.
        let snap = registry.snapshot();
        assert_eq!(snap["ingest.events"], u64::from(peers * n));
        let shard_events: u64 = (0..2).map(|i| snap[&format!("shard.{i}.events")]).sum();
        assert_eq!(shard_events, u64::from(peers * n));
        assert_eq!(snap["applier.0.events"], u64::from(peers * n));
        let removed = runtime.resync_after_convergence();
        assert!(removed > 0);
        let report = runtime.finish();
        // Every event fed the merged latency histogram; every traced event
        // crossed all four stage boundaries.
        assert_eq!(report.metrics.event_histogram.count(), u64::from(peers * n));
        assert_eq!(
            report.metrics.stages.queue_wait.count(),
            u64::from(peers * n)
        );
        assert_eq!(
            report.metrics.stages.inference.count(),
            u64::from(peers * n)
        );
        assert!(!report.metrics.stages.applier_wait.is_empty());
        assert!(!report.metrics.stages.install.is_empty());
        assert!(!report.metrics.reroute_histogram.is_empty());
        // The flight recorder captured the lifecycle: barrier, resync and the
        // final shutdown, in order.
        let kinds: Vec<FlightKind> = flight.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FlightKind::Barrier));
        assert!(kinds.contains(&FlightKind::Resync));
        assert_eq!(
            *kinds.last().expect("events recorded"),
            FlightKind::Shutdown
        );
    }

    /// Both modes feed the registry's kernel counters: the shard workers a
    /// batch at a time, the inline mode from its router's running
    /// statistics at each flush, so the per-event path pays nothing.
    #[test]
    fn kernel_counters_reach_the_registry_by_the_flush() {
        let (peers, n) = (2u32, 200u32);
        let attempts = |snap: &BTreeMap<String, u64>| {
            ["dense", "sparse", "mixed"]
                .iter()
                .map(|k| snap[&format!("inference.kernel.{k}")])
                .sum::<u64>()
        };
        for shards in [0usize, 2] {
            let mut runtime = ShardedRuntime::new(
                RuntimeConfig::sharded(shards),
                config(),
                multi_table(peers, n),
                ReroutingPolicy::allow_all(),
            );
            let registry = runtime.registry();
            runtime.ingest_stream(interleaved_bursts(peers, n));
            if shards == 0 {
                assert_eq!(attempts(&registry.snapshot()), 0, "nothing per event");
            }
            runtime.flush();
            assert!(attempts(&registry.snapshot()) > 0, "{shards} shards");
            let before = attempts(&registry.snapshot());
            runtime.finish();
            assert_eq!(attempts(&registry.snapshot()), before, "{shards} shards");
        }
    }

    #[test]
    fn trace_sampling_off_leaves_stage_histograms_empty() {
        let mut runtime = ShardedRuntime::new(
            RuntimeConfig {
                trace_sample_interval: 0,
                ..RuntimeConfig::sharded(2)
            },
            config(),
            multi_table(2, 100),
            ReroutingPolicy::allow_all(),
        );
        runtime.ingest_stream(interleaved_bursts(2, 100));
        let report = runtime.finish();
        assert_eq!(report.metrics.events, 200);
        assert!(report.metrics.stages.is_empty(), "no stamps when disabled");
        // The un-sampled latency histogram still sees every event.
        assert_eq!(report.metrics.event_histogram.count(), 200);
    }
}
