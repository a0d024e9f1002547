//! # swift-runtime
//!
//! A sharded, multi-core runtime for the SWIFT reproduction: the full
//! ingest → infer → reroute pipeline of a border router whose *dozens of
//! peering sessions* stream updates concurrently, under the paper's ~2 s
//! reroute budget (§3).
//!
//! ## Architecture
//!
//! ```text
//!   IngestHandle 0 ─┐       ┌───────────────┐
//!   (its sessions)  ├─hash─▶│ shard worker 0 │──┐
//!   IngestHandle 1 ─┤       │  SessionEngine │  │   accepted inferences
//!   (its sessions)  │       │  per session   │  │   + every event
//!       ...         │       ├───────────────┤  ▼
//!   default handle ─┘       │ shard worker 1 │─▶ ┌─────────────────┐
//!   (ingest()/…)            ├───────────────┤    │  applier thread  │
//!                           │      ...       │─▶ │  RoutingTable     │
//!                           └───────────────┘    │  TwoStageTable    │
//!                             bounded mpsc       │  rule installs +  │
//!                             (blocking)         │  resyncs, serial  │
//!                                                └─────────────────┘
//! ```
//!
//! * **Multi-producer ingest**: any number of threads each own an
//!   [`IngestHandle`] ([`ShardedRuntime::handle`]) that batches events per
//!   shard and sends straight into the shard queues — no central dispatch
//!   thread, no serialized stage in front of the shards. Events are stamped
//!   by a coarse shared epoch clock instead of a per-event `Instant::now()`;
//!   queue high-waters are per-handle and merged when the handles finish.
//!   [`ShardedRuntime::ingest`] is a thin wrapper over a built-in default
//!   handle.
//! * **Sessions are sharded, not events**: every peer is hashed onto one of N
//!   worker shards, so one session's events are always processed in order by
//!   one [`SessionEngine`] — the
//!   per-session verdict stream is identical to the single-threaded
//!   [`SwiftRouter`](swift_core::SwiftRouter)'s, regardless of shard count —
//!   provided each session stays pinned to one handle (see [`IngestHandle`]).
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
//!   full applier queue blocks the shards. Nothing is shed while the runtime
//!   is live.
//! * **Deterministic mode** ([`RuntimeConfig::deterministic`]): zero shards,
//!   no threads — the same pipeline types driven inline on the caller's
//!   thread, bit-identical to `SwiftRouter`.
//!
//! ## Concurrency rules and their holders
//!
//! The runtime's concurrency surface is small: four channel constructions,
//! three mutexes, one Release/Acquire flag and a few Relaxed counters. Each
//! rule it relies on is held by the compiler, clippy or a running test:
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
//!   wrappers in the private `sync` module (and `swift_telemetry`'s
//!   `Counter` / `Gauge`) choose the ordering once: one Release/Acquire
//!   shutdown flag, Relaxed everywhere else.
//! * **Barriers reach every shard; the applier acks at quorum, once.** The
//!   flush asserts that the ack it receives is its own barrier's, and
//!   `proptest_multi_producer` runs every case under a deadline, on queues
//!   of capacity one too, so a lost barrier or a blocking-send cycle fails
//!   with the flight recorder's dump instead of hanging.
//! * **No data after a terminal message.** The tests' event counts: every
//!   ingested event reaches a shard, and nothing is dropped.
//! * **Lock order.** No function holds two of the three mutexes (the
//!   producers' merged counters, the registry's name table, the flight
//!   recorder's ring) at once, so no lock order exists to get wrong. This
//!   rule is documented, not checked.
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

mod ingest;
mod sync;
mod worker;

use ingest::ProducerShared;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use swift_bgp::{Asn, ElementaryEvent, PeerId, Prefix, Route, RoutingTable};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::InferenceEngine;
use swift_core::metrics::{LatencySummary, ProducerCounters};
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{RerouteAction, SwiftConfig};
use swift_telemetry::{
    Counter, FlightKind, FlightRecorder, Gauge, LogHistogram, Registry, StageHistograms,
};
use sync::{EpochClock, QueueDepth, ShutdownFlag};
use worker::{ApplierMsg, ShardMsg};

pub use ingest::IngestHandle;

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
    /// Pipeline-trace sampling: every `trace_sample_interval`-th event per
    /// producer carries a [`swift_telemetry::TraceStamp`] through
    /// ingest → shard → applier, populating the per-stage histograms of
    /// [`RuntimeMetrics::stages`]. Rounded down to a power of two; `0`
    /// disables tracing. `bench_telemetry` measures what the default
    /// 1-in-1024 costs on the ingest dispatch loop.
    pub trace_sample_interval: usize,
}

/// Retained lifecycle events in the runtime's
/// [`swift_telemetry::FlightRecorder`] ring.
const FLIGHT_CAPACITY: usize = 256;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::deterministic()
    }
}

impl RuntimeConfig {
    /// The deterministic single-thread mode: the whole pipeline runs inline,
    /// bit-identical to [`swift_core::SwiftRouter`].
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
    /// Events shed at ingest. Only a producer handle that outlives the
    /// runtime sheds, and its counters reach no report, so this reads `0`:
    /// it is the report's check that nothing was lost.
    pub dropped: u64,
    /// High-water mark of the shard's ingest queue, in batches — an upper
    /// estimate under concurrent producers (each producer's observation may
    /// transiently include siblings' not-yet-enqueued batches), clamped to
    /// the queue's physical capacity.
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
    /// Producer handles that ingested at least one event and were finished
    /// (or dropped) before the runtime shut down — includes the runtime's
    /// built-in default handle when [`ShardedRuntime::ingest`] was used.
    /// `0` in deterministic inline mode.
    pub producers: usize,
    /// Events ingested (`events - dropped` were processed). In sharded mode
    /// this counts what *finished* producers ingested — finish or drop every
    /// handle before [`ShardedRuntime::finish`].
    pub events: u64,
    /// Events dropped across all shards (see [`ShardMetrics::dropped`]).
    pub dropped: u64,
    /// First ingest → pipeline drained.
    pub wall: Duration,
    /// Processed (non-dropped) events per second of wall time.
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

/// The state behind a running sharded instance.
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
    /// The producer-side state shared by every [`IngestHandle`].
    shared: Arc<ProducerShared>,
    /// The handle behind [`ShardedRuntime::ingest`] — the runtime itself is
    /// just one producer among the handles.
    default_handle: Option<IngestHandle>,
}

/// The state behind a deterministic inline instance.
struct Inline {
    engines: BTreeMap<PeerId, SessionEngine>,
    applier: Applier,
    /// Registry counter `ingest.events` — one relaxed add per inline event,
    /// so live snapshots work in both modes.
    events_ctr: Counter,
    /// Kernel-dispatch and scratch counters, drained per attempt (the same
    /// global names the shard workers feed).
    kernels: worker::KernelCounters,
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
    /// Kept for seeding the engines of sessions registered mid-run.
    swift: SwiftConfig,
    mode: Option<Mode>,
    /// Inline-mode event count (sharded mode counts per producer handle).
    events: u64,
    /// First ingest from any producer — shared so concurrent handles race
    /// safely to one run-start stamp.
    started: Arc<OnceLock<Instant>>,
    /// The live metrics registry: worker counters and gauges all live here,
    /// so [`ShardedRuntime::registry`] snapshots never stop the run.
    registry: Registry,
    /// Ring of recent lifecycle events, for a failing run's post-mortem.
    flight: FlightRecorder,
    /// The runtime's epoch clock (also created in inline mode, so flight
    /// events and snapshots carry comparable timestamps).
    clock: Arc<EpochClock>,
}

impl ShardedRuntime {
    /// Builds the runtime: seeds one engine per peering session of `table`
    /// (sharing each session's interned path storage), hashes sessions onto
    /// shards and spawns the worker and applier threads — or none of them in
    /// deterministic mode.
    pub fn new(
        config: RuntimeConfig,
        swift: SwiftConfig,
        table: RoutingTable,
        policy: ReroutingPolicy,
    ) -> Self {
        let engines = session_engines(&swift, &table);
        let started: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
        let registry = Registry::new();
        let flight = FlightRecorder::with_capacity(FLIGHT_CAPACITY);
        let clock = Arc::new(EpochClock::new());
        if config.shards == 0 {
            let applier = Applier::new(swift.clone(), table, policy);
            let events_ctr = registry.counter("ingest.events");
            let kernels = worker::KernelCounters::from_registry(&registry);
            return ShardedRuntime {
                config,
                swift,
                mode: Some(Mode::Inline(Box::new(Inline {
                    engines,
                    applier,
                    events_ctr,
                    kernels,
                }))),
                events: 0,
                started,
                registry,
                flight,
                clock,
            };
        }

        let shards = config.shards;
        // Partition the sessions: each engine moves onto its home shard.
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
            clock: Arc::clone(&clock),
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
                clock: Arc::clone(&clock),
                events_ctr: registry.counter(&format!("shard.{i}.events")),
                batches_ctr: registry.counter(&format!("shard.{i}.batches")),
                kernels: worker::KernelCounters::from_registry(&registry),
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

        let shared = Arc::new(ProducerShared {
            shard_txs: shard_txs.clone(),
            depth,
            batch_size: config.batch_size.max(1),
            queue_capacity: config.queue_capacity,
            clock: Arc::clone(&clock),
            started: Arc::clone(&started),
            shutdown: ShutdownFlag::default(),
            swift: swift.clone(),
            merged: Mutex::new(ProducerCounters::for_shards(shards)),
            events_ctr: registry.counter("ingest.events"),
            dropped_ctr: registry.counter("ingest.dropped"),
            flight: flight.clone(),
            trace_interval: config.trace_sample_interval,
        });
        let default_handle = IngestHandle::new(Arc::clone(&shared));

        ShardedRuntime {
            mode: Some(Mode::Sharded(Box::new(Sharded {
                shard_txs,
                shard_handles,
                applier_tx,
                applier_handle,
                applier_high,
                barrier_rx,
                next_barrier: 0,
                shared,
                default_handle: Some(default_handle),
            }))),
            config,
            swift,
            events: 0,
            started,
            registry,
            flight,
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
    /// installs/resyncs` counters plus `applier.0.queue.high` /
    /// `applier.0.pending.high` gauges.
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// The runtime's lifecycle flight recorder: session register/teardown,
    /// barriers, resyncs, shed batches and shutdown, in a fixed-size ring.
    /// [`FlightRecorder::dump`] renders the recent history when a run fails.
    pub fn flight(&self) -> FlightRecorder {
        self.flight.clone()
    }

    /// The inference engine of `peer`'s session in deterministic mode; `None`
    /// for a session without one, and always in sharded mode, where each
    /// engine lives on its shard's thread.
    pub fn engine(&self, peer: PeerId) -> Option<&InferenceEngine> {
        match self.mode.as_ref()? {
            Mode::Inline(inline) => inline.engines.get(&peer).map(SessionEngine::engine),
            Mode::Sharded(_) => None,
        }
    }

    /// The applier in deterministic mode; `None` in sharded mode, where it
    /// lives on its own thread ([`RuntimeReport::applier`] has it after
    /// [`ShardedRuntime::finish`]).
    pub fn applier(&self) -> Option<&Applier> {
        match self.mode.as_ref()? {
            Mode::Inline(inline) => Some(&inline.applier),
            Mode::Sharded(_) => None,
        }
    }

    /// A new producer handle into this runtime: a cloneable, `Send`
    /// front-end that batches events per shard and sends them straight into
    /// the shard queues — see [`IngestHandle`] for the pinning rule that
    /// preserves per-session ordering across producers.
    ///
    /// Finish (or drop) every handle before [`ShardedRuntime::flush`] /
    /// [`ShardedRuntime::finish`]: a live handle may still hold buffered
    /// events, and its counters only reach [`RuntimeMetrics`] once it
    /// finishes.
    ///
    /// # Panics
    ///
    /// In deterministic inline mode — a zero-shard runtime has no queues for
    /// a producer to feed; use [`ShardedRuntime::ingest`] there.
    pub fn handle(&self) -> IngestHandle {
        match self.mode.as_ref().expect("runtime live") {
            Mode::Inline(_) => {
                panic!("deterministic inline mode has no producer handles; use ingest()")
            }
            Mode::Sharded(sharded) => IngestHandle::new(Arc::clone(&sharded.shared)),
        }
    }

    /// Ingests one per-prefix event received on the session with `peer`.
    ///
    /// Sharded mode: a thin wrapper over the runtime's default
    /// [`IngestHandle`] — the event is buffered and dispatched (in batches)
    /// to the session's home shard; rule installs happen asynchronously on
    /// the applier thread. Deterministic mode: the event is processed to
    /// completion before returning.
    pub fn ingest(&mut self, peer: PeerId, event: ElementaryEvent) {
        match self.mode.as_mut().expect("runtime live") {
            Mode::Inline(inline) => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one-time run-start stamp: OnceLock makes this a single atomic load \
                              after the first event, not a per-event clock read"
                )]
                self.started.get_or_init(Instant::now);
                self.events += 1;
                inline.events_ctr.inc();
                // The engine only borrows the event, so it goes first and the
                // mirror then takes the event by value: an announcement's
                // attributes move into the table uncloned. The install reads
                // stage-1 state that only a resync changes, so it does not
                // care which side of the mirror update it runs on.
                let accepted = (inline.engines.get_mut(&peer))
                    .and_then(|engine| worker::accept(engine, &inline.kernels, &event));
                inline.applier.note_event_owned(peer, event);
                if let Some(result) = accepted {
                    inline.applier.apply_inference(peer, &result);
                }
            }
            Mode::Sharded(sharded) => {
                sharded
                    .default_handle
                    .as_mut()
                    .expect("default handle live")
                    .ingest(peer, event);
            }
        }
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
    /// live: a fresh [`SessionEngine`] seeded from `routes` is installed on
    /// the session's home shard, and the applier adds the peer and its routes
    /// to the serialized routing state (retagging the touched stage-1
    /// entries).
    ///
    /// The operation is ordered **in-band** with [`ShardedRuntime::ingest`]:
    /// events ingested on this session before the call are processed by the
    /// old engine (if any), events after it by the new one — in both inline
    /// and sharded mode, which is what keeps per-session decisions identical
    /// across modes under churn. Lifecycle messages are never shed.
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
                let engine = ingest::engine_from_routes(peer, &self.swift, &routes);
                inline.engines.insert(peer, engine);
                inline.applier.register_session(peer, asn, routes);
            }
            Mode::Sharded(sharded) => {
                sharded
                    .default_handle
                    .as_mut()
                    .expect("default handle live")
                    .register_session(peer, asn, routes);
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
                inline.engines.remove(&peer);
                inline.applier.teardown_session(peer);
            }
            Mode::Sharded(sharded) => {
                sharded
                    .default_handle
                    .as_mut()
                    .expect("default handle live")
                    .teardown_session(peer);
            }
        }
    }

    /// Flushes the default handle's buffered batches and blocks until all
    /// shards *and* the applier have fully processed everything enqueued so
    /// far.
    ///
    /// Other producers' [`IngestHandle`]s are *not* flushed — flush (or
    /// finish) them first if their buffered events must be part of the
    /// drain.
    pub fn flush(&mut self) {
        match self.mode.as_mut().expect("runtime live") {
            Mode::Inline(_) => {}
            Mode::Sharded(sharded) => {
                sharded
                    .default_handle
                    .as_mut()
                    .expect("default handle live")
                    .flush();
                let seq = sharded.next_barrier;
                sharded.next_barrier += 1;
                // Recorded before the wait, so a flush that never returns
                // leaves its barrier in a post-mortem dump.
                self.flight.record(
                    self.clock.precise(),
                    FlightKind::Barrier,
                    format!("seq={seq} sent to {} shards", sharded.shard_txs.len()),
                );
                for tx in &sharded.shard_txs {
                    tx.send(ShardMsg::Barrier(seq)).expect("shard thread alive");
                }
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
            Mode::Inline(inline) => inline.applier.resync_after_convergence(),
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

    /// Shuts the pipeline down (flushing everything still buffered) and
    /// returns the final actions, applier state and metrics.
    pub fn finish(mut self) -> RuntimeReport {
        self.shutdown().expect("first shutdown")
    }

    /// Internal teardown shared by [`ShardedRuntime::finish`] and `Drop`.
    fn shutdown(&mut self) -> Option<RuntimeReport> {
        let mode = self.mode.take()?;
        self.flight
            .record(self.clock.precise(), FlightKind::Shutdown, "runtime finish");
        let wall = self
            .started
            .get()
            .map(|s| s.elapsed())
            .unwrap_or(Duration::ZERO);
        match mode {
            Mode::Inline(mut inline) => {
                // The last partial batch folds: the report's mirror is current.
                inline.applier.sync_rib();
                // Inline processing has no queueing, so no latency samples
                // exist: the empty histograms honestly summarise to count 0
                // rather than fabricating zeros.
                let secs = wall.as_secs_f64();
                Some(RuntimeReport {
                    actions: inline.applier.actions().to_vec(),
                    metrics: RuntimeMetrics {
                        shards: 0,
                        producers: 0,
                        events: self.events,
                        dropped: 0,
                        wall,
                        events_per_sec: if secs > 0.0 {
                            self.events as f64 / secs
                        } else {
                            0.0
                        },
                        per_shard: Vec::new(),
                        per_applier: Vec::new(),
                        event_latency: latency_summary(&LogHistogram::new()),
                        reroute_latency: latency_summary(&LogHistogram::new()),
                        event_histogram: LogHistogram::new(),
                        reroute_histogram: LogHistogram::new(),
                        stages: StageHistograms::new(),
                    },
                    applier: inline.applier,
                })
            }
            Mode::Sharded(mut sharded) => {
                // From here on, handles finding a disconnected queue treat
                // it as "the runtime finished" rather than a crashed worker.
                sharded.shared.shutdown.raise();
                // The default handle is a producer like any other: finishing
                // it flushes its buffers and folds its counters into the
                // shared accumulator — external handles should already have
                // done the same.
                if let Some(handle) = sharded.default_handle.take() {
                    handle.finish();
                }
                for tx in &sharded.shard_txs {
                    let _ = tx.send(ShardMsg::Shutdown);
                }
                let mut shard_reports: Vec<worker::ShardWorkerReport> = sharded
                    .shard_handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread exits cleanly"))
                    .collect();
                shard_reports.sort_by_key(|r| r.shard);
                drop(sharded.applier_tx);
                let applied = sharded
                    .applier_handle
                    .join()
                    .expect("applier thread exits cleanly");
                let wall = self
                    .started
                    .get()
                    .map(|s| s.elapsed())
                    .unwrap_or(Duration::ZERO);
                let producers = sharded
                    .shared
                    .merged
                    .lock()
                    .expect("producer counter lock")
                    .clone();

                let mut merged_latency = LogHistogram::new();
                let mut merged_stages = StageHistograms::new();
                let per_shard: Vec<ShardMetrics> = shard_reports
                    .iter()
                    .map(|r| {
                        merged_latency.merge(&r.latency);
                        merged_stages.merge(&r.stages);
                        let busy = r.busy.as_secs_f64();
                        ShardMetrics {
                            shard: r.shard,
                            sessions: r.sessions,
                            events: r.events,
                            batches: r.batches,
                            dropped: producers.dropped[r.shard],
                            max_queue_depth: producers.max_queue_depth[r.shard],
                            event_latency: latency_summary(&r.latency),
                            events_per_sec: if busy > 0.0 {
                                r.events as f64 / busy
                            } else {
                                0.0
                            },
                        }
                    })
                    .collect();
                let dropped = producers.total_dropped();
                let secs = wall.as_secs_f64();
                let delivered = producers.events.saturating_sub(dropped);
                merged_stages.merge(&applied.stages);
                let applier_busy = applied.busy.as_secs_f64();
                let per_second = |n: u64| {
                    if applier_busy > 0.0 {
                        n as f64 / applier_busy
                    } else {
                        0.0
                    }
                };
                let per_applier = vec![ApplierShardMetrics {
                    shard: 0,
                    events: applied.events,
                    batches: applied.batches,
                    installs: applied.installs,
                    max_queue_depth: sharded.applier_high.get() as usize,
                    busy: applied.busy,
                    events_per_sec: per_second(applied.events),
                    installs_per_sec: per_second(applied.installs),
                    pending_high_water: applied.pending_high_water,
                    resyncs: applied.resyncs,
                }];
                Some(RuntimeReport {
                    actions: applied.applier.actions().to_vec(),
                    metrics: RuntimeMetrics {
                        shards: self.config.shards,
                        producers: producers.producers,
                        events: producers.events,
                        dropped,
                        wall,
                        events_per_sec: if secs > 0.0 {
                            delivered as f64 / secs
                        } else {
                            0.0
                        },
                        per_shard,
                        per_applier,
                        event_latency: latency_summary(&merged_latency),
                        reroute_latency: latency_summary(&applied.reroute_latency),
                        event_histogram: merged_latency,
                        reroute_histogram: applied.reroute_latency,
                        stages: merged_stages,
                    },
                    applier: applied.applier,
                })
            }
        }
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        let _ = self.shutdown();
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
            router.handle_event(peer, &ev);
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

    #[test]
    fn flush_completes_after_dropped_batches() {
        // The one drop path left: a handle that outlived the runtime sheds
        // its batches onto disconnected queues. Its flushes must return
        // rather than block on queues nobody drains, and every shed event
        // must reach the live `ingest.dropped` counter and the flight
        // recorder.
        let peers = 2u32;
        let n = 1_000u32;
        let runtime = ShardedRuntime::new(
            RuntimeConfig {
                batch_size: 2,
                queue_capacity: 1,
                applier_capacity: 1,
                ..RuntimeConfig::sharded(2)
            },
            config(),
            multi_table(peers, n),
            ReroutingPolicy::allow_all(),
        );
        let registry = runtime.registry();
        let flight = runtime.flight();
        let mut orphan = runtime.handle();
        let report = runtime.finish();
        assert_eq!(report.metrics.dropped, 0);
        orphan.ingest_stream(interleaved_bursts(peers, n));
        orphan.flush();
        orphan.flush();
        orphan.finish();
        assert_eq!(registry.snapshot()["ingest.dropped"], u64::from(peers * n));
        let kinds: Vec<FlightKind> = flight.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            *kinds.last().expect("events recorded"),
            FlightKind::Drop,
            "shed batches are recorded after the shutdown"
        );
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
        let mirror = |runtime: &ShardedRuntime| match runtime.mode.as_ref() {
            Some(Mode::Inline(inline)) => (
                inline.applier.pending_events(),
                mirror_state(inline.applier.table()),
            ),
            _ => panic!("a deterministic runtime runs inline"),
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

    /// Splits the interleaved burst stream into `k` per-source streams with
    /// sessions disjoint across sources (session s → source (s-1) % k),
    /// preserving each session's order — the pinning rule.
    fn partition_by_session(
        events: &[(PeerId, ElementaryEvent)],
        k: usize,
    ) -> Vec<Vec<(PeerId, ElementaryEvent)>> {
        let mut sources = vec![Vec::new(); k];
        for (peer, event) in events {
            sources[(peer.0 as usize).saturating_sub(1) % k].push((*peer, event.clone()));
        }
        sources
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test drives the runtime from concurrent producer threads"
    )]
    fn concurrent_producers_reach_inline_decisions_with_well_defined_metrics() {
        let peers = 4u32;
        let n = 200u32;
        let baseline = run(0, peers, n);
        let events = interleaved_bursts(peers, n);
        for producers in [2usize, 3] {
            let runtime = ShardedRuntime::new(
                RuntimeConfig {
                    batch_size: 16,
                    ..RuntimeConfig::sharded(2)
                },
                config(),
                multi_table(peers, n),
                ReroutingPolicy::allow_all(),
            );
            std::thread::scope(|scope| {
                for source in partition_by_session(&events, producers) {
                    let mut handle = runtime.handle();
                    scope.spawn(move || {
                        handle.ingest_stream(source);
                        handle.finish();
                    });
                }
            });
            let report = runtime.finish();
            // Regression (run-start used to be stamped on `&mut self`): with
            // no ingest() call ever made on the runtime itself, the wall
            // clock must still start at the producers' first event.
            assert!(
                report.metrics.wall > Duration::ZERO,
                "wall is stamped by the first producer event, not by ingest()"
            );
            assert_eq!(report.metrics.events, u64::from(peers * n));
            assert_eq!(report.metrics.dropped, 0);
            assert_eq!(
                report.metrics.producers, producers,
                "every finished handle that saw events is counted"
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
                }
            }
        }
    }

    #[test]
    fn handle_outliving_the_runtime_is_harmless() {
        let runtime = ShardedRuntime::new(
            RuntimeConfig::sharded(1),
            config(),
            multi_table(1, 60),
            ReroutingPolicy::allow_all(),
        );
        let mut orphan = runtime.handle();
        let report = runtime.finish();
        assert_eq!(report.metrics.events, 0);
        // The queues are gone: events fed to the orphan are silently shed
        // (counted in the orphan's own counters, which no report will read),
        // and lifecycle calls are no-ops — nothing panics.
        orphan.ingest(
            PeerId(1),
            ElementaryEvent::Withdraw {
                timestamp: 0,
                prefix: p(0),
            },
        );
        orphan.flush();
        orphan.teardown_session(PeerId(1));
        orphan.finish();
    }

    #[test]
    #[should_panic(expected = "deterministic inline mode has no producer handles")]
    fn inline_mode_refuses_to_hand_out_producer_handles() {
        let runtime = ShardedRuntime::new(
            RuntimeConfig::deterministic(),
            config(),
            multi_table(1, 60),
            ReroutingPolicy::allow_all(),
        );
        let _ = runtime.handle();
    }

    #[test]
    fn handle_clone_is_a_fresh_producer() {
        let runtime = ShardedRuntime::new(
            RuntimeConfig::sharded(2),
            config(),
            multi_table(2, 60),
            ReroutingPolicy::allow_all(),
        );
        let mut a = runtime.handle();
        a.ingest(
            PeerId(1),
            ElementaryEvent::Withdraw {
                timestamp: 0,
                prefix: p(0),
            },
        );
        let b = a.clone();
        assert_eq!(a.events(), 1);
        assert_eq!(b.events(), 0, "a clone starts with empty counters");
        a.finish();
        b.finish();
        let report = runtime.finish();
        assert_eq!(report.metrics.events, 1);
        assert_eq!(
            report.metrics.producers, 1,
            "the event-less clone is not counted as a producer"
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
