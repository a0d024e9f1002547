//! The runtime's thread bodies and channel message types.
//!
//! Two kinds of worker run behind [`crate::ShardedRuntime`]:
//!
//! * **shard workers** — each owns the [`SessionEngine`]s of the sessions
//!   hashed onto it and turns ingested events into engine verdicts;
//! * **the applier** — one thread owning the one [`Applier`] (the router-wide
//!   forwarding table, the routing state, the action log); it serializes
//!   rule installs and resyncs.
//!
//! Shard workers forward every processed event — with any accepted inference
//! attached — and every lifecycle message (register, teardown, barriers) to
//! the applier, in-band with the event stream.
//!
//! The data channels are bounded ([`std::sync::mpsc::sync_channel`]): a full
//! shard queue blocks the ingest thread, and a full applier queue blocks the
//! shards. Nothing is shed.

use crate::sync::QueueDepth;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::time::{Duration, Instant};
use swift_bgp::{Asn, ElementaryEvent, PeerId, Prefix, Resolved, Route};
use swift_core::inference::InferenceResult;
use swift_core::pipeline::{Applier, SessionEngine};
use swift_telemetry::{LogHistogram, StageHistograms, TraceStamp};

/// The runtime's monotonic clock: nanoseconds since the runtime's
/// construction. A copy is all a worker needs, since it holds nothing but
/// the base instant. The producer reads it every few hundred events into its
/// coarse ingest stamp; the workers read it at a traced event's stage
/// boundaries and at each accepted inference's install, off the ingest path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochClock {
    base: Instant,
}

impl EpochClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the clock's base instant: read once per runtime, never per event"
    )]
    pub(crate) fn new() -> Self {
        EpochClock {
            base: Instant::now(),
        }
    }

    /// The real monotonic clock, in nanoseconds since the base instant.
    pub(crate) fn precise(self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One ingested event on its way to a shard.
#[derive(Debug)]
pub(crate) struct IngestEvent {
    /// The session the event was received on.
    pub peer: PeerId,
    /// The event itself.
    pub event: ElementaryEvent,
    /// Coarse ingest time (nanoseconds on the runtime's [`EpochClock`]), for
    /// end-to-end latency accounting.
    pub ingest: u64,
    /// Sampled-tracing stamp: `Some` on the 1-in-N events that carry
    /// per-stage attribution through the pipeline.
    pub trace: Option<TraceStamp>,
}

/// Controller → shard messages.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A batch of events for this shard's sessions.
    Batch(Vec<IngestEvent>),
    /// A session (re-)registration: the shard adopts the engine and forwards
    /// the routing-state half to the applier in-band.
    Register(Box<SessionRegistration>),
    /// A session teardown: the shard drops the engine and forwards the
    /// cleanup request to the applier in-band.
    Teardown(PeerId),
    /// Flush marker: forward an ack to the applier and keep going.
    Barrier(u64),
    /// Drain and exit.
    Shutdown,
}

/// Everything a mid-run session registration carries: the engine half for the
/// session's home shard and the routing-state half for the applier.
#[derive(Debug)]
pub(crate) struct SessionRegistration {
    pub peer: PeerId,
    pub asn: Asn,
    pub engine: SessionEngine,
    pub routes: Vec<(Prefix, Route)>,
}

/// One event after engine processing, on its way to the applier.
#[derive(Debug)]
pub(crate) struct ProcessedEvent {
    pub peer: PeerId,
    pub event: ElementaryEvent,
    /// The accepted inference, if this event triggered one — boxed: at most
    /// one event per burst carries one, and inline it would nearly double
    /// every record on the applier queue.
    pub result: Option<Box<InferenceResult>>,
    /// Coarse ingest time (nanoseconds on the runtime's [`EpochClock`]).
    pub ingest: u64,
    /// Sampled-tracing stamp, advanced to the shard's inference boundary.
    pub trace: Option<TraceStamp>,
}

/// Shard/controller → applier messages.
#[derive(Debug)]
pub(crate) enum ApplierMsg {
    /// Processed events from one shard, in that shard's order.
    Batch(Vec<ProcessedEvent>),
    /// Routing-state half of a session registration (forwarded by the
    /// session's home shard, so it is ordered with the session's events).
    Register {
        peer: PeerId,
        asn: Asn,
        routes: Vec<(Prefix, Route)>,
    },
    /// Routing-state half of a session teardown: remove the departed peer's
    /// SWIFT rules and RIB-mirror routes.
    Teardown(PeerId),
    /// Barrier ack from one shard (the barrier's sequence number).
    Barrier(u64),
    /// Reconvergence resync request (sent by the controller after a flush);
    /// the number of removed SWIFT rules is replied on the channel.
    Resync(Sender<usize>),
    /// A shard finished shutting down.
    ShardDone,
}

/// What a shard worker reports back when it exits.
#[derive(Debug)]
pub(crate) struct ShardWorkerReport {
    pub shard: usize,
    pub sessions: usize,
    pub events: u64,
    /// Per-stage spans of this shard's traced events (`queue_wait` and
    /// `inference` populated here).
    pub stages: StageHistograms,
}

/// What the applier thread reports back when it exits.
#[derive(Debug)]
pub(crate) struct ApplierReport {
    pub applier: Applier,
    /// Ingest → reroute-rules-installed latency, in nanoseconds.
    pub reroute_latency: LogHistogram,
    /// Per-stage spans of traced events (`applier_wait` and `install`
    /// populated here).
    pub stages: StageHistograms,
    /// Events folded into the RIB mirror.
    pub events: u64,
    /// Data-plane rule installs performed by accepted inferences.
    pub installs: u64,
    /// Accumulated time spent actually processing messages (not waiting on
    /// the queue) — the measure of where the serialization point sits.
    pub busy: Duration,
    /// High-water mark of the applier's unfolded-event buffer, sampled at
    /// batch ends: below [`swift_bgp::RoutingTable::APPLY_BATCH`].
    pub pending_high_water: usize,
    /// Resyncs served.
    pub resyncs: u64,
}

/// A shard worker's sending side of the applier: the channel plus the depth
/// behind the applier queue's high-water metric.
pub(crate) struct ApplierLink {
    pub tx: SyncSender<ApplierMsg>,
    pub depth: QueueDepth,
}

/// Everything one shard worker thread owns.
pub(crate) struct ShardWorker {
    pub shard: usize,
    pub engines: BTreeMap<PeerId, SessionEngine>,
    pub rx: Receiver<ShardMsg>,
    pub applier: ApplierLink,
    pub depth: QueueDepth,
    pub clock: EpochClock,
}

/// Counts a batch into the applier's depth and sends it. `Err` means the
/// applier is gone (shutdown).
fn send_batch(link: &ApplierLink, batch: Vec<ProcessedEvent>) -> Result<(), ()> {
    link.depth.inc();
    if link.tx.send(ApplierMsg::Batch(batch)).is_err() {
        link.depth.dec();
        return Err(());
    }
    Ok(())
}

/// The shard worker loop: process each batch through the shard's engines and
/// forward everything (with any accepted inference attached) to the applier.
pub(crate) fn shard_loop(w: ShardWorker) -> ShardWorkerReport {
    let ShardWorker {
        shard,
        mut engines,
        rx,
        applier,
        depth,
        clock,
    } = w;
    let sessions = engines.len();
    let mut events = 0u64;
    let mut stages = StageHistograms::new();
    // `rx.recv()` erroring means the controller hung up without a Shutdown
    // (e.g. dropped) — treated like a Shutdown.
    'outer: while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(batch) => {
                depth.dec();
                events += batch.len() as u64;
                let mut out = Vec::with_capacity(batch.len());
                for IngestEvent {
                    peer,
                    event,
                    ingest,
                    mut trace,
                } in batch
                {
                    // A traced event closes its queue-wait span at dequeue,
                    // so the inference span below starts at the engine call.
                    if let Some(stamp) = trace.as_mut() {
                        stages.queue_wait.record(stamp.advance(clock.precise()));
                    }
                    // Unknown session: no engine, but the event still
                    // reaches the applier's routing table — exactly the
                    // single-threaded router's behaviour.
                    let result = (engines.get_mut(&peer))
                        .and_then(|engine| engine.accept(&event, Resolved::UNKNOWN));
                    if let Some(stamp) = trace.as_mut() {
                        stages.inference.record(stamp.advance(clock.precise()));
                    }
                    // An accepted inference rides with its triggering event.
                    out.push(ProcessedEvent {
                        peer,
                        event,
                        result: result.map(Box::new),
                        ingest,
                        trace,
                    });
                }
                if send_batch(&applier, out).is_err() {
                    break 'outer; // applier gone; nothing left to do
                }
            }
            ShardMsg::Register(reg) => {
                let SessionRegistration {
                    peer,
                    asn,
                    engine,
                    routes,
                } = *reg;
                engines.insert(peer, engine);
                let sent = applier.tx.send(ApplierMsg::Register { peer, asn, routes });
                if sent.is_err() {
                    break 'outer;
                }
            }
            ShardMsg::Teardown(peer) => {
                engines.remove(&peer);
                if applier.tx.send(ApplierMsg::Teardown(peer)).is_err() {
                    break 'outer;
                }
            }
            ShardMsg::Barrier(seq) => {
                if applier.tx.send(ApplierMsg::Barrier(seq)).is_err() {
                    break 'outer;
                }
            }
            ShardMsg::Shutdown => break 'outer,
        }
    }
    let _ = applier.tx.send(ApplierMsg::ShardDone);
    ShardWorkerReport {
        shard,
        sessions: sessions.max(engines.len()),
        events,
        stages,
    }
}

/// Everything the applier thread owns.
pub(crate) struct ApplierWorker {
    pub applier: Applier,
    pub rx: Receiver<ApplierMsg>,
    /// Acks back to the controller: the completed barrier's seq.
    pub barrier_tx: Sender<u64>,
    /// Shard workers feeding the applier — the barrier/shutdown quorum.
    pub workers: usize,
    pub clock: EpochClock,
    pub depth: QueueDepth,
}

/// The applier loop: install the rules of accepted inferences in arrival
/// order, fold every processed event into the routing state, answer
/// barrier and resync requests, and exit once every shard worker has said
/// goodbye.
#[expect(
    clippy::disallowed_methods,
    reason = "per-message busy-time stamps on the applier thread, off the per-event ingest path"
)]
pub(crate) fn applier_loop(w: ApplierWorker) -> ApplierReport {
    let ApplierWorker {
        mut applier,
        rx,
        barrier_tx,
        workers,
        clock,
        depth,
    } = w;
    let mut done = 0usize;
    // `(seq, copies)` of the barrier being collected. `ShardedRuntime::flush`
    // takes `&mut self` and blocks until its ack, so at most one barrier is
    // ever outstanding and one pair is the whole state.
    let mut barrier = (0u64, 0usize);
    let mut reroute_latency = LogHistogram::new();
    let mut stages = StageHistograms::new();
    let (mut events, mut installs, mut resyncs) = (0u64, 0u64, 0u64);
    let mut pending_high_water = 0usize;
    let mut busy = Duration::ZERO;
    while done < workers {
        let Ok(msg) = rx.recv() else {
            break;
        };
        match msg {
            ApplierMsg::Batch(mut batch) => {
                depth.dec();
                let t0 = Instant::now();
                events += batch.len() as u64;
                // The batch's installs go first, its mirror folds after: an
                // install reads only stage-1 tags, which only a resync, a
                // registration or a teardown writes, so it need not wait
                // behind the folds of its own batch. Installs keep their
                // arrival order. Traced events close their shard → applier
                // queue span at dequeue and their install span after it.
                for processed in &mut batch {
                    if let Some(stamp) = processed.trace.as_mut() {
                        stages.applier_wait.record(stamp.advance(clock.precise()));
                    }
                    if let Some(result) = processed.result.take() {
                        let action = applier.apply_inference(processed.peer, &result);
                        installs += action.rules_installed as u64;
                        reroute_latency.record(clock.precise().saturating_sub(processed.ingest));
                    }
                    if let Some(stamp) = processed.trace.as_mut() {
                        stages.install.record(stamp.advance(clock.precise()));
                    }
                }
                for processed in batch {
                    applier.note_event_owned(processed.peer, processed.event);
                }
                pending_high_water = pending_high_water.max(applier.pending_events());
                busy += t0.elapsed();
            }
            ApplierMsg::Register { peer, asn, routes } => {
                let t0 = Instant::now();
                applier.register_session(peer, asn, routes);
                busy += t0.elapsed();
            }
            ApplierMsg::Teardown(peer) => {
                let t0 = Instant::now();
                applier.teardown_session(peer);
                busy += t0.elapsed();
            }
            ApplierMsg::Barrier(seq) => {
                if barrier.0 != seq {
                    barrier = (seq, 0);
                }
                barrier.1 += 1;
                debug_assert!(
                    barrier.1 <= workers,
                    "barrier {seq}: copy {} from {workers} shard workers",
                    barrier.1
                );
                if barrier.1 == workers {
                    let _ = barrier_tx.send(seq);
                }
            }
            ApplierMsg::Resync(reply) => {
                let t0 = Instant::now();
                resyncs += 1;
                let removed = applier.resync_after_convergence();
                busy += t0.elapsed();
                let _ = reply.send(removed);
            }
            ApplierMsg::ShardDone => done += 1,
        }
    }
    ApplierReport {
        applier,
        reroute_latency,
        stages,
        events,
        installs,
        busy,
        pending_high_water,
        resyncs,
    }
}

#[cfg(test)]
mod tests {
    use super::{IngestEvent, ProcessedEvent};
    use std::mem::size_of;

    /// The records the shard and applier queues carry: a 64-byte event (pinned
    /// in `swift_bgp`) plus its session, ingest stamp and trace stamp, and on
    /// the applier hop one pointer for the rare accepted inference.
    #[test]
    fn queue_records_stay_small() {
        assert_eq!(size_of::<IngestEvent>(), 104);
        assert_eq!(size_of::<ProcessedEvent>(), 112);
    }
}
