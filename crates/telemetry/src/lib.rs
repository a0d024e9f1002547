//! swift-telemetry — the observability layer under the SWIFT runtime.
//!
//! SWIFT's headline claim is restoring connectivity within ~2 s of a remote
//! outage; defending that number requires knowing *where* pipeline time goes,
//! live, without stopping the run. This crate supplies the four pieces the
//! runtime wires through ingest → shard → applier:
//!
//! - [`Registry`] / [`Counter`] / [`Gauge`]: named atomic metrics the
//!   runtime's throughput counters migrate onto, snapshot-able mid-run.
//! - [`LogHistogram`]: a mergeable log-linear (HDR-style) histogram with a
//!   ≤ 1/32 relative-error bound that replaces the evicting sample ring for
//!   event and reroute latency — cross-shard merges are exact bucket adds.
//! - [`TraceStamp`] / [`TraceSampler`] / [`StageHistograms`]: sampled 1-in-N
//!   pipeline tracing attributing reroute latency to queue wait vs inference
//!   vs install.
//! - [`FlightRecorder`]: a fixed-size ring of recent lifecycle events
//!   (registers, teardowns, barriers, resyncs, sheds, shutdown) that a
//!   failing run can dump for its post-mortem.
//!
//! The crate has zero dependencies: it sits under the runtime's hot path and
//! must never drag a build graph (or an allocator-happy serializer) in with
//! it.

#![warn(clippy::unwrap_used)]

mod flight;
mod histogram;
mod registry;
mod trace;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use histogram::{HistogramSummary, LogHistogram, GROUP_BITS};
pub use registry::{Counter, Gauge, Registry};
pub use trace::{StageHistograms, TraceSampler, TraceStamp};
