//! swift-telemetry — the observability layer under the SWIFT runtime.
//!
//! SWIFT's headline claim is restoring connectivity within ~2 s of a remote
//! outage; defending that number requires knowing *where* pipeline time goes,
//! without stopping the run. This crate supplies the three pieces the
//! runtime wires through ingest → shard → applier:
//!
//! - [`LogHistogram`]: a mergeable log-linear (HDR-style) histogram with a
//!   ≤ 1/32 relative-error bound that records reroute latency and the
//!   traced stage spans — cross-shard merges are exact bucket adds.
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
mod trace;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use histogram::{HistogramSummary, LogHistogram, GROUP_BITS};
pub use trace::{StageHistograms, TraceSampler, TraceStamp};
