//! # swift
//!
//! Umbrella crate of the SWIFT reproduction (Holterbach et al., *SWIFT:
//! Predictive Fast Reroute*, SIGCOMM 2017). It re-exports the workspace crates
//! so downstream users can depend on a single crate:
//!
//! * [`bgp`] — BGP substrate (prefixes, AS paths, messages, RIBs, sessions);
//! * [`traces`] — the evaluation's inputs: the synthetic RouteViews/RIS-like
//!   trace corpus, AS-level topology generation
//!   ([`traces::topology`]), the policy-compliant control-plane simulator
//!   ([`traces::sim`]) and the data-plane convergence/downtime model
//!   ([`traces::dataplane`]);
//! * [`core`] — the SWIFT inference algorithm and encoding scheme;
//! * [`runtime`] — the sharded multi-session runtime driving every peer
//!   engine concurrently;
//! * [`telemetry`] — mergeable log-linear histograms, sampled pipeline
//!   tracing and a flight recorder.
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! `swift-bench eval`, which reproduces every table and figure of the paper.

#![warn(clippy::unwrap_used)]

pub use swift_bgp as bgp;
pub use swift_core as core;
pub use swift_runtime as runtime;
pub use swift_telemetry as telemetry;
pub use swift_traces as traces;

pub use swift_core::{RerouteAction, SwiftConfig, SwiftRouter};
pub use swift_runtime::{RuntimeConfig, RuntimeReport, ShardedRuntime};
