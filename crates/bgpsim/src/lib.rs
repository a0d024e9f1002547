//! # swift-bgpsim
//!
//! A deterministic, policy-compliant BGP control-plane simulator — the
//! reproduction's stand-in for C-BGP (§6.1 of the SWIFT paper).
//!
//! The simulator computes Gao–Rexford-compliant routing over a
//! [`swift_topology::Topology`], then replays link failures and records the
//! message stream crossing a monitored session together with the ground-truth
//! failed link. Those [`GroundTruthBurst`]s drive the controlled validation of
//! the SWIFT inference algorithm (§6.2.2, §6.3.2).
//!
//! ```
//! use swift_bgpsim::Engine;
//! use swift_topology::Topology;
//! use swift_bgp::{AsLink, Asn};
//!
//! let mut engine = Engine::new(Topology::figure1_with_counts(10, 20, 20));
//! engine.converge();
//! engine.monitor_session(Asn(1), Asn(2));
//! engine.fail_link(Asn(5), Asn(6));
//! let burst = engine.take_burst(AsLink::new(5, 6));
//! assert!(burst.withdrawn_origins().contains(&Asn(8)));
//! ```

#![warn(clippy::unwrap_used)]

mod collector;
mod engine;
mod policy;
mod speaker;

pub use collector::{CapturedMessage, GroundTruthBurst};
pub use engine::{Engine, RunStats};
