//! # swift-dataplane
//!
//! Data-plane convergence model for the SWIFT reproduction: the stand-in for
//! the paper's Cisco Nexus testbed (§2.1.2) and SDN-based SWIFT deployment
//! (§7).
//!
//! The model captures the two quantities that drive the paper's downtime
//! numbers — the per-prefix FIB update cost and the pacing of withdrawal
//! arrivals — and derives from them the probe-loss curves of Table 1 and
//! Fig. 9(a), for both a vanilla BGP router and a SWIFTED one.

#![warn(clippy::unwrap_used)]

mod convergence;
mod cost;

pub use convergence::{pick_probes, swifted_convergence, vanilla_convergence, ConvergenceResult};
pub use cost::FibCostModel;
