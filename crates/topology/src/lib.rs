//! # swift-topology
//!
//! AS-level topology generation for the SWIFT reproduction.
//!
//! The paper's controlled evaluation (§6.1) builds a 1,000-AS topology with the
//! *Hyperbolic Graph Generator* (Aldecoa, Orsini, Krioukov 2015), sets the
//! average node degree to 8.4 (the October-2016 CAIDA AS-level value), a
//! power-law degree exponent of 2.1, and then derives business relationships:
//! the three highest-degree ASes are fully-meshed Tier-1s, ASes adjacent to a
//! Tier-1 are Tier-2s, and so on; same-tier adjacencies are peer-to-peer, and
//! cross-tier adjacencies are customer-provider.
//!
//! This crate reimplements that pipeline:
//!
//! * random hyperbolic graph generation with a degree-targeted connection
//!   radius, behind [`TopologyConfig`];
//! * [`AsGraph`] — the AS graph structure with adjacency and reachability
//!   queries;
//! * [`TierMap`] / [`Relationship`] — tier assignment and Gao–Rexford
//!   relationship labelling;
//! * [`Topology`] — the bundle (graph + tiers + relationships + per-AS
//!   originated prefixes) plus hand-built fixtures such as the paper's Fig. 1
//!   topology.

#![warn(clippy::unwrap_used)]

mod builder;
mod graph;
mod hyperbolic;
mod relationships;

pub use builder::{Topology, TopologyConfig};
pub use graph::AsGraph;
pub use relationships::{Relationship, TierMap};
