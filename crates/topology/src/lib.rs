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
//! * [`hyperbolic`] — random hyperbolic graph generation with a degree-targeted
//!   connection radius;
//! * [`graph`] — the AS graph structure with adjacency and reachability queries;
//! * [`relationships`] — tier assignment and Gao–Rexford relationship labelling;
//! * [`builder`] — the [`Topology`] bundle (graph + tiers +
//!   relationships + per-AS originated prefixes) plus hand-built fixtures such
//!   as the paper's Fig. 1 topology.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used)]

pub mod builder;
pub mod graph;
pub mod hyperbolic;
pub mod relationships;

pub use builder::{Topology, TopologyConfig};
pub use graph::AsGraph;
pub use hyperbolic::{HyperbolicConfig, HyperbolicGenerator};
pub use relationships::{Relationship, TierMap};
