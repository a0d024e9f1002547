//! # swift-traces
//!
//! The inputs of the SWIFT reproduction's evaluation (§6) and the model that
//! turns its reroutes into downtime:
//!
//! * the synthetic trace corpus, the stand-in for the RouteViews / RIPE RIS
//!   dataset (November 2016, 213 peering sessions) of §2.2.1 and §6:
//!   - [`BurstSizeModel`] / [`BurstRateModel`] / [`BurstShape`] — the
//!     calibrated burst size / rate / shape distributions;
//!   - [`corpus`] — the two-phase corpus generator (catalog + per-session
//!     materialisation) and the vantage routing-table builder;
//!   - [`extract_bursts`] — the sliding-window burst extraction of §2.2.1;
//!   - [`MultiSessionTrace`] — multi-session interleaved streams (per-session
//!     stream merging and the synthetic multi-session table generator behind
//!     the benchmark's `bigtable_inline` and `pathchange_inline` workloads);
//!   - [`soak`] — the corpus's vantage router: every session's primary
//!     routes plus two shared backup providers in one routing table, the
//!     table the benchmark's corpus workloads replay against;
//! * [`topology`] — §6.1's AS-level topology: a hyperbolic graph with
//!   Gao–Rexford relationships, and the paper's Fig. 1 fixture;
//! * [`sim`] — the C-BGP stand-in: policy-compliant routing over a topology,
//!   link failures and the burst a monitored session sees;
//! * [`dataplane`] — the data-plane convergence model behind Table 1 and
//!   Fig. 9.
//!
//! Both generators label what they produce the same way, as a
//! [`LabelledBurst`]: the stream, the failed link and the prefixes it
//! withdrew. Everything consumes and produces only `swift-bgp` types, so what
//! runs on it (the SWIFT inference engine in particular) exercises exactly
//! the code path it would on parsed MRT data.

#![warn(clippy::unwrap_used)]

mod builder;
mod collector;
mod convergence;
pub mod corpus;
mod cost;
mod engine;
mod extract;
mod graph;
mod hyperbolic;
mod interleave;
mod model;
mod policy;
mod relationships;
pub mod soak;
mod speaker;

pub use corpus::{Corpus, SessionTrace, TraceConfig};
pub use extract::{extract_bursts, ExtractConfig, ExtractedBurst};
pub use interleave::{InterleavedEvent, MultiSessionConfig, MultiSessionTrace};
pub use model::{BurstRateModel, BurstShape, BurstSizeModel};

use swift_bgp::{AsLink, MessageStream, PrefixSet};

/// A burst with its ground truth, as both generators produce it: the messages
/// one session saw around a link failure, the failed link, and the prefixes
/// the failure withdrew (the positives of the localisation metrics, §6.2.1).
#[derive(Debug, Clone)]
pub struct LabelledBurst {
    /// The link whose failure caused the burst, in undirected canonical form.
    pub failed_link: AsLink,
    /// The burst's messages, time-ordered.
    pub stream: MessageStream,
    /// The prefixes the failure withdrew; each has a withdrawal in `stream`.
    pub withdrawn: PrefixSet,
}

pub mod topology {
    //! AS-level topology generation (§6.1).
    //!
    //! The paper's controlled evaluation builds a 1,000-AS topology with the
    //! *Hyperbolic Graph Generator* (Aldecoa, Orsini, Krioukov 2015), sets
    //! the average node degree to 8.4 (the October-2016 CAIDA AS-level
    //! value), a power-law degree exponent of 2.1, and then derives business
    //! relationships: the three highest-degree ASes are fully-meshed Tier-1s,
    //! ASes adjacent to a Tier-1 are Tier-2s, and so on; same-tier
    //! adjacencies are peer-to-peer, and cross-tier adjacencies are
    //! customer-provider.
    //!
    //! * [`TopologyConfig`] — random hyperbolic graph generation with a
    //!   degree-targeted connection radius;
    //! * [`AsGraph`] — the AS graph with adjacency and reachability queries;
    //! * [`TierMap`] / [`Relationship`] — tier assignment and Gao–Rexford
    //!   relationship labelling;
    //! * [`Topology`] — the bundle (graph + tiers + relationships + per-AS
    //!   originated prefixes) plus hand-built fixtures such as the paper's
    //!   Fig. 1 topology.

    pub use crate::builder::{Topology, TopologyConfig};
    pub use crate::graph::AsGraph;
    pub use crate::relationships::{Relationship, TierMap};
}

pub mod sim {
    //! A deterministic, policy-compliant BGP control-plane simulator, the
    //! stand-in for C-BGP (§6.1).
    //!
    //! [`Engine`] computes Gao–Rexford-compliant routing over a
    //! [`Topology`](crate::topology::Topology), then replays link failures
    //! and records the messages crossing a monitored session. The burst it
    //! hands out is a [`LabelledBurst`](crate::LabelledBurst), which drives
    //! the controlled validation of the SWIFT inference (§6.2.2, §6.3.2).
    //!
    //! ```
    //! use swift_bgp::{AsLink, Asn};
    //! use swift_traces::sim::Engine;
    //! use swift_traces::topology::Topology;
    //!
    //! let mut engine = Engine::new(Topology::figure1_with_counts(10, 20, 20));
    //! engine.converge();
    //! engine.monitor_session(Asn(1), Asn(2));
    //! engine.fail_link(Asn(5), Asn(6));
    //! let burst = engine.take_burst(AsLink::new(5, 6), 1_000);
    //! let as8 = engine.topology().originated_prefixes(Asn(8));
    //! assert!(as8.iter().all(|p| burst.withdrawn.contains(p)));
    //! ```

    pub use crate::engine::{Engine, RunStats};
}

pub mod dataplane {
    //! The data-plane convergence model: the stand-in for the paper's Cisco
    //! Nexus testbed (§2.1.2) and SDN-based SWIFT deployment (§7).
    //!
    //! The model captures the two quantities that drive the paper's downtime
    //! numbers — the per-prefix FIB update cost and the pacing of withdrawal
    //! arrivals — and derives from them the probe-loss curves of Table 1 and
    //! Fig. 9(a), for both a vanilla BGP router and a SWIFTED one.

    pub use crate::convergence::{
        pick_probes, swifted_convergence, vanilla_convergence, ConvergenceResult,
    };
    pub use crate::cost::FibCostModel;
}
