//! # swift-core
//!
//! The SWIFT predictive fast-reroute framework (Holterbach et al., SIGCOMM
//! 2017): the inference algorithm that localises remote outages from the first
//! few thousand BGP withdrawals of a burst, and the data-plane encoding scheme
//! that reroutes every affected prefix with a handful of rule updates.
//!
//! The crate is organised exactly like the paper:
//!
//! * [`inference`] — burst detection, the WS/PS/Fit-Score link ranking, the
//!   history model and the prefix prediction (§4);
//! * [`encoding`] — tag layout, per-position bit allocation, backup next-hop
//!   computation, rerouting policies and the two-stage forwarding table (§5);
//! * [`pipeline`] — the reroute pipeline split into its per-session half
//!   ([`SessionEngine`]) and its serialized half ([`Applier`]), shared by the
//!   inline router below and the sharded `swift-runtime`;
//! * [`SwiftRouter`] — the integration of both halves on a border router
//!   (§3);
//! * [`metrics`] — the TPR/FPR/CPR machinery used by the evaluation (§6);
//! * [`SwiftConfig`] — every tunable, with the paper's defaults.
//!
//! ```
//! use swift_core::{SwiftConfig, SwiftRouter};
//! use swift_core::encoding::ReroutingPolicy;
//! use swift_bgp::RoutingTable;
//!
//! // An (empty) router: real tables come from swift-traces' simulator or corpus.
//! let router = SwiftRouter::new(
//!     SwiftConfig::default(),
//!     RoutingTable::new(),
//!     ReroutingPolicy::allow_all(),
//! );
//! assert_eq!(router.actions().len(), 0);
//! ```

#![warn(clippy::unwrap_used)]

mod config;
mod dirty;
pub mod encoding;
pub mod inference;
pub mod metrics;
pub mod pipeline;
mod router;

pub use config::{EncodingConfig, InferenceConfig, SwiftConfig};
pub use encoding::{EncodingPlan, ReroutingPolicy, TwoStageTable};
pub use inference::{InferenceEngine, InferenceResult, InferredLinks, Prediction, PrefixSnapshot};
pub use metrics::{Classification, Quadrant};
pub use pipeline::{session_engines, Applier, SessionEngine};
pub use router::{RerouteAction, SwiftRouter};
