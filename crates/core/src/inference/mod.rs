//! The SWIFT inference algorithm (§4 of the paper).
//!
//! The pipeline, per BGP session:
//!
//! 1. burst detection — a sliding-window detector spots significant increases
//!    in the withdrawal frequency (burst start/end);
//! 2. [`LinkCounters`] — per-link `W(l,t)` / `P(l,t)` counters are maintained
//!    from the session's routing state and the incoming events, over an
//!    interned-path inverted index ([`IdBitSet`]) so link-set queries are
//!    bitset unions rather than RIB scans;
//! 3. [`Score`] — links are ranked by the Fit Score, the weighted geometric
//!    mean of Withdrawal Share and Path Share (incrementally via
//!    [`LinkRanker`] on the hot path);
//! 4. [`infer_links`] — the inferred set is selected: all maximum-FS links,
//!    plus greedy common-endpoint aggregation for concurrent (router)
//!    failures;
//! 5. [`predict`] — the inferred links are conservatively translated into the
//!    set of prefixes to reroute;
//! 6. [`InferenceEngine`] orchestrates the above and applies the history
//!    model's plausibility gating.

mod aggregate;
mod bitset;
mod burst_detect;
mod counters;
mod engine;
mod fit_score;
mod kernels;
mod predictor;

pub use aggregate::{infer_links, infer_links_ranked, InferredLinks};
pub use bitset::IdBitSet;
pub use counters::{LinkCounters, LinkId};
pub use engine::{EngineStatus, InferenceEngine, InferenceResult};
pub use fit_score::{LinkRanker, Score};
pub use kernels::{delta_union_counts, fused_union_counts, KernelStats, ScoreScratch};
pub use predictor::{predict, Prediction, PrefixSnapshot};
