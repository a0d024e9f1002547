//! The SWIFT inference algorithm (§4 of the paper).
//!
//! The pipeline, per BGP session:
//!
//! 1. [`burst_detect`] — a sliding-window detector spots significant increases
//!    in the withdrawal frequency (burst start/end);
//! 2. [`counters`] — per-link `W(l,t)` / `P(l,t)` counters are maintained from
//!    the session's routing state and the incoming events, over an
//!    interned-path inverted index ([`bitset`]) so link-set queries are bitset
//!    unions rather than RIB scans;
//! 3. [`fit_score`] — links are ranked by the Fit Score, the weighted geometric
//!    mean of Withdrawal Share and Path Share (incrementally via
//!    [`LinkRanker`] on the hot path);
//! 4. [`aggregate`] — the inferred set is selected: all maximum-FS links, plus
//!    greedy common-endpoint aggregation for concurrent (router) failures;
//! 5. [`predictor`] — the inferred links are conservatively translated into the
//!    set of prefixes to reroute;
//! 6. [`engine`] — [`InferenceEngine`] orchestrates the above and applies the
//!    history model's plausibility gating.

pub mod aggregate;
pub mod bitset;
pub mod burst_detect;
pub mod counters;
pub mod engine;
pub mod fit_score;
pub mod kernels;
pub mod predictor;

pub use aggregate::{
    infer_links, infer_links_materialized, infer_links_ranked, infer_links_scan, InferredLinks,
};
pub use bitset::IdBitSet;
pub use burst_detect::{BurstDetector, BurstEvent, WindowHistory};
pub use counters::{LinkCounters, LinkId};
pub use engine::{EngineStatus, InferenceEngine, InferenceResult};
pub use fit_score::{
    fit_score_value, path_share, rank_links, score_link, score_link_set,
    score_link_set_materialized, score_link_set_scan, withdrawal_share, LinkRanker, Score,
};
pub use kernels::{delta_union_counts, fused_union_counts, KernelStats, ScoreScratch};
pub use predictor::{predict, predict_scan, Prediction};
