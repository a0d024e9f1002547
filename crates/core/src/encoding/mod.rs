//! The SWIFT data-plane encoding scheme (§5 of the paper).
//!
//! * [`TagLayout`] / [`TagRule`] — tag bit layout and ternary match rules;
//! * [`EncodingPlan`] — per-position link dictionaries under a bit budget;
//! * [`ReroutingPolicy`] — operator rerouting policies;
//! * [`select_backup_among`] — the backup next-hop selector the stage-1
//!   retag calls;
//! * [`TwoStageTable`] — the two-stage forwarding table and reroute-rule
//!   installation.

mod allocator;
mod backup;
mod policy;
mod tag;
mod two_stage;

pub use allocator::EncodingPlan;
pub use backup::select_backup_among;
pub use policy::ReroutingPolicy;
pub use tag::{TagLayout, TagRule};
pub use two_stage::{RerouteId, Stage2Rule, TwoStageTable};
