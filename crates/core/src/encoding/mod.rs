//! The SWIFT data-plane encoding scheme (§5 of the paper).
//!
//! * [`tag`] — tag bit layout and ternary match rules;
//! * [`allocator`] — per-position link dictionaries under a bit budget;
//! * [`policy`] — operator rerouting policies;
//! * [`backup`] — the backup next-hop selector the stage-1 retag calls;
//! * [`two_stage`] — the two-stage forwarding table and reroute-rule
//!   installation.

pub mod allocator;
pub mod backup;
pub mod policy;
pub mod tag;
pub mod two_stage;

pub use allocator::EncodingPlan;
pub use backup::select_backup_among;
pub use policy::ReroutingPolicy;
pub use tag::{TagLayout, TagRule};
pub use two_stage::{RerouteId, Stage2Rule, TwoStageTable};
