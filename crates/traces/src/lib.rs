//! # swift-traces
//!
//! Synthetic BGP trace corpus for the SWIFT reproduction — the stand-in for
//! the RouteViews / RIPE RIS dataset (November 2016, 213 peering sessions)
//! used by §2.2.1 and §6 of the paper.
//!
//! * [`model`] — the calibrated burst size / rate / shape distributions;
//! * [`corpus`] — the two-phase corpus generator (catalog + per-session
//!   materialisation) and the vantage routing-table builder;
//! * [`extract`] — the sliding-window burst extraction of §2.2.1;
//! * [`interleave`] — multi-session interleaved streams (per-session stream
//!   merging and the synthetic concurrent-burst workload the sharded runtime
//!   is benchmarked on);
//! * [`soak`] — the streaming corpus-scale replay: a lazy k-way merge of
//!   every session's bursts with session up/down lifecycle markers and
//!   convergence points, sized so the full month-long corpus flows through
//!   without materialising every message stream.
//!
//! The corpus consumes and produces only `swift-bgp` types, so everything that
//! runs on it (the SWIFT inference engine in particular) exercises exactly the
//! code path it would on parsed MRT data.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used)]

pub mod corpus;
pub mod extract;
pub mod interleave;
pub mod model;
pub mod soak;

pub use corpus::{
    BurstMeta, Corpus, MaterializedBurst, SessionMeta, SessionRib, SessionTrace, TraceConfig,
};
pub use extract::{extract_bursts, extract_from_times, ExtractConfig, ExtractedBurst};
pub use interleave::{interleave_streams, InterleavedEvent, MultiSessionConfig, MultiSessionTrace};
pub use model::{BurstRateModel, BurstShape, BurstSizeModel};
pub use soak::{
    pick_feasible_flaps, ReplayItem, SoakConfig, SoakReplay, SOAK_BACKUP_A, SOAK_BACKUP_B,
};
