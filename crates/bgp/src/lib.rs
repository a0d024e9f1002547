//! # swift-bgp
//!
//! BGP substrate for the SWIFT reproduction (SIGCOMM 2017).
//!
//! This crate provides the inter-domain routing primitives every other crate in
//! the workspace builds on:
//!
//! * [`Prefix`] — IPv4 prefixes with parsing, containment and iteration helpers.
//! * [`Asn`] / [`AsLink`] / [`AsPath`] — AS numbers, directed AS-level links and
//!   AS paths (including link extraction by position, which the SWIFT encoding
//!   scheme relies on).
//! * [`RouteAttributes`] and [`BgpMessage`] — the subset of BGP path attributes
//!   and UPDATE/WITHDRAW semantics the paper's algorithms consume.
//! * [`AdjRibIn`] and [`RoutingTable`] — per-peer and router-wide routing
//!   state with standard best-path selection, every route stored once as a
//!   16-byte record behind a table-wide [`PrefixInterner`] (`Prefix` → dense
//!   [`PrefixId`], whose sealed index the table's clones and its full
//!   feeds' inference engines share) and a table-wide attribute dictionary;
//!   routes are read as [`RouteRef`] views. The id → prefix [`PrefixList`]
//!   is chunked and shared by clones and snapshots.
//! * [`MessageStream`] and [`Session`] — timestamped per-session message streams,
//!   the exact input shape of the SWIFT inference algorithm (§4 of the paper).
//! * [`PathInterner`] / [`InternedRib`] — deduplicating AS-path storage with
//!   dense [`PathId`]s, the seeding format of the inference hot path.
//!
//! The crate is dependency-free and fully deterministic; all timestamps are
//! virtual microseconds ([`Timestamp`]).

#![warn(clippy::unwrap_used)]

mod as_path;
mod attributes;
mod interner;
mod message;
mod prefix;
mod rib;
mod session;
mod table;

pub use as_path::{AsLink, AsPath, Asn};
pub use attributes::{Origin, RouteAttributes};
pub use interner::{InternedRib, PathId, PathInterner};
pub use message::{BgpMessage, ElementaryEvent, MessageKind};
pub use prefix::{FoldBuildHasher, FoldHasher, Prefix, PrefixError, PrefixSet};
pub use rib::{AdjRibIn, PrefixId, PrefixInterner, PrefixList, Route, RouteRef};
pub use session::{MessageStream, PeerId, Session, SessionId};
pub use table::RoutingTable;

/// Virtual time in microseconds since the start of a trace or simulation.
///
/// The whole workspace uses virtual time rather than wall-clock time so that
/// experiments are deterministic and tests run instantly.
pub type Timestamp = u64;

/// One second expressed in [`Timestamp`] units (microseconds).
pub const SECOND: Timestamp = 1_000_000;

/// One millisecond expressed in [`Timestamp`] units (microseconds).
pub const MILLISECOND: Timestamp = 1_000;
