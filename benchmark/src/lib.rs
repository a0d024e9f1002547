//! The repo benchmark: cycle-replay workloads over the public SWIFT API, an
//! untraced end-to-end run and a traced per-layer run. See `README.md` in
//! this directory.

pub mod host;
pub mod layers;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
