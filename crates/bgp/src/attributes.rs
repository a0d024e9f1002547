//! BGP path attributes.
//!
//! SWIFT's algorithms mostly consume the AS path, but the surrounding machinery
//! (best-path selection, update packing, rerouting policy input) needs the
//! attributes that decide between routes: ORIGIN, LOCAL_PREF and MED.
//! Communities are not carried: nothing here sets or reads them, and a
//! `Vec` of them would add 24 bytes to every route and event record (see
//! "Storage" in [`crate::as_path`]).

use crate::as_path::AsPath;
use std::fmt;

/// The BGP ORIGIN attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Origin {
    /// Learned from an interior gateway protocol.
    #[default]
    Igp,
    /// Learned from EGP (historical).
    Egp,
    /// Origin unknown / redistributed.
    Incomplete,
}

impl Origin {
    /// Preference rank used in best-path selection (lower is preferred).
    pub fn rank(&self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        };
        f.write_str(s)
    }
}

/// The set of path attributes attached to an announced route.
///
/// `local_pref` defaults to 100 as on most router platforms. Attribute equality
/// is what decides whether two prefixes can share a packed UPDATE message
/// (see [`crate::message::BgpMessage`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RouteAttributes {
    /// The AS path of the route, nearest AS first.
    pub as_path: AsPath,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// LOCAL_PREF (higher is preferred). Defaults to 100 when unset.
    pub local_pref: Option<u32>,
    /// Multi-Exit Discriminator (lower is preferred).
    pub med: Option<u32>,
}

impl RouteAttributes {
    /// Creates attributes carrying just an AS path, all else default.
    pub fn from_path(as_path: AsPath) -> Self {
        RouteAttributes {
            as_path,
            ..Default::default()
        }
    }

    /// The effective LOCAL_PREF (default 100).
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// The effective MED (default 0).
    pub fn effective_med(&self) -> u32 {
        self.med.unwrap_or(0)
    }

    /// Builder-style setter for LOCAL_PREF.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = Some(lp);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::AsPath;

    #[test]
    fn origin_ranking() {
        assert!(Origin::Igp.rank() < Origin::Egp.rank());
        assert!(Origin::Egp.rank() < Origin::Incomplete.rank());
        assert_eq!(Origin::default(), Origin::Igp);
    }

    #[test]
    fn attribute_defaults() {
        let a = RouteAttributes::from_path(AsPath::new([1u32, 2, 3]));
        assert_eq!(a.effective_local_pref(), 100);
        assert_eq!(a.effective_med(), 0);
    }

    #[test]
    fn builder_setters() {
        let mut a = RouteAttributes::from_path(AsPath::new([1u32])).with_local_pref(200);
        a.med = Some(10);
        assert_eq!(a.effective_local_pref(), 200);
        assert_eq!(a.effective_med(), 10);
    }

    #[test]
    fn display_origin() {
        assert_eq!(Origin::Igp.to_string(), "IGP");
        assert_eq!(Origin::Incomplete.to_string(), "INCOMPLETE");
    }
}
