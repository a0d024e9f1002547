//! Elementary per-prefix events.
//!
//! A real BGP UPDATE can announce several prefixes sharing one attribute set and
//! withdraw several others. SWIFT's inference algorithm, however, operates at
//! per-prefix granularity: every withdrawal and every implicit withdrawal
//! (re-announcement with a different path) individually updates the fit-score
//! counters. So the one event type here is the per-prefix [`ElementaryEvent`].

use crate::attributes::RouteAttributes;
use crate::prefix::Prefix;
use crate::Timestamp;

/// A per-prefix routing event, the unit the SWIFT algorithms consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementaryEvent {
    /// `prefix` is now reachable via the path in `attrs` (possibly replacing a
    /// previous route — an implicit withdrawal).
    Announce {
        /// Reception time.
        timestamp: Timestamp,
        /// The announced prefix.
        prefix: Prefix,
        /// Attributes of the new route.
        attrs: RouteAttributes,
    },
    /// `prefix` is no longer reachable through this session.
    Withdraw {
        /// Reception time.
        timestamp: Timestamp,
        /// The withdrawn prefix.
        prefix: Prefix,
    },
}

impl ElementaryEvent {
    /// The event's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            ElementaryEvent::Announce { timestamp, .. }
            | ElementaryEvent::Withdraw { timestamp, .. } => *timestamp,
        }
    }

    /// The prefix the event concerns.
    pub fn prefix(&self) -> Prefix {
        match self {
            ElementaryEvent::Announce { prefix, .. } | ElementaryEvent::Withdraw { prefix, .. } => {
                *prefix
            }
        }
    }

    /// Returns `true` for withdrawal events.
    pub fn is_withdraw(&self) -> bool {
        matches!(self, ElementaryEvent::Withdraw { .. })
    }
}
