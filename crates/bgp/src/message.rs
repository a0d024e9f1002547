//! BGP UPDATE messages and elementary per-prefix events.
//!
//! A real BGP UPDATE can announce several prefixes sharing one attribute set and
//! withdraw several others. SWIFT's inference algorithm, however, operates at
//! per-prefix granularity: every withdrawal and every implicit withdrawal
//! (re-announcement with a different path) individually updates the fit-score
//! counters. [`BgpMessage`] models the on-the-wire grouping; its
//! [`elementary_events`](BgpMessage::elementary_events) method flattens it into
//! the per-prefix [`ElementaryEvent`] stream that the algorithms consume.

use crate::attributes::RouteAttributes;
use crate::prefix::Prefix;
use crate::Timestamp;

/// The payload of a BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageKind {
    /// An UPDATE announcing `prefixes` with the shared `attrs`, and withdrawing
    /// `withdrawn`. Either list may be empty, but not both.
    Update {
        /// Prefixes announced with the shared attributes.
        prefixes: Vec<Prefix>,
        /// Attributes shared by all announced prefixes (ignored if none).
        attrs: RouteAttributes,
        /// Prefixes withdrawn by this message.
        withdrawn: Vec<Prefix>,
    },
    /// A KEEPALIVE (carried for realism of traces; ignored by the algorithms).
    Keepalive,
}

/// A timestamped BGP message received on one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpMessage {
    /// Reception time, in virtual microseconds.
    pub timestamp: Timestamp,
    /// The message payload.
    pub kind: MessageKind,
}

impl BgpMessage {
    /// Convenience constructor: an announcement of a single prefix.
    pub fn announce(timestamp: Timestamp, prefix: Prefix, attrs: RouteAttributes) -> Self {
        BgpMessage {
            timestamp,
            kind: MessageKind::Update {
                prefixes: vec![prefix],
                attrs,
                withdrawn: Vec::new(),
            },
        }
    }

    /// Convenience constructor: a withdrawal of a single prefix.
    pub fn withdraw(timestamp: Timestamp, prefix: Prefix) -> Self {
        BgpMessage {
            timestamp,
            kind: MessageKind::Update {
                prefixes: Vec::new(),
                attrs: RouteAttributes::default(),
                withdrawn: vec![prefix],
            },
        }
    }

    /// Convenience constructor: a keepalive.
    pub fn keepalive(timestamp: Timestamp) -> Self {
        BgpMessage {
            timestamp,
            kind: MessageKind::Keepalive,
        }
    }

    /// Number of prefixes withdrawn by this message.
    pub fn withdrawal_count(&self) -> usize {
        match &self.kind {
            MessageKind::Update { withdrawn, .. } => withdrawn.len(),
            MessageKind::Keepalive => 0,
        }
    }

    /// Number of prefixes announced by this message.
    pub fn announcement_count(&self) -> usize {
        match &self.kind {
            MessageKind::Update { prefixes, .. } => prefixes.len(),
            MessageKind::Keepalive => 0,
        }
    }

    /// Flattens the message into timestamped per-prefix events, withdrawals
    /// first (as routers process withdrawn-routes before NLRI).
    pub fn elementary_events(&self) -> Vec<ElementaryEvent> {
        match &self.kind {
            MessageKind::Keepalive => Vec::new(),
            MessageKind::Update {
                prefixes,
                attrs,
                withdrawn,
            } => {
                let mut out = Vec::with_capacity(prefixes.len() + withdrawn.len());
                for p in withdrawn {
                    out.push(ElementaryEvent::Withdraw {
                        timestamp: self.timestamp,
                        prefix: *p,
                    });
                }
                for p in prefixes {
                    out.push(ElementaryEvent::Announce {
                        timestamp: self.timestamp,
                        prefix: *p,
                        attrs: attrs.clone(),
                    });
                }
                out
            }
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::AsPath;

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    #[test]
    fn single_announce_and_withdraw() {
        let attrs = RouteAttributes::from_path(AsPath::new([2u32, 5, 6]));
        let a = BgpMessage::announce(10, p(1), attrs.clone());
        assert_eq!(a.announcement_count(), 1);
        assert_eq!(a.withdrawal_count(), 0);

        let w = BgpMessage::withdraw(20, p(1));
        assert_eq!(w.withdrawal_count(), 1);
    }

    #[test]
    fn packed_messages_flatten_in_order() {
        let attrs = RouteAttributes::from_path(AsPath::new([2u32, 5]));
        let m = BgpMessage {
            timestamp: 5,
            kind: MessageKind::Update {
                prefixes: vec![p(10), p(11)],
                attrs: attrs.clone(),
                withdrawn: vec![p(20)],
            },
        };
        let ev = m.elementary_events();
        assert_eq!(ev.len(), 3);
        assert!(ev[0].is_withdraw());
        assert_eq!(ev[0].prefix(), p(20));
        assert!(!ev[1].is_withdraw());
        assert!(!ev[2].is_withdraw());
        assert!(ev.iter().all(|e| e.timestamp() == 5));
    }

    #[test]
    fn keepalive_has_no_events() {
        let k = BgpMessage::keepalive(1);
        assert!(k.elementary_events().is_empty());
        assert_eq!(k.withdrawal_count(), 0);
        assert_eq!(k.announcement_count(), 0);
    }

    #[test]
    fn packed_withdraw_counts() {
        let m = BgpMessage {
            timestamp: 3,
            kind: MessageKind::Update {
                prefixes: Vec::new(),
                attrs: RouteAttributes::default(),
                withdrawn: vec![p(1), p(2), p(3)],
            },
        };
        assert_eq!(m.withdrawal_count(), 3);
        assert_eq!(m.elementary_events().len(), 3);
        assert!(m.elementary_events().iter().all(|e| e.is_withdraw()));
    }

    #[test]
    fn announce_packed_counts() {
        let attrs = RouteAttributes::from_path(AsPath::new([7u32]));
        let m = BgpMessage {
            timestamp: 3,
            kind: MessageKind::Update {
                prefixes: vec![p(1), p(2)],
                attrs,
                withdrawn: Vec::new(),
            },
        };
        assert_eq!(m.announcement_count(), 2);
        assert!(m.elementary_events().iter().all(|e| !e.is_withdraw()));
    }
}
