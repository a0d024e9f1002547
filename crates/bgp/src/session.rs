//! Peer identifiers and timestamped per-session message streams.
//!
//! The SWIFT inference algorithm runs *per BGP session* (§4.1): each session's
//! message stream is analysed independently, which also enables parallelism.
//! [`MessageStream`] is an always-time-ordered list of one session's
//! [`ElementaryEvent`]s.

use crate::message::ElementaryEvent;
use crate::Timestamp;
use std::fmt;

/// Identifier of a BGP peer (an eBGP or iBGP neighbour of the SWIFTED router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> Self {
        PeerId(v)
    }
}

/// A time-ordered list of the per-prefix events received on one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStream {
    events: Vec<ElementaryEvent>,
}

impl MessageStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a stream from events, sorting them by timestamp (stable, so
    /// events with equal timestamps keep their arrival order).
    pub fn from_events(mut events: Vec<ElementaryEvent>) -> Self {
        events.sort_by_key(ElementaryEvent::timestamp);
        MessageStream { events }
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in timestamp order.
    pub fn events(&self) -> &[ElementaryEvent] {
        &self.events
    }

    /// Iterates over the events, in timestamp order, by value.
    pub fn elementary_events(&self) -> impl Iterator<Item = ElementaryEvent> + '_ {
        self.events.iter().cloned()
    }

    /// Total number of prefix withdrawals across the stream.
    pub fn total_withdrawals(&self) -> usize {
        self.events.iter().filter(|e| e.is_withdraw()).count()
    }

    /// Total number of prefix announcements across the stream.
    pub fn total_announcements(&self) -> usize {
        self.len() - self.total_withdrawals()
    }

    /// Timestamp of the first event, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.events.first().map(ElementaryEvent::timestamp)
    }

    /// Timestamp of the last event, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.events.last().map(ElementaryEvent::timestamp)
    }

    /// Merges two streams into a new ordered stream; at equal timestamps,
    /// `self`'s events come first.
    pub fn merge(&self, other: &MessageStream) -> MessageStream {
        let mut all = Vec::with_capacity(self.len() + other.len());
        all.extend_from_slice(&self.events);
        all.extend_from_slice(&other.events);
        MessageStream::from_events(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::RouteAttributes;
    use crate::prefix::Prefix;

    fn wd(t: Timestamp, i: u32) -> ElementaryEvent {
        ElementaryEvent::Withdraw {
            timestamp: t,
            prefix: Prefix::nth_slash24(i),
        }
    }

    fn ann(t: Timestamp, i: u32) -> ElementaryEvent {
        ElementaryEvent::Announce {
            timestamp: t,
            prefix: Prefix::nth_slash24(i),
            attrs: RouteAttributes::default(),
        }
    }

    #[test]
    fn from_events_sorts_and_keeps_arrival_order_on_ties() {
        // The pair at t = 20 arrives as prefix 9, then prefix 2: the reverse
        // of prefix order, so a sort that broke ties by prefix would swap it.
        let s = MessageStream::from_events(vec![wd(30, 1), wd(20, 9), ann(20, 2), wd(10, 3)]);
        assert_eq!(s.start(), Some(10));
        assert_eq!(s.end(), Some(30));
        assert_eq!(
            s.events(),
            &[wd(10, 3), wd(20, 9), ann(20, 2), wd(30, 1)][..]
        );
    }

    #[test]
    fn counting() {
        let s = MessageStream::from_events((0..10).map(|i| wd(i, i as u32)).collect());
        assert_eq!(s.len(), 10);
        assert_eq!(s.total_withdrawals(), 10);
        assert_eq!(s.total_announcements(), 0);
        let s = s.merge(&MessageStream::from_events(vec![ann(3, 20), ann(4, 21)]));
        assert_eq!(s.total_withdrawals(), 10);
        assert_eq!(s.total_announcements(), 2);
    }

    #[test]
    fn merge_interleaves() {
        let a = MessageStream::from_events(vec![wd(1, 1), wd(3, 2)]);
        let b = MessageStream::from_events(vec![ann(2, 3), ann(4, 4)]);
        let m = a.merge(&b);
        let ts: Vec<_> = m.events().iter().map(ElementaryEvent::timestamp).collect();
        assert_eq!(ts, vec![1, 2, 3, 4]);
        assert_eq!(m.total_withdrawals(), 2);
        assert_eq!(m.total_announcements(), 2);
    }

    #[test]
    fn elementary_event_iteration() {
        let s = MessageStream::from_events(vec![ann(2, 2), wd(1, 1)]);
        let ev: Vec<_> = s.elementary_events().collect();
        assert_eq!(ev, vec![wd(1, 1), ann(2, 2)]);
    }

    #[test]
    fn empty_stream_edge_cases() {
        let s = MessageStream::new();
        assert!(s.is_empty());
        assert_eq!(s.start(), None);
        assert_eq!(s.end(), None);
        assert_eq!(s.total_withdrawals(), 0);
        assert_eq!(s.elementary_events().count(), 0);
    }

    #[test]
    fn display_ids() {
        assert_eq!(PeerId(3).to_string(), "peer3");
    }
}
