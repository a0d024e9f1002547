//! Peer identifiers and timestamped per-session message streams.
//!
//! The SWIFT inference algorithm runs *per BGP session* (§4.1): each session's
//! message stream is analysed independently, which also enables parallelism.
//! [`MessageStream`] is an always-time-ordered sequence of [`BgpMessage`]s and
//! offers the windowed withdrawal counting that burst detection builds on.

use crate::message::{BgpMessage, ElementaryEvent};
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

/// A time-ordered stream of BGP messages received on one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStream {
    messages: Vec<BgpMessage>,
}

impl MessageStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a stream from messages, sorting them by timestamp (stable, so
    /// messages with equal timestamps keep their relative order).
    pub fn from_messages(mut messages: Vec<BgpMessage>) -> Self {
        messages.sort_by_key(|m| m.timestamp);
        MessageStream { messages }
    }

    /// Appends a message, keeping the stream ordered. Appending in
    /// non-decreasing timestamp order is O(1); out-of-order pushes fall back to
    /// an insertion.
    pub fn push(&mut self, msg: BgpMessage) {
        match self.messages.last() {
            Some(last) if last.timestamp > msg.timestamp => {
                let idx = self
                    .messages
                    .partition_point(|m| m.timestamp <= msg.timestamp);
                self.messages.insert(idx, msg);
            }
            _ => self.messages.push(msg),
        }
    }

    /// Number of messages in the stream.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Returns `true` if the stream holds no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The messages, in timestamp order.
    pub fn messages(&self) -> &[BgpMessage] {
        &self.messages
    }

    /// Iterates over per-prefix elementary events in timestamp order.
    pub fn elementary_events(&self) -> impl Iterator<Item = ElementaryEvent> + '_ {
        self.messages.iter().flat_map(|m| m.elementary_events())
    }

    /// Total number of prefix withdrawals across the stream.
    pub fn total_withdrawals(&self) -> usize {
        self.messages.iter().map(|m| m.withdrawal_count()).sum()
    }

    /// Total number of prefix announcements across the stream.
    pub fn total_announcements(&self) -> usize {
        self.messages.iter().map(|m| m.announcement_count()).sum()
    }

    /// Timestamp of the first message, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.messages.first().map(|m| m.timestamp)
    }

    /// Timestamp of the last message, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.messages.last().map(|m| m.timestamp)
    }

    /// Duration between first and last message (0 for empty or singleton).
    pub fn duration(&self) -> Timestamp {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => 0,
        }
    }

    /// Number of prefix withdrawals received in the half-open window
    /// `[from, to)`.
    pub fn withdrawals_in_window(&self, from: Timestamp, to: Timestamp) -> usize {
        let lo = self.messages.partition_point(|m| m.timestamp < from);
        let hi = self.messages.partition_point(|m| m.timestamp < to);
        self.messages[lo..hi]
            .iter()
            .map(|m| m.withdrawal_count())
            .sum()
    }

    /// Merges two streams into a new ordered stream.
    pub fn merge(&self, other: &MessageStream) -> MessageStream {
        let mut all = Vec::with_capacity(self.len() + other.len());
        all.extend_from_slice(&self.messages);
        all.extend_from_slice(&other.messages);
        MessageStream::from_messages(all)
    }
}

impl FromIterator<BgpMessage> for MessageStream {
    fn from_iter<T: IntoIterator<Item = BgpMessage>>(iter: T) -> Self {
        MessageStream::from_messages(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::RouteAttributes;
    use crate::prefix::Prefix;
    use crate::SECOND;

    fn wd(t: Timestamp, i: u32) -> BgpMessage {
        BgpMessage::withdraw(t, Prefix::nth_slash24(i))
    }

    fn ann(t: Timestamp, i: u32) -> BgpMessage {
        BgpMessage::announce(t, Prefix::nth_slash24(i), RouteAttributes::default())
    }

    #[test]
    fn push_keeps_order_even_when_out_of_order() {
        let mut s = MessageStream::new();
        s.push(wd(10, 1));
        s.push(wd(5, 2));
        s.push(wd(20, 3));
        s.push(wd(15, 4));
        let ts: Vec<_> = s.messages().iter().map(|m| m.timestamp).collect();
        assert_eq!(ts, vec![5, 10, 15, 20]);
    }

    #[test]
    fn from_messages_sorts() {
        let s = MessageStream::from_messages(vec![wd(30, 1), wd(10, 2), wd(20, 3)]);
        assert_eq!(s.start(), Some(10));
        assert_eq!(s.end(), Some(30));
        assert_eq!(s.duration(), 20);
    }

    #[test]
    fn counting_and_windows() {
        let s: MessageStream = (0..10).map(|i| wd(i * SECOND, i as u32)).collect();
        assert_eq!(s.total_withdrawals(), 10);
        assert_eq!(s.total_announcements(), 0);
        assert_eq!(s.withdrawals_in_window(0, 5 * SECOND), 5);
        assert_eq!(s.withdrawals_in_window(5 * SECOND, 10 * SECOND), 5);
        assert_eq!(s.withdrawals_in_window(100 * SECOND, 200 * SECOND), 0);
    }

    #[test]
    fn merge_interleaves() {
        let a: MessageStream = vec![wd(1, 1), wd(3, 2)].into_iter().collect();
        let b: MessageStream = vec![ann(2, 3), ann(4, 4)].into_iter().collect();
        let m = a.merge(&b);
        let ts: Vec<_> = m.messages().iter().map(|m| m.timestamp).collect();
        assert_eq!(ts, vec![1, 2, 3, 4]);
        assert_eq!(m.total_withdrawals(), 2);
        assert_eq!(m.total_announcements(), 2);
    }

    #[test]
    fn elementary_event_iteration() {
        let s: MessageStream = vec![wd(1, 1), ann(2, 2)].into_iter().collect();
        let ev: Vec<_> = s.elementary_events().collect();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].is_withdraw());
        assert!(!ev[1].is_withdraw());
    }

    #[test]
    fn empty_stream_edge_cases() {
        let s = MessageStream::new();
        assert!(s.is_empty());
        assert_eq!(s.duration(), 0);
        assert_eq!(s.start(), None);
        assert_eq!(s.end(), None);
        assert_eq!(s.withdrawals_in_window(0, 100), 0);
    }

    #[test]
    fn display_ids() {
        assert_eq!(PeerId(3).to_string(), "peer3");
    }
}
