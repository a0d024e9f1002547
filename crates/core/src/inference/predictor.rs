//! Translation of inferred links into predicted prefixes (§3.1, §4.2).
//!
//! SWIFT is deliberately conservative: because BGP messages cannot tell which
//! subset of the prefixes crossing a failed link actually lost connectivity,
//! *all* prefixes whose current path traverses an inferred link are rerouted.
//!
//! The reroute itself needs only the links (the install is O(rules)), so the
//! accepting event does not list the prefixes either: [`predict`] takes the
//! two sets as session-local prefix ids, in one pass each over the crossing
//! ids, beside a snapshot of the session's id → prefix list. A
//! [`PrefixSnapshot`] turns them into prefixes when someone reads them.

use crate::inference::aggregate::InferredLinks;
use crate::inference::bitset::IdBitSet;
use crate::inference::counters::LinkCounters;
use std::fmt;
use std::sync::{Arc, OnceLock};
use swift_bgp::{Prefix, PrefixList, PrefixSet};

/// A set of prefixes as an inference found it: session-local prefix ids
/// over a snapshot of the session's id → prefix list, turned into a sorted
/// [`PrefixSet`] only when someone reads the prefixes.
///
/// Building one costs a pass over the crossing ids into the smaller form
/// (1 bit per session id, or 4 bytes per member) and reference-count bumps
/// for the list; no prefix is read. [`PrefixSnapshot::len`] is known from the
/// start; [`PrefixSnapshot::iter`] and [`PrefixSnapshot::prefixes`] sort the
/// set on the first call and keep it. Clones share all of it, the sorted set
/// included.
///
/// A snapshot never changes: it reads the same prefixes after later events,
/// after the session interns prefixes it had never seen, and after the
/// session is torn down. To that end it keeps alive the chunks of the id →
/// prefix list it indexes (see [`PrefixList`]): the full ones, shared with
/// the session for as long as that lives, and at most one partial chunk of
/// its own. Equality compares contents.
#[derive(Clone, Default)]
pub struct PrefixSnapshot(Option<Arc<Snapshot>>);

/// A non-empty [`PrefixSnapshot`].
struct Snapshot {
    len: usize,
    /// The members, as ids into `list`.
    ids: IdBitSet,
    list: PrefixList,
    /// The members as prefixes, built on the first read.
    sorted: OnceLock<PrefixSet>,
}

impl PrefixSnapshot {
    /// The `len` prefixes behind `ids` in `list`.
    fn new(ids: IdBitSet, len: usize, list: PrefixList) -> Self {
        debug_assert_eq!(ids.count(), len, "a prediction's size is its set's");
        if len == 0 {
            return PrefixSnapshot::default();
        }
        PrefixSnapshot(Some(Arc::new(Snapshot {
            len,
            ids,
            list,
            sorted: OnceLock::new(),
        })))
    }

    /// Number of prefixes. Reads no prefix.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.len)
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The prefixes, in ascending order: sorted on the first call (by this
    /// handle or a clone), then read.
    pub fn prefixes(&self) -> &PrefixSet {
        static EMPTY: PrefixSet = PrefixSet::new();
        match &self.0 {
            None => &EMPTY,
            Some(s) => s
                .sorted
                .get_or_init(|| s.ids.ids().map(|id| *s.list.get(id as usize)).collect()),
        }
    }

    /// Iterates over the prefixes in ascending order (see
    /// [`PrefixSnapshot::prefixes`]).
    pub fn iter(&self) -> std::slice::Iter<'_, Prefix> {
        self.prefixes().iter()
    }
}

impl From<PrefixSet> for PrefixSnapshot {
    /// A snapshot whose prefixes are already listed (a scan's, a
    /// hand-built prediction's).
    fn from(set: PrefixSet) -> Self {
        if set.is_empty() {
            return PrefixSnapshot::default();
        }
        PrefixSnapshot(Some(Arc::new(Snapshot {
            len: set.len(),
            ids: IdBitSet::new(),
            list: PrefixList::default(),
            sorted: OnceLock::from(set),
        })))
    }
}

impl PartialEq for PrefixSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (self.is_empty() || self.prefixes() == other.prefixes())
    }
}

impl Eq for PrefixSnapshot {}

impl fmt::Debug for PrefixSnapshot {
    /// The size, and the prefixes if they were read already: printing
    /// unread ones would sort them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sorted = self.0.as_ref().and_then(|s| s.sorted.get());
        f.debug_struct("PrefixSnapshot")
            .field("len", &self.len())
            .field("prefixes", &sorted)
            .finish()
    }
}

/// The prefix-level view of an inference.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Prefixes whose pre-burst path traversed an inferred link and that were
    /// already withdrawn when the inference was made.
    pub already_withdrawn: PrefixSnapshot,
    /// Prefixes whose current path traverses an inferred link and that are
    /// still routed — these are the prefixes SWIFT reroutes (the "predicted
    /// future withdrawals" of §6.3). The reroute action, the action log and
    /// the runtime's report all hold this one snapshot.
    pub predicted: PrefixSnapshot,
}

impl Prediction {
    /// Every prefix the inference marks as affected (withdrawn or predicted).
    pub fn affected(&self) -> PrefixSet {
        self.already_withdrawn
            .prefixes()
            .union(self.predicted.prefixes())
    }

    /// Total number of prefixes the inference claims are affected — the value
    /// the history model compares against its plausibility cap.
    pub fn total_affected(&self) -> usize {
        self.already_withdrawn.len() + self.predicted.len()
    }
}

/// Computes the prediction for `links` from the current per-session counters.
///
/// Runs on the inverted prefix-bitset index: the links' crossing ids (one
/// link's own set, or the union of several) intersected with the withdrawn
/// and the routed ids, over a snapshot of the session's prefix list. That
/// is `O(ids / 64)` word operations, or one bit read per entry of a
/// posting-list crossing set (fewer than ids / 32 entries); no prefix is
/// read, sorted or hashed. `links` must be what the link selection returned
/// for `counters` as they are now: its `(W(S), P(S))` are the two sets'
/// sizes.
pub fn predict(counters: &LinkCounters, links: &InferredLinks) -> Prediction {
    if links.is_empty() {
        return Prediction::default();
    }
    let (withdrawn, routed) = counters.crossing_ids(&links.links, (links.withdrawn, links.routed));
    let list = counters.prefix_list();
    Prediction {
        already_withdrawn: PrefixSnapshot::new(withdrawn, links.withdrawn, list.clone()),
        predicted: PrefixSnapshot::new(routed, links.routed, list),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InferenceConfig;
    use crate::inference::aggregate::infer_links;
    use swift_bgp::{AsPath, Prefix};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn counters() -> LinkCounters {
        let mut rib: Vec<(Prefix, AsPath)> = Vec::new();
        // 10 prefixes of AS 6, 10 of AS 7, 10 of AS 8 beyond link (5,6);
        // 5 prefixes of AS 5; 5 prefixes elsewhere.
        for i in 0..10 {
            rib.push((p(i), AsPath::new([2u32, 5, 6])));
        }
        for i in 10..20 {
            rib.push((p(i), AsPath::new([2u32, 5, 6, 7])));
        }
        for i in 20..30 {
            rib.push((p(i), AsPath::new([2u32, 5, 6, 8])));
        }
        for i in 30..35 {
            rib.push((p(i), AsPath::new([2u32, 5])));
        }
        for i in 35..40 {
            rib.push((p(i), AsPath::new([2u32, 9])));
        }
        LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)))
    }

    #[test]
    fn prediction_splits_withdrawn_and_future() {
        let mut c = counters();
        // The burst has delivered withdrawals for the AS 6 prefixes only so far.
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert_eq!(inferred.links, vec![swift_bgp::AsLink::new(5, 6)]);
        let pred = predict(&c, &inferred);
        assert_eq!(pred.already_withdrawn.len(), 10);
        assert_eq!(pred.predicted.len(), 20, "AS 7 + AS 8 prefixes predicted");
        assert_eq!(pred.total_affected(), 30);
        assert_eq!(pred.affected().len(), 30);
        // Unrelated prefixes are not predicted.
        assert!(!pred.predicted.prefixes().contains(&p(36)));
        assert!(!pred.predicted.prefixes().contains(&p(31)));
        // The prediction is exactly the still-routed prefixes crossing (5,6).
        assert!(pred.predicted.iter().all(|q| (10..30).contains(&{
            // recover index from the deterministic /24 numbering
            (q.addr() - Prefix::nth_slash24(0).addr()) >> 8
        })));
    }

    #[test]
    fn empty_inference_predicts_nothing() {
        let c = counters();
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert!(inferred.is_empty());
        let pred = predict(&c, &inferred);
        assert_eq!(pred.total_affected(), 0);
        assert!(pred.affected().is_empty());
    }

    #[test]
    fn indexed_prediction_matches_scan_reference() {
        let mut c = counters();
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        for i in 10..15 {
            c.on_announce_path(p(i), &AsPath::new([2u32, 5, 3, 6, 7]));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        let fast = predict(&c, &inferred);
        let scan = |it: &mut dyn Iterator<Item = (&Prefix, &AsPath)>| -> PrefixSet {
            it.filter(|(_, path)| path.crosses_any(&inferred.links))
                .map(|(q, _)| *q)
                .collect()
        };
        assert_eq!(fast.already_withdrawn.prefixes(), &scan(&mut c.withdrawn()));
        assert_eq!(fast.predicted.prefixes(), &scan(&mut c.routed()));
    }

    #[test]
    fn prediction_tracks_reannouncements() {
        let mut c = counters();
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        // AS 7 prefixes are re-announced over a path avoiding (5,6): they must
        // no longer be predicted.
        for i in 10..20 {
            c.on_announce_path(p(i), &AsPath::new([2u32, 5, 3, 6, 7]));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        let pred = predict(&c, &inferred);
        assert_eq!(pred.predicted.len(), 10, "only the AS 8 prefixes remain");
    }
}
