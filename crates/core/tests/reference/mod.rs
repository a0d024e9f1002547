//! The reference model of SWIFT's inference and resync, written from the
//! paper's definitions against the public API only. The library's fused,
//! indexed and incremental paths are tested against it; it is shared by
//! every test that needs it (`mod reference;`).
//!
//! * **RIB.** A `BTreeMap<Prefix, (AsPath, withdrawn)>`: a withdrawn prefix
//!   keeps the path it had, for `W(S)` and the prediction.
//! * **`W(l)` and `W(t)`** (§4.1) count withdrawal *events* since the burst
//!   start, so they are kept as counters; everything else is a scan.
//! * **`W(S)`, `P(S)`** (§4.2): the withdrawn and the routed prefixes whose
//!   path crosses any link of `S`, each prefix once.
//! * **FS** (§4.1): the weighted geometric mean of `WS = W/W(t)` and
//!   `PS = W/(W+P)`, ranked by decreasing FS, ties by link.
//! * **The §4.2 selection**: every link within `fs_tolerance` of the maximum
//!   FS, plus the greedy aggregate: starting from the top link, each link in
//!   decreasing-FS order joins if the aggregate keeps a common endpoint and
//!   its FS strictly increases.
//! * **Prediction** (§3.1): every withdrawn and routed prefix whose path
//!   crosses an inferred link, by scan.
//! * **Resync** (§5): a forwarding table built from scratch over the
//!   applier's routing table, compared lookup by lookup.

#![allow(
    dead_code,
    reason = "each test binary that includes the model uses part of it"
)]

use std::collections::{BTreeMap, BTreeSet};
use swift_bgp::{AsLink, AsPath, Asn, Prefix, PrefixSet};
use swift_core::encoding::TwoStageTable;
use swift_core::inference::{InferredLinks, LinkCounters, Score};
use swift_core::pipeline::Applier;
use swift_core::InferenceConfig;

/// The naive session state: the RIB plus the two event counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct Model {
    /// Prefix → (its path, or the path it had when withdrawn; withdrawn).
    pub(crate) rib: BTreeMap<Prefix, (AsPath, bool)>,
    /// `W(l)`: withdrawals of prefixes whose path crossed `l`, since the
    /// burst start.
    pub(crate) w: BTreeMap<AsLink, usize>,
    /// `W(t)`: withdrawals received since the burst start, unknown and
    /// repeated ones included.
    pub(crate) total: usize,
}

/// The distinct links of `path` (a looped path lists a link once).
fn distinct_links(path: &AsPath) -> BTreeSet<AsLink> {
    path.links().collect()
}

impl Model {
    /// A model seeded with routed prefixes (a later entry for the same
    /// prefix replaces an earlier one).
    pub(crate) fn new<I>(rib: I) -> Self
    where
        I: IntoIterator<Item = (Prefix, AsPath)>,
    {
        let mut model = Model::default();
        for (prefix, path) in rib {
            model.announce(prefix, path);
        }
        model
    }

    /// The model of the state `counters` hold: their routed and withdrawn
    /// prefixes, `W(l)` of every link they know and `W(t)`. What an engine
    /// decides is checked against this; that the counters hold the right
    /// state is checked against the event-driven model.
    pub(crate) fn of_counters(counters: &LinkCounters) -> Self {
        let routed = counters
            .routed()
            .map(|(p, path)| (*p, (path.clone(), false)));
        let withdrawn = counters
            .withdrawn()
            .map(|(p, path)| (*p, (path.clone(), true)));
        Model {
            rib: routed.chain(withdrawn).collect(),
            w: counters
                .all_links()
                .map(|l| (*l, counters.wp(l).0))
                .filter(|(_, w)| *w > 0)
                .collect(),
            total: counters.total_withdrawals(),
        }
    }

    /// An announcement: the prefix is routed over `path`, whatever it was.
    pub(crate) fn announce(&mut self, prefix: Prefix, path: AsPath) {
        self.rib.insert(prefix, (path, false));
    }

    /// A withdrawal: counted in `W(t)`; a routed prefix becomes withdrawn and
    /// counts once in `W(l)` of each link of its path.
    pub(crate) fn withdraw(&mut self, prefix: Prefix) {
        self.total += 1;
        if let Some((path, withdrawn @ false)) = self.rib.get_mut(&prefix) {
            *withdrawn = true;
            for link in distinct_links(path) {
                *self.w.entry(link).or_default() += 1;
            }
        }
    }

    /// A burst start (§4.1): the counters restart, withdrawals of earlier
    /// bursts are forgotten, and the detection `window` is replayed — it
    /// counts in full in `W(t)`, and each prefix in it that is withdrawn now
    /// counts once in `W(l)`.
    pub(crate) fn start_burst(&mut self, window: &[Prefix]) {
        self.w.clear();
        self.total = window.len();
        let kept: BTreeSet<Prefix> = window
            .iter()
            .copied()
            .filter(|p| matches!(self.rib.get(p), Some((_, true))))
            .collect();
        self.rib
            .retain(|prefix, (_, withdrawn)| !*withdrawn || kept.contains(prefix));
        for prefix in kept {
            for link in distinct_links(&self.rib[&prefix].0) {
                *self.w.entry(link).or_default() += 1;
            }
        }
    }

    /// The prefixes whose path crosses any link of `set`, split into
    /// `(withdrawn, routed)`.
    pub(crate) fn crossing(&self, set: &[AsLink]) -> (PrefixSet, PrefixSet) {
        let over = |want: bool| {
            self.rib
                .iter()
                .filter(|(_, (path, withdrawn))| *withdrawn == want && path.crosses_any(set))
                .map(|(prefix, _)| *prefix)
                .collect()
        };
        (over(true), over(false))
    }

    /// `(W(S), P(S))`.
    pub(crate) fn union_counts(&self, set: &[AsLink]) -> (usize, usize) {
        let crossing = self.rib.values().filter(|(path, _)| path.crosses_any(set));
        let withdrawn = crossing.clone().filter(|(_, withdrawn)| *withdrawn).count();
        (withdrawn, crossing.count() - withdrawn)
    }

    /// `(W(l), P(l))` of one link.
    pub(crate) fn wp(&self, link: &AsLink) -> (usize, usize) {
        let w = self.w.get(link).copied().unwrap_or(0);
        (w, self.union_counts(&[*link]).1)
    }

    /// `(W({l}), P({l}))` of every link some path crosses, in one scan.
    fn per_link_counts(&self) -> BTreeMap<AsLink, (usize, usize)> {
        let mut counts: BTreeMap<AsLink, (usize, usize)> = BTreeMap::new();
        for (path, withdrawn) in self.rib.values() {
            for link in distinct_links(path) {
                let entry = counts.entry(link).or_default();
                if *withdrawn {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                }
            }
        }
        counts
    }

    /// Routed and withdrawn prefixes.
    pub(crate) fn routed_and_withdrawn(&self) -> (usize, usize) {
        let withdrawn = self.rib.values().filter(|(_, w)| *w).count();
        (self.rib.len() - withdrawn, withdrawn)
    }

    /// The WS / PS / FS of counts `(w, p)` against `W(t)`.
    pub(crate) fn score(&self, (w, p): (usize, usize), config: &InferenceConfig) -> Score {
        let share = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let (ws, ps) = (share(w, self.total), share(w, w + p));
        // (WS^a · PS^b)^(1/(a+b)), with the weights normalised to sum to 1.
        let (a, b) = config.normalized_weights();
        Score {
            ws,
            ps,
            fs: ws.powf(a) * ps.powf(b),
        }
    }

    /// Every link with `W(l) > 0`, by decreasing FS, ties broken by link.
    pub(crate) fn ranking(&self, config: &InferenceConfig) -> Vec<(AsLink, Score)> {
        let per_link = self.per_link_counts();
        let p = |link: &AsLink| per_link.get(link).map_or(0, |(_, routed)| *routed);
        let mut ranking: Vec<(AsLink, Score)> = (self.w.iter())
            .filter(|(_, w)| **w > 0)
            .map(|(link, w)| (*link, self.score((*w, p(link)), config)))
            .collect();
        ranking.sort_by(|a, b| {
            b.1.fs
                .partial_cmp(&a.1.fs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranking
    }

    /// The §4.2 selection: the maximum-FS ties and the greedy
    /// common-endpoint aggregate, in ranking order, with the set's score and
    /// `(W(S), P(S))`. A one-link result carries the link's own score.
    pub(crate) fn infer(&self, config: &InferenceConfig) -> InferredLinks {
        let ranking = self.ranking(config);
        let Some(&(top, top_score)) = ranking.first() else {
            return InferredLinks {
                links: Vec::new(),
                score: Score {
                    ws: 0.0,
                    ps: 0.0,
                    fs: 0.0,
                },
                withdrawn: 0,
                routed: 0,
            };
        };
        let set_score = |set: &[AsLink]| self.score(self.union_counts(set), config);
        let ties = ranking
            .iter()
            .take_while(|(_, s)| s.fs >= top_score.fs - config.fs_tolerance)
            .count();
        let mut aggregate = vec![top];
        let mut aggregate_fs = set_score(&aggregate).fs;
        for (candidate, _) in &ranking[1..] {
            let mut trial = aggregate.clone();
            trial.push(*candidate);
            if common_endpoint(&trial).is_none() {
                continue;
            }
            let fs = set_score(&trial).fs;
            if fs > aggregate_fs + config.fs_tolerance {
                aggregate = trial;
                aggregate_fs = fs;
            }
        }
        let links: Vec<AsLink> = (ranking.iter().enumerate())
            .filter(|(i, (link, _))| *i < ties || aggregate.contains(link))
            .map(|(_, (link, _))| *link)
            .collect();
        let (withdrawn, routed) = self.union_counts(&links);
        let score = if links.len() == 1 {
            top_score
        } else {
            set_score(&links)
        };
        InferredLinks {
            links,
            score,
            withdrawn,
            routed,
        }
    }
}

/// An AS that is an endpoint of every link of `set`.
fn common_endpoint(set: &[AsLink]) -> Option<Asn> {
    let first = set.first()?;
    [first.from, first.to]
        .into_iter()
        .find(|asn| set.iter().all(|l| l.has_endpoint(*asn)))
}

/// Every count `counters` maintain, against `model`: `(W(l), P(l))` and the
/// crossing-set size of every link either knows, `W(t)`, the routed and
/// withdrawn totals, and the fused `(W(S), P(S))` of every link, of runs of
/// three links and of all of them.
pub(crate) fn check_counters(counters: &LinkCounters, model: &Model) -> Result<(), String> {
    let mut links: BTreeSet<AsLink> = counters.all_links().copied().collect();
    links.extend(model.w.keys().copied());
    links.insert(AsLink::new(900, 901));
    let per_link = model.per_link_counts();
    for l in &links {
        let (withdrawn_now, routed) = per_link.get(l).copied().unwrap_or_default();
        let want = (model.w.get(l).copied().unwrap_or(0), routed);
        if counters.wp(l) != want {
            return Err(format!(
                "wp({l}) = {:?}, model says {want:?}",
                counters.wp(l)
            ));
        }
        // The crossing set is the routed and the withdrawn-now prefixes over
        // the link: the floor the engine holds the history model's cap
        // against before the greedy chain.
        let crossing = counters
            .link_id(l)
            .map_or(0, |id| counters.crossing_count(id));
        if crossing != withdrawn_now + routed {
            return Err(format!(
                "crossing_count({l}) = {crossing}, model says {withdrawn_now} + {routed}"
            ));
        }
        if counters.union_counts(&[*l]) != (withdrawn_now, routed) {
            return Err(format!(
                "union_counts([{l}]) = {:?}, model says {:?}",
                counters.union_counts(&[*l]),
                (withdrawn_now, routed)
            ));
        }
    }
    let got = (
        counters.total_withdrawals(),
        (counters.routed_count(), counters.withdrawn_count()),
    );
    let want = (model.total, model.routed_and_withdrawn());
    if got != want {
        return Err(format!(
            "(W(t), (routed, withdrawn)) = {got:?}, model says {want:?}"
        ));
    }
    let links: Vec<AsLink> = links.into_iter().collect();
    for set in links.chunks(3).chain([&links[..], &[]]) {
        let want = model.union_counts(set);
        if counters.union_counts(set) != want {
            return Err(format!(
                "union_counts({set:?}) = {:?}, model says {want:?}",
                counters.union_counts(set)
            ));
        }
    }
    Ok(())
}

/// The resync reference: a forwarding table built from scratch over
/// `applier`'s routing table forwards every prefix of `prefixes` where the
/// applier's own table does.
pub(crate) fn check_resync<'a>(
    applier: &Applier,
    prefixes: impl IntoIterator<Item = &'a Prefix>,
) -> Result<(), String> {
    let table = applier.table();
    let fresh = TwoStageTable::build(table, &applier.config().encoding, applier.policy());
    for prefix in prefixes {
        let (got, want) = (
            applier.forwarding_next_hop(prefix),
            fresh.lookup(table, prefix),
        );
        if got != want {
            return Err(format!(
                "{prefix}: forwards to {got:?}, a fresh build to {want:?}"
            ));
        }
    }
    Ok(())
}
