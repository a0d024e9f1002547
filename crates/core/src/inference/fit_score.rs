//! The Fit Score: the weighted geometric mean of Withdrawal Share and Path
//! Share (§4.1), for single links and for link sets (§4.2, concurrent
//! failures).
//!
//! Two ranking paths exist:
//!
//! * `rank_link_ids` — from scratch: score every link with a withdrawal and
//!   sort. Used by [`crate::inference::infer_links`] (forced inference
//!   outside a burst, tools and tests).
//! * [`LinkRanker`] — the incremental form used by the engine's hot path: the
//!   candidate set (links with `W(l) > 0`) is maintained from the counters'
//!   dirty-link feed between triggering attempts, so an attempt only scores
//!   the candidates instead of walking every link the session has ever seen.
//!
//! Both work on the counters' dense [`LinkId`]s — a score is two array reads
//! — and differ only in where the candidate ids come from.

use crate::config::InferenceConfig;
use crate::dirty::DirtySet;
use crate::inference::counters::{LinkCounters, LinkId};

/// The WS / PS / FS values of one link or link set at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Withdrawal Share: fraction of all received withdrawals explained.
    pub ws: f64,
    /// Path Share: fraction of the prefixes crossing the link(s) withdrawn.
    pub ps: f64,
    /// Fit Score: weighted geometric mean of WS and PS.
    pub fs: f64,
}

/// Weighted geometric mean of WS and PS:
/// `FS = (WS^wWS * PS^wPS)^(1 / (wWS + wPS))`.
fn fit_score_value(ws: f64, ps: f64, config: &InferenceConfig) -> f64 {
    let (w_ws, w_ps) = config.normalized_weights();
    ws.powf(w_ws) * ps.powf(w_ps)
}

/// Builds a [`Score`] from raw `(W(S), P(S), W(t))` counts.
pub(crate) fn score_from_counts(
    w: usize,
    p: usize,
    total: usize,
    config: &InferenceConfig,
) -> Score {
    let ws = if total == 0 {
        0.0
    } else {
        w as f64 / total as f64
    };
    let ps = if w + p == 0 {
        0.0
    } else {
        w as f64 / (w + p) as f64
    };
    Score {
        ws,
        ps,
        fs: fit_score_value(ws, ps, config),
    }
}

/// Scores `ids` into `out`, sorted by decreasing fit score (ties broken by
/// link identity for determinism). Links are distinct, so the order is total
/// and the in-place unstable sort has exactly one outcome.
fn rank_into(
    out: &mut Vec<(LinkId, Score)>,
    ids: impl Iterator<Item = LinkId>,
    counters: &LinkCounters,
    config: &InferenceConfig,
) {
    let total = counters.total_withdrawals();
    out.clear();
    out.extend(ids.map(|id| {
        let (w, p) = counters.wp_of(id);
        (id, score_from_counts(w, p, total, config))
    }));
    out.sort_unstable_by(|a, b| {
        b.1.fs
            .partial_cmp(&a.1.fs)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| counters.link(a.0).cmp(&counters.link(b.0)))
    });
}

/// Scores every link with at least one withdrawal, returning `(link id,
/// score)` pairs sorted by decreasing fit score (ties broken by link
/// identity for determinism): the ranking the link selection consumes.
pub(crate) fn rank_link_ids(
    counters: &LinkCounters,
    config: &InferenceConfig,
) -> Vec<(LinkId, Score)> {
    let mut ranking = Vec::new();
    rank_into(
        &mut ranking,
        counters.ids_with_withdrawals(),
        counters,
        config,
    );
    ranking
}

/// Incrementally maintained link ranking for the engine's hot path.
///
/// Between two triggering attempts of a burst, only the links actually touched
/// by withdrawals change their candidacy; the ranker folds the counters'
/// dirty-link feed ([`LinkCounters::take_dirty`]) into a persistent candidate
/// set instead of re-discovering it by walking every link the counters know
/// (a full-table session tracks orders of magnitude more links than a burst
/// touches). Scores themselves are recomputed per attempt — they are O(1) per
/// candidate, and `W(t)` in the denominator changes with every withdrawal —
/// so [`LinkRanker::ranking`] returns exactly what a from-scratch ranking
/// would.
#[derive(Debug, Clone, Default)]
pub struct LinkRanker {
    /// Every link whose `W(l)` changed since the last reset: a superset of
    /// the links with `W(l) > 0`, which is what a ranking keeps of it.
    candidates: DirtySet<LinkId>,
    /// The last ranking, kept for its capacity.
    ranked: Vec<(LinkId, Score)>,
}

impl LinkRanker {
    /// Creates an empty ranker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every candidate (call at burst boundaries, alongside
    /// [`LinkCounters::start_burst`]).
    pub fn reset(&mut self) {
        self.candidates.clear();
    }

    /// Folds a batch of dirty links into the candidate set.
    pub fn update<I>(&mut self, dirty: I)
    where
        I: IntoIterator<Item = LinkId>,
    {
        for link in dirty {
            self.candidates.mark(link);
        }
    }

    /// The current ranking by link id — the from-scratch ranking of the same
    /// counters, but scoring only the maintained candidates, into a reused
    /// buffer.
    pub fn ranking(
        &mut self,
        counters: &LinkCounters,
        config: &InferenceConfig,
    ) -> &[(LinkId, Score)] {
        let live = self
            .candidates
            .ids()
            .iter()
            .copied()
            .filter(|id| counters.wp_of(*id).0 > 0);
        rank_into(&mut self.ranked, live, counters, config);
        &self.ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsLink, AsPath, Prefix};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn score_link(c: &LinkCounters, link: &AsLink, config: &InferenceConfig) -> Score {
        let (w, p) = c.wp(link);
        score_from_counts(w, p, c.total_withdrawals(), config)
    }

    fn score_link_set(c: &LinkCounters, set: &[AsLink], config: &InferenceConfig) -> Score {
        let (w, p) = c.union_counts(set);
        score_from_counts(w, p, c.total_withdrawals(), config)
    }

    /// The from-scratch ranking by link name.
    fn rank_links(c: &LinkCounters, config: &InferenceConfig) -> Vec<(AsLink, Score)> {
        let ranking = rank_link_ids(c, config);
        ranking.into_iter().map(|(id, s)| (c.link(id), s)).collect()
    }

    /// The Fig. 4 scenario at 1:1000 scale, run to the end of the burst.
    fn fig4_end() -> LinkCounters {
        let mut rib: Vec<(Prefix, AsPath)> = vec![
            (p(0), AsPath::new([2u32])),
            (p(1), AsPath::new([2u32, 5])),
            (p(2), AsPath::new([2u32, 5, 6])),
        ];
        for i in 0..10 {
            rib.push((p(10 + i), AsPath::new([2u32, 5, 6, 7])));
        }
        for i in 0..10 {
            rib.push((p(30 + i), AsPath::new([2u32, 5, 6, 8])));
        }
        let mut c = LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)));
        c.on_withdraw(p(2));
        for i in 0..10 {
            c.on_withdraw(p(30 + i));
        }
        for i in 0..10 {
            c.on_announce_path(p(10 + i), &AsPath::new([2u32, 5, 3, 6, 7]));
        }
        c
    }

    #[test]
    fn fig4_shares_match_paper() {
        let c = fig4_end();
        let cfg = InferenceConfig::default();

        let s56 = score_link(&c, &AsLink::new(5, 6), &cfg);
        assert!((s56.ws - 1.0).abs() < 1e-12, "WS(5,6) = 11/11");
        assert!((s56.ps - 1.0).abs() < 1e-12, "PS(5,6) = 11/11");
        assert!((s56.fs - 1.0).abs() < 1e-12);

        let s25 = score_link(&c, &AsLink::new(2, 5), &cfg);
        assert!((s25.ws - 1.0).abs() < 1e-12, "WS(2,5) = 11/11");
        assert!((s25.ps - 11.0 / 22.0).abs() < 1e-12, "PS(2,5) = 11/22");
        assert!(s25.fs < s56.fs);

        let s68 = score_link(&c, &AsLink::new(6, 8), &cfg);
        assert!((s68.ws - 10.0 / 11.0).abs() < 1e-12, "WS(6,8) = 10/11");
        assert!((s68.ps - 1.0).abs() < 1e-12, "PS(6,8) = 10/10");
        assert!(s68.fs < s56.fs);

        let s67 = score_link(&c, &AsLink::new(6, 7), &cfg);
        assert_eq!(s67.ws, 0.0);
        assert_eq!(s67.fs, 0.0);
    }

    #[test]
    fn failed_link_ranks_first_at_end_of_burst() {
        let c = fig4_end();
        let cfg = InferenceConfig::default();
        let ranking = rank_links(&c, &cfg);
        assert_eq!(ranking[0].0, AsLink::new(5, 6));
        // Every ranked link has withdrawals.
        assert!(ranking.iter().all(|(_, s)| s.ws > 0.0));
    }

    #[test]
    fn ws_weight_dominance_early_in_burst() {
        // Early in a burst only 2 of the 20 prefixes crossing the failed link
        // have been withdrawn: PS is low, but WS is already 1.0. With the
        // paper's 3:1 weighting the failed link must still outrank a link with
        // a spuriously high PS but low WS.
        let mut rib: Vec<(Prefix, AsPath)> = Vec::new();
        for i in 0..20 {
            rib.push((p(i), AsPath::new([2u32, 5, 6])));
        }
        rib.push((p(100), AsPath::new([2u32, 9])));
        let mut c = LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)));
        c.on_withdraw(p(0));
        c.on_withdraw(p(1));
        let cfg = InferenceConfig::default();
        let s56 = score_link(&c, &AsLink::new(5, 6), &cfg);
        assert!((s56.ws - 1.0).abs() < 1e-12);
        assert!((s56.ps - 0.1).abs() < 1e-12);
        assert!(s56.fs > 0.5, "WS-heavy weighting keeps FS high: {}", s56.fs);
        // With inverted weights the same link would score much lower.
        let inverted = InferenceConfig {
            ws_weight: 1.0,
            ps_weight: 3.0,
            ..Default::default()
        };
        let s_inv = score_link(&c, &AsLink::new(5, 6), &inverted);
        assert!(s_inv.fs < s56.fs);
    }

    #[test]
    fn set_scores_aggregate() {
        let c = fig4_end();
        let cfg = InferenceConfig::default();
        // The set {(5,6), (6,8)} shares endpoint 6; the union semantics count
        // the 11 withdrawn prefixes once each.
        let set = [AsLink::new(5, 6), AsLink::new(6, 8)];
        let s = score_link_set(&c, &set, &cfg);
        assert!((s.ws - 1.0).abs() < 1e-12, "11 of 11 withdrawals explained");
        assert!(
            (s.ps - 1.0).abs() < 1e-12,
            "nothing crossing the set survives"
        );
        // Adding a link whose prefixes survived (the re-announced AS 7 prefixes
        // still end with (6,7) hops via AS 3... but that path is (2 5 3 6 7), so
        // its (6,7) hop keeps P(6,7) > 0) dilutes PS and lowers the score.
        let set2 = [AsLink::new(5, 6), AsLink::new(6, 7)];
        let s2 = score_link_set(&c, &set2, &cfg);
        assert!(s2.ps < 1.0);
        assert!(s2.fs < s.fs);
        // Adding the upstream (2,5) link also dilutes PS (AS 5's own prefix and
        // the updated AS 7 prefixes still cross it).
        let set3 = [AsLink::new(2, 5), AsLink::new(5, 6)];
        let s3 = score_link_set(&c, &set3, &cfg);
        assert!(s3.fs < s.fs);
    }

    #[test]
    fn empty_counters_score_zero() {
        let c = LinkCounters::new();
        let cfg = InferenceConfig::default();
        let s = score_link(&c, &AsLink::new(1, 2), &cfg);
        assert_eq!(s.ws, 0.0);
        assert_eq!(s.ps, 0.0);
        assert_eq!(s.fs, 0.0);
        assert!(rank_links(&c, &cfg).is_empty());
        let set = score_link_set(&c, &[], &cfg);
        assert_eq!(set.fs, 0.0);
    }

    #[test]
    fn set_score_matches_scan_reference() {
        let c = fig4_end();
        let cfg = InferenceConfig::default();
        for set in [
            vec![AsLink::new(5, 6)],
            vec![AsLink::new(5, 6), AsLink::new(6, 8)],
            vec![AsLink::new(2, 5), AsLink::new(6, 7)],
            vec![],
        ] {
            let crossing = |it: &mut dyn Iterator<Item = (&Prefix, &AsPath)>| {
                it.filter(|(_, path)| path.crosses_any(&set)).count()
            };
            let (w, p) = (crossing(&mut c.withdrawn()), crossing(&mut c.routed()));
            let slow = score_from_counts(w, p, c.total_withdrawals(), &cfg);
            assert_eq!(score_link_set(&c, &set, &cfg), slow, "set {set:?}");
        }
    }

    #[test]
    fn incremental_ranker_matches_rank_links() {
        let mut rib: Vec<(Prefix, AsPath)> = Vec::new();
        for i in 0..30 {
            rib.push((p(i), AsPath::new([2u32, 5, 6])));
        }
        for i in 30..40 {
            rib.push((p(i), AsPath::new([2u32, 9, 10])));
        }
        let mut c = LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)));
        let cfg = InferenceConfig::default();
        let mut ranker = LinkRanker::new();
        let by_name = |ranker: &mut LinkRanker, c: &LinkCounters| -> Vec<(AsLink, Score)> {
            let ranking = ranker.ranking(c, &cfg);
            ranking.iter().map(|(id, s)| (c.link(*id), *s)).collect()
        };
        // Interleave withdrawals and announcements, folding dirt as the
        // engine would between attempts.
        for i in 0..20u32 {
            c.on_withdraw(p(i));
            if i % 5 == 0 {
                c.on_announce_path(p(30 + i / 5), &AsPath::new([2u32, 5, 3]));
            }
            if i % 4 == 0 {
                ranker.update(c.take_dirty());
                assert_eq!(by_name(&mut ranker, &c), rank_links(&c, &cfg));
            }
        }
        ranker.update(c.take_dirty());
        assert_eq!(by_name(&mut ranker, &c), rank_links(&c, &cfg));
        assert_eq!(ranker.ranking(&c, &cfg).len(), 2, "(2,5) and (5,6)");
        // A burst boundary resets both sides.
        c.start_burst(std::iter::empty());
        ranker.reset();
        ranker.update(c.take_dirty());
        assert!(ranker.ranking(&c, &cfg).is_empty());
        assert!(rank_links(&c, &cfg).is_empty());
    }

    #[test]
    fn fit_score_is_weighted_geometric_mean() {
        let cfg = InferenceConfig::default();
        // ws=1, ps=0.5, weights 3:1 → (1^3 * 0.5)^(1/4) = 0.5^0.25.
        let v = fit_score_value(1.0, 0.5, &cfg);
        assert!((v - 0.5f64.powf(0.25)).abs() < 1e-12);
        // Zero PS forces a zero score regardless of WS.
        assert_eq!(fit_score_value(1.0, 0.0, &cfg), 0.0);
    }
}
