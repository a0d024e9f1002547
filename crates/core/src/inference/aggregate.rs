//! Selection of the inferred link set (§4.2).
//!
//! Two mechanisms from the paper are implemented here:
//!
//! * **Maximum-FS tie handling** — when the failed link cannot be univocally
//!   determined, SWIFT returns *all* links with the maximum fit score.
//! * **Concurrent-failure aggregation** — to cover router failures that take
//!   down several adjacent links at once, links sharing a common endpoint are
//!   greedily aggregated (highest FS first) for as long as the fit score of the
//!   aggregate does not decrease.

use crate::config::InferenceConfig;
use crate::inference::counters::{LinkCounters, LinkId};
use crate::inference::fit_score::{rank_link_ids, score_from_counts, Score};
use swift_bgp::{AsLink, Asn};

/// The result of the link-selection step.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredLinks {
    /// The inferred links, highest fit score first.
    pub links: Vec<AsLink>,
    /// The score of the returned set (aggregated definition for multi-link
    /// results, single-link score otherwise).
    pub score: Score,
    /// `W(S)`: the withdrawn prefixes whose path crossed the set — exactly
    /// the prediction's `already_withdrawn`, counted without building it.
    pub withdrawn: usize,
    /// `P(S)`: the still-routed prefixes whose path crosses the set — exactly
    /// the prediction's `predicted`.
    pub routed: usize,
}

impl InferredLinks {
    /// Returns `true` if nothing could be inferred (no withdrawals yet).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of prefixes the inference claims are affected: what
    /// [`crate::inference::Prediction::total_affected`] of its prediction
    /// returns, and the value the history model holds against its cap.
    pub fn total_affected(&self) -> usize {
        self.withdrawn + self.routed
    }

    /// The endpoint shared by every inferred link, if the set was produced by
    /// common-endpoint aggregation (single-link sets have no common endpoint
    /// requirement and return `None` unless trivially shared).
    pub fn common_endpoint(&self) -> Option<Asn> {
        let first = self.links.first()?;
        [first.from, first.to]
            .into_iter()
            .find(|&candidate| self.links.iter().all(|l| l.has_endpoint(candidate)))
    }
}

/// Selects the inferred link set from the current counters.
pub fn infer_links(counters: &LinkCounters, config: &InferenceConfig) -> InferredLinks {
    infer_links_ranked(counters, &rank_link_ids(counters, config), config)
}

/// Selects the inferred link set from a precomputed ranking by link id (the
/// engine's incremental [`crate::inference::LinkRanker`], or the
/// from-scratch ranking behind [`infer_links`]).
///
/// The greedy chain keeps a *running union* of the current aggregate in the
/// counters' kernel scratch and carries the aggregate's `(W, P)`: seeding
/// costs one fused pass over the seed's crossing set, each trial adds what
/// the candidate brings that the aggregate lacks (a delta count over the
/// candidate's own ids or marked words, no sweep of the aggregate), and
/// accepting a candidate ORs it into the running words. A greedy chain over
/// k candidates is one pass plus k candidate-sized trials.
pub fn infer_links_ranked(
    counters: &LinkCounters,
    ranking: &[(LinkId, Score)],
    config: &InferenceConfig,
) -> InferredLinks {
    let Some((top_id, top_score)) = ranking.first().copied() else {
        return InferredLinks {
            links: Vec::with_capacity(0),
            score: Score {
                ws: 0.0,
                ps: 0.0,
                fs: 0.0,
            },
            withdrawn: 0,
            routed: 0,
        };
    };
    let total = counters.total_withdrawals();
    let score = |(w, p): (usize, usize)| score_from_counts(w, p, total, config);

    // Links within tolerance of the maximum fit score are a prefix of the
    // ranking (it is sorted by decreasing FS).
    let max_len = ranking
        .iter()
        .take_while(|(_, s)| s.fs >= top_score.fs - config.fs_tolerance)
        .count();

    // Greedy common-endpoint aggregation starting from the top link (covers
    // router failures that take down several adjacent links): links are tried
    // in decreasing fit-score order; a candidate is added only if (a) the whole
    // aggregate still shares one common endpoint, and (b) the fit score of the
    // aggregate strictly increases ("until the FS … does not increase anymore",
    // §4.2). Unaffected sibling links fail (b) because their still-routed
    // prefixes dilute the path share; siblings whose withdrawals are already
    // explained by the seed add nothing and are left to the max-FS tie rule.
    let mut aggregate: Vec<LinkId> = Vec::with_capacity(4);
    aggregate.push(top_id);
    let seed_counts = counters.agg_seed(top_id);
    let mut aggregate_counts = seed_counts;
    let mut aggregate_score = score(seed_counts);
    // An aggregate's shared endpoints are at most the two of its seed.
    let top_link = counters.link(top_id);
    let mut shared: (Option<Asn>, Option<Asn>) = (Some(top_link.from), Some(top_link.to));
    for (candidate, _) in ranking.iter().skip(1) {
        if aggregate.contains(candidate) {
            continue;
        }
        let link = counters.link(*candidate);
        let still_a = shared.0.filter(|e| link.has_endpoint(*e));
        let still_b = shared.1.filter(|e| link.has_endpoint(*e));
        if still_a.is_none() && still_b.is_none() {
            continue;
        }
        let (w, p) = counters.agg_delta(*candidate);
        let trial_counts = (aggregate_counts.0 + w, aggregate_counts.1 + p);
        let trial_score = score(trial_counts);
        if trial_score.fs > aggregate_score.fs + config.fs_tolerance {
            counters.agg_accept(*candidate);
            aggregate.push(*candidate);
            aggregate_counts = trial_counts;
            aggregate_score = trial_score;
            shared = (still_a, still_b);
        }
    }

    // The returned set is the union of the maximum-FS ties and the aggregation
    // result; deterministic order: aggregation seed first, then by FS rank.
    let ids: Vec<LinkId> = ranking
        .iter()
        .enumerate()
        .filter(|(i, (id, _))| *i < max_len || aggregate.contains(id))
        .map(|(_, (id, _))| *id)
        .collect();

    // A single-link result is the seed alone, and a result with no tie
    // outside the aggregate is the aggregate (which holds the seed): either
    // way its counts are already known.
    let ((withdrawn, routed), score) = if ids.len() == 1 {
        (seed_counts, top_score)
    } else if ids.len() == aggregate.len() {
        (aggregate_counts, aggregate_score)
    } else {
        let counts = counters.union_counts_of(&ids);
        (counts, score(counts))
    };
    InferredLinks {
        links: ids.iter().map(|id| counters.link(*id)).collect(),
        score,
        withdrawn,
        routed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swift_bgp::{AsPath, Prefix};

    fn p(i: u32) -> Prefix {
        Prefix::nth_slash24(i)
    }

    fn seed_rib(entries: &[(&[u32], usize)]) -> LinkCounters {
        let mut rib: Vec<(Prefix, AsPath)> = Vec::new();
        let mut idx = 0;
        for (hops, count) in entries {
            for _ in 0..*count {
                rib.push((p(idx), AsPath::new(hops.iter().copied())));
                idx += 1;
            }
        }
        LinkCounters::from_rib(rib.iter().map(|(a, b)| (a, b)))
    }

    #[test]
    fn single_clear_failure_is_inferred_alone() {
        // Session RIB: 20 prefixes beyond (5,6), plus prefixes originated by
        // AS 5 and AS 2 themselves (the Theorem 4.1 condition that every AS
        // injects a prefix on each adjacent link). Withdrawing the 20 prefixes
        // beyond (5,6) must single out (5,6): the upstream links (2,5) keep
        // AS 5's surviving prefixes, so their path share stays below 1.
        let mut c = seed_rib(&[(&[2, 5, 6], 20), (&[2, 5], 5), (&[2, 9], 20)]);
        for i in 0..20 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert_eq!(inferred.links, vec![AsLink::new(5, 6)]);
        assert!((inferred.score.fs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ambiguous_failure_returns_all_max_fs_links() {
        // Every withdrawn prefix crosses both (5,6) and (6,8) and nothing else
        // distinguishes them: both are returned (§4.2 conservative strategy).
        let mut c = seed_rib(&[(&[5, 6, 8], 10), (&[5, 7], 5)]);
        for i in 0..10 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert!(inferred.links.contains(&AsLink::new(5, 6)));
        assert!(inferred.links.contains(&AsLink::new(6, 8)));
        assert_eq!(inferred.common_endpoint(), Some(Asn(6)));
    }

    #[test]
    fn router_failure_aggregates_links_with_common_endpoint() {
        // AS 6 fails entirely. The vantage reaches AS 7 through (2 5 6 7) and
        // AS 8 through (4 6 8), so no single link explains all withdrawals:
        // the greedy aggregation must combine links sharing endpoint 6.
        // AS 5 and AS 4 keep their own prefixes alive, so the upstream links
        // (2,5) and (4,9) never join the inferred set.
        let mut c = seed_rib(&[
            (&[2, 5, 6, 7], 10),
            (&[4, 6, 8], 10),
            (&[2, 5], 5),
            (&[4, 9], 5),
        ]);
        for i in 0..20 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert!(inferred.links.contains(&AsLink::new(5, 6)));
        assert!(inferred.links.contains(&AsLink::new(6, 7)));
        assert!(inferred.links.contains(&AsLink::new(6, 8)));
        assert!(inferred.links.contains(&AsLink::new(4, 6)));
        assert_eq!(inferred.common_endpoint(), Some(Asn(6)));
        // Healthy links are never included.
        assert!(!inferred.links.contains(&AsLink::new(2, 5)));
        assert!(!inferred.links.contains(&AsLink::new(4, 9)));
        // The aggregate score reflects the union: every withdrawal explained.
        assert!((inferred.score.ws - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_strictly_improves_over_the_seed() {
        // Same router-failure scenario reduced to two disjoint downstream
        // paths: the seed alone explains half the withdrawals, the aggregate
        // explains all of them.
        let mut c = seed_rib(&[
            (&[2, 5, 6, 7], 10),
            (&[4, 6, 8], 10),
            (&[2, 5], 5),
            (&[4, 9], 5),
        ]);
        for i in 0..20 {
            c.on_withdraw(p(i));
        }
        let cfg = InferenceConfig::default();
        let inferred = infer_links(&c, &cfg);
        let (w, p) = c.union_counts(&[AsLink::new(4, 6)]);
        let seed_only = score_from_counts(w, p, c.total_withdrawals(), &cfg);
        assert!(inferred.score.fs > seed_only.fs);
    }

    #[test]
    fn aggregation_does_not_swallow_unaffected_siblings() {
        // Only (6,8) fails; (6,7) keeps all its prefixes. Aggregating (6,7)
        // would lower the fit score, so it must not be included.
        let mut c = seed_rib(&[
            (&[2, 5, 6, 7], 10),
            (&[2, 5, 6, 8], 10),
            (&[2, 5], 5),
            (&[2, 5, 6], 5),
        ]);
        for i in 10..20 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert!(inferred.links.contains(&AsLink::new(6, 8)));
        assert!(!inferred.links.contains(&AsLink::new(6, 7)));
        assert!(!inferred.links.contains(&AsLink::new(2, 5)));
    }

    #[test]
    fn empty_counters_infer_nothing() {
        let c = LinkCounters::new();
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert!(inferred.is_empty());
        assert_eq!(inferred.common_endpoint(), None);
    }

    #[test]
    fn noise_does_not_displace_the_failed_link() {
        // The real failure withdraws 50 prefixes over (5,6); 3 noise
        // withdrawals hit prefixes routed over (2,9).
        let mut c = seed_rib(&[(&[2, 5, 6], 50), (&[2, 5], 5), (&[2, 9], 30)]);
        for i in 0..50 {
            c.on_withdraw(p(i));
        }
        // Noise: withdrawals of prefixes routed over the unrelated (2,9) link
        // (indices 55.. are the (2,9) group).
        for i in 60..63 {
            c.on_withdraw(p(i));
        }
        let inferred = infer_links(&c, &InferenceConfig::default());
        assert_eq!(inferred.links[0], AsLink::new(5, 6));
        assert!(!inferred.links.contains(&AsLink::new(2, 9)));
        assert!(!inferred.links.contains(&AsLink::new(2, 5)));
    }
}
