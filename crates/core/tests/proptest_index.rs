//! Property tests for the inverted prefix-bitset index behind
//! [`LinkCounters`]: on random RIBs, event streams and burst boundaries, the
//! bitset-based `w_union` / `p_union` / `crossing_prefixes` / `predict` must
//! equal the naive full-scan implementations they replaced; step by step
//! against a naive model, the dense-id counters keep every count they
//! maintain; and, attempt after attempt, the engine (with its early
//! turn-down and its delta trials) decides what the scan reference decides.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use swift_bgp::{AsLink, AsPath, ElementaryEvent, Prefix, PrefixSet, RouteAttributes, SECOND};
use swift_core::inference::{
    infer_links, infer_links_scan, predict, predict_scan, rank_links, EngineStatus,
    InferenceEngine, LinkCounters, LinkRanker, Score,
};
use swift_core::InferenceConfig;

/// A random AS path over a tiny AS universe (1..12) so paths collide on links.
fn arb_path() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..12, 0..5)
}

/// Random RIB entries: (prefix index, hops).
fn arb_rib() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    proptest::collection::vec((0u32..80, arb_path()), 0..60)
}

/// Random events: (is_withdraw, prefix index, hops-if-announce).
fn arb_events() -> impl Strategy<Value = Vec<(bool, u32, Vec<u32>)>> {
    proptest::collection::vec((any::<bool>(), 0u32..80, arb_path()), 0..120)
}

fn p(i: u32) -> Prefix {
    Prefix::nth_slash24(i)
}

fn build(rib: &[(u32, Vec<u32>)], events: &[(bool, u32, Vec<u32>)]) -> LinkCounters {
    let seed: Vec<(Prefix, AsPath)> = rib
        .iter()
        .map(|(i, hops)| (p(*i), AsPath::new(hops.iter().copied())))
        .collect();
    let mut c = LinkCounters::from_rib(seed.iter().map(|(a, b)| (a, b)));
    for (withdraw, i, hops) in events {
        if *withdraw {
            c.on_withdraw(p(*i));
        } else {
            c.on_announce_path(p(*i), &AsPath::new(hops.iter().copied()));
        }
    }
    c
}

/// Every link-set query the inference makes, checked against the scan
/// reference. Returns an error string on the first mismatch.
fn check_equivalences(c: &LinkCounters) -> Result<(), String> {
    let links: Vec<AsLink> = c.all_links().copied().collect();
    // Single links, a couple of multi-link sets, and an unknown link.
    let mut sets: Vec<Vec<AsLink>> = links.iter().map(|l| vec![*l]).collect();
    sets.push(links.clone());
    for chunk in links.chunks(3) {
        sets.push(chunk.to_vec());
    }
    sets.push(vec![AsLink::new(900, 901)]);
    sets.push(Vec::new());
    for set in &sets {
        if c.w_union(set) != c.w_union_scan(set) {
            return Err(format!(
                "w_union mismatch on {set:?}: {} != {}",
                c.w_union(set),
                c.w_union_scan(set)
            ));
        }
        if c.p_union(set) != c.p_union_scan(set) {
            return Err(format!(
                "p_union mismatch on {set:?}: {} != {}",
                c.p_union(set),
                c.p_union_scan(set)
            ));
        }
        if c.union_counts(set) != (c.w_union(set), c.p_union(set)) {
            return Err(format!("union_counts inconsistent on {set:?}"));
        }
        let (withdrawn, routed) = c.crossing_prefixes(set);
        let scan_withdrawn: PrefixSet = c
            .withdrawn()
            .filter(|(_, path)| path.crosses_any(set))
            .map(|(q, _)| *q)
            .collect();
        let scan_routed: PrefixSet = c
            .routed()
            .filter(|(_, path)| path.crosses_any(set))
            .map(|(q, _)| *q)
            .collect();
        if withdrawn != scan_withdrawn || routed != scan_routed {
            return Err(format!("crossing_prefixes mismatch on {set:?}"));
        }
    }
    // The maintained per-link counts agree with what the iterators say.
    for l in &links {
        let scan_p = c.routed().filter(|(_, path)| path.crosses_link(l)).count();
        if c.p(l) != scan_p {
            return Err(format!("p({l}) = {} but scan says {scan_p}", c.p(l)));
        }
    }
    Ok(())
}

/// What the model knows of a prefix the counters track.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Routed(AsPath),
    Withdrawn(AsPath),
}

/// The naive counterpart of [`LinkCounters`]: `W(l)` kept per link by name
/// (it outlives the withdrawn state of the prefixes that raised it, so it
/// cannot be recomputed), everything else recomputed by scanning the slots.
#[derive(Debug, Default)]
struct Model {
    slots: BTreeMap<u32, Slot>,
    w: BTreeMap<AsLink, usize>,
    total: usize,
}

impl Model {
    fn distinct_links(path: &AsPath) -> BTreeSet<AsLink> {
        path.links().collect()
    }

    fn announce(&mut self, i: u32, path: AsPath) {
        self.slots.insert(i, Slot::Routed(path));
    }

    fn withdraw(&mut self, i: u32) {
        self.total += 1;
        if let Some(Slot::Routed(path)) = self.slots.get(&i).cloned() {
            for link in Self::distinct_links(&path) {
                *self.w.entry(link).or_default() += 1;
            }
            self.slots.insert(i, Slot::Withdrawn(path));
        }
    }

    fn start_burst(&mut self, window: &[u32]) {
        self.w.clear();
        self.total = window.len();
        let kept: BTreeSet<u32> = window
            .iter()
            .copied()
            .filter(|i| matches!(self.slots.get(i), Some(Slot::Withdrawn(_))))
            .collect();
        self.slots
            .retain(|i, slot| matches!(slot, Slot::Routed(_)) || kept.contains(i));
        for i in kept {
            let Some(Slot::Withdrawn(path)) = self.slots.get(&i) else {
                unreachable!("kept slots are withdrawn")
            };
            for link in Self::distinct_links(path) {
                *self.w.entry(link).or_default() += 1;
            }
        }
    }

    fn p(&self, link: &AsLink) -> usize {
        self.slots
            .values()
            .filter(|slot| matches!(slot, Slot::Routed(path) if path.crosses_link(link)))
            .count()
    }

    /// Prefixes withdrawn now whose path crossed `link` (not `W(link)`: a
    /// prefix re-announced since its withdrawal is in `W` but not here).
    fn withdrawn_now(&self, link: &AsLink) -> usize {
        self.slots
            .values()
            .filter(|slot| matches!(slot, Slot::Withdrawn(path) if path.crosses_link(link)))
            .count()
    }

    fn count(&self, routed: bool) -> usize {
        self.slots
            .values()
            .filter(|slot| matches!(slot, Slot::Routed(_)) == routed)
            .count()
    }
}

/// Everything the counters maintain, against the model and the scans.
fn check_against_model(
    c: &LinkCounters,
    model: &Model,
    ranker: &mut LinkRanker,
    cfg: &InferenceConfig,
) -> Result<(), String> {
    let mut links: BTreeSet<AsLink> = c.all_links().copied().collect();
    links.extend(model.w.keys().copied());
    links.insert(AsLink::new(900, 901));
    for l in &links {
        let want = (model.w.get(l).copied().unwrap_or(0), model.p(l));
        if c.wp(l) != want || (c.w(l), c.p(l)) != want {
            return Err(format!("wp({l}) = {:?}, model says {want:?}", c.wp(l)));
        }
        // The crossing set is the routed and the withdrawn-now prefixes over
        // the link: the floor the engine holds the history model's cap
        // against before the greedy chain.
        let crossing = c.link_id(l).map_or(0, |id| c.crossing_count(id));
        let want = model.withdrawn_now(l) + model.p(l);
        if crossing != want {
            return Err(format!(
                "crossing_count({l}) = {crossing}, model says {want} (withdrawn now + P)"
            ));
        }
    }
    let got = (c.total_withdrawals(), c.routed_count(), c.withdrawn_count());
    let want = (model.total, model.count(true), model.count(false));
    if got != want {
        return Err(format!(
            "(W(t), routed, withdrawn) = {got:?}, model says {want:?}"
        ));
    }
    let links: Vec<AsLink> = links.into_iter().collect();
    for set in links.chunks(3).chain(std::iter::once(&links[..])) {
        let scan = (c.w_union_scan(set), c.p_union_scan(set));
        if c.union_counts(set) != scan {
            return Err(format!(
                "union_counts({set:?}) = {:?}, scan says {scan:?}",
                c.union_counts(set)
            ));
        }
    }
    if ranking_by_name(ranker, c, cfg) != rank_links(c, cfg) {
        return Err("incremental ranking differs from rank_links".into());
    }
    let inferred = infer_links(c, cfg);
    let prediction = predict(c, &inferred);
    let split = (
        prediction.already_withdrawn.len(),
        prediction.predicted.len(),
    );
    if (inferred.withdrawn, inferred.routed) != split
        || inferred.total_affected() != prediction.total_affected()
    {
        return Err(format!(
            "inferred set carries ({}, {}), its prediction splits {split:?}",
            inferred.withdrawn, inferred.routed
        ));
    }
    Ok(())
}

/// The incremental ranking with its link ids resolved, for comparison with
/// [`rank_links`].
fn ranking_by_name(
    ranker: &mut LinkRanker,
    c: &LinkCounters,
    cfg: &InferenceConfig,
) -> Vec<(AsLink, Score)> {
    let ranking = ranker.ranking(c, cfg);
    ranking.iter().map(|(id, s)| (c.link(*id), *s)).collect()
}

proptest! {
    /// Bitset unions equal naive scans on arbitrary RIBs and event streams.
    #[test]
    fn index_matches_scan_on_random_streams(rib in arb_rib(), events in arb_events()) {
        let c = build(&rib, &events);
        if let Err(msg) = check_equivalences(&c) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// The equivalences survive a burst boundary: start_burst purges old
    /// withdrawals and replays the window without desyncing index and scans.
    #[test]
    fn index_matches_scan_across_burst_boundaries(
        rib in arb_rib(),
        events in arb_events(),
        window in proptest::collection::vec(0u32..90, 0..30),
        tail in arb_events(),
    ) {
        let mut c = build(&rib, &events);
        c.start_burst(window.iter().map(|i| p(*i)));
        if let Err(msg) = check_equivalences(&c) {
            prop_assert!(false, "after start_burst: {}", msg);
        }
        // W(t) counts the whole window; W(l) only resurrected prefixes.
        prop_assert_eq!(c.total_withdrawals(), window.len());
        // Keep processing events after the boundary.
        for (withdraw, i, hops) in &tail {
            if *withdraw {
                c.on_withdraw(p(*i));
            } else {
                c.on_announce_path(p(*i), &AsPath::new(hops.iter().copied()));
            }
        }
        if let Err(msg) = check_equivalences(&c) {
            prop_assert!(false, "after post-burst events: {}", msg);
        }
    }

    /// The full inference (link selection + prediction) agrees between the
    /// indexed implementation and the scan baseline.
    #[test]
    fn inference_matches_scan_baseline(rib in arb_rib(), events in arb_events()) {
        let c = build(&rib, &events);
        let cfg = InferenceConfig::default();
        let fast = infer_links(&c, &cfg);
        let slow = infer_links_scan(&c, &cfg);
        prop_assert_eq!(&fast.links, &slow.links);
        let pf = predict(&c, &fast);
        let ps = predict_scan(&c, &slow);
        prop_assert_eq!(pf.already_withdrawn, ps.already_withdrawn);
        prop_assert_eq!(pf.predicted, ps.predicted);
    }

    /// The incrementally maintained candidate ranking equals the from-scratch
    /// ranking at every drain point.
    #[test]
    fn incremental_ranking_matches_from_scratch(rib in arb_rib(), events in arb_events()) {
        let seed: Vec<(Prefix, AsPath)> = rib
            .iter()
            .map(|(i, hops)| (p(*i), AsPath::new(hops.iter().copied())))
            .collect();
        let mut c = LinkCounters::from_rib(seed.iter().map(|(a, b)| (a, b)));
        let cfg = InferenceConfig::default();
        let mut ranker = LinkRanker::new();
        for (k, (withdraw, i, hops)) in events.iter().enumerate() {
            if *withdraw {
                c.on_withdraw(p(*i));
            } else {
                c.on_announce_path(p(*i), &AsPath::new(hops.iter().copied()));
            }
            if k % 7 == 0 {
                ranker.update(c.take_dirty());
                prop_assert_eq!(ranking_by_name(&mut ranker, &c, &cfg), rank_links(&c, &cfg));
            }
        }
        ranker.update(c.take_dirty());
        prop_assert_eq!(ranking_by_name(&mut ranker, &c, &cfg), rank_links(&c, &cfg));
    }

    /// Model-based: after every step of a random announce / withdraw /
    /// same-path re-announce (of routed and of withdrawn prefixes) / path
    /// change / burst start (windows with duplicates, unknown prefixes and
    /// prefixes re-announced since their withdrawal), every maintained count
    /// equals the naive model's, the fused unions equal the scans, the
    /// id-based ranker equals `rank_links` and the inferred set's carried
    /// `(W, P)` is its prediction's split.
    #[test]
    fn counters_match_the_naive_model_step_by_step(
        rib in arb_rib(),
        ops in proptest::collection::vec(
            (0u8..8, 0u32..90, arb_path(), proptest::collection::vec(0u32..100, 0..12)),
            0..150,
        ),
    ) {
        let seed: Vec<(Prefix, AsPath)> = rib
            .iter()
            .map(|(i, hops)| (p(*i), AsPath::new(hops.iter().copied())))
            .collect();
        let mut c = LinkCounters::from_rib(seed.iter().map(|(a, b)| (a, b)));
        let mut model = Model::default();
        for (i, hops) in &rib {
            model.announce(*i, AsPath::new(hops.iter().copied()));
        }
        let cfg = InferenceConfig::default();
        let mut ranker = LinkRanker::new();
        for (step, (kind, i, hops, window)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    c.on_withdraw(p(*i));
                    model.withdraw(*i);
                }
                2 | 3 => {
                    let path = AsPath::new(hops.iter().copied());
                    c.on_announce_path(p(*i), &path);
                    model.announce(*i, path);
                }
                4..=6 => {
                    // Over the path the prefix has, or had when withdrawn; a
                    // prefix not tracked is simply announced.
                    let path = match model.slots.get(i) {
                        Some(Slot::Routed(path) | Slot::Withdrawn(path)) => path.clone(),
                        None => AsPath::new(hops.iter().copied()),
                    };
                    c.on_announce_path(p(*i), &path);
                    model.announce(*i, path);
                }
                _ => {
                    let mut window = window.clone();
                    window.extend(window.first().copied());
                    c.start_burst(window.iter().map(|i| p(*i)));
                    model.start_burst(&window);
                    ranker.reset();
                }
            }
            ranker.update(c.take_dirty());
            if let Err(msg) = check_against_model(&c, &model, &mut ranker, &cfg) {
                prop_assert!(false, "step {} ({:?}): {}", step, (kind, i), msg);
            }
        }
    }

    /// Engine-level, attempt after attempt: on a random RIB over a few ASes
    /// (so links carry many prefixes) and a stream of bursts in which
    /// withdrawn prefixes come back over the path they had, and others move,
    /// every `process` that makes an attempt decides what the full-scan
    /// reference decides on the same counters: the same status under the
    /// history model's cap (small enough to turn attempts down, often before
    /// the chain) and, when accepted, the same links, score, carried `(W, P)`
    /// and withdrawal count.
    #[test]
    fn engine_attempts_match_the_scan_reference(
        rib in proptest::collection::vec((0u32..80, proptest::collection::vec(1u32..7, 1..5)), 0..100),
        events in proptest::collection::vec(
            (0u8..10, 0u32..80, proptest::collection::vec(1u32..7, 1..5), 0u64..40),
            0..250,
        ),
        caps in proptest::collection::vec(1usize..6, 3..4),
        force_threshold in 8usize..40,
    ) {
        let cfg = InferenceConfig {
            burst_start_threshold: 3,
            burst_stop_threshold: 1,
            triggering_threshold: 1,
            plausibility_table: vec![
                (2, caps[0]),
                (4, caps[0] + caps[1]),
                (6, caps[0] + caps[1] + caps[2]),
            ],
            force_threshold,
            ..Default::default()
        };
        let seed: Vec<(Prefix, AsPath)> = rib
            .iter()
            .map(|(i, hops)| (p(*i), AsPath::new(hops.iter().copied())))
            .collect();
        let mut engine = InferenceEngine::new(cfg.clone(), seed.iter().map(|(a, b)| (a, b)));
        // The last path each prefix was announced with (a RIB entry repeated
        // later overrides the earlier one, as in the counters), and the
        // prefixes the stream has withdrawn and not brought back.
        let mut paths: BTreeMap<u32, AsPath> = rib
            .iter()
            .map(|(i, hops)| (*i, AsPath::new(hops.iter().copied())))
            .collect();
        let mut withdrawn: Vec<u32> = Vec::new();
        let mut t = 0;
        for (step, (kind, i, hops, gap)) in events.iter().enumerate() {
            // Milliseconds apart inside a burst; a 30 s silence (one event in
            // 40) closes it.
            t += if *gap == 0 { 30 * SECOND } else { gap * 1_000 };
            let event = match kind {
                0..=3 => {
                    withdrawn.push(*i);
                    ElementaryEvent::Withdraw { timestamp: t, prefix: p(*i) }
                }
                _ => {
                    // Kinds 4 to 7 bring a withdrawn prefix back over the
                    // path it had; the others announce a new path.
                    let new_path = AsPath::new(hops.iter().copied());
                    let (prefix, path) = if *kind < 8 && !withdrawn.is_empty() {
                        let back = withdrawn.swap_remove(*i as usize % withdrawn.len());
                        (back, paths.get(&back).cloned().unwrap_or(new_path))
                    } else {
                        (*i, new_path)
                    };
                    paths.insert(prefix, path.clone());
                    ElementaryEvent::Announce {
                        timestamp: t,
                        prefix: p(prefix),
                        attrs: RouteAttributes::from_path(path),
                    }
                }
            };
            let (status, result) = engine.process(&event);
            if !matches!(status, EngineStatus::Accepted | EngineStatus::RejectedByHistory) {
                prop_assert!(result.is_none());
                continue;
            }
            let reference = infer_links_scan(engine.counters(), &cfg);
            let seen = engine.withdrawals_in_burst();
            let cap = cfg.plausibility_cap(seen);
            let want = if cap.is_some_and(|cap| reference.total_affected() > cap) {
                EngineStatus::RejectedByHistory
            } else {
                EngineStatus::Accepted
            };
            prop_assert!(
                status == want,
                "step {step}: {status:?}, the reference's {:?} against cap {cap:?} says {want:?}",
                (reference.withdrawn, reference.routed)
            );
            if let Some(result) = result {
                prop_assert_eq!(&result.links, &reference);
                prop_assert_eq!(result.withdrawals_seen, seen);
            }
        }
    }
}
