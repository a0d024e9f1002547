//! Property tests for the inverted prefix-bitset index behind
//! [`LinkCounters`], against the reference model (`reference/mod.rs`): on
//! random RIBs, event streams and burst boundaries, the fused `(W(S), P(S))`
//! and `predict` equal the model's scans, and a prediction keeps the
//! prefixes it was made over whatever the session does next; step by step,
//! the dense-id counters keep every count the model keeps, the incremental
//! ranking is the model's FS ranking and the fused greedy chain selects what
//! the model's §4.2 selection does; and, attempt after attempt, the engine
//! (with its early turn-down and its delta trials) decides what the model
//! decides on the same counters.

mod reference;

use proptest::prelude::*;
use reference::{check_counters, Model};
use std::collections::BTreeMap;
use swift_bgp::{AsLink, AsPath, ElementaryEvent, Prefix, RouteAttributes, SECOND};
use swift_core::inference::{
    infer_links, infer_links_ranked, predict, EngineStatus, InferenceEngine, InferredLinks,
    LinkCounters, LinkRanker, Score,
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

/// Counters and the model, seeded with `rib` and fed `events`.
fn build(rib: &[(u32, Vec<u32>)], events: &[(bool, u32, Vec<u32>)]) -> (LinkCounters, Model) {
    let seed: Vec<(Prefix, AsPath)> = rib
        .iter()
        .map(|(i, hops)| (p(*i), AsPath::new(hops.iter().copied())))
        .collect();
    let mut c = LinkCounters::from_rib(seed.iter().map(|(a, b)| (a, b)));
    let mut model = Model::new(seed);
    apply(&mut c, &mut model, events);
    (c, model)
}

fn apply(c: &mut LinkCounters, model: &mut Model, events: &[(bool, u32, Vec<u32>)]) {
    for (withdraw, i, hops) in events {
        if *withdraw {
            c.on_withdraw(p(*i));
            model.withdraw(p(*i));
        } else {
            let path = AsPath::new(hops.iter().copied());
            c.on_announce_path(p(*i), &path);
            model.announce(p(*i), path);
        }
    }
}

/// Every count the counters keep, and the prediction of every link, of runs
/// of three links, of all of them, of an unknown link and of the empty set,
/// against the model.
fn check_equivalences(c: &LinkCounters, model: &Model) -> Result<(), String> {
    check_counters(c, model)?;
    let links: Vec<AsLink> = c.all_links().copied().collect();
    let mut sets: Vec<Vec<AsLink>> = links.iter().map(|l| vec![*l]).collect();
    sets.push(links.clone());
    sets.extend(links.chunks(3).map(<[AsLink]>::to_vec));
    sets.push(vec![AsLink::new(900, 901)]);
    sets.push(Vec::new());
    for set in &sets {
        // Any set, inferred or not, predicts what the scan predicts.
        let (withdrawn, routed) = c.union_counts(set);
        let links = InferredLinks {
            links: set.clone(),
            score: Score {
                ws: 0.0,
                ps: 0.0,
                fs: 0.0,
            },
            withdrawn,
            routed,
        };
        let prediction = predict(c, &links);
        let (want_withdrawn, want_routed) = model.crossing(set);
        if prediction.already_withdrawn.prefixes() != &want_withdrawn
            || prediction.predicted.prefixes() != &want_routed
        {
            return Err(format!("predict mismatch on {set:?}"));
        }
    }
    Ok(())
}

/// Everything the counters maintain, the incremental ranking and the fused
/// selection, against the model.
fn check_against_model(
    c: &LinkCounters,
    model: &Model,
    ranker: &mut LinkRanker,
    cfg: &InferenceConfig,
) -> Result<(), String> {
    check_counters(c, model)?;
    if ranking_by_name(ranker, c, cfg) != model.ranking(cfg) {
        return Err("incremental ranking differs from the model's".into());
    }
    let inferred = infer_links_ranked(c, ranker.ranking(c, cfg), cfg);
    let want = model.infer(cfg);
    if inferred != want {
        return Err(format!("inferred {inferred:?}, the model selects {want:?}"));
    }
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
/// the model's.
fn ranking_by_name(
    ranker: &mut LinkRanker,
    c: &LinkCounters,
    cfg: &InferenceConfig,
) -> Vec<(AsLink, Score)> {
    let ranking = ranker.ranking(c, cfg);
    ranking.iter().map(|(id, s)| (c.link(*id), *s)).collect()
}

/// Router-failure scenario with noise: the fused selection and the model's
/// select identical link sets with identical scores, and the carried counts
/// are the prediction's split.
#[test]
fn indexed_and_scan_inference_agree() {
    let mut seed: Vec<(Prefix, AsPath)> = Vec::new();
    for (hops, count) in [
        (&[2u32, 5, 6, 7][..], 10),
        (&[4, 6, 8], 10),
        (&[2, 5], 5),
        (&[4, 9], 5),
    ] {
        for _ in 0..count {
            seed.push((p(seed.len() as u32), AsPath::new(hops.iter().copied())));
        }
    }
    let mut c = LinkCounters::from_rib(seed.iter().map(|(a, b)| (a, b)));
    let mut model = Model::new(seed);
    // Twenty withdrawals behind AS 6, and one (2,5) prefix: noise.
    for i in (0..20).chain([21]) {
        c.on_withdraw(p(i));
        model.withdraw(p(i));
    }
    let cfg = InferenceConfig::default();
    let fast = infer_links(&c, &cfg);
    assert_eq!(fast, model.infer(&cfg));
    assert!(fast.links.contains(&AsLink::new(4, 6)) && fast.links.contains(&AsLink::new(5, 6)));
    let prediction = predict(&c, &fast);
    assert_eq!(fast.withdrawn, prediction.already_withdrawn.len());
    assert_eq!(fast.routed, prediction.predicted.len());
}

proptest! {
    /// Bitset unions equal the model's scans on arbitrary RIBs and event
    /// streams.
    #[test]
    fn index_matches_scan_on_random_streams(rib in arb_rib(), events in arb_events()) {
        let (c, model) = build(&rib, &events);
        if let Err(msg) = check_equivalences(&c, &model) {
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
        let (mut c, mut model) = build(&rib, &events);
        let window: Vec<Prefix> = window.iter().map(|i| p(*i)).collect();
        c.start_burst(window.iter().copied());
        model.start_burst(&window);
        if let Err(msg) = check_equivalences(&c, &model) {
            prop_assert!(false, "after start_burst: {}", msg);
        }
        // W(t) counts the whole window; W(l) only resurrected prefixes.
        prop_assert_eq!(c.total_withdrawals(), window.len());
        // Keep processing events after the boundary.
        apply(&mut c, &mut model, &tail);
        if let Err(msg) = check_equivalences(&c, &model) {
            prop_assert!(false, "after post-burst events: {}", msg);
        }
    }

    /// The full inference (link selection + prediction) agrees between the
    /// indexed implementation and the model, made at a random point of the
    /// stream; and the prediction does not drift: after a second batch of
    /// events — announcements of never-seen prefixes among them — and a
    /// burst boundary, both its sets still read what the model read when
    /// the prediction was made.
    #[test]
    fn inference_matches_scan_baseline(
        rib in arb_rib(),
        events in arb_events(),
        at in 0usize..=120,
        window in proptest::collection::vec(0u32..90, 0..10),
        later in proptest::collection::vec((any::<bool>(), 0u32..200, arb_path()), 0..120),
    ) {
        let at = at.min(events.len());
        let (mut c, model) = build(&rib, &events[..at]);
        let cfg = InferenceConfig::default();
        let fast = infer_links(&c, &cfg);
        prop_assert_eq!(&fast, &model.infer(&cfg));
        let pf = predict(&c, &fast);
        // The same prediction, not read until the session has moved on.
        let unread = predict(&c, &fast);
        let (withdrawn, routed) = model.crossing(&fast.links);
        prop_assert_eq!(pf.already_withdrawn.prefixes(), &withdrawn);
        prop_assert_eq!(pf.predicted.prefixes(), &routed);
        prop_assert_eq!(
            (pf.already_withdrawn.len(), pf.predicted.len()),
            (fast.withdrawn, fast.routed)
        );
        for (withdraw, i, hops) in events[at..].iter().chain(&later) {
            if *withdraw {
                c.on_withdraw(p(*i));
            } else {
                c.on_announce_path(p(*i), &AsPath::new(hops.iter().copied()));
            }
        }
        // A burst boundary, then the batch again, backwards.
        c.start_burst(window.iter().map(|i| p(*i)));
        for (withdraw, i, hops) in later.iter().rev() {
            if *withdraw {
                c.on_withdraw(p(*i));
            } else {
                c.on_announce_path(p(*i), &AsPath::new(hops.iter().copied()));
            }
        }
        drop(c);
        prop_assert_eq!(unread.already_withdrawn.prefixes(), &withdrawn);
        prop_assert_eq!(unread.predicted.prefixes(), &routed);
        prop_assert_eq!(unread.predicted.iter().count(), fast.routed);
    }

    /// The incrementally maintained candidate ranking equals the model's
    /// from-scratch FS ranking at every drain point.
    #[test]
    fn incremental_ranking_matches_from_scratch(rib in arb_rib(), events in arb_events()) {
        let (mut c, mut model) = build(&rib, &[]);
        let cfg = InferenceConfig::default();
        let mut ranker = LinkRanker::new();
        for (k, event) in events.iter().enumerate() {
            apply(&mut c, &mut model, std::slice::from_ref(event));
            if k % 7 == 0 {
                ranker.update(c.take_dirty());
                prop_assert_eq!(ranking_by_name(&mut ranker, &c, &cfg), model.ranking(&cfg));
            }
        }
        ranker.update(c.take_dirty());
        prop_assert_eq!(ranking_by_name(&mut ranker, &c, &cfg), model.ranking(&cfg));
    }

    /// Model-based: after every step of a random announce / withdraw /
    /// same-path re-announce (of routed and of withdrawn prefixes) / path
    /// change / burst start (windows with duplicates, unknown prefixes and
    /// prefixes re-announced since their withdrawal), every maintained count
    /// equals the model's, the fused unions equal its scans, the id-based
    /// ranker equals its ranking, the fused chain selects what it selects
    /// and the inferred set's carried `(W, P)` is its prediction's split.
    #[test]
    fn counters_match_the_naive_model_step_by_step(
        rib in arb_rib(),
        ops in proptest::collection::vec(
            (0u8..8, 0u32..90, arb_path(), proptest::collection::vec(0u32..100, 0..12)),
            0..150,
        ),
    ) {
        let (mut c, mut model) = build(&rib, &[]);
        let cfg = InferenceConfig::default();
        let mut ranker = LinkRanker::new();
        for (step, (kind, i, hops, window)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => apply(&mut c, &mut model, &[(true, *i, Vec::new())]),
                2 | 3 => apply(&mut c, &mut model, &[(false, *i, hops.clone())]),
                4..=6 => {
                    // Over the path the prefix has, or had when withdrawn; a
                    // prefix not tracked is simply announced.
                    let path = match model.rib.get(&p(*i)) {
                        Some((path, _)) => path.clone(),
                        None => AsPath::new(hops.iter().copied()),
                    };
                    c.on_announce_path(p(*i), &path);
                    model.announce(p(*i), path);
                }
                _ => {
                    let mut window: Vec<Prefix> = window.iter().map(|i| p(*i)).collect();
                    window.extend(window.first().copied());
                    c.start_burst(window.iter().copied());
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
    /// every `process` that makes an attempt decides what the model decides
    /// on the same counters: the same status under the
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
            let reference = Model::of_counters(engine.counters()).infer(&cfg);
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
