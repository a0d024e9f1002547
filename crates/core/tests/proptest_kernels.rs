//! Property tests for the fused bitset kernels behind the inference scorer:
//! on random RIBs, event streams, burst boundaries and representation mixes,
//! the single-pass fused `(w, p)` kernel must equal the reference model's
//! scans (`reference/mod.rs`); the delta count a greedy trial makes must
//! equal a set model; the incremental greedy aggregation must select the
//! same link sets as the model's recounting §4.2 chain; and the dense
//! chunk-summary bitmap must stay consistent with the words it summarizes
//! through every mutation.

mod reference;

use proptest::prelude::*;
use reference::{check_counters, Model};
use std::collections::BTreeSet;
use swift_bgp::{AsPath, Prefix};
use swift_core::inference::{
    delta_union_counts, fused_union_counts, infer_links, IdBitSet, LinkCounters, ScoreScratch,
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

/// One random bitset: a set of ids plus a flag forcing the dense
/// representation from birth (so the kernels see every sparse/dense mix,
/// not just what organic promotion produces).
fn arb_bitset() -> impl Strategy<Value = (Vec<u32>, bool)> {
    (proptest::collection::vec(0u32..6_000, 0..50), any::<bool>())
}

fn bitset_of(ids: &[u32], force_dense: bool) -> IdBitSet {
    let mut s = if force_dense {
        // A zero-capacity dense set: promotion is one-way, so this pins the
        // word-packed form no matter how few ids follow.
        IdBitSet::with_capacity(0)
    } else {
        IdBitSet::new()
    };
    for &id in ids {
        s.set(id);
    }
    s
}

/// An op sequence for the summary-invariant test: (op selector, id).
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..4, 0u32..6_000), 0..120)
}

proptest! {
    /// The fused single-pass kernel agrees with the model's scans on
    /// arbitrary RIBs and event streams: over single links, runs of three,
    /// all links, an unknown link and the empty set.
    #[test]
    fn fused_matches_materialized_and_scan(rib in arb_rib(), events in arb_events()) {
        let (c, model) = build(&rib, &events);
        if let Err(msg) = check_counters(&c, &model) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// The agreement survives a burst boundary (start_burst purges and
    /// replays into reused scratch state) and keeps holding afterwards.
    #[test]
    fn fused_matches_across_burst_boundaries(
        rib in arb_rib(),
        events in arb_events(),
        window in proptest::collection::vec(0u32..90, 0..30),
        tail in arb_events(),
    ) {
        let (mut c, mut model) = build(&rib, &events);
        let window: Vec<Prefix> = window.iter().map(|i| p(*i)).collect();
        c.start_burst(window.iter().copied());
        model.start_burst(&window);
        if let Err(msg) = check_counters(&c, &model) {
            prop_assert!(false, "after start_burst: {}", msg);
        }
        apply(&mut c, &mut model, &tail);
        if let Err(msg) = check_counters(&c, &model) {
            prop_assert!(false, "after post-burst events: {}", msg);
        }
    }

    /// The incremental greedy aggregation (running-union trials) selects the
    /// same links as the model's chain, which recounts each trial set by
    /// scan.
    #[test]
    fn incremental_greedy_matches_recompute(rib in arb_rib(), events in arb_events()) {
        let (c, model) = build(&rib, &events);
        let cfg = InferenceConfig::default();
        // Links, score and the carried (W, P), which the fused chain adds up
        // from delta trials and the model recounts.
        prop_assert_eq!(infer_links(&c, &cfg), model.infer(&cfg));
    }

    /// The raw kernels equal a BTreeSet model on arbitrary sparse/dense
    /// representation mixes of sources and masks: the fused pass counts the
    /// sources' union, the delta count what each source adds to a (dense)
    /// aggregate; scratch reuse across calls never changes an answer.
    #[test]
    fn kernel_matches_model_on_rep_mixes(
        sources in proptest::collection::vec(arb_bitset(), 0..6),
        withdrawn in arb_bitset(),
        routed in arb_bitset(),
        aggregate in proptest::collection::vec(0u32..6_000, 0..50),
    ) {
        let sets: Vec<IdBitSet> =
            sources.iter().map(|(ids, dense)| bitset_of(ids, *dense)).collect();
        let refs: Vec<&IdBitSet> = sets.iter().collect();
        let wmask = bitset_of(&withdrawn.0, withdrawn.1);
        let rmask = bitset_of(&routed.0, routed.1);
        let union: BTreeSet<u32> = sources.iter().flat_map(|(ids, _)| ids.iter().copied()).collect();
        let want = (
            union.iter().filter(|&&id| wmask.test(id)).count(),
            union.iter().filter(|&&id| rmask.test(id)).count(),
        );
        let mut scratch = ScoreScratch::new();
        prop_assert_eq!(fused_union_counts(&refs, &wmask, &rmask, &mut scratch), want);
        // Second pass through the now-warm scratch: same answer.
        prop_assert_eq!(fused_union_counts(&refs, &wmask, &rmask, &mut scratch), want);

        // Every source in turn as the candidate of a delta trial, against an
        // aggregate holding the first half of each source's ids: every
        // candidate overlaps it.
        let mut in_agg: BTreeSet<u32> = aggregate.iter().copied().collect();
        for (ids, _) in &sources {
            in_agg.extend(&ids[..ids.len() / 2]);
        }
        let agg = bitset_of(&in_agg.iter().copied().collect::<Vec<_>>(), true);
        for ((ids, _), candidate) in sources.iter().zip(&sets) {
            let added: BTreeSet<u32> =
                ids.iter().copied().filter(|id| !in_agg.contains(id)).collect();
            let want = (
                added.iter().filter(|&&id| wmask.test(id)).count(),
                added.iter().filter(|&&id| rmask.test(id)).count(),
            );
            prop_assert_eq!(delta_union_counts(candidate, &agg, &wmask, &rmask), want);
        }
    }

    /// The dense chunk-summary bitmap stays consistent with the words it
    /// summarizes through arbitrary insert/remove/union/clear_all sequences,
    /// and the set's contents track a BTreeSet model throughout.
    #[test]
    fn summary_invariant_survives_mutation(
        start_dense in any::<bool>(),
        ops in arb_ops(),
        other in arb_bitset(),
    ) {
        let mut s = bitset_of(&[], start_dense);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let union_src = bitset_of(&other.0, other.1);
        for (op, id) in ops {
            match op {
                0 => {
                    s.set(id);
                    model.insert(id);
                }
                1 => {
                    s.clear(id);
                    model.remove(&id);
                }
                2 => {
                    s.union_with(&union_src);
                    model.extend(other.0.iter().copied());
                }
                _ => {
                    s.clear_all();
                    model.clear();
                }
            }
            if let Err(msg) = s.check_summary_invariant() {
                prop_assert!(false, "after op {op} id {id}: {msg}");
            }
            prop_assert_eq!(s.count(), model.len());
        }
        let ids: Vec<u32> = s.ids().collect();
        let want: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(ids, want);
    }
}
